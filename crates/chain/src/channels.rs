//! Layer-2 payment channels (Lightning-style off-chain scaling).
//!
//! Paper (III-C Problem 2): "many of the new and existing networks are
//! proposing more centralized designs to increase the overall
//! performance. The so-called layer 2 or off-chain solutions like
//! Lightning network (Bitcoin), Plasma (Ethereum) or EOS follow this
//! trend. In these cases, transactions are processed by a much smaller
//! set of peers (outside the core network) to increase performance."
//!
//! The model: a channel graph with directional balances; payments route
//! along shortest capacity-feasible paths, shifting balances hop by
//! hop. Opening/closing a channel costs an on-chain transaction. Two
//! effects are measured: the off-chain **amplification** (payments per
//! on-chain transaction) and the **routing centralization** the paper
//! points at — traffic concentrates on a few well-funded hubs.

use std::collections::BinaryHeap;

use rand::Rng;

use decent_sim::metrics::{gini, top_k_share};
use decent_sim::rng::{rng_from_seed, SimRng};

/// A directional channel balance pair.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ChannelState {
    /// Balance spendable from the lower-indexed endpoint.
    lo_to_hi: f64,
    /// Balance spendable from the higher-indexed endpoint.
    hi_to_lo: f64,
}

/// The payment-channel network.
///
/// # Examples
///
/// ```
/// use decent_chain::channels::ChannelNet;
///
/// let mut net = ChannelNet::new(3);
/// net.open_channel(0, 1, 100.0);
/// net.open_channel(1, 2, 100.0);
/// assert!(net.pay(0, 2, 25.0)); // routed through node 1
/// assert_eq!(net.amplification(), 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct ChannelNet {
    n: usize,
    /// Balances, indexed by channel number (opening order).
    channels: Vec<ChannelState>,
    /// Per node, `(peer, channel number)` in opening order.
    adjacency: Vec<Vec<(usize, usize)>>,
    /// On-chain transactions spent opening channels.
    pub onchain_txs: u64,
    /// Successful off-chain payments.
    pub payments_ok: u64,
    /// Failed payments (no feasible route).
    pub payments_failed: u64,
    /// Per-node forwarding counts (routing load).
    pub forwards: Vec<u64>,
}

impl ChannelNet {
    /// Creates an empty network over `n` participants.
    pub fn new(n: usize) -> Self {
        ChannelNet {
            n,
            channels: Vec::new(),
            adjacency: vec![Vec::new(); n],
            onchain_txs: 0,
            payments_ok: 0,
            payments_failed: 0,
            forwards: vec![0; n],
        }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true if the network has no participants.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of open channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Opens a channel funded with `amount` on each side; costs one
    /// on-chain transaction. Re-opening an existing channel adds funds.
    ///
    /// # Panics
    ///
    /// Panics on self-channels or out-of-range endpoints.
    pub fn open_channel(&mut self, a: usize, b: usize, amount: f64) {
        assert!(a != b && a < self.n && b < self.n, "bad endpoints");
        let existing = self.adjacency[a].iter().find(|&&(peer, _)| peer == b);
        let ch = match existing {
            Some(&(_, ch)) => ch,
            None => {
                let ch = self.channels.len();
                self.channels.push(ChannelState {
                    lo_to_hi: 0.0,
                    hi_to_lo: 0.0,
                });
                self.adjacency[a].push((b, ch));
                self.adjacency[b].push((a, ch));
                ch
            }
        };
        let st = &mut self.channels[ch];
        st.lo_to_hi += amount;
        st.hi_to_lo += amount;
        self.onchain_txs += 1;
    }

    fn capacity(&self, from: usize, to: usize, ch: usize) -> f64 {
        let st = &self.channels[ch];
        if from < to {
            st.lo_to_hi
        } else {
            st.hi_to_lo
        }
    }

    fn shift(&mut self, from: usize, to: usize, ch: usize, amount: f64) {
        let st = &mut self.channels[ch];
        if from < to {
            st.lo_to_hi -= amount;
            st.hi_to_lo += amount;
        } else {
            st.hi_to_lo -= amount;
            st.lo_to_hi += amount;
        }
    }

    /// Dijkstra over hop count among edges with enough capacity. Returns
    /// the hops after `from` as `(node, channel into it)`.
    fn route(&self, from: usize, to: usize, amount: f64) -> Option<Vec<(usize, usize)>> {
        let mut dist = vec![usize::MAX; self.n];
        // `(previous node, channel from it)`.
        let mut prev = vec![(usize::MAX, usize::MAX); self.n];
        let mut heap = BinaryHeap::new();
        dist[from] = 0;
        heap.push(std::cmp::Reverse((0usize, from)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if v == to {
                break;
            }
            if d > dist[v] {
                continue;
            }
            for &(w, ch) in &self.adjacency[v] {
                if self.capacity(v, w, ch) + 1e-12 < amount {
                    continue;
                }
                if d + 1 < dist[w] {
                    dist[w] = d + 1;
                    prev[w] = (v, ch);
                    heap.push(std::cmp::Reverse((d + 1, w)));
                }
            }
        }
        if dist[to] == usize::MAX {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, ch) = prev[cur];
            hops.push((cur, ch));
            cur = p;
        }
        hops.reverse();
        Some(hops)
    }

    /// Attempts an off-chain payment; returns true on success.
    pub fn pay(&mut self, from: usize, to: usize, amount: f64) -> bool {
        match self.route(from, to, amount) {
            Some(hops) => {
                let mut at = from;
                for &(next, ch) in &hops {
                    self.shift(at, next, ch, amount);
                    at = next;
                }
                for &(mid, _) in &hops[..hops.len() - 1] {
                    self.forwards[mid] += 1;
                }
                self.payments_ok += 1;
                true
            }
            None => {
                self.payments_failed += 1;
                false
            }
        }
    }

    /// Off-chain payments per on-chain transaction (the scaling win).
    pub fn amplification(&self) -> f64 {
        self.payments_ok as f64 / self.onchain_txs.max(1) as f64
    }

    /// Share of all forwards handled by the `k` busiest routing nodes.
    pub fn hub_share(&self, k: usize) -> f64 {
        let f: Vec<f64> = self.forwards.iter().map(|&x| x as f64).collect();
        top_k_share(&f, k)
    }

    /// Gini coefficient of the forwarding load.
    pub fn routing_gini(&self) -> f64 {
        let f: Vec<f64> = self.forwards.iter().map(|&x| x as f64).collect();
        gini(&f)
    }
}

/// Topology of the channel graph.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Everyone opens channels with random peers (egalitarian).
    Random {
        /// Channels per participant.
        channels_each: usize,
    },
    /// A few well-funded hubs plus one user→hub channel each (what
    /// Lightning converged to in practice).
    HubAndSpoke {
        /// Number of hubs.
        hubs: usize,
    },
}

/// Builds a network and runs a random-payments workload.
///
/// Returns the network after `payments` attempted payments of
/// `amount` between uniformly random pairs.
pub fn run_workload(
    n: usize,
    topology: Topology,
    funding: f64,
    payments: u64,
    amount: f64,
    seed: u64,
) -> ChannelNet {
    let mut rng: SimRng = rng_from_seed(seed);
    let mut net = ChannelNet::new(n);
    match topology {
        Topology::Random { channels_each } => {
            for a in 0..n {
                for _ in 0..channels_each {
                    let b = rng.gen_range(0..n);
                    if b != a {
                        net.open_channel(a, b, funding);
                    }
                }
            }
        }
        Topology::HubAndSpoke { hubs } => {
            // Hubs interconnect with deep funding, users attach to one hub.
            for h1 in 0..hubs {
                for h2 in (h1 + 1)..hubs {
                    net.open_channel(h1, h2, funding * n as f64 / hubs as f64);
                }
            }
            for user in hubs..n {
                let h = rng.gen_range(0..hubs);
                net.open_channel(user, h, funding);
            }
        }
    }
    for _ in 0..payments {
        let from = rng.gen_range(0..n);
        let mut to = rng.gen_range(0..n);
        while to == from {
            to = rng.gen_range(0..n);
        }
        net.pay(from, to, amount);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_channel_payments_shift_balances() {
        let mut net = ChannelNet::new(2);
        net.open_channel(0, 1, 100.0);
        assert!(net.pay(0, 1, 60.0));
        assert!(!net.pay(0, 1, 60.0), "balance exhausted one way");
        // But the other direction now has extra capacity.
        assert!(net.pay(1, 0, 150.0));
        assert_eq!(net.payments_ok, 2);
        assert_eq!(net.payments_failed, 1);
    }

    #[test]
    fn multi_hop_routing_works_and_loads_middlemen() {
        let mut net = ChannelNet::new(3);
        net.open_channel(0, 1, 100.0);
        net.open_channel(1, 2, 100.0);
        assert!(net.pay(0, 2, 50.0));
        assert_eq!(net.forwards[1], 1);
        assert_eq!(net.forwards[0], 0);
    }

    #[test]
    fn no_route_no_payment() {
        let mut net = ChannelNet::new(4);
        net.open_channel(0, 1, 100.0);
        net.open_channel(2, 3, 100.0);
        assert!(!net.pay(0, 3, 10.0));
    }

    #[test]
    fn amplification_exceeds_onchain_throughput() {
        let net = run_workload(
            200,
            Topology::HubAndSpoke { hubs: 5 },
            200.0,
            20_000,
            1.0,
            7,
        );
        assert!(
            net.amplification() > 20.0,
            "thousands of payments per on-chain tx expected: {}",
            net.amplification()
        );
        let ok_rate = net.payments_ok as f64 / (net.payments_ok + net.payments_failed) as f64;
        assert!(ok_rate > 0.9, "hub networks route well: {ok_rate}");
    }

    #[test]
    fn hubs_centralize_routing() {
        let hubby = run_workload(
            200,
            Topology::HubAndSpoke { hubs: 5 },
            200.0,
            10_000,
            1.0,
            8,
        );
        let flat = run_workload(
            200,
            Topology::Random { channels_each: 4 },
            200.0,
            10_000,
            1.0,
            9,
        );
        assert!(
            hubby.hub_share(5) > 0.99,
            "five hubs forward everything: {}",
            hubby.hub_share(5)
        );
        assert!(
            flat.hub_share(5) < 0.5,
            "random graphs spread load: {}",
            flat.hub_share(5)
        );
        assert!(hubby.routing_gini() > flat.routing_gini());
    }

    #[test]
    fn deterministic() {
        let a = run_workload(
            100,
            Topology::Random { channels_each: 3 },
            50.0,
            2000,
            1.0,
            11,
        );
        let b = run_workload(
            100,
            Topology::Random { channels_each: 3 },
            50.0,
            2000,
            1.0,
            11,
        );
        assert_eq!(a.payments_ok, b.payments_ok);
        assert_eq!(a.forwards, b.forwards);
    }
}

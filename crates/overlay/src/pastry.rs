//! Pastry (Rowstron & Druschel, Middleware 2001).
//!
//! The third of the paper's four canonical DHTs (\[7\]): prefix routing
//! over hexadecimal digits with a **leaf set** for the final hops.
//! Each step either lands inside the leaf-set range (deliver to the
//! numerically closest member) or forwards to a routing-table entry
//! sharing a strictly longer prefix with the target — giving
//! `O(log_16 n)` hops.
//!
//! Maintenance is leaf-set heartbeating: dead leaves are evicted and
//! replaced from the live members' own leaf sets, mirroring the
//! protocol's lazy repair.

use std::collections::HashMap;

use rand::Rng;

use decent_sim::prelude::*;

use crate::id::{Key, KEY_BITS};
use crate::kademlia::Contact;
use crate::lookup::{Hop, Lookups, Outcome, Route, Routed};

/// Hex digits in a 160-bit id.
pub const DIGITS: usize = KEY_BITS / 4;

/// Extracts hex digit `i` (0 = most significant) of a key.
pub fn digit(key: &Key, i: usize) -> usize {
    let byte = key.as_bytes()[i / 2];
    if i.is_multiple_of(2) {
        (byte >> 4) as usize
    } else {
        (byte & 0x0F) as usize
    }
}

/// Length of the shared hex-digit prefix of two keys.
pub fn shared_prefix(a: &Key, b: &Key) -> usize {
    for i in 0..DIGITS {
        if digit(a, i) != digit(b, i) {
            return i;
        }
    }
    DIGITS
}

/// Pastry wire messages.
#[derive(Clone, Debug)]
pub enum PastryMsg {
    /// A routed lookup and its delivery notice.
    Lookup(Routed<Key, Contact>),
    /// Leaf-set heartbeat probe.
    LeafPing {
        /// Correlation id.
        rpc: u64,
    },
    /// Heartbeat response carrying the responder's leaf set.
    LeafPong {
        /// Correlation id.
        rpc: u64,
        /// Responder's contact.
        from: Contact,
        /// Responder's current leaf set.
        leaves: Vec<Contact>,
    },
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct PastryConfig {
    /// Leaf-set size (half smaller, half larger).
    pub leaf_set: usize,
    /// Heartbeat interval for leaf-set maintenance.
    pub heartbeat: SimDuration,
    /// Lookup deadline.
    pub lookup_timeout: SimDuration,
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig {
            leaf_set: 8,
            heartbeat: SimDuration::from_secs(30.0),
            lookup_timeout: SimDuration::from_secs(30.0),
        }
    }
}

impl From<Routed<Key, Contact>> for PastryMsg {
    fn from(msg: Routed<Key, Contact>) -> Self {
        PastryMsg::Lookup(msg)
    }
}

const TIMER_HEARTBEAT: u64 = 1;

/// A Pastry node. Implements [`Node`] for the engine.
#[derive(Debug)]
pub struct PastryNode {
    key: Key,
    cfg: PastryConfig,
    /// Leaf set, sorted by key.
    leaves: Vec<Contact>,
    /// `table[row][col]`: a contact sharing `row` digits with us whose
    /// next digit is `col`. Rows are made on demand, up to the longest
    /// prefix learned: a few at hundreds of nodes, not [`DIGITS`]. A row
    /// past the last is empty.
    table: Vec<[Option<Contact>; 16]>,
    lookups: Lookups<Key>,
    /// Leaf probes in flight: rpc -> probed peer.
    probes: HashMap<u64, NodeId>,
    next_leaf_probe: usize,
    /// Completed lookups, harvested by the experiment harness.
    pub results: Vec<Outcome<Key, Contact>>,
}

impl PastryNode {
    /// Creates a node with the given key.
    pub fn new(key: Key, cfg: PastryConfig) -> Self {
        PastryNode {
            key,
            cfg,
            leaves: Vec::new(),
            table: Vec::new(),
            lookups: Lookups::default(),
            probes: HashMap::new(),
            next_leaf_probe: 0,
            results: Vec::new(),
        }
    }

    /// This node's key.
    pub fn key(&self) -> Key {
        self.key
    }

    /// Current leaf set (sorted by key).
    pub fn leaves(&self) -> &[Contact] {
        &self.leaves
    }

    /// Populated routing-table entries.
    pub fn table_entries(&self) -> usize {
        self.table.iter().flatten().flatten().count()
    }

    /// Installs a contact into the leaf set and routing table.
    pub fn learn(&mut self, c: Contact) {
        if c.key == self.key {
            return;
        }
        // Routing table slot.
        let row = shared_prefix(&self.key, &c.key);
        if row < DIGITS {
            if self.table.len() <= row {
                self.table.resize(row + 1, [None; 16]);
            }
            let slot = &mut self.table[row][digit(&c.key, row)];
            if slot.is_none() {
                *slot = Some(c);
            }
        }
        // Leaf set: keep the leaf_set keys closest to ours (by ring
        // distance approximated with numeric distance on both sides).
        if self.leaves.iter().any(|l| l.node == c.node) {
            return;
        }
        self.leaves.push(c);
        let me = self.key;
        self.leaves.sort_by_key(|l| l.key);
        if self.leaves.len() > self.cfg.leaf_set {
            // Drop the member farthest from us on the ring.
            let mut worst = 0;
            let mut worst_d = Key::ZERO;
            for (i, l) in self.leaves.iter().enumerate() {
                let d = ring_distance(&me, &l.key);
                if d >= worst_d {
                    worst_d = d;
                    worst = i;
                }
            }
            self.leaves.remove(worst);
        }
    }

    fn drop_peer(&mut self, node: NodeId) {
        self.leaves.retain(|l| l.node != node);
        for row in &mut self.table {
            for slot in row.iter_mut() {
                if slot.is_some_and(|c| c.node == node) {
                    *slot = None;
                }
            }
        }
    }

    /// Starts a lookup; the result lands in [`PastryNode::results`].
    pub fn start_lookup(&mut self, target: Key, ctx: &mut Context<'_, PastryMsg>) -> u64 {
        let deadline = Some(self.cfg.lookup_timeout);
        let first = self.lookups.start(target, (), deadline, ctx);
        self.route(first, ctx);
        first.rpc
    }

    /// One routing step: forward by [`PastryNode::next_hop`], or deliver
    /// when we are the numerically closest node we know.
    fn route(&mut self, route: Route<Key>, ctx: &mut Context<'_, PastryMsg>) {
        let me = Contact {
            node: ctx.id(),
            key: self.key,
        };
        let hop = match self.next_hop(&route.target, &me) {
            Some(c) if c.node != me.node => Hop::Forward(c.node),
            _ => Hop::Deliver(me),
        };
        let done = self.lookups.step(hop, route, ctx);
        self.results.extend(done.map(|(_, o)| o));
    }

    /// Whether `target` falls inside the arc covered by this node's
    /// leaf set (ring-aware, in both directions from our key).
    fn within_leaf_range(&self, target: &Key) -> bool {
        let half = Key::ZERO.add_pow2(KEY_BITS - 1); // 2^159
        let mut cw_max = Key::ZERO;
        let mut ccw_max = Key::ZERO;
        for l in &self.leaves {
            let cw = sub(&l.key, &self.key);
            if cw <= half && cw > cw_max {
                cw_max = cw;
            }
            let ccw = sub(&self.key, &l.key);
            if ccw <= half && ccw > ccw_max {
                ccw_max = ccw;
            }
        }
        let cw_t = sub(target, &self.key);
        let ccw_t = sub(&self.key, target);
        cw_t <= cw_max || ccw_t <= ccw_max
    }

    /// Pastry's next-hop rule (the paper's three cases, in order):
    ///
    /// 1. target within the leaf-set range → the numerically closest of
    ///    `self ∪ leaves` (self means deliver);
    /// 2. routing-table entry with a strictly longer shared prefix;
    /// 3. rare case: any known node with shared prefix ≥ ours that is
    ///    strictly closer numerically.
    ///
    /// The `(prefix, -distance)` potential strictly improves on every
    /// forward, so routing always terminates.
    fn next_hop(&self, target: &Key, me: &Contact) -> Option<Contact> {
        // Case 1: leaf-set delivery.
        if self.within_leaf_range(target) {
            let mut best = *me;
            let mut best_d = ring_distance(&me.key, target);
            for l in &self.leaves {
                let d = ring_distance(&l.key, target);
                if d < best_d {
                    best = *l;
                    best_d = d;
                }
            }
            return (best.node != me.node).then_some(best);
        }
        // Case 2: prefix routing.
        let my_prefix = shared_prefix(&self.key, target);
        if my_prefix < DIGITS {
            let col = digit(target, my_prefix);
            if let Some(c) = self.table.get(my_prefix).and_then(|row| row[col]) {
                return Some(c);
            }
        }
        // Case 3: rare case — same-or-longer prefix and strictly closer.
        let mut best = *me;
        let mut best_d = ring_distance(&me.key, target);
        for c in self
            .leaves
            .iter()
            .chain(self.table.iter().flatten().flatten())
        {
            if shared_prefix(&c.key, target) < my_prefix {
                continue;
            }
            let d = ring_distance(&c.key, target);
            if d < best_d {
                best = *c;
                best_d = d;
            }
        }
        (best.node != me.node).then_some(best)
    }
}

/// Distance on the 2^160 ring (minimum of the two directions).
fn ring_distance(a: &Key, b: &Key) -> Key {
    // |a - b| as unsigned big-int, then min(d, 2^160 - d).
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let d = sub(hi, lo);
    // The other way around the ring: 2^160 - d = (MAX - d) + 1, which
    // add_pow2(0) supplies with the correct wrap at d = 0.
    let wrap = sub(&Key::MAX, &d).add_pow2(0);
    if d <= wrap {
        d
    } else {
        wrap
    }
}

fn sub(a: &Key, b: &Key) -> Key {
    let mut out = [0u8; 20];
    let mut borrow = 0i16;
    for i in (0..20).rev() {
        let mut v = a.as_bytes()[i] as i16 - b.as_bytes()[i] as i16 - borrow;
        if v < 0 {
            v += 256;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out[i] = v as u8;
    }
    Key::from_bytes(out)
}

impl Node for PastryNode {
    type Msg = PastryMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, PastryMsg>) {
        let jitter = ctx.rng().gen::<f64>();
        ctx.set_timer(self.cfg.heartbeat * jitter.max(0.05), TIMER_HEARTBEAT);
    }

    fn on_message(&mut self, from: NodeId, msg: PastryMsg, ctx: &mut Context<'_, PastryMsg>) {
        match msg {
            PastryMsg::Lookup(Routed::Route(route)) => self.route(route, ctx),
            PastryMsg::Lookup(Routed::Delivered { rpc, owner, hops }) => {
                let done = self.lookups.complete(rpc, owner, hops, ctx.now());
                self.results.extend(done.map(|(_, o)| o));
            }
            PastryMsg::LeafPing { rpc } => {
                let me = Contact {
                    node: ctx.id(),
                    key: self.key,
                };
                ctx.send(
                    from,
                    PastryMsg::LeafPong {
                        rpc,
                        from: me,
                        leaves: self.leaves.clone(),
                    },
                );
            }
            PastryMsg::LeafPong {
                rpc,
                from: c,
                leaves,
            } => {
                self.probes.remove(&rpc);
                self.learn(c);
                for l in leaves {
                    self.learn(l);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, PastryMsg>) {
        if tag == TIMER_HEARTBEAT {
            // Probe one leaf per round; silence evicts it next round.
            if !self.leaves.is_empty() {
                let idx = self.next_leaf_probe % self.leaves.len();
                self.next_leaf_probe += 1;
                let peer = self.leaves[idx].node;
                let rpc = self.lookups.next_rpc();
                self.probes.insert(rpc, peer);
                ctx.send(peer, PastryMsg::LeafPing { rpc });
                ctx.set_timer(self.cfg.heartbeat * 0.9, rpc);
            }
            ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
            return;
        }
        // RPC timeout: a silent leaf, or a lookup's deadline.
        match self.probes.remove(&tag) {
            Some(peer) => self.drop_peer(peer),
            None => {
                let done = self.lookups.expire(tag, ctx.now());
                self.results.extend(done.map(|(_, o)| o));
            }
        }
    }

    fn on_stop(&mut self, _ctx: &mut Context<'_, PastryMsg>) {
        self.lookups.clear();
        self.probes.clear();
    }
}

/// Builds a pre-converged Pastry network; returns the node ids.
pub fn build_network(
    sim: &mut Simulation<PastryNode>,
    n: usize,
    cfg: &PastryConfig,
    seed: u64,
) -> Vec<NodeId> {
    let mut rng = rng_from_seed(seed);
    let mut keys: Vec<Key> = (0..n).map(|_| Key::random(&mut rng)).collect();
    keys.sort();
    keys.dedup();
    let ids: Vec<NodeId> = keys
        .iter()
        .map(|&key| sim.add_node(PastryNode::new(key, cfg.clone())))
        .collect();
    let n = ids.len();
    let contacts: Vec<Contact> = ids
        .iter()
        .zip(&keys)
        .map(|(&node, &key)| Contact { node, key })
        .collect();
    for i in 0..n {
        // Leaf set: ring neighbors on both sides.
        let half = cfg.leaf_set / 2;
        for d in 1..=half {
            let lo = contacts[(i + n - d) % n];
            let hi = contacts[(i + d) % n];
            sim.node_mut(ids[i]).learn(lo);
            sim.node_mut(ids[i]).learn(hi);
        }
        // Routing table: a random sample fills prefix slots.
        for _ in 0..(16 * 8) {
            let c = contacts[rng.gen_range(0..n)];
            sim.node_mut(ids[i]).learn(c);
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network(n: usize, seed: u64) -> (Simulation<PastryNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed, UniformLatency::from_millis(20.0, 80.0));
        let ids = build_network(&mut sim, n, &PastryConfig::default(), seed ^ 1);
        sim.run_until(SimTime::from_secs(0.5));
        (sim, ids)
    }

    /// The true owner is the node whose key minimizes ring distance.
    fn true_owner(sim: &Simulation<PastryNode>, ids: &[NodeId], target: &Key) -> NodeId {
        *ids.iter()
            .min_by_key(|&&id| ring_distance(&sim.node(id).key(), target))
            .expect("nodes")
    }

    #[test]
    fn digits_roundtrip() {
        let k = Key::from_u64(0xDEAD_BEEF);
        let mut rebuilt = 0usize;
        for i in 0..4 {
            rebuilt = rebuilt << 4 | digit(&k, i);
        }
        // First four digits are the top 16 bits of the key.
        assert_eq!(
            rebuilt,
            (k.as_bytes()[0] as usize) << 8 | k.as_bytes()[1] as usize
        );
        assert_eq!(shared_prefix(&k, &k), DIGITS);
    }

    #[test]
    fn lookups_reach_the_numerically_closest_node() {
        let (mut sim, ids) = network(300, 11);
        for i in 0..40u64 {
            let origin = ids[(i as usize * 13) % ids.len()];
            let t = Key::from_u64(50_000 + i);
            sim.invoke(origin, |n, ctx| {
                n.start_lookup(t, ctx);
            });
        }
        sim.run_until(SimTime::from_secs(120.0));
        let mut checked = 0;
        for &id in &ids {
            for r in &sim.node(id).results {
                assert!(r.success, "{r:?}");
                let owner = true_owner(&sim, &ids, &r.target);
                assert_eq!(
                    r.owner.unwrap().node,
                    owner,
                    "wrong owner for {:?}",
                    r.target
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 40);
    }

    #[test]
    fn hops_are_logarithmic_base_16() {
        let (mut sim, ids) = network(512, 12);
        for i in 0..60u64 {
            let origin = ids[(i as usize * 7) % ids.len()];
            let t = Key::from_u64(90_000 + i);
            sim.invoke(origin, |n, ctx| {
                n.start_lookup(t, ctx);
            });
        }
        sim.run_until(SimTime::from_secs(120.0));
        let mut hops = Histogram::new();
        for &id in &ids {
            for r in &sim.node(id).results {
                hops.record(r.hops as f64);
            }
        }
        // log16(512) ≈ 2.25; prefix routing plus leaf hops stays small.
        assert!(hops.mean() < 6.0, "mean hops {}", hops.mean());
        assert!(hops.mean() >= 1.0);
    }

    #[test]
    fn leaf_heartbeats_evict_dead_members() {
        let (mut sim, ids) = network(80, 13);
        let victim = ids[7];
        // Find someone holding the victim in its leaf set.
        let holder = ids
            .iter()
            .copied()
            .find(|&i| i != victim && sim.node(i).leaves().iter().any(|l| l.node == victim))
            .expect("victim is someone's leaf");
        sim.schedule_stop(victim, SimTime::from_secs(1.0));
        sim.run_until(SimTime::from_mins(30.0));
        assert!(
            !sim.node(holder).leaves().iter().any(|l| l.node == victim),
            "dead leaf must be evicted"
        );
    }

    #[test]
    fn rows_on_demand_route_as_a_full_table() {
        for seed in 0..4 {
            let mut rng = rng_from_seed(0x9A57 + seed);
            let key = Key::random(&mut rng);
            let mut lazy = PastryNode::new(key, PastryConfig::default());
            // The eager layout: every row present from the start.
            let mut eager = PastryNode::new(key, PastryConfig::default());
            eager.table.resize(DIGITS, [None; 16]);
            // Contacts sharing every prefix length with us, so deep rows
            // are learned and dropped too.
            let pool: Vec<Contact> = (0..120)
                .map(|node| Contact {
                    node,
                    key: key.random_in_bucket(rng.gen_range(0..KEY_BITS), &mut rng),
                })
                .collect();
            let me = Contact { node: 999, key };
            let mut rows = 0;
            for step in 0..400 {
                if rng.gen_bool(0.7) {
                    let c = pool[rng.gen_range(0..pool.len())];
                    lazy.learn(c);
                    eager.learn(c);
                    rows = rows.max(shared_prefix(&key, &c.key) + 1);
                } else {
                    let node = rng.gen_range(0..pool.len());
                    lazy.drop_peer(node);
                    eager.drop_peer(node);
                }
                assert_eq!(lazy.table_entries(), eager.table_entries(), "step {step}");
                assert_eq!(lazy.leaves(), eager.leaves(), "step {step}");
                assert_eq!(
                    lazy.table.len(),
                    rows,
                    "step {step}: one row per prefix learned"
                );
                for t in [
                    Key::random(&mut rng),
                    key.random_in_bucket(rng.gen_range(0..KEY_BITS), &mut rng),
                    pool[rng.gen_range(0..pool.len())].key,
                ] {
                    assert_eq!(
                        lazy.next_hop(&t, &me),
                        eager.next_hop(&t, &me),
                        "step {step}: {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_distance_is_symmetric_and_wraps() {
        let a = Key::from_u64(1);
        let b = Key::from_u64(2);
        assert_eq!(ring_distance(&a, &b), ring_distance(&b, &a));
        // ZERO and MAX are adjacent on the ring.
        let d = ring_distance(&Key::ZERO, &Key::MAX);
        assert_eq!(
            d.leading_zeros(),
            KEY_BITS - 1,
            "wrap distance must be tiny"
        );
    }
}

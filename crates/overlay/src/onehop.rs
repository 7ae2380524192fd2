//! One-hop overlay with full membership (Gupta, Liskov & Rodrigues,
//! HotOS 2003).
//!
//! Every node keeps the complete membership table, so lookups route in a
//! single hop; the price is maintenance bandwidth proportional to the
//! global join/leave rate. The paper argues (Section II-B) that for
//! 10K–100K reasonably stable nodes this trade is the right one —
//! experiment E6 quantifies it against Chord and Kademlia.
//!
//! Membership dissemination is modelled as periodic delta gossip: each
//! node pushes its recent membership events to a few random peers.

use std::collections::BTreeMap;

use rand::Rng;

use decent_sim::prelude::*;

use crate::id::Key;
use crate::kademlia::Contact;
use crate::lookup::{Lookups, Outcome};

/// A membership event (join or leave) with a per-subject version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberEvent {
    /// The subject node.
    pub contact: Contact,
    /// Whether the subject is (believed) alive.
    pub alive: bool,
    /// Lamport-style version; higher wins.
    pub version: u64,
}

/// One-hop overlay messages.
#[derive(Clone, Debug)]
pub enum OneHopMsg {
    /// A batch of membership deltas.
    Deltas(Vec<MemberEvent>),
    /// Lookup request routed directly to the believed owner.
    Lookup {
        /// Correlation id at the origin.
        rpc: u64,
        /// Key being resolved.
        target: Key,
    },
    /// Owner's acknowledgement.
    LookupReply {
        /// Correlation id at the origin.
        rpc: u64,
    },
}

/// Protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OneHopConfig {
    /// Gossip period for membership deltas.
    pub gossip_interval: SimDuration,
    /// Peers contacted per gossip round.
    pub gossip_fanout: usize,
    /// Lookup deadline.
    pub lookup_timeout: SimDuration,
    /// Bytes per membership entry on the wire.
    pub entry_bytes: u64,
}

impl Default for OneHopConfig {
    fn default() -> Self {
        OneHopConfig {
            gossip_interval: SimDuration::from_secs(5.0),
            gossip_fanout: 4,
            lookup_timeout: SimDuration::from_secs(10.0),
            entry_bytes: 40,
        }
    }
}

const TIMER_GOSSIP: u64 = 1;

/// A one-hop overlay node. Implements [`Node`] for the engine.
#[derive(Debug)]
pub struct OneHopNode {
    key: Key,
    cfg: OneHopConfig,
    /// Believed membership: subject node -> (event, already-propagated?).
    /// A `BTreeMap`: gossip target selection and successor search walk
    /// the whole table, so the visit order must be the node-id order,
    /// not the hasher's.
    table: BTreeMap<NodeId, MemberEvent>,
    fresh: Vec<MemberEvent>,
    lookups: Lookups<Key>,
    version: u64,
    /// Completed lookups, harvested by the experiment harness: one hop
    /// to the believed owner when it answers in time.
    pub results: Vec<Outcome<Key, NodeId>>,
}

impl OneHopNode {
    /// Creates a node with the given overlay key.
    pub fn new(key: Key, cfg: OneHopConfig) -> Self {
        OneHopNode {
            key,
            cfg,
            table: BTreeMap::new(),
            fresh: Vec::new(),
            lookups: Lookups::default(),
            version: 0,
            results: Vec::new(),
        }
    }

    /// This node's overlay key.
    pub fn key(&self) -> Key {
        self.key
    }

    /// Number of members believed alive.
    pub fn live_members(&self) -> usize {
        self.table.values().filter(|e| e.alive).count()
    }

    /// Seeds the full membership table (bootstrap).
    pub fn seed_membership(&mut self, members: &[Contact]) {
        for &contact in members {
            self.table.insert(
                contact.node,
                MemberEvent {
                    contact,
                    alive: true,
                    version: 0,
                },
            );
        }
    }

    /// The member believed responsible for `target` (successor on the
    /// ring of live members), if any.
    pub fn owner_of(&self, target: &Key) -> Option<Contact> {
        let live = self.table.values().filter(|e| e.alive);
        // Successor: smallest key >= target, wrapping to the global min.
        let mut best: Option<Contact> = None;
        let mut min: Option<Contact> = None;
        for e in live {
            let c = e.contact;
            if min.is_none_or(|m| c.key < m.key) {
                min = Some(c);
            }
            if c.key >= *target && best.is_none_or(|b| c.key < b.key) {
                best = Some(c);
            }
        }
        best.or(min)
    }

    /// Issues a one-hop lookup; result lands in [`OneHopNode::results`].
    pub fn start_lookup(&mut self, target: Key, ctx: &mut Context<'_, OneHopMsg>) -> u64 {
        let deadline = Some(self.cfg.lookup_timeout);
        let rpc = self.lookups.start(target, (), deadline, ctx).rpc;
        if let Some(owner) = self.owner_of(&target) {
            ctx.send(owner.node, OneHopMsg::Lookup { rpc, target });
        }
        rpc
    }

    fn apply_event(&mut self, ev: MemberEvent) -> bool {
        match self.table.get(&ev.contact.node) {
            Some(cur) if cur.version >= ev.version => false,
            _ => {
                self.table.insert(ev.contact.node, ev);
                true
            }
        }
    }

    /// Records a local observation (e.g. from the churn driver) that a
    /// member changed state, to be gossiped onwards.
    pub fn observe(&mut self, contact: Contact, alive: bool) {
        self.version += 1;
        let ev = MemberEvent {
            contact,
            alive,
            version: self.version,
        };
        if self.apply_event(ev) {
            self.fresh.push(ev);
        }
    }
}

impl Node for OneHopNode {
    type Msg = OneHopMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, OneHopMsg>) {
        let jitter = ctx.rng().gen::<f64>();
        ctx.set_timer(self.cfg.gossip_interval * jitter, TIMER_GOSSIP);
    }

    fn on_message(&mut self, from: NodeId, msg: OneHopMsg, ctx: &mut Context<'_, OneHopMsg>) {
        match msg {
            OneHopMsg::Deltas(events) => {
                for ev in events {
                    if self.apply_event(ev) {
                        self.fresh.push(ev);
                    }
                }
            }
            OneHopMsg::Lookup { rpc, .. } => {
                ctx.send(from, OneHopMsg::LookupReply { rpc });
            }
            OneHopMsg::LookupReply { rpc } => {
                let done = self.lookups.complete(rpc, from, 1, ctx.now());
                self.results.extend(done.map(|(_, o)| o));
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, OneHopMsg>) {
        if tag == TIMER_GOSSIP {
            if !self.fresh.is_empty() {
                let deltas: Vec<MemberEvent> = self.fresh.drain(..).collect();
                let bytes = self.cfg.entry_bytes * deltas.len() as u64;
                // `table` is a BTreeMap keyed by node id, so this walk
                // yields peers in sorted order and runs stay
                // reproducible across processes.
                let peers: Vec<NodeId> = self
                    .table
                    .values()
                    .filter(|e| e.alive)
                    .map(|e| e.contact.node)
                    .collect();
                for _ in 0..self.cfg.gossip_fanout.min(peers.len()) {
                    let peer = peers[ctx.rng().gen_range(0..peers.len())];
                    ctx.send_sized(peer, OneHopMsg::Deltas(deltas.clone()), bytes);
                }
            }
            ctx.set_timer(self.cfg.gossip_interval, TIMER_GOSSIP);
            return;
        }
        let done = self.lookups.expire(tag, ctx.now());
        self.results.extend(done.map(|(_, o)| o));
    }
}

/// Builds a one-hop overlay of `n` nodes with fully seeded membership.
pub fn build_network<S: SchedulerFor<OneHopNode>>(
    sim: &mut Simulation<OneHopNode, S>,
    n: usize,
    cfg: OneHopConfig,
    seed: u64,
) -> Vec<NodeId> {
    let mut rng = rng_from_seed(seed);
    let keys: Vec<Key> = (0..n).map(|_| Key::random(&mut rng)).collect();
    let ids: Vec<NodeId> = keys
        .iter()
        .map(|&key| sim.add_node(OneHopNode::new(key, cfg)))
        .collect();
    let members: Vec<Contact> = ids
        .iter()
        .zip(&keys)
        .map(|(&node, &key)| Contact { node, key })
        .collect();
    for &id in &ids {
        sim.node_mut(id).seed_membership(&members);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_takes_one_round_trip() {
        let mut sim = Simulation::new(31, ConstantLatency::from_millis(50.0));
        let ids = build_network(&mut sim, 200, OneHopConfig::default(), 32);
        sim.run_until(SimTime::from_secs(0.1));
        let t = Key::from_u64(999);
        sim.invoke(ids[0], |n, ctx| n.start_lookup(t, ctx));
        sim.run_until(SimTime::from_secs(5.0));
        let r = sim.node(ids[0]).results[0];
        assert!(r.success);
        // One hop out + one back = 100 ms (plus scheduling noise).
        assert!(
            (r.latency.as_millis() - 100.0).abs() < 5.0,
            "latency {}",
            r.latency
        );
    }

    #[test]
    fn owner_is_the_ring_successor() {
        let mut sim = Simulation::new(33, ConstantLatency::from_millis(1.0));
        let ids = build_network(&mut sim, 100, OneHopConfig::default(), 34);
        let t = Key::from_u64(123456);
        let owner = sim.node(ids[0]).owner_of(&t).unwrap();
        // Verify against brute force over the actual keys.
        let mut keys: Vec<(Key, NodeId)> = ids.iter().map(|&i| (sim.node(i).key(), i)).collect();
        keys.sort();
        let expected = keys
            .iter()
            .find(|(k, _)| *k >= t)
            .map(|&(_, i)| i)
            .unwrap_or(keys[0].1);
        assert_eq!(owner.node, expected);
    }

    #[test]
    fn stale_membership_fails_lookups_until_gossip_catches_up() {
        let mut sim = Simulation::new(35, ConstantLatency::from_millis(20.0));
        let ids = build_network(&mut sim, 120, OneHopConfig::default(), 36);
        sim.run_until(SimTime::from_secs(0.1));
        // Kill a node; lookups routed to it must time out at first.
        let t = Key::from_u64(55);
        let victim = sim.node(ids[0]).owner_of(&t).unwrap();
        sim.schedule_stop(victim.node, SimTime::from_secs(0.2));
        sim.run_until(SimTime::from_secs(0.5));
        let origin = ids.iter().copied().find(|&i| i != victim.node).unwrap();
        sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
        sim.run_until(SimTime::from_secs(15.0));
        assert!(!sim.node(origin).results[0].success);
        // Now let some observer gossip the death.
        let observer = ids
            .iter()
            .copied()
            .find(|&i| i != victim.node && i != origin)
            .unwrap();
        sim.invoke(observer, |n, _ctx| n.observe(victim, false));
        sim.run_until(SimTime::from_secs(120.0));
        sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
        sim.run_until(SimTime::from_secs(140.0));
        let r = sim.node(origin).results[1];
        assert!(r.success, "gossiped death should reroute the lookup");
    }

    #[test]
    fn deltas_propagate_epidemic_style() {
        let mut sim = Simulation::new(37, ConstantLatency::from_millis(10.0));
        let ids = build_network(&mut sim, 150, OneHopConfig::default(), 38);
        sim.run_until(SimTime::from_secs(0.1));
        let dead = Contact {
            node: ids[1],
            key: sim.node(ids[1]).key(),
        };
        sim.invoke(ids[0], |n, _| n.observe(dead, false));
        sim.run_until(SimTime::from_secs(200.0));
        let informed = ids
            .iter()
            .filter(|&&i| i != ids[1] && !sim.node(i).table[&dead.node].alive)
            .count();
        assert!(
            informed as f64 > 0.9 * (ids.len() - 1) as f64,
            "only {informed} informed"
        );
    }
}

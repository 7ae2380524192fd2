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
//!
//! The full table is stored once per network, not once per node: every
//! node shares one immutable [`Roster`] of the members it was seeded
//! with (alive, version 0) and keeps only its own `changes`, the members
//! it has since heard a newer event about. A node of an `n`-member
//! network thus costs `O(|changes|)` rather than `O(n)`, and E6 runs in
//! memory linear in `n`.

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
    /// A batch of membership deltas, shared by every fanout copy.
    Deltas(Interned<[MemberEvent]>),
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

/// The membership a network's nodes are seeded with, built once and
/// shared by all of them: every member alive at version 0.
///
/// # Examples
///
/// ```
/// use decent_overlay::id::Key;
/// use decent_overlay::kademlia::Contact;
/// use decent_overlay::onehop::Roster;
///
/// let c = |node, k| Contact { node, key: Key::from_u64(k) };
/// let roster = Roster::new(vec![c(2, 10), c(0, 30), c(1, 20)]);
/// assert_eq!(roster.len(), 3);
/// assert_eq!(roster.get(0), Some(c(0, 30)));
/// assert_eq!(roster.get(3), None);
/// ```
#[derive(Debug, Default)]
pub struct Roster {
    /// Members in node-id order.
    contacts: Vec<Contact>,
    /// Positions in `contacts`, sorted by `(key, node id)`: the ring.
    by_key: Vec<u32>,
}

impl Roster {
    /// Builds the shared roster of `members`.
    ///
    /// # Panics
    ///
    /// Panics if a node id appears twice.
    pub fn new(mut members: Vec<Contact>) -> Interned<Roster> {
        members.sort_by_key(|c| c.node);
        assert!(
            members.windows(2).all(|w| w[0].node < w[1].node),
            "a roster lists each node once"
        );
        let n = u32::try_from(members.len()).expect("a roster holds at most u32::MAX members");
        let mut by_key: Vec<u32> = (0..n).collect();
        by_key.sort_by_key(|&i| (members[i as usize].key, members[i as usize].node));
        Interned::new(Roster {
            contacts: members,
            by_key,
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// Whether the roster has no members.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// The member with node id `id`, if it is on the roster.
    pub fn get(&self, id: NodeId) -> Option<Contact> {
        let at = self.contacts.partition_point(|c| c.node < id);
        self.contacts.get(at).copied().filter(|c| c.node == id)
    }
}

/// A one-hop overlay node. Implements [`Node`] for the engine.
#[derive(Debug)]
pub struct OneHopNode {
    key: Key,
    cfg: OneHopConfig,
    /// The seeded membership, shared with every node of the network.
    roster: Interned<Roster>,
    /// Believed membership where it differs from the roster: the latest
    /// event accepted for each subject. A `BTreeMap`: gossip target
    /// selection and successor search visit members in node-id order,
    /// not in the hasher's.
    changes: BTreeMap<NodeId, MemberEvent>,
    /// Entries of `changes` whose subject is on the roster.
    changed_on_roster: usize,
    /// Entries of `changes` that are alive.
    live_changes: usize,
    fresh: Vec<MemberEvent>,
    lookups: Lookups<Key>,
    version: u64,
    /// Completed lookups, harvested by the experiment harness: one hop
    /// to the believed owner when it answers in time.
    pub results: Vec<Outcome<Key, NodeId>>,
}

impl OneHopNode {
    /// Creates a node with the given overlay key and no membership.
    pub fn new(key: Key, cfg: OneHopConfig) -> Self {
        OneHopNode {
            key,
            cfg,
            roster: Interned::new(Roster::default()),
            changes: BTreeMap::new(),
            changed_on_roster: 0,
            live_changes: 0,
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

    /// Seeds the full membership table (bootstrap): every roster member
    /// alive at version 0, and nothing heard since.
    pub fn seed_membership(&mut self, roster: &Interned<Roster>) {
        self.roster = roster.clone();
        self.changes.clear();
        self.changed_on_roster = 0;
        self.live_changes = 0;
    }

    /// What this node believes about member `id`, if it knows it.
    pub fn member(&self, id: NodeId) -> Option<MemberEvent> {
        self.changes.get(&id).copied().or_else(|| {
            self.roster.get(id).map(|contact| MemberEvent {
                contact,
                alive: true,
                version: 0,
            })
        })
    }

    /// Number of members believed alive.
    fn live_members(&self) -> usize {
        self.roster.len() - self.changed_on_roster + self.live_changes
    }

    /// The `r`-th member believed alive, in node-id order.
    ///
    /// # Panics
    ///
    /// Panics unless `r < self.live_members()`.
    fn live_member(&self, r: usize) -> NodeId {
        let contacts = &self.roster.contacts;
        // Changed roster members and live changes seen so far, all with
        // a smaller id than the change being visited.
        let (mut changed, mut live) = (0, 0);
        for (&id, ev) in &self.changes {
            let at = contacts.partition_point(|c| c.node < id);
            let before = at - changed + live;
            if r < before {
                break;
            }
            if ev.alive {
                if r == before {
                    return id;
                }
                live += 1;
            }
            if contacts.get(at).is_some_and(|c| c.node == id) {
                changed += 1;
            }
        }
        // Between two changes (or past the last) only unchanged roster
        // members remain, and `changed` of the roster's earlier ones
        // are not among them.
        contacts[r - live + changed].node
    }

    /// The member believed responsible for `target` (successor on the
    /// ring of live members), if any.
    pub fn owner_of(&self, target: &Key) -> Option<Contact> {
        let roster = &self.roster;
        let at = roster
            .by_key
            .partition_point(|&i| roster.contacts[i as usize].key < *target);
        // Successor: smallest key >= target, wrapping to the global min.
        self.least_live(at, Some(target))
            .or_else(|| self.least_live(0, None))
    }

    /// The `(key, id)`-least live member among the roster's ring from
    /// rank `from` on and the live changes with a key of at least
    /// `floor`.
    fn least_live(&self, from: usize, floor: Option<&Key>) -> Option<Contact> {
        let roster = &self.roster;
        let unchanged = roster.by_key[from..]
            .iter()
            .map(|&i| roster.contacts[i as usize])
            .find(|c| !self.changes.contains_key(&c.node));
        let changed = self
            .changes
            .values()
            .filter(|e| e.alive && floor.is_none_or(|f| e.contact.key >= *f))
            .map(|e| e.contact)
            .min_by_key(|c| (c.key, c.node));
        unchanged
            .into_iter()
            .chain(changed)
            .min_by_key(|c| (c.key, c.node))
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

    /// Accepts `ev` if it is newer than what this node believes about
    /// its subject.
    fn apply_event(&mut self, ev: MemberEvent) -> bool {
        let id = ev.contact.node;
        let was_alive = match self.changes.get(&id) {
            Some(cur) if cur.version >= ev.version => return false,
            Some(cur) => cur.alive,
            None => {
                let on_roster = self.roster.get(id).is_some();
                // A roster member's believed version is 0.
                if on_roster && ev.version == 0 {
                    return false;
                }
                self.changed_on_roster += usize::from(on_roster);
                false
            }
        };
        self.live_changes = self.live_changes + usize::from(ev.alive) - usize::from(was_alive);
        self.changes.insert(id, ev);
        true
    }

    /// Applies a received batch of deltas, queueing the news onwards.
    fn absorb(&mut self, events: &[MemberEvent]) {
        for &ev in events {
            if self.apply_event(ev) {
                self.fresh.push(ev);
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
            OneHopMsg::Deltas(events) => self.absorb(&events),
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
                let deltas = Interned::from_vec(std::mem::take(&mut self.fresh));
                let bytes = self.cfg.entry_bytes * deltas.len() as u64;
                // Peers are drawn from the live members in node-id
                // order, so runs stay reproducible across processes.
                let live = self.live_members();
                for _ in 0..self.cfg.gossip_fanout.min(live) {
                    let peer = self.live_member(ctx.rng().gen_range(0..live));
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

/// Builds a one-hop overlay of `n` nodes with fully seeded membership,
/// all sharing one [`Roster`].
pub fn build_network(
    sim: &mut Simulation<OneHopNode>,
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
    let roster = Roster::new(
        ids.iter()
            .zip(&keys)
            .map(|(&node, &key)| Contact { node, key })
            .collect(),
    );
    for &id in &ids {
        sim.node_mut(id).seed_membership(&roster);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table as every node kept it before the roster was shared: a
    /// `BTreeMap` of every member, walked whole. The model the shared
    /// roster plus `changes` must answer exactly as.
    struct Model {
        table: BTreeMap<NodeId, MemberEvent>,
        fresh: Vec<MemberEvent>,
        version: u64,
    }

    impl Model {
        fn seeded(members: &[Contact]) -> Self {
            let table = members
                .iter()
                .map(|&contact| {
                    let ev = MemberEvent {
                        contact,
                        alive: true,
                        version: 0,
                    };
                    (contact.node, ev)
                })
                .collect();
            Model {
                table,
                fresh: Vec::new(),
                version: 0,
            }
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

        fn observe(&mut self, contact: Contact, alive: bool) {
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

        fn absorb(&mut self, events: &[MemberEvent]) {
            for &ev in events {
                if self.apply_event(ev) {
                    self.fresh.push(ev);
                }
            }
        }

        fn owner_of(&self, target: &Key) -> Option<Contact> {
            let mut best: Option<Contact> = None;
            let mut min: Option<Contact> = None;
            for e in self.table.values().filter(|e| e.alive) {
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

        fn peers(&self) -> Vec<NodeId> {
            let live = self.table.values().filter(|e| e.alive);
            live.map(|e| e.contact.node).collect()
        }
    }

    /// Drives shared-roster nodes and model nodes through the same
    /// seeded observations and delta deliveries, and compares every
    /// answer after every step.
    fn differential(seed: u64, members: usize, nodes: usize, steps: usize) {
        let mut rng = rng_from_seed(seed);
        // Ids 3i + 1 leave gaps below, between and above the roster;
        // every fifth member shares its key with the one before it, so
        // ties fall to the node id.
        let mut keys: Vec<Key> = Vec::new();
        for i in 0..members {
            let key = match keys.last() {
                Some(&prev) if i % 5 == 4 => prev,
                _ => Key::random(&mut rng),
            };
            keys.push(key);
        }
        let roster_members: Vec<Contact> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| Contact {
                node: 3 * i + 1,
                key,
            })
            .collect();
        let max_id = 3 * members + 3;
        let roster = Roster::new(roster_members.iter().rev().copied().collect());
        let mut real: Vec<OneHopNode> = (0..nodes)
            .map(|i| {
                let mut n = OneHopNode::new(keys[i % members], OneHopConfig::default());
                n.seed_membership(&roster);
                n
            })
            .collect();
        let mut model: Vec<Model> = (0..nodes).map(|_| Model::seeded(&roster_members)).collect();
        let subject = |rng: &mut SimRng| {
            let node = rng.gen_range(0..max_id);
            let key = match rng.gen_range(0..4) {
                // A change whose key differs from the roster's.
                0 => Key::random(rng),
                // Or equals another member's key.
                1 => keys[rng.gen_range(0..members)],
                _ => roster.get(node).map_or_else(|| Key::random(rng), |c| c.key),
            };
            Contact { node, key }
        };
        for step in 0..steps {
            let i = rng.gen_range(0..nodes);
            match rng.gen_range(0..10) {
                0..=3 => {
                    let (c, alive) = (subject(&mut rng), rng.gen_bool(0.4));
                    real[i].observe(c, alive);
                    model[i].observe(c, alive);
                }
                4..=7 => {
                    // One gossip round: node i's news to a few peers.
                    assert_eq!(real[i].fresh, model[i].fresh, "step {step}: fresh");
                    let deltas = Interned::from_vec(std::mem::take(&mut real[i].fresh));
                    model[i].fresh.clear();
                    for _ in 0..rng.gen_range(1..4) {
                        let j = rng.gen_range(0..nodes);
                        real[j].absorb(&deltas);
                        model[j].absorb(&deltas);
                    }
                }
                _ => {
                    // Crafted deltas with low versions: ties between
                    // observers, stale news, and version 0 itself.
                    let events: Vec<MemberEvent> = (0..rng.gen_range(1..5))
                        .map(|_| MemberEvent {
                            contact: subject(&mut rng),
                            alive: rng.gen_bool(0.5),
                            version: rng.gen_range(0..4),
                        })
                        .collect();
                    real[i].absorb(&events);
                    model[i].absorb(&events);
                }
            }
            for (n, m) in real.iter().zip(&model) {
                for id in 0..max_id {
                    assert_eq!(n.member(id), m.table.get(&id).copied(), "step {step}: {id}");
                }
                let peers = m.peers();
                assert_eq!(n.live_members(), peers.len(), "step {step}: live count");
                for (r, &peer) in peers.iter().enumerate() {
                    assert_eq!(n.live_member(r), peer, "step {step}: live member {r}");
                }
                let near = keys[rng.gen_range(0..members)];
                for t in [Key::random(&mut rng), near, Key::ZERO, Key::MAX] {
                    assert_eq!(n.owner_of(&t), m.owner_of(&t), "step {step}: owner");
                }
            }
        }
    }

    #[test]
    fn shared_roster_answers_as_a_full_table() {
        for seed in 0..6 {
            differential(seed, 40, 5, 300);
        }
    }

    #[test]
    fn shared_roster_survives_every_member_dying() {
        // A small roster and many observations: every member dies and
        // comes back, and the empty ring is visited too.
        differential(0x0E, 4, 3, 400);
    }

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
            .filter(|&&i| i != ids[1] && !sim.node(i).member(dead.node).unwrap().alive)
            .count();
        assert!(
            informed as f64 > 0.9 * (ids.len() - 1) as f64,
            "only {informed} informed"
        );
    }
}

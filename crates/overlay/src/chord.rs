//! Chord DHT (Stoica et al., SIGCOMM 2001).
//!
//! Recursive lookup routing over finger tables, with the classic
//! maintenance triad: `stabilize` (successor pointer repair), `notify`
//! (predecessor updates), and `fix_fingers` (finger refresh). Successor
//! lists provide resilience to node failures.
//!
//! Used by experiment E6 to compare multi-hop structured routing against
//! one-hop full-membership overlays, and to account for maintenance
//! traffic.

use std::collections::HashMap;

use rand::Rng;

use decent_sim::prelude::*;

use crate::id::{Key, KEY_BITS};
use crate::kademlia::Contact;
use crate::lookup::{Done, Hop, Lookups, Outcome, Route, Routed};

/// Chord wire messages.
#[derive(Clone, Debug)]
pub enum ChordMsg {
    /// A recursive find-successor lookup and its answer.
    Lookup(Routed<Key, Contact>),
    /// Stabilize: ask a successor for its predecessor and successor list.
    GetPredecessor {
        /// Correlation id.
        rpc: u64,
    },
    /// Reply to [`ChordMsg::GetPredecessor`].
    PredecessorReply {
        /// Correlation id.
        rpc: u64,
        /// The responder's predecessor, if known.
        predecessor: Option<Contact>,
        /// The responder's successor list.
        successors: Vec<Contact>,
        /// The responder's own contact.
        from: Contact,
    },
    /// Tell a successor we believe we are its predecessor.
    Notify {
        /// The notifier's contact.
        from: Contact,
    },
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Successor-list length (resilience to consecutive failures).
    pub successor_list: usize,
    /// Interval between stabilize rounds.
    pub stabilize_interval: SimDuration,
    /// Interval between fix-finger steps (one finger per step).
    pub fix_finger_interval: SimDuration,
    /// Lookup deadline: the origin declares failure after this long.
    pub lookup_timeout: SimDuration,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            successor_list: 4,
            stabilize_interval: SimDuration::from_secs(30.0),
            fix_finger_interval: SimDuration::from_secs(15.0),
            lookup_timeout: SimDuration::from_secs(30.0),
        }
    }
}

impl From<Routed<Key, Contact>> for ChordMsg {
    fn from(msg: Routed<Key, Contact>) -> Self {
        ChordMsg::Lookup(msg)
    }
}

const TIMER_STABILIZE: u64 = 1;
const TIMER_FIX_FINGERS: u64 = 2;

/// What a `GetPredecessor` probe checks.
#[derive(Debug, PartialEq)]
enum Probe {
    Stabilize,
    CheckPredecessor,
}

/// A lookup's purpose: `None` for a user lookup, `Some(i)` to refresh
/// finger `i`.
type FingerFix = Option<usize>;

/// A Chord node. Implements [`Node`] for the simulation engine.
#[derive(Debug)]
pub struct ChordNode {
    key: Key,
    cfg: ChordConfig,
    successors: Vec<Contact>,
    predecessor: Option<Contact>,
    fingers: Vec<Option<Contact>>,
    next_finger: usize,
    lookups: Lookups<Key, FingerFix>,
    /// The rpc of the finger fix in flight; the next fix supersedes it.
    finger_rpc: u64,
    probes: HashMap<u64, Probe>,
    /// Completed lookups, harvested by the experiment harness.
    pub results: Vec<Outcome<Key, Contact>>,
}

impl ChordNode {
    /// Creates a node with the given overlay key and configuration.
    pub fn new(key: Key, cfg: ChordConfig) -> Self {
        ChordNode {
            key,
            cfg,
            successors: Vec::new(),
            predecessor: None,
            fingers: vec![None; KEY_BITS],
            next_finger: 0,
            lookups: Lookups::default(),
            finger_rpc: 0,
            probes: HashMap::new(),
            results: Vec::new(),
        }
    }

    /// This node's overlay key.
    pub fn key(&self) -> Key {
        self.key
    }

    /// Current first successor, if any.
    pub fn successor(&self) -> Option<Contact> {
        self.successors.first().copied()
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<Contact> {
        self.predecessor
    }

    /// Number of populated fingers.
    pub fn finger_count(&self) -> usize {
        self.fingers.iter().flatten().count()
    }

    /// Seeds ring state from global knowledge (pre-converged bootstrap).
    pub fn seed(
        &mut self,
        successors: Vec<Contact>,
        predecessor: Contact,
        fingers: Vec<Option<Contact>>,
    ) {
        self.successors = successors;
        self.predecessor = Some(predecessor);
        self.fingers = fingers;
    }

    /// Issues a lookup for `target`; the outcome lands in
    /// [`ChordNode::results`].
    pub fn start_lookup(&mut self, target: Key, ctx: &mut Context<'_, ChordMsg>) -> u64 {
        let deadline = Some(self.cfg.lookup_timeout);
        let first = self.lookups.start(target, None, deadline, ctx);
        self.route(first, ctx);
        first.rpc
    }

    /// One find-successor step: deliver if our successor owns the key,
    /// else forward to the closest preceding finger, else (no routing
    /// state) answer with ourselves as a last resort.
    fn route(&mut self, route: Route<Key>, ctx: &mut Context<'_, ChordMsg>) {
        let hop = match self.successor() {
            Some(succ) if route.target.in_arc(&self.key, &succ.key) => Hop::Deliver(succ),
            _ => match self.closest_preceding(&route.target, ctx.id()) {
                Some(next) => Hop::Forward(next.node),
                None => Hop::Deliver(Contact {
                    node: ctx.id(),
                    key: self.key,
                }),
            },
        };
        let done = self.lookups.step(hop, route, ctx);
        self.finish(done);
    }

    fn finish(&mut self, done: Done<Key, Contact, FingerFix>) {
        match done {
            Some((None, outcome)) => self.results.push(outcome),
            Some((Some(index), outcome)) => self.fingers[index] = outcome.owner,
            None => {}
        }
    }

    /// The finger (or successor) with the largest key in `(self, target)`.
    fn closest_preceding(&self, target: &Key, self_node: NodeId) -> Option<Contact> {
        let mut best: Option<Contact> = None;
        let candidates = self.fingers.iter().flatten().chain(self.successors.iter());
        for c in candidates {
            if c.node == self_node {
                continue;
            }
            if c.key.in_arc(&self.key, target) && *c.key.as_bytes() != *target.as_bytes() {
                match best {
                    None => best = Some(*c),
                    Some(b) => {
                        // Prefer the candidate closest before the target,
                        // i.e. the one whose key the current best precedes.
                        if b.key.in_arc(&self.key, &c.key) {
                            best = Some(*c);
                        }
                    }
                }
            }
        }
        best.or_else(|| {
            self.successors
                .iter()
                .find(|c| c.node != self_node)
                .copied()
        })
    }

    fn stabilize(&mut self, ctx: &mut Context<'_, ChordMsg>) {
        if let Some(succ) = self.successor() {
            let rpc = self.lookups.next_rpc();
            self.probes.insert(rpc, Probe::Stabilize);
            ctx.send(succ.node, ChordMsg::GetPredecessor { rpc });
            // If the successor never answers, drop it next round.
            ctx.set_timer(self.cfg.stabilize_interval * 0.9, rpc);
        }
        // check_predecessor: probe it and clear the pointer on silence,
        // so stale pointers to departed nodes cannot be re-propagated.
        if let Some(pred) = self.predecessor {
            let rpc = self.lookups.next_rpc();
            self.probes.insert(rpc, Probe::CheckPredecessor);
            ctx.send(pred.node, ChordMsg::GetPredecessor { rpc });
            ctx.set_timer(self.cfg.stabilize_interval * 0.9, rpc);
        }
        ctx.set_timer(self.cfg.stabilize_interval, TIMER_STABILIZE);
    }

    fn fix_one_finger(&mut self, ctx: &mut Context<'_, ChordMsg>) {
        // Fix fingers in a deterministic rotation, skipping the bottom
        // fingers which are covered by the successor list.
        self.next_finger = (self.next_finger + 7) % KEY_BITS;
        let index = self.next_finger;
        let start = self.key.add_pow2(index);
        // A fix arms no deadline, so one routed into a dead node would
        // wait forever: the next fix supersedes it instead.
        self.lookups.cancel(self.finger_rpc);
        let first = self.lookups.start(start, Some(index), None, ctx);
        self.finger_rpc = first.rpc;
        self.route(first, ctx);
        ctx.set_timer(self.cfg.fix_finger_interval, TIMER_FIX_FINGERS);
    }
}

impl Node for ChordNode {
    type Msg = ChordMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ChordMsg>) {
        // Desynchronize maintenance across nodes.
        let j1 = ctx.rng().gen::<f64>();
        let j2 = ctx.rng().gen::<f64>();
        ctx.set_timer(self.cfg.stabilize_interval * j1, TIMER_STABILIZE);
        ctx.set_timer(self.cfg.fix_finger_interval * j2, TIMER_FIX_FINGERS);
    }

    fn on_message(&mut self, from: NodeId, msg: ChordMsg, ctx: &mut Context<'_, ChordMsg>) {
        match msg {
            ChordMsg::Lookup(Routed::Route(route)) => self.route(route, ctx),
            ChordMsg::Lookup(Routed::Delivered { rpc, owner, hops }) => {
                let done = self.lookups.complete(rpc, owner, hops, ctx.now());
                self.finish(done);
            }
            ChordMsg::GetPredecessor { rpc } => {
                let me = Contact {
                    node: ctx.id(),
                    key: self.key,
                };
                ctx.send(
                    from,
                    ChordMsg::PredecessorReply {
                        rpc,
                        predecessor: self.predecessor,
                        successors: self.successors.clone(),
                        from: me,
                    },
                );
            }
            ChordMsg::PredecessorReply {
                rpc,
                predecessor,
                successors,
                from: succ_contact,
            } => {
                if self.probes.remove(&rpc) != Some(Probe::Stabilize) {
                    return;
                }
                // Adopt the successor's predecessor if it sits between us.
                if let Some(p) = predecessor {
                    if p.node != ctx.id() && p.key.in_arc(&self.key, &succ_contact.key) {
                        self.successors.insert(0, p);
                    }
                }
                // Refresh the tail of the successor list.
                let mut list: Vec<Contact> = Vec::with_capacity(self.cfg.successor_list);
                let candidates = self
                    .successors
                    .first()
                    .copied()
                    .into_iter()
                    .chain(std::iter::once(succ_contact))
                    .chain(successors);
                for c in candidates {
                    if list.len() == self.cfg.successor_list {
                        break;
                    }
                    if !list.iter().any(|e| e.node == c.node) {
                        list.push(c);
                    }
                }
                self.successors = list;
                if let Some(succ) = self.successor() {
                    let me = Contact {
                        node: ctx.id(),
                        key: self.key,
                    };
                    ctx.send(succ.node, ChordMsg::Notify { from: me });
                }
            }
            ChordMsg::Notify { from: candidate } => {
                let adopt = match self.predecessor {
                    None => true,
                    Some(p) => candidate.key.in_arc(&p.key, &self.key),
                };
                if adopt && candidate.node != ctx.id() {
                    self.predecessor = Some(candidate);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, ChordMsg>) {
        match tag {
            TIMER_STABILIZE => self.stabilize(ctx),
            TIMER_FIX_FINGERS => self.fix_one_finger(ctx),
            rpc => match self.probes.remove(&rpc) {
                Some(Probe::Stabilize) => {
                    // Successor unresponsive: fail over to the next one.
                    if !self.successors.is_empty() {
                        self.successors.remove(0);
                    }
                }
                Some(Probe::CheckPredecessor) => {
                    // Predecessor unresponsive: forget it so Notify can
                    // install a live one.
                    self.predecessor = None;
                }
                None => {
                    let done = self.lookups.expire(rpc, ctx.now());
                    self.finish(done);
                }
            },
        }
    }

    fn on_stop(&mut self, _ctx: &mut Context<'_, ChordMsg>) {
        self.lookups.clear();
        self.probes.clear();
    }
}

/// Builds a pre-converged Chord ring of `n` nodes and returns their ids
/// (sorted by key order around the ring).
///
/// # Examples
///
/// ```
/// use decent_overlay::chord::{build_ring, ChordConfig};
/// use decent_overlay::id::Key;
/// use decent_sim::prelude::*;
///
/// let mut sim = Simulation::new(1, ConstantLatency::from_millis(40.0));
/// let ids = build_ring(&mut sim, 100, &ChordConfig::default(), 2);
/// sim.invoke(ids[0], |node, ctx| {
///     node.start_lookup(Key::from_u64(7), ctx);
/// });
/// sim.run_until(SimTime::from_secs(60.0));
/// let result = &sim.node(ids[0]).results[0];
/// assert!(result.success);
/// ```
pub fn build_ring(
    sim: &mut Simulation<ChordNode>,
    n: usize,
    cfg: &ChordConfig,
    seed: u64,
) -> Vec<NodeId> {
    let mut rng = rng_from_seed(seed);
    let mut keys: Vec<Key> = (0..n).map(|_| Key::random(&mut rng)).collect();
    keys.sort();
    keys.dedup();
    let ids: Vec<NodeId> = keys
        .iter()
        .map(|&key| sim.add_node(ChordNode::new(key, cfg.clone())))
        .collect();
    let n = ids.len();
    let contact = |i: usize| Contact {
        node: ids[i % n],
        key: keys[i % n],
    };
    for i in 0..n {
        let successors: Vec<Contact> = (1..=cfg.successor_list).map(|d| contact(i + d)).collect();
        let predecessor = contact((i + n - 1) % n);
        // Finger j points at the first node whose key >= key + 2^j.
        let mut fingers: Vec<Option<Contact>> = Vec::with_capacity(KEY_BITS);
        for j in 0..KEY_BITS {
            let start = keys[i].add_pow2(j);
            let pos = keys.partition_point(|k| *k < start) % n;
            fingers.push(Some(contact(pos)));
        }
        sim.node_mut(ids[i]).seed(successors, predecessor, fingers);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, seed: u64) -> (Simulation<ChordNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed, UniformLatency::from_millis(20.0, 80.0));
        let ids = build_ring(&mut sim, n, &ChordConfig::default(), seed);
        sim.run_until(SimTime::from_secs(0.5));
        (sim, ids)
    }

    /// The node responsible for `target` is the first key >= target.
    fn true_owner(sim: &Simulation<ChordNode>, ids: &[NodeId], target: &Key) -> NodeId {
        let mut pairs: Vec<(Key, NodeId)> =
            ids.iter().map(|&id| (sim.node(id).key(), id)).collect();
        pairs.sort();
        pairs
            .iter()
            .find(|(k, _)| k >= target)
            .map(|&(_, id)| id)
            .unwrap_or(pairs[0].1)
    }

    #[test]
    fn lookups_find_the_responsible_node() {
        let (mut sim, ids) = ring(120, 3);
        let targets: Vec<Key> = (0..30).map(|i| Key::from_u64(1000 + i)).collect();
        for (i, t) in targets.iter().enumerate() {
            let origin = ids[i % ids.len()];
            sim.invoke(origin, |n, ctx| n.start_lookup(*t, ctx));
        }
        sim.run_until(SimTime::from_secs(120.0));
        let mut checked = 0;
        for &id in &ids {
            for r in &sim.node(id).results {
                assert!(r.success, "lookup timed out: {r:?}");
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
        assert_eq!(checked, 30);
    }

    #[test]
    fn hop_count_is_logarithmic() {
        let (mut sim, ids) = ring(256, 4);
        for i in 0..60u64 {
            let origin = ids[(i as usize * 13) % ids.len()];
            let t = Key::from_u64(500_000 + i);
            sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
        }
        sim.run_until(SimTime::from_secs(200.0));
        let mut hops = Histogram::new();
        for &id in &ids {
            for r in &sim.node(id).results {
                assert!(r.success);
                hops.record(r.hops as f64);
            }
        }
        assert_eq!(hops.count(), 60);
        // log2(256) = 8; mean hops should be in the classic 0.5*log2(n)
        // to 1.5*log2(n) band.
        assert!(
            hops.mean() >= 2.0 && hops.mean() <= 12.0,
            "mean {}",
            hops.mean()
        );
    }

    #[test]
    fn stabilization_repairs_a_failed_successor() {
        let (mut sim, ids) = ring(40, 5);
        // Kill node i's immediate successor, then check it fails over.
        let mut pairs: Vec<(Key, NodeId)> =
            ids.iter().map(|&id| (sim.node(id).key(), id)).collect();
        pairs.sort();
        let victim = pairs[1].1;
        let observer = pairs[0].1;
        sim.schedule_stop(victim, SimTime::from_secs(1.0));
        sim.run_until(SimTime::from_secs(300.0));
        let succ = sim.node(observer).successor().expect("has successor");
        assert_ne!(succ.node, victim, "failed successor not replaced");
        assert_eq!(succ.node, pairs[2].1, "should adopt the next live node");
    }

    #[test]
    fn lookups_fail_cleanly_under_mass_failure() {
        let (mut sim, ids) = ring(60, 6);
        // Kill 70% of the ring at once, then issue lookups.
        for &id in ids.iter().skip(18) {
            sim.schedule_stop(id, SimTime::from_secs(1.0));
        }
        sim.run_until(SimTime::from_secs(2.0));
        for i in 0..10u64 {
            let origin = ids[i as usize % 18];
            let t = Key::from_u64(31 + i);
            sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
        }
        sim.run_until(SimTime::from_secs(400.0));
        let (mut done, mut failed) = (0, 0);
        for &id in ids.iter().take(18) {
            for r in &sim.node(id).results {
                done += 1;
                if !r.success {
                    failed += 1;
                }
            }
        }
        assert_eq!(done, 10, "every lookup must terminate (success or timeout)");
        assert!(failed > 0, "mass failure should break some routes");
    }

    #[test]
    fn finger_fixes_into_dead_nodes_do_not_accumulate() {
        let (mut sim, ids) = ring(60, 6);
        for &id in ids.iter().skip(18) {
            sim.schedule_stop(id, SimTime::from_secs(1.0));
        }
        // 120 fix rounds per survivor, many routed into dead nodes.
        sim.run_until(SimTime::from_mins(30.0));
        for &id in ids.iter().take(18) {
            let pending = sim.node(id).lookups.in_flight();
            assert!(pending <= 1, "{pending} finger fixes pending");
        }
    }
}

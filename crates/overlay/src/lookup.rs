//! The recursive lookup core shared by CAN, Chord, Pastry and one-hop.
//!
//! In a recursive lookup each hop asks the geometry where the key goes
//! next, and the owner answers the origin directly. Only the next-hop
//! rule differs between overlays; [`Routed`] (the message pair),
//! `Lookups` (the origin-side table: rpc counter, pending lookups,
//! [`Outcome`]s) and `Lookups::step` (one hop, given a `Hop`) are
//! shared. One-hop uses the table around its own direct send. Kademlia's
//! iterative lookup, where the origin itself queries α contacts a round,
//! keeps its own state.

use std::collections::HashMap;

use decent_sim::prelude::*;

/// The first rpc id; tags below it are free for a protocol's periodic
/// timers.
const RPC_BASE: u64 = 16;

/// A lookup on its way to the owner of `target`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Route<T> {
    /// Correlation id at the origin.
    pub rpc: u64,
    /// Key being resolved.
    pub target: T,
    /// Node that issued the lookup (receives the answer).
    pub origin: NodeId,
    /// Hops so far.
    pub hops: u32,
}

/// The route/deliver message pair of a recursive lookup.
#[derive(Clone, Debug)]
pub enum Routed<T, O> {
    /// The lookup, forwarded hop by hop.
    Route(Route<T>),
    /// The owner's answer, sent straight to the origin.
    Delivered {
        /// Correlation id at the origin.
        rpc: u64,
        /// The node responsible for the target.
        owner: O,
        /// Total hops.
        hops: u32,
    },
}

/// Outcome of one lookup, recorded at its origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome<T, O> {
    /// Key looked up.
    pub target: T,
    /// Time from issue to answer (or to the deadline).
    pub latency: SimDuration,
    /// Routing hops (0 if resolved locally or failed).
    pub hops: u32,
    /// Whether an answer arrived before the deadline.
    pub success: bool,
    /// The responsible node, when successful.
    pub owner: Option<O>,
}

/// A geometry's decision for one lookup at one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Hop<O> {
    /// This node resolves the target: `O` owns it.
    Deliver(O),
    /// Forward to this node.
    Forward(NodeId),
    /// No route: the lookup ends here, and only the origin's deadline
    /// (if it armed one) records it.
    Drop,
}

/// A finished lookup: what it was for, and how it went.
pub(crate) type Done<T, O, P> = Option<(P, Outcome<T, O>)>;

/// The origin-side lookup table. `P` is what a lookup is for: `()` for
/// a plain lookup, a finger index for Chord's finger fixes.
#[derive(Debug)]
pub(crate) struct Lookups<T, P = ()> {
    next_rpc: u64,
    pending: HashMap<u64, (T, SimTime, P)>,
}

impl<T, P> Default for Lookups<T, P> {
    fn default() -> Self {
        Lookups {
            next_rpc: RPC_BASE,
            pending: HashMap::new(),
        }
    }
}

impl<T: Copy, P> Lookups<T, P> {
    /// A fresh rpc id, unique among this node's lookups and probes.
    pub fn next_rpc(&mut self) -> u64 {
        let rpc = self.next_rpc;
        self.next_rpc += 1;
        rpc
    }

    /// Registers a lookup of `target` for `purpose` and returns its
    /// first hop, from this node. With a `deadline`, the timer tagged
    /// with the rpc is armed now, before that hop sends; hand the tag
    /// to `expire`.
    pub fn start<M>(
        &mut self,
        target: T,
        purpose: P,
        deadline: Option<SimDuration>,
        ctx: &mut Context<'_, M>,
    ) -> Route<T> {
        let rpc = self.next_rpc();
        self.pending.insert(rpc, (target, ctx.now(), purpose));
        if let Some(deadline) = deadline {
            ctx.set_timer(deadline, rpc);
        }
        Route {
            rpc,
            target,
            origin: ctx.id(),
            hops: 0,
        }
    }

    /// Ends lookup `rpc` with `owner`'s answer after `hops`. `None` if
    /// it is no longer pending: expired, cancelled, or never ours.
    pub fn complete<O>(&mut self, rpc: u64, owner: O, hops: u32, now: SimTime) -> Done<T, O, P> {
        self.finish(rpc, Some(owner), hops, now)
    }

    /// Fails lookup `rpc` at its deadline. `None` if the tag is not a
    /// pending lookup.
    pub fn expire<O>(&mut self, rpc: u64, now: SimTime) -> Done<T, O, P> {
        self.finish(rpc, None, 0, now)
    }

    fn finish<O>(&mut self, rpc: u64, owner: Option<O>, hops: u32, now: SimTime) -> Done<T, O, P> {
        let (target, started, purpose) = self.pending.remove(&rpc)?;
        let outcome = Outcome {
            target,
            latency: now.saturating_since(started),
            hops,
            success: owner.is_some(),
            owner,
        };
        Some((purpose, outcome))
    }

    /// Forgets lookup `rpc`; a later answer to it is ignored.
    pub fn cancel(&mut self, rpc: u64) {
        self.pending.remove(&rpc);
    }

    /// Forgets every pending lookup.
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// Number of lookups still waiting for an answer.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Takes one hop of `route` by the geometry's decision: the owner
    /// finishes it locally when it is the origin and otherwise answers
    /// the origin; a forward sends the route on with `hops + 1`.
    /// Returns the lookup when it finished here.
    pub fn step<O, M>(
        &mut self,
        hop: Hop<O>,
        route: Route<T>,
        ctx: &mut Context<'_, M>,
    ) -> Done<T, O, P>
    where
        M: From<Routed<T, O>>,
    {
        let (rpc, origin, hops) = (route.rpc, route.origin, route.hops);
        let (dst, msg) = match hop {
            Hop::Deliver(owner) if origin == ctx.id() => {
                return self.complete(rpc, owner, hops, ctx.now())
            }
            Hop::Deliver(owner) => (origin, Routed::Delivered { rpc, owner, hops }),
            Hop::Forward(next) => (
                next,
                Routed::Route(Route {
                    hops: hops + 1,
                    ..route
                }),
            ),
            Hop::Drop => return None,
        };
        ctx.send(dst, msg.into());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nodes on a line: node `i` owns key `i`, forwards larger keys to
    /// `i + 1` and has no route for smaller ones.
    #[derive(Default)]
    struct Line {
        lookups: Lookups<usize>,
        results: Vec<Outcome<usize, NodeId>>,
    }

    type Msg = Routed<usize, NodeId>;

    impl Line {
        fn lookup(&mut self, target: usize, deadline: f64, ctx: &mut Context<'_, Msg>) {
            let deadline = Some(SimDuration::from_millis(deadline));
            let first = self.lookups.start(target, (), deadline, ctx);
            self.route(first, ctx);
        }

        fn route(&mut self, route: Route<usize>, ctx: &mut Context<'_, Msg>) {
            let me = ctx.id();
            let hop = match route.target {
                t if t == me => Hop::Deliver(me),
                t if t > me => Hop::Forward(me + 1),
                _ => Hop::Drop,
            };
            let done = self.lookups.step(hop, route, ctx);
            self.results.extend(done.map(|(_, o)| o));
        }
    }

    impl Node for Line {
        type Msg = Msg;

        fn on_message(&mut self, _from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Routed::Route(route) => self.route(route, ctx),
                Routed::Delivered { rpc, owner, hops } => {
                    let done = self.lookups.complete(rpc, owner, hops, ctx.now());
                    self.results.extend(done.map(|(_, o)| o));
                }
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Msg>) {
            let done = self.lookups.expire(tag, ctx.now());
            self.results.extend(done.map(|(_, o)| o));
        }
    }

    fn line(n: usize) -> Simulation<Line> {
        let mut sim = Simulation::new(1, ConstantLatency::from_millis(10.0));
        for _ in 0..n {
            sim.add_node(Line::default());
        }
        sim
    }

    #[test]
    fn local_resolution_takes_no_hop_and_sends_nothing() {
        let mut sim = line(3);
        sim.invoke(1, |n, ctx| n.lookup(1, 1000.0, ctx));
        let r = sim.node(1).results[0];
        assert_eq!((r.hops, r.success, r.owner), (0, true, Some(1)));
        assert_eq!(r.latency, SimDuration::ZERO);
        assert_eq!(sim.node(1).lookups.in_flight(), 0);
        sim.run_until(SimTime::from_secs(5.0));
        assert_eq!(sim.stats().sent, 0);
        assert_eq!(
            sim.node(1).results.len(),
            1,
            "the disarmed deadline adds nothing"
        );
    }

    #[test]
    fn forwards_then_delivers_to_a_remote_origin() {
        let mut sim = line(4);
        sim.invoke(0, |n, ctx| n.lookup(3, 1000.0, ctx));
        sim.run_until(SimTime::from_secs(5.0));
        // Three forwards and one answer, 10 ms each.
        assert_eq!(sim.stats().sent, 4);
        let r = sim.node(0).results[0];
        assert_eq!(
            (r.target, r.hops, r.success, r.owner),
            (3, 3, true, Some(3))
        );
        assert_eq!(r.latency, SimDuration::from_millis(40.0));
        assert!((1..4).all(|i| sim.node(i).results.is_empty()));
    }

    #[test]
    fn the_deadline_fails_an_unroutable_lookup() {
        let mut sim = line(3);
        sim.invoke(2, |n, ctx| n.lookup(0, 250.0, ctx));
        sim.run_until(SimTime::from_secs(5.0));
        assert_eq!(sim.stats().sent, 0, "a dropped lookup sends nothing");
        let r = sim.node(2).results[0];
        assert_eq!((r.hops, r.success, r.owner), (0, false, None));
        assert_eq!(r.latency, SimDuration::from_millis(250.0));
    }

    #[test]
    fn an_answer_after_the_deadline_is_ignored() {
        let mut sim = line(3);
        // The answer needs 30 ms; the deadline fires at 25.
        sim.invoke(0, |n, ctx| n.lookup(2, 25.0, ctx));
        sim.run_until(SimTime::from_secs(5.0));
        assert_eq!(sim.stats().delivered, 3, "the late answer did arrive");
        let results = &sim.node(0).results;
        assert_eq!(results.len(), 1);
        assert!(!results[0].success);
        assert_eq!(results[0].latency, SimDuration::from_millis(25.0));
    }
}

//! Deterministic fault injection: scripted partitions, crash bursts, link
//! degradation, and message duplication/reordering.
//!
//! A [`FaultPlan`] is a timeline of typed [`FaultEvent`]s, each active over
//! a half-open window `[at, until)` of simulated time. The plan drives two
//! kinds of machinery:
//!
//! - **Network faults** (partitions, link degradation, duplication,
//!   reordering) are enforced by the [`Faulty`] combinator, which wraps any
//!   [`NetworkModel`] the same way [`Lossy`](crate::net::Lossy) does and is
//!   passed to [`Simulation::new`](crate::engine::Simulation::new).
//! - **Crash bursts** are node-level faults: [`FaultPlan::schedule_crashes`]
//!   converts them into first-class engine stop/start events, so a burst
//!   takes a whole node set offline at `at` and brings it back at `until`.
//!
//! # Determinism
//!
//! Fault state is a pure function of the virtual clock: [`Faulty`] activates
//! and deactivates windows from the `now` passed to every
//! [`NetworkModel::delay`] call, never from wall-clock time, so replays are
//! bit-for-bit reproducible under both schedulers. Probabilistic faults
//! (degradation loss, duplication, reordering jitter) draw from the engine's
//! single RNG stream in a fixed order, and a [`Faulty`] with **no active
//! fault consumes zero RNG draws** — wrapping a model in an empty plan is
//! observationally identical to the bare model (pinned by the
//! `fault_equivalence` proptests).
//!
//! # Examples
//!
//! A bisection partition that heals, verified end to end:
//!
//! ```
//! use decent_sim::prelude::*;
//!
//! struct Count(u32);
//! impl Node for Count {
//!     type Msg = ();
//!     fn on_message(&mut self, _: NodeId, _: (), _: &mut Context<'_, ()>) {
//!         self.0 += 1;
//!     }
//! }
//!
//! // Nodes {0} and {1} are split from t=1s to t=3s.
//! let plan = FaultPlan::new().partition(
//!     SimTime::from_secs(1.0),
//!     SimTime::from_secs(3.0),
//!     vec![1],
//! );
//! let mut sim = Simulation::new(7, Faulty::new(ConstantLatency::from_millis(5.0), plan));
//! let a = sim.add_node(Count(0));
//! let b = sim.add_node(Count(0));
//! for t in [0.5, 2.0, 4.0] {
//!     sim.run_until(SimTime::from_secs(t));
//!     sim.invoke(a, |_n, ctx| ctx.send(b, ()));
//! }
//! sim.run_until(SimTime::from_secs(5.0));
//! assert_eq!(sim.node(b).0, 2); // the t=2s send crossed the partition
//! assert_eq!(sim.metrics_snapshot().counter("msgs_dropped_partition"), 1);
//! ```

use crate::engine::{Node, NodeId, SchedulerFor, Simulation, EXTERNAL};
use crate::metrics::LogHistogram;
use crate::net::NetworkModel;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

use rand::Rng;

/// Membership test against a sorted node-id set.
fn contains(sorted: &[NodeId], id: NodeId) -> bool {
    sorted.binary_search(&id).is_ok()
}

fn normalize(mut ids: Vec<NodeId>) -> Vec<NodeId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Which `(src, dst)` pairs a link-level fault applies to.
///
/// Matching is symmetric: a pair matches regardless of message direction.
///
/// # Examples
///
/// ```
/// use decent_sim::fault::LinkSet;
///
/// let links = LinkSet::between(vec![0, 1], vec![2]);
/// // Direction does not matter; unrelated pairs do not match.
/// assert!(matches!(links, LinkSet::Between(..)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkSet {
    /// Every pair of nodes.
    All,
    /// Pairs where at least one endpoint is in the set.
    Touching(Vec<NodeId>),
    /// Pairs with one endpoint in each set (either direction).
    Between(Vec<NodeId>, Vec<NodeId>),
}

impl LinkSet {
    /// A selector matching pairs that touch any node in `ids`.
    pub fn touching(ids: Vec<NodeId>) -> Self {
        LinkSet::Touching(normalize(ids))
    }

    /// A selector matching pairs with one endpoint in `a` and one in `b`.
    pub fn between(a: Vec<NodeId>, b: Vec<NodeId>) -> Self {
        LinkSet::Between(normalize(a), normalize(b))
    }

    fn normalized(self) -> Self {
        match self {
            LinkSet::All => LinkSet::All,
            LinkSet::Touching(ids) => LinkSet::Touching(normalize(ids)),
            LinkSet::Between(a, b) => LinkSet::Between(normalize(a), normalize(b)),
        }
    }

    /// Whether the (unordered) pair `src`/`dst` matches this selector.
    pub fn matches(&self, src: NodeId, dst: NodeId) -> bool {
        match self {
            LinkSet::All => true,
            LinkSet::Touching(set) => contains(set, src) || contains(set, dst),
            LinkSet::Between(a, b) => {
                (contains(a, src) && contains(b, dst)) || (contains(a, dst) && contains(b, src))
            }
        }
    }
}

/// The typed fault carried by a [`FaultEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Network partition: messages crossing the boundary between `side`
    /// and the rest of the node set are dropped. Messages injected from
    /// [`EXTERNAL`] (the client/observer plane) are exempt.
    Partition {
        /// One side of the cut (sorted, deduplicated).
        side: Vec<NodeId>,
    },
    /// Link degradation on matching pairs: delivery latency is multiplied
    /// by `latency_mult` and each message is additionally dropped with
    /// probability `loss`.
    Degrade {
        /// Which pairs are degraded.
        links: LinkSet,
        /// Multiplier applied to the inner model's delay (`>= 0`).
        latency_mult: f64,
        /// Extra drop probability in `[0, 1]`.
        loss: f64,
    },
    /// Each delivered message spawns a duplicate copy with probability
    /// `p`; the copy's delay is re-sampled through the same fault pipe.
    Duplicate {
        /// Duplication probability in `[0, 1]`.
        p: f64,
    },
    /// Adds uniform extra delay in `[0, jitter]` to every delivery,
    /// breaking FIFO ordering between messages on the same link.
    Reorder {
        /// Maximum extra delay.
        jitter: SimDuration,
    },
    /// Correlated crash burst: every node in `nodes` is stopped at the
    /// window start and restarted at the window end. Ignored by
    /// [`Faulty`]; applied by [`FaultPlan::schedule_crashes`].
    CrashBurst {
        /// The node set taken down together (sorted, deduplicated).
        nodes: Vec<NodeId>,
    },
}

impl FaultKind {
    fn normalized(self) -> Self {
        match self {
            FaultKind::Partition { side } => FaultKind::Partition {
                side: normalize(side),
            },
            FaultKind::Degrade {
                links,
                latency_mult,
                loss,
            } => {
                assert!(
                    latency_mult.is_finite() && latency_mult >= 0.0,
                    "latency multiplier must be finite and non-negative"
                );
                assert!(
                    (0.0..=1.0).contains(&loss),
                    "degradation loss must be in [0,1]"
                );
                FaultKind::Degrade {
                    links: links.normalized(),
                    latency_mult,
                    loss,
                }
            }
            FaultKind::Duplicate { p } => {
                assert!(
                    (0.0..=1.0).contains(&p),
                    "duplication probability must be in [0,1]"
                );
                FaultKind::Duplicate { p }
            }
            FaultKind::Reorder { jitter } => FaultKind::Reorder { jitter },
            FaultKind::CrashBurst { nodes } => FaultKind::CrashBurst {
                nodes: normalize(nodes),
            },
        }
    }
}

/// One scripted fault, active over the half-open window `[at, until)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Activation time (inclusive).
    pub at: SimTime,
    /// Deactivation / heal time (exclusive).
    pub until: SimTime,
    /// What goes wrong during the window.
    pub kind: FaultKind,
}

/// A deterministic timeline of [`FaultEvent`]s.
///
/// Build one with the chainable constructors, hand a clone to
/// [`Faulty::new`] for the network-level faults, and (if the plan contains
/// crash bursts) call [`FaultPlan::schedule_crashes`] once the nodes exist.
///
/// Events are kept sorted by activation time; insertion order breaks ties,
/// so the plan — and everything downstream of it — is deterministic.
///
/// # Examples
///
/// ```
/// use decent_sim::fault::{FaultPlan, LinkSet};
/// use decent_sim::time::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .partition(SimTime::from_secs(60.0), SimTime::from_secs(120.0), vec![0, 1, 2])
///     .degrade(
///         SimTime::from_secs(150.0),
///         SimTime::from_secs(180.0),
///         LinkSet::All,
///         3.0,   // triple latency
///         0.05,  // plus 5% extra loss
///     )
///     .crash_burst(SimTime::from_secs(200.0), SimTime::from_secs(230.0), vec![3, 4]);
/// assert_eq!(plan.events().len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; [`Faulty`] becomes a transparent wrapper).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Returns true when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, sorted by activation time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds one event over `[at, until)`; validates and normalizes it.
    ///
    /// # Panics
    ///
    /// Panics if `at > until` or a probability/multiplier is out of range.
    pub fn add(mut self, at: SimTime, until: SimTime, kind: FaultKind) -> Self {
        assert!(at <= until, "fault window must not end before it starts");
        self.events.push(FaultEvent {
            at,
            until,
            kind: kind.normalized(),
        });
        // Stable: ties keep insertion order, so plans are deterministic.
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Partitions `side` from the rest of the node set over `[at, heal)`.
    pub fn partition(self, at: SimTime, heal: SimTime, side: Vec<NodeId>) -> Self {
        self.add(at, heal, FaultKind::Partition { side })
    }

    /// Bisects `nodes` over `[at, heal)`: the first half of the slice
    /// forms one side of the cut.
    pub fn bisect(self, at: SimTime, heal: SimTime, nodes: &[NodeId]) -> Self {
        let side = nodes[..nodes.len() / 2].to_vec();
        self.partition(at, heal, side)
    }

    /// Degrades matching links over `[at, until)`: latency multiplied by
    /// `latency_mult`, plus `loss` extra drop probability.
    pub fn degrade(
        self,
        at: SimTime,
        until: SimTime,
        links: LinkSet,
        latency_mult: f64,
        loss: f64,
    ) -> Self {
        self.add(
            at,
            until,
            FaultKind::Degrade {
                links,
                latency_mult,
                loss,
            },
        )
    }

    /// Duplicates each delivery with probability `p` over `[at, until)`.
    pub fn duplicate(self, at: SimTime, until: SimTime, p: f64) -> Self {
        self.add(at, until, FaultKind::Duplicate { p })
    }

    /// Adds uniform extra delay in `[0, jitter]` per message over
    /// `[at, until)`, reordering same-link message streams.
    pub fn reorder(self, at: SimTime, until: SimTime, jitter: SimDuration) -> Self {
        self.add(at, until, FaultKind::Reorder { jitter })
    }

    /// Crashes `nodes` together at `at` and restarts them at `until`.
    pub fn crash_burst(self, at: SimTime, until: SimTime, nodes: Vec<NodeId>) -> Self {
        self.add(at, until, FaultKind::CrashBurst { nodes })
    }

    /// Converts every [`FaultKind::CrashBurst`] into engine stop/start
    /// events on `sim` — the crash side of the plan, wired through the
    /// engine as first-class events so node handlers observe `on_stop` /
    /// `on_start` exactly as they do under churn.
    ///
    /// Call after the node set is built; windows must lie in the future.
    ///
    /// # Panics
    ///
    /// Panics if a burst names a node id that does not exist in `sim`.
    pub fn schedule_crashes<N: Node, S: SchedulerFor<N>>(&self, sim: &mut Simulation<N, S>) {
        for ev in &self.events {
            if let FaultKind::CrashBurst { nodes } = &ev.kind {
                for &id in nodes {
                    assert!(id < sim.len(), "crash burst names unknown node {id}");
                    sim.schedule_stop(id, ev.at);
                    sim.schedule_start(id, ev.until);
                }
            }
        }
    }
}

/// Counters and distributions recorded by [`Faulty`], surfaced through
/// [`Simulation::metrics_snapshot`](crate::engine::Simulation::metrics_snapshot)
/// (as `faults_active`, `msgs_dropped_partition`, `msgs_delayed_degraded`,
/// `partition_duration_ms`, …) via [`NetworkModel::fault_stats`].
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    /// Fault windows activated so far (crash bursts excluded).
    pub activated: u64,
    /// Peak number of simultaneously active fault windows.
    pub peak_active: u64,
    /// Messages dropped because they crossed an active partition.
    pub dropped_partition: u64,
    /// Messages dropped by degradation loss.
    pub dropped_degraded: u64,
    /// Messages whose delay was stretched by degradation or reordering.
    pub delayed_degraded: u64,
    /// Duplicate copies scheduled.
    pub duplicated: u64,
    /// Durations of healed partition windows, in milliseconds.
    pub partition_duration_ms: LogHistogram,
}

/// Wraps a [`NetworkModel`], enforcing the network-level faults of a
/// [`FaultPlan`]. Composes like [`Lossy`](crate::net::Lossy):
/// `Faulty::new(RegionNet::new(..), plan)` is a network model.
///
/// Per message, the active windows apply in a fixed order: partitions
/// (drop), degradation loss (drop), the inner model's delay, degradation
/// latency multipliers, then reordering jitter. Duplication is handled by
/// the engine through [`NetworkModel::duplicate`]. With no active window
/// the call is forwarded untouched and no RNG is consumed.
#[derive(Debug)]
pub struct Faulty<M> {
    inner: M,
    /// Network fault events, sorted by `at` (crash bursts filtered out).
    events: Vec<FaultEvent>,
    /// Index of the first not-yet-activated event.
    next: usize,
    /// Indices into `events` of currently active windows.
    active: Vec<usize>,
    stats: FaultStats,
}

impl<M: NetworkModel> Faulty<M> {
    /// Wraps `inner` with the network-level faults of `plan`.
    ///
    /// Crash bursts in the plan are ignored here — schedule them with
    /// [`FaultPlan::schedule_crashes`].
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        let events: Vec<FaultEvent> = plan
            .events
            .into_iter()
            .filter(|e| !matches!(e.kind, FaultKind::CrashBurst { .. }))
            .collect();
        Faulty {
            inner,
            events,
            next: 0,
            active: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The fault statistics recorded so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Activates and deactivates windows against the virtual clock.
    fn advance(&mut self, now: SimTime) {
        while self.next < self.events.len() && self.events[self.next].at <= now {
            self.active.push(self.next);
            self.next += 1;
            self.stats.activated += 1;
            self.stats.peak_active = self.stats.peak_active.max(self.active.len() as u64);
        }
        let events = &self.events;
        let stats = &mut self.stats;
        self.active.retain(|&i| {
            let e = &events[i];
            if e.until <= now {
                if let FaultKind::Partition { .. } = e.kind {
                    let ms = e.until.saturating_since(e.at).as_nanos() / 1_000_000;
                    stats.partition_duration_ms.record(ms);
                }
                false
            } else {
                true
            }
        });
    }

    /// The full fault pipe for one message (everything except duplication).
    fn route(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        // 1. Partitions drop boundary-crossing messages outright.
        if src != EXTERNAL && dst != EXTERNAL {
            for k in 0..self.active.len() {
                if let FaultKind::Partition { side } = &self.events[self.active[k]].kind {
                    if contains(side, src) != contains(side, dst) {
                        self.stats.dropped_partition += 1;
                        return None;
                    }
                }
            }
        }
        // 2. Degradation loss, drawn before the inner model (Lossy idiom).
        for k in 0..self.active.len() {
            if let FaultKind::Degrade { links, loss, .. } = &self.events[self.active[k]].kind {
                if *loss > 0.0 && links.matches(src, dst) && rng.gen::<f64>() < *loss {
                    self.stats.dropped_degraded += 1;
                    return None;
                }
            }
        }
        // 3. The inner model decides the base delay.
        let mut d = self.inner.delay(src, dst, bytes, now, rng)?;
        // 4. Latency multipliers and reordering jitter stretch it.
        let mut stretched = false;
        for k in 0..self.active.len() {
            match &self.events[self.active[k]].kind {
                FaultKind::Degrade {
                    links,
                    latency_mult,
                    ..
                } if *latency_mult != 1.0 && links.matches(src, dst) => {
                    d = d * *latency_mult;
                    stretched = true;
                }
                FaultKind::Reorder { jitter } if jitter.as_nanos() > 0 => {
                    d += SimDuration::from_nanos(rng.gen_range(0..=jitter.as_nanos()));
                    stretched = true;
                }
                _ => {}
            }
        }
        if stretched {
            self.stats.delayed_degraded += 1;
        }
        Some(d)
    }
}

impl<M: NetworkModel> NetworkModel for Faulty<M> {
    fn delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        self.advance(now);
        if self.active.is_empty() {
            // Fast path, and the empty-plan equivalence guarantee: no
            // extra RNG draw, no perturbation.
            return self.inner.delay(src, dst, bytes, now, rng);
        }
        self.route(src, dst, bytes, now, rng)
    }

    fn duplicate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        self.advance(now);
        if self.active.is_empty() {
            return None;
        }
        let mut dup = false;
        for k in 0..self.active.len() {
            if let FaultKind::Duplicate { p } = self.events[self.active[k]].kind {
                if rng.gen::<f64>() < p {
                    dup = true;
                }
            }
        }
        if !dup {
            return None;
        }
        let d = self.route(src, dst, bytes, now, rng);
        if d.is_some() {
            self.stats.duplicated += 1;
        }
        d
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.stats.clone())
    }

    fn lookahead(&self) -> Option<SimDuration> {
        // Partitions and loss only drop; Reorder only adds delay; the
        // one fault that can *shorten* a delivery is a Degrade latency
        // multiplier below 1. Degrade windows can overlap, so scale the
        // inner bound by the product of every sub-1 multiplier in the
        // plan — conservative (overlaps may never happen), never wrong.
        let inner = self.inner.lookahead()?;
        let scale = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Degrade { latency_mult, .. } if latency_mult < 1.0 => Some(latency_mult),
                _ => None,
            })
            .product::<f64>();
        Some(inner * scale)
    }

    fn shard_lookahead(&self, nodes: usize, shards: usize) -> Option<Vec<SimDuration>> {
        // Same conservative Degrade scaling as `lookahead`, applied to
        // every shard-pair entry of the inner model's matrix.
        let mat = self.inner.shard_lookahead(nodes, shards)?;
        let scale = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Degrade { latency_mult, .. } if latency_mult < 1.0 => Some(latency_mult),
                _ => None,
            })
            .product::<f64>();
        Some(mat.into_iter().map(|d| d * scale).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ConstantLatency;
    use crate::rng::rng_from_seed;

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn at(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut bare = ConstantLatency::from_millis(10.0);
        let mut faulty = Faulty::new(ConstantLatency::from_millis(10.0), FaultPlan::new());
        let mut r1 = rng_from_seed(1);
        let mut r2 = rng_from_seed(1);
        for t in 0..100u64 {
            let now = SimTime::from_nanos(t * 1_000_000);
            assert_eq!(
                bare.delay(0, 1, 256, now, &mut r1),
                faulty.delay(0, 1, 256, now, &mut r2)
            );
            assert_eq!(faulty.duplicate(0, 1, 256, now, &mut r2), None);
        }
        // Same RNG stream afterwards.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn partition_drops_crossing_and_heals() {
        let plan = FaultPlan::new().partition(at(1.0), at(2.0), vec![0, 2]);
        let mut net = Faulty::new(ConstantLatency::from_millis(1.0), plan);
        let mut rng = rng_from_seed(2);
        // Before: delivered.
        assert!(net.delay(0, 1, 0, at(0.5), &mut rng).is_some());
        // During: crossing pairs dropped, same-side pairs delivered.
        assert_eq!(net.delay(0, 1, 0, at(1.5), &mut rng), None);
        assert_eq!(net.delay(1, 2, 0, at(1.5), &mut rng), None);
        assert!(net.delay(0, 2, 0, at(1.5), &mut rng).is_some());
        assert!(net.delay(1, 3, 0, at(1.5), &mut rng).is_some());
        // EXTERNAL is exempt from partitions.
        assert!(net
            .delay(crate::engine::EXTERNAL, 0, 0, at(1.5), &mut rng)
            .is_some());
        // After the heal: delivered again, duration recorded.
        assert!(net.delay(0, 1, 0, at(2.5), &mut rng).is_some());
        assert_eq!(net.stats().dropped_partition, 2);
        assert_eq!(net.stats().partition_duration_ms.count(), 1);
        assert_eq!(net.stats().partition_duration_ms.max(), 1000);
    }

    #[test]
    fn degrade_multiplies_latency_and_adds_loss() {
        let plan =
            FaultPlan::new().degrade(at(0.0), at(10.0), LinkSet::touching(vec![1]), 4.0, 0.0);
        let mut net = Faulty::new(ConstantLatency::from_millis(10.0), plan);
        let mut rng = rng_from_seed(3);
        assert_eq!(net.delay(0, 1, 0, at(1.0), &mut rng), Some(ms(40.0)));
        assert_eq!(net.delay(2, 3, 0, at(1.0), &mut rng), Some(ms(10.0)));
        assert_eq!(net.stats().delayed_degraded, 1);

        let lossy_plan = FaultPlan::new().degrade(at(0.0), at(10.0), LinkSet::All, 1.0, 1.0);
        let mut lossy = Faulty::new(ConstantLatency::from_millis(10.0), lossy_plan);
        assert_eq!(lossy.delay(0, 1, 0, at(1.0), &mut rng), None);
        assert_eq!(lossy.stats().dropped_degraded, 1);
    }

    #[test]
    fn duplicate_emits_second_copy_only_in_window() {
        let plan = FaultPlan::new().duplicate(at(1.0), at(2.0), 1.0);
        let mut net = Faulty::new(ConstantLatency::from_millis(10.0), plan);
        let mut rng = rng_from_seed(4);
        assert_eq!(net.duplicate(0, 1, 0, at(0.5), &mut rng), None);
        assert_eq!(net.duplicate(0, 1, 0, at(1.5), &mut rng), Some(ms(10.0)));
        assert_eq!(net.duplicate(0, 1, 0, at(2.5), &mut rng), None);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn reorder_jitter_stretches_delay() {
        let plan = FaultPlan::new().reorder(at(0.0), at(10.0), ms(50.0));
        let mut net = Faulty::new(ConstantLatency::from_millis(10.0), plan);
        let mut rng = rng_from_seed(5);
        for _ in 0..100 {
            let d = net.delay(0, 1, 0, at(1.0), &mut rng).unwrap();
            assert!(d >= ms(10.0) && d <= ms(60.0), "{d:?}");
        }
        assert_eq!(net.stats().delayed_degraded, 100);
    }

    #[test]
    fn windows_track_the_virtual_clock() {
        let plan = FaultPlan::new()
            .partition(at(1.0), at(2.0), vec![0])
            .partition(at(3.0), at(5.0), vec![0]);
        let mut net = Faulty::new(ConstantLatency::from_millis(1.0), plan);
        let mut rng = rng_from_seed(6);
        // Jumping straight past both windows records both partitions as
        // healed without ever dropping anything.
        assert!(net.delay(0, 1, 0, at(6.0), &mut rng).is_some());
        assert_eq!(net.stats().activated, 2);
        assert_eq!(net.stats().dropped_partition, 0);
        assert_eq!(net.stats().partition_duration_ms.count(), 2);
        assert_eq!(net.stats().peak_active, 2);
    }

    #[test]
    fn link_set_matching_is_symmetric() {
        let touch = LinkSet::touching(vec![5, 3, 3]);
        assert!(touch.matches(3, 9) && touch.matches(9, 3));
        assert!(!touch.matches(1, 2));
        let between = LinkSet::between(vec![0, 1], vec![2]);
        assert!(between.matches(0, 2) && between.matches(2, 1));
        assert!(!between.matches(0, 1) && !between.matches(2, 2));
        assert!(LinkSet::All.matches(7, 8));
    }

    #[test]
    fn bisect_takes_first_half() {
        let plan = FaultPlan::new().bisect(at(0.0), at(1.0), &[10, 20, 30, 40, 50]);
        match &plan.events()[0].kind {
            FaultKind::Partition { side } => assert_eq!(side, &vec![10, 20]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "must not end before it starts")]
    fn rejects_inverted_window() {
        let _ = FaultPlan::new().partition(at(2.0), at(1.0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::new().duplicate(at(0.0), at(1.0), 1.5);
    }

    #[test]
    fn plan_sorts_by_activation_time() {
        let plan = FaultPlan::new()
            .partition(at(5.0), at(6.0), vec![0])
            .partition(at(1.0), at(2.0), vec![1]);
        let starts: Vec<SimTime> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(starts, vec![at(1.0), at(5.0)]);
    }
}

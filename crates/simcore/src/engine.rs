//! The deterministic discrete-event engine.
//!
//! A simulation is a set of [`Node`]s exchanging messages through a
//! [`NetworkModel`]. Events (message deliveries,
//! timers, node start/stop) are processed in `(time, seq)` order, so a
//! given seed always yields the exact same trace.
//!
//! # Determinism model
//!
//! Every stochastic draw is tied to a *stream* that is independent of
//! execution strategy:
//!
//! - each node owns a handler stream (used by [`Context::rng`], churn
//!   and lifecycle draws) and a network stream (used by the network
//!   model for that node's outgoing messages), both derived from the
//!   simulation seed and the node id;
//! - the driver stream ([`Simulation::rng`]) serves code running
//!   outside node handlers.
//!
//! Event sequence numbers are *origin-packed*: `seq = origin << 32 |
//! counter`, where `origin` is the node that created the event (or the
//! driver) and `counter` increments in that origin's own processing
//! order. Together these make the full `(time, seq)` event schedule a
//! pure function of the seed — independent of scheduler implementation
//! and of how many shards execute it ([`Simulation::set_shards`]).
//!
//! # One dispatch kernel
//!
//! What happens to a dequeued event is decided in one crate-private
//! function, `dispatch`: whether it reaches a handler at all, the
//! handler call, the effects the handler left, and the node's
//! online/offline transitions. The serial loop here and the shard
//! workers in `shard.rs` both run it and differ only in the sink it
//! writes to; every send, from either, meets the network model in
//! `Core::route`.
//!
//! # Examples
//!
//! ```
//! use decent_sim::engine::{Context, Node, NodeId, Simulation};
//! use decent_sim::net::ConstantLatency;
//! use decent_sim::time::{SimDuration, SimTime};
//!
//! struct Echo {
//!     heard: usize,
//! }
//!
//! impl Node for Echo {
//!     type Msg = &'static str;
//!     fn on_message(&mut self, from: NodeId, _msg: &'static str, ctx: &mut Context<'_, Self::Msg>) {
//!         self.heard += 1;
//!         if self.heard == 1 {
//!             ctx.send(from, "pong");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42, ConstantLatency::from_millis(10.0));
//! let a = sim.add_node(Echo { heard: 0 });
//! let b = sim.add_node(Echo { heard: 0 });
//! sim.invoke(a, |_n, ctx| ctx.send(b, "ping"));
//! sim.run_until(SimTime::from_secs(1.0));
//! assert_eq!(sim.node(a).heard, 1); // got the pong back
//! ```

use crate::arena::{NodeStore, SlotView};
use crate::metrics::{LogHistogram, Metric, MetricsSnapshot};
use crate::net::NetworkModel;
use crate::rng::{derive_seed, rng_from_seed, SimRng};
use crate::sched::{BinaryHeapScheduler, SchedStats, Scheduler, TimingWheel};
use crate::shard::Policy;
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventTag, Trace};

/// Index of a node in the simulation.
pub type NodeId = usize;

/// Pseudo-sender for messages injected from outside the simulation
/// (e.g. by a harness acting as a client population).
pub const EXTERNAL: NodeId = usize::MAX;

/// Origin marker for events created outside any node handler (driver
/// calls, injections, node additions).
pub(crate) const DRIVER_ORIGIN: u32 = u32::MAX;

/// Packs an event origin and its per-origin counter into the engine's
/// sequence number. The packing preserves per-origin FIFO order and is
/// identical under serial and sharded execution, which is what makes
/// the `(time, seq)` schedule execution-strategy-independent.
pub(crate) fn pack_seq(origin: u32, ctr: u32) -> u64 {
    ((origin as u64) << 32) | ctr as u64
}

/// Whether an event at `t` fires in an advance to `limit`.
#[inline]
pub(crate) fn due(t: SimTime, limit: SimTime, inclusive: bool) -> bool {
    t < limit || (t == limit && inclusive)
}

/// A protocol participant.
///
/// Handlers receive a [`Context`] for scheduling sends and timers; all
/// effects are deferred and applied by the engine after the handler
/// returns, so handlers never re-enter each other.
pub trait Node: Sized {
    /// The message type exchanged by this protocol.
    type Msg: Clone;

    /// Called when the node comes online (initially and after churn).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message is delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    ///
    /// Timers that were pending when the node went offline are discarded.
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (tag, ctx);
    }

    /// Called once when the node goes offline: a churn or scheduled stop,
    /// or its own [`Context::go_offline`]. The simulator applies the
    /// effects requested here like any other handler's (timers are set
    /// under the ending online period and so never fire; a `go_offline`
    /// is ignored); the TCP runtime discards them.
    fn on_stop(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Deferred effect produced by a node handler: what a [`Context`]
/// method pushes onto the driver's buffer, for the driver to apply in
/// order once the handler has returned.
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to `dst`; `bytes` is the size the network model sees.
    Send {
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: M,
        /// Advisory message size in bytes.
        bytes: u64,
    },
    /// Fire [`Node::on_timer`] with `tag` after `delay`.
    Timer {
        /// Delay from the current activation.
        delay: SimDuration,
        /// Tag handed back to the handler.
        tag: u64,
    },
    /// Stop the node once the handler has returned and its other effects
    /// are applied: [`Node::on_stop`] runs, pending timers are discarded.
    GoOffline,
}

/// Handler-side view of whatever drives the node.
///
/// Provides the current time, the node's own id, the node's RNG stream,
/// and methods to schedule sends and timers.
pub struct Context<'a, M> {
    now: SimTime,
    id: NodeId,
    rng: &'a mut SimRng,
    effects: &'a mut Vec<Effect<M>>,
}

impl<M> std::fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<'a, M> Context<'a, M> {
    /// A context for one activation of node `id` at time `now`. Effects
    /// the handler requests are appended to `effects`; whoever drives
    /// the node drains and applies them after the handler returns.
    pub fn new(
        now: SimTime,
        id: NodeId,
        rng: &'a mut SimRng,
        effects: &'a mut Vec<Effect<M>>,
    ) -> Self {
        Context {
            now,
            id,
            rng,
            effects,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends a small message (default size 256 bytes) to `dst`.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.send_sized(dst, msg, 256);
    }

    /// Sends a message of `bytes` bytes to `dst`.
    ///
    /// Delivery time and loss are decided by the simulation's network
    /// model; messages to offline nodes are counted and dropped.
    pub fn send_sized(&mut self, dst: NodeId, msg: M, bytes: u64) {
        self.effects.push(Effect::Send { dst, msg, bytes });
    }

    /// Schedules [`Node::on_timer`] with `tag` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.effects.push(Effect::Timer { delay, tag });
    }

    /// Stops this node after the current handler completes, exactly as a
    /// scheduled stop at the current time would: [`Node::on_stop`] runs
    /// once, pending timers are discarded, and an attached churn process
    /// schedules the next start. No-op on a node that is already offline.
    pub fn go_offline(&mut self) {
        self.effects.push(Effect::GoOffline);
    }
}

pub(crate) enum EventKind<M> {
    Deliver { src: NodeId, msg: M },
    Timer { tag: u64, epoch: u32 },
    Start,
    Stop,
}

/// The engine's event payload as stored in a [`Scheduler`]: a target node
/// plus what should happen to it. Opaque outside the engine — it appears
/// in scheduler type parameters (e.g. `TimingWheel<EngineEvent<M>>`) but
/// its contents are engine-internal.
pub struct EngineEvent<M> {
    pub(crate) node: NodeId,
    pub(crate) kind: EventKind<M>,
}

impl<M> EngineEvent<M> {
    pub(crate) fn tag(&self) -> EventTag {
        match self.kind {
            EventKind::Deliver { .. } => EventTag::Deliver,
            EventKind::Timer { .. } => EventTag::Timer,
            EventKind::Start => EventTag::Start,
            EventKind::Stop => EventTag::Stop,
        }
    }
}

impl<M> std::fmt::Debug for EngineEvent<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineEvent")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

/// Network-level counters maintained by the engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network model.
    pub sent: u64,
    /// Messages delivered to an online node.
    pub delivered: u64,
    /// Messages dropped because the destination was offline.
    pub dropped_offline: u64,
    /// Messages dropped by the network model (loss).
    pub dropped_net: u64,
    /// Duplicate copies scheduled by the network model (fault injection).
    pub duplicated: u64,
    /// Total bytes handed to the network model.
    pub bytes_sent: u64,
}

/// One send as the kernel hands it to a sink: everything
/// [`Core::route`] needs to take it through the network model, at once
/// (serial) or from a shard worker's log at commit.
pub(crate) struct SendRec<M> {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) msg: M,
    pub(crate) bytes: u64,
    pub(crate) time: SimTime,
    pub(crate) seq_deliver: u64,
    pub(crate) seq_dup: u64,
}

/// Counters the event loops and the dispatch kernel bump through
/// whichever sink they run against; a shard worker's copy is added to
/// the simulation's after every window.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) stats: NetStats,
    /// Handler activations: outer iterations of the event loop, where
    /// one activation may drain several consecutive same-node events
    /// (batched delivery). Strictly smaller than the event count on
    /// batchable workloads. Deliberately *not* part of
    /// [`Simulation::metrics_snapshot`] — it is a cost counter for the
    /// bench harness, not an observable.
    pub(crate) activations: u64,
    /// Events dequeued but discarded without reaching a handler: stale
    /// timers, deliveries to offline nodes, and redundant start/stop.
    pub(crate) cancelled: u64,
    /// Distribution of per-message sizes handed to the network model.
    pub(crate) msg_bytes: LogHistogram,
}

impl Counters {
    pub(crate) fn absorb(&mut self, other: &Counters) {
        self.stats.sent += other.stats.sent;
        self.stats.delivered += other.stats.delivered;
        self.stats.dropped_offline += other.stats.dropped_offline;
        self.stats.dropped_net += other.stats.dropped_net;
        self.stats.duplicated += other.stats.duplicated;
        self.stats.bytes_sent += other.stats.bytes_sent;
        self.activations += other.activations;
        self.cancelled += other.cancelled;
        self.msg_bytes.merge(&other.msg_bytes);
    }
}

/// Where the dispatch kernel's output goes. Two exist: [`Core`] (serial:
/// queue the event, route the send, now) and the shard worker's window
/// log (queue locally, leave the send for the commit phase).
pub(crate) trait Sink<M> {
    fn counters(&mut self) -> &mut Counters;
    /// Queues an event. The kernel only ever creates events for the
    /// dispatching node itself (a timer, its next churn start/stop),
    /// which is what lets a shard worker queue them locally.
    fn push(&mut self, time: SimTime, seq: u64, ev: EngineEvent<M>);
    fn send(&mut self, send: SendRec<M>);
}

/// The event state machine: the one place that decides whether a
/// dequeued event reaches its handler (offline node, stale timer epoch,
/// redundant start/stop), calls the handler, and walks the node through
/// its online/offline transitions with their churn resampling. The
/// serial loop and every shard worker run this same function; they
/// differ only in the [`Sink`] it writes to.
pub(crate) fn dispatch<N: Node, K: Sink<N::Msg>>(
    slot: &mut SlotView<'_, N>,
    id: NodeId,
    kind: EventKind<N::Msg>,
    now: SimTime,
    scratch: &mut Vec<Effect<N::Msg>>,
    sink: &mut K,
) {
    let stop = match kind {
        EventKind::Deliver { src, msg } => {
            let c = sink.counters();
            if !slot.meta.online {
                c.stats.dropped_offline += 1;
                c.cancelled += 1;
                return;
            }
            c.stats.delivered += 1;
            activate(slot, id, now, scratch, sink, |n, ctx| {
                n.on_message(src, msg, ctx)
            })
            .1
        }
        EventKind::Timer { tag, epoch } => {
            if !slot.meta.online || slot.meta.timer_epoch != epoch {
                sink.counters().cancelled += 1;
                return; // stale timer from before an offline period
            }
            activate(slot, id, now, scratch, sink, |n, ctx| n.on_timer(tag, ctx)).1
        }
        EventKind::Start => {
            if slot.meta.online {
                sink.counters().cancelled += 1;
                return;
            }
            slot.meta.online = true;
            let stop = activate(slot, id, now, scratch, sink, |n, ctx| n.on_start(ctx)).1;
            if let Some(churn) = slot.churn.as_ref() {
                let session = churn.sample_session(slot.rng);
                let seq = slot.meta.next_seq(id);
                let kind = EventKind::Stop;
                sink.push(now + session, seq, EngineEvent { node: id, kind });
            }
            stop
        }
        EventKind::Stop => {
            if !slot.meta.online {
                sink.counters().cancelled += 1;
                return;
            }
            true
        }
    };
    if stop {
        // Offline before `on_stop` runs, so a `go_offline` from inside
        // it finds nothing left to do; the epoch moves after its effects
        // are applied, so timers it sets belong to the period that just
        // ended and never fire.
        slot.meta.online = false;
        activate(slot, id, now, scratch, sink, |n, ctx| n.on_stop(ctx));
        slot.meta.timer_epoch = slot.meta.timer_epoch.wrapping_add(1);
        if let Some(churn) = slot.churn.as_ref() {
            let off = churn.sample_offtime(slot.rng);
            let seq = slot.meta.next_seq(id);
            let kind = EventKind::Start;
            sink.push(now + off, seq, EngineEvent { node: id, kind });
        }
    }
}

/// Runs `f` on the node under a fresh [`Context`], then applies the
/// effects it requested, in order, reserving seqs from the node's own
/// counter. Returns `f`'s result and whether the node must now stop (it
/// asked to go offline and is online).
fn activate<N: Node, K: Sink<N::Msg>, R>(
    slot: &mut SlotView<'_, N>,
    id: NodeId,
    now: SimTime,
    scratch: &mut Vec<Effect<N::Msg>>,
    sink: &mut K,
    f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>) -> R,
) -> (R, bool) {
    let out = f(slot.node, &mut Context::new(now, id, slot.rng, scratch));
    let mut offline = false;
    for effect in scratch.drain(..) {
        match effect {
            Effect::Send { dst, msg, bytes } => {
                let c = sink.counters();
                c.stats.sent += 1;
                c.stats.bytes_sent += bytes;
                c.msg_bytes.record(bytes);
                let (seq_deliver, seq_dup) = slot.meta.reserve_send_seqs(id);
                sink.send(SendRec {
                    src: id,
                    dst,
                    msg,
                    bytes,
                    time: now,
                    seq_deliver,
                    seq_dup,
                });
            }
            Effect::Timer { delay, tag } => {
                let kind = EventKind::Timer {
                    tag,
                    epoch: slot.meta.timer_epoch,
                };
                let seq = slot.meta.next_seq(id);
                sink.push(now + delay, seq, EngineEvent { node: id, kind });
            }
            Effect::GoOffline => offline = true,
        }
    }
    (out, offline && slot.meta.online)
}

/// Everything of a [`Simulation`] but the node rows and the driver's
/// side of it: clock, queues, network model and the engine's counters.
/// It is the serial [`Sink`], and what the commit phase of sharded
/// execution owns while worker threads hold the node rows.
pub(crate) struct Core<S> {
    /// Per-node network-model RNG streams, outside the node store so
    /// the commit phase can route messages while workers hold the rows.
    pub(crate) net_rngs: Vec<SimRng>,
    /// The serial layout: every pending event, in one queue. Empty
    /// while the windowed layout holds the events.
    pub(crate) queue: S,
    /// The windowed layout: one queue per shard, events for node `n` in
    /// queue `n % shards`. Empty in the serial layout.
    pub(crate) shard_queues: Vec<S>,
    /// The shard count asked for with [`Simulation::set_shards`]; which
    /// layout the events are in is the policy's decision, not this.
    pub(crate) shards: usize,
    /// When a conservative window repays its barrier (see `shard.rs`).
    pub(crate) policy: Policy,
    pub(crate) now: SimTime,
    pub(crate) net: Box<dyn NetworkModel>,
    pub(crate) counters: Counters,
    pub(crate) events_processed: u64,
    /// Conservative windows executed on worker threads (zero while the
    /// policy keeps a run serial). Like `activations`, a deterministic
    /// cost counter for the bench harness — the per-link lookahead's
    /// whole point is fewer, wider windows — and deliberately *not*
    /// part of [`Simulation::metrics_snapshot`], so window policy can
    /// change without touching observable output.
    pub(crate) windows: u64,
    /// Moves between the serial and the windowed layout, either way.
    pub(crate) switches: u64,
    /// Events ever pushed, engine-tracked so the count is identical
    /// across schedulers and shard counts.
    scheduled: u64,
    /// Events currently pending across all queues.
    pub(crate) pending: u64,
    /// High-water mark of `pending`, reconstructed exactly in canonical
    /// event order under sharded execution.
    peak_pending: u64,
    pub(crate) trace: Option<Trace>,
}

impl<S> Core<S> {
    /// Bookkeeping for one dequeued node event, called in canonical
    /// `(time, seq)` order: by the serial loop as it pops, by the commit
    /// phase as it merges the shard workers' dispatch logs.
    pub(crate) fn begin_event(&mut self, time: SimTime, node: NodeId, tag: EventTag) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.events_processed += 1;
        self.pending -= 1;
        if let Some(trace) = &mut self.trace {
            trace.record(time, node, tag);
        }
    }

    /// Ends an advance that ran out of due events: an inclusive bound is
    /// reached even when nothing fires at it.
    pub(crate) fn finish_advance(&mut self, limit: SimTime, inclusive: bool) {
        if self.now < limit && inclusive && limit != SimTime::MAX {
            self.now = limit;
        }
    }

    /// Accounts for `n` events that just became pending.
    pub(crate) fn note_pushed(&mut self, n: u64) {
        self.scheduled += n;
        self.pending += n;
        self.peak_pending = self.peak_pending.max(self.pending);
    }

    /// Takes one send through the network model, drawing from the
    /// sender's network stream, and hands the resulting deliveries to
    /// `push`: [`Sink::push`] when the queues are here, the next
    /// window's feeds while shard workers hold them.
    pub(crate) fn route<M: Clone>(
        &mut self,
        s: SendRec<M>,
        mut push: impl FnMut(&mut Self, SimTime, u64, EngineEvent<M>),
    ) {
        let rng = &mut self.net_rngs[s.src];
        let Some(d) = self.net.delay(s.src, s.dst, s.bytes, s.time, rng) else {
            self.counters.stats.dropped_net += 1;
            return;
        };
        let deliver = |msg| EngineEvent {
            node: s.dst,
            kind: EventKind::Deliver { src: s.src, msg },
        };
        // Fault-injected duplication: a no-op (and no RNG draw) for
        // every plain network model.
        if let Some(d2) = self.net.duplicate(s.src, s.dst, s.bytes, s.time, rng) {
            self.counters.stats.duplicated += 1;
            push(self, s.time + d2, s.seq_dup, deliver(s.msg.clone()));
        }
        push(self, s.time + d, s.seq_deliver, deliver(s.msg));
    }
}

impl<M: Clone, S: Scheduler<EngineEvent<M>>> Sink<M> for Core<S> {
    fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn push(&mut self, time: SimTime, seq: u64, ev: EngineEvent<M>) {
        self.note_pushed(1);
        match &mut self.shard_queues[..] {
            [] => self.queue.schedule(time, seq, ev),
            queues => {
                let qi = ev.node % queues.len();
                queues[qi].schedule(time, seq, ev);
            }
        }
    }

    fn send(&mut self, send: SendRec<M>) {
        self.route(send, Self::push);
    }
}

/// Shorthand bound for "a scheduler usable by a simulation over `N`".
///
/// Blanket-implemented for every `Scheduler<EngineEvent<N::Msg>>`, so
/// generic helpers can write `S: SchedulerFor<N>` instead of spelling out
/// the event payload type.
pub trait SchedulerFor<N: Node>: Scheduler<EngineEvent<<N as Node>::Msg>> {}

impl<N: Node, S: Scheduler<EngineEvent<<N as Node>::Msg>>> SchedulerFor<N> for S {}

/// A [`Simulation`] backed by the reference [`BinaryHeapScheduler`].
///
/// Produces bit-for-bit the same traces as the default wheel-backed
/// simulation; used by the equivalence tests and available for workloads
/// whose scheduling pattern defeats the wheel.
pub type HeapSim<N> = Simulation<N, BinaryHeapScheduler<EngineEvent<<N as Node>::Msg>>>;

/// The monomorphized adaptive (serial or windowed) executor, installed
/// by [`Simulation::set_shards`].
type AdaptiveFn<N, S> = fn(&mut Simulation<N, S>, SimTime, bool);

/// A deterministic discrete-event simulation over nodes of type `N`.
///
/// Generic over its event [`Scheduler`] `S`, defaulting to the
/// hierarchical [`TimingWheel`]; `Simulation::new` always builds the
/// default, [`Simulation::with_scheduler`] builds any `S`. All schedulers
/// dequeue in identical `(time, seq)` order, so the choice affects
/// performance only, never results. Likewise,
/// [`set_shards`](Simulation::set_shards) changes only how events are
/// executed (partitioned across worker threads under conservative time
/// windows), never what they compute.
pub struct Simulation<N: Node, S = TimingWheel<EngineEvent<<N as Node>::Msg>>> {
    /// Struct-of-arrays per-node storage: protocol state, hot engine
    /// metadata (online/epoch/seq counters), RNG streams and churn
    /// models each in their own dense array (see [`crate::arena`]).
    pub(crate) store: NodeStore<N>,
    pub(crate) core: Core<S>,
    /// Monomorphized adaptive executor, set by [`Simulation::set_shards`]
    /// (where the `Send` bounds it needs are available) while more than
    /// one shard is asked for.
    adaptive: Option<AdaptiveFn<N, S>>,
    seed: u64,
    driver_ctr: u32,
    rng: SimRng,
    scratch: Vec<Effect<N::Msg>>,
}

impl<N: Node> Simulation<N> {
    /// Creates an empty simulation with the given seed and network model,
    /// backed by the default scheduler.
    pub fn new(seed: u64, net: impl NetworkModel + 'static) -> Self {
        Self::with_scheduler(seed, net)
    }
}

impl<N: Node, S: SchedulerFor<N>> Simulation<N, S> {
    /// Creates an empty simulation backed by scheduler `S`.
    ///
    /// ```
    /// use decent_sim::engine::{HeapSim, Node, NodeId, Context};
    /// use decent_sim::net::ConstantLatency;
    ///
    /// struct Quiet;
    /// impl Node for Quiet {
    ///     type Msg = ();
    ///     fn on_message(&mut self, _: NodeId, _: (), _: &mut Context<'_, ()>) {}
    /// }
    ///
    /// let sim: HeapSim<Quiet> = HeapSim::with_scheduler(42, ConstantLatency::from_millis(1.0));
    /// assert!(sim.is_empty());
    /// ```
    pub fn with_scheduler(seed: u64, net: impl NetworkModel + 'static) -> Self {
        Simulation {
            store: NodeStore::new(),
            core: Core {
                net_rngs: Vec::new(),
                queue: S::new(),
                shard_queues: Vec::new(),
                shards: 1,
                policy: Policy::new(false),
                now: SimTime::ZERO,
                net: Box::new(net),
                counters: Counters::default(),
                events_processed: 0,
                windows: 0,
                switches: 0,
                scheduled: 0,
                pending: 0,
                peak_pending: 0,
                trace: None,
            },
            adaptive: None,
            seed,
            driver_ctr: 0,
            rng: rng_from_seed(seed),
            scratch: Vec::new(),
        }
    }

    /// Asks for execution on up to `shards` worker threads.
    ///
    /// This is a request, not a layout. The engine keeps every pending
    /// event in one queue and runs the serial loop until its policy —
    /// computed from the network model's
    /// [`lookahead`](NetworkModel::lookahead), the distance to the
    /// advance bound and a trailing mean of events per conservative
    /// window, never from a clock or the host — says a window repays
    /// its barrier. Only then are nodes dealt to shards by
    /// `id % shards` and advanced under conservative time windows;
    /// cross-shard messages merge through a deterministic `(time, seq)`
    /// queue at window boundaries. Results are **byte-identical** to
    /// serial execution for any shard count, whichever way the policy
    /// decides: the event schedule and every RNG stream are independent
    /// of the partitioning by construction. Models without a positive
    /// lookahead always run serially.
    ///
    /// May be called at any point. Passing `0` or `1` withdraws the
    /// request.
    pub fn set_shards(&mut self, shards: usize)
    where
        N: Send,
        N::Msg: Send,
        S: Send,
    {
        let shards = shards.max(1);
        if shards == self.core.shards {
            return;
        }
        // A windowed layout was dealt for the old count.
        self.merge_queues();
        self.core.shards = shards;
        self.core.policy = Policy::new(crate::stress::windows_forced());
        self.adaptive =
            (shards > 1).then_some(crate::shard::adaptive_advance::<N, S> as AdaptiveFn<N, S>);
    }

    /// Serial to windowed layout: deals every pending event to the queue
    /// of its node's shard. The new queues start at the current time,
    /// so a timing wheel files the events by their distance from now,
    /// not from time zero.
    pub(crate) fn split_queues(&mut self) {
        let core = &mut self.core;
        let shards = core.shards;
        core.shard_queues = (0..shards).map(|_| S::new_at(core.now)).collect();
        while let Some((t, s, ev)) = core.queue.pop() {
            core.shard_queues[ev.node % shards].schedule(t, s, ev);
        }
        // Popping moved the old queue's clock to its last event.
        core.queue = S::new();
        core.switches += 1;
    }

    /// Windowed to serial layout; does nothing in the serial layout.
    pub(crate) fn merge_queues(&mut self) {
        let core = &mut self.core;
        if core.shard_queues.is_empty() {
            return;
        }
        core.queue = S::new_at(core.now);
        for mut q in std::mem::take(&mut core.shard_queues) {
            while let Some((t, s, ev)) = q.pop() {
                core.queue.schedule(t, s, ev);
            }
        }
        core.switches += 1;
    }

    /// The shard count asked for (1 = serial).
    pub fn shards(&self) -> usize {
        self.core.shards
    }

    /// Starts tracing dispatched events, retaining the most recent
    /// `capacity` records (counters are unbounded). See
    /// [`Trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace = Some(Trace::new(capacity));
    }

    /// The trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.core.trace.as_ref()
    }

    /// Adds a node and schedules its start at the current time.
    pub fn add_node(&mut self, node: N) -> NodeId {
        self.add_node_at(node, self.core.now)
    }

    /// Adds a node and schedules its start at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn add_node_at(&mut self, node: N, at: SimTime) -> NodeId {
        assert!(at >= self.core.now, "cannot start a node in the past");
        let id = self.store.len();
        assert!(
            (id as u64) < DRIVER_ORIGIN as u64,
            "node id space exhausted"
        );
        self.store
            .push(node, rng_from_seed(derive_seed(self.seed, 2 * id as u64)));
        self.core
            .net_rngs
            .push(rng_from_seed(derive_seed(self.seed, 2 * id as u64 + 1)));
        let seq = self.next_driver_seq();
        self.core.push(
            at,
            seq,
            EngineEvent {
                node: id,
                kind: EventKind::Start,
            },
        );
        id
    }

    /// Attaches an alternating online/offline churn process to `id`.
    ///
    /// If the node is already online, its current session ends after a
    /// freshly sampled session length; otherwise the process starts at
    /// the node's next start event.
    pub fn set_churn(&mut self, id: NodeId, model: crate::churn::ChurnModel) {
        let session = self.store.meta[id]
            .online
            .then(|| model.sample_session(&mut self.store.rngs[id]));
        self.store.churn[id] = Some(model);
        if let Some(session) = session {
            let seq = self.next_driver_seq();
            self.core.push(
                self.core.now + session,
                seq,
                EngineEvent {
                    node: id,
                    kind: EventKind::Stop,
                },
            );
        }
    }

    /// Schedules the node to stop (go offline) at `at`.
    pub fn schedule_stop(&mut self, id: NodeId, at: SimTime) {
        let seq = self.next_driver_seq();
        self.core.push(
            at,
            seq,
            EngineEvent {
                node: id,
                kind: EventKind::Stop,
            },
        );
    }

    /// Schedules the node to start (come online) at `at`.
    pub fn schedule_start(&mut self, id: NodeId, at: SimTime) {
        let seq = self.next_driver_seq();
        self.core.push(
            at,
            seq,
            EngineEvent {
                node: id,
                kind: EventKind::Start,
            },
        );
    }

    /// Injects a message from [`EXTERNAL`] to `dst`, delivered after `delay`.
    pub fn inject(&mut self, dst: NodeId, msg: N::Msg, delay: SimDuration) {
        let seq = self.next_driver_seq();
        self.core.push(
            self.core.now + delay,
            seq,
            EngineEvent {
                node: dst,
                kind: EventKind::Deliver { src: EXTERNAL, msg },
            },
        );
    }

    /// Runs `f` against node `id` with a live [`Context`], applying any
    /// scheduled effects afterwards. The node need not be online.
    ///
    /// This is how drivers and experiment harnesses trigger protocol
    /// actions (e.g. "start a lookup now").
    pub fn invoke<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>) -> R,
    ) -> R {
        let (now, scratch, core) = (self.core.now, &mut self.scratch, &mut self.core);
        let mut slot = self.store.slot(id);
        let (out, stop) = activate(&mut slot, id, now, scratch, core, f);
        if stop {
            dispatch(&mut slot, id, EventKind::Stop, now, scratch, core);
        }
        out
    }

    /// Immutable access to a node's state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.store.nodes[id]
    }

    /// Mutable access to a node's state (no context; for measurement only).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.store.nodes[id]
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns true if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Whether node `id` is currently online.
    pub fn is_online(&self, id: NodeId) -> bool {
        self.store.meta[id].online
    }

    /// Ids of all currently online nodes.
    pub fn online_nodes(&self) -> Vec<NodeId> {
        (0..self.store.len())
            .filter(|&i| self.store.meta[i].online)
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Network counters.
    pub fn stats(&self) -> &NetStats {
        &self.core.counters.stats
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Events dequeued but discarded without reaching a handler (stale
    /// timers, deliveries to offline nodes, redundant starts/stops).
    pub fn events_cancelled(&self) -> u64 {
        self.core.counters.cancelled
    }

    /// Handler activations so far: outer event-loop iterations, each of
    /// which may drain several consecutive events bound for the same
    /// node (batched delivery). A deterministic cost counter for the
    /// bench harness; not part of the metrics snapshot.
    pub fn activations(&self) -> u64 {
        self.core.counters.activations
    }

    /// Conservative windows executed on worker threads so far: zero on
    /// a run that asked for no shards, and zero on one whose windows
    /// the policy never found worth a barrier. A deterministic cost
    /// counter for the bench harness (a pure function of seed, config
    /// and shard count): wider lookahead windows mean fewer windows per
    /// run and more events per window. Not part of the metrics snapshot.
    pub fn windows(&self) -> u64 {
        self.core.windows
    }

    /// How often the pending events moved between the one-queue serial
    /// layout and the per-shard windowed layout, either way. As
    /// deterministic as [`windows`](Simulation::windows), and as absent
    /// from the metrics snapshot.
    pub fn layout_switches(&self) -> u64 {
        self.core.switches
    }

    /// The serial queue's own operation counters: how hard the
    /// scheduler implementation was driven, cascades included. A queue
    /// rebuilt by a layout switch starts from zero, and the per-shard
    /// queues of the windowed layout are not counted. Scheduler-specific
    /// by design, so never part of the metrics snapshot.
    pub fn sched_stats(&self) -> SchedStats {
        self.core.queue.op_stats()
    }

    /// A [`MetricsSnapshot`] of the engine's counters: event-loop
    /// activity, network traffic, and the per-message size
    /// distribution. Snapshots from independent simulations merge with
    /// [`MetricsSnapshot::merge`], which is how multi-simulation
    /// experiments report one combined engine section.
    ///
    /// Everything in the snapshot is a deterministic function of the
    /// simulation (no wall-clock, no scheduler- or shard-dependent
    /// implementation detail), so serialized snapshots are byte-stable
    /// across runs, machines, schedulers, and shard counts.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let core = &self.core;
        let stats = &core.counters.stats;
        let mut m = MetricsSnapshot::new();
        m.set_counter("events_scheduled", core.scheduled);
        m.set_counter("events_fired", core.events_processed);
        m.set_counter("events_cancelled", core.counters.cancelled);
        m.set_peak("peak_queue_depth", core.peak_pending);
        m.set_counter("messages_sent", stats.sent);
        m.set_counter("messages_delivered", stats.delivered);
        m.set_counter("messages_dropped_offline", stats.dropped_offline);
        m.set_counter("messages_dropped_net", stats.dropped_net);
        m.set_counter("bytes_sent", stats.bytes_sent);
        m.set(
            "message_bytes",
            Metric::Dist(core.counters.msg_bytes.clone()),
        );
        // Fault-injection metrics exist only when the network model is a
        // [`Faulty`](crate::fault::Faulty) wrapper, so snapshots of
        // fault-free simulations are byte-identical to earlier releases.
        if let Some(fs) = core.net.fault_stats() {
            m.set_counter("faults_activated", fs.activated);
            m.set_peak("faults_active", fs.peak_active);
            m.set_counter("msgs_dropped_partition", fs.dropped_partition);
            m.set_counter("msgs_dropped_degraded", fs.dropped_degraded);
            m.set_counter("msgs_delayed_degraded", fs.delayed_degraded);
            m.set_counter("msgs_duplicated", stats.duplicated);
            m.set(
                "partition_duration_ms",
                Metric::Dist(fs.partition_duration_ms),
            );
        }
        m
    }

    /// The driver RNG stream (for harness code outside node handlers).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Runs until the event queue is empty or `deadline` is reached,
    /// whichever comes first.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.advance_events(deadline, true);
    }

    /// Advances node events up to `limit` (`inclusive` controls whether
    /// events *at* `limit` fire): the serial loop, unless shards were
    /// asked for, in which case the policy in `shard.rs` picks between
    /// that loop and conservative windows as it goes.
    fn advance_events(&mut self, limit: SimTime, inclusive: bool) {
        match self.adaptive {
            Some(f) => f(self, limit, inclusive),
            None => self.advance_serial(limit, inclusive),
        }
    }

    /// Serial event loop over the one queue of the serial layout.
    ///
    /// Consecutive events bound for the same node are drained in one
    /// *activation* (batched delivery): the node's row stays hot in
    /// cache across the whole run of its due events. Each batched event
    /// is still the exact queue head at the moment it is popped — a
    /// handler can schedule a same-time event that sorts *before* an
    /// already-queued one, so the peek-then-pop discipline (never pop
    /// ahead) is what keeps the order byte-identical to the unbatched
    /// loop.
    pub(crate) fn advance_serial(&mut self, limit: SimTime, inclusive: bool) {
        debug_assert!(self.core.shard_queues.is_empty(), "windowed layout");
        let due = |t: SimTime| due(t, limit, inclusive);
        while self.core.queue.next_time().is_some_and(due) {
            let (time, _seq, ev) = self.core.queue.pop().expect("peeked");
            self.core.counters.activations += 1;
            let node = ev.node;
            self.fire(time, ev);
            // Same activation: drain queue-head events for the same node
            // while they remain within the advance bound.
            while matches!(self.core.queue.peek(), Some((t, _, next)) if next.node == node && due(t))
            {
                let (time, _seq, ev) = self.core.queue.pop().expect("peeked");
                self.fire(time, ev);
            }
        }
        self.core.finish_advance(limit, inclusive);
    }

    /// Runs one dequeued node event through the kernel, with the
    /// simulation itself as the sink.
    fn fire(&mut self, time: SimTime, ev: EngineEvent<N::Msg>) {
        self.core.begin_event(time, ev.node, ev.tag());
        let slot = &mut self.store.slot(ev.node);
        dispatch(
            slot,
            ev.node,
            ev.kind,
            time,
            &mut self.scratch,
            &mut self.core,
        );
    }

    pub(crate) fn next_driver_seq(&mut self) -> u64 {
        let c = self.driver_ctr;
        self.driver_ctr += 1;
        pack_seq(DRIVER_ORIGIN, c)
    }
}

impl<N: Node, S: SchedulerFor<N>> std::fmt::Debug for Simulation<N, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.core.now)
            .field("nodes", &self.store.len())
            .field("shards", &self.core.shards)
            .field("pending", &self.core.pending)
            .field("stats", &self.core.counters.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::net::ConstantLatency;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct Peer {
        pings: Vec<u32>,
        pongs: Vec<u32>,
        timers: Vec<u64>,
        starts: u32,
        stops: u32,
    }

    impl Node for Peer {
        type Msg = Msg;

        fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.starts += 1;
        }

        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping(n) => {
                    self.pings.push(n);
                    if from != EXTERNAL {
                        ctx.send(from, Msg::Pong(n));
                    }
                }
                Msg::Pong(n) => self.pongs.push(n),
            }
        }

        fn on_timer(&mut self, tag: u64, _ctx: &mut Context<'_, Msg>) {
            self.timers.push(tag);
        }

        fn on_stop(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.stops += 1;
        }
    }

    fn two_peers() -> (Simulation<Peer>, NodeId, NodeId) {
        let mut sim = Simulation::new(1, ConstantLatency::from_millis(10.0));
        let a = sim.add_node(Peer::default());
        let b = sim.add_node(Peer::default());
        (sim, a, b)
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut sim, a, b) = two_peers();
        sim.invoke(a, |_n, ctx| ctx.send(b, Msg::Ping(7)));
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.node(b).pings, vec![7]);
        assert_eq!(sim.node(a).pongs, vec![7]);
        // Two one-way trips of 10 ms each.
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn latency_is_applied() {
        let (mut sim, a, b) = two_peers();
        sim.invoke(a, |_n, ctx| ctx.send(b, Msg::Ping(1)));
        // Delivery at exactly 10 ms: not a tick earlier.
        sim.run_until(SimTime::from_nanos(9_999_999));
        assert!(sim.node(b).pings.is_empty());
        sim.run_until(SimTime::from_secs(0.010));
        assert_eq!(sim.node(b).pings, vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs(0.010));
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, a, _b) = two_peers();
        sim.invoke(a, |_n, ctx| {
            ctx.set_timer(SimDuration::from_secs(2.0), 2);
            ctx.set_timer(SimDuration::from_secs(1.0), 1);
            ctx.set_timer(SimDuration::from_secs(3.0), 3);
        });
        sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(sim.node(a).timers, vec![1, 2, 3]);
    }

    #[test]
    fn messages_to_offline_nodes_are_dropped() {
        let (mut sim, a, b) = two_peers();
        sim.run_until(SimTime::from_secs(0.001)); // process starts
        sim.schedule_stop(b, SimTime::from_secs(0.002));
        sim.run_until(SimTime::from_secs(0.01));
        sim.invoke(a, |_n, ctx| ctx.send(b, Msg::Ping(9)));
        sim.run_until(SimTime::from_secs(1.0));
        assert!(sim.node(b).pings.is_empty());
        assert_eq!(sim.stats().dropped_offline, 1);
    }

    #[test]
    fn timers_do_not_survive_offline_periods() {
        let (mut sim, a, _b) = two_peers();
        sim.run_until(SimTime::from_secs(0.001));
        sim.invoke(a, |_n, ctx| ctx.set_timer(SimDuration::from_secs(5.0), 42));
        sim.schedule_stop(a, SimTime::from_secs(1.0));
        sim.schedule_start(a, SimTime::from_secs(2.0));
        sim.run_until(SimTime::from_secs(10.0));
        assert!(sim.node(a).timers.is_empty(), "stale timer fired");
        assert_eq!(sim.node(a).starts, 2);
        assert_eq!(sim.node(a).stops, 1);
    }

    #[test]
    fn go_offline_action_takes_effect() {
        let (mut sim, a, b) = two_peers();
        sim.run_until(SimTime::from_secs(0.001));
        sim.invoke(a, |_n, ctx| ctx.go_offline());
        assert!(!sim.is_online(a));
        assert!(sim.is_online(b));
        assert_eq!(sim.online_nodes(), vec![b]);
        assert_eq!(sim.node(a).stops, 1, "on_stop runs once");
        sim.invoke(a, |_n, ctx| ctx.go_offline());
        assert_eq!(sim.node(a).stops, 1, "already offline: nothing to stop");
    }

    #[test]
    fn churn_alternates_sessions() {
        let mut sim = Simulation::new(5, ConstantLatency::from_millis(1.0));
        let a = sim.add_node(Peer::default());
        sim.set_churn(
            a,
            ChurnModel::exponential(SimDuration::from_secs(10.0), SimDuration::from_secs(10.0)),
        );
        sim.run_until(SimTime::from_secs(500.0));
        let n = sim.node(a);
        assert!(n.starts >= 10, "starts {}", n.starts);
        assert!(n.stops >= 10, "stops {}", n.stops);
        assert!((n.starts as i64 - n.stops as i64).abs() <= 1);
    }

    #[test]
    fn injection_from_external() {
        let (mut sim, _a, b) = two_peers();
        sim.inject(b, Msg::Ping(3), SimDuration::from_millis(5.0));
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.node(b).pings, vec![3]);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut sim = Simulation::new(seed, ConstantLatency::from_millis(1.0));
            let ids: Vec<_> = (0..10).map(|_| sim.add_node(Peer::default())).collect();
            for (i, &id) in ids.iter().enumerate() {
                sim.set_churn(
                    id,
                    ChurnModel::exponential(
                        SimDuration::from_secs(5.0 + i as f64),
                        SimDuration::from_secs(3.0),
                    ),
                );
            }
            for w in 0..200u32 {
                let dst = ids[(w as usize * 7) % ids.len()];
                sim.inject(dst, Msg::Ping(w), SimDuration::from_millis(w as f64 * 13.0));
            }
            sim.run_until(SimTime::from_secs(120.0));
            (
                sim.events_processed(),
                sim.stats().clone(),
                sim.node(ids[0]).pings.clone(),
            )
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).0, 0);
    }

    #[test]
    fn trace_records_dispatches() {
        let (mut sim, a, b) = two_peers();
        sim.enable_trace(16);
        sim.invoke(a, |_n, ctx| ctx.send(b, Msg::Ping(1)));
        sim.run_until(SimTime::from_secs(1.0));
        let trace = sim.trace().expect("enabled");
        use crate::trace::EventTag;
        assert_eq!(trace.count(EventTag::Start), 2);
        assert_eq!(trace.count(EventTag::Deliver), 2); // ping + pong
        assert!(trace.records().count() <= 16);
    }

    #[test]
    fn heap_and_wheel_schedulers_replay_identically() {
        fn run<S: SchedulerFor<Peer>>() -> (u64, NetStats, Vec<u32>, Vec<u64>) {
            let mut sim: Simulation<Peer, S> =
                Simulation::with_scheduler(9, ConstantLatency::from_millis(3.0));
            let ids: Vec<_> = (0..8).map(|_| sim.add_node(Peer::default())).collect();
            for (i, &id) in ids.iter().enumerate() {
                sim.set_churn(
                    id,
                    ChurnModel::exponential(
                        SimDuration::from_secs(4.0 + i as f64),
                        SimDuration::from_secs(2.0),
                    ),
                );
            }
            for w in 0..300u32 {
                let dst = ids[(w as usize * 5) % ids.len()];
                sim.inject(dst, Msg::Ping(w), SimDuration::from_millis(w as f64 * 7.0));
            }
            sim.invoke(ids[0], |_n, ctx| {
                ctx.set_timer(SimDuration::from_secs(1.0), 11);
                ctx.set_timer(SimDuration::from_secs(1.0), 12);
            });
            sim.run_until(SimTime::from_secs(60.0));
            (
                sim.events_processed(),
                sim.stats().clone(),
                sim.node(ids[1]).pings.clone(),
                sim.node(ids[0]).timers.clone(),
            )
        }
        assert_eq!(
            run::<TimingWheel<EngineEvent<Msg>>>(),
            run::<BinaryHeapScheduler<EngineEvent<Msg>>>()
        );
    }

    #[test]
    fn metrics_snapshot_reflects_engine_activity() {
        let (mut sim, a, b) = two_peers();
        sim.run_until(SimTime::from_secs(0.001)); // starts
        sim.schedule_stop(b, SimTime::from_secs(0.002));
        sim.run_until(SimTime::from_secs(0.01));
        sim.invoke(a, |_n, ctx| {
            ctx.send_sized(b, Msg::Ping(9), 1024); // dropped: b offline
            ctx.set_timer(SimDuration::from_secs(1.0), 1);
        });
        sim.run_until(SimTime::from_secs(2.0));
        let m = sim.metrics_snapshot();
        assert_eq!(m.counter("events_scheduled"), sim.events_processed());
        assert_eq!(m.counter("events_fired"), sim.events_processed());
        assert_eq!(m.counter("messages_sent"), 1);
        assert_eq!(m.counter("messages_dropped_offline"), 1);
        assert_eq!(m.counter("events_cancelled"), 1);
        assert_eq!(m.counter("bytes_sent"), 1024);
        assert!(m.counter("peak_queue_depth") >= 1);
        match m.get("message_bytes") {
            Some(crate::metrics::Metric::Dist(h)) => {
                assert_eq!(h.count(), 1);
                assert_eq!(h.max(), 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Snapshots are a pure function of the simulation state.
        assert_eq!(sim.metrics_snapshot(), m);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (mut sim, _a, _b) = two_peers();
        sim.run_until(SimTime::from_secs(42.0));
        assert_eq!(sim.now(), SimTime::from_secs(42.0));
    }

    #[test]
    fn seq_packing_orders_by_origin_then_counter() {
        assert!(pack_seq(0, 1) < pack_seq(0, 2));
        assert!(pack_seq(0, u32::MAX) < pack_seq(1, 0));
        assert!(pack_seq(5, 0) < pack_seq(DRIVER_ORIGIN, 0));
    }
}

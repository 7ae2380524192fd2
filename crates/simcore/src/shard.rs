//! Sharded (conservatively parallel) execution of a simulation, and
//! the policy that decides when to use it.
//!
//! A shard count ([`ExecPolicy`](crate::engine::ExecPolicy) or
//! [`Simulation::set_shards`]) is a request. [`adaptive_advance`], which
//! runs every advance of a simulation that asked for shards, keeps the
//! serial layout — one queue, the serial loop — and cuts its advance
//! into *virtual* windows one global lookahead wide, counting the
//! events of each. When the [`Policy`] finds windows
//! dense enough to repay a barrier it deals the pending events to one
//! queue per shard and hands over to [`windowed_advance`]; when they
//! thin out again it merges the queues back. Every input of the policy
//! is a function of `(seed, config, shards)`: event counts, the network
//! model's lookahead, the distance to the advance bound. No clock, no
//! thread id, no host property.
//!
//! [`windowed_advance`] partitions nodes across worker threads by
//! `id % shards` and advances the shards in lockstep over *conservative
//! time windows*. The window end is the earliest instant any cross-node
//! delivery could land: with per-shard pending heads `h_j` (queue head
//! or earliest undelivered feed) and the model's global
//! [`lookahead`](crate::net::NetworkModel::lookahead) `la`,
//!
//! ```text
//! end = min_j h_j + la
//! ```
//!
//! — no send can originate before the earliest pending event, and none
//! can be delivered sooner than `la` after it is sent, so within
//! `[t0, end)` a node can only be affected by events that already
//! existed when the window opened or that it creates itself, and each
//! shard can drain its own queue independently. All shards share the
//! one `end` per window (lockstep), so events commit in global
//! `(time, seq)` order, byte-identical to the serial engine.
//!
//! Workers run the engine's own dispatch kernel
//! ([`dispatch`](crate::engine::dispatch)) against a window sink: events
//! a node creates for itself go into the shard's queue, sends are logged.
//! Cross-shard effects are reconciled in a serial *commit phase* after
//! every window: the per-shard dispatch logs are merged by repeatedly
//! taking the smallest `(time, seq)` head — exactly the order the
//! serial engine would have popped them — and along that canonical
//! order the coordinator makes the calls the serial loop makes as it
//! goes: `Core::begin_event` (clock, trace, queue-depth accounting) for
//! each record, `Core::route` for each of its sends, drawing from the
//! sender's own RNG stream. Because sequence numbers are origin-packed
//! and RNG streams are per-node (see the determinism notes in
//! [`crate::engine`]), the resulting event schedule, metrics, and node
//! states are byte-identical to a serial run.
//!
//! Models without a positive lookahead have no conservative window and
//! run the serial loop throughout.

#[expect(
    clippy::disallowed_types,
    reason = "the executor's own window-barrier plumbing: workers park here deterministically (DESIGN.md §4i)"
)]
use std::sync::mpsc::{Receiver, Sender};

use crate::arena::SlotView;
use crate::engine::{
    dispatch, due, Counters, Effect, EngineEvent, Node, NodeId, SchedulerFor, SendRec, Simulation,
    Sink,
};
use crate::sched::Scheduler;
use crate::time::{SimDuration, SimTime};
use crate::trace::EventTag;

/// A batch of `(time, seq, event)` triples bound for one shard's queue.
type Feed<M> = Vec<(SimTime, u64, EngineEvent<M>)>;

/// One window's dispatch and send logs from a single shard, as consumed
/// (in merge order) by the commit phase.
type WindowLogs<M> = (
    std::vec::IntoIter<DispatchRec>,
    std::vec::IntoIter<SendRec<M>>,
);

/// One dispatched event, as logged by a worker for the commit phase.
#[derive(Copy, Clone)]
struct DispatchRec {
    time: SimTime,
    seq: u64,
    node: NodeId,
    tag: EventTag,
    /// Events this dispatch pushed into the worker's own queue
    /// (timers, churn start/stop) — replayed into the pending-depth
    /// accounting during commit.
    pushes: u32,
    /// Exclusive end of this dispatch's range in the window's send log
    /// (the start is the previous record's `send_end`).
    send_end: u32,
}

/// Worker command for one window.
enum Cmd<M> {
    Run {
        /// Exclusive end of the window.
        end: SimTime,
        /// Cross-shard deliveries committed in earlier windows.
        feed: Feed<M>,
    },
    Stop,
}

/// Everything a worker produced in one window.
struct WindowOut<M> {
    recs: Vec<DispatchRec>,
    /// Sends in dispatch order, for the commit phase to route.
    sends: Vec<SendRec<M>>,
    counters: Counters,
    /// Earliest remaining event in the worker's queue after the window.
    next_time: Option<SimTime>,
}

impl<M> WindowOut<M> {
    fn new() -> Self {
        WindowOut {
            recs: Vec::new(),
            sends: Vec::new(),
            counters: Counters::default(),
            next_time: None,
        }
    }
}

/// Caps a raw window end at the advance bound (one nanosecond past it
/// when the bound is inclusive, so limit-time events still drain).
fn clamp_end(raw: SimTime, limit: SimTime, inclusive: bool) -> SimTime {
    let cap = if inclusive {
        SimTime::from_nanos(limit.as_nanos().saturating_add(1))
    } else {
        limit
    };
    raw.min(cap)
}

/// Windows in the policy's trailing mean.
const TRAIL: usize = 16;
/// Mean events per window at which the windowed layout is entered. A
/// window costs 15–60 µs of channel wake and park whatever it holds;
/// at 512 events (some 100 µs of dispatch at 200 ns an event, split
/// over the workers) the barrier stops being the larger part.
const ENTER_MEAN: u64 = 512;
/// Mean events per window under which the windowed layout is left
/// again. A quarter of [`ENTER_MEAN`], so a run whose windows hover
/// around either threshold does not move its queues back and forth.
const LEAVE_MEAN: u64 = 128;
/// Windows that must fit between the queue head and the advance bound
/// before the windowed layout is entered: worker threads are spawned
/// per advance, and an advance of a few windows cannot repay them.
const MIN_WINDOWS_AHEAD: u64 = 16;

/// Decides, from deterministic inputs alone, whether conservative
/// windows repay their barrier. Lives in [`Core`](crate::engine::Core)
/// and carries over from one advance to the next, so a run driven by
/// short `run_until` steps does not probe again after each of them.
pub(crate) struct Policy {
    /// Events committed in each of the last [`TRAIL`] windows: virtual
    /// ones in the serial layout, real ones in the windowed layout.
    recent: [u64; TRAIL],
    cursor: usize,
    sum: u64,
    /// Test override ([`crate::stress::force_windows`]): always enter,
    /// never leave.
    forced: bool,
}

impl Policy {
    pub(crate) fn new(forced: bool) -> Self {
        Policy {
            recent: [0; TRAIL],
            cursor: 0,
            sum: 0,
            forced,
        }
    }

    fn record(&mut self, events: u64) {
        self.sum = self.sum - self.recent[self.cursor] + events;
        self.recent[self.cursor] = events;
        self.cursor = (self.cursor + 1) % TRAIL;
    }

    /// Whether to enter the windowed layout with `ahead` left between
    /// the queue head and the advance bound.
    fn enter(&self, ahead: SimDuration, la: SimDuration) -> bool {
        self.forced
            || (self.sum >= ENTER_MEAN * TRAIL as u64
                && ahead.as_nanos() / la.as_nanos() >= MIN_WINDOWS_AHEAD)
    }

    /// Whether to leave the windowed layout.
    fn leave(&self) -> bool {
        !self.forced && self.sum < LEAVE_MEAN * TRAIL as u64
    }
}

/// [`advance_serial`](Simulation::advance_serial) for a simulation that
/// asked for shards: the same events in the same order, in whichever
/// layout the [`Policy`] currently finds cheaper.
pub(crate) fn adaptive_advance<N, S>(sim: &mut Simulation<N, S>, limit: SimTime, inclusive: bool)
where
    N: Node,
    S: SchedulerFor<N>,
{
    let la = match sim.core.net.lookahead() {
        Some(la) if !la.is_zero() => la,
        // No conservative window exists (adaptive latency, or a model
        // that can deliver instantly).
        _ => {
            sim.merge_queues();
            return sim.advance_serial(limit, inclusive);
        }
    };
    loop {
        if sim.core.shard_queues.is_empty() {
            if !serial_stretch(sim, la, limit, inclusive) {
                return;
            }
            sim.split_queues();
        }
        if !windowed_advance(sim, la, limit, inclusive) {
            return;
        }
        sim.merge_queues();
    }
}

/// Runs the serial loop one virtual window at a time, until the advance
/// is done (false) or the policy asks for real windows (true). A
/// virtual window is one global lookahead wide, the narrowest a real
/// one can be, so its event count never flatters the windowed layout.
fn serial_stretch<N: Node, S: SchedulerFor<N>>(
    sim: &mut Simulation<N, S>,
    la: SimDuration,
    limit: SimTime,
    inclusive: bool,
) -> bool {
    let due = |t: SimTime| due(t, limit, inclusive);
    while let Some(head) = sim.core.queue.next_time().filter(|&t| due(t)) {
        if sim.core.policy.enter(limit.saturating_since(head), la) {
            return true;
        }
        let before = sim.core.events_processed;
        if head + la < limit {
            sim.advance_serial(head + la, false);
        } else {
            sim.advance_serial(limit, inclusive);
        }
        sim.core.policy.record(sim.core.events_processed - before);
    }
    sim.core.finish_advance(limit, inclusive);
    false
}

/// Advances the windowed layout over conservative windows on one worker
/// thread per shard, until the advance is done (false) or the policy
/// asks for the serial layout back (true). Either way the queues are
/// back in [`Core`](crate::engine::Core) on return.
fn windowed_advance<N, S>(
    sim: &mut Simulation<N, S>,
    la: SimDuration,
    limit: SimTime,
    inclusive: bool,
) -> bool
where
    N: Node,
    S: SchedulerFor<N>,
{
    // Disjoint halves: workers take the node rows, the commit phase
    // owns everything else (network model, RNG streams, counters).
    let Simulation { store, core, .. } = sim;
    let shards = core.shard_queues.len();
    let due = |t: SimTime| due(t, limit, inclusive);
    let mut heads: Vec<Option<SimTime>> = core
        .shard_queues
        .iter_mut()
        .map(|q| q.next_time())
        .collect();
    if !heads.iter().flatten().any(|&t| due(t)) {
        // Nothing to do before the bound: no thread is worth spawning.
        core.finish_advance(limit, inclusive);
        return false;
    }
    if core.policy.leave() {
        return true;
    }
    let queues: Vec<S> = std::mem::take(&mut core.shard_queues);
    let parts = store.partition(shards);

    let mut returned: Vec<S> = Vec::with_capacity(shards);
    let mut leftover_feeds: Vec<Feed<N::Msg>> = Vec::new();
    let mut leave = false;
    std::thread::scope(|sc| {
        #[expect(
            clippy::disallowed_types,
            reason = "window-barrier command channels, one per shard, driven by the merge loop"
        )]
        let mut cmd_txs: Vec<Sender<Cmd<N::Msg>>> = Vec::with_capacity(shards);
        #[expect(
            clippy::disallowed_types,
            reason = "window-barrier result channels, one per shard, read in shard order"
        )]
        let mut out_rxs: Vec<Receiver<WindowOut<N::Msg>>> = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for (i, (part, queue)) in parts.into_iter().zip(queues).enumerate() {
            #[expect(
                clippy::disallowed_methods,
                reason = "window-barrier command channel: send/recv pairs are fully ordered by the merge loop"
            )]
            let (cmd_tx, cmd_rx) = std::sync::mpsc::channel::<Cmd<N::Msg>>();
            #[expect(
                clippy::disallowed_methods,
                reason = "window-barrier result channel: one message per window, joined before commit"
            )]
            let (out_tx, out_rx) = std::sync::mpsc::channel::<WindowOut<N::Msg>>();
            handles.push(
                sc.spawn(move || worker_main::<N, S>(i, shards, part, queue, cmd_rx, out_tx)),
            );
            cmd_txs.push(cmd_tx);
            out_rxs.push(out_rx);
        }

        let mut feeds: Vec<Feed<N::Msg>> = (0..shards).map(|_| Vec::new()).collect();
        loop {
            // Earliest pending work over all shards: worker queue heads
            // plus not-yet-fed cross-shard deliveries.
            let pending = heads
                .iter()
                .flatten()
                .chain(feeds.iter().flatten().map(|(t, _, _)| t));
            let Some(t0) = pending.min().copied().filter(|&t| due(t)) else {
                break;
            };
            let end = clamp_end(t0 + la, limit, inclusive);
            if end <= t0 {
                // Only reachable with windows saturated at the end of
                // time; stop rather than spin (the events stay queued).
                break;
            }
            core.windows += 1;
            let committed = core.events_processed;
            for (tx, feed) in cmd_txs.iter().zip(feeds.iter_mut()) {
                tx.send(Cmd::Run {
                    end,
                    feed: std::mem::take(feed),
                })
                .expect("worker alive");
            }
            let mut outs: Vec<WindowLogs<N::Msg>> = Vec::with_capacity(shards);
            for (i, rx) in out_rxs.iter().enumerate() {
                let out = rx.recv().expect("worker alive");
                heads[i] = out.next_time;
                core.counters.absorb(&out.counters);
                outs.push((out.recs.into_iter(), out.sends.into_iter()));
            }

            // Commit phase: greedy merge of the per-shard dispatch logs.
            // Repeatedly taking the smallest (time, seq) head reproduces
            // the exact order the serial engine pops events in (each log
            // is itself (time, seq)-sorted, and within a window no
            // dispatch can create an earlier-sorting event for another
            // shard). Along that order we make the calls the serial loop
            // makes as it goes: `begin_event`, then `route` for every
            // send, drawing from each sender's own network RNG stream.
            let mut rec_heads: Vec<Option<DispatchRec>> =
                outs.iter_mut().map(|(r, _)| r.next()).collect();
            let mut send_cursor = vec![0u32; shards];
            loop {
                let mut best: Option<(SimTime, u64, usize)> = None;
                for (i, h) in rec_heads.iter().enumerate() {
                    if let Some(r) = h {
                        if best.is_none_or(|(bt, bs, _)| (r.time, r.seq) < (bt, bs)) {
                            best = Some((r.time, r.seq, i));
                        }
                    }
                }
                let Some((_, _, i)) = best else { break };
                let rec = rec_heads[i].take().expect("chosen head");
                rec_heads[i] = outs[i].0.next();

                core.begin_event(rec.time, rec.node, rec.tag);
                core.note_pushed(rec.pushes as u64);
                while send_cursor[i] < rec.send_end {
                    send_cursor[i] += 1;
                    let send = outs[i].1.next().expect("send log matches records");
                    core.route(send, |core, time, seq, ev| {
                        core.note_pushed(1);
                        feeds[ev.node % shards].push((time, seq, ev));
                    });
                }
            }
            core.policy.record(core.events_processed - committed);
            if core.policy.leave() {
                leave = true;
                break;
            }
        }

        for tx in &cmd_txs {
            let _ = tx.send(Cmd::Stop);
        }
        for h in handles {
            returned.push(h.join().expect("shard worker panicked"));
        }
        leftover_feeds = feeds;
    });

    // Reinstall the queues and flush deliveries that were committed but
    // never fed to a worker (they lie beyond the advance bound).
    for (qi, feed) in leftover_feeds.into_iter().enumerate() {
        for (t, s, ev) in feed {
            returned[qi].schedule(t, s, ev);
        }
    }
    core.shard_queues = returned;
    if !leave {
        core.finish_advance(limit, inclusive);
    }
    leave
}

/// The window [`Sink`]: a shard's queue plus the log of the window in
/// progress. Events a node creates for itself go straight into the
/// queue; sends wait in the log for the commit phase to route.
struct Worker<M, S> {
    queue: S,
    out: WindowOut<M>,
}

impl<M, S: Scheduler<EngineEvent<M>>> Sink<M> for Worker<M, S> {
    fn counters(&mut self) -> &mut Counters {
        &mut self.out.counters
    }

    fn push(&mut self, time: SimTime, seq: u64, ev: EngineEvent<M>) {
        let rec = self.out.recs.last_mut().expect("dispatch in progress");
        rec.pushes += 1;
        self.queue.schedule(time, seq, ev);
    }

    fn send(&mut self, send: SendRec<M>) {
        self.out.sends.push(send);
    }
}

impl<M, S: Scheduler<EngineEvent<M>>> Worker<M, S> {
    /// Logs one dequeued event and runs it through the kernel.
    fn fire<N: Node<Msg = M>>(
        &mut self,
        slot: &mut SlotView<'_, N>,
        (time, seq, ev): (SimTime, u64, EngineEvent<M>),
        scratch: &mut Vec<Effect<M>>,
    ) {
        self.out.recs.push(DispatchRec {
            time,
            seq,
            node: ev.node,
            tag: ev.tag(),
            pushes: 0,
            send_end: 0,
        });
        dispatch(slot, ev.node, ev.kind, time, scratch, self);
        let rec = self.out.recs.last_mut().expect("just pushed");
        rec.send_end = self.out.sends.len() as u32;
    }
}

/// Per-shard worker loop: drain the shard's queue window by window,
/// logging dispatches and deferring sends to the commit phase. Returns
/// the queue when told to stop so the engine can resume serially.
///
/// Consecutive queue-head events bound for the same node drain in one
/// *activation* (batched delivery): the node's row stays hot across its
/// due events. The peek-then-pop discipline guarantees each batched
/// event is still the exact queue head, so the per-event dispatch log —
/// and therefore the committed order — is byte-identical to the
/// unbatched drain.
#[expect(
    clippy::disallowed_types,
    reason = "the worker's ends of its two window-barrier channels"
)]
fn worker_main<N, S>(
    shard: usize,
    shards: usize,
    mut part: Vec<SlotView<'_, N>>,
    queue: S,
    rx: Receiver<Cmd<N::Msg>>,
    tx: Sender<WindowOut<N::Msg>>,
) -> S
where
    N: Node,
    S: SchedulerFor<N>,
{
    let mut w = Worker {
        queue,
        out: WindowOut::new(),
    };
    let mut scratch: Vec<Effect<N::Msg>> = Vec::new();
    let mut ticks: u64 = 0;
    while let Ok(Cmd::Run { end, feed }) = rx.recv() {
        for (t, s, ev) in feed {
            w.queue.schedule(t, s, ev);
        }
        while w.queue.next_time().is_some_and(|t| t < end) {
            // Interleaving stress hook: a no-op unless a test set a
            // perturbation seed (crate::stress). Placed on the
            // activation path so perturbed schedules shift *between*
            // dispatches, where cross-shard races would hide.
            crate::stress::perturb(shard, ticks);
            ticks += 1;
            w.out.counters.activations += 1;
            let head = w.queue.pop().expect("peeked");
            let node = head.2.node;
            let slot = &mut part[node / shards];
            w.fire(slot, head, &mut scratch);
            // Batched continuation: same node, still inside the window.
            while matches!(w.queue.peek(), Some((t, _, next)) if next.node == node && t < end) {
                let next = w.queue.pop().expect("peeked");
                w.fire(slot, next, &mut scratch);
            }
        }
        w.out.next_time = w.queue.next_time();
        if tx
            .send(std::mem::replace(&mut w.out, WindowOut::new()))
            .is_err()
        {
            break;
        }
    }
    w.queue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::engine::{Context, NetStats, EXTERNAL};
    use crate::net::{ConstantLatency, UniformLatency};
    use crate::trace::EventRecord;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct Peer {
        /// Total node count, for picking gossip destinations.
        n: usize,
        /// Leaves on its own (`go_offline`) at its fifth timer fire.
        quits: bool,
        pings: Vec<u32>,
        pongs: Vec<u32>,
        timers: Vec<u64>,
        starts: u32,
        stops: u32,
    }

    impl Node for Peer {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.starts += 1;
            ctx.set_timer(SimDuration::from_millis(500.0), 99);
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

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Msg>) {
            use rand::Rng;
            self.timers.push(tag);
            // Fan a little traffic out so shards keep talking.
            let hop = ctx.rng().gen_range(0..self.n.max(2));
            let dst = (ctx.id() + 1 + hop) % self.n.max(1);
            if dst != ctx.id() {
                ctx.send(dst, Msg::Ping(tag as u32));
            }
            if self.timers.len() < 20 {
                ctx.set_timer(SimDuration::from_millis(700.0), tag + 1);
            }
            if self.quits && self.timers.len() == 5 {
                ctx.go_offline();
            }
        }

        fn on_stop(&mut self, ctx: &mut Context<'_, Msg>) {
            self.stops += 1;
            // A parting message, and a timer that must never fire.
            let dst = (ctx.id() + 1) % self.n.max(1);
            if dst != ctx.id() {
                ctx.send(dst, Msg::Pong(self.stops));
            }
            ctx.set_timer(SimDuration::from_millis(1.0), 7);
        }
    }

    type Fingerprint = (
        u64,
        u64,
        NetStats,
        SimTime,
        Vec<(Vec<u32>, Vec<u32>, Vec<u64>, u32, u32)>,
        Vec<EventRecord>,
        crate::metrics::MetricsSnapshot,
    );

    fn run(
        nodes: usize,
        shards: usize,
        net: impl crate::net::NetworkModel + 'static,
    ) -> Fingerprint {
        let mut sim = Simulation::new(0xD5, net);
        sim.enable_trace(4096);
        // Every third node churns, and also quits once on its own, so
        // the churn restart after a `go_offline` is part of the input.
        let ids: Vec<_> = (0..nodes)
            .map(|i| {
                sim.add_node(Peer {
                    n: nodes,
                    quits: i % 3 == 0,
                    ..Peer::default()
                })
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                sim.set_churn(
                    id,
                    ChurnModel::exponential(
                        SimDuration::from_secs(6.0 + i as f64),
                        SimDuration::from_secs(2.0),
                    ),
                );
            }
        }
        for w in 0..40u32 {
            sim.inject(
                ids[w as usize % ids.len()],
                Msg::Ping(w),
                SimDuration::from_millis(w as f64 * 17.0),
            );
        }
        // Ten nodes never fill a window: without the override the policy
        // would keep every run here serial.
        let _windows = crate::stress::force_windows();
        sim.set_shards(shards);
        sim.run_until(SimTime::from_secs(30.0));
        assert_eq!(
            sim.windows() > 0,
            shards > 1 && sim.core.net.lookahead().is_some_and(|la| !la.is_zero())
        );
        fingerprint(&sim, &ids)
    }

    fn fingerprint(sim: &Simulation<Peer>, ids: &[NodeId]) -> Fingerprint {
        (
            sim.events_processed(),
            sim.events_cancelled(),
            sim.stats().clone(),
            sim.now(),
            ids.iter()
                .map(|&id| {
                    let n = sim.node(id);
                    (
                        n.pings.clone(),
                        n.pongs.clone(),
                        n.timers.clone(),
                        n.starts,
                        n.stops,
                    )
                })
                .collect(),
            sim.trace().expect("enabled").records().copied().collect(),
            sim.metrics_snapshot(),
        )
    }

    #[test]
    fn sharded_matches_serial() {
        let net = || UniformLatency::from_millis(20.0, 80.0);
        let serial = run(10, 1, net());
        assert!(
            serial.4.iter().step_by(3).any(|n| n.2.len() >= 5),
            "no node lived long enough to go_offline on its own"
        );
        for shards in [2, 3, 4, 8] {
            assert_eq!(
                run(10, shards, net()),
                serial,
                "diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn empty_and_single_node_shards() {
        let net = || UniformLatency::from_millis(20.0, 80.0);
        // 2 nodes over 2 shards: every shard holds exactly one node.
        let serial2 = run(2, 1, net());
        assert_eq!(run(2, 2, net()), serial2, "single-node shards");
        // 3 nodes over 8 shards: shards 3..8 are empty and must neither
        // stall the window protocol nor contribute events.
        let serial3 = run(3, 1, net());
        assert_eq!(run(3, 8, net()), serial3, "empty shards");
    }

    #[test]
    fn zero_lookahead_stays_serial() {
        // A zero-latency link means no conservative window exists; the
        // sharded sim must quietly run the serial loop (and in
        // particular must not deadlock), even with windows forced.
        let serial = run(6, 1, ConstantLatency::from_millis(0.0));
        assert_eq!(run(6, 4, ConstantLatency::from_millis(0.0)), serial);
    }

    /// Six gossiping peers with twelve pings injected over the first
    /// 400 ms.
    fn six_peers() -> (Simulation<Peer>, Vec<NodeId>) {
        let mut sim: Simulation<Peer> = Simulation::new(7, UniformLatency::from_millis(20.0, 80.0));
        let ids: Vec<_> = (0..6)
            .map(|_| {
                sim.add_node(Peer {
                    n: 6,
                    ..Peer::default()
                })
            })
            .collect();
        for w in 0..12u32 {
            sim.inject(
                ids[w as usize % ids.len()],
                Msg::Ping(w),
                SimDuration::from_millis(w as f64 * 31.0),
            );
        }
        (sim, ids)
    }

    /// Arrival `i` of the streams below: every peer in turn, 7 ms apart.
    fn arrival(i: u64) -> (NodeId, Msg, SimDuration) {
        let at = SimDuration::from_millis(i as f64 * 7.0);
        (i as usize % 6, Msg::Ping(i as u32), at)
    }

    #[test]
    fn a_stream_split_mid_way_runs_as_its_injections_do() {
        let run = |stream: bool, shards: usize| {
            let mut sim: Simulation<Peer> =
                Simulation::new(0xD6, UniformLatency::from_millis(20.0, 80.0));
            sim.enable_trace(4096);
            let ids: Vec<_> = (0..6)
                .map(|_| {
                    sim.add_node(Peer {
                        n: 6,
                        ..Peer::default()
                    })
                })
                .collect();
            let inject = |sim: &mut Simulation<Peer>, count: u64, from: u64| {
                let next = move |i| arrival(from + i);
                if stream {
                    sim.inject_stream(count, next);
                } else {
                    (0..count)
                        .map(next)
                        .for_each(|(dst, msg, at)| sim.inject(dst, msg, at));
                }
            };
            inject(&mut sim, 300, 0);
            // The serial loop takes the first 72 arrivals off the stream.
            sim.run_until(SimTime::from_secs(0.5));
            {
                let _windows = crate::stress::force_windows();
                sim.set_shards(shards);
            }
            // Windows from here: the split unrolls what is left of it.
            sim.run_until(SimTime::from_secs(1.0));
            assert_eq!(
                sim.core.shard_queues.len(),
                if shards > 1 { shards } else { 0 }
            );
            assert_eq!(sim.windows() > 0, shards > 1);
            // Injected into the windowed layout, a stream is unrolled at once.
            inject(&mut sim, 100, 1_000);
            sim.run_until(SimTime::from_secs(3.0));
            sim.set_shards(1);
            sim.run_until(SimTime::from_secs(30.0));
            fingerprint(&sim, &ids)
        };
        let serial = run(false, 1);
        assert!(serial.4.iter().map(|n| n.0.len()).sum::<usize>() >= 400);
        for shards in [1, 2, 4] {
            for stream in [false, true] {
                assert_eq!(
                    run(stream, shards),
                    serial,
                    "stream={stream} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn set_shards_migrates_pending_events_and_back() {
        let (mut sim, ids) = six_peers();
        sim.run_until(SimTime::from_secs(0.1));
        {
            let _windows = crate::stress::force_windows();
            sim.set_shards(4);
        }
        assert_eq!(sim.shards(), 4);
        sim.run_until(SimTime::from_secs(0.2));
        assert_eq!(sim.core.shard_queues.len(), 4, "windowed layout");
        sim.set_shards(1);
        assert_eq!(sim.shards(), 1);
        assert!(sim.core.shard_queues.is_empty());
        assert_eq!(sim.layout_switches(), 2);
        sim.run_until(SimTime::from_secs(30.0));

        let (mut serial, sids) = six_peers();
        serial.run_until(SimTime::from_secs(30.0));
        assert_eq!(sim.events_processed(), serial.events_processed());
        assert_eq!(sim.stats(), serial.stats());
        for (&a, &b) in ids.iter().zip(&sids) {
            assert_eq!(sim.node(a).pings, serial.node(b).pings);
            assert_eq!(sim.node(a).timers, serial.node(b).timers);
        }
    }

    #[test]
    fn a_layout_switch_at_a_late_clock_files_by_distance_from_now() {
        // Two simulated days in, timers 700 ms out are far past the
        // 18-minute horizon of a wheel at tick zero, but close to the
        // clock.
        let (mut sim, _) = six_peers();
        sim.run_until(SimTime::from_secs(2.0 * 86_400.0));
        assert_eq!(sim.core.pending, 0);
        for id in 0..6 {
            sim.invoke(id, |_n, ctx| {
                for k in 0..50 {
                    ctx.set_timer(SimDuration::from_millis(700.0 + k as f64), 1_000 + k);
                }
            });
        }
        let pending = sim.core.pending;
        assert_eq!(pending, 300);
        sim.core.shards = 2;
        sim.split_queues();
        let stats: Vec<_> = sim.core.shard_queues.iter().map(|q| q.op_stats()).collect();
        assert!(stats.iter().all(|s| s.overflow_peak == 0), "{stats:?}");
        // One schedule per pending event, and no cascade yet: O(pending).
        assert_eq!(stats.iter().map(|s| s.scheduled).sum::<u64>(), pending);
        assert!(stats.iter().all(|s| s.cascades == 0), "{stats:?}");
        sim.merge_queues();
        let merged = sim.sched_stats();
        assert_eq!((merged.scheduled, merged.overflow_peak), (pending, 0));
        assert_eq!(sim.layout_switches(), 2);
    }

    #[test]
    fn window_end_respects_bounds() {
        let la = SimDuration::from_millis(10.0);
        let t = SimTime::from_secs(1.0);
        assert_eq!(
            clamp_end(t + la, SimTime::from_secs(10.0), false),
            t + la,
            "uncapped window is one lookahead wide"
        );
        assert_eq!(
            clamp_end(t + la, SimTime::from_secs(1.005), false),
            SimTime::from_secs(1.005),
            "exclusive bound caps the window"
        );
        assert_eq!(
            clamp_end(t + la, t, true),
            SimTime::from_nanos(t.as_nanos() + 1),
            "inclusive bound admits events at the limit itself"
        );
    }
}

//! Sharded (conservatively parallel) execution of a simulation.
//!
//! [`windowed_advance`] partitions nodes across worker threads by
//! `id % shards` and advances the shards in lockstep over *conservative
//! time windows*. The window end is the earliest instant any cross-node
//! delivery could land: with per-shard queue heads `h_j` and a
//! per-shard-pair lookahead matrix `LA[j][k]` (the minimum latency from
//! any node of shard `j` to any node of shard `k`, from
//! [`shard_lookahead`](crate::net::NetworkModel::shard_lookahead), or
//! the single global
//! [`lookahead`](crate::net::NetworkModel::lookahead) for every pair
//! when no matrix is offered),
//!
//! ```text
//! end = min over shards j with pending work of (h_j + min_k LA[j][k])
//! ```
//!
//! — no send can originate before its shard's head, and none can be
//! delivered sooner than its origin's cheapest outgoing link, so within
//! `[t0, end)` a node can only be affected by events that already
//! existed when the window opened or that it creates itself, and each
//! shard can drain its own queue independently. All shards share one
//! common `end` per window (lockstep): heterogeneous per-shard ends
//! would commit events out of global `(time, seq)` order and break
//! byte-identity with the serial engine.
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
//! Models without a positive lookahead (or degenerate windows at the
//! end of time) fall back to serial-equivalent stepping rather than
//! deadlock or reorder.

// decent-lint: allow(D010) reason="the executor's own window-barrier plumbing: workers park here deterministically (DESIGN.md §4i)"
use std::sync::mpsc::{Receiver, Sender};

use crate::arena::SlotView;
use crate::engine::{
    dispatch, Counters, Effect, EngineEvent, Node, NodeId, SchedulerFor, SendRec, Simulation, Sink,
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

/// Per-source-shard window allowance: the cheapest outgoing link of
/// each shard, reduced from the model's shard-pair matrix (or the
/// global bound for every shard when no matrix is offered). Zero matrix
/// entries mean "unknown" and defer to the global bound; destination
/// shards beyond the node count hold no nodes and cannot receive, so
/// their columns are skipped.
fn row_lookaheads(
    mat: Option<Vec<SimDuration>>,
    la: SimDuration,
    nodes: usize,
    shards: usize,
) -> Vec<SimDuration> {
    let Some(mat) = mat else {
        return vec![la; shards];
    };
    assert_eq!(
        mat.len(),
        shards * shards,
        "shard_lookahead must return a shards*shards matrix"
    );
    let occupied = shards.min(nodes.max(1));
    (0..shards)
        .map(|j| {
            mat[j * shards..j * shards + occupied]
                .iter()
                .map(|&d| if d.is_zero() { la } else { d })
                .min()
                .unwrap_or(la)
        })
        .collect()
}

/// Windowed parallel equivalent of
/// [`advance_serial`](Simulation::advance_serial); installed by
/// [`Simulation::set_shards`].
pub(crate) fn windowed_advance<N, S>(sim: &mut Simulation<N, S>, limit: SimTime, inclusive: bool)
where
    N: Node + Send,
    N::Msg: Send,
    S: SchedulerFor<N> + Send,
{
    let la = match sim.core.net.lookahead() {
        Some(la) if !la.is_zero() => la,
        // No conservative window exists (adaptive latency, or a model
        // that can deliver instantly): degrade to the serial loop,
        // which pops the same (time, seq) order one event at a time.
        _ => return sim.advance_serial(limit, inclusive),
    };
    // Disjoint halves: workers take the node rows, the commit phase
    // owns everything else (network model, RNG streams, counters).
    let Simulation { store, core, .. } = sim;
    let shards = core.shards;
    debug_assert!(shards > 1, "windowed executor installed for serial sim");
    let row_la = row_lookaheads(
        core.net.shard_lookahead(store.len(), shards),
        la,
        store.len(),
        shards,
    );
    let queues: Vec<S> = std::mem::take(&mut core.queues);
    let parts = store.partition(shards);

    let mut returned: Vec<S> = Vec::with_capacity(shards);
    let mut leftover_feeds: Vec<Feed<N::Msg>> = Vec::new();
    std::thread::scope(|sc| {
        let mut cmd_txs: Vec<Sender<Cmd<N::Msg>>> = Vec::with_capacity(shards);
        let mut out_rxs: Vec<Receiver<WindowOut<N::Msg>>> = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for (i, (part, queue)) in parts.into_iter().zip(queues).enumerate() {
            // decent-lint: allow(D010) reason="window-barrier command channel: send/recv pairs are fully ordered by the merge loop"
            let (cmd_tx, cmd_rx) = std::sync::mpsc::channel::<Cmd<N::Msg>>();
            // decent-lint: allow(D010) reason="window-barrier result channel: one message per window, joined before commit"
            let (out_tx, out_rx) = std::sync::mpsc::channel::<WindowOut<N::Msg>>();
            handles.push(
                sc.spawn(move || worker_main::<N, S>(i, shards, part, queue, cmd_rx, out_tx)),
            );
            cmd_txs.push(cmd_tx);
            out_rxs.push(out_rx);
        }

        // Learn each worker's queue head with a zero-width probe window
        // (nothing can fire strictly before time zero).
        let mut heads: Vec<Option<SimTime>> = vec![None; shards];
        for tx in &cmd_txs {
            tx.send(Cmd::Run {
                end: SimTime::ZERO,
                feed: Vec::new(),
            })
            .expect("worker alive");
        }
        for (i, rx) in out_rxs.iter().enumerate() {
            let out = rx.recv().expect("worker alive");
            debug_assert!(out.recs.is_empty(), "zero-width window drained events");
            heads[i] = out.next_time;
        }

        let mut feeds: Vec<Feed<N::Msg>> = (0..shards).map(|_| Vec::new()).collect();
        loop {
            // Earliest pending work per shard (worker queue head plus
            // not-yet-fed cross-shard deliveries), and the earliest
            // instant any shard's pending work could affect another:
            // each shard with work extends the window to its head plus
            // its cheapest outgoing link.
            let mut tmin: Option<SimTime> = None;
            let mut end_raw: Option<SimTime> = None;
            for j in 0..shards {
                let mut hj: Option<SimTime> = heads[j];
                for (t, _, _) in &feeds[j] {
                    hj = Some(hj.map_or(*t, |m: SimTime| m.min(*t)));
                }
                let Some(h) = hj else { continue };
                tmin = Some(tmin.map_or(h, |m: SimTime| m.min(h)));
                let e = h + row_la[j];
                end_raw = Some(end_raw.map_or(e, |m: SimTime| m.min(e)));
            }
            let Some(t0) = tmin else { break };
            if t0 > limit || (t0 == limit && !inclusive) {
                break;
            }
            let end = clamp_end(end_raw.expect("some shard has work"), limit, inclusive);
            if end <= t0 {
                // Only reachable with windows saturated at the end of
                // time; stop rather than spin (remaining events stay
                // queued for a later, serial-fallback advance).
                break;
            }
            core.windows += 1;
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
    core.queues = returned;
    if core.now < limit && inclusive && limit != SimTime::MAX {
        core.now = limit;
    }
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
    use crate::sched::{BinaryHeapScheduler, TimingWheel};
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

    fn run<S: SchedulerFor<Peer> + Send>(
        nodes: usize,
        shards: usize,
        net: impl crate::net::NetworkModel + 'static,
    ) -> Fingerprint {
        let mut sim: Simulation<Peer, S> = Simulation::with_scheduler(0xD5, net);
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
        if shards > 1 {
            sim.set_shards(shards);
        }
        sim.run_until(SimTime::from_secs(30.0));
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
    fn sharded_matches_serial_on_both_schedulers() {
        type Wheel = TimingWheel<EngineEvent<Msg>>;
        type Heap = BinaryHeapScheduler<EngineEvent<Msg>>;
        let net = || UniformLatency::from_millis(20.0, 80.0);
        let serial = run::<Wheel>(10, 1, net());
        assert!(
            serial.4.iter().step_by(3).any(|n| n.2.len() >= 5),
            "no node lived long enough to go_offline on its own"
        );
        for shards in [2, 3, 4, 8] {
            assert_eq!(
                run::<Wheel>(10, shards, net()),
                serial,
                "wheel diverged at {shards} shards"
            );
            assert_eq!(
                run::<Heap>(10, shards, net()),
                serial,
                "heap diverged at {shards} shards"
            );
        }
        assert_eq!(run::<Heap>(10, 1, net()), serial, "serial heap diverged");
    }

    #[test]
    fn empty_and_single_node_shards() {
        type Wheel = TimingWheel<EngineEvent<Msg>>;
        let net = || UniformLatency::from_millis(20.0, 80.0);
        // 2 nodes over 2 shards: every shard holds exactly one node.
        let serial2 = run::<Wheel>(2, 1, net());
        assert_eq!(run::<Wheel>(2, 2, net()), serial2, "single-node shards");
        // 3 nodes over 8 shards: shards 3..8 are empty and must neither
        // stall the window protocol nor contribute events.
        let serial3 = run::<Wheel>(3, 1, net());
        assert_eq!(run::<Wheel>(3, 8, net()), serial3, "empty shards");
    }

    #[test]
    fn zero_lookahead_falls_back_to_serial() {
        type Wheel = TimingWheel<EngineEvent<Msg>>;
        // A zero-latency link means no conservative window exists; the
        // sharded sim must quietly use serial-equivalent stepping (and
        // in particular must not deadlock).
        let serial = run::<Wheel>(6, 1, ConstantLatency::from_millis(0.0));
        assert_eq!(
            run::<Wheel>(6, 4, ConstantLatency::from_millis(0.0)),
            serial
        );
    }

    #[test]
    fn set_shards_migrates_pending_events_and_back() {
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
        sim.run_until(SimTime::from_secs(0.1));
        sim.set_shards(4);
        assert_eq!(sim.shards(), 4);
        sim.run_until(SimTime::from_secs(0.2));
        sim.set_shards(1);
        assert_eq!(sim.shards(), 1);
        sim.run_until(SimTime::from_secs(30.0));

        let mut serial: Simulation<Peer> =
            Simulation::new(7, UniformLatency::from_millis(20.0, 80.0));
        let sids: Vec<_> = (0..6)
            .map(|_| {
                serial.add_node(Peer {
                    n: 6,
                    ..Peer::default()
                })
            })
            .collect();
        for w in 0..12u32 {
            serial.inject(
                sids[w as usize % sids.len()],
                Msg::Ping(w),
                SimDuration::from_millis(w as f64 * 31.0),
            );
        }
        serial.run_until(SimTime::from_secs(30.0));
        assert_eq!(sim.events_processed(), serial.events_processed());
        assert_eq!(sim.stats(), serial.stats());
        for (&a, &b) in ids.iter().zip(&sids) {
            assert_eq!(sim.node(a).pings, serial.node(b).pings);
            assert_eq!(sim.node(a).timers, serial.node(b).timers);
        }
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

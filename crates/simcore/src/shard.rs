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
//! Cross-shard effects are reconciled in a serial *commit phase* after
//! every window: the per-shard dispatch logs are merged by repeatedly
//! taking the smallest `(time, seq)` head — exactly the order the
//! serial engine would have popped them — and along that canonical
//! order the engine replays its bookkeeping (trace, queue-depth
//! accounting) and routes every send through the network model using
//! the sender's own RNG stream. Because sequence numbers are
//! origin-packed and RNG streams are per-node (see the determinism
//! notes in [`crate::engine`]), the resulting event schedule, metrics,
//! and node states are byte-identical to a serial run.
//!
//! Models without a positive lookahead (or degenerate windows at the
//! end of time) fall back to serial-equivalent stepping rather than
//! deadlock or reorder.

// decent-lint: allow(D010) reason="the executor's own window-barrier plumbing: workers park here deterministically (DESIGN.md §4i)"
use std::sync::mpsc::{Receiver, Sender};

use crate::arena::SlotView;
use crate::engine::{
    Context, Effect, EngineEvent, EventKind, Node, NodeId, SchedulerFor, Simulation,
};
use crate::metrics::LogHistogram;
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

/// One send, deferred to the commit phase for network-model routing.
struct SendRec<M> {
    src: NodeId,
    dst: NodeId,
    msg: M,
    bytes: u64,
    time: SimTime,
    seq_deliver: u64,
    seq_dup: u64,
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
    sends: Vec<SendRec<M>>,
    processed: u64,
    /// Handler activations (batched outer-loop iterations) this window.
    activations: u64,
    cancelled: u64,
    delivered: u64,
    dropped_offline: u64,
    sent: u64,
    bytes_sent: u64,
    msg_bytes: LogHistogram,
    /// Events the worker pushed into its own queue this window.
    local_scheduled: u64,
    /// Earliest remaining event in the worker's queue after the window.
    next_time: Option<SimTime>,
}

impl<M> WindowOut<M> {
    fn new() -> Self {
        WindowOut {
            recs: Vec::new(),
            sends: Vec::new(),
            processed: 0,
            activations: 0,
            cancelled: 0,
            delivered: 0,
            dropped_offline: 0,
            sent: 0,
            bytes_sent: 0,
            msg_bytes: LogHistogram::new(),
            local_scheduled: 0,
            next_time: None,
        }
    }
}

/// Exclusive end of the window opening at `start`: one lookahead ahead,
/// capped at the advance bound (the homogeneous special case of the
/// per-shard computation in the main loop; kept for the unit tests).
#[cfg(test)]
fn window_end(start: SimTime, la: SimDuration, limit: SimTime, inclusive: bool) -> SimTime {
    clamp_end(start + la, limit, inclusive)
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
    let la = match sim.net.lookahead() {
        Some(la) if !la.is_zero() => la,
        // No conservative window exists (adaptive latency, or a model
        // that can deliver instantly): degrade to the serial loop,
        // which pops the same (time, seq) order one event at a time.
        _ => return sim.advance_serial(limit, inclusive),
    };
    let shards = sim.shards;
    debug_assert!(shards > 1, "windowed executor installed for serial sim");
    let row_la = row_lookaheads(
        sim.net.shard_lookahead(sim.len(), shards),
        la,
        sim.len(),
        shards,
    );

    let queues: Vec<S> = std::mem::take(&mut sim.queues);
    // Disjoint field borrows: workers take the node rows, the commit
    // phase owns the network model, RNG streams, and counters.
    let Simulation {
        store,
        net_rngs,
        queues: queues_slot,
        net,
        stats,
        trace,
        now,
        events_processed,
        activations,
        windows,
        events_cancelled,
        scheduled,
        pending,
        peak_pending,
        msg_bytes,
        ..
    } = sim;

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
            *windows += 1;
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
                *events_processed += out.processed;
                *activations += out.activations;
                *events_cancelled += out.cancelled;
                *scheduled += out.local_scheduled;
                stats.delivered += out.delivered;
                stats.dropped_offline += out.dropped_offline;
                stats.sent += out.sent;
                stats.bytes_sent += out.bytes_sent;
                msg_bytes.merge(&out.msg_bytes);
                outs.push((out.recs.into_iter(), out.sends.into_iter()));
            }

            // Commit phase: greedy merge of the per-shard dispatch logs.
            // Repeatedly taking the smallest (time, seq) head reproduces
            // the exact order the serial engine pops events in (each log
            // is itself (time, seq)-sorted, and within a window no
            // dispatch can create an earlier-sorting event for another
            // shard). Along that order we replay the engine bookkeeping
            // and route sends, drawing from each sender's own network
            // RNG stream — the same calls in the same order as serial.
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

                debug_assert!(rec.time >= *now, "commit went backwards in time");
                *now = rec.time;
                if let Some(tr) = trace.as_mut() {
                    tr.record(rec.time, rec.node, rec.tag);
                }
                *pending -= 1;
                *pending += rec.pushes as u64;
                if *pending > *peak_pending {
                    *peak_pending = *pending;
                }
                while send_cursor[i] < rec.send_end {
                    send_cursor[i] += 1;
                    let s = outs[i].1.next().expect("send log matches records");
                    // Twin of Simulation::route_send, pushing into the
                    // next window's feeds instead of live queues.
                    match net.delay(s.src, s.dst, s.bytes, s.time, &mut net_rngs[s.src]) {
                        Some(d) => {
                            if let Some(d2) =
                                net.duplicate(s.src, s.dst, s.bytes, s.time, &mut net_rngs[s.src])
                            {
                                stats.duplicated += 1;
                                push_feed(
                                    &mut feeds,
                                    shards,
                                    s.time + d2,
                                    s.seq_dup,
                                    EngineEvent {
                                        node: s.dst,
                                        kind: EventKind::Deliver {
                                            src: s.src,
                                            msg: s.msg.clone(),
                                        },
                                    },
                                    scheduled,
                                    pending,
                                    peak_pending,
                                );
                            }
                            push_feed(
                                &mut feeds,
                                shards,
                                s.time + d,
                                s.seq_deliver,
                                EngineEvent {
                                    node: s.dst,
                                    kind: EventKind::Deliver {
                                        src: s.src,
                                        msg: s.msg,
                                    },
                                },
                                scheduled,
                                pending,
                                peak_pending,
                            );
                        }
                        None => stats.dropped_net += 1,
                    }
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
    *queues_slot = returned;
    if *now < limit && inclusive && limit != SimTime::MAX {
        *now = limit;
    }
}

#[allow(clippy::too_many_arguments)]
fn push_feed<M>(
    feeds: &mut [Feed<M>],
    shards: usize,
    time: SimTime,
    seq: u64,
    ev: EngineEvent<M>,
    scheduled: &mut u64,
    pending: &mut u64,
    peak_pending: &mut u64,
) {
    *scheduled += 1;
    *pending += 1;
    if *pending > *peak_pending {
        *peak_pending = *pending;
    }
    feeds[ev.node % shards].push((time, seq, ev));
}

/// Per-shard worker loop: drain the shard's queue window by window,
/// logging dispatches and deferring sends to the commit phase. Returns
/// the queue when told to stop so the engine can resume serially.
///
/// Consecutive queue-head events bound for the same node drain in one
/// *activation* (batched delivery): the node's row is indexed once per
/// batch and stays hot across its due events. The peek-then-pop
/// discipline guarantees each batched event is still the exact queue
/// head, so the per-event dispatch log — and therefore the committed
/// order — is byte-identical to the unbatched drain.
fn worker_main<N, S>(
    shard: usize,
    shards: usize,
    mut part: Vec<SlotView<'_, N>>,
    mut queue: S,
    rx: Receiver<Cmd<N::Msg>>,
    tx: Sender<WindowOut<N::Msg>>,
) -> S
where
    N: Node,
    S: SchedulerFor<N>,
{
    let mut scratch: Vec<Effect<N::Msg>> = Vec::new();
    let mut ticks: u64 = 0;
    while let Ok(cmd) = rx.recv() {
        let Cmd::Run { end, feed } = cmd else { break };
        let mut out = WindowOut::new();
        for (t, s, ev) in feed {
            queue.schedule(t, s, ev);
        }
        while let Some(t) = queue.next_time() {
            if t >= end {
                break;
            }
            // Interleaving stress hook: a no-op unless a test set a
            // perturbation seed (crate::stress). Placed on the
            // activation path so perturbed schedules shift *between*
            // dispatches, where cross-shard races would hide.
            crate::stress::perturb(shard, ticks);
            ticks += 1;
            let (time, seq, ev) = queue.pop().expect("peeked");
            let node = ev.node;
            out.processed += 1;
            out.activations += 1;
            let mut rec = DispatchRec {
                time,
                seq,
                node,
                tag: ev.tag(),
                pushes: 0,
                send_end: 0,
            };
            dispatch_local(
                &mut part[node / shards],
                node,
                ev.kind,
                time,
                &mut queue,
                &mut out,
                &mut rec,
                &mut scratch,
            );
            rec.send_end = out.sends.len() as u32;
            out.recs.push(rec);
            // Batched continuation: same node, still inside the window.
            loop {
                match queue.peek() {
                    Some((t, _s, next)) if next.node == node && t < end => {}
                    _ => break,
                }
                let (time, seq, ev) = queue.pop().expect("peeked");
                out.processed += 1;
                let mut rec = DispatchRec {
                    time,
                    seq,
                    node,
                    tag: ev.tag(),
                    pushes: 0,
                    send_end: 0,
                };
                dispatch_local(
                    &mut part[node / shards],
                    node,
                    ev.kind,
                    time,
                    &mut queue,
                    &mut out,
                    &mut rec,
                    &mut scratch,
                );
                rec.send_end = out.sends.len() as u32;
                out.recs.push(rec);
            }
        }
        out.next_time = queue.next_time();
        if tx.send(out).is_err() {
            break;
        }
    }
    queue
}

/// Twin of [`Simulation::dispatch`] running inside a worker: identical
/// cancellation rules, handler invocation, and churn discipline, with
/// local pushes going to the shard's own queue and sends logged for the
/// commit phase. Any behavioural change here must be mirrored there
/// (and vice versa) or sharded runs stop being byte-identical.
#[allow(clippy::too_many_arguments)]
fn dispatch_local<N, S>(
    slot: &mut SlotView<'_, N>,
    id: NodeId,
    kind: EventKind<N::Msg>,
    now: SimTime,
    queue: &mut S,
    out: &mut WindowOut<N::Msg>,
    rec: &mut DispatchRec,
    scratch: &mut Vec<Effect<N::Msg>>,
) where
    N: Node,
    S: SchedulerFor<N>,
{
    match kind {
        EventKind::Deliver { src, msg } => {
            if !slot.meta.online {
                out.dropped_offline += 1;
                out.cancelled += 1;
                return;
            }
            out.delivered += 1;
            run_handler(slot, id, now, scratch, |n, ctx| n.on_message(src, msg, ctx));
            apply_local(slot, id, now, queue, out, rec, scratch);
        }
        EventKind::Timer { tag, epoch } => {
            if !slot.meta.online || slot.meta.timer_epoch != epoch {
                out.cancelled += 1;
                return;
            }
            run_handler(slot, id, now, scratch, |n, ctx| n.on_timer(tag, ctx));
            apply_local(slot, id, now, queue, out, rec, scratch);
        }
        EventKind::Start => {
            if slot.meta.online {
                out.cancelled += 1;
                return;
            }
            slot.meta.online = true;
            run_handler(slot, id, now, scratch, |n, ctx| n.on_start(ctx));
            apply_local(slot, id, now, queue, out, rec, scratch);
            let session = slot.churn.as_ref().map(|c| c.sample_session(slot.rng));
            if let Some(session) = session {
                let seq = slot.meta.next_seq(id);
                push_local(
                    queue,
                    now + session,
                    seq,
                    EngineEvent {
                        node: id,
                        kind: EventKind::Stop,
                    },
                    out,
                    rec,
                );
            }
        }
        EventKind::Stop => {
            if !slot.meta.online {
                out.cancelled += 1;
                return;
            }
            run_handler(slot, id, now, scratch, |n, ctx| n.on_stop(ctx));
            apply_local(slot, id, now, queue, out, rec, scratch);
            slot.meta.online = false;
            slot.meta.timer_epoch = slot.meta.timer_epoch.wrapping_add(1);
            let off = slot.churn.as_ref().map(|c| c.sample_offtime(slot.rng));
            if let Some(off) = off {
                let seq = slot.meta.next_seq(id);
                push_local(
                    queue,
                    now + off,
                    seq,
                    EngineEvent {
                        node: id,
                        kind: EventKind::Start,
                    },
                    out,
                    rec,
                );
            }
        }
    }
}

fn run_handler<N: Node>(
    slot: &mut SlotView<'_, N>,
    id: NodeId,
    now: SimTime,
    actions: &mut Vec<Effect<N::Msg>>,
    f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>),
) {
    let mut ctx = Context::new(now, id, slot.rng, actions);
    f(slot.node, &mut ctx);
}

/// Twin of [`Simulation::apply_actions`]: drains deferred effects in
/// handler order, reserving the same seqs and counting the same stats.
fn apply_local<N, S>(
    slot: &mut SlotView<'_, N>,
    id: NodeId,
    now: SimTime,
    queue: &mut S,
    out: &mut WindowOut<N::Msg>,
    rec: &mut DispatchRec,
    actions: &mut Vec<Effect<N::Msg>>,
) where
    N: Node,
    S: SchedulerFor<N>,
{
    let mut offline = false;
    for action in actions.drain(..) {
        match action {
            Effect::Send { dst, msg, bytes } => {
                out.sent += 1;
                out.bytes_sent += bytes;
                out.msg_bytes.record(bytes);
                let (seq_deliver, seq_dup) = slot.meta.reserve_send_seqs(id);
                out.sends.push(SendRec {
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
                let epoch = slot.meta.timer_epoch;
                let seq = slot.meta.next_seq(id);
                push_local(
                    queue,
                    now + delay,
                    seq,
                    EngineEvent {
                        node: id,
                        kind: EventKind::Timer { tag, epoch },
                    },
                    out,
                    rec,
                );
            }
            Effect::GoOffline => offline = true,
        }
    }
    if offline && slot.meta.online {
        slot.meta.online = false;
        slot.meta.timer_epoch = slot.meta.timer_epoch.wrapping_add(1);
        let off = slot.churn.as_ref().map(|c| c.sample_offtime(slot.rng));
        if let Some(off) = off {
            let seq = slot.meta.next_seq(id);
            push_local(
                queue,
                now + off,
                seq,
                EngineEvent {
                    node: id,
                    kind: EventKind::Start,
                },
                out,
                rec,
            );
        }
    }
}

fn push_local<N, S>(
    queue: &mut S,
    time: SimTime,
    seq: u64,
    ev: EngineEvent<N::Msg>,
    out: &mut WindowOut<N::Msg>,
    rec: &mut DispatchRec,
) where
    N: Node,
    S: SchedulerFor<N>,
{
    out.local_scheduled += 1;
    rec.pushes += 1;
    queue.schedule(time, seq, ev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::engine::{NetStats, EXTERNAL};
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
        }

        fn on_stop(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.stops += 1;
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
        let ids: Vec<_> = (0..nodes)
            .map(|_| {
                sim.add_node(Peer {
                    n: nodes,
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
            window_end(t, la, SimTime::from_secs(10.0), false),
            t + la,
            "uncapped window is one lookahead wide"
        );
        assert_eq!(
            window_end(t, la, SimTime::from_secs(1.005), false),
            SimTime::from_secs(1.005),
            "exclusive bound caps the window"
        );
        assert_eq!(
            window_end(t, la, t, true),
            SimTime::from_nanos(t.as_nanos() + 1),
            "inclusive bound admits events at the limit itself"
        );
    }
}

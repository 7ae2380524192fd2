//! `kad100k` and `kad100k_s2`: a 100 000-node Kademlia overlay answering
//! waves of 8 000 lookups, serial or on two shards.
//!
//! The working set (about 0.9 GB of routing tables) is far larger than
//! any cache, so the cost per event is dominated by `overlay` node state
//! and how `simcore` walks it. One pass is one wave: issue the lookups,
//! drain the queue, collect the results. 8 000 lookups per wave is the
//! load at which two shards beat one; smaller waves leave too few events
//! per conservative window.

use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig, KadNode};
use decent_sim::prelude::*;

use super::{
    drain, measure_setups, shared_e2e, simcore_layers, Drain, EngineCounts, PassClock, RunConfig,
};
use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::{host, stats};

struct Net {
    sim: Simulation<KadNode>,
    ids: Vec<NodeId>,
    lookups: usize,
    horizon_s: f64,
}

/// What one wave cost and returned.
#[derive(Default)]
struct Wave {
    counts: EngineCounts,
    drain: Drain,
    issue_s: f64,
    collect_s: f64,
    completed: u64,
    rpcs: u64,
    rpc_timeouts: u64,
    sim_latency_ms: Vec<f64>,
}

impl Net {
    /// Issues wave number `wave`, drains it and collects its results.
    fn wave(&mut self, wave: usize, t: &mut Tracer) -> Wave {
        let Net {
            sim,
            ids,
            lookups,
            horizon_s,
        } = self;
        let before = EngineCounts::of(sim);
        let (issued, issue_s) = t.span("overlay.start_lookup", |_| {
            (0..*lookups)
                .map(|j| {
                    // Wave 0 issues exactly bench7's lookups, so its event
                    // count can be checked against `BENCH_7.json`.
                    let g = wave * *lookups + j;
                    let origin = ids[(g * 131) % ids.len()];
                    let key = Key::from_u64(0xBEEF ^ g as u64);
                    let id = sim.invoke(origin, |n, ctx| n.start_lookup(key, false, ctx));
                    (origin, id)
                })
                .collect::<Vec<_>>()
        });
        let deadline = SimTime::from_secs(*horizon_s * (wave + 1) as f64);
        let mut w = Wave {
            drain: drain(sim, deadline, t),
            counts: EngineCounts::of(sim).since(before),
            issue_s,
            ..Wave::default()
        };
        w.collect_s = t
            .span("overlay.results", |_| {
                for &(origin, id) in &issued {
                    if let Some(r) = sim.node(origin).results.iter().find(|r| r.id == id) {
                        w.completed += 1;
                        w.rpcs += r.rpcs as u64;
                        w.rpc_timeouts += r.timeouts as u64;
                        w.sim_latency_ms.push(r.latency.as_secs() * 1e3);
                    }
                }
                // Harvested: the next wave starts from empty result lists.
                for &(origin, _) in &issued {
                    sim.node_mut(origin).results.clear();
                }
            })
            .1;
        w
    }
}

/// Runs the workload on `shards` shards (1 = serial).
pub fn run(cfg: &RunConfig, shards: usize, t: &mut Tracer, out: &mut Outcome) {
    let nodes = cfg.sizes.nodes.unwrap_or(100_000);
    let lookups = cfg.sizes.lookups.unwrap_or(8_000);
    let horizon_s = cfg.sizes.horizon_s.unwrap_or(600.0);

    let (mut build_s, mut bootstrap_s, mut teardown_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_per_node = 0.0;
    let (mut net, setup_s) = measure_setups(
        t,
        |t, i| {
            let rss0 = host::rss_bytes();
            let mut sim: Simulation<KadNode> =
                Simulation::new(cfg.seed, UniformLatency::from_millis(30.0, 120.0));
            sim.set_shards(shards);
            if t.enabled() {
                // Capacity 0: count events by kind, keep no records.
                sim.enable_trace(0);
            }
            let (ids, b) = t.span("overlay.build_network", |_| {
                build_network(&mut sim, nodes, &KadConfig::default(), 0.0, 8, cfg.seed ^ 1)
            });
            build_s.push(b);
            if i == 0 {
                // Only the first build starts on a heap nothing was freed into.
                rss_per_node = host::rss_bytes().saturating_sub(rss0) as f64 / nodes as f64;
            }
            bootstrap_s.push(drain(&mut sim, SimTime::from_secs(1.0), t).secs);
            Net {
                sim,
                ids,
                lookups,
                horizon_s,
            }
        },
        |t, net| teardown_s.push(t.span("teardown", |_| drop(net)).1),
    );

    let mut first: Option<Wave> = None;
    let mut drains = Drain::default();
    let (mut issue_s, mut collect_s) = (0.0, 0.0);
    let mut clock = PassClock::new(1, cfg.seconds);
    while clock.more() {
        let i = clock.next();
        clock.pass(t, |t| {
            let w = net.wave(i, t);
            out.ops(
                lookups as u64,
                lookups as u64 - w.completed,
                "lookups have no result",
            );
            drains.add(w.drain);
            issue_s += w.issue_s;
            collect_s += w.collect_s;
            let events = w.counts.events;
            first.get_or_insert(w);
            events
        });
    }
    let passes = clock.finish();
    let w = first.expect("at least one wave ran");
    let n = passes.secs.len() as f64;

    cfg.check_expected(out, "simcore.events", w.counts.events);
    out.check(w.counts.events > lookups as u64, || {
        format!(
            "a wave of {lookups} lookups handled only {} events",
            w.counts.events
        )
    });

    shared_e2e(out, &setup_s, &passes);
    let peak_queue_depth = net.sim.metrics_snapshot().counter("peak_queue_depth") as f64;
    simcore_layers(
        out,
        (w.counts, w.drain),
        peak_queue_depth,
        shards,
        drains,
        &passes,
    );
    if t.enabled() && shards > 1 {
        // One serial wave on the same network, so the speed-up has its
        // base in the same process.
        net.sim.set_shards(1);
        let (serial, s) = t.span("serial_reference", |t| net.wave(passes.secs.len(), t));
        let sharded_rate = passes.events as f64 / passes.total_s();
        out.layer("simcore.shard.serial_run_s", s);
        out.layer(
            "simcore.shard.speedup",
            sharded_rate / (serial.counts.events as f64 / s),
        );
    }
    teardown_s.push(t.span("teardown", |_| drop(net)).1);

    out.layer("simcore.bootstrap_s", stats::median(&bootstrap_s));
    out.layer("simcore.teardown_s", stats::median(&teardown_s));
    out.layer("overlay.build_s", stats::median(&build_s));
    out.layer("overlay.issue_s", issue_s / n);
    out.layer("overlay.collect_s", collect_s / n);
    out.layer("overlay.rss_bytes_per_node", rss_per_node);
    out.layer(
        "overlay.rpcs_per_lookup",
        w.rpcs as f64 / w.completed.max(1) as f64,
    );
    out.layer("overlay.lookup_timeouts", w.rpc_timeouts as f64);
    out.layer("overlay.lookups_completed", w.completed as f64);
    out.layer(
        "overlay.sim_lookup_p50_ms",
        stats::median(&w.sim_latency_ms),
    );
}

//! `chain_dense`: a 1 000-node proof-of-work relay network, serial.
//!
//! Event-dense with a small working set: scheduler push and pop, delay
//! sampling and handler dispatch dominate, and `overlay` is not called at
//! all. A change to node-state layout predicts no change here; a change
//! to dispatch predicts no change on `kad100k`.
//!
//! One pass builds the network afresh (outside the timed pass) and runs
//! it for 50 000 simulated seconds, about 400 blocks and 7.7 M events, so
//! every pass of a run does identical work. (The cost per event grows
//! with the length of the chain: 180 ns over the first 20 000 s, 290 ns
//! over 200 000 s. `--horizon 200000` reproduces the 34 296 961-event run
//! this workload was first sized with.)

use decent_chain::node::{
    build_network, report, ChainNode, ChainNodeConfig, ChainReport, NetworkConfig,
};
use decent_chain::pow::PowParams;
use decent_sim::prelude::*;

use super::{
    drain, measure_setups, shared_e2e, simcore_layers, Drain, EngineCounts, PassClock, RunConfig,
};
use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::stats;

/// bench9's region-aligned network: the four largest regions of the 2019
/// Bitcoin measurement, dealt round robin.
pub(crate) fn region_net(nodes: usize) -> RegionNet {
    const REGIONS: [Region; 4] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::AsiaPacific,
        Region::Japan,
    ];
    RegionNet::new((0..nodes).map(|id| REGIONS[id % 4]).collect())
}

const TARGET_INTERVAL_S: f64 = 120.0;

/// bench9's proof-of-work configuration on `nodes` nodes.
fn network_config(nodes: usize) -> NetworkConfig {
    NetworkConfig {
        nodes,
        miner_fraction: 0.3,
        node: ChainNodeConfig {
            params: PowParams {
                target_interval: SimDuration::from_secs(TARGET_INTERVAL_S),
                ..PowParams::bitcoin()
            },
            tx_rate: 20.0,
            ..ChainNodeConfig::default()
        },
        ..NetworkConfig::default()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, t: &mut Tracer, out: &mut Outcome) {
    let nodes = cfg.sizes.nodes.unwrap_or(1_000);
    let horizon = SimTime::from_secs(cfg.sizes.horizon_s.unwrap_or(50_000.0));
    let ncfg = network_config(nodes);

    let mut build_s = Vec::new();
    let mut build = |t: &mut Tracer| {
        let mut sim: Simulation<ChainNode> = Simulation::new(cfg.seed, region_net(nodes));
        if t.enabled() {
            sim.enable_trace(0);
        }
        let (_, b) = t.span("chain.build_network", |_| {
            build_network(&mut sim, &ncfg, cfg.seed ^ 2)
        });
        build_s.push(b);
        sim
    };
    let (first_sim, setup_s) = measure_setups(t, |t, _| build(t), |_, sim| drop(sim));

    let mut next = Some(first_sim);
    let mut first: Option<(EngineCounts, Drain, ChainReport)> = None;
    let mut drains = Drain::default();
    let (mut report_s, mut teardown_s, mut peak_queue_depth) = (0.0, Vec::new(), 0.0);
    let mut clock = PassClock::new(1, cfg.seconds);
    while clock.more() {
        let mut sim = next.take().unwrap_or_else(|| build(t));
        let start = EngineCounts::of(&sim);
        clock.pass(t, |t| {
            let d = drain(&mut sim, horizon, t);
            drains.add(d);
            let counts = EngineCounts::of(&sim).since(start);
            let (rep, s) = t.span("chain.report", |_| check_chain(&sim, out));
            report_s += s;
            match &first {
                // Same seed, same network: every pass must repeat the first.
                Some((c, _, _)) => out.check(*c == counts, || {
                    format!("a pass counted {counts:?}, the first {c:?}")
                }),
                None => first = Some((counts, d, rep)),
            }
            counts.events
        });
        peak_queue_depth = sim.metrics_snapshot().counter("peak_queue_depth") as f64;
        teardown_s.push(t.span("teardown", |_| drop(sim)).1);
    }
    let passes = clock.finish();
    let (counts, first_drain, rep) = first.expect("at least one pass ran");
    cfg.check_expected(out, "simcore.events", counts.events);

    shared_e2e(out, &setup_s, &passes);
    simcore_layers(
        out,
        (counts, first_drain),
        peak_queue_depth,
        1,
        drains,
        &passes,
    );
    out.layer("simcore.teardown_s", stats::median(&teardown_s));
    out.layer("chain.build_s", stats::median(&build_s));
    out.layer("chain.report_s", report_s / passes.secs.len() as f64);
    out.layer("chain.best_height", rep.height as f64);
    out.layer("chain.stale_rate", rep.stale_rate);
}

/// Reads the chain off node 0 and checks it against the protocol's own
/// parameters: block count near horizon / target interval, few stale
/// blocks, every node within three blocks of the observer.
fn check_chain(sim: &Simulation<ChainNode>, out: &mut Outcome) -> ChainReport {
    let rep = report(sim, 0);
    let blocks = rep.height as f64;
    let expected_blocks = sim.now().as_secs() / TARGET_INTERVAL_S;
    out.check(
        blocks > 0.5 * expected_blocks && blocks < 1.5 * expected_blocks,
        || {
            format!(
                "best chain has {blocks} blocks after {} s at a {TARGET_INTERVAL_S} s target",
                sim.now().as_secs()
            )
        },
    );
    out.check((0.0..0.5).contains(&rep.stale_rate), || {
        format!("stale rate {} is not a small share", rep.stale_rate)
    });
    let lagging = (0..sim.len())
        .filter(|&id| sim.node(id).view.height() + 3 < rep.height)
        .count();
    out.check(lagging == 0, || {
        format!(
            "{lagging} of {} nodes are more than 3 blocks behind the observer",
            sim.len()
        )
    });
    rep
}

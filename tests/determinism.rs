//! Every simulator in the workspace must be bit-for-bit reproducible:
//! the same seed yields the same trace, and different seeds diverge.

use decent::bft::pbft::{saturation_run, PbftConfig};
use decent::chain::economics::{Market, MarketConfig};
use decent::chain::node::{build_network as build_chain, report, NetworkConfig};
use decent::chain::selfish;
use decent::edge::service::{run_workload, EdgeConfig, Strategy};
use decent::overlay::id::Key;
use decent::overlay::kademlia::{build_network as build_kad, KadConfig};
use decent::overlay::swarm::{SwarmConfig, SwarmSim};
use decent::sim::prelude::*;

fn kad_trace(seed: u64) -> (u64, Vec<usize>) {
    let mut sim = Simulation::new(seed, UniformLatency::from_millis(20.0, 80.0));
    let ids = build_kad(&mut sim, 200, &KadConfig::default(), 0.3, 8, seed ^ 1);
    sim.run_until(SimTime::from_secs(1.0));
    for i in 0..20u64 {
        let origin = ids[(i as usize * 7) % ids.len()];
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(Key::from_u64(i), false, ctx);
        });
    }
    sim.run_until(SimTime::from_secs(120.0));
    let rpcs: Vec<usize> = ids
        .iter()
        .flat_map(|&id| sim.node(id).results.iter().map(|r| r.rpcs))
        .collect();
    (sim.events_processed(), rpcs)
}

#[test]
fn kademlia_is_deterministic() {
    assert_eq!(kad_trace(11), kad_trace(11));
    assert_ne!(kad_trace(11), kad_trace(12));
}

fn chain_trace(seed: u64) -> (u64, u64, f64) {
    let mut sim = Simulation::new(seed, ConstantLatency::from_millis(80.0));
    let ids = build_chain(&mut sim, &NetworkConfig::default(), seed ^ 1);
    sim.run_until(SimTime::from_hours(4.0));
    let r = report(&sim, ids[0]);
    (sim.events_processed(), r.height, r.tps)
}

#[test]
fn blockchain_is_deterministic() {
    assert_eq!(chain_trace(21), chain_trace(21));
    assert_ne!(chain_trace(21).0, chain_trace(22).0);
}

#[test]
fn pbft_is_deterministic() {
    let cfg = PbftConfig::default();
    let a = saturation_run(&cfg, 50_000, SimDuration::from_secs(1.0), 31);
    let b = saturation_run(&cfg, 50_000, SimDuration::from_secs(1.0), 31);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn market_and_swarm_and_selfish_are_deterministic() {
    let m1 = Market::new(MarketConfig::default(), 41).run();
    let m2 = Market::new(MarketConfig::default(), 41).run();
    assert_eq!(m1, m2);

    let mk = |seed| SwarmSim::with_population(SwarmConfig::default(), 80, 0.3, 2, seed).run(2000);
    assert_eq!(mk(42), mk(42));

    assert_eq!(
        selfish::simulate(0.35, 0.5, 200_000, 43),
        selfish::simulate(0.35, 0.5, 200_000, 43)
    );
}

#[test]
fn edge_workload_is_deterministic() {
    let cfg = EdgeConfig {
        strategy: Strategy::EdgeCentric,
        devices_per_region: 30,
        ..EdgeConfig::default()
    };
    let (mut a, wan_a, loc_a) = run_workload(&cfg, 2, 51);
    let (mut b, wan_b, loc_b) = run_workload(&cfg, 2, 51);
    assert_eq!(a.summary(), b.summary());
    assert_eq!(wan_a, wan_b);
    assert_eq!(loc_a, loc_b);
}

#[test]
fn experiment_reports_are_deterministic() {
    // A cheap experiment, run twice end to end.
    let a = decent::core::scenario::build("E10", true).unwrap().run();
    let b = decent::core::scenario::build("E10", true).unwrap().run();
    assert_eq!(a, b);
}

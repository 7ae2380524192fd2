//! Kademlia behaves the same however the engine executes it.
//!
//! `KadNode` is the one protocol that runs both under the simulator and
//! on sockets, so its simulated behaviour is pinned harder than the
//! others': randomized topologies fingerprinted at shards {1, 4} must be
//! identical down to every lookup result, and the fixed golden
//! configuration must land on the exact trace tuple
//! (`tests/golden_traces.rs` pins the serial run; here the same
//! numbers are required from the sharded executor too). The tuple has
//! held since before Kademlia first ran on sockets.

use proptest::prelude::*;

use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig};
use decent_sim::prelude::*;

/// Full behavioral fingerprint: engine counters plus every completed
/// lookup's observable outcome (latency, RPC accounting, result set).
type Fingerprint = (u64, u64, u64, Vec<(u64, usize, usize, bool, Vec<usize>)>);

fn run_kad(shards: usize, seed: u64, n: usize, unresponsive: f64, lookups: u64) -> Fingerprint {
    let mut sim = Simulation::new(seed, UniformLatency::from_millis(20.0, 80.0));
    // Under 140 nodes: windows the policy would never open.
    let _windows = decent_sim::stress::force_windows();
    sim.set_shards(shards);
    let ids = build_network(
        &mut sim,
        n,
        &KadConfig::default(),
        unresponsive,
        8,
        seed ^ 0x9E37,
    );
    sim.run_until(SimTime::from_secs(1.0));
    for i in 0..lookups {
        let origin = ids[(i as usize * 13) % ids.len()];
        sim.invoke(origin, |node, ctx| {
            node.start_lookup(Key::from_u64(i), false, ctx)
        });
    }
    sim.run_until(SimTime::from_secs(120.0));
    let mut results = Vec::new();
    for &id in &ids {
        for r in &sim.node(id).results {
            results.push((
                r.latency.as_nanos(),
                r.rpcs,
                r.timeouts,
                r.found_value,
                r.closest.iter().map(|c| c.node).collect(),
            ));
        }
    }
    (
        sim.events_processed(),
        sim.stats().sent,
        sim.stats().delivered,
        results,
    )
}

proptest! {
    // Each case runs the same workload twice; a handful of cases covers
    // a wide topology range without blowing up CI time.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn kad_identical_across_shards(
        seed in any::<u64>(),
        n in 60usize..140,
        unresponsive in 0.0f64..0.4,
        lookups in 10u64..30,
    ) {
        let base = run_kad(1, seed, n, unresponsive, lookups);
        prop_assert_eq!(&base, &run_kad(4, seed, n, unresponsive, lookups),
            "shards 4 diverged from serial");
    }
}

/// The golden configuration (same parameters as `kad_engine_golden` in
/// tests/golden_traces.rs), also required from the sharded executor.
#[test]
fn kad_matches_golden_sharded() {
    fn golden_run(shards: usize) -> (u64, u64, u64) {
        let mut sim = Simulation::new(42, UniformLatency::from_millis(20.0, 80.0));
        let _windows = decent_sim::stress::force_windows();
        sim.set_shards(shards);
        let ids = build_network(&mut sim, 200, &KadConfig::default(), 0.1, 8, 7);
        sim.run_until(SimTime::from_secs(1.0));
        for i in 0..50u64 {
            let origin = ids[(i as usize * 13) % ids.len()];
            sim.invoke(origin, |node, ctx| {
                node.start_lookup(Key::from_u64(i), false, ctx)
            });
        }
        sim.run_until(SimTime::from_secs(120.0));
        (
            sim.events_processed(),
            sim.stats().sent,
            sim.stats().delivered,
        )
    }
    // Must never drift.
    let golden = (3784, 2347, 2347);
    assert_eq!(golden_run(1), golden, "serial drifted");
    assert_eq!(golden_run(4), golden, "shards-4 drifted");
}

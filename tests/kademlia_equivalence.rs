//! Kademlia behaves the same however the engine executes it.
//!
//! `KadNode` is the one protocol that runs both under the simulator and
//! on sockets, so its simulated behaviour is pinned harder than the
//! others': randomized topologies fingerprinted on both schedulers ×
//! shards {1, 4} must be identical down to every lookup result, and the
//! fixed golden configuration must land on the exact trace tuple
//! (`tests/golden_traces.rs` pins the serial pair; here the same
//! numbers are required from the sharded executor too). The tuple has
//! held since before Kademlia first ran on sockets.

use proptest::prelude::*;

use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig, KadMsg, KadNode};
use decent_sim::prelude::*;

/// Full behavioral fingerprint: engine counters plus every completed
/// lookup's observable outcome (latency, RPC accounting, result set).
type Fingerprint = (u64, u64, u64, Vec<(u64, usize, usize, bool, Vec<usize>)>);

fn run_kad<S: SchedulerFor<KadNode> + Send>(
    shards: usize,
    seed: u64,
    n: usize,
    unresponsive: f64,
    lookups: u64,
) -> Fingerprint {
    let mut sim: Simulation<KadNode, S> =
        Simulation::with_scheduler(seed, UniformLatency::from_millis(20.0, 80.0));
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

type Wheel = TimingWheel<EngineEvent<KadMsg>>;
type Heap = BinaryHeapScheduler<EngineEvent<KadMsg>>;

proptest! {
    // Each case runs the same workload four ways; a handful of cases
    // covers a wide topology range without blowing up CI time.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn kad_identical_across_schedulers_and_shards(
        seed in any::<u64>(),
        n in 60usize..140,
        unresponsive in 0.0f64..0.4,
        lookups in 10u64..30,
    ) {
        let base = run_kad::<Wheel>(1, seed, n, unresponsive, lookups);
        prop_assert_eq!(&base, &run_kad::<Wheel>(4, seed, n, unresponsive, lookups),
            "wheel: shards 4 diverged from serial");
        prop_assert_eq!(&base, &run_kad::<Heap>(1, seed, n, unresponsive, lookups),
            "heap serial diverged from wheel serial");
        prop_assert_eq!(&base, &run_kad::<Heap>(4, seed, n, unresponsive, lookups),
            "heap: shards 4 diverged from wheel serial");
    }
}

/// The golden configuration (same parameters as
/// `kad_engine_golden_on_both_schedulers` in tests/golden_traces.rs),
/// also required from the sharded executor.
#[test]
fn kad_matches_golden_sharded() {
    fn golden_run<S: SchedulerFor<KadNode> + Send>(shards: usize) -> (u64, u64, u64) {
        let mut sim: Simulation<KadNode, S> =
            Simulation::with_scheduler(42, UniformLatency::from_millis(20.0, 80.0));
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
    assert_eq!(golden_run::<Wheel>(1), golden, "wheel serial drifted");
    assert_eq!(golden_run::<Wheel>(4), golden, "wheel shards-4 drifted");
    assert_eq!(golden_run::<Heap>(1), golden, "heap serial drifted");
    assert_eq!(golden_run::<Heap>(4), golden, "heap shards-4 drifted");
}

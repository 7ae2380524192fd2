//! Golden-trace regression tests.
//!
//! Every value pinned here was captured from a quick-scale run and must
//! never drift: the engine is deterministic by contract, so any change in
//! these numbers means the event ordering, the RNG streams, or a model
//! changed — all of which invalidate recorded experiment results.

use decent_chain::node::{build_network as chain_build, report as chain_report, NetworkConfig};
use decent_core::scenario::{self, ExecPolicy};
use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network as kad_build, KadConfig};
use decent_sim::prelude::*;

/// FNV-1a over the rendered markdown: one number that pins the entire
/// report (tables, formatting, findings) without storing the text.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn assert_findings(id: &str, expected: &[(&str, &str)], md_fnv: u64, md_len: usize) {
    assert_findings_exec(id, ExecPolicy::serial(), expected, md_fnv, md_len);
}

fn assert_findings_exec(
    id: &str,
    exec: ExecPolicy,
    expected: &[(&str, &str)],
    md_fnv: u64,
    md_len: usize,
) {
    let mut scenario = scenario::build(id, true).expect("known experiment id");
    scenario.set_exec(exec);
    let rep = scenario.run();
    let got: Vec<(String, String)> = rep
        .findings
        .iter()
        .map(|f| (f.name.clone(), f.measured.clone()))
        .collect();
    let want: Vec<(String, String)> = expected
        .iter()
        .map(|(n, m)| (n.to_string(), m.to_string()))
        .collect();
    assert_eq!(got, want, "{id}: headline findings drifted");
    assert!(
        rep.findings.iter().all(|f| f.holds),
        "{id}: a paper claim stopped holding at quick scale"
    );
    let md = rep.to_markdown();
    assert_eq!(
        (fnv(&md), md.len()),
        (md_fnv, md_len),
        "{id}: report markdown drifted"
    );
}

#[test]
fn e1_quick_golden() {
    assert_findings(
        "E1",
        &[
            ("KAD is fast", "99.2% of KAD lookups ≤ 5 s"),
            (
                "Mainline is an order of magnitude slower",
                "medians: KAD 2.021s vs Mainline 71.7s",
            ),
        ],
        0x7e38_a49a_5095_ccc7,
        661,
    );
}

/// E1 replayed on the sharded executor must reproduce the serial pins
/// byte-for-byte: same findings, same markdown hash, same length. This
/// is the report-level golden for the `--shards` path, on windows the
/// policy would not open for a 1 500-node overlay.
#[test]
fn e1_quick_golden_sharded() {
    let _windows = decent_sim::stress::force_windows();
    assert_findings_exec(
        "E1",
        ExecPolicy::sharded(4),
        &[
            ("KAD is fast", "99.2% of KAD lookups \u{2264} 5 s"),
            (
                "Mainline is an order of magnitude slower",
                "medians: KAD 2.021s vs Mainline 71.7s",
            ),
        ],
        0x7e38_a49a_5095_ccc7,
        661,
    );
}

/// E6 runs CAN, Chord, Pastry, Kademlia and one-hop side by side, so
/// these pins hold the lookup paths of all five overlays.
#[test]
fn e6_quick_golden() {
    assert_findings(
        "E6",
        &[
            (
                "one-hop beats multi-hop on latency",
                "p50 157.5 ms (one-hop) vs 335.0 ms (Chord, 3.800 hops avg)",
            ),
            (
                "geometry sets the hop count",
                "mean hops — CAN(d=2): 8.217, Chord: 3.800, Pastry: 2.228",
            ),
            (
                "full membership is feasible at 10K-100K",
                "4444 B/s per node at n=100K with 1-hour sessions",
            ),
        ],
        0xf874_5afb_dd0b_5bf7,
        1281,
    );
}

#[test]
fn e7_quick_golden() {
    assert_findings(
        "E7",
        &[
            ("Bitcoin lands in the 3.3-7 tx/s band", "3.056 tx/s"),
            ("Ethereum lands around 15 tx/s", "14.7 tx/s"),
            (
                "partitioned cloud is three orders of magnitude faster",
                "19.2k tx/s, 6.3kx Bitcoin",
            ),
        ],
        0x10ce_ed46_0316_9d5f,
        938,
    );
}

#[test]
fn e12_quick_golden() {
    assert_findings(
        "E12",
        &[
            (
                "BFT throughput falls with committee size",
                "80.9k tx/s at n=4 -> 3.8k tx/s at n=64",
            ),
            (
                "even a large committee crushes PoW throughput",
                "PBFT n=64: 3.8k tx/s vs PoW 3.611 tx/s (1.1kx)",
            ),
            (
                "commit latency: milliseconds vs an hour",
                "PBFT p50 in milliseconds; PoW needs ~6 blocks (~1 h) for confidence",
            ),
        ],
        0x36aa_e786_811a_6fd4,
        1039,
    );
}

/// Kademlia network build + 50 lookups: event count and network counters
/// pinned.
#[test]
fn kad_engine_golden() {
    let mut sim = Simulation::new(42, UniformLatency::from_millis(20.0, 80.0));
    let ids = kad_build(&mut sim, 200, &KadConfig::default(), 0.1, 8, 7);
    sim.run_until(SimTime::from_secs(1.0));
    for i in 0..50u64 {
        let origin = ids[(i as usize * 13) % ids.len()];
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(Key::from_u64(i), false, ctx)
        });
    }
    sim.run_until(SimTime::from_secs(120.0));
    assert_eq!(
        (
            sim.events_processed(),
            sim.stats().sent,
            sim.stats().delivered,
        ),
        (3784, 2347, 2347),
        "kad trace drifted"
    );
}

/// A scripted partition-heal cycle over the Kademlia workload: the
/// `Faulty` wrapper's drop/degrade accounting and the engine trace are
/// pinned. Any drift in these numbers means fault activation ordering,
/// the partition drop rule, or the degradation RNG discipline changed.
#[test]
fn faulty_partition_heal_golden() {
    assert_eq!(
        faulty_partition_heal(1),
        FAULTY_GOLDEN,
        "faulty partition-heal trace drifted"
    );
}

/// The same partition-heal cycle replayed on the sharded executor
/// (4 shards) must land on the identical pinned tuple: same event
/// count, same drop/degrade accounting. This is the engine-level golden
/// for the windowed parallel path under faults — the `Faulty` wrapper's
/// lookahead shrinks the window during the degrade phase, so this
/// exercises dynamic window-width changes too.
#[test]
fn faulty_partition_heal_golden_sharded() {
    assert_eq!(
        faulty_partition_heal(4),
        FAULTY_GOLDEN,
        "sharded faulty trace drifted from the serial pin"
    );
}

const FAULTY_GOLDEN: (u64, u64, u64, u64, u64, u64) = (7040, 4750, 4005, 651, 94, 1354);

fn faulty_partition_heal(shards: usize) -> (u64, u64, u64, u64, u64, u64) {
    {
        let plan = FaultPlan::new()
            .partition(
                SimTime::from_secs(10.0),
                SimTime::from_secs(40.0),
                (100..200).collect(),
            )
            .degrade(
                SimTime::from_secs(50.0),
                SimTime::from_secs(70.0),
                LinkSet::All,
                3.0,
                0.05,
            );
        let mut sim = Simulation::new(
            42,
            Faulty::new(UniformLatency::from_millis(20.0, 80.0), plan),
        );
        let _windows = decent_sim::stress::force_windows();
        sim.set_shards(shards);
        let ids = kad_build(&mut sim, 200, &KadConfig::default(), 0.1, 8, 7);
        sim.run_until(SimTime::from_secs(1.0));
        // Three lookup waves: pre-partition, mid-partition (majority
        // origins), and inside the degradation window.
        for (wave, t) in [(0u64, 2.0), (1, 15.0), (2, 55.0)] {
            sim.run_until(SimTime::from_secs(t));
            for i in 0..30u64 {
                let origin = ids[(i as usize * 13) % 100];
                sim.invoke(origin, |n, ctx| {
                    n.start_lookup(Key::from_u64(wave * 1000 + i), false, ctx)
                });
            }
        }
        sim.run_until(SimTime::from_secs(120.0));
        let m = sim.metrics_snapshot();
        (
            sim.events_processed(),
            sim.stats().sent,
            sim.stats().delivered,
            m.counter("msgs_dropped_partition"),
            m.counter("msgs_dropped_degraded"),
            m.counter("msgs_delayed_degraded"),
        )
    }
}

/// Two simulated hours of a 40-node PoW chain: event count, height, and
/// throughput pinned.
#[test]
fn chain_engine_golden() {
    let cfg = NetworkConfig {
        nodes: 40,
        ..NetworkConfig::default()
    };
    let mut sim = Simulation::new(11, UniformLatency::from_millis(30.0, 120.0));
    let ids = chain_build(&mut sim, &cfg, 23);
    sim.run_until(SimTime::from_secs(2.0 * 3600.0));
    let rep = chain_report(&sim, ids[0]);
    assert_eq!(
        (sim.events_processed(), rep.height),
        (10980, 13),
        "chain trace drifted"
    );
    assert!(
        (rep.tps - 3.6111).abs() < 1e-3,
        "chain tps drifted: {}",
        rep.tps
    );
}

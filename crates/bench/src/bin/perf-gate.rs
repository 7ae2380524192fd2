//! The perf gate: one deterministic measurement held against one
//! committed baseline (`baselines/perf_quick.json`).
//!
//! Measures, in this process, a 3 000-node Kademlia overlay on
//! `UniformLatency(30, 120 ms)` at seed `0xB6`: 300 lookups issued up
//! front, then one drain to 600 s of simulated time. The counters are
//! pure functions of the seed, so CI can gate on them even on a slow
//! shared runner. All but two cover the drain only — the steady-state
//! delivery path:
//!
//! - `events` / `activations` / `peak_queue_depth` must equal the
//!   baseline exactly: any drift is a behaviour change;
//! - `cascades`, exact too: the timing wheel's reorganizations during
//!   the drain (`decent_sim::sched::SchedStats::cascades`). Event order
//!   cannot show how the wheel crosses idle time; this counter does — a
//!   wheel that walks an idle gap window by window instead of jumping
//!   it fails here;
//! - `alloc_bytes` / `alloc_calls`, counted by the global allocator
//!   installed here, may drift within ±10 % to absorb allocator-library
//!   churn;
//! - `build_live_bytes_per_node`, same band: the bytes `build_network`
//!   allocates and does not free, per node — the footprint of a seeded
//!   node without a wall clock or an RSS read. Requested bytes would
//!   not do: a `Vec` that grows requests as much in total as many small
//!   ones do, it just does not keep it;
//! - `drained_live_bytes_per_node`, same band: the same count once the
//!   drain is over and every result harvested — what the lookups left
//!   in the nodes. A table that over-allocates when it learns its first
//!   contact after the build shows here and nowhere above;
//! - `wall_s` / `events_per_sec` are printed and never gated.
//!
//! Then a 200-node proof-of-work relay (`chain_dense`'s configuration on
//! its region-aligned `RegionNet`, at its seed `0xB9`) runs from genesis
//! to 10 000 s: the inv → getblock → block path, the busiest event path
//! in the repository. `chain_events`, `chain_activations`,
//! `chain_peak_queue_depth` and `chain_cascades` are gated exactly,
//! `chain_alloc_bytes` and `chain_alloc_calls` within ±10 %.
//!
//! Last, two saturated permissioned clusters on `LanNet::datacenter()`
//! at seed `0xBF`, each with 20 000 requests preloaded on every replica:
//! PBFT with `n = 4` for 2 s, and Raft with `n = 5`, which elects a
//! leader in its first second and is then loaded for 2 s more.
//! `bft_events`, both runs' events, is gated exactly;
//! `bft_pbft_live_bytes` and `bft_raft_live_bytes`, the bytes each run
//! holds live at its end with the cluster still built, within ±10 %. A
//! replica that keeps one record per request instead of one per run of
//! requests fails there.
//!
//! Then E7's arrival stream: 100 000 OLTP arrivals dealt round robin to
//! 32 nodes on a constant 0.5 ms link, 52 µs apart, injected as one
//! `Simulation::inject_stream` and run to the end. `stream_events` is
//! gated exactly, `stream_live_bytes`, the bytes the simulation holds
//! right after the inject, within ±10 %: a stream that goes back to one
//! queue entry per arrival holds some 5 MB more there.
//!
//! Last, E6's membership: a one-hop network and a Pastry network of
//! 1 000 nodes each, built as E6 builds them at full scale, on its
//! `UniformLatency(30, 120 ms)`, at seed `0xE6`.
//! `onehop_live_bytes_per_node` and `pastry_live_bytes_per_node`, the
//! bytes each build leaves live per node, are gated within ±10 %: a
//! one-hop node that keeps its own copy of the membership, or a Pastry
//! node that allocates all 40 routing rows up front, holds several
//! times more.
//!
//! A baseline that lacks a gated counter fails the gate. Timing
//! questions belong to `benchmark/`, not here.
//!
//! ```text
//! perf-gate [--baseline PATH [--summary PATH]] [--write-baseline PATH]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use decent_bft::pbft::{self, PbftConfig, PbftReplica};
use decent_bft::raft::{self, RaftConfig, RaftNode};
use decent_chain::node::{self as chain, ChainNode, ChainNodeConfig, NetworkConfig};
use decent_chain::pow::PowParams;
use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig, KadNode};
use decent_overlay::onehop::{self, OneHopConfig, OneHopNode};
use decent_overlay::pastry::{self, PastryConfig, PastryNode};
use decent_sim::json::Json;
use decent_sim::prelude::*;

const USAGE: &str =
    "usage: perf-gate [--baseline PATH [--summary PATH]] [--write-baseline PATH]  (at least one)";

const NODES: usize = 3_000;
const LOOKUPS: usize = 300;
const SEED: u64 = 0xB6; // kad100k's seed in benchmark/: comparable by construction
const HORIZON_S: u64 = 600;

const CHAIN_NODES: usize = 200;
const CHAIN_SEED: u64 = 0xB9; // chain_dense's seed in benchmark/
const CHAIN_HORIZON_S: u64 = 10_000;

const BFT_OPS: u64 = 20_000;
const BFT_SEED: u64 = 0xBF;

const STREAM_ARRIVALS: u64 = 100_000;
const STREAM_NODES: usize = 32;
const STREAM_SEED: u64 = 0xE7;

const MEMBERSHIP_NODES: usize = 1_000;
const MEMBERSHIP_SEED: u64 = 0xE6;

/// Allowed relative drift for the allocator counters, which absorb
/// allocator-library churn.
const BAND: f64 = 0.10;

/// The test a `(baseline, current)` pair of one counter must pass.
type Policy = fn(f64, f64) -> bool;

/// Pure functions of the seed: any drift is a behavior change.
fn exact(baseline: f64, current: f64) -> bool {
    baseline == current
}

fn within_band(baseline: f64, current: f64) -> bool {
    baseline > 0.0 && ((current - baseline) / baseline).abs() <= BAND
}

fn report_only(_baseline: f64, _current: f64) -> bool {
    true
}

/// Every counter `measure` reports: its key, and its policy as the
/// table prints it and as a test.
const GATE: [(&str, &str, Policy); 23] = [
    ("events", "exact", exact),
    ("activations", "exact", exact),
    ("peak_queue_depth", "exact", exact),
    ("cascades", "exact", exact),
    ("alloc_bytes", "±10%", within_band),
    ("alloc_calls", "±10%", within_band),
    ("build_live_bytes_per_node", "±10%", within_band),
    ("drained_live_bytes_per_node", "±10%", within_band),
    ("wall_s", "report only", report_only),
    ("events_per_sec", "report only", report_only),
    ("chain_events", "exact", exact),
    ("chain_activations", "exact", exact),
    ("chain_peak_queue_depth", "exact", exact),
    ("chain_cascades", "exact", exact),
    ("chain_alloc_bytes", "±10%", within_band),
    ("chain_alloc_calls", "±10%", within_band),
    ("bft_events", "exact", exact),
    ("bft_pbft_live_bytes", "±10%", within_band),
    ("bft_raft_live_bytes", "±10%", within_band),
    ("stream_events", "exact", exact),
    ("stream_live_bytes", "±10%", within_band),
    ("onehop_live_bytes_per_node", "±10%", within_band),
    ("pastry_live_bytes_per_node", "±10%", within_band),
];

thread_local! {
    // Per thread, so a parallel test thread cannot move the counters of
    // a measurement; the measured run is serial, so its own thread makes
    // every allocation of the drain. Const-initialised and without a
    // destructor: reading them from inside the allocator never allocates
    // and stays valid during thread teardown.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    ALLOC_BYTES.with(|b| b.set(b.get() + bytes as u64));
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

fn count_free(bytes: usize) {
    FREED_BYTES.with(|b| b.set(b.get() + bytes as u64));
}

/// `(bytes requested, allocation calls)` by the calling thread so far.
fn alloc_snapshot() -> (u64, u64) {
    (ALLOC_BYTES.get(), ALLOC_CALLS.get())
}

/// Bytes the calling thread has requested and not given back. Signed:
/// a thread may free what another allocated.
fn live_bytes() -> i64 {
    ALLOC_BYTES.get() as i64 - FREED_BYTES.get() as i64
}

/// Counts every allocation request handed to the system allocator.
/// Byte counts are request sizes (`Layout::size`), so they are a pure
/// function of the thread's allocation sequence. `realloc` counts the
/// full new size: a growth realloc touches (copies) the whole new
/// block, which is exactly the cache cost the counter stands for; the
/// old block's size counts as freed.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one the caller already upholds;
// the counters touch no allocator state.
#[expect(
    unsafe_code,
    reason = "counting global allocator: the one sanctioned unsafe site in the workspace, perf-gate binary only, delegates verbatim to System; the GlobalAlloc contract requires unsafe fns"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        count_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measures the Kademlia drain, the chain relay, the two permissioned
/// clusters, the arrival stream, then E6's membership, into the
/// document `--write-baseline` commits and the gate compares.
fn measure(
    kad_nodes: usize,
    lookups: usize,
    chain_nodes: usize,
    chain_horizon_s: u64,
    bft_ops: u64,
    arrivals: u64,
    membership_nodes: usize,
) -> Json {
    let mut pairs = measure_kad(kad_nodes, lookups);
    pairs.extend(measure_chain(chain_nodes, chain_horizon_s));
    pairs.extend(measure_bft(bft_ops));
    pairs.extend(measure_stream(arrivals));
    pairs.extend(measure_membership(membership_nodes));
    Json::obj(pairs)
}

/// Builds the overlay, issues every lookup up front, snapshots the
/// counters, then runs one long drain.
fn measure_kad(nodes: usize, lookups: usize) -> Vec<(&'static str, Json)> {
    let mut sim: Simulation<KadNode> =
        Simulation::new(SEED, UniformLatency::from_millis(30.0, 120.0));
    let live_before = live_bytes();
    let ids = build_network(&mut sim, nodes, &KadConfig::default(), 0.0, 8, SEED ^ 1);
    let build_live_bytes = live_bytes() - live_before;
    sim.run_until(SimTime::from_secs(1.0));
    for i in 0..lookups as u64 {
        let origin = ids[(i as usize * 131) % ids.len()];
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(Key::from_u64(0xBEEF ^ i), false, ctx)
        });
    }
    let events_before = sim.events_processed();
    let activations_before = sim.activations();
    let cascades_before = sim.sched_stats().cascades;
    let (bytes_before, calls_before) = alloc_snapshot();
    #[expect(
        clippy::disallowed_methods,
        reason = "perf gate: wall-clock is reported, never gated and never fed back into simulation state"
    )]
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(HORIZON_S as f64));
    let wall = t0.elapsed().as_secs_f64();
    let (bytes_after, calls_after) = alloc_snapshot();
    let events = sim.events_processed() - events_before;
    let peak_queue_depth = sim.metrics_snapshot().counter("peak_queue_depth");
    // Harvested as `benchmark/` harvests a wave: what stays live is what
    // the lookups left in the nodes and the engine.
    for &id in &ids {
        sim.node_mut(id).results.clear();
    }
    let drained_live_bytes = live_bytes() - live_before;
    vec![
        (
            "benchmark",
            Json::str("perf-gate quick config: serial Kademlia overlay, deterministic counters"),
        ),
        (
            "workload",
            Json::obj([
                ("nodes", Json::int(nodes as u64)),
                ("lookups", Json::int(lookups as u64)),
                ("seed", Json::int(SEED)),
                ("sim_horizon_s", Json::int(HORIZON_S)),
            ]),
        ),
        (
            "note",
            Json::str(
                "events, activations, peak_queue_depth and cascades are gated exactly, \
                 alloc_bytes, alloc_calls, build_live_bytes_per_node and \
                 drained_live_bytes_per_node within ±10%: all eight are pure functions of the \
                 seed. wall_s and events_per_sec depend on the host and are never gated.",
            ),
        ),
        ("events", Json::int(events)),
        (
            "activations",
            Json::int(sim.activations() - activations_before),
        ),
        ("peak_queue_depth", Json::int(peak_queue_depth)),
        (
            "cascades",
            Json::int(sim.sched_stats().cascades - cascades_before),
        ),
        ("alloc_bytes", Json::int(bytes_after - bytes_before)),
        ("alloc_calls", Json::int(calls_after - calls_before)),
        (
            "build_live_bytes_per_node",
            Json::num(build_live_bytes as f64 / nodes as f64),
        ),
        (
            "drained_live_bytes_per_node",
            Json::num(drained_live_bytes as f64 / nodes as f64),
        ),
        ("wall_s", Json::num(wall)),
        ("events_per_sec", Json::num(events as f64 / wall.max(1e-9))),
    ]
}

/// Builds the relay network (not counted), then runs it from genesis to
/// `horizon_s`, counting the whole run.
fn measure_chain(nodes: usize, horizon_s: u64) -> Vec<(&'static str, Json)> {
    const REGIONS: [Region; 4] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::AsiaPacific,
        Region::Japan,
    ];
    let net = RegionNet::new((0..nodes).map(|id| REGIONS[id % 4]).collect());
    let mut sim: Simulation<ChainNode> = Simulation::new(CHAIN_SEED, net);
    let cfg = NetworkConfig {
        nodes,
        miner_fraction: 0.3,
        node: ChainNodeConfig {
            params: PowParams {
                target_interval: SimDuration::from_secs(120.0),
                ..PowParams::bitcoin()
            },
            tx_rate: 20.0,
            ..ChainNodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    chain::build_network(&mut sim, &cfg, CHAIN_SEED ^ 2);
    let (bytes_before, calls_before) = alloc_snapshot();
    sim.run_until(SimTime::from_secs(horizon_s as f64));
    let (bytes_after, calls_after) = alloc_snapshot();
    vec![
        (
            "chain_workload",
            Json::obj([
                (
                    "network",
                    Json::str("proof-of-work relay, chain_dense's configuration, region-aligned RegionNet"),
                ),
                ("nodes", Json::int(nodes as u64)),
                ("seed", Json::int(CHAIN_SEED)),
                ("sim_horizon_s", Json::int(horizon_s)),
                (
                    "note",
                    Json::str(
                        "chain_events, chain_activations, chain_peak_queue_depth and chain_cascades \
                         are gated exactly, chain_alloc_bytes and chain_alloc_calls within ±10%. \
                         All six count the run from genesis, build excluded.",
                    ),
                ),
            ]),
        ),
        ("chain_events", Json::int(sim.events_processed())),
        ("chain_activations", Json::int(sim.activations())),
        (
            "chain_peak_queue_depth",
            Json::int(sim.metrics_snapshot().counter("peak_queue_depth")),
        ),
        ("chain_cascades", Json::int(sim.sched_stats().cascades)),
        ("chain_alloc_bytes", Json::int(bytes_after - bytes_before)),
        ("chain_alloc_calls", Json::int(calls_after - calls_before)),
    ]
}

/// Runs each permissioned cluster saturated with `ops` requests on every
/// replica and counts its events and the bytes it holds live at the end.
fn measure_bft(ops: u64) -> Vec<(&'static str, Json)> {
    let live_before = live_bytes();
    let mut sim: Simulation<PbftReplica> = Simulation::new(BFT_SEED, LanNet::datacenter());
    let ids = pbft::build_cluster(&mut sim, &PbftConfig::default(), &[]);
    for &id in &ids {
        sim.node_mut(id).submit_many(0..ops, SimTime::ZERO);
    }
    sim.run_until(SimTime::from_secs(2.0));
    let pbft_live_bytes = live_bytes() - live_before;
    let pbft_events = sim.events_processed();
    drop(sim);

    let live_before = live_bytes();
    let mut sim: Simulation<RaftNode> = Simulation::new(BFT_SEED, LanNet::datacenter());
    let ids = raft::build_cluster(&mut sim, &RaftConfig::default());
    sim.run_until(SimTime::from_secs(1.0));
    for &id in &ids {
        sim.node_mut(id)
            .submit_many(0..ops, SimTime::from_secs(1.0));
    }
    sim.run_until(SimTime::from_secs(3.0));
    let raft_live_bytes = live_bytes() - live_before;
    vec![
        (
            "bft_workload",
            Json::obj([
                (
                    "network",
                    Json::str("saturated PBFT n=4 (2 s) and Raft n=5 (1 s election, 2 s load) on LanNet::datacenter()"),
                ),
                ("ops_per_replica", Json::int(ops)),
                ("seed", Json::int(BFT_SEED)),
                (
                    "note",
                    Json::str(
                        "bft_events (both runs) is gated exactly, bft_pbft_live_bytes and \
                         bft_raft_live_bytes within ±10%: the bytes each run holds live at its \
                         end, cluster still built.",
                    ),
                ),
            ]),
        ),
        (
            "bft_events",
            Json::int(pbft_events + sim.events_processed()),
        ),
        ("bft_pbft_live_bytes", Json::int(pbft_live_bytes as u64)),
        ("bft_raft_live_bytes", Json::int(raft_live_bytes as u64)),
    ]
}

/// A node that counts what it is sent: all E7's OLTP shard does with an
/// arrival that the engine can see.
struct Served(u64);

impl Node for Served {
    type Msg = u32;

    fn on_message(&mut self, _from: NodeId, _msg: u32, _ctx: &mut Context<'_, u32>) {
        self.0 += 1;
    }
}

/// Injects `arrivals` as E7 does, at E7's quick offered load, counting
/// the bytes live right after the inject, then runs them all.
fn measure_stream(arrivals: u64) -> Vec<(&'static str, Json)> {
    let live_before = live_bytes();
    let mut sim: Simulation<Served> =
        Simulation::new(STREAM_SEED, ConstantLatency::from_millis(0.5));
    for _ in 0..STREAM_NODES {
        sim.add_node(Served(0));
    }
    let offered = 400.0 * STREAM_NODES as f64 * 1.5;
    sim.inject_stream(arrivals, move |i| {
        let at = SimDuration::from_secs(i as f64 / offered);
        ((i % STREAM_NODES as u64) as NodeId, 1, at)
    });
    let stream_live_bytes = live_bytes() - live_before;
    sim.run_until(SimTime::MAX);
    let served: u64 = (0..STREAM_NODES).map(|id| sim.node(id).0).sum();
    assert_eq!(served, arrivals, "every arrival reaches its node");
    vec![
        (
            "stream_workload",
            Json::obj([
                (
                    "network",
                    Json::str("E7's OLTP arrivals: one inject_stream round robin over ConstantLatency(0.5 ms)"),
                ),
                ("arrivals", Json::int(arrivals)),
                ("nodes", Json::int(STREAM_NODES as u64)),
                ("seed", Json::int(STREAM_SEED)),
                (
                    "note",
                    Json::str(
                        "stream_events is gated exactly, stream_live_bytes within ±10%: the bytes \
                         the simulation holds right after the inject, before any arrival fires.",
                    ),
                ),
            ]),
        ),
        ("stream_events", Json::int(sim.events_processed())),
        ("stream_live_bytes", Json::int(stream_live_bytes as u64)),
    ]
}

/// Builds a one-hop and a Pastry network of `nodes` nodes each, as E6
/// does, and counts the bytes each build leaves live, per node.
fn measure_membership(nodes: usize) -> Vec<(&'static str, Json)> {
    let latency = || UniformLatency::from_millis(30.0, 120.0);
    let live_before = live_bytes();
    let mut sim: Simulation<OneHopNode> = Simulation::new(MEMBERSHIP_SEED, latency());
    onehop::build_network(
        &mut sim,
        nodes,
        OneHopConfig::default(),
        MEMBERSHIP_SEED ^ 3,
    );
    let onehop_live_bytes = live_bytes() - live_before;
    drop(sim);

    let live_before = live_bytes();
    let mut sim: Simulation<PastryNode> = Simulation::new(MEMBERSHIP_SEED, latency());
    pastry::build_network(
        &mut sim,
        nodes,
        &PastryConfig::default(),
        MEMBERSHIP_SEED ^ 4,
    );
    let pastry_live_bytes = live_bytes() - live_before;
    vec![
        (
            "membership_workload",
            Json::obj([
                (
                    "network",
                    Json::str("E6's one-hop and Pastry builds on UniformLatency(30, 120 ms)"),
                ),
                ("nodes", Json::int(nodes as u64)),
                ("seed", Json::int(MEMBERSHIP_SEED)),
                (
                    "note",
                    Json::str(
                        "onehop_live_bytes_per_node and pastry_live_bytes_per_node are gated \
                         within ±10%: the bytes each build leaves live, per node.",
                    ),
                ),
            ]),
        ),
        (
            "onehop_live_bytes_per_node",
            Json::num(onehop_live_bytes as f64 / nodes as f64),
        ),
        (
            "pastry_live_bytes_per_node",
            Json::num(pastry_live_bytes as f64 / nodes as f64),
        ),
    ]
}

/// The counter under `key`, NaN when absent — and NaN fails every gate.
fn num_field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// One gate comparison row for the summary table.
struct Row {
    key: &'static str,
    baseline: f64,
    current: f64,
    policy: &'static str,
    ok: bool,
}

fn gate_rows(baseline: &Json, current: &Json) -> Vec<Row> {
    GATE.iter()
        .map(|&(key, policy, ok)| {
            let (b, c) = (num_field(baseline, key), num_field(current, key));
            Row {
                key,
                baseline: b,
                current: c,
                policy,
                ok: ok(b, c),
            }
        })
        .collect()
}

fn summary_table(rows: &[Row]) -> String {
    let mut s = String::from("## Perf gate (deterministic counters)\n\n");
    s.push_str("| counter | baseline | current | policy | status |\n");
    s.push_str("|---|---:|---:|---|---|\n");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} |",
            r.key,
            fmt_num(r.baseline),
            fmt_num(r.current),
            r.policy,
            if r.ok { "✅" } else { "❌ GATE" }
        );
    }
    s
}

fn fmt_num(x: f64) -> String {
    if x.is_nan() {
        "missing".to_string()
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

/// Measures, writes the new baseline if asked, and gates against the
/// old one if given. `Ok(false)` is a gate violation.
fn run(
    baseline: Option<&str>,
    summary: Option<&str>,
    write_baseline: Option<&str>,
) -> Result<bool, String> {
    // Read before measuring (a missing file fails at once) and before
    // writing (both flags may name the same path).
    let baseline = baseline
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .transpose()?;
    let current = measure(
        NODES,
        LOOKUPS,
        CHAIN_NODES,
        CHAIN_HORIZON_S,
        BFT_OPS,
        STREAM_ARRIVALS,
        MEMBERSHIP_NODES,
    );
    if let Some(path) = write_baseline {
        std::fs::write(path, format!("{}\n", current.to_string_pretty()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("perf-gate: wrote {path}");
    }
    let Some(baseline) = baseline else {
        return Ok(true);
    };
    let rows = gate_rows(&baseline, &current);
    let table = summary_table(&rows);
    print!("{table}");
    if let Some(path) = summary {
        std::fs::write(path, &table).map_err(|e| format!("cannot write summary {path}: {e}"))?;
    }
    let failures: Vec<&Row> = rows.iter().filter(|r| !r.ok).collect();
    for r in &failures {
        eprintln!(
            "perf-gate: gate violation: {} baseline={} current={} ({})",
            r.key,
            fmt_num(r.baseline),
            fmt_num(r.current),
            r.policy
        );
    }
    if failures.is_empty() {
        println!("\nperf-gate: gate OK");
    } else {
        eprintln!(
            "perf-gate: if the change is intentional, regenerate the baseline with \
             `perf-gate --write-baseline baselines/perf_quick.json` and commit it"
        );
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let (mut baseline, mut summary, mut write_baseline) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--baseline" => &mut baseline,
            "--summary" => &mut summary,
            "--write-baseline" => &mut write_baseline,
            other => {
                eprintln!("perf-gate: unrecognized argument: {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        let Some(value) = args.next() else {
            eprintln!("perf-gate: {arg} requires a path\n{USAGE}");
            return ExitCode::from(2);
        };
        *slot = Some(value);
    }
    if baseline.is_none() && (write_baseline.is_none() || summary.is_some()) {
        eprintln!("perf-gate: nothing to gate against: --summary is the gate's table\n{USAGE}");
        return ExitCode::from(2);
    }
    match run(
        baseline.as_deref(),
        summary.as_deref(),
        write_baseline.as_deref(),
    ) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perf-gate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The twenty-one counters a drift in which fails the gate.
    fn gated_keys() -> impl Iterator<Item = &'static str> {
        let gated = GATE.iter().filter(|g| g.1 != "report only");
        gated.map(|g| g.0)
    }

    #[test]
    fn allocator_counts_and_serial_counters_repeat() {
        let (b0, c0) = alloc_snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (b1, c1) = alloc_snapshot();
        drop(v);
        assert!(b1 - b0 >= 4096, "alloc bytes uncounted");
        assert!(c1 > c0, "alloc calls uncounted");

        let live0 = live_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(16);
        v.reserve_exact(4096);
        let grown = live_bytes() - live0;
        drop(v);
        assert_eq!(grown, 4096, "realloc must free the old block");
        assert_eq!(live_bytes(), live0, "freed bytes uncounted");

        let j = measure(50, 5, 20, 600, 500, 1_000, 50);
        for (key, ..) in GATE {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert!(
            num_field(&j, "events") > 0.0,
            "workload processed no events"
        );
        assert!(
            num_field(&j, "activations") <= num_field(&j, "events"),
            "activations cannot exceed events"
        );
        assert!(num_field(&j, "alloc_bytes") > 0.0, "no allocation counted");
        assert!(
            num_field(&j, "chain_events") > 0.0,
            "relay processed no events"
        );
        assert!(
            num_field(&j, "chain_alloc_bytes") > 0.0,
            "no relay allocation counted"
        );
        assert!(
            num_field(&j, "bft_events") > 0.0,
            "clusters processed no events"
        );
        for key in [
            "bft_pbft_live_bytes",
            "bft_raft_live_bytes",
            "stream_live_bytes",
            "onehop_live_bytes_per_node",
            "pastry_live_bytes_per_node",
        ] {
            assert!(num_field(&j, key) > 0.0, "{key}: no live bytes counted");
        }
        assert_eq!(
            num_field(&j, "stream_events"),
            1_000.0 + STREAM_NODES as f64,
            "one event per arrival and per node start"
        );

        let a = measure(60, 6, 24, 900, 600, 1_200, 60);
        let b = measure(60, 6, 24, 900, 600, 1_200, 60);
        assert_eq!(gated_keys().count(), 21);
        for key in gated_keys() {
            assert_eq!(
                num_field(&a, key),
                num_field(&b, key),
                "{key} not deterministic"
            );
        }
    }

    /// A baseline-shaped document with `events` and `alloc_bytes` set.
    fn doc(events: u64, alloc_bytes: u64) -> Json {
        Json::obj([
            ("events", Json::int(events)),
            ("activations", Json::int(events)),
            ("peak_queue_depth", Json::int(5)),
            ("cascades", Json::int(7)),
            ("alloc_bytes", Json::int(alloc_bytes)),
            ("alloc_calls", Json::int(10)),
            ("build_live_bytes_per_node", Json::num(1500.5)),
            ("drained_live_bytes_per_node", Json::num(2500.5)),
            ("wall_s", Json::num(0.5)),
            ("events_per_sec", Json::num(events as f64 / 0.5)),
            ("chain_events", Json::int(events)),
            ("chain_activations", Json::int(events)),
            ("chain_peak_queue_depth", Json::int(5)),
            ("chain_cascades", Json::int(7)),
            ("chain_alloc_bytes", Json::int(alloc_bytes)),
            ("chain_alloc_calls", Json::int(10)),
            ("bft_events", Json::int(events)),
            ("bft_pbft_live_bytes", Json::int(alloc_bytes)),
            ("bft_raft_live_bytes", Json::int(alloc_bytes)),
            ("stream_events", Json::int(events)),
            ("stream_live_bytes", Json::int(alloc_bytes)),
            ("onehop_live_bytes_per_node", Json::num(150.5)),
            ("pastry_live_bytes_per_node", Json::num(3000.5)),
        ])
    }

    fn row_ok(rows: &[Row], key: &str) -> bool {
        rows.iter().find(|r| r.key == key).unwrap().ok
    }

    #[test]
    fn gate_matches_itself_and_catches_drift() {
        let base = doc(100, 1000);
        assert!(gate_rows(&base, &base).iter().all(|r| r.ok));
        let rows = gate_rows(&base, &doc(101, 1000));
        assert!(
            !row_ok(&rows, "events"),
            "exact counter drift must fail the gate"
        );
    }

    #[test]
    fn alloc_band_tolerates_small_drift_only() {
        let base = doc(100, 1000);
        assert!(row_ok(&gate_rows(&base, &doc(100, 1050)), "alloc_bytes"));
        assert!(!row_ok(&gate_rows(&base, &doc(100, 1200)), "alloc_bytes"));
    }

    #[test]
    fn a_baseline_without_a_gated_counter_fails() {
        let current = doc(100, 1000);
        for key in gated_keys() {
            let Json::Obj(mut pairs) = doc(100, 1000) else {
                unreachable!("doc builds an object")
            };
            pairs.retain(|(k, _)| k != key);
            let rows = gate_rows(&Json::Obj(pairs), &current);
            assert!(!row_ok(&rows, key), "missing {key} must fail the gate");
        }
    }
}

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

use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig, KadNode};
use decent_sim::json::Json;
use decent_sim::prelude::*;

const USAGE: &str =
    "usage: perf-gate [--baseline PATH [--summary PATH]] [--write-baseline PATH]  (at least one)";

const NODES: usize = 3_000;
const LOOKUPS: usize = 300;
const SEED: u64 = 0xB6; // kad100k's seed in benchmark/: comparable by construction
const HORIZON_S: u64 = 600;

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
const GATE: [(&str, &str, Policy); 10] = [
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

/// Builds the overlay, issues every lookup up front, snapshots the
/// counters, then runs one long drain. Returns the document
/// `--write-baseline` commits and the gate compares.
fn measure(nodes: usize, lookups: usize) -> Json {
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
    Json::obj([
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
    ])
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
    let current = measure(NODES, LOOKUPS);
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

    /// The eight counters a drift in which fails the gate.
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

        let j = measure(50, 5);
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

        let a = measure(60, 6);
        let b = measure(60, 6);
        assert_eq!(gated_keys().count(), 8);
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

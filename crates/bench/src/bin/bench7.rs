//! Cache-friendliness benchmark (the committed `BENCH_7.json`).
//!
//! Same E6-class workload as `benchmark/`'s `kad100k` (100K-node Kademlia overlay, a
//! wave of lookups, one long drain), but instrumented for *deterministic*
//! cost counters so CI can gate on noise-free numbers even on a 1-core
//! shared runner:
//!
//! - `events` / `activations`: events dispatched and handler activations
//!   (one activation may drain several consecutive same-node events);
//! - `alloc_bytes` / `alloc_calls`: measured by a counting global
//!   allocator in this binary — deterministic for serial runs, where the
//!   allocation sequence is a pure function of the seed;
//! - `peak_queue_depth`: the engine's own high-water mark.
//!
//! Wall-clock and peak RSS are recorded but never gated. Configurations
//! with more shards than logical cores are labelled
//! `coordination_overhead_only: true`: they measure coordination cost,
//! not speedup, and the schema check rejects speedup claims from them.
//!
//! ```text
//! bench7 [--out PATH] [--nodes N] [--lookups N] [--prev OLD.json]
//! bench7 --quick [--out PATH]        # small serial config for the CI perf gate
//! bench7 --measure SHARDS [...]      # child: one config
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig, KadNode};
use decent_sim::json::Json;
use decent_sim::prelude::*;

const DEFAULT_NODES: usize = 100_000;
const DEFAULT_LOOKUPS: usize = 2_000;
const QUICK_NODES: usize = 3_000;
const QUICK_LOOKUPS: usize = 300;
const SEED: u64 = 0xB6; // kad100k's seed in benchmark/: comparable by construction

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation request handed to the system allocator.
/// Byte counts are request sizes (`Layout::size`), so they are a pure
/// function of the program's allocation sequence — deterministic for
/// single-threaded (serial) measurements, which is what the perf gate
/// runs. `realloc` counts the full new size: a growth realloc touches
/// (copies) the whole new block, which is exactly the cache cost this
/// benchmark exists to measure.
struct CountingAlloc;

// decent-lint: allow(D005) reason="counting global allocator: the one sanctioned unsafe site in the workspace, bench binary only, delegates verbatim to System"
unsafe impl GlobalAlloc for CountingAlloc {
    // decent-lint: allow(D005) reason="GlobalAlloc contract requires unsafe fn"
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // decent-lint: allow(D005) reason="GlobalAlloc contract requires unsafe fn"
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // decent-lint: allow(D005) reason="GlobalAlloc contract requires unsafe fn"
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_CALLS.load(Ordering::Relaxed),
    )
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn logical_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One configuration, measured in-process: build the overlay, issue
/// every lookup up front, snapshot the allocation counters, then time
/// one long drain. The counters therefore cover the drain only — the
/// steady-state delivery path the cache work targets — not setup.
fn measure(shards: usize, nodes: usize, lookups: usize) -> Json {
    let mut sim: Simulation<KadNode> =
        Simulation::new(SEED, UniformLatency::from_millis(30.0, 120.0));
    sim.set_shards(shards);
    let kad = KadConfig::default();
    let ids = build_network(&mut sim, nodes, &kad, 0.0, 8, SEED ^ 1);
    sim.run_until(SimTime::from_secs(1.0));
    for i in 0..lookups as u64 {
        let origin = ids[(i as usize * 131) % ids.len()];
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(Key::from_u64(0xBEEF ^ i), false, ctx)
        });
    }
    let events_before = sim.events_processed();
    let activations_before = sim.activations();
    let (bytes_before, calls_before) = alloc_snapshot();
    // decent-lint: allow(D002) reason="benchmark harness: wall-clock is the measurement itself, never fed back into simulation state"
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(600.0));
    let wall = t0.elapsed().as_secs_f64();
    let (bytes_after, calls_after) = alloc_snapshot();
    let events = sim.events_processed() - events_before;
    let activations = sim.activations() - activations_before;
    let m = sim.metrics_snapshot();
    Json::obj([
        ("shards", Json::int(shards as u64)),
        ("events", Json::int(events)),
        ("activations", Json::int(activations)),
        ("alloc_bytes", Json::int(bytes_after - bytes_before)),
        ("alloc_calls", Json::int(calls_after - calls_before)),
        ("peak_queue_depth", Json::int(m.counter("peak_queue_depth"))),
        ("wall_s", Json::num(wall)),
        ("events_per_sec", Json::num(events as f64 / wall.max(1e-9))),
        ("peak_rss_bytes", Json::int(peak_rss_bytes())),
        (
            "coordination_overhead_only",
            Json::Bool(shards > logical_cores()),
        ),
    ])
}

/// Spawns this same binary in child (`--measure`) mode and parses its
/// JSON result.
fn measure_in_child(shards: usize, nodes: usize, lookups: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--measure",
            &shards.to_string(),
            "--nodes",
            &nodes.to_string(),
            "--lookups",
            &lookups.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out)
        .map_err(|e| format!("read child stdout: {e}"))?;
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("child (shards={shards}) exited with {status}"));
    }
    Json::parse(out.trim()).map_err(|e| format!("child JSON: {e}"))
}

fn num_field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// Per-event allocation comparison against a previous bench file's
/// serial run (e.g. the PR-6 layout), if it carries alloc counters.
fn vs_prev(prev: &Json, serial: &Json) -> Option<Json> {
    let runs = match prev.get("runs") {
        Some(Json::Arr(rs)) => rs,
        _ => return None,
    };
    let old = runs.iter().find(|r| num_field(r, "shards") == 1.0)?;
    let old_events = num_field(old, "events");
    let old_bytes = num_field(old, "alloc_bytes");
    if old_events <= 0.0 || old_bytes <= 0.0 {
        return None;
    }
    let old_per_event = old_bytes / old_events;
    let new_per_event = num_field(serial, "alloc_bytes") / num_field(serial, "events").max(1.0);
    Some(Json::obj([
        ("prev_alloc_bytes_per_event", Json::num(old_per_event)),
        ("alloc_bytes_per_event", Json::num(new_per_event)),
        (
            "alloc_bytes_per_event_reduction",
            Json::num(1.0 - new_per_event / old_per_event),
        ),
        ("prev_events", Json::int(old_events as u64)),
        ("prev_alloc_bytes", Json::int(old_bytes as u64)),
    ]))
}

fn main() -> ExitCode {
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut nodes = DEFAULT_NODES;
    let mut lookups = DEFAULT_LOOKUPS;
    let mut quick = false;
    let mut prev_path: Option<std::path::PathBuf> = None;
    let mut child_shards: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, String> {
            args.next().ok_or(format!("{what} requires an argument"))
        };
        let r: Result<(), String> = match arg.as_str() {
            "--out" => take("--out").map(|v| out_path = Some(v.into())),
            "--quick" => {
                quick = true;
                Ok(())
            }
            "--prev" => take("--prev").map(|v| prev_path = Some(v.into())),
            "--nodes" => take("--nodes").and_then(|v| {
                v.parse()
                    .map(|n| nodes = n)
                    .map_err(|e| format!("--nodes: {e}"))
            }),
            "--lookups" => take("--lookups").and_then(|v| {
                v.parse()
                    .map(|n| lookups = n)
                    .map_err(|e| format!("--lookups: {e}"))
            }),
            "--measure" => take("--measure").and_then(|v| {
                v.parse()
                    .map(|n| child_shards = Some(n))
                    .map_err(|e| format!("--measure: {e}"))
            }),
            other => Err(format!("unrecognized argument: {other}")),
        };
        if let Err(msg) = r {
            eprintln!("bench7: {msg}");
            return ExitCode::from(2);
        }
    }

    if let Some(shards) = child_shards {
        println!("{}", measure(shards, nodes, lookups).to_string_pretty());
        return ExitCode::SUCCESS;
    }

    if quick {
        nodes = QUICK_NODES;
        lookups = QUICK_LOOKUPS;
    }
    let out_path = out_path.unwrap_or_else(|| {
        if quick {
            "perf_quick.json".into()
        } else {
            "BENCH_7.json".into()
        }
    });
    let shard_list: &[usize] = if quick { &[1] } else { &[1, 2, 4, 8] };

    let cores = logical_cores();
    let mut runs = Vec::new();
    let mut serial: Option<Json> = None;
    let mut serial_eps = 0.0;
    for &shards in shard_list {
        eprintln!("bench7: measuring shards={shards} ({nodes} nodes, {lookups} lookups)...");
        let mut run = match measure_in_child(shards, nodes, lookups) {
            Ok(j) => j,
            Err(msg) => {
                eprintln!("bench7: {msg}");
                return ExitCode::FAILURE;
            }
        };
        let eps = num_field(&run, "events_per_sec");
        if shards == 1 {
            serial_eps = eps;
            serial = Some(run.clone());
        }
        // A host with fewer cores than shards measures coordination
        // overhead, not parallelism — it gets no speedup claim at all
        // (the schema check rejects one).
        if shards <= cores {
            if let Json::Obj(pairs) = &mut run {
                pairs.push((
                    "speedup_vs_serial".to_string(),
                    Json::num(if serial_eps > 0.0 {
                        eps / serial_eps
                    } else {
                        0.0
                    }),
                ));
            }
        }
        eprintln!(
            "bench7:   {:.0} events/s, {:.0} activations, {:.1} MiB alloc, {:.1} MiB peak",
            eps,
            num_field(&run, "activations"),
            num_field(&run, "alloc_bytes") / (1024.0 * 1024.0),
            num_field(&run, "peak_rss_bytes") / (1024.0 * 1024.0)
        );
        runs.push(run);
    }

    let mut top = vec![
        (
            "benchmark".to_string(),
            Json::str(if quick {
                "perf-gate quick config: serial Kademlia overlay, deterministic counters"
            } else {
                "E6-class 100K-node Kademlia overlay, cache-friendly engine core"
            }),
        ),
        (
            "workload".to_string(),
            Json::obj([
                ("nodes", Json::int(nodes as u64)),
                ("lookups", Json::int(lookups as u64)),
                ("seed", Json::int(SEED)),
                ("sim_horizon_s", Json::int(600)),
            ]),
        ),
        (
            "host".to_string(),
            Json::obj([
                ("logical_cores", Json::int(cores as u64)),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
            ]),
        ),
        (
            "note".to_string(),
            Json::str(
                "events, activations, alloc_bytes, alloc_calls and peak_queue_depth are \
                 deterministic cost counters (alloc_* only for serial runs, where the \
                 allocation sequence is a pure function of the seed); wall_s, \
                 events_per_sec and peak_rss_bytes are environment-dependent and never \
                 gated. Runs with shards > logical_cores are labelled \
                 coordination_overhead_only and make no speedup claim.",
            ),
        ),
    ];
    if let Some(prev_path) = &prev_path {
        match std::fs::read_to_string(prev_path)
            .map_err(|e| e.to_string())
            .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
        {
            Ok(prev) => {
                if let Some(cmp) = serial.as_ref().and_then(|s| vs_prev(&prev, s)) {
                    top.push(("vs_prev".to_string(), cmp));
                } else {
                    eprintln!(
                        "bench7: {} has no comparable serial alloc counters; skipping vs_prev",
                        prev_path.display()
                    );
                }
            }
            Err(e) => {
                eprintln!("bench7: cannot read --prev {}: {e}", prev_path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    top.push(("runs".to_string(), Json::arr(runs)));
    let doc = Json::Obj(top);
    if let Err(e) = std::fs::write(&out_path, format!("{}\n", doc.to_string_pretty())) {
        eprintln!("bench7: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("bench7: wrote {}", out_path.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `#[test]` on purpose: the counting allocator is process-wide,
    /// so a second test thread allocating while `measure` runs would
    /// move `alloc_bytes` between two otherwise identical runs.
    #[test]
    fn allocator_counts_and_serial_counters_repeat() {
        let (b0, c0) = alloc_snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (b1, c1) = alloc_snapshot();
        drop(v);
        assert!(b1 - b0 >= 4096, "alloc bytes uncounted");
        assert!(c1 > c0, "alloc calls uncounted");

        let j = measure(1, 50, 5);
        for key in [
            "shards",
            "events",
            "activations",
            "alloc_bytes",
            "alloc_calls",
            "peak_queue_depth",
            "wall_s",
            "events_per_sec",
            "peak_rss_bytes",
            "coordination_overhead_only",
        ] {
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

        let a = measure(1, 60, 6);
        let b = measure(1, 60, 6);
        for key in [
            "events",
            "activations",
            "alloc_bytes",
            "alloc_calls",
            "peak_queue_depth",
        ] {
            assert_eq!(
                num_field(&a, key),
                num_field(&b, key),
                "{key} not deterministic"
            );
        }
    }
}

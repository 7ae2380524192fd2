//! `run`: every workload in a fresh child process, several times, into
//! one results file. `compare`: two results files against the bounds of
//! `BENCHMARK.json`.
//!
//! A child is this same program in its single-run form, so a run made by
//! the suite and a run made by hand (or by a driver) are the same thing:
//! its own process, a clean `VmHWM`, clean allocation counters.

use std::path::Path;
use std::process::{Command, Stdio};

use decent_sim::json::Json;

use crate::spec::{spec, MetricSpec, Spec};
use crate::workloads::Workload;
use crate::{host, stats};

/// Per-layer metrics that are counts or simulated statistics: they must
/// read the same on two runs of one commit at one seed, and a change
/// that moves one says why.
pub const EXACT: [&str; 16] = [
    "simcore.events",
    "simcore.activations",
    "simcore.peak_queue_depth",
    "simcore.msgs_sent",
    "simcore.bytes_sent",
    "simcore.events_deliver",
    "simcore.events_timer",
    "simcore.shard.windows",
    "overlay.rpcs_per_lookup",
    "overlay.lookup_timeouts",
    "overlay.lookups_completed",
    "overlay.sim_lookup_p50_ms",
    "chain.best_height",
    "chain.stale_rate",
    "core.claims_holding",
    "core.report_bytes",
];

/// Exact only on `kad100k`: one thread allocates, and `KadNode` keeps its
/// state in ordered collections. (`ChainNode`'s `HashMap`s are hashed with a
/// per-process key, which moves `chain_dense`'s counts in the fourth digit.)
pub const EXACT_ON_KAD100K: [&str; 2] = [
    "simcore.alloc_bytes_per_event",
    "simcore.alloc_calls_per_event",
];

/// The exact per-layer metrics of `workload`.
pub fn exact_metrics(workload: Workload) -> Vec<&'static str> {
    let mut names = EXACT.to_vec();
    if workload == Workload::Kad100k {
        names.extend(EXACT_ON_KAD100K);
    }
    names
}

/// What `run` was asked to do.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteConfig {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Seed of every run; `None` = each workload's default seed.
    pub seed: Option<u64>,
    /// Measuring window of each run.
    pub seconds: f64,
    /// Add one traced run per workload.
    pub trace: bool,
}

/// The result line of one child, parsed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: child printed nothing ({})", w.name(), output.status))?;
    let doc = Json::parse(line).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect(),
        _ => return Err(format!("{}: result line has no metrics", w.name())),
    };
    Ok(Child {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && output.status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    })
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

fn summary(m: &MetricSpec, values: &[f64]) -> Json {
    let (min, max) = min_max(values);
    Json::obj([
        ("unit", Json::str(&m.unit)),
        ("median", Json::num(stats::median(values))),
        ("min", Json::num(min)),
        ("max", Json::num(max)),
        ("n", Json::int(values.len() as u64)),
        ("values", Json::arr(values.iter().map(|v| Json::num(*v)))),
    ])
}

/// Runs the suite, prints every metric by name with its unit, and returns
/// the results document and whether every run was correct.
pub fn run(cfg: &SuiteConfig) -> Result<(Json, bool), String> {
    let spec = spec();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for &w in &cfg.workloads {
        let seed = cfg
            .seed
            .unwrap_or_else(|| crate::spec::default_seed(w.name()));
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        let (mut attempted, mut failed) = (0, 0);
        for i in 0..cfg.runs {
            eprintln!("{}: run {} of {}, seed {seed}", w.name(), i + 1, cfg.runs);
            let child = run_child(w, seed, cfg.seconds, false)?;
            all_correct &= child.correct;
            attempted += child.attempted;
            failed += child.failed;
            for (m, vals) in spec.end_to_end.iter().zip(&mut values) {
                let v = child.metrics.iter().find(|(n, _)| *n == m.name);
                vals.push(v.ok_or_else(|| format!("{}: no {}", w.name(), m.name))?.1);
            }
        }
        println!(
            "\n{} ({} runs, {attempted} ops attempted, {failed} failed)",
            w.name(),
            cfg.runs
        );
        for (m, vals) in spec.end_to_end.iter().zip(&values) {
            let (min, max) = min_max(vals);
            println!(
                "  {:<40} {:>16.6} {:<6} (min {min:.6}, max {max:.6}, n {})",
                m.name,
                stats::median(vals),
                m.unit,
                vals.len()
            );
        }
        let mut entry = vec![
            ("workload".to_string(), Json::str(w.name())),
            ("seed".to_string(), Json::int(seed)),
            ("ops_attempted".to_string(), Json::int(attempted)),
            ("ops_failed".to_string(), Json::int(failed)),
            (
                "e2e".to_string(),
                Json::obj(
                    spec.end_to_end
                        .iter()
                        .zip(&values)
                        .map(|(m, vals)| (m.name.clone(), summary(m, vals))),
                ),
            ),
        ];
        if cfg.trace {
            eprintln!("{}: traced run, seed {seed}", w.name());
            let child = run_child(w, seed, cfg.seconds, true)?;
            all_correct &= child.correct;
            for m in &spec.per_layer {
                if let Some((_, v)) = child.metrics.iter().find(|(n, _)| *n == m.name) {
                    println!("  {:<40} {:>16.6} {}", m.name, v, m.unit);
                }
            }
            // Traced median pass time over untraced, minus one.
            let traced = child
                .metrics
                .iter()
                .find(|(n, _)| n == "bench.traced_run_s");
            let run_s = spec.end_to_end.iter().position(|m| m.name == "run_s");
            if let (Some((_, traced)), Some(i)) = (traced, run_s) {
                let share = traced / stats::median(&values[i]) - 1.0;
                println!("  {:<40} {:>16.6} ratio", "trace_overhead_share", share);
                entry.push(("trace_overhead_share".to_string(), Json::num(share)));
            }
            entry.push((
                "layers".to_string(),
                Json::obj(
                    child
                        .metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::num(*v))),
                ),
            ));
        }
        workloads.push(Json::Obj(entry));
    }
    let doc = Json::obj([
        ("schema", Json::str("decent.benchmark-results/1")),
        (
            "host",
            Json::obj([
                ("nproc", Json::int(host::nproc() as u64)),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
            ]),
        ),
        ("seconds", Json::num(cfg.seconds)),
        ("workloads", Json::arr(workloads)),
    ]);
    Ok((doc, all_correct))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_entry<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

fn values_of(entry: &Json, metric: &str) -> Option<Vec<f64>> {
    let vals = entry.get("e2e")?.get(metric)?.get("values")?.as_arr()?;
    vals.iter().map(Json::as_num).collect()
}

/// How one end-to-end metric of one workload compares.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Pass,
    /// B's median is worse than A's by more than the bound, and the runs
    /// are steady enough to say so (or every run of B is worse than every
    /// run of A).
    Regress,
    /// The run-to-run spread is wider than the bound, and the runs of A
    /// and B overlap.
    Unresolved,
}

/// A `setup_s` that differs by less than this passes whatever the ratio:
/// three workloads set up in milliseconds or less, and nobody waits for
/// 20 µs against 30 µs. (An entry of `BENCHMARK.json` has exactly four
/// keys, so the floor lives here.)
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Judges B's runs against A's under `m`'s bound; also returns the share
/// by which B's median is worse (negative = better).
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = m.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let diff = if m.lower_is_better { mb - ma } else { ma - mb };
    let worse = diff / ma;
    let wide = [a, b]
        .iter()
        .any(|v| stats::spread(v).is_some_and(|s| s > bound));
    let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let all_worse = b.iter().all(|&x| a.iter().all(|&y| better(y, x)));
    // A wide spread decides nothing, unless the two sets do not overlap.
    let verdict = if m.name == "setup_s" && diff < SETUP_FLOOR_S {
        Verdict::Pass
    } else if wide && !all_better && !(all_worse && worse > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    (verdict, worse)
}

/// Compares results file B against A; prints one row per workload and
/// end-to-end metric, then the exact counters that differ. Returns
/// whether nothing regressed and every exact counter agrees.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let spec: Spec = spec();
    let (da, db) = (load(a)?, load(b)?);
    let (mut ok, mut unresolved) = (true, 0);
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    for w in Workload::ALL {
        let (ea, eb) = match (workload_entry(&da, w.name()), workload_entry(&db, w.name())) {
            (Some(ea), Some(eb)) => (ea, eb),
            (None, None) => continue,
            (found_a, _) => {
                let lacking = if found_a.is_some() { b } else { a };
                return Err(format!(
                    "{} is in one results file and not in {}",
                    w.name(),
                    lacking.display()
                ));
            }
        };
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (values_of(ea, &m.name), values_of(eb, &m.name)) else {
                return Err(format!(
                    "{}: {} missing from a results file",
                    w.name(),
                    m.name
                ));
            };
            let (verdict, worse) = judge(m, &va, &vb);
            ok &= verdict != Verdict::Regress;
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}% {:>9} {:>9}  {}",
                w.name(),
                m.name,
                stats::median(&va),
                stats::median(&vb),
                worse * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                pct(stats::spread(&va)),
                pct(stats::spread(&vb)),
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "REGRESS",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let same_seed = ea.get("seed") == eb.get("seed");
        if let (Some(la), Some(lb), true) = (ea.get("layers"), eb.get("layers"), same_seed) {
            for name in exact_metrics(w) {
                let (x, y) = (la.get(name), lb.get(name));
                if x != y {
                    ok = false;
                    println!(
                        "{:<16} exact counter {name} differs: {x:?} vs {y:?}",
                        w.name()
                    );
                }
            }
        }
    }
    let verdict = if ok {
        "no regression; exact counters agree"
    } else {
        "REGRESSION or exact counter mismatch"
    };
    println!("{verdict}; {unresolved} unresolved (spread over the bound: not \"unchanged\")");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: "s".to_string(),
            lower_is_better,
            bound: Some(0.25),
        }
    }

    #[test]
    fn a_wide_spread_hides_a_regression_only_while_the_sets_overlap() {
        let run_s = metric("run_s", true);
        // Steady sets: the medians decide.
        assert_eq!(
            judge(&run_s, &[1.0, 1.0, 1.0], &[1.2, 1.2, 1.2]).0,
            Verdict::Pass
        );
        assert_eq!(
            judge(&run_s, &[1.0, 1.0, 1.0], &[1.3, 1.3, 1.3]).0,
            Verdict::Regress
        );
        // B spreads by more than the bound and overlaps A.
        assert_eq!(
            judge(&run_s, &[1.0, 1.1, 1.2], &[1.1, 2.0, 3.0]).0,
            Verdict::Unresolved
        );
        // Every run of B is worse than every run of A, by many times the bound.
        assert_eq!(
            judge(&run_s, &[1.0, 1.1, 1.2], &[5.0, 9.0, 13.0]).0,
            Verdict::Regress
        );
        // ... or better: the mirror image passes.
        assert_eq!(
            judge(&run_s, &[5.0, 9.0, 13.0], &[1.0, 1.1, 1.2]).0,
            Verdict::Pass
        );
        // Higher is better: the same rule the other way round.
        let rate = metric("events_per_s", false);
        assert_eq!(
            judge(&rate, &[50.0, 90.0, 130.0], &[10.0, 11.0, 12.0]).0,
            Verdict::Regress
        );
        assert_eq!(
            judge(&rate, &[10.0, 11.0, 12.0], &[50.0, 90.0, 130.0]).0,
            Verdict::Pass
        );
    }

    #[test]
    fn a_setup_that_differs_by_microseconds_passes() {
        let setup_s = metric("setup_s", true);
        // 19 µs against 30 µs is +58 %, and under the floor.
        let (verdict, worse) = judge(&setup_s, &[19e-6, 18e-6, 27e-6], &[30e-6, 29e-6, 31e-6]);
        assert_eq!(verdict, Verdict::Pass);
        assert!(worse > 0.5);
        // 2.5 s against 3.5 s is not.
        assert_eq!(
            judge(&setup_s, &[2.5, 2.5, 2.5], &[3.5, 3.5, 3.5]).0,
            Verdict::Regress
        );
        // The floor is for set-up only.
        let run_s = metric("run_s", true);
        assert_eq!(
            judge(&run_s, &[0.01, 0.01, 0.01], &[0.02, 0.02, 0.02]).0,
            Verdict::Regress
        );
    }
}

//! `repro_quick` and `repro_quick_s2`: all 19 experiments at quick scale,
//! run and rendered, with every simulation serial or on two shards.
//!
//! This is what a developer and CI wait for, it calls every crate (`bft`
//! and `edge` only here, through E12, E13 and E19), and it has a committed
//! oracle in `baselines/claims_quick.json`. One pass is one full report.
//!
//! `--seed 0` means each experiment's built-in seed: the configuration
//! tier-1 pins, at which all 55 claims must hold. Any other seed
//! overrides every experiment's seed; a claim may then fail to hold, and
//! that is an output, not a failed operation.

use decent_core::experiments::run_report_exec;
use decent_core::report::{diff_verdicts, verdicts_from_json, RunReport};
use decent_core::scenario::{self, ExecPolicy};
use decent_sim::json::Json;

use super::{measure_setups, shared_e2e, PassClock, RunConfig};
use crate::outcome::Outcome;
use crate::span::Tracer;

const BASELINE_JSON: &str = include_str!("../../../baselines/claims_quick.json");

/// 64-bit FNV-1a of `text`, as 16 hex digits.
fn fnv1a(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// One rendered report.
struct Pass {
    report: RunReport,
    text: String,
    run_s: f64,
    render_s: f64,
}

fn pass(ids: &[&str], seed: Option<u64>, exec: ExecPolicy, t: &mut Tracer) -> Pass {
    let (report, run_s) = t.span("core.run_report_exec", |_| {
        run_report_exec(ids, true, seed, 1, exec)
    });
    let (text, render_s) = t.span("core.render", |_| {
        let text = report.to_json_text();
        std::hint::black_box(report.claims_markdown());
        text
    });
    Pass {
        report,
        text,
        run_s,
        render_s,
    }
}

/// Simulated events of a report: `events_fired` over its experiments.
fn events(report: &RunReport) -> u64 {
    report
        .runs
        .iter()
        .map(|r| r.report.metrics.counter("events_fired"))
        .sum()
}

/// Runs the workload with every simulation on `shards` shards (1 = serial).
pub fn run(cfg: &RunConfig, shards: usize, t: &mut Tracer, out: &mut Outcome) {
    let registry = scenario::ids();
    let ids: Vec<&str> = match &cfg.sizes.experiments {
        Some(ids) => ids.iter().map(String::as_str).collect(),
        None => registry.clone(),
    };
    let seed = (cfg.seed != 0).then_some(cfg.seed);
    let exec = if shards > 1 {
        ExecPolicy::sharded(shards)
    } else {
        ExecPolicy::serial()
    };

    // What happens before the first experiment starts: the registry is
    // listed, every id is checked by building its scenario (as
    // `run_report_exec` itself does), the oracle is parsed.
    let (baseline, setup_s) = measure_setups(
        t,
        |t, _| {
            t.span("core.scenario.build", |_| {
                for id in scenario::ids() {
                    std::hint::black_box(scenario::build(id, true));
                }
            });
            t.span("core.verdicts_from_json", |_| {
                let doc = Json::parse(BASELINE_JSON).expect("committed baseline parses");
                verdicts_from_json(&doc).expect("committed baseline has verdicts")
            })
            .0
        },
        |_, verdicts| drop(verdicts),
    );

    let mut first: Option<Pass> = None;
    let (mut run_s, mut render_s) = (0.0, 0.0);
    let mut exp_s = vec![0.0; ids.len()];
    let mut clock = PassClock::new(1, cfg.seconds);
    while clock.more() {
        clock.pass(t, |t| {
            let p = pass(&ids, seed, exec, t);
            run_s += p.run_s;
            render_s += p.render_s;
            for (sum, r) in exp_s.iter_mut().zip(&p.report.runs) {
                *sum += r.wall_ms / 1e3;
            }
            let holding = p.report.verdicts().iter().filter(|v| v.holds).count() as u64;
            let claims = p.report.total_claims() as u64;
            // Only at the built-in seeds is a claim that does not hold a failure.
            let failed = if seed.is_none() { claims - holding } else { 0 };
            out.ops(claims, failed, "claims do not hold at the built-in seeds");
            let ev = events(&p.report);
            match &first {
                Some(f) => out.check(f.text == p.text, || {
                    "two passes of one run rendered different reports".to_string()
                }),
                None => first = Some(p),
            }
            ev
        });
    }
    let passes = clock.finish();
    let first = first.expect("at least one pass ran");
    let n = passes.secs.len() as f64;

    out.check(first.report.runs.len() == ids.len(), || {
        format!(
            "{} experiments asked for, {} reported",
            ids.len(),
            first.report.runs.len()
        )
    });
    let reparsed = Json::parse(&first.text)
        .map_err(|e| e.to_string())
        .and_then(|doc| verdicts_from_json(&doc));
    out.check(reparsed.as_ref() == Ok(&first.report.verdicts()), || {
        "the rendered report does not parse back to the run's verdicts".to_string()
    });
    if seed.is_none() && cfg.sizes.experiments.is_none() {
        let diff = diff_verdicts(&first.report.verdicts(), &baseline);
        out.check(diff.is_empty(), || {
            format!("verdicts differ from baselines/claims_quick.json: {diff:?}")
        });
    }
    if let Some(want) = cfg.expectation("report_fnv1a").and_then(Json::as_str) {
        let got = fnv1a(&first.text);
        out.check(got == want, || {
            format!("report_fnv1a: expected {want}, got {got}")
        });
    }
    cfg.check_expected(out, "claims", first.report.total_claims() as u64);

    shared_e2e(out, &setup_s, &passes);
    if t.enabled() && shards > 1 {
        // One serial pass in the same process: the base of the speed-up,
        // and the check that sharding changes no byte of the report.
        let (serial, s) = t.span("serial_reference", |t| {
            pass(&ids, seed, ExecPolicy::serial(), t)
        });
        out.check(serial.text == first.text, || {
            format!(
                "serial report {} differs from sharded report {}",
                fnv1a(&serial.text),
                fnv1a(&first.text)
            )
        });
        out.layer("simcore.shard.serial_run_s", s);
        out.layer("simcore.shard.speedup", s / (passes.total_s() / n));
    }
    out.layer("core.run_s", run_s / n);
    out.layer("core.render_s", render_s / n);
    for (id, sum) in ids.iter().zip(&exp_s) {
        // Only registry ids have a metric of their own.
        if registry.contains(id) {
            out.layer(&format!("core.exp.{id}_s"), sum / n);
        }
    }
    out.layer(
        "core.claims_holding",
        first.report.verdicts().iter().filter(|v| v.holds).count() as f64,
    );
    out.layer("core.report_bytes", first.text.len() as f64);
}

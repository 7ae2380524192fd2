//! Every workload at toy size: names cannot drift from `BENCHMARK.json`,
//! exact counters repeat, the trace adds up, a wrong expectation fails.

use std::collections::BTreeSet;

use decent_benchmark::outcome::Outcome;
use decent_benchmark::span::Tracer;
use decent_benchmark::spec::spec;
use decent_benchmark::suite::exact_metrics;
use decent_benchmark::workloads::{self, RunConfig, Sizes, Workload};
use decent_sim::json::Json;

/// One run without the layer probes, which cost seconds and are the
/// same in every traced run. The allocation counters are one per process
/// and the tests of one binary run on parallel threads: runs take turns.
fn run(cfg: &RunConfig) -> (Outcome, Tracer) {
    run_with(cfg, |cfg| {
        let mut t = Tracer::new(cfg.trace);
        let mut out = Outcome::default();
        t.span("run", |t| workloads::run(cfg, t, &mut out));
        (out, t)
    })
}

fn run_with(cfg: &RunConfig, f: impl FnOnce(&RunConfig) -> (Outcome, Tracer)) -> (Outcome, Tracer) {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that panicked while holding the lock left nothing half-done.
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    f(cfg)
}

/// A configuration small enough that all six run in a few seconds.
fn toy(w: Workload, trace: bool) -> RunConfig {
    let sizes = match w {
        Workload::Kad100k | Workload::Kad100kS2 => Sizes {
            nodes: Some(400),
            lookups: Some(40),
            horizon_s: Some(60.0),
            ..Sizes::default()
        },
        Workload::ChainDense => Sizes {
            nodes: Some(40),
            horizon_s: Some(3_000.0),
            ..Sizes::default()
        },
        Workload::ReproQuick | Workload::ReproQuickS2 => Sizes {
            experiments: Some(vec!["E5".to_string(), "E10".to_string()]),
            ..Sizes::default()
        },
        Workload::WireKad => Sizes {
            nodes: Some(4),
            lookups: Some(3),
            ..Sizes::default()
        },
    };
    RunConfig {
        workload: w,
        seed: 7,
        // No window: only the passes that always run.
        seconds: 0.0,
        trace,
        sizes,
        expected: Json::Null,
    }
}

#[test]
fn every_metric_of_benchmark_json_is_emitted_and_nothing_else() {
    let spec = spec();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names, "workload names drifted");
    let declared: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    let mut emitted = BTreeSet::new();
    for w in Workload::ALL {
        // The sharded Kademlia run is the traced one: it alone adds the
        // serial reference, and one traced run is enough for the probes.
        let traced = w == Workload::Kad100kS2;
        let (out, tracer) = if traced {
            run_with(&toy(w, true), decent_benchmark::run)
        } else {
            run(&toy(w, false))
        };
        if traced {
            // The probes are spans of the same tree.
            let spans = tracer.spans();
            assert!(spans.iter().any(|s| s.name == "probes"));
            assert_eq!(tracer.self_ns().iter().sum::<u64>(), spans[0].dur_ns());
        }
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        assert!(out.attempted >= 1);
        // Panics if an end-to-end metric is missing.
        let line = out.result_json(&spec, false);
        for m in &spec.end_to_end {
            let v = line
                .get("metrics")
                .and_then(|ms| ms.get(&m.name)?.get("value")?.as_num());
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{}: {} = {v:?}",
                w.name(),
                m.name
            );
        }
        for (name, _) in &out.layers {
            assert!(
                declared.contains(name.as_str()),
                "{}: {name} is not in BENCHMARK.json",
                w.name()
            );
            emitted.insert(name.clone());
        }
    }
    // The toy report runs two experiments; every registered one has its metric.
    emitted.extend(
        decent_core::scenario::ids()
            .iter()
            .map(|id| format!("core.exp.{id}_s")),
    );
    let emitted: BTreeSet<&str> = emitted.iter().map(String::as_str).collect();
    assert_eq!(
        declared, emitted,
        "BENCHMARK.json and the program name different layers"
    );
}

#[test]
fn exact_counters_repeat() {
    for w in [
        Workload::Kad100k,
        Workload::Kad100kS2,
        Workload::ChainDense,
        Workload::ReproQuickS2,
    ] {
        let (a, _) = run(&toy(w, true));
        let (b, _) = run(&toy(w, true));
        for name in exact_metrics(w) {
            assert_eq!(
                a.layer_value(name),
                b.layer_value(name),
                "{}: {name}",
                w.name()
            );
        }
        assert!(
            a.layer_value("simcore.events")
                .or(a.layer_value("core.report_bytes"))
                > Some(0.0)
        );
    }
}

#[test]
fn self_times_sum_to_the_root_span() {
    let (_, tracer) = run(&toy(Workload::ChainDense, true));
    let spans = tracer.spans();
    assert_eq!(spans[0].name, "run");
    assert!(spans[0].parent.is_none());
    assert!(spans.iter().skip(1).all(|s| s.parent.is_some()));
    assert_eq!(tracer.self_ns().iter().sum::<u64>(), spans[0].dur_ns());
    assert!(spans.iter().any(|s| s.name == "pass" && s.pass == Some(0)));
    // Untraced, the same run keeps no spans.
    assert!(run(&toy(Workload::ChainDense, false)).1.spans().is_empty());
}

#[test]
fn a_wrong_expectation_is_a_failed_operation() {
    let mut cfg = toy(Workload::ChainDense, false);
    let (good, _) = run(&cfg);
    assert!(good.correct());
    cfg.expected = Json::obj([("seed", Json::int(7)), ("simcore.events", Json::int(1))]);
    let (bad, _) = run(&cfg);
    assert!(!bad.correct());
    assert_eq!(bad.failed, 1);
    assert_eq!(bad.attempted, good.attempted + 1);
    assert!(
        bad.failures[0].contains("simcore.events"),
        "{:?}",
        bad.failures
    );
    // At another seed the expectation does not apply.
    cfg.seed = 8;
    assert!(run(&cfg).0.correct());
}

//! Registry-level guarantees of the `Scenario` trait surface: the
//! listing can't drift from the reports, and the quick configurations
//! stay inside the CI time budget the workflow relies on.

use std::time::{Duration, Instant};

use decent::core::scenario;

/// `repro --list` derives its lines from `Scenario::description`; the
/// report headers carry `ExperimentReport::title`. Both must be the
/// same string — the trait contract says they share one `TITLE` const
/// per module, and this pins it for the cheap trio without paying for
/// a full suite run (the budget test below covers the rest).
#[test]
fn listing_descriptions_match_report_titles() {
    for id in ["E10", "E16", "E18"] {
        let s = scenario::build(id, true).expect("registered id");
        let report = s.run();
        assert_eq!(report.id, s.id());
        assert_eq!(
            report.title,
            s.description(),
            "{id}: --list line and report header diverged"
        );
    }
}

/// Every quick config must run inside the CI budget. The whole
/// registry finishes in well under a minute unoptimized today; the
/// generous ceilings catch a quick config accidentally promoted to
/// paper scale (those run minutes to hours) without flaking on a slow
/// runner. Piggybacks the full pass to check title/description
/// equality for every experiment, not just the cheap trio.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "CI wall-clock budget check; timings are asserted against, never serialized"
)]
fn quick_configs_run_under_ci_budget() {
    const PER_EXPERIMENT: Duration = Duration::from_secs(120);
    const TOTAL: Duration = Duration::from_secs(300);
    let start = Instant::now();
    for s in scenario::all(true) {
        let t = Instant::now();
        let report = s.run();
        let elapsed = t.elapsed();
        assert!(
            elapsed < PER_EXPERIMENT,
            "{} quick config took {elapsed:?} (budget {PER_EXPERIMENT:?})",
            s.id()
        );
        assert_eq!(report.title, s.description(), "{}", s.id());
        assert!(
            !report.findings.is_empty(),
            "{} must check at least one claim",
            s.id()
        );
    }
    let total = start.elapsed();
    assert!(
        total < TOTAL,
        "quick registry pass took {total:?} (budget {TOTAL:?})"
    );
}

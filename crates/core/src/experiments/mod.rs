//! One experiment per quantitative claim of the paper (see
//! [`crate::claims`] for the mapping), and the runner that turns a
//! list of ids into a [`RunReport`].
//!
//! Every `eNN` module declares its experiment once, as an
//! [`Experiment`](crate::scenario::Experiment) implementation on its
//! `Config` (`Default` = paper scale, `quick()` = CI scale); the
//! [`crate::scenario`] registry names each module on one line and
//! everything else — listing, dispatch, seeding, sweeps — derives from
//! those two places. To run one experiment, `scenario::build(id,
//! quick)` it and call `run()`; to run several and collect the
//! machine-readable report, use [`run_report`].

pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;

use std::time::Instant;

use decent_sim::sweep::sweep_with;

use crate::report::{ExperimentRun, RunReport};
use crate::scenario::{self, ExecPolicy, Scenario};

/// Runs the given experiments across `jobs` worker threads and collects
/// a [`RunReport`].
///
/// Each experiment builds its own `Simulation`s from its own config, so
/// experiments share no mutable state and the fan-out cannot perturb
/// results: output order follows `ids` (not completion order) and every
/// per-experiment trace is bit-identical to a serial run. `jobs = 1`
/// *is* the serial run — same code path, same report bytes.
///
/// `seed = None` keeps each experiment's built-in config seed (the
/// reproducible default); E10 has no RNG, so an override is a no-op
/// there.
///
/// # Panics
///
/// Panics on an unknown id (callers validate ids against
/// [`scenario::ids`] first) or `jobs == 0`.
pub fn run_report(ids: &[&str], quick: bool, seed: Option<u64>, jobs: usize) -> RunReport {
    run_report_exec(ids, quick, seed, jobs, ExecPolicy::serial())
}

/// [`run_report`] with an execution policy for each experiment's inner
/// simulations: each experiment runs inside `exec`, entered on the
/// thread that runs it. Sharding composes with the experiment-level
/// fan-out: `jobs` picks how many experiments run at once, `exec` picks
/// how many worker threads each simulation uses, and neither knob
/// changes a byte of the report.
///
/// # Panics
///
/// Panics on an unknown id or `jobs == 0`, as [`run_report`].
pub fn run_report_exec(
    ids: &[&str],
    quick: bool,
    seed: Option<u64>,
    jobs: usize,
    exec: ExecPolicy,
) -> RunReport {
    let scenarios: Vec<Box<dyn Scenario>> = ids
        .iter()
        .map(|id| {
            scenario::configure(id, quick, seed)
                .unwrap_or_else(|| panic!("unknown experiment id {id}"))
        })
        .collect();
    let runs = sweep_with(&scenarios, jobs, |s| {
        let _scope = exec.enter();
        #[expect(
            clippy::disallowed_methods,
            reason = "harness-only wall_ms measurement; excluded from the canonical report JSON (tests/run_report.rs pins this)"
        )]
        let t0 = Instant::now();
        let report = s.run();
        ExperimentRun {
            report,
            seed,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    });
    RunReport {
        mode: if quick { "quick" } else { "full" }.to_string(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown experiment id E99")]
    fn unknown_id_panics_before_anything_runs() {
        run_report(&["E10", "E99"], true, None, 1);
    }

    #[test]
    fn run_report_matches_registry_run() {
        let direct = run_report(&["E10"], true, None, 1);
        let via_registry = scenario::build("E10", true).expect("known id").run();
        assert_eq!(
            format!("{}", direct.runs[0].report),
            format!("{via_registry}")
        );
    }
}

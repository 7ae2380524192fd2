//! Sweep-driven sensitivity analysis: how robust is each claim to the
//! knob you doubt?
//!
//! A point run ([`crate::experiments::run_report`]) answers "does the
//! claim hold at the paper's parameters". This module answers the next
//! question a skeptical reader asks: *would it still hold if churn were
//! faster, the selfish pool smaller, the partition wider?* It takes a
//! (scenario, parameter, grid) triple — parsed from the CLI syntax
//! `EXP:param=lo..hi:steps` by [`SweepSpec::parse`] — fans the grid out
//! via [`decent_sim::sweep::sweep_with`], and folds the per-point
//! reports into per-claim **robustness curves**: the claim's headline
//! value and verdict at every grid point, plus the *crossover
//! intervals* where the verdict flips between adjacent points.
//!
//! Determinism: grid point `i` derives its seed as
//! [`point_seed`]`(base, i)`, where `base` is the `--seed` override or
//! the scenario's built-in seed. `point_seed(base, 0) == base`, so a
//! one-point sweep reproduces the plain run byte-for-byte, and the
//! JSON document ([`SweepReport::to_json_text`]) contains no
//! wall-clock, so serial and `--jobs N` sweeps are byte-identical.

use decent_sim::json::Json;
use decent_sim::sweep::{grid, sweep_with};

use crate::report::ExperimentReport;
use crate::scenario;

/// Version tag of the sweep-report JSON schema.
pub const SWEEP_REPORT_SCHEMA: &str = "decent.sweep-report/1";

/// The largest grid edge magnitude [`SweepSpec::parse`] accepts: 2^53,
/// the last point up to which an `f64` holds every integer.
const MAX_GRID_EDGE: f64 = 9_007_199_254_740_992.0;

/// The most grid points [`SweepSpec::parse`] accepts.
const MAX_SWEEP_STEPS: usize = 10_000;

/// A parsed sweep request: which experiment, which knob, what grid.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Experiment id (as given; resolved case-insensitively).
    pub exp: String,
    /// Parameter name (must be in the scenario's param map).
    pub param: String,
    /// Grid lower edge.
    pub lo: f64,
    /// Grid upper edge.
    pub hi: f64,
    /// Number of grid points (>= 1, evenly spaced, inclusive).
    pub steps: usize,
}

impl SweepSpec {
    /// Parses the CLI sweep syntax `EXP:param=lo..hi:steps`, e.g.
    /// `E19:partition_frac=0.1..0.5:3`.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let usage = "expected EXP:param=lo..hi:steps (e.g. E19:partition_frac=0.1..0.5:3)";
        let (exp, rest) = text.split_once(':').ok_or_else(|| usage.to_string())?;
        let (assign, steps) = rest.rsplit_once(':').ok_or_else(|| usage.to_string())?;
        let (param, range) = assign.split_once('=').ok_or_else(|| usage.to_string())?;
        let (lo, hi) = range.split_once("..").ok_or_else(|| usage.to_string())?;
        if exp.is_empty() || param.is_empty() {
            return Err(usage.to_string());
        }
        let lo: f64 = lo
            .parse()
            .map_err(|_| format!("bad grid lower edge {lo:?}: {usage}"))?;
        let hi: f64 = hi
            .parse()
            .map_err(|_| format!("bad grid upper edge {hi:?}: {usage}"))?;
        if !lo.is_finite() || !hi.is_finite() {
            return Err("grid edges must be finite".to_string());
        }
        // Past 2^53 an f64 skips integers, and a setter that saturates a
        // count to `usize::MAX` crashes the run instead of rejecting it.
        for edge in [lo, hi] {
            if edge.abs() > MAX_GRID_EDGE {
                return Err(format!(
                    "grid edge {edge} is beyond ±2^53 ({MAX_GRID_EDGE}), \
                     where an f64 no longer holds every integer: {usage}"
                ));
            }
        }
        if hi < lo {
            return Err(format!("grid upper edge {hi} is below lower edge {lo}"));
        }
        let steps: usize = steps
            .parse()
            .map_err(|_| format!("bad step count {steps:?}: {usage}"))?;
        if steps == 0 {
            return Err("a sweep needs at least one grid point".to_string());
        }
        if steps > MAX_SWEEP_STEPS {
            return Err(format!(
                "{steps} grid points is above the limit of {MAX_SWEEP_STEPS}: {usage}"
            ));
        }
        Ok(SweepSpec {
            exp: exp.to_string(),
            param: param.to_string(),
            lo,
            hi,
            steps,
        })
    }
}

/// The seed for grid point `i`, derived from the base seed so every
/// point gets an independent stream while point 0 keeps the base seed
/// exactly (a one-point sweep *is* the plain run).
pub fn point_seed(base: u64, i: usize) -> u64 {
    base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One grid point of a sweep: the parameter value that was applied and
/// the full experiment report measured there.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The grid value requested for the parameter.
    pub requested: f64,
    /// The value actually in effect after the setter's rounding or
    /// clamping (read back through the param map).
    pub applied: f64,
    /// The seed the point ran with (`None` for seedless scenarios).
    pub seed: Option<u64>,
    /// The experiment report at this point.
    pub report: ExperimentReport,
}

/// One claim's trajectory across the grid.
#[derive(Clone, Debug, PartialEq)]
pub struct CurvePoint {
    /// Applied parameter value at this grid point.
    pub param: f64,
    /// The claim's headline measured value there.
    pub value: f64,
    /// Whether the claim held there.
    pub holds: bool,
}

/// A verdict flip between two adjacent grid points: somewhere in
/// `(lo, hi]` the claim crosses from `from` to `to`.
#[derive(Clone, Debug, PartialEq)]
pub struct Crossover {
    /// Applied parameter value on the left of the flip.
    pub lo: f64,
    /// Applied parameter value on the right of the flip.
    pub hi: f64,
    /// Verdict at `lo`.
    pub from: bool,
    /// Verdict at `hi`.
    pub to: bool,
}

/// A per-claim robustness curve: verdict + headline value at every grid
/// point, and the crossover intervals where the verdict flips.
#[derive(Clone, Debug, PartialEq)]
pub struct RobustnessCurve {
    /// Stable claim-check id (e.g. `"E19.pbft-stalls-in-minority"`).
    pub claim: String,
    /// One point per grid point, in grid order.
    pub points: Vec<CurvePoint>,
    /// Verdict flips between adjacent grid points (empty = the claim is
    /// robust across the whole grid).
    pub crossovers: Vec<Crossover>,
}

impl RobustnessCurve {
    fn from_points(claim: &str, points: &[SweepPoint]) -> RobustnessCurve {
        let pts: Vec<CurvePoint> = points
            .iter()
            .filter_map(|p| {
                p.report
                    .findings
                    .iter()
                    .find(|f| f.claim == claim)
                    .map(|f| CurvePoint {
                        param: p.applied,
                        value: f.value,
                        holds: f.holds,
                    })
            })
            .collect();
        let crossovers = pts
            .windows(2)
            .filter(|w| w[0].holds != w[1].holds)
            .map(|w| Crossover {
                lo: w[0].param,
                hi: w[1].param,
                from: w[0].holds,
                to: w[1].holds,
            })
            .collect();
        RobustnessCurve {
            claim: claim.to_string(),
            points: pts,
            crossovers,
        }
    }
}

/// The result of one sweep: every grid point's report plus the folded
/// per-claim robustness curves.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Experiment id (registry form, e.g. `"E19"`).
    pub exp: &'static str,
    /// Experiment title.
    pub title: &'static str,
    /// The swept parameter's name.
    pub param: String,
    /// The parameter's help text from the param map.
    pub param_help: String,
    /// The spec the sweep ran (grid edges and step count).
    pub spec: SweepSpec,
    /// The `--seed` override, if any (`None` = built-in config seed).
    pub seed_override: Option<u64>,
    /// Per-grid-point results, in grid order.
    pub points: Vec<SweepPoint>,
    /// Per-claim robustness curves, in first-report claim order.
    pub curves: Vec<RobustnessCurve>,
}

impl SweepReport {
    /// True when every claim holds at every grid point.
    pub fn all_hold(&self) -> bool {
        self.points.iter().all(|p| p.report.all_hold())
    }

    /// Claims whose verdict flips somewhere on the grid.
    pub fn flipping_claims(&self) -> Vec<&RobustnessCurve> {
        self.curves
            .iter()
            .filter(|c| !c.crossovers.is_empty())
            .collect()
    }

    /// The canonical JSON document (deterministic; no wall-clock).
    ///
    /// Seeds are serialized as decimal *strings*: derived point seeds
    /// use the full `u64` range, which JSON `f64` numbers cannot
    /// represent exactly past 2^53.
    pub fn to_json(&self) -> Json {
        let seed = match self.seed_override {
            Some(s) => Json::str(s.to_string()),
            None => Json::Null,
        };
        Json::obj([
            ("schema", Json::str(SWEEP_REPORT_SCHEMA)),
            ("mode", Json::str(&self.mode)),
            ("experiment", Json::str(self.exp)),
            ("title", Json::str(self.title)),
            (
                "param",
                Json::obj([
                    ("name", Json::str(&self.param)),
                    ("help", Json::str(&self.param_help)),
                    ("lo", Json::num(self.spec.lo)),
                    ("hi", Json::num(self.spec.hi)),
                    ("steps", Json::int(self.spec.steps as u64)),
                ]),
            ),
            ("seed_override", seed),
            (
                "points",
                Json::arr(self.points.iter().map(|p| {
                    let seed = match p.seed {
                        Some(s) => Json::str(s.to_string()),
                        None => Json::Null,
                    };
                    Json::obj([
                        ("requested", Json::num(p.requested)),
                        ("applied", Json::num(p.applied)),
                        ("seed", seed),
                        (
                            "claims",
                            Json::arr(p.report.findings.iter().map(|f| {
                                Json::obj([
                                    ("id", Json::str(&f.claim)),
                                    ("measured", Json::str(&f.measured)),
                                    ("value", Json::num(f.value)),
                                    ("holds", Json::Bool(f.holds)),
                                ])
                            })),
                        ),
                        ("holds", Json::Bool(p.report.all_hold())),
                    ])
                })),
            ),
            (
                "curves",
                Json::arr(self.curves.iter().map(|c| {
                    Json::obj([
                        ("claim", Json::str(&c.claim)),
                        (
                            "points",
                            Json::arr(c.points.iter().map(|p| {
                                Json::obj([
                                    ("param", Json::num(p.param)),
                                    ("value", Json::num(p.value)),
                                    ("holds", Json::Bool(p.holds)),
                                ])
                            })),
                        ),
                        (
                            "crossovers",
                            Json::arr(c.crossovers.iter().map(|x| {
                                Json::obj([
                                    ("lo", Json::num(x.lo)),
                                    ("hi", Json::num(x.hi)),
                                    ("from", Json::Bool(x.from)),
                                    ("to", Json::Bool(x.to)),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
            (
                "summary",
                Json::obj([
                    ("points", Json::int(self.points.len() as u64)),
                    ("claims", Json::int(self.curves.len() as u64)),
                    ("flipping", Json::int(self.flipping_claims().len() as u64)),
                ]),
            ),
        ])
    }

    /// The pretty-printed canonical JSON text.
    pub fn to_json_text(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Claims that fail at every grid point: no value on the grid
    /// rescues them, so they have no crossover either.
    fn failing_everywhere(&self) -> Vec<&RobustnessCurve> {
        self.curves
            .iter()
            .filter(|c| !c.points.is_empty() && c.points.iter().all(|p| !p.holds))
            .collect()
    }

    /// A human-readable robustness summary as markdown. A row whose
    /// setter changed the grid value reads `requested → applied`.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## Sensitivity: {} — {} over {} = {}..{} ({} points, {} mode)\n\n",
            self.exp,
            self.title,
            self.param,
            self.spec.lo,
            self.spec.hi,
            self.spec.steps,
            self.mode
        );
        out.push_str(&format!(
            "| {} | all claims hold | failing claims |\n",
            self.param
        ));
        out.push_str("|---|---|---|\n");
        for p in &self.points {
            let failing: Vec<&str> = p
                .report
                .findings
                .iter()
                .filter(|f| !f.holds)
                .map(|f| f.claim.as_str())
                .collect();
            let value = if p.applied == p.requested {
                p.applied.to_string()
            } else {
                format!("{} → {}", p.requested, p.applied)
            };
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                value,
                if failing.is_empty() { "yes" } else { "**no**" },
                if failing.is_empty() {
                    "—".to_string()
                } else {
                    failing.join(", ")
                }
            ));
        }
        out.push('\n');
        let flipping = self.flipping_claims();
        let failing = self.failing_everywhere();
        if flipping.is_empty() && failing.is_empty() {
            out.push_str(&format!(
                "Every claim keeps its verdict across the whole {} grid — robust.\n",
                self.param
            ));
        }
        if !failing.is_empty() {
            let ids: Vec<String> = failing.iter().map(|c| format!("`{}`", c.claim)).collect();
            out.push_str(&format!(
                "Failing at every point of the {} grid: {}.\n",
                self.param,
                ids.join(", ")
            ));
        }
        if !flipping.is_empty() {
            out.push_str("### Verdict crossovers\n\n");
            for c in flipping {
                for x in &c.crossovers {
                    out.push_str(&format!(
                        "- `{}` flips from holds={} to holds={} between {} = {} and {}\n",
                        c.claim, x.from, x.to, self.param, x.lo, x.hi
                    ));
                }
            }
        }
        out
    }
}

/// Runs a sweep: validates the spec against the scenario registry and
/// its param map, fans the grid across `jobs` threads, and folds the
/// robustness curves.
///
/// `seed` is the CLI `--seed` override; `None` keeps the scenario's
/// built-in seed as the base. Either way point `i` runs at
/// [`point_seed`]`(base, i)`. Seedless scenarios (E10) run every point
/// unseeded — their curve still varies through the parameter itself.
/// Every grid point runs inside `exec`; shards compose with `jobs` and
/// change nothing in the sweep output.
pub fn run_sweep(
    spec: &SweepSpec,
    quick: bool,
    seed: Option<u64>,
    jobs: usize,
    exec: scenario::ExecPolicy,
) -> Result<SweepReport, String> {
    if jobs == 0 {
        return Err("jobs must be >= 1".to_string());
    }
    // Validate id + param once, up front, with good error messages.
    let probe = scenario::build(&spec.exp, quick).ok_or_else(|| {
        format!(
            "unknown experiment {} (known: {})",
            spec.exp,
            scenario::ids().join(", ")
        )
    })?;
    if probe.get_param(&spec.param).is_none() {
        let known: Vec<&str> = probe.params().iter().map(|p| p.name).collect();
        return Err(if known.is_empty() {
            format!("experiment {} has no sweepable parameters", probe.id())
        } else {
            format!(
                "unknown parameter {} for {} (sweepable: {})",
                spec.param,
                probe.id(),
                known.join(", ")
            )
        });
    }
    let exp = probe.id();
    let title = probe.description();
    let param_help = probe
        .params()
        .iter()
        .find(|p| p.name == spec.param)
        .map(|p| p.help.to_string())
        .unwrap_or_default();
    let base_seed = seed.or_else(|| probe.seed());

    let values = grid(spec.lo, spec.hi, spec.steps);
    let indexed: Vec<(usize, f64)> = values.into_iter().enumerate().collect();
    let points = sweep_with(&indexed, jobs, |&(i, requested)| {
        let _scope = exec.enter();
        let seed = base_seed.map(|base| point_seed(base, i));
        let mut s = scenario::configure(&spec.exp, quick, seed).expect("id validated above");
        s.set_param(&spec.param, requested)
            .expect("param validated above");
        let applied = s.get_param(&spec.param).expect("param validated above");
        SweepPoint {
            requested,
            applied,
            seed: s.seed(),
            report: s.run(),
        }
    });

    let claim_ids: Vec<String> = points
        .first()
        .map(|p| p.report.findings.iter().map(|f| f.claim.clone()).collect())
        .unwrap_or_default();
    let curves = claim_ids
        .iter()
        .map(|c| RobustnessCurve::from_points(c, &points))
        .collect();
    Ok(SweepReport {
        mode: if quick { "quick" } else { "full" }.to_string(),
        exp,
        title,
        param: spec.param.clone(),
        param_help,
        spec: spec.clone(),
        seed_override: seed,
        points,
        curves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ExecPolicy;

    #[test]
    fn spec_parses_the_cli_syntax() {
        let s = SweepSpec::parse("E19:partition_frac=0.1..0.5:3").unwrap();
        assert_eq!(
            s,
            SweepSpec {
                exp: "E19".to_string(),
                param: "partition_frac".to_string(),
                lo: 0.1,
                hi: 0.5,
                steps: 3,
            }
        );
        let s = SweepSpec::parse("e4:session_mins=5..240:4").unwrap();
        assert_eq!(s.exp, "e4");
        assert_eq!(s.lo, 5.0);
        assert_eq!(s.hi, 240.0);
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for bad in [
            "",
            "E19",
            "E19:frac",
            "E19:frac=1..2",
            "E19:frac=..:3",
            "E19:frac=2..1:3",
            "E19:frac=1..2:0",
            "E19:frac=a..b:3",
            ":x=1..2:3",
            "E19:=1..2:3",
        ] {
            assert!(SweepSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn spec_rejects_edges_beyond_2_pow_53() {
        for bad in [
            "E2:nodes=1e30..1e31:2",
            "E2:nodes=1..1e16:2",
            "E2:nodes=-1e16..1:2",
            "E2:nodes=9007199254740994..9007199254740994:1",
        ] {
            let err = SweepSpec::parse(bad).unwrap_err();
            assert!(
                err.contains("2^53") && err.contains("expected EXP:"),
                "{bad:?}: {err}"
            );
        }
        // 2^53 itself, and its negation, are still exact.
        let s = SweepSpec::parse("E2:nodes=-9007199254740992..9007199254740992:2").unwrap();
        assert_eq!((s.lo, s.hi), (-MAX_GRID_EDGE, MAX_GRID_EDGE));
    }

    #[test]
    fn spec_rejects_more_than_ten_thousand_points() {
        for bad in ["E2:nodes=1..1:100000000000", "E2:nodes=1..2:10001"] {
            let err = SweepSpec::parse(bad).unwrap_err();
            assert!(
                err.contains("above the limit of 10000") && err.contains("expected EXP:"),
                "{bad:?}: {err}"
            );
        }
        assert_eq!(
            SweepSpec::parse("E2:nodes=1..2:10000").unwrap().steps,
            MAX_SWEEP_STEPS
        );
    }

    #[test]
    fn point_zero_keeps_the_base_seed() {
        assert_eq!(point_seed(0xE19, 0), 0xE19);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            assert!(seen.insert(point_seed(0xE19, i)), "seed collision at {i}");
        }
    }

    #[test]
    fn run_sweep_rejects_unknown_ids_and_params() {
        let spec = SweepSpec::parse("E99:x=0..1:2").unwrap();
        let err = run_sweep(&spec, true, None, 1, ExecPolicy::serial()).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        let spec = SweepSpec::parse("E10:frobnication=0..1:2").unwrap();
        let err = run_sweep(&spec, true, None, 1, ExecPolicy::serial()).unwrap_err();
        assert!(err.contains("unknown parameter"), "{err}");
        assert!(err.contains("tps"), "error lists the knobs: {err}");
    }

    #[test]
    fn e10_sweep_runs_seedless_and_deterministic() {
        let spec = SweepSpec::parse("E10:tps=3.5..7:2").unwrap();
        let a = run_sweep(&spec, true, None, 1, ExecPolicy::serial()).unwrap();
        let b = run_sweep(&spec, true, Some(42), 2, ExecPolicy::serial()).unwrap();
        assert_eq!(a.points.len(), 2);
        assert!(a.points.iter().all(|p| p.seed.is_none()));
        // Seed overrides cannot perturb a seedless scenario's curve.
        for (x, y) in a.curves.iter().zip(b.curves.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn crossovers_bracket_verdict_flips() {
        // Synthetic: fold a curve from hand-built points.
        use crate::report::{Expect, ExperimentReport};
        let mk = |param: f64, v: f64| {
            let mut r = ExperimentReport::new("EX", "x");
            r.check("EX.c", "c", "p", "m", v, Expect::AtLeast(0.5));
            SweepPoint {
                requested: param,
                applied: param,
                seed: None,
                report: r,
            }
        };
        let pts = vec![mk(1.0, 0.9), mk(2.0, 0.6), mk(3.0, 0.2), mk(4.0, 0.7)];
        let curve = RobustnessCurve::from_points("EX.c", &pts);
        assert_eq!(curve.points.len(), 4);
        assert_eq!(curve.crossovers.len(), 2);
        assert_eq!(curve.crossovers[0].lo, 2.0);
        assert_eq!(curve.crossovers[0].hi, 3.0);
        assert!(curve.crossovers[0].from && !curve.crossovers[0].to);
        assert!(!curve.crossovers[1].from && curve.crossovers[1].to);
    }

    #[test]
    fn summary_names_claims_that_fail_everywhere_and_shows_clamping() {
        // Synthetic: both grid values clamp to 0.9, where one claim holds
        // and the other fails — no verdict flips, and nothing is robust.
        use crate::report::{Expect, ExperimentReport};
        let mk = |requested: f64| {
            let mut r = ExperimentReport::new("EX", "x");
            r.check("EX.holds", "h", "p", "m", 1.0, Expect::AtLeast(0.5));
            r.check("EX.fails", "f", "p", "m", 0.1, Expect::AtLeast(0.5));
            SweepPoint {
                requested,
                applied: 0.9,
                seed: None,
                report: r,
            }
        };
        let points = vec![mk(2.0), mk(3.0)];
        let curves = ["EX.holds", "EX.fails"]
            .iter()
            .map(|c| RobustnessCurve::from_points(c, &points))
            .collect();
        let report = SweepReport {
            mode: "quick".to_string(),
            exp: "EX",
            title: "x",
            param: "frac".to_string(),
            param_help: String::new(),
            spec: SweepSpec::parse("EX:frac=2..3:2").unwrap(),
            seed_override: None,
            points,
            curves,
        };
        assert!(report.flipping_claims().is_empty());
        let md = report.to_markdown();
        assert!(!md.contains("robust"), "{md}");
        assert!(
            md.contains("Failing at every point of the frac grid: `EX.fails`."),
            "{md}"
        );
        assert!(md.contains("| 2 → 0.9 | **no** | EX.fails |"), "{md}");
        assert!(md.contains("| 3 → 0.9 | **no** | EX.fails |"), "{md}");
    }
}

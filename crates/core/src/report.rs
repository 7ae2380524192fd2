//! Experiment reports: result tables, claim checks with explicit
//! thresholds, engine metrics, and the machine-readable [`RunReport`]
//! that CI diffs against committed baselines.

use std::fmt;

use decent_sim::json::Json;
use decent_sim::metrics::{Metric, MetricsSnapshot};

pub use decent_sim::report::Table;

/// The threshold a measured value is checked against.
///
/// Every claim check states its acceptance region explicitly so the
/// serialized report is auditable: a reader (or the CI gate) can see
/// not just *that* a claim held but *how much headroom* it had.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expect {
    /// `value >= x`.
    AtLeast(f64),
    /// `value <= x`.
    AtMost(f64),
    /// `value > x`.
    MoreThan(f64),
    /// `value < x`.
    LessThan(f64),
    /// `lo <= value < hi` (half-open, like `(lo..hi).contains`).
    Within {
        /// Inclusive lower edge.
        lo: f64,
        /// Exclusive upper edge.
        hi: f64,
    },
    /// A structural property of the model with no scalar threshold;
    /// the measured value records 1 (holds) or 0.
    Structural,
}

impl Expect {
    /// Whether `value` satisfies this threshold.
    pub fn eval(&self, value: f64) -> bool {
        match *self {
            Expect::AtLeast(x) => value >= x,
            Expect::AtMost(x) => value <= x,
            Expect::MoreThan(x) => value > x,
            Expect::LessThan(x) => value < x,
            Expect::Within { lo, hi } => (lo..hi).contains(&value),
            Expect::Structural => value != 0.0,
        }
    }

    /// A compact human-readable form (e.g. `>= 0.85`, `in [2.5, 8)`).
    pub fn describe(&self) -> String {
        match *self {
            Expect::AtLeast(x) => format!(">= {x}"),
            Expect::AtMost(x) => format!("<= {x}"),
            Expect::MoreThan(x) => format!("> {x}"),
            Expect::LessThan(x) => format!("< {x}"),
            Expect::Within { lo, hi } => format!("in [{lo}, {hi})"),
            Expect::Structural => "structural".to_string(),
        }
    }

    fn to_json(self) -> Json {
        match self {
            Expect::AtLeast(x) => Json::obj([("op", Json::str(">=")), ("value", Json::num(x))]),
            Expect::AtMost(x) => Json::obj([("op", Json::str("<=")), ("value", Json::num(x))]),
            Expect::MoreThan(x) => Json::obj([("op", Json::str(">")), ("value", Json::num(x))]),
            Expect::LessThan(x) => Json::obj([("op", Json::str("<")), ("value", Json::num(x))]),
            Expect::Within { lo, hi } => Json::obj([
                ("op", Json::str("in")),
                ("lo", Json::num(lo)),
                ("hi", Json::num(hi)),
            ]),
            Expect::Structural => Json::obj([("op", Json::str("structural"))]),
        }
    }
}

/// One claim check inside an experiment: a stable id, what the paper
/// says, what this run measured, and the verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable claim-check identifier, `"<exp>.<slug>"` (e.g.
    /// `"E7.btc-band"`). Baselines and the CI regression gate key on
    /// this, so renaming one is a baseline update.
    pub claim: String,
    /// Short name of the check.
    pub name: String,
    /// What the paper says (with section).
    pub paper: String,
    /// What this run measured, as display text.
    pub measured: String,
    /// The headline measured value the threshold applies to.
    pub value: f64,
    /// The acceptance threshold.
    pub expect: Expect,
    /// Whether the claim's *shape* holds in the simulation.
    pub holds: bool,
}

impl Finding {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(&self.claim)),
            ("name", Json::str(&self.name)),
            ("paper", Json::str(&self.paper)),
            ("measured", Json::str(&self.measured)),
            ("value", Json::num(self.value)),
            ("threshold", self.expect.to_json()),
            ("holds", Json::Bool(self.holds)),
        ])
    }
}

/// The output of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E7"`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Regenerated result tables (the paper's "rows/series").
    pub tables: Vec<Table>,
    /// Claim checks.
    pub findings: Vec<Finding>,
    /// Engine metrics merged from every simulation the experiment ran.
    pub metrics: MetricsSnapshot,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        ExperimentReport {
            id,
            title: title.into(),
            tables: Vec::new(),
            findings: Vec::new(),
            metrics: MetricsSnapshot::new(),
        }
    }

    /// Adds a result table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Registers a claim check: the verdict is `expect.eval(value)`.
    ///
    /// `claim` is the check's stable id (`"<exp>.<slug>"`); the
    /// regression baseline keys on it.
    pub fn check(
        &mut self,
        claim: impl Into<String>,
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        value: f64,
        expect: Expect,
    ) -> &mut Self {
        let holds = expect.eval(value);
        self.push_finding(claim, name, paper, measured, value, expect, holds)
    }

    /// Registers a claim check with an extra side condition: the verdict
    /// is `expect.eval(value) && also`. For claims whose acceptance
    /// shape needs a second measured quantity (e.g. "at least 10 s *and*
    /// 5× slower than the alternative").
    #[expect(
        clippy::too_many_arguments,
        reason = "`check`'s fields plus the side condition; call sites read as a table row"
    )]
    pub fn check_with(
        &mut self,
        claim: impl Into<String>,
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        value: f64,
        expect: Expect,
        also: bool,
    ) -> &mut Self {
        let holds = expect.eval(value) && also;
        self.push_finding(claim, name, paper, measured, value, expect, holds)
    }

    /// Registers a structural claim: a property built into the model
    /// rather than a measured scalar. Always holds.
    pub fn structural(
        &mut self,
        claim: impl Into<String>,
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> &mut Self {
        self.push_finding(claim, name, paper, measured, 1.0, Expect::Structural, true)
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per `Finding` field, shared by the three public constructors"
    )]
    fn push_finding(
        &mut self,
        claim: impl Into<String>,
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        value: f64,
        expect: Expect,
        holds: bool,
    ) -> &mut Self {
        let claim = claim.into();
        debug_assert!(
            !self.findings.iter().any(|f| f.claim == claim),
            "duplicate claim id {claim}"
        );
        self.findings.push(Finding {
            claim,
            name: name.into(),
            paper: paper.into(),
            measured: measured.into(),
            value,
            expect,
            holds,
        });
        self
    }

    /// Merges an engine metrics snapshot (from
    /// `Simulation::metrics_snapshot`) into this report's metrics.
    pub fn absorb_metrics(&mut self, snapshot: MetricsSnapshot) -> &mut Self {
        self.metrics.merge(&snapshot);
        self
    }

    /// True when every finding holds.
    pub fn all_hold(&self) -> bool {
        self.findings.iter().all(|f| f.holds)
    }

    /// Renders the full report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.findings.is_empty() {
            out.push_str("### Paper vs. measured\n\n");
            out.push_str(
                "| claim | check | paper says | measured | holds |\n|---|---|---|---|---|\n",
            );
            for f in &self.findings {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} |\n",
                    f.claim,
                    f.name,
                    f.paper,
                    f.measured,
                    if f.holds { "yes" } else { "**NO**" }
                ));
            }
        }
        out
    }

    /// The canonical JSON form of this experiment's results.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(self.id)),
            ("title", Json::str(&self.title)),
            (
                "claims",
                Json::arr(self.findings.iter().map(Finding::to_json)),
            ),
            ("tables", Json::arr(self.tables.iter().map(table_to_json))),
            ("metrics", metrics_to_json(&self.metrics)),
        ])
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

fn table_to_json(t: &Table) -> Json {
    Json::obj([
        ("title", Json::str(t.title())),
        ("headers", Json::arr(t.headers().iter().map(Json::str))),
        (
            "rows",
            Json::arr(
                t.rows()
                    .iter()
                    .map(|row| Json::arr(row.iter().map(Json::str))),
            ),
        ),
    ])
}

/// Serializes a metrics snapshot: counters and peaks as integers,
/// distributions as `{count, sum, min, max, p50, p99}` summaries.
fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj(m.entries().iter().map(|(name, metric)| {
        let value = match metric {
            Metric::Counter(v) | Metric::Peak(v) => Json::int(*v),
            Metric::Dist(h) => Json::obj([
                ("count", Json::int(h.count())),
                ("sum", Json::num(h.sum() as f64)),
                ("min", Json::int(h.min())),
                ("max", Json::int(h.max())),
                ("p50", Json::int(h.percentile(0.5))),
                ("p99", Json::int(h.percentile(0.99))),
            ]),
        };
        (name.clone(), value)
    }))
}

/// Version tag of the run-report JSON schema.
pub const RUN_REPORT_SCHEMA: &str = "decent.run-report/1";
/// Version tag of the claims-baseline JSON schema.
pub const BASELINE_SCHEMA: &str = "decent.claims-baseline/1";

/// One experiment's slot in a [`RunReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentRun {
    /// The experiment's report.
    pub report: ExperimentReport,
    /// The seed override the runner applied (`None` = the experiment's
    /// built-in config seed).
    pub seed: Option<u64>,
    /// Harness-measured wall-clock milliseconds. Deliberately **not**
    /// serialized: the canonical JSON must be a deterministic function
    /// of (code, seed) so serial and parallel runs — and CI reruns —
    /// are byte-identical.
    pub wall_ms: f64,
}

/// The machine-readable result of one `repro` invocation: every
/// experiment's claims, tables, and engine metrics, plus a summary.
///
/// This is the auditable artifact CI publishes on every build and diffs
/// against `baselines/claims_quick.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Per-experiment results, in registry order.
    pub runs: Vec<ExperimentRun>,
}

impl RunReport {
    /// Total number of claim checks across all experiments.
    pub fn total_claims(&self) -> usize {
        self.runs.iter().map(|r| r.report.findings.len()).sum()
    }

    /// True when every claim in every experiment holds.
    pub fn all_hold(&self) -> bool {
        self.runs.iter().all(|r| r.report.all_hold())
    }

    /// Flat claim-verdict view, in report order.
    pub fn verdicts(&self) -> Vec<ClaimVerdict> {
        self.runs
            .iter()
            .flat_map(|r| r.report.findings.iter())
            .map(|f| ClaimVerdict {
                id: f.claim.clone(),
                holds: f.holds,
            })
            .collect()
    }

    /// The canonical JSON document (deterministic; no wall-clock).
    pub fn to_json(&self) -> Json {
        let holding = self
            .runs
            .iter()
            .flat_map(|r| r.report.findings.iter())
            .filter(|f| f.holds)
            .count();
        Json::obj([
            ("schema", Json::str(RUN_REPORT_SCHEMA)),
            ("mode", Json::str(&self.mode)),
            (
                "experiments",
                Json::arr(self.runs.iter().map(|r| {
                    let mut obj = match r.report.to_json() {
                        Json::Obj(pairs) => pairs,
                        _ => unreachable!("report serializes to an object"),
                    };
                    let seed = match r.seed {
                        Some(s) => Json::int(s),
                        None => Json::Null,
                    };
                    obj.insert(2, ("seed".to_string(), seed));
                    Json::Obj(obj)
                })),
            ),
            (
                "summary",
                Json::obj([
                    ("experiments", Json::int(self.runs.len() as u64)),
                    ("claims", Json::int(self.total_claims() as u64)),
                    ("holding", Json::int(holding as u64)),
                ]),
            ),
        ])
    }

    /// The pretty-printed canonical JSON text.
    pub fn to_json_text(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// A claims-only baseline document (what
    /// `baselines/claims_quick.json` holds).
    pub fn baseline_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(BASELINE_SCHEMA)),
            ("mode", Json::str(&self.mode)),
            (
                "claims",
                Json::arr(self.verdicts().iter().map(|v| {
                    Json::obj([("id", Json::str(&v.id)), ("holds", Json::Bool(v.holds))])
                })),
            ),
        ])
    }

    /// A pass/fail claim table as GitHub-flavored markdown (rendered
    /// into `$GITHUB_STEP_SUMMARY` by CI).
    pub fn claims_markdown(&self) -> String {
        let holding = self.verdicts().iter().filter(|v| v.holds).count();
        let mut out = format!(
            "## Claim verdicts ({} mode): {}/{} hold\n\n",
            self.mode,
            holding,
            self.total_claims()
        );
        out.push_str("| claim | experiment | measured | threshold | verdict |\n");
        out.push_str("|---|---|---|---|---|\n");
        for r in &self.runs {
            for f in &r.report.findings {
                out.push_str(&format!(
                    "| `{}` | {} | {} | {} | {} |\n",
                    f.claim,
                    r.report.id,
                    f.measured,
                    f.expect.describe(),
                    if f.holds {
                        "✅ holds"
                    } else {
                        "❌ **FAILS**"
                    }
                ));
            }
        }
        out
    }
}

/// A `(claim id, verdict)` pair — the unit the regression gate diffs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaimVerdict {
    /// Stable claim-check id.
    pub id: String,
    /// Whether the claim held.
    pub holds: bool,
}

/// Extracts claim verdicts from either a full run report or a
/// claims-only baseline document.
pub fn verdicts_from_json(doc: &Json) -> Result<Vec<ClaimVerdict>, String> {
    let claim_arrays: Vec<&Json> = if let Some(exps) = doc.get("experiments") {
        exps.as_arr()
            .ok_or("'experiments' is not an array")?
            .iter()
            .map(|e| e.get("claims").ok_or("experiment without 'claims'"))
            .collect::<Result<_, _>>()?
    } else if let Some(claims) = doc.get("claims") {
        vec![claims]
    } else {
        return Err("document has neither 'experiments' nor 'claims'".to_string());
    };
    let mut out = Vec::new();
    for arr in claim_arrays {
        for c in arr.as_arr().ok_or("'claims' is not an array")? {
            let id = c
                .get("id")
                .and_then(Json::as_str)
                .ok_or("claim without string 'id'")?;
            let holds = c
                .get("holds")
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("claim {id} without boolean 'holds'"))?;
            out.push(ClaimVerdict {
                id: id.to_string(),
                holds,
            });
        }
    }
    Ok(out)
}

/// Diffs a run's claim verdicts against a committed baseline.
///
/// Returns one human-readable line per regression; an empty result
/// means the gate passes. Three things fail the gate: a verdict flip in
/// either direction, a baseline claim the run no longer produces, and a
/// run claim missing from the baseline (baselines must stay in sync
/// with the claim registry).
pub fn diff_verdicts(current: &[ClaimVerdict], baseline: &[ClaimVerdict]) -> Vec<String> {
    let mut lines = Vec::new();
    for b in baseline {
        match current.iter().find(|c| c.id == b.id) {
            None => lines.push(format!(
                "missing claim: `{}` is in the baseline but this run did not produce it",
                b.id
            )),
            Some(c) if c.holds != b.holds => lines.push(format!(
                "verdict flip: `{}` was holds={} in the baseline, measured holds={}",
                b.id, b.holds, c.holds
            )),
            Some(_) => {}
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.id == c.id) {
            lines.push(format!(
                "unknown claim: `{}` is not in the baseline (new check? regenerate the baseline)",
                c.id
            ));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders() {
        let mut r = ExperimentReport::new("E0", "demo");
        let mut t = Table::new("numbers", &["x"]);
        t.row(["1"]);
        r.table(t);
        r.check("E0.a", "a", "says", "got", 1.0, Expect::AtLeast(0.5));
        r.check("E0.b", "b", "says", "got", 0.1, Expect::AtLeast(0.5));
        let md = r.to_markdown();
        assert!(md.contains("## E0 — demo"));
        assert!(md.contains("**NO**"));
        assert!(md.contains("E0.a"));
        assert!(!r.all_hold());
    }

    #[test]
    fn expect_evaluates_thresholds() {
        assert!(Expect::AtLeast(2.0).eval(2.0));
        assert!(!Expect::AtLeast(2.0).eval(1.9));
        assert!(Expect::AtMost(2.0).eval(2.0));
        assert!(Expect::MoreThan(2.0).eval(2.1));
        assert!(!Expect::MoreThan(2.0).eval(2.0));
        assert!(Expect::LessThan(2.0).eval(1.9));
        assert!(Expect::Within { lo: 1.0, hi: 2.0 }.eval(1.0));
        assert!(!Expect::Within { lo: 1.0, hi: 2.0 }.eval(2.0));
        assert!(Expect::Structural.eval(1.0));
        assert_eq!(Expect::Within { lo: 1.0, hi: 2.0 }.describe(), "in [1, 2)");
    }

    #[test]
    fn check_with_composes_side_conditions() {
        let mut r = ExperimentReport::new("E0", "demo");
        r.check_with("E0.x", "x", "p", "m", 10.0, Expect::AtLeast(5.0), false);
        assert!(!r.all_hold(), "side condition must veto");
        r.findings.clear();
        r.check_with("E0.x", "x", "p", "m", 10.0, Expect::AtLeast(5.0), true);
        assert!(r.all_hold());
    }

    #[test]
    fn structural_claims_always_hold() {
        let mut r = ExperimentReport::new("E0", "demo");
        r.structural("E0.s", "s", "p", "by construction");
        assert!(r.all_hold());
        assert_eq!(r.findings[0].expect, Expect::Structural);
    }

    #[test]
    fn run_report_counts_and_serializes() {
        let mut r = ExperimentReport::new("E1", "one");
        r.check("E1.a", "a", "p", "m", 1.0, Expect::AtLeast(0.0));
        let run = RunReport {
            mode: "quick".to_string(),
            runs: vec![ExperimentRun {
                report: r,
                seed: Some(42),
                wall_ms: 12.5,
            }],
        };
        assert_eq!(run.total_claims(), 1);
        assert!(run.all_hold());
        let doc = run.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(RUN_REPORT_SCHEMA)
        );
        let text = run.to_json_text();
        assert!(!text.contains("wall"), "wall-clock must not serialize");
        // Round-trips through the parser with verdicts intact.
        let parsed = Json::parse(&text).unwrap();
        let verdicts = verdicts_from_json(&parsed).unwrap();
        assert_eq!(verdicts, run.verdicts());
        // Baseline document parses the same verdicts.
        let base = verdicts_from_json(&run.baseline_json()).unwrap();
        assert_eq!(base, verdicts);
        // Markdown table mentions the claim.
        assert!(run.claims_markdown().contains("`E1.a`"));
    }

    #[test]
    fn diff_detects_flips_missing_and_unknown() {
        let cur = vec![
            ClaimVerdict {
                id: "E1.a".into(),
                holds: true,
            },
            ClaimVerdict {
                id: "E1.b".into(),
                holds: false,
            },
        ];
        let same = diff_verdicts(&cur, &cur);
        assert!(same.is_empty(), "{same:?}");

        let mut flipped = cur.clone();
        flipped[1].holds = true;
        let lines = diff_verdicts(&cur, &flipped);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("verdict flip"), "{lines:?}");

        let baseline_extra = vec![
            cur[0].clone(),
            cur[1].clone(),
            ClaimVerdict {
                id: "E9.gone".into(),
                holds: true,
            },
        ];
        let lines = diff_verdicts(&cur, &baseline_extra);
        assert!(
            lines.iter().any(|l| l.contains("missing claim")),
            "{lines:?}"
        );

        let baseline_short = vec![cur[0].clone()];
        let lines = diff_verdicts(&cur, &baseline_short);
        assert!(
            lines.iter().any(|l| l.contains("unknown claim")),
            "{lines:?}"
        );
    }
}

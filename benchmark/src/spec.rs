//! The two committed documents the benchmark is written against:
//! `BENCHMARK.json` (names, units, directions, bounds) and
//! `benchmark/expected.json` (outputs expected at each default seed).
//!
//! Both are compiled in, so the names the program prints, the names the
//! tests ask for and the names the file lists cannot drift apart.

use decent_sim::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<MetricSpec>,
    /// How long one run measures.
    pub run_seconds: f64,
}

fn metric_list(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without string '{k}'"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no '{key}' array"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            lower_is_better: field(m, "better") == "lower",
            bound: m.get("bound").and_then(Json::as_num),
        })
        .collect()
}

/// Parses the compiled-in `BENCHMARK.json`.
///
/// # Panics
///
/// Panics when the committed file is malformed: that is a bug in this
/// repository, not a condition of use.
pub fn spec() -> Spec {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        workloads: doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json: 'workloads' array")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("BENCHMARK.json: workload 'name'")
                    .to_string()
            })
            .collect(),
        end_to_end: metric_list(&doc, "end_to_end"),
        per_layer: metric_list(&doc, "per_layer"),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .expect("BENCHMARK.json: 'run_seconds'"),
    }
}

/// The expectations committed for `workload` in `expected.json`.
///
/// # Panics
///
/// Panics when the committed file is malformed or has no entry.
pub fn expected(workload: &str) -> Json {
    Json::parse(EXPECTED_JSON)
        .expect("expected.json is valid JSON")
        .get(workload)
        .unwrap_or_else(|| panic!("expected.json: no entry for {workload}"))
        .clone()
}

/// The default seed of `workload`: the one its committed expectations hold at.
pub fn default_seed(workload: &str) -> u64 {
    expected(workload)
        .get("seed")
        .and_then(Json::as_num)
        .expect("expected.json: 'seed'") as u64
}

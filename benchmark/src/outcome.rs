//! What one run of one workload produced, and the one shape it is printed in.

use decent_sim::json::Json;

use crate::spec::{MetricSpec, Spec};

/// Metrics, operation counts and failed checks of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub e2e: Vec<(String, f64)>,
    /// Per-layer metrics by name; a layer the workload never calls is absent.
    pub layers: Vec<(String, f64)>,
    /// Operations attempted: the workload's own (lookups, claims) plus output checks.
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.push((name.to_string(), value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Looks a per-layer metric up.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} {what}"));
        }
    }

    /// Counts one output check; a failed one is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// True when no operation and no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of `m`: an end-to-end metric, or with `traced` a per-layer one.
    ///
    /// # Panics
    ///
    /// Panics if the workload left an end-to-end metric unmeasured.
    pub fn value_of(&self, m: &MetricSpec, traced: bool) -> f64 {
        let list = if traced { &self.layers } else { &self.e2e };
        match list.iter().find(|(n, _)| *n == m.name) {
            Some((_, v)) => *v,
            // A layer this workload never calls did no work.
            None if traced => 0.0,
            None => panic!("workload did not measure end-to-end metric {}", m.name),
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// holding every end-to-end metric of `spec`, or with `traced` every
    /// per-layer metric.
    pub fn result_json(&self, spec: &Spec, traced: bool) -> Json {
        let list = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::int(self.attempted)),
            ("failed", Json::int(self.failed)),
            (
                "metrics",
                Json::obj(list.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::num(self.value_of(m, traced))),
                            ("unit", Json::str(&m.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

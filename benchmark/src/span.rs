//! Spans around the calls the benchmark makes into each crate.
//!
//! The tracer always times the call it wraps (the metrics need the
//! duration either way); it keeps a span record only in the traced run.
//! Spans nest on the one measuring thread, so a span's self time is its
//! duration minus its children's, and the self times of a trace sum to
//! the root span.

use std::time::Instant;

use decent_sim::json::Json;

/// One recorded call: which layer function, when, caused by which span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<crate>.<function>` of the call, or a benchmark phase name.
    pub name: String,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    /// The pass (request) this span belongs to; spans of one pass share it.
    pub pass: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when enabled, records them as nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: Option<u32>,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            pass: None,
        }
    }

    /// Whether this is the traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with a pass number.
    pub fn set_pass(&mut self, pass: Option<u32>) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; returns its result and its
    /// duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start_ns = self.now_ns();
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                pass: self.pass,
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
        }
        let r = f(self);
        let end_ns = self.now_ns();
        if self.enabled {
            let idx = self.open.pop().expect("span opened above");
            self.spans[idx].end_ns = end_ns;
        }
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time summed by span name, in seconds, largest first.
    pub fn self_s_by_name(&self) -> Vec<(String, f64, u64)> {
        let mut by_name: Vec<(String, f64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(entry) => {
                    entry.1 += own as f64 / 1e9;
                    entry.2 += 1;
                }
                None => by_name.push((span.name.clone(), own as f64 / 1e9, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// The trace as one JSON document: every span, then self time by name.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let own = self.self_ns();
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::int);
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::int(seed)),
            (
                "spans",
                Json::arr(
                    self.spans
                        .iter()
                        .zip(&own)
                        .enumerate()
                        .map(|(id, (s, own))| {
                            Json::obj([
                                ("id", Json::int(id as u64)),
                                ("name", Json::str(&s.name)),
                                ("parent", opt(s.parent.map(|p| p as u64))),
                                ("pass", opt(s.pass.map(u64::from))),
                                ("start_ns", Json::int(s.start_ns)),
                                ("end_ns", Json::int(s.end_ns)),
                                ("self_ns", Json::int(*own)),
                            ])
                        }),
                ),
            ),
            (
                "self_s_by_name",
                Json::arr(self.self_s_by_name().into_iter().map(|(name, s, calls)| {
                    Json::obj([
                        ("name", Json::str(name)),
                        ("self_s", Json::num(s)),
                        ("spans", Json::int(calls)),
                    ])
                })),
            ),
        ])
    }
}

//! The six workloads and the frame they share.
//!
//! Every workload sets itself up several times (so `setup_s` is a
//! median, see [`measure_setups`]), then runs *passes* — one fixed piece of work each — until
//! `--seconds` are used up, and reports the median of the pass times. A pass is started only if it is expected to end inside
//! the window, and the first passes of a run (as many as the workload
//! says) always run: the exact counters are taken over those, so they do
//! not depend on how fast the host is.

pub mod chain;
pub mod kad;
pub mod repro;
pub mod wire;

use std::time::Instant;

use decent_sim::json::Json;
use decent_sim::prelude::{EventTag, Node, SchedulerFor, SimTime, Simulation};

use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::{alloc, host, spec, stats};

/// A run sets its workload up at least this many times,
pub const MIN_SETUPS: usize = 3;
/// goes on until set-up has taken this long in total (a set-up of a
/// millisecond needs many samples for a steady median),
const SETUP_BUDGET_S: f64 = 0.25;
/// and stops at this many.
const MAX_SETUPS: usize = 1_000;

/// The workloads `BENCHMARK.json` names.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100 000-node Kademlia overlay, waves of lookups, serial.
    Kad100k,
    /// The same on two shards.
    Kad100kS2,
    /// 1 000-node PoW relay network, event-dense, serial.
    ChainDense,
    /// All 19 experiments at quick scale, serial.
    ReproQuick,
    /// The same with every simulation on two shards.
    ReproQuickS2,
    /// Kademlia lookups over loopback TCP against a 16-node mesh.
    WireKad,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 6] = [
        Workload::Kad100k,
        Workload::Kad100kS2,
        Workload::ChainDense,
        Workload::ReproQuick,
        Workload::ReproQuickS2,
        Workload::WireKad,
    ];

    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kad100k => "kad100k",
            Workload::Kad100kS2 => "kad100k_s2",
            Workload::ChainDense => "chain_dense",
            Workload::ReproQuick => "repro_quick",
            Workload::ReproQuickS2 => "repro_quick_s2",
            Workload::WireKad => "wire_kad",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size overrides. They exist so the tests can run every workload at toy
/// size and so the headline configurations of `BENCH_7.json` and
/// `BENCH_9.json` can be reproduced (see the README); the benchmark
/// itself always runs the defaults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sizes {
    /// Nodes of the simulated network (`kad100k*`, `chain_dense`) or of the
    /// served mesh (`wire_kad`).
    pub nodes: Option<usize>,
    /// Lookups per wave (`kad100k*`); lookups that always run (`wire_kad`).
    pub lookups: Option<usize>,
    /// Simulated seconds per pass (`kad100k*`, `chain_dense`).
    pub horizon_s: Option<f64>,
    /// Experiment ids (`repro_quick*`).
    pub experiments: Option<Vec<String>>,
}

/// One run: which workload, from which seed, for how long, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Every input is generated from this.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Record spans, count allocations and events by kind, run the probes.
    pub trace: bool,
    /// Size overrides.
    pub sizes: Sizes,
    /// The workload's entry of `expected.json`, checked when its `seed` is
    /// ours; `Json::Null` at any other size than the benchmark's own.
    pub expected: Json,
}

impl RunConfig {
    /// The benchmark's own configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::default(),
            expected: spec::expected(workload.name()),
        }
    }

    /// The expectation `key`, if this run is at the seed it holds at.
    pub fn expectation(&self, key: &str) -> Option<&Json> {
        let seed = self.expected.get("seed").and_then(Json::as_num)?;
        (seed as u64 == self.seed)
            .then(|| self.expected.get(key))
            .flatten()
    }

    /// Checks a count against its committed expectation, where one applies.
    pub fn check_expected(&self, out: &mut Outcome, key: &str, got: u64) {
        if let Some(want) = self.expectation(key).and_then(Json::as_num) {
            out.check(got == want as u64, || {
                format!(
                    "{key}: expected {want} at seed {}, got {got} \
                     (changed on purpose? then benchmark/expected.json changes with it)",
                    self.seed
                )
            });
        }
    }
}

/// Sets the workload up repeatedly (see [`MIN_SETUPS`]); every set-up but
/// the last is handed to `teardown`. Returns the last and all the times.
pub fn measure_setups<T>(
    t: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer, usize) -> T,
    mut teardown: impl FnMut(&mut Tracer, T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    loop {
        let i = secs.len();
        let (made, s) = t.span("setup", |t| setup(t, i));
        secs.push(s);
        let enough = secs.iter().sum::<f64>() >= SETUP_BUDGET_S || secs.len() >= MAX_SETUPS;
        if secs.len() >= MIN_SETUPS && enough {
            return (made, secs);
        }
        teardown(t, made);
    }
}

/// Times of the passes of one run and the events they handled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Passes {
    /// Wall seconds of each pass.
    pub secs: Vec<f64>,
    /// Protocol events handled, all passes.
    pub events: u64,
    /// CPU seconds used (all threads) inside the passes.
    pub cpu_s: f64,
}

impl Passes {
    /// Wall seconds of all passes together.
    pub fn total_s(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Decides how many passes a run makes and times them: `always` passes,
/// then more for as long as another is expected to end within `seconds`.
#[derive(Debug)]
pub struct PassClock {
    always: usize,
    seconds: f64,
    started: Instant,
    passes: Passes,
}

impl PassClock {
    /// Starts the measuring window.
    pub fn new(always: usize, seconds: f64) -> Self {
        PassClock {
            always,
            seconds,
            started: Instant::now(),
            passes: Passes::default(),
        }
    }

    /// Whether another pass is to run. What the caller does between this
    /// and [`PassClock::pass`] is inside the window but in no pass.
    pub fn more(&self) -> bool {
        let p = &self.passes.secs;
        p.len() < self.always || host::secs_since(self.started) + stats::median(p) <= self.seconds
    }

    /// Number of the next pass.
    pub fn next(&self) -> usize {
        self.passes.secs.len()
    }

    /// Runs one pass, which returns the events it handled, inside a span.
    pub fn pass(&mut self, t: &mut Tracer, pass: impl FnOnce(&mut Tracer) -> u64) {
        t.set_pass(Some(self.next() as u32));
        let cpu0 = host::cpu_s();
        let (events, s) = t.span("pass", pass);
        self.passes.cpu_s += host::cpu_s() - cpu0;
        self.passes.events += events;
        self.passes.secs.push(s);
        t.set_pass(None);
    }

    /// The passes made.
    pub fn finish(self) -> Passes {
        self.passes
    }
}

/// The engine's exact counters at one moment, or between two.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Events dispatched.
    pub events: u64,
    /// Handler activations (one may drain several same-node events).
    pub activations: u64,
    /// Conservative windows of the sharded path (0 when serial).
    pub windows: u64,
    /// Messages handed to the network model.
    pub msgs_sent: u64,
    /// Their advisory sizes.
    pub bytes_sent: u64,
    /// Deliveries dispatched, counted only in the traced run.
    pub deliver: u64,
    /// Timers dispatched, counted only in the traced run.
    pub timer: u64,
}

impl EngineCounts {
    /// The counters of `sim` now.
    pub fn of<N: Node, S: SchedulerFor<N>>(sim: &Simulation<N, S>) -> Self {
        let by_kind = |k| sim.trace().map_or(0, |tr| tr.count(k));
        EngineCounts {
            events: sim.events_processed(),
            activations: sim.activations(),
            windows: sim.windows(),
            msgs_sent: sim.stats().sent,
            bytes_sent: sim.stats().bytes_sent,
            deliver: by_kind(EventTag::Deliver),
            timer: by_kind(EventTag::Timer),
        }
    }

    /// What was counted since `earlier`.
    pub fn since(self, earlier: EngineCounts) -> Self {
        EngineCounts {
            events: self.events - earlier.events,
            activations: self.activations - earlier.activations,
            windows: self.windows - earlier.windows,
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            deliver: self.deliver - earlier.deliver,
            timer: self.timer - earlier.timer,
        }
    }
}

/// Cost of `run_until` calls: one, or summed over a run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Drain {
    /// Wall seconds.
    pub secs: f64,
    /// Bytes requested from the allocator (traced run only).
    pub alloc_bytes: u64,
    /// Allocation calls (traced run only).
    pub alloc_calls: u64,
}

impl Drain {
    /// Adds `other` to this total.
    pub fn add(&mut self, other: Drain) {
        self.secs += other.secs;
        self.alloc_bytes += other.alloc_bytes;
        self.alloc_calls += other.alloc_calls;
    }
}

/// Advances `sim` to `deadline` inside a `simcore.run_until` span.
pub fn drain<N: Node, S: SchedulerFor<N>>(
    sim: &mut Simulation<N, S>,
    deadline: SimTime,
    t: &mut Tracer,
) -> Drain {
    let (bytes0, calls0) = alloc::snapshot();
    let (_, secs) = t.span("simcore.run_until", |_| sim.run_until(deadline));
    let (bytes1, calls1) = alloc::snapshot();
    Drain {
        secs,
        alloc_bytes: bytes1 - bytes0,
        alloc_calls: calls1 - calls0,
    }
}

/// Records the `simcore` metrics the three simulated-network workloads
/// share: exact counters of the passes that always run (`exact`, with
/// the drains of just those passes), rates over all `passes`.
pub fn simcore_layers(
    out: &mut Outcome,
    exact: (EngineCounts, Drain),
    peak_queue_depth: f64,
    shards: usize,
    all: Drain,
    passes: &Passes,
) {
    let (c, d) = exact;
    let events = c.events.max(1) as f64;
    out.layer("simcore.drain_s", all.secs / passes.secs.len() as f64);
    out.layer("simcore.events_per_s", passes.events as f64 / all.secs);
    out.layer(
        "simcore.ns_per_event",
        all.secs * 1e9 / passes.events as f64,
    );
    out.layer("simcore.events", c.events as f64);
    out.layer("simcore.activations", c.activations as f64);
    // A lifetime peak, set-up included.
    out.layer("simcore.peak_queue_depth", peak_queue_depth);
    out.layer("simcore.msgs_sent", c.msgs_sent as f64);
    out.layer("simcore.bytes_sent", c.bytes_sent as f64);
    out.layer("simcore.events_deliver", c.deliver as f64);
    out.layer("simcore.events_timer", c.timer as f64);
    out.layer(
        "simcore.alloc_bytes_per_event",
        d.alloc_bytes as f64 / events,
    );
    out.layer(
        "simcore.alloc_calls_per_event",
        d.alloc_calls as f64 / events,
    );
    if shards > 1 {
        out.layer("simcore.shard.windows", c.windows as f64);
        out.layer(
            "simcore.shard.events_per_window",
            events / c.windows.max(1) as f64,
        );
    }
}

/// Records the end-to-end metrics every workload shares.
fn shared_e2e(out: &mut Outcome, setups: &[f64], passes: &Passes) {
    let total = passes.total_s();
    out.e2e("setup_s", stats::median(setups));
    out.e2e("run_s", stats::median(&passes.secs));
    out.e2e("events_per_s", passes.events as f64 / total);
    out.layer("bench.passes", passes.secs.len() as f64);
    // Not end to end: with latencies in steps of one delayed ACK, whether
    // `wire_kad`'s p90 reads 132 or 176 ms depends on the seed.
    out.layer("bench.run_p90_s", stats::percentile(&passes.secs, 0.9));
    out.layer("bench.traced_run_s", stats::median(&passes.secs));
    // Busy against waiting: near 1 serial, up to 2 on two shards.
    out.layer("bench.cpu_s", passes.cpu_s / passes.secs.len() as f64);
    out.layer("bench.cpu_over_wall", passes.cpu_s / total);
}

/// Runs one workload once inside the caller's span, recording what it
/// measured in `out`. (The probes of the traced run are the caller's to
/// add: see [`crate::run`].)
pub fn run(cfg: &RunConfig, t: &mut Tracer, out: &mut Outcome) {
    alloc::set_counting(cfg.trace);
    match cfg.workload {
        Workload::Kad100k => kad::run(cfg, 1, t, out),
        Workload::Kad100kS2 => kad::run(cfg, 2, t, out),
        Workload::ChainDense => chain::run(cfg, t, out),
        Workload::ReproQuick => repro::run(cfg, 1, t, out),
        Workload::ReproQuickS2 => repro::run(cfg, 2, t, out),
        Workload::WireKad => wire::run(cfg, t, out),
    }
    alloc::set_counting(false);
    out.e2e("peak_rss_mb", host::peak_rss_mb());
    let mut bad: Vec<String> = out
        .e2e
        .iter()
        .filter(|(_, v)| !(v.is_finite() && *v > 0.0))
        .map(|(name, v)| format!("end-to-end metric {name} is {v}, not a positive number"))
        .collect();
    // A pass that handled no event (a size override can ask for one) has no rates.
    for (name, v) in out.layers.iter_mut().filter(|(_, v)| !v.is_finite()) {
        bad.push(format!("per-layer metric {name} is {v}, printed as 0"));
        *v = 0.0;
    }
    for line in bad {
        out.check(false, || line);
    }
}

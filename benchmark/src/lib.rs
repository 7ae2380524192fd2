//! The repo's benchmark: six workloads, four end-to-end metrics every
//! workload reports, per-layer metrics named `<crate>.<module>.<what>`,
//! and a traced run. `BENCHMARK.json` at the repo root is the contract;
//! `README.md` beside this package says why each workload and metric is
//! here and which numbers a change to one layer should move.
//!
//! The package calls only `pub` items of the crates it measures and is
//! not a member of the root workspace.

#![warn(missing_docs)]

pub mod alloc;
pub mod host;
pub mod outcome;
pub mod probes;
pub mod span;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// One run of one workload, as the command line makes it: the workload
/// inside a root span, then — in the traced run — the layer probes.
pub fn run(cfg: &workloads::RunConfig) -> (outcome::Outcome, span::Tracer) {
    let mut t = span::Tracer::new(cfg.trace);
    let mut out = outcome::Outcome::default();
    t.span("run", |t| {
        workloads::run(cfg, t, &mut out);
        if cfg.trace {
            t.span("probes", |t| probes::run(t, &mut out));
        }
    });
    (out, t)
}

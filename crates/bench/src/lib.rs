//! # decent-bench — the two binaries that drive the workspace
//!
//! - `repro` regenerates every experiment report
//!   (`cargo run --release -p decent-bench --bin repro -- --quick`).
//! - `perf-gate` re-measures one small serial configuration and holds
//!   its deterministic cost counters against `baselines/perf_quick.json`
//!   (`cargo run --release -p decent-bench --bin perf-gate -- --baseline
//!   baselines/perf_quick.json`).
//!
//! Timing lives in the standalone `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

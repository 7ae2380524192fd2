//! # decent-lint — the determinism contract, machine-checked
//!
//! The `decent` workspace's entire value proposition is bit-for-bit
//! determinism: claim baselines, golden traces, serial-vs-parallel JSON
//! byte-identity and sweep reproducibility all assume there is no
//! hidden nondeterminism anywhere in sim-facing code. This crate turns
//! that convention into a machine-checked contract (DESIGN.md §4e):
//!
//! - **D001** — iteration over `HashMap`/`HashSet` in sim-facing
//!   crates, unless the chain is provably order-insensitive (a
//!   commutative terminator such as `.sum()`/`.count()`/`.any()`, or a
//!   `collect::<BTreeMap/BTreeSet<_>>()`). Point lookups, `len()`,
//!   `contains` stay legal.
//! - **D002** — wall-clock reads (`Instant::now`, `SystemTime::...`).
//! - **D003** — unseeded randomness (`thread_rng`, `rand::random`,
//!   `from_entropy`).
//! - **D004** — ambient process state (`std::env`) in sim-facing
//!   crates.
//! - **D005** — `unsafe` blocks (doubly enforced by
//!   `#![forbid(unsafe_code)]` on every workspace crate).
//! - **D006** — `std::rc::Rc` in sim-facing crates: node/message state
//!   must be `Send` for the sharded executor.
//! - **D007** — shared-atomic mutation in sim-facing crates: the
//!   window-barrier merge protocol tolerates only merge-only
//!   commutative `Relaxed` counters, and those only under a pragma
//!   documenting the discipline.
//! - **D008** — `.partial_cmp(..)` comparators (floats are not totally
//!   ordered; `total_cmp` is).
//! - **D009** — keyed unstable sorts (`sort_unstable_by(_key)`) without
//!   a pragma-documented injectivity argument.
//! - **D010** — blocking synchronization (`Mutex`, `RwLock`, `mpsc`,
//!   `Condvar`) in sim-facing crates.
//!
//! Rules match through a scope-aware symbol layer ([`scope`],
//! [`symbols`]): per-scope `use`-tree aliases and `type` aliases are
//! resolved to canonical paths before matching, so
//! `use std::collections::HashMap as FastMap;` cannot evade D001.
//!
//! Findings are suppressible only via an inline pragma
//!
//! ```text
//! // decent-lint: allow(D002) reason="harness timing; never serialized"
//! ```
//!
//! and unused pragmas are themselves errors (**P000**, with malformed
//! pragmas reported as **P001**), so suppressions cannot rot.
//!
//! Everything is hand-rolled in the same spirit as `decent_sim::json`:
//! a small Rust lexer, no syn, no serde, no dependencies — the tool
//! must build in the offline CI container before anything else does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod lex;
pub mod report;
pub mod rules;
pub mod scope;
pub mod symbols;
pub mod workspace;

pub use analyze::{analyze_source, analyze_source_with_stats, SIM_FACING_CRATES};
pub use rules::{Finding, Rule};

/// Outcome of linting a whole workspace.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All surviving findings in stable file/line/rule order.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Number of pragma suppressions that were actually exercised.
    pub pragmas_used: usize,
}

/// Lints every workspace member under `root`.
///
/// # Errors
///
/// Returns a message when the workspace cannot be enumerated or a
/// source file cannot be read.
pub fn lint_workspace(root: &std::path::Path) -> Result<WorkspaceReport, String> {
    let files = workspace::workspace_files(root)?;
    let mut findings = Vec::new();
    let mut pragmas_used = 0usize;
    let files_scanned = files.len();
    for f in &files {
        let src = std::fs::read_to_string(&f.path)
            .map_err(|e| format!("cannot read {}: {e}", f.path.display()))?;
        let (file_findings, used) = analyze_source_with_stats(&f.rel, &src, f.sim_facing);
        pragmas_used += used;
        findings.extend(file_findings);
    }
    findings.sort_by_key(Finding::sort_key);
    Ok(WorkspaceReport {
        findings,
        files_scanned,
        pragmas_used,
    })
}

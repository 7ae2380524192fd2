//! Workspace discovery: which files to lint, and under which crate.
//!
//! The walker reads `members` from the root `Cargo.toml` and lints only
//! those crates (plus the root package, which Cargo makes an implicit
//! member). Everything else — `vendor/` stubs, `target/`, stray
//! checkouts — is never touched, so vendored proptest/rand
//! sources cannot pollute the findings. Within a member, the walker
//! visits `src/`, `tests/`, `benches/` and `examples/`, skipping any
//! `fixtures` directory (the lint's own golden corpus is deliberately
//! full of violations).

use std::fs;
use std::path::{Path, PathBuf};

use crate::analyze::SIM_FACING_CRATES;

/// One `.rs` file scheduled for analysis.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute (or root-joined) path on disk.
    pub path: PathBuf,
    /// Workspace-relative path used in findings.
    pub rel: String,
    /// Owning crate's package name.
    pub package: String,
    /// Whether D001/D004 apply.
    pub sim_facing: bool,
}

/// Directories walked inside each member crate.
const MEMBER_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// Enumerates every lintable `.rs` file under the workspace at `root`,
/// in deterministic (sorted) order.
///
/// # Errors
///
/// Returns a human-readable message when the root manifest is missing
/// or unreadable.
pub fn workspace_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let manifest = root.join("Cargo.toml");
    let text = fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let mut member_dirs: Vec<PathBuf> = Vec::new();
    for pattern in parse_members(&text) {
        if let Some(prefix) = pattern.strip_suffix("/*") {
            let dir = root.join(prefix);
            let mut subdirs: Vec<PathBuf> = fs::read_dir(&dir)
                .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            subdirs.sort();
            member_dirs.extend(subdirs);
        } else {
            let dir = root.join(&pattern);
            if dir.join("Cargo.toml").is_file() {
                member_dirs.push(dir);
            }
        }
    }
    // The root package is an implicit workspace member.
    if text.contains("[package]") {
        member_dirs.push(root.to_path_buf());
    }

    let mut files = Vec::new();
    for dir in member_dirs {
        let name = package_name(&dir.join("Cargo.toml"))
            .ok_or_else(|| format!("no package name in {}", dir.display()))?;
        let sim_facing = SIM_FACING_CRATES.contains(&name.as_str());
        for sub in MEMBER_DIRS {
            let d = dir.join(sub);
            if d.is_dir() {
                collect_rs(&d, &mut |p| {
                    let rel = p
                        .strip_prefix(root)
                        .unwrap_or(p)
                        .to_string_lossy()
                        .replace('\\', "/");
                    files.push(SourceFile {
                        path: p.to_path_buf(),
                        rel,
                        package: name.clone(),
                        sim_facing,
                    });
                });
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// Recursively collects `.rs` files under `dir` (sorted), skipping
/// `fixtures` directories.
fn collect_rs(dir: &Path, push: &mut dyn FnMut(&Path)) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, push);
        } else if p.extension().is_some_and(|e| e == "rs") {
            push(&p);
        }
    }
}

/// Extracts the `members = [...]` entries from a workspace manifest.
/// Hand-rolled like everything else here: scan for the key, then pull
/// the quoted strings out of the bracketed list.
fn parse_members(manifest: &str) -> Vec<String> {
    let Some(at) = manifest.find("members") else {
        return Vec::new();
    };
    let rest = &manifest[at..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find(']') else {
        return Vec::new();
    };
    rest[open..open + close]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The `name = "..."` of a member's `[package]` section.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let pkg = &text[text.find("[package]")?..];
    for line in pkg.lines().skip(1) {
        let line = line.trim();
        if line.starts_with('[') {
            break;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                return Some(rest.trim().trim_matches('"').to_string());
            }
        }
    }
    // A workspace-only root manifest with `[package]` later is not
    // expected; fall back to the directory name.
    manifest
        .parent()
        .and_then(|d| d.file_name())
        .map(|n| n.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_globs_and_literals() {
        let toml = "[workspace]\nmembers = [\"crates/*\", \"tools/x\"]\n";
        assert_eq!(parse_members(toml), ["crates/*", "tools/x"]);
    }

    #[test]
    fn missing_members_is_empty() {
        assert!(parse_members("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn own_workspace_enumerates_and_classifies() {
        // The test binary runs from the crate dir; the workspace root
        // is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let files = workspace_files(root).expect("workspace walks");
        assert!(files
            .iter()
            .any(|f| f.rel == "crates/simcore/src/engine.rs"));
        assert!(
            files.iter().all(|f| !f.rel.contains("vendor/")),
            "vendored crates must never be linted"
        );
        assert!(
            files.iter().all(|f| !f.rel.contains("/fixtures/")),
            "lint fixtures must never be linted"
        );
        let sim = files
            .iter()
            .find(|f| f.rel == "crates/overlay/src/kademlia.rs")
            .expect("kademlia present");
        assert!(sim.sim_facing);
        let lint = files
            .iter()
            .find(|f| f.rel == "crates/lint/src/lib.rs")
            .expect("lint present");
        assert!(!lint.sim_facing);
        assert_eq!(lint.package, "decent-lint");
        // decent-net is sim-facing (its sim backend feeds the engine);
        // only the explicit REAL_TIME_PATHS allowlist relaxes the
        // wall-clock/entropy rules, and that happens per-file in the
        // analyzer, not here.
        let net = files
            .iter()
            .find(|f| f.rel == "crates/net/src/tcp.rs")
            .expect("decent-net present");
        assert!(net.sim_facing);
        assert_eq!(net.package, "decent-net");
    }
}

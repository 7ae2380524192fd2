//! `decent-lint` CLI.
//!
//! ```text
//! cargo run -p decent-lint -- --workspace [--root DIR] [--md PATH] [--quiet]
//! cargo run -p decent-lint -- --rules
//! cargo run -p decent-lint -- --explain D007
//! ```
//!
//! Exit status: 0 when clean, 1 when any finding (including unused or
//! malformed pragmas) survives, 2 on usage or I/O errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use decent_lint::{
    lint_workspace, report,
    rules::{Rule, ALL_RULES},
};

struct Cli {
    workspace: bool,
    root: PathBuf,
    md: Option<PathBuf>,
    quiet: bool,
    rules: bool,
    explain: Option<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workspace: false,
        root: PathBuf::from("."),
        md: None,
        quiet: false,
        rules: false,
        explain: None,
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => cli.workspace = true,
            "--rules" => cli.rules = true,
            "--quiet" => cli.quiet = true,
            "--root" => {
                cli.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--md" => {
                cli.md = Some(PathBuf::from(args.next().ok_or("--md needs a path")?));
            }
            "--explain" => {
                cli.explain = Some(args.next().ok_or("--explain needs a rule id (e.g. D007)")?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !cli.workspace && !cli.rules && cli.explain.is_none() {
        return Err("nothing to do: pass --workspace (and optionally --md PATH)".to_string());
    }
    Ok(cli)
}

/// Renders the `--explain` page for one rule.
fn explain(rule: Rule) -> String {
    format!(
        "{} — {}\n\n{}\n\nExample (violates {}):\n\n{}\n",
        rule.code(),
        rule.summary(),
        rule.rationale(),
        rule.code(),
        rule.example()
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
    )
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("decent-lint: {e}");
            eprintln!(
                "usage: decent-lint --workspace [--root DIR] [--md PATH] [--quiet] \
                 | --rules | --explain CODE"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(id) = &cli.explain {
        let Some(rule) = Rule::parse_any(id) else {
            eprintln!("decent-lint: unknown rule id `{id}` (try --rules for the list)");
            return ExitCode::from(2);
        };
        print!("{}", explain(rule));
        return ExitCode::SUCCESS;
    }
    if cli.rules {
        for r in ALL_RULES {
            println!("{}  {}", r.code(), r.summary());
        }
        if !cli.workspace {
            return ExitCode::SUCCESS;
        }
    }
    let ws = match lint_workspace(&cli.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("decent-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &cli.md {
        let doc = report::to_markdown(&ws.findings, ws.files_scanned, ws.pragmas_used);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("decent-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !cli.quiet {
        print!(
            "{}",
            report::to_text(&ws.findings, ws.files_scanned, ws.pragmas_used)
        );
    }
    if ws.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<(), String> {
        parse_args(args.iter().map(|a| a.to_string())).map(|_| ())
    }

    #[test]
    fn the_removed_json_flags_are_unknown_arguments() {
        assert!(parse(&["--workspace", "--md", "x.md", "--quiet"]).is_ok());
        for flag in ["--json", "--schema-check"] {
            let err = parse(&["--workspace", flag, "x.json"]).unwrap_err();
            assert_eq!(err, format!("unknown argument `{flag}`"));
        }
    }
}

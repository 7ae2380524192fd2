//! Findings output: human-readable text, and a markdown per-rule table
//! for CI step summaries.

use crate::rules::{Finding, ALL_RULES};

/// Renders findings as human-readable lines plus a summary tail.
pub fn to_text(findings: &[Finding], files_scanned: usize, pragmas_used: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str(&format!(
            "decent-lint: clean — {files_scanned} files scanned, {pragmas_used} pragma(s) in use\n"
        ));
    } else {
        out.push_str(&format!(
            "decent-lint: {} finding(s) in {files_scanned} files\n",
            findings.len()
        ));
    }
    out
}

/// Renders the per-rule finding table as GitHub-flavored markdown, for
/// `$GITHUB_STEP_SUMMARY`. Deterministic: rules in report order, then
/// the findings (if any) as `file:line` detail lines.
pub fn to_markdown(findings: &[Finding], files_scanned: usize, pragmas_used: usize) -> String {
    let mut s = String::new();
    s.push_str("## decent-lint\n\n");
    s.push_str(&format!(
        "{} finding(s) across {files_scanned} file(s); {pragmas_used} pragma(s) in use.\n\n",
        findings.len()
    ));
    s.push_str("| rule | summary | findings |\n|---|---|---:|\n");
    for rule in ALL_RULES {
        let n = findings.iter().filter(|f| f.rule == rule).count();
        s.push_str(&format!("| {} | {} | {n} |\n", rule.code(), rule.summary()));
    }
    if !findings.is_empty() {
        s.push_str("\n### Findings\n\n");
        for f in findings {
            s.push_str(&format!(
                "- `{}:{}` **{}** — {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding() -> Finding {
        Finding {
            file: "crates/x/src/a.rs".to_string(),
            line: 7,
            rule: Rule::D002,
            message: "`Instant::now()`".to_string(),
        }
    }

    #[test]
    fn text_summarizes() {
        assert!(to_text(&[], 10, 2).contains("clean"));
        assert!(to_text(&[finding()], 10, 0).contains("1 finding(s)"));
    }

    #[test]
    fn markdown_has_a_row_per_rule() {
        let md = to_markdown(&[finding()], 10, 1);
        for rule in ALL_RULES {
            assert!(md.contains(&format!("| {} |", rule.code())), "{rule:?}");
        }
        assert!(md.contains("| D002 |"));
        assert!(md.contains("`crates/x/src/a.rs:7`"));
        // Clean reports omit the findings section.
        assert!(!to_markdown(&[], 10, 0).contains("### Findings"));
    }
}

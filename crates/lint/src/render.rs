//! Text and JSON rendering of diagnostics.
//!
//! JSON is hand-rolled (the build environment is offline, so no serde);
//! the shape matches the benchmark suite's reports: stable key order,
//! one object per diagnostic.
//!
//! Severity in the rendered output is post-grading: `--deny`
//! escalations are applied first, then the fidelity cap — a file whose
//! analysis degraded to a cheaper engine reports at most warning
//! severity, even for denied checks, and therefore never drives the
//! exit-1-on-errors path by itself (the per-file `fidelity`/`degraded`
//! JSON keys say when the cap was in effect). README "Linting" and
//! DESIGN.md §6 state the same contract.

use crate::runner::FileReport;
use crate::{Diagnostic, DiagnosticCounts};
use pta_core::trace::json_escape;
use std::fmt::Write as _;

/// Renders file reports the way compilers do:
/// `path:line:col: severity[check-id]: message`, with a trailing
/// per-severity summary line.
pub fn render_text(reports: &[FileReport]) -> String {
    let mut out = String::new();
    let mut counts = DiagnosticCounts::default();
    for r in reports {
        if let Some(err) = &r.error {
            let _ = writeln!(out, "{}: failed: {}", r.path, err);
            continue;
        }
        for d in &r.diagnostics {
            let _ = writeln!(out, "{}:{}", r.path, d);
        }
        let c = DiagnosticCounts::of(&r.diagnostics);
        counts.errors += c.errors;
        counts.warnings += c.warnings;
    }
    let _ = writeln!(
        out,
        "{} error{}, {} warning{}",
        counts.errors,
        if counts.errors == 1 { "" } else { "s" },
        counts.warnings,
        if counts.warnings == 1 { "" } else { "s" },
    );
    out
}

/// The versioned schema tag on `pta lint --json` output. Bumped on any
/// incompatible shape change (like the store's `pta.v1` and the load
/// generator's `pta.load.v1`).
pub const LINT_SCHEMA: &str = "pta.lint.v1";

/// Renders file reports as one JSON document, tagged
/// `"schema": "pta.lint.v1"`, with per-check finding counts over the
/// whole run (every registered check appears, zero or not — consumers
/// can diff coverage without knowing the registry).
pub fn render_json(reports: &[FileReport]) -> String {
    let mut out = format!("{{\n  \"schema\": \"{LINT_SCHEMA}\",\n  \"files\": [\n");
    let mut counts = DiagnosticCounts::default();
    let mut per_check: Vec<(&'static str, usize)> = crate::all_checks()
        .iter()
        .map(|c| (c.id(), 0usize))
        .collect();
    for (i, r) in reports.iter().enumerate() {
        let sep = if i + 1 == reports.len() { "" } else { "," };
        out.push_str("    {\"path\": \"");
        out.push_str(&json_escape(&r.path));
        out.push('"');
        if let Some(err) = &r.error {
            let _ = write!(out, ", \"error\": \"{}\"", json_escape(err));
            let _ = writeln!(out, "}}{sep}");
            continue;
        }
        if let Some(fid) = r.fidelity {
            let _ = write!(
                out,
                ", \"fidelity\": \"{}\", \"degraded\": {}",
                fid.tag(),
                !fid.is_full()
            );
        }
        out.push_str(", \"diagnostics\": [");
        for (j, d) in r.diagnostics.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&diagnostic_json(d));
        }
        let c = DiagnosticCounts::of(&r.diagnostics);
        counts.errors += c.errors;
        counts.warnings += c.warnings;
        for d in &r.diagnostics {
            if let Some(e) = per_check.iter_mut().find(|(id, _)| *id == d.check_id) {
                e.1 += 1;
            }
        }
        let _ = writeln!(out, "]}}{sep}");
    }
    out.push_str("  ],\n  \"counts\": {");
    for (i, (id, n)) in per_check.iter().enumerate() {
        let _ = write!(out, "{}\"{id}\": {n}", if i > 0 { ", " } else { "" });
    }
    let _ = write!(
        out,
        "}},\n  \"errors\": {}, \"warnings\": {}\n}}\n",
        counts.errors, counts.warnings
    );
    out
}

fn diagnostic_json(d: &Diagnostic) -> String {
    format!(
        "{{\"check\": \"{}\", \"severity\": \"{}\", \"fidelity\": \"{}\", \
         \"function\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
        d.check_id,
        d.severity.tag(),
        d.fidelity.tag(),
        json_escape(&d.function),
        d.span.line,
        d.span.col,
        json_escape(&d.message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::AnalysisConfig;

    fn report(src: &str) -> FileReport {
        crate::runner::lint_files(
            &[crate::runner::FileInput {
                path: "t.c".into(),
                source: src.into(),
            }],
            &AnalysisConfig::default(),
            &crate::LintOptions::default(),
            1,
        )
        .remove(0)
    }

    #[test]
    fn text_lists_path_line_and_summary() {
        let r = report("int main(void) { int *p; return *p; }");
        let txt = render_text(&[r]);
        assert!(txt.contains("t.c:"), "{txt}");
        assert!(txt.contains("error[null-deref]"), "{txt}");
        assert!(txt.lines().last().unwrap().contains("error"), "{txt}");
    }

    #[test]
    fn json_is_balanced_and_tagged() {
        let r = report("int main(void) { int *p; return *p; }");
        let js = render_json(&[r]);
        assert_eq!(
            js.matches('{').count(),
            js.matches('}').count(),
            "balanced braces: {js}"
        );
        assert!(js.contains("\"fidelity\": \"context-sensitive\""), "{js}");
        assert!(js.contains("\"check\": \"null-deref\""), "{js}");
    }

    #[test]
    fn json_is_schema_tagged_with_per_check_counts() {
        let r = report("int main(void) { int *p; return *p; }");
        let js = render_json(&[r]);
        assert!(js.contains("\"schema\": \"pta.lint.v1\""), "{js}");
        // Every registered check appears in the counts object, found
        // or not.
        for c in crate::all_checks() {
            assert!(
                js.contains(&format!("\"{}\":", c.id())),
                "counts lack `{}`: {js}",
                c.id()
            );
        }
        assert!(js.contains("\"null-deref\": 1"), "{js}");
        assert!(js.contains("\"dangling-stack\": 0"), "{js}");
    }

    #[test]
    fn frontend_failures_render_as_errors_not_panics() {
        let r = report("int main( {");
        assert!(r.error.is_some());
        let txt = render_text(std::slice::from_ref(&r));
        assert!(txt.contains("failed"), "{txt}");
        let js = render_json(&[r]);
        assert!(js.contains("\"error\""), "{js}");
    }
}

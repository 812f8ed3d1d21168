//! anomex-analyze: a std-only workspace linter for the anomex crates.
//!
//! Five per-file rules tuned to this codebase's failure modes —
//! lock-order violations, panics on serving hot paths, nondeterminism
//! in result computation, NaN-unsafe float ranking, and swallowed
//! errors in the serving stack — run over a hand-written Rust lexer.
//! On top of them, a workspace **call graph** ([`symbols`],
//! [`callgraph`]) powers three interprocedural passes: lock-set
//! propagation (cross-function `nested-lock`), `reactor-blocking`
//! (nothing reachable from the event loop may block), and panic
//! reachability (cross-crate `panic-path`). A finding is exempted only
//! at its site, with `// anomex: allow(<rule>) reason`; `--check` fails
//! on any other finding, which is what CI gates on. Every run lexes
//! every file afresh.
//!
//! The crate deliberately has **zero dependencies** (std only): it is
//! the first thing CI builds, and it must compile in environments with
//! no registry access.

pub mod callgraph;
pub mod lexer;
pub mod lock_order;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod walk;

use crate::lock_order::LockOrder;
use crate::rules::{all_rules, Finding, Rule};
use crate::source::SourceFile;
use std::path::PathBuf;

/// Outcome of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Active findings (test regions and suppressions already filtered).
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files: usize,
    /// Findings dropped by `anomex: allow` directives.
    pub suppressed: usize,
}

/// The built-in rule set against the committed lock-order manifest.
///
/// # Errors
/// When the manifest fails to parse (only possible with a broken
/// committed `lock_order.txt`, which the crate's own tests catch).
pub fn default_rules() -> Result<Vec<Box<dyn Rule>>, String> {
    let manifest = LockOrder::parse(lock_order::DEFAULT_MANIFEST).map_err(|e| e.to_string())?;
    Ok(all_rules(manifest))
}

/// Runs `rules` over an already-parsed file, applying test-region and
/// suppression filtering. Returns (findings, suppressed count).
fn run_rules(file: &SourceFile, rules: &[Box<dyn Rule>]) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for rule in rules {
        if !rule.applies_to(&file.path) {
            continue;
        }
        for f in rule.check(file) {
            if file.is_test_line(f.line) {
                continue;
            }
            if file.is_suppressed(f.rule, f.line) {
                suppressed += 1;
                continue;
            }
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (findings, suppressed)
}

/// Runs `rules` over one in-memory file, applying test-region and
/// suppression filtering. Returns (findings, suppressed count).
#[must_use]
pub fn analyze_source(path: &str, src: &str, rules: &[Box<dyn Rule>]) -> (Vec<Finding>, usize) {
    run_rules(&SourceFile::parse(path, src), rules)
}

/// Analyzes a list of (report path, filesystem path) files: the
/// per-file rules plus symbol extraction, then the interprocedural
/// passes over the linked summaries, checked against the workspace's
/// committed lock-order manifest.
///
/// # Errors
/// On unreadable files.
pub fn analyze_files(
    files: &[(String, PathBuf)],
    rules: &[Box<dyn Rule>],
) -> Result<Analysis, String> {
    let manifest = LockOrder::parse(lock_order::DEFAULT_MANIFEST).map_err(|e| e.to_string())?;
    let mut out = Analysis::default();
    let mut summaries = Vec::with_capacity(files.len());
    for (rel, path) in files {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let file = SourceFile::parse(rel, &src);
        let (findings, suppressed) = run_rules(&file, rules);
        out.findings.extend(findings);
        out.suppressed += suppressed;
        out.files += 1;
        // Integration tests and benches are test code end to end: their
        // fns must not join the production call graph (a test harness
        // deliberately sleeps/unwraps).
        if !is_test_file(rel) {
            summaries.push(symbols::extract(&file));
        }
    }

    // The interprocedural passes and the per-file rules have disjoint
    // domains (panic reachability only fires outside the hot crates,
    // where the per-file rule never runs; lock chains fire at call
    // sites, not acquisition sites), so their findings append directly.
    out.findings.extend(callgraph::interprocedural(
        &summaries,
        &manifest,
        &callgraph::crate_deps(files),
    ));
    out.findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(out)
}

/// Whether a path is an integration-test or bench tree (`tests/`,
/// `benches/` next to `src/`) — entirely test code, excluded from the
/// workspace call graph.
fn is_test_file(rel: &str) -> bool {
    rel.contains("/tests/") || rel.starts_with("tests/") || rel.contains("/benches/")
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn default_rules_build() {
        let rules = default_rules().unwrap();
        assert_eq!(rules.len(), 5);
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            vec![
                "nested-lock",
                "panic-path",
                "nondeterminism",
                "float-ordering",
                "swallowed-error"
            ]
        );
    }

    #[test]
    fn test_regions_are_filtered() {
        let rules = default_rules().unwrap();
        let src = "\
fn hot() { v.unwrap(); }

#[cfg(test)]
mod unit_tests {
    #[test]
    fn t() { v.unwrap(); }
}";
        let (findings, _) = analyze_source("crates/core/src/x.rs", src, &rules);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn suppressions_are_filtered_and_counted() {
        let rules = default_rules().unwrap();
        let src = "\
fn hot() {
    a.unwrap(); // anomex: allow(panic-path) infallible by construction
    b.unwrap();
}";
        let (findings, suppressed) = analyze_source("crates/core/src/x.rs", src, &rules);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn findings_are_sorted_by_line() {
        let rules = default_rules().unwrap();
        let src = "fn f() {\n    b.unwrap();\n    let x = scores.partial_cmp(&y);\n}";
        let (findings, _) = analyze_source("crates/core/src/x.rs", src, &rules);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}

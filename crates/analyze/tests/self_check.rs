//! Self-hosting checks: the workspace analyzes clean, and the fixture
//! corpus trips every rule (including the interprocedural ones, with
//! call-chain evidence).

use anomex_analyze::walk::rust_files;
use anomex_analyze::{analyze_files, default_rules, Analysis};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze has a workspace two levels up")
        .to_path_buf()
}

fn analyze(root: &Path, prefix: &str, skip_fixtures: bool) -> anomex_analyze::Analysis {
    let rules = default_rules().expect("committed manifest parses");
    let files: Vec<(String, PathBuf)> = rust_files(root)
        .expect("workspace walks")
        .into_iter()
        .map(|(rel, path)| (format!("{prefix}{rel}"), path))
        .filter(|(rel, _)| !skip_fixtures || !rel.contains("crates/analyze/fixtures/"))
        .collect();
    assert!(!files.is_empty(), "no .rs files under {}", root.display());
    analyze_files(&files, &rules).expect("all files readable")
}

#[test]
fn workspace_analyzes_clean() {
    let analysis = analyze(&workspace_root(), "", true);
    assert!(
        analysis.findings.is_empty(),
        "findings on the workspace:\n{}",
        analysis
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixture_corpus_trips_every_rule() {
    let root = workspace_root().join("crates/analyze/fixtures");
    let analysis = analyze(&root, "crates/analyze/fixtures/", false);
    let tripped: BTreeSet<&str> = analysis.findings.iter().map(|f| f.rule).collect();
    for rule in [
        "nested-lock",
        "panic-path",
        "nondeterminism",
        "float-ordering",
        "swallowed-error",
        "reactor-blocking",
    ] {
        assert!(tripped.contains(rule), "fixtures never tripped {rule}");
    }
    assert!(
        analysis.suppressed >= 3,
        "clean.rs should exercise suppressions (saw {})",
        analysis.suppressed
    );
    let clean: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.path.ends_with("clean.rs"))
        .collect();
    assert!(clean.is_empty(), "clean.rs must not fire: {clean:?}");
}

/// Analyzes exactly one fixture file (interprocedural passes included).
fn analyze_fixture(name: &str) -> Analysis {
    let rel = format!("crates/analyze/fixtures/{name}");
    let path = workspace_root().join(&rel);
    let rules = default_rules().expect("committed manifest parses");
    analyze_files(&[(rel, path)], &rules).expect("fixture readable")
}

#[test]
fn lock_chain_fixture_trips_interprocedural_nested_lock() {
    let analysis = analyze_fixture("lock_chain.rs");
    let f: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "nested-lock")
        .collect();
    assert_eq!(
        f.len(),
        1,
        "exactly the seeded chain: {:?}",
        analysis.findings
    );
    assert_eq!(
        f[0].line, 8,
        "flagged at the call site, not the acquisition"
    );
    assert!(
        f[0].message.contains("chain:") && f[0].message.contains("->"),
        "call-chain evidence: {}",
        f[0].message
    );
    assert!(
        f[0].message.contains("drain_under_guard") && f[0].message.contains("refill_slot"),
        "names both ends: {}",
        f[0].message
    );
}

#[test]
fn nondeterminism_fixture_trips_clock_entropy_and_hash_order() {
    let analysis = analyze_fixture("nondeterminism.rs");
    let msgs: Vec<&str> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "nondeterminism")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        msgs.iter().any(|m| m.contains("Instant")),
        "wall clock in compute: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("thread_rng")),
        "entropy-seeded sampling: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("scores")),
        "hash-order iteration: {msgs:?}"
    );
}

#[test]
fn reactor_blocking_fixture_trips_with_chain_and_respects_suppression() {
    let analysis = analyze_fixture("reactor_blocking.rs");
    let f: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "reactor-blocking")
        .collect();
    let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("std::thread::sleep")),
        "sleep: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("println!")),
        "stdio: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("File::open")),
        "file I/O: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("unclassified lock")),
        "unclassified lock: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .all(|m| m.contains("via Reactor::tick -> dispatch_ready")),
        "every finding carries the dispatch chain: {msgs:?}"
    );
    assert!(
        f.iter().all(|f| f.line < 28),
        "never_reached_from_reactor must stay silent: {f:?}"
    );
    assert!(
        !msgs.iter().any(|m| m.contains("eprintln!")),
        "suppressed stdio site must not fire: {msgs:?}"
    );
}

#[test]
fn panic_reach_fixture_trips_with_chain() {
    let analysis = analyze_fixture("panic_reach.rs");
    let f: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "panic-path" && f.message.contains("reachable via"))
        .collect();
    assert_eq!(f.len(), 1, "{:?}", analysis.findings);
    assert_eq!(f[0].line, 11, "the unwrap inside the helper");
    assert!(
        f[0].message.contains("hot_entry -> summarize_tail"),
        "chain evidence: {}",
        f[0].message
    );
}

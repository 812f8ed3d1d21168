//! The CLI's exit codes, run from the workspace root as CI runs it: 0
//! when `--check` finds nothing, 1 when it finds something, 2 on a
//! usage error.

use std::path::Path;
use std::process::{Command, Output};

const USAGE: &str = "usage: anomex-analyze [--check] [--list-rules] [paths...]";

fn run(args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze has a workspace two levels up");
    Command::new(env!("CARGO_BIN_EXE_anomex-analyze"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("the analyzer binary runs")
}

#[test]
fn check_passes_on_the_workspace() {
    let out = run(&["--check"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn check_fails_on_the_fixture_corpus_and_each_interprocedural_fixture() {
    for path in [
        "crates/analyze/fixtures",
        "crates/analyze/fixtures/lock_chain.rs",
        "crates/analyze/fixtures/reactor_blocking.rs",
        "crates/analyze/fixtures/panic_reach.rs",
    ] {
        let out = run(&["--check", path]);
        assert_eq!(out.status.code(), Some(1), "{path} must fail the gate");
    }
}

#[test]
fn help_and_removed_flags_exit_2_with_the_usage() {
    for args in [
        &["--help"][..],
        &["--write-baseline"],
        &["--baseline", "baseline.txt"],
        &["--format", "json"],
        &["--cache", "cache.txt"],
        &["--no-cache"],
        &["--lock-order", "crates/analyze/lock_order.txt"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(USAGE), "{args:?}: {stderr}");
    }
}

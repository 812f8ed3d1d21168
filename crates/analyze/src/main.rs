//! CLI for anomex-analyze.
//!
//! ```text
//! anomex-analyze [--check] [--list-rules] [paths...]
//! ```
//!
//! With no paths, the workspace rooted at the current directory is
//! analyzed (the fixture corpus under `crates/analyze/fixtures/` is
//! skipped unless a fixtures path is given explicitly). Default mode
//! reports and exits 0; `--check` exits 1 on any finding — that is the
//! CI gate. A finding is exempted only at its site, with
//! `// anomex: allow(<rule>) <reason>`. Usage errors and unreadable
//! files exit 2.

use anomex_analyze::walk::rust_files;
use anomex_analyze::{analyze_files, default_rules};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    check: bool,
    list_rules: bool,
    paths: Vec<PathBuf>,
}

const USAGE: &str = "usage: anomex-analyze [--check] [--list-rules] [paths...]";

fn parse_opts(args: std::env::Args) -> Result<Opts, String> {
    let mut opts = Opts {
        check: false,
        list_rules: false,
        paths: Vec::new(),
    };
    for arg in args.skip(1) {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'\n{USAGE}"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    Ok(opts)
}

/// Files to analyze: the union over the requested roots, with report
/// paths prefixed by each root so per-crate rule scoping (which matches
/// on workspace-relative paths) works for sub-tree invocations too.
fn gather(paths: &[PathBuf]) -> Result<Vec<(String, PathBuf)>, String> {
    let roots: Vec<PathBuf> = if paths.is_empty() {
        vec![PathBuf::from(".")]
    } else {
        paths.to_vec()
    };
    let mut out = Vec::new();
    for root in &roots {
        let root_str = root.to_string_lossy().replace('\\', "/");
        let prefix = match root_str.trim_end_matches('/') {
            "." | "" => String::new(),
            other => format!("{other}/"),
        };
        if root.is_file() {
            let rel = root_str.trim_start_matches("./").to_string();
            out.push((rel, root.clone()));
            continue;
        }
        for (rel, path) in rust_files(root)? {
            let rel = format!("{prefix}{rel}");
            // The seeded-violation corpus only runs when asked for
            // explicitly; the workspace gate must stay green.
            if prefix.is_empty() && rel.contains("crates/analyze/fixtures/") {
                continue;
            }
            out.push((rel, path));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_opts(std::env::args())?;
    let rules = default_rules()?;

    if opts.list_rules {
        for rule in &rules {
            println!("{:<16} {}", rule.id(), rule.description());
        }
        for (id, desc) in anomex_analyze::callgraph::INTERPROCEDURAL_RULES {
            println!("{id:<16} {desc}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let analysis = analyze_files(&gather(&opts.paths)?, &rules)?;
    for f in &analysis.findings {
        println!("{f}");
    }
    println!(
        "anomex-analyze: {} file(s), {} finding(s), {} suppressed",
        analysis.files,
        analysis.findings.len(),
        analysis.suppressed
    );
    if opts.check && !analysis.findings.is_empty() {
        eprintln!(
            "error: {} finding(s) — fix them, or add `// anomex: allow(<rule>) <reason>` \
             at a site that is provably fine",
            analysis.findings.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("anomex-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}

//! `panic-path`: panicking constructs in non-test code of the serving
//! and detector hot paths.
//!
//! A served request must never be able to take down a worker thread, and
//! detector kernels run under `catch_unwind` only at the outermost
//! batch layer — so `unwrap`/`expect`/`panic!`-family calls in `core`,
//! `serve` and `detectors` are findings; a site that provably cannot
//! panic carries an `anomex: allow(panic-path)` reason. In
//! `serve` (the request path proper) indexing expressions are also
//! flagged, since a malformed request must become a typed protocol
//! error, not an out-of-bounds panic.

use crate::lexer::Tok;
use crate::rules::{finding_at, in_fixtures, Finding, Rule};
use crate::source::SourceFile;

/// See the [module docs](self).
pub struct PanicPath;

/// Crates whose non-test code must not panic. `obs` is included: its
/// subscribers run inline on every instrumented hot path, so a panic
/// there takes the traced computation down with it. `spec` is included:
/// its parsers run on every served request line, so malformed specs
/// must come back as `Err`, never as a worker-killing panic. `reactor`
/// is included: the event loop is single-threaded, so one panic drops
/// every open connection at once, not just the offending request's.
pub const HOT_PATHS: [&str; 6] = [
    "crates/core/src/",
    "crates/serve/src/",
    "crates/detectors/src/",
    "crates/obs/src/",
    "crates/spec/src/",
    "crates/reactor/src/",
];

/// Paths where indexing expressions are additionally flagged. `spec`
/// and `obs` joined `serve`/`reactor` once their index arithmetic was
/// bounds-proofed: both run on every request (spec parses the line,
/// obs records the latency), so a stray `[i]` is a served panic. The
/// SIMD kernel module joined when it landed: its blocked inner loops
/// are written entirely with zip/slice patterns, and this gate keeps
/// unchecked indexing from creeping back into the hottest loops in
/// the codebase.
pub const STRICT_INDEX: [&str; 5] = [
    "crates/serve/src/",
    "crates/reactor/src/",
    "crates/spec/src/",
    "crates/obs/src/",
    "crates/detectors/src/simd.rs",
];

const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords after which a `[` opens a slice pattern, an array type, or
/// an array literal — never an indexing expression. The lexer folds
/// keywords into `Ident`, so without this list `let [a, b] = pair;`
/// and `&mut [f64]` parameters would read as indexing.
const NON_INDEX_KEYWORDS: [&str; 8] = ["let", "mut", "ref", "box", "in", "return", "else", "match"];

impl Rule for PanicPath {
    fn id(&self) -> &'static str {
        "panic-path"
    }

    fn description(&self) -> &'static str {
        "unwrap/expect/panic!-family (and indexing, in serve/reactor) on non-test hot paths"
    }

    fn applies_to(&self, path: &str) -> bool {
        in_fixtures(path) || HOT_PATHS.iter().any(|p| path.contains(p))
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let strict_index =
            in_fixtures(&file.path) || STRICT_INDEX.iter().any(|p| file.path.contains(p));
        let toks = &file.tokens;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            let t = &toks[i];
            if let Some(name) = t.ident() {
                let method = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                if method && (name == "unwrap" || name == "expect") {
                    out.push(finding_at(
                        file,
                        self.id(),
                        i,
                        format!(
                            ".{name}() can panic on a hot path — return a typed error \
                             (or suppress with a reason if provably infallible)"
                        ),
                    ));
                } else if MACROS.contains(&name)
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                {
                    out.push(finding_at(
                        file,
                        self.id(),
                        i,
                        format!("{name}! aborts the worker — return a typed error instead"),
                    ));
                }
            } else if strict_index && t.is_punct('[') && i > 0 {
                // Indexing: `expr[...]` where expr ends in an identifier
                // or a closing bracket. Attributes (`#[...]`), macro
                // brackets (`vec![...]`) and types/patterns never match
                // because their previous token is punctuation.
                let prev = &toks[i - 1];
                let is_index = match &prev.kind {
                    Tok::Ident(name) => !NON_INDEX_KEYWORDS.contains(&name.as_str()),
                    _ => prev.is_punct(')') || prev.is_punct(']'),
                };
                if is_index {
                    out.push(finding_at(
                        file,
                        self.id(),
                        i,
                        "indexing can panic on the request path — validate and use .get()"
                            .to_string(),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        PanicPath.check(&SourceFile::parse(path, src))
    }

    #[test]
    fn applies_only_to_hot_paths_and_fixtures() {
        assert!(PanicPath.applies_to("crates/serve/src/service.rs"));
        assert!(PanicPath.applies_to("crates/core/src/engine.rs"));
        assert!(PanicPath.applies_to("crates/obs/src/registry.rs"));
        assert!(PanicPath.applies_to("crates/spec/src/detector.rs"));
        assert!(PanicPath.applies_to("crates/reactor/src/lib.rs"));
        assert!(PanicPath.applies_to("crates/analyze/fixtures/panic_path.rs"));
        assert!(!PanicPath.applies_to("crates/eval/src/report.rs"));
        assert!(!PanicPath.applies_to("crates/stats/src/rank.rs"));
    }

    #[test]
    fn unwrap_and_expect_methods_are_flagged() {
        let f = run(
            "crates/core/src/x.rs",
            "let a = v.unwrap();\nlet b = w.expect(\"msg\");",
        );
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let f = run(
            "crates/core/src/x.rs",
            "let a = v.unwrap_or(0);\nlet b = v.unwrap_or_else(f);\nlet c = v.unwrap_or_default();",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_family_macros_are_flagged() {
        let f = run(
            "crates/detectors/src/x.rs",
            "panic!(\"boom\");\nunreachable!();\ntodo!();\nunimplemented!();",
        );
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn free_fn_named_unwrap_is_not_flagged() {
        let f = run("crates/core/src/x.rs", "fn unwrap(x: u8) {} unwrap(3);");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn indexing_flagged_only_in_strict_crates() {
        let serve = run(
            "crates/serve/src/registry.rs",
            "let s = self.scores[point];",
        );
        assert_eq!(serve.len(), 1);
        let reactor = run("crates/reactor/src/lib.rs", "let b = buf[cursor];");
        assert_eq!(reactor.len(), 1);
        let spec = run("crates/spec/src/json.rs", "let b = bytes[pos];");
        assert_eq!(spec.len(), 1);
        let obs = run("crates/obs/src/registry.rs", "let b = buckets[i];");
        assert_eq!(obs.len(), 1);
        let simd = run("crates/detectors/src/simd.rs", "let v = cols[t];");
        assert_eq!(simd.len(), 1);
        let kernels = run("crates/detectors/src/kernels.rs", "let v = cols[t];");
        assert!(
            kernels.is_empty(),
            "only simd.rs is strict inside detectors: {kernels:?}"
        );
        let core = run("crates/core/src/x.rs", "let s = self.scores[point];");
        assert!(
            core.is_empty(),
            "indexing outside the strict crates is fine: {core:?}"
        );
    }

    #[test]
    fn attributes_macros_and_types_are_not_indexing() {
        let f = run(
            "crates/serve/src/x.rs",
            "#[derive(Debug)]\nlet v = vec![1, 2];\nlet t: [f64; 2] = [0.0, 0.0];",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn slicing_counts_as_indexing() {
        let f = run("crates/serve/src/x.rs", "let s = &rows[..k];");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn slice_patterns_and_array_types_are_not_indexing() {
        let f = run(
            "crates/serve/src/x.rs",
            "let [a, b] = pair;\nfn k(acc: &mut [f64], lanes: [f64; 4]) {}\nfor x in [1, 2] {}\nreturn [a, b];",
        );
        assert!(f.is_empty(), "{f:?}");
        // The keyword carve-out must not swallow real indexing.
        let g = run("crates/serve/src/x.rs", "let v = lanes[i];");
        assert_eq!(g.len(), 1);
    }
}

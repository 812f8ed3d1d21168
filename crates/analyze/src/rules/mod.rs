//! The rule engine: rule trait, findings, and the shared token helpers
//! lexical rules are built from.

pub mod float_ordering;
pub mod nested_lock;
pub mod nondeterminism;
pub mod panic_path;
pub mod swallowed_error;

use crate::source::SourceFile;
use std::fmt;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`panic-path`, `nested-lock`, ...).
    pub rule: &'static str,
    /// File path relative to the analysis root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Trimmed text of the offending line.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// A lint rule over one source file.
pub trait Rule {
    /// Stable rule id, usable in `anomex: allow(<id>)`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Whether the rule runs on `path` (relative, `/`-separated).
    /// Fixture files (any path containing `fixtures/`) are always in
    /// scope so the corpus can exercise every rule.
    fn applies_to(&self, path: &str) -> bool {
        let _ = path;
        true
    }
    /// Produces raw findings. Test-region and suppression filtering is
    /// the engine's job, not the rule's.
    fn check(&self, file: &SourceFile) -> Vec<Finding>;
}

/// Whether `path` is inside the fixture corpus (always analyzable, so
/// seeded violations fire regardless of per-crate applicability).
#[must_use]
pub fn in_fixtures(path: &str) -> bool {
    path.contains("fixtures/") || path.starts_with("fixtures")
}

/// Extracts the receiver chain *identifiers* of a method call whose
/// method-name token sits at `idx` (i.e. tokens look like
/// `recv . method`). Walks back over `ident`, `.`, `self`, `?`, and
/// balanced `[...]`/`(...)` groups; returns identifiers outermost-first.
///
/// `self.shards[i].lock` → `["self", "shards"]`;
/// `p.state.lock` → `["p", "state"]`.
#[must_use]
pub fn receiver_chain(file: &SourceFile, idx: usize) -> Vec<String> {
    let toks = &file.tokens;
    let mut out: Vec<String> = Vec::new();
    // idx points at the method ident; idx-1 must be `.`.
    let mut i = match idx.checked_sub(1) {
        Some(d) if toks[d].is_punct('.') => d,
        _ => return out,
    };
    // Before the `.`: a chain segment ends here.
    while let Some(prev) = i.checked_sub(1) {
        let t = &toks[prev];
        if t.is_punct(']') || t.is_punct(')') {
            // Skip the balanced group.
            let open = if t.is_punct(']') { '[' } else { '(' };
            let close = if t.is_punct(']') { ']' } else { ')' };
            let mut depth = 1usize;
            let mut j = prev;
            while depth > 0 {
                let Some(k) = j.checked_sub(1) else {
                    return out;
                };
                j = k;
                if toks[j].is_punct(close) {
                    depth += 1;
                } else if toks[j].is_punct(open) {
                    depth -= 1;
                }
            }
            i = j;
            // After skipping `[...]`, continue with what precedes it
            // (an ident for indexing, or nothing for a literal).
            let Some(p2) = i.checked_sub(1) else { break };
            if let Some(id) = toks[p2].ident() {
                out.push(id.to_string());
                i = p2;
            } else {
                break;
            }
        } else if let Some(id) = t.ident() {
            out.push(id.to_string());
            i = prev;
        } else if t.is_punct('?') {
            i = prev;
            continue;
        } else {
            break;
        }
        // Continue the chain only across `.`.
        match i.checked_sub(1) {
            Some(d) if toks[d].is_punct('.') => i = d,
            _ => break,
        }
    }
    out.reverse();
    out
}

/// Builds a finding at token `tok_idx` of `file`.
#[must_use]
pub fn finding_at(
    file: &SourceFile,
    rule: &'static str,
    tok_idx: usize,
    message: String,
) -> Finding {
    let line = file.tokens[tok_idx].line;
    Finding {
        rule,
        path: file.path.clone(),
        line,
        message,
        snippet: file.line(line).to_string(),
    }
}

/// All built-in rules, in reporting order.
#[must_use]
pub fn all_rules(lock_order: crate::lock_order::LockOrder) -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(nested_lock::NestedLock::new(lock_order)),
        Box::new(panic_path::PanicPath),
        Box::new(nondeterminism::Nondeterminism),
        Box::new(float_ordering::FloatOrdering),
        Box::new(swallowed_error::SwallowedError),
    ]
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn receiver_chains() {
        let f = SourceFile::parse(
            "x.rs",
            "self.shards[self.idx(key)].lock(); p.state.lock(); lock();",
        );
        let locks: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("lock"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            receiver_chain(&f, locks[0]),
            vec!["self".to_string(), "shards".to_string()]
        );
        assert_eq!(
            receiver_chain(&f, locks[1]),
            vec!["p".to_string(), "state".to_string()]
        );
        assert!(receiver_chain(&f, locks[2]).is_empty(), "free fn call");
    }
}

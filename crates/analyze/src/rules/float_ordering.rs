//! `float-ordering`: `partial_cmp` on score values.
//!
//! Every ranking in this workspace compares `f64` anomaly scores, and
//! `partial_cmp().unwrap()` panics the moment a NaN slips into a score
//! vector — exactly the degenerate-detector case the evaluation is
//! supposed to *measure*, not crash on. `f64::total_cmp` gives a total
//! order (NaN sorts last) and is what every existing sort site uses;
//! this rule keeps new code on the same footing by flagging any
//! `partial_cmp` mention in non-test code.

use crate::rules::{finding_at, Finding, Rule};
use crate::source::SourceFile;

/// See the [module docs](self).
pub struct FloatOrdering;

impl Rule for FloatOrdering {
    fn id(&self) -> &'static str {
        "float-ordering"
    }

    fn description(&self) -> &'static str {
        "partial_cmp in non-test code — use f64::total_cmp for NaN-safe ranking"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("partial_cmp") {
                out.push(finding_at(
                    file,
                    self.id(),
                    i,
                    "partial_cmp returns None for NaN — rank with f64::total_cmp instead"
                        .to_string(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        FloatOrdering.check(&SourceFile::parse("crates/stats/src/rank.rs", src))
    }

    #[test]
    fn partial_cmp_is_flagged() {
        let f = run("scores.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("total_cmp"));
    }

    #[test]
    fn qualified_partial_cmp_is_flagged() {
        let f = run("let o = f64::partial_cmp(&a, &b);");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn total_cmp_is_clean() {
        assert!(run("scores.sort_by(|a, b| a.total_cmp(b));").is_empty());
    }

    #[test]
    fn string_mention_is_not_flagged() {
        assert!(run("let s = \"partial_cmp\";").is_empty());
    }
}

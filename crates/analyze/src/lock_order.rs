//! The declared lock-ordering manifest behind the `nested-lock` rule.
//!
//! The workspace's sync primitives are classified by (file path
//! substring, receiver field name) into named **lock classes**, and a
//! set of `order` chains declares the only permitted acquisition
//! nesting: a lock may be taken while another is held only when the
//! held lock's class comes strictly earlier in some declared chain
//! (transitively). Everything else — reversed order, unordered pairs,
//! re-acquiring the same class, locks the manifest does not know —
//! is a finding.
//!
//! Manifest syntax (`lock_order.txt`), one directive per line:
//!
//! ```text
//! # comment
//! class <name> <path-substring> <ident>[,<ident>...]
//! order <name> <name> [<name>...]
//! reactorsafe <name> [<name>...]
//! ```
//!
//! `reactorsafe` marks classes whose critical sections are bounded
//! (no I/O, no waiting on other work) and therefore acceptable to
//! acquire on the single-threaded reactor loop; the `reactor-blocking`
//! interprocedural rule flags every other lock acquisition reachable
//! from the event loop.

use std::collections::BTreeSet;

/// One lock class declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClassDecl {
    name: String,
    path_substr: String,
    idents: Vec<String>,
}

/// The parsed manifest: classifications plus the permitted partial order.
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    classes: Vec<ClassDecl>,
    /// `before` holds every (a, b) pair with a strictly before b,
    /// transitively closed over the declared chains.
    before: BTreeSet<(String, String)>,
    /// Classes declared safe to acquire on the reactor thread.
    reactor_safe: BTreeSet<String>,
}

/// A manifest parse error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line of the offending directive.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lock-order manifest line {}: {}",
            self.line, self.message
        )
    }
}

impl LockOrder {
    /// Parses a manifest.
    ///
    /// # Errors
    /// On malformed directives, unknown class names in `order` lines, or
    /// contradictory chains (a before b and b before a).
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let mut classes: Vec<ClassDecl> = Vec::new();
        let mut chains: Vec<(usize, Vec<String>)> = Vec::new();
        let mut safe: Vec<(usize, Vec<String>)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("class") => {
                    let (Some(name), Some(path), Some(idents)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(ManifestError {
                            line: i + 1,
                            message: "class needs: class <name> <path-substring> <idents>".into(),
                        });
                    };
                    classes.push(ClassDecl {
                        name: name.to_string(),
                        path_substr: path.to_string(),
                        idents: idents.split(',').map(str::to_string).collect(),
                    });
                }
                Some("order") => {
                    let names: Vec<String> = parts.map(str::to_string).collect();
                    if names.len() < 2 {
                        return Err(ManifestError {
                            line: i + 1,
                            message: "order needs at least two class names".into(),
                        });
                    }
                    chains.push((i + 1, names));
                }
                Some("reactorsafe") => {
                    let names: Vec<String> = parts.map(str::to_string).collect();
                    if names.is_empty() {
                        return Err(ManifestError {
                            line: i + 1,
                            message: "reactorsafe needs at least one class name".into(),
                        });
                    }
                    safe.push((i + 1, names));
                }
                Some(other) => {
                    return Err(ManifestError {
                        line: i + 1,
                        message: format!("unknown directive '{other}'"),
                    });
                }
                None => {}
            }
        }
        let known: BTreeSet<&str> = classes.iter().map(|c| c.name.as_str()).collect();
        let mut before: BTreeSet<(String, String)> = BTreeSet::new();
        for (line, chain) in &chains {
            for name in chain {
                if !known.contains(name.as_str()) {
                    return Err(ManifestError {
                        line: *line,
                        message: format!("order references undeclared class '{name}'"),
                    });
                }
            }
            for a in 0..chain.len() {
                for b in a + 1..chain.len() {
                    before.insert((chain[a].clone(), chain[b].clone()));
                }
            }
        }
        // Transitive closure (the class count is tiny).
        loop {
            let mut added = Vec::new();
            for (a, b) in &before {
                for (c, d) in &before {
                    if b == c && !before.contains(&(a.clone(), d.clone())) {
                        added.push((a.clone(), d.clone()));
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            before.extend(added);
        }
        for (a, b) in &before {
            if before.contains(&(b.clone(), a.clone())) {
                return Err(ManifestError {
                    line: 0,
                    message: format!("contradictory order: '{a}' and '{b}' each before the other"),
                });
            }
        }
        let mut reactor_safe = BTreeSet::new();
        for (line, names) in safe {
            for name in names {
                if !known.contains(name.as_str()) {
                    return Err(ManifestError {
                        line,
                        message: format!("reactorsafe references undeclared class '{name}'"),
                    });
                }
                reactor_safe.insert(name);
            }
        }
        Ok(LockOrder {
            classes,
            before,
            reactor_safe,
        })
    }

    /// Classifies a lock acquisition: the class name declared for
    /// (`path`, last identifier of the receiver chain), or `None` when
    /// the manifest does not know this lock.
    #[must_use]
    pub fn classify(&self, path: &str, receiver_last: &str) -> Option<&str> {
        self.classes
            .iter()
            .find(|c| path.contains(&c.path_substr) && c.idents.iter().any(|i| i == receiver_last))
            .map(|c| c.name.as_str())
    }

    /// Whether acquiring `inner` while `held` is held matches the
    /// declared order (`held` strictly before `inner`).
    #[must_use]
    pub fn allows(&self, held: &str, inner: &str) -> bool {
        self.before.contains(&(held.to_string(), inner.to_string()))
    }

    /// Whether `class` is declared safe to acquire on the reactor
    /// thread (`reactorsafe` directive).
    #[must_use]
    pub fn is_reactor_safe(&self, class: &str) -> bool {
        self.reactor_safe.contains(class)
    }
}

/// The workspace's committed manifest, compiled into the binary so the
/// gate needs no runtime file lookup.
pub const DEFAULT_MANIFEST: &str = include_str!("../lock_order.txt");

#[cfg(test)]
mod unit_tests {
    use super::*;

    const M: &str = "\
# test manifest
class outer  src/a.rs  state,queue
class inner  src/a.rs  slot
class other  src/b.rs  state
order outer inner
";

    #[test]
    fn parses_and_classifies() {
        let m = LockOrder::parse(M).unwrap();
        assert_eq!(m.classify("crates/x/src/a.rs", "state"), Some("outer"));
        assert_eq!(m.classify("crates/x/src/a.rs", "queue"), Some("outer"));
        assert_eq!(m.classify("crates/x/src/a.rs", "slot"), Some("inner"));
        assert_eq!(m.classify("crates/x/src/b.rs", "state"), Some("other"));
        assert_eq!(m.classify("crates/x/src/b.rs", "slot"), None);
    }

    #[test]
    fn order_is_directional_and_transitive() {
        let m = LockOrder::parse("class a p x\nclass b p y\nclass c p z\norder a b c\n").unwrap();
        assert!(m.allows("a", "b"));
        assert!(m.allows("a", "c"), "transitive");
        assert!(m.allows("b", "c"));
        assert!(!m.allows("b", "a"), "reverse is a violation");
        assert!(!m.allows("a", "a"), "re-acquiring the same class");
    }

    #[test]
    fn chains_compose_transitively() {
        let m = LockOrder::parse("class a p x\nclass b p y\nclass c p z\norder a b\norder b c\n")
            .unwrap();
        assert!(m.allows("a", "c"), "closure across separate chains");
    }

    #[test]
    fn errors_are_reported() {
        assert!(LockOrder::parse("class broken").is_err());
        assert!(LockOrder::parse("order a b").is_err(), "undeclared class");
        assert!(LockOrder::parse("frobnicate x").is_err());
        let contradiction = LockOrder::parse("class a p x\nclass b p y\norder a b\norder b a\n");
        assert!(contradiction.is_err());
    }

    #[test]
    fn reactorsafe_classes_parse_and_validate() {
        let m = LockOrder::parse("class a p x\nclass b p y\nreactorsafe a\n").unwrap();
        assert!(m.is_reactor_safe("a"));
        assert!(!m.is_reactor_safe("b"));
        assert!(!m.is_reactor_safe("unknown"));
        assert!(LockOrder::parse("reactorsafe ghost\n").is_err());
        assert!(LockOrder::parse("class a p x\nreactorsafe\n").is_err());
    }

    #[test]
    fn default_manifest_parses() {
        let m = LockOrder::parse(DEFAULT_MANIFEST).unwrap();
        assert_eq!(
            m.classify("crates/core/src/cache.rs", "shard"),
            Some("cache-shard")
        );
        assert!(m.allows("cache-shard", "cache-flight"));
        assert!(m.is_reactor_safe("batcher-state"));
    }
}

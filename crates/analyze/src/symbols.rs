//! Per-file symbol extraction for the interprocedural passes.
//!
//! One scan over a [`SourceFile`] produces a [`FileSummary`]: every
//! `fn` definition (qualified by its `impl`/`trait` block and inline
//! module), the call sites inside each body (with the set of lock
//! guards live at the call), lock acquisitions, panic sites, and
//! blocking-output macros. Test regions are excluded at extraction and
//! `anomex: allow` suppressions are resolved here, so the workspace
//! phase ([`crate::callgraph`]) never needs the source text again.

use crate::rules::nested_lock;
use crate::source::SourceFile;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(...)` — a bare identifier.
    Free,
    /// `recv.method(...)`.
    Method,
    /// `Type::assoc(...)`, `Self::assoc(...)`, `module::free(...)`.
    Path,
}

/// A lock guard live at a call site.
#[derive(Debug)]
pub struct HeldLock {
    /// Last identifier of the receiver chain (what the manifest keys on).
    pub receiver_last: String,
    /// Receiver description for messages (`self.map.lock()`).
    pub desc: String,
    /// Acquisition line.
    pub line: u32,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// `::`-joined qualifier for [`CallKind::Path`], else empty.
    pub qual: String,
    /// Receiver's last identifier for [`CallKind::Method`] (`self` for
    /// `self.helper()`), else empty.
    pub recv: String,
    /// Shape of the call.
    pub kind: CallKind,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line (finding snippet).
    pub snippet: String,
    /// Guards live when the call is made.
    pub held: Vec<HeldLock>,
    /// Lexically inside a `spawn(...)` argument: runs on another
    /// thread, with the caller's guards *not* held.
    pub spawned: bool,
    /// `anomex: allow(nested-lock)` covers this line.
    pub sup_nested: bool,
    /// `anomex: allow(reactor-blocking)` covers this line.
    pub sup_reactor: bool,
}

/// One lock acquisition inside a function body.
#[derive(Debug)]
pub struct LockAcq {
    /// Last identifier of the receiver chain.
    pub receiver_last: String,
    /// Receiver description for messages.
    pub desc: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line.
    pub snippet: String,
    /// Lexically inside a `spawn(...)` argument (another thread).
    pub spawned: bool,
    /// `anomex: allow(reactor-blocking)` covers this line.
    pub sup_reactor: bool,
}

/// One panic-capable site (`unwrap`/`expect` call or panic-family macro).
#[derive(Debug)]
pub struct PanicSite {
    /// What panics (`unwrap()`, `panic!`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line.
    pub snippet: String,
    /// `anomex: allow(panic-path)` covers this line.
    pub sup: bool,
}

/// A blocking-output macro (`println!`/`eprintln!`/`print!`/`eprint!`).
#[derive(Debug)]
pub struct BlockSite {
    /// The macro name with `!`.
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line.
    pub snippet: String,
    /// Lexically inside a `spawn(...)` argument (another thread).
    pub spawned: bool,
    /// `anomex: allow(reactor-blocking)` covers this line.
    pub sup: bool,
}

/// One `fn` definition.
#[derive(Debug, Default)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, or empty for free functions.
    pub qual: String,
    /// Defined in an inherent `impl Type` block — not a trait or an
    /// `impl Trait for Type`, whose methods `dyn` dispatch can reach
    /// from any crate.
    pub inherent: bool,
    /// Innermost inline `mod` name, or empty at file scope.
    pub module: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Trait/extern declarations have no body and produce no events.
    pub has_body: bool,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockAcq>,
    /// Panic sites in body order.
    pub panics: Vec<PanicSite>,
    /// Blocking-output macros in body order.
    pub blocking: Vec<BlockSite>,
}

impl FnDef {
    /// `Qual::name` or bare `name` — how findings render this function.
    #[must_use]
    pub fn display(&self) -> String {
        if self.qual.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.qual, self.name)
        }
    }
}

/// Everything the workspace phase needs to know about one file.
#[derive(Debug)]
pub struct FileSummary {
    /// Path relative to the analysis root.
    pub path: String,
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
}

/// Keywords that look like calls when followed by `(` but are not.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "return", "for", "loop", "in", "as", "move", "let", "fn",
    "impl", "where", "unsafe", "break", "continue", "await", "yield", "ref", "mut", "pub", "crate",
    "super", "self", "Self", "use", "mod", "struct", "enum", "trait", "type", "const", "static",
    "extern", "dyn", "box", "drop",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

struct Guard {
    receiver_last: String,
    desc: String,
    var: Option<String>,
    depth: usize,
    line: u32,
    temporary: bool,
}

struct FnFrame {
    def: FnDef,
    /// Brace depth of the body (depth value after its `{`).
    body_depth: usize,
    guards: Vec<Guard>,
    pending_let: Option<(String, usize)>,
}

/// Token spans `(open, close)` of every `spawn(...)` argument list:
/// code inside runs on a different thread, which the reactor-blocking
/// and lock-chain passes must not cross.
fn spawn_spans(toks: &[crate::lexer::Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("spawn") {
            continue;
        }
        let Some(open) = call_open(toks, i) else {
            continue;
        };
        let mut depth = 1usize;
        let mut j = open + 1;
        while depth > 0 {
            match toks.get(j) {
                Some(t) if t.is_punct('(') => depth += 1,
                Some(t) if t.is_punct(')') => depth -= 1,
                Some(_) => {}
                None => break,
            }
            j += 1;
        }
        spans.push((open, j));
    }
    spans
}

/// Extracts the symbol summary of one parsed file.
#[must_use]
pub fn extract(file: &SourceFile) -> FileSummary {
    let toks = &file.tokens;
    let mut out = FileSummary {
        path: file.path.clone(),
        fns: Vec::new(),
    };
    let spawns = spawn_spans(toks);
    let mut depth = 0usize;
    // (name, inherent, depth-after-open) for impl/trait blocks and
    // (name, depth-after-open) for mod blocks.
    let mut quals: Vec<(String, bool, usize)> = Vec::new();
    let mut mods: Vec<(String, usize)> = Vec::new();
    let mut frames: Vec<FnFrame> = Vec::new();
    // A header seen whose `{` lives at token index `.1`.
    let mut pending_fn: Option<(FnDef, usize)> = None;
    let mut pending_qual: Option<(String, bool, usize)> = None;
    let mut pending_mod: Option<(String, usize)> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            if pending_fn.as_ref().is_some_and(|(_, at)| *at == i) {
                let (def, _) = pending_fn.take().unwrap_or_default();
                frames.push(FnFrame {
                    def,
                    body_depth: depth,
                    guards: Vec::new(),
                    pending_let: None,
                });
            } else if pending_qual.as_ref().is_some_and(|(_, _, at)| *at == i) {
                let (name, inherent, _) = pending_qual.take().unwrap_or_default();
                quals.push((name, inherent, depth));
            } else if pending_mod.as_ref().is_some_and(|(_, at)| *at == i) {
                let (name, _) = pending_mod.take().unwrap_or_default();
                mods.push((name, depth));
            }
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            while frames.last().is_some_and(|f| f.body_depth > depth) {
                if let Some(frame) = frames.pop() {
                    out.fns.push(frame.def);
                }
            }
            if let Some(frame) = frames.last_mut() {
                frame.guards.retain(|g| g.depth <= depth);
                if frame.pending_let.as_ref().is_some_and(|(_, d)| *d > depth) {
                    frame.pending_let = None;
                }
            }
            quals.retain(|(_, _, d)| *d <= depth);
            mods.retain(|(_, d)| *d <= depth);
            i += 1;
            continue;
        }
        // Inside a signature or block header, nothing is a call/event;
        // wait for the `{` (or the `;` of a body-less declaration).
        if pending_fn.is_some() || pending_qual.is_some() || pending_mod.is_some() {
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            if let Some(frame) = frames.last_mut() {
                frame.guards.retain(|g| !(g.temporary && g.depth == depth));
                frame.pending_let = None;
            }
            i += 1;
            continue;
        }
        let Some(name) = t.ident() else {
            i += 1;
            continue;
        };
        match name {
            "fn" => {
                if let Some((def, body_at)) = fn_header(file, i, &quals, &mods) {
                    if let Some(at) = body_at {
                        pending_fn = Some((def, at));
                    } else {
                        out.fns.push(def); // declaration without a body
                    }
                }
            }
            "impl" | "trait" => {
                if let Some(header) = block_header(toks, i) {
                    pending_qual = Some(header);
                }
            }
            "mod" => {
                // `mod name {` only — `mod name;` declares a file module.
                if let (Some(mn), Some(open)) =
                    (toks.get(i + 1).and_then(|t| t.ident()), toks.get(i + 2))
                {
                    if open.is_punct('{') {
                        pending_mod = Some((mn.to_string(), i + 2));
                    }
                }
            }
            "let" => {
                if let Some(frame) = frames.last_mut() {
                    let mut j = i + 1;
                    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    if let Some(n) = toks.get(j).and_then(|t| t.ident()) {
                        frame.pending_let = Some((n.to_string(), depth));
                    }
                }
            }
            "drop"
                if toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                if let (Some(frame), Some(n)) =
                    (frames.last_mut(), toks.get(i + 2).and_then(|t| t.ident()))
                {
                    frame.guards.retain(|g| g.var.as_deref() != Some(n));
                }
            }
            _ => {
                if !file.is_test_line(t.line) {
                    let spawned = spawns.iter().any(|&(s, e)| i > s && i < e);
                    record_event(file, i, depth, spawned, &mut frames);
                }
            }
        }
        i += 1;
    }
    while let Some(frame) = frames.pop() {
        out.fns.push(frame.def);
    }
    if let Some((def, _)) = pending_fn {
        out.fns.push(def);
    }
    out.fns.sort_by_key(|f| f.line);
    out
}

/// Records whatever event the identifier at `i` constitutes (lock
/// acquisition, panic site, blocking macro, or call site) into the
/// innermost open function.
fn record_event(file: &SourceFile, i: usize, depth: usize, spawned: bool, frames: &mut [FnFrame]) {
    let toks = &file.tokens;
    let t = &toks[i];
    let Some(name) = t.ident() else { return };
    let Some(frame) = frames.last_mut() else {
        return;
    };
    let snippet = || file.line(t.line).to_string();

    // Lock acquisition (also covers the free `lock(&...)` helper).
    if let Some(acq) = nested_lock::acquisition(file, i) {
        frame.def.locks.push(LockAcq {
            receiver_last: acq.receiver_last.clone(),
            desc: acq.desc.clone(),
            line: t.line,
            snippet: snippet(),
            spawned,
            sup_reactor: file.is_suppressed("reactor-blocking", t.line),
        });
        frame.guards.push(Guard {
            receiver_last: acq.receiver_last,
            desc: acq.desc,
            var: frame.pending_let.as_ref().map(|(n, _)| n.clone()),
            depth,
            line: t.line,
            temporary: frame.pending_let.is_none(),
        });
        return;
    }

    // Panic-capable method calls.
    if (name == "unwrap" || name == "expect")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
    {
        frame.def.panics.push(PanicSite {
            what: format!("{name}()"),
            line: t.line,
            snippet: snippet(),
            sup: file.is_suppressed("panic-path", t.line),
        });
        return;
    }

    // Macros: panic family and blocking output.
    if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
        if PANIC_MACROS.contains(&name) {
            frame.def.panics.push(PanicSite {
                what: format!("{name}!"),
                line: t.line,
                snippet: snippet(),
                sup: file.is_suppressed("panic-path", t.line),
            });
        } else if PRINT_MACROS.contains(&name) {
            frame.def.blocking.push(BlockSite {
                what: format!("{name}!"),
                line: t.line,
                snippet: snippet(),
                spawned,
                sup: file.is_suppressed("reactor-blocking", t.line),
            });
        }
        return;
    }

    // Call sites.
    if KEYWORDS.contains(&name) {
        return;
    }
    let open = call_open(toks, i);
    if open.is_none() {
        return;
    }
    let (kind, qual, recv) = if i > 0 && toks[i - 1].is_punct('.') {
        let chain = crate::rules::receiver_chain(file, i);
        (
            CallKind::Method,
            String::new(),
            chain.last().cloned().unwrap_or_default(),
        )
    } else if let Some(q) = path_qual(toks, i) {
        (CallKind::Path, q, String::new())
    } else {
        (CallKind::Free, String::new(), String::new())
    };
    let held: Vec<HeldLock> = frame
        .guards
        .iter()
        .map(|g| HeldLock {
            receiver_last: g.receiver_last.clone(),
            desc: g.desc.clone(),
            line: g.line,
        })
        .collect();
    frame.def.calls.push(CallSite {
        name: name.to_string(),
        qual,
        recv,
        kind,
        line: t.line,
        snippet: snippet(),
        held,
        spawned,
        sup_nested: file.is_suppressed("nested-lock", t.line),
        sup_reactor: file.is_suppressed("reactor-blocking", t.line),
    });
}

/// Whether the identifier at `i` is followed by `(` — directly or via a
/// turbofish `::<...>` — making it call-shaped. Returns the index of
/// the `(`.
fn call_open(toks: &[crate::lexer::Token], i: usize) -> Option<usize> {
    if toks.get(i + 1)?.is_punct('(') {
        return Some(i + 1);
    }
    // Turbofish: name :: < ... > (
    if toks.get(i + 1)?.is_punct(':')
        && toks.get(i + 2)?.is_punct(':')
        && toks.get(i + 3)?.is_punct('<')
    {
        let mut angle = 1usize;
        let mut j = i + 4;
        while angle > 0 {
            let t = toks.get(j)?;
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !toks.get(j - 1).is_some_and(|p| p.is_punct('-')) {
                angle -= 1;
            }
            j += 1;
        }
        if toks.get(j)?.is_punct('(') {
            return Some(j);
        }
    }
    None
}

/// The `::`-joined qualifier path preceding the identifier at `i`
/// (`std::thread` for `std::thread::sleep(...)`), or `None` when the
/// identifier is not path-qualified.
fn path_qual(toks: &[crate::lexer::Token], i: usize) -> Option<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut k = i;
    while k >= 3
        && toks[k - 1].is_punct(':')
        && toks[k - 2].is_punct(':')
        && toks[k - 3].ident().is_some()
    {
        segs.push(toks[k - 3].ident().unwrap_or_default().to_string());
        k -= 3;
    }
    if segs.is_empty() {
        None
    } else {
        segs.reverse();
        Some(segs.join("::"))
    }
}

/// Parses a `fn` header starting at token `i` (the `fn` keyword):
/// returns the partial definition plus the token index of its body `{`
/// (`None` for body-less declarations).
fn fn_header(
    file: &SourceFile,
    i: usize,
    quals: &[(String, bool, usize)],
    mods: &[(String, usize)],
) -> Option<(FnDef, Option<usize>)> {
    let toks = &file.tokens;
    let name = toks.get(i + 1)?.ident()?.to_string();
    let line = toks[i].line;
    if file.is_test_line(line) {
        return None;
    }
    // Find the body `{` or the `;` of a declaration, at paren depth 0.
    // Angle depth is tracked so `fn f<F: Fn() -> Ordering>` parses; the
    // `->` arrow's `>` is skipped via its `-`.
    let mut paren = 0usize;
    let mut j = i + 2;
    let mut body_at = None;
    while let Some(t) = toks.get(j) {
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren = paren.saturating_sub(1);
        } else if t.is_punct('{') && paren == 0 {
            body_at = Some(j);
            break;
        } else if t.is_punct(';') && paren == 0 {
            break;
        }
        j += 1;
    }
    let def = FnDef {
        name,
        qual: quals.last().map(|(n, _, _)| n.clone()).unwrap_or_default(),
        inherent: quals.last().is_some_and(|(_, inherent, _)| *inherent),
        module: mods.last().map(|(n, _)| n.clone()).unwrap_or_default(),
        line,
        has_body: body_at.is_some(),
        ..FnDef::default()
    };
    Some((def, body_at))
}

/// Parses an `impl`/`trait` header at token `i`: the self-type (or
/// trait name), whether the block is an inherent `impl Type`, and the
/// token index of the block's `{`.
fn block_header(toks: &[crate::lexer::Token], i: usize) -> Option<(String, bool, usize)> {
    let mut angle = 0usize;
    let mut name: Option<String> = None;
    let mut inherent = toks[i].ident() == Some("impl");
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct('{') && angle == 0 {
            return name.map(|n| (n, inherent, j));
        }
        if t.is_punct(';') && angle == 0 {
            return None; // `impl Foo;` / associated-type noise — skip
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !toks.get(j - 1).is_some_and(|p| p.is_punct('-')) {
            angle = angle.saturating_sub(1);
        } else if angle == 0 {
            if let Some(id) = t.ident() {
                if id == "for" {
                    name = None; // the self-type follows
                    inherent = false;
                } else if name.is_none() && id != "dyn" {
                    name = Some(id.to_string());
                }
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    fn summarize(path: &str, src: &str) -> FileSummary {
        extract(&SourceFile::parse(path, src))
    }

    #[test]
    fn fn_defs_carry_impl_and_module_qualifiers() {
        let src = "\
fn free() {}
impl Engine {
    fn score(&self) { helper(); }
}
impl Display for Config {
    fn fmt(&self) {}
}
mod imp {
    fn wait() {}
}
trait Sink {
    fn emit(&self);
    fn flush(&self) { self.emit(); }
}";
        let s = summarize("crates/x/src/a.rs", src);
        let by_name: Vec<(String, String, String, bool)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.qual.clone(), f.module.clone(), f.has_body))
            .collect();
        assert!(by_name.contains(&("free".into(), String::new(), String::new(), true)));
        assert!(by_name.contains(&("score".into(), "Engine".into(), String::new(), true)));
        assert!(by_name.contains(&("fmt".into(), "Config".into(), String::new(), true)));
        assert!(by_name.contains(&("wait".into(), String::new(), "imp".into(), true)));
        assert!(by_name.contains(&("emit".into(), "Sink".into(), String::new(), false)));
        assert!(by_name.contains(&("flush".into(), "Sink".into(), String::new(), true)));
        // Only the inherent `impl Engine` block is inherent.
        let inherent: Vec<&str> = s
            .fns
            .iter()
            .filter(|f| f.inherent)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(inherent, vec!["score"]);
    }

    #[test]
    fn call_sites_classify_free_method_path_and_turbofish() {
        let src = "\
fn f() {
    helper();
    recv.method(1);
    Engine::assoc(2);
    std::thread::sleep(d);
    parse::<u32>(s);
}";
        let s = summarize("crates/x/src/a.rs", src);
        let calls = &s.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.name == n).expect(n);
        assert_eq!(find("helper").kind, CallKind::Free);
        assert_eq!(find("method").kind, CallKind::Method);
        assert_eq!(find("assoc").kind, CallKind::Path);
        assert_eq!(find("assoc").qual, "Engine");
        assert_eq!(find("sleep").qual, "std::thread");
        assert_eq!(find("parse").kind, CallKind::Free, "turbofish call");
    }

    #[test]
    fn held_locks_attach_to_calls_and_die_with_scope() {
        let src = "\
fn f(&self) {
    before();
    let g = self.map.lock();
    inside();
    drop(g);
    after();
}";
        let s = summarize("crates/x/src/a.rs", src);
        let calls = &s.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.name == n).expect(n);
        assert!(find("before").held.is_empty());
        assert_eq!(find("inside").held.len(), 1);
        assert_eq!(find("inside").held[0].receiver_last, "map");
        assert!(find("after").held.is_empty(), "drop releases");
        assert_eq!(s.fns[0].locks.len(), 1);
    }

    #[test]
    fn panic_and_blocking_sites_are_recorded_with_suppression() {
        let src = "\
fn f(v: Option<u32>) {
    v.unwrap();
    w.expect(\"must\"); // anomex: allow(panic-path) checked above
    panic!(\"boom\");
    println!(\"debug\");
    eprintln!(\"oops\"); // anomex: allow(reactor-blocking) fatal-exit path
}";
        let s = summarize("crates/x/src/a.rs", src);
        let f = &s.fns[0];
        assert_eq!(f.panics.len(), 3);
        assert!(!f.panics[0].sup);
        assert!(f.panics[1].sup);
        assert_eq!(f.panics[2].what, "panic!");
        assert_eq!(f.blocking.len(), 2);
        assert!(!f.blocking[0].sup);
        assert!(f.blocking[1].sup);
    }

    #[test]
    fn test_regions_produce_no_fns_or_events() {
        let src = "\
fn real() { used(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); helper(); }
}";
        let s = summarize("crates/x/src/a.rs", src);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
        assert_eq!(s.fns[0].calls.len(), 1);
    }

    #[test]
    fn signature_tokens_are_not_calls() {
        let src = "fn f<F: Fn(u32) -> u32>(g: F, x: impl Iterator<Item = u32>) { g2(); }";
        let s = summarize("crates/x/src/a.rs", src);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].calls.len(), 1);
        assert_eq!(s.fns[0].calls[0].name, "g2");
    }
}

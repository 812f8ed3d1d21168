//! The workspace call graph and the three interprocedural rules.
//!
//! [`CallGraph::build`] links every [`FnDef`] across the analyzed file
//! set. Resolution is heuristic and *may*-directed (a method call links
//! to every workspace method of that name), which over-approximates the
//! true graph — the right bias for rules whose findings are "this can
//! deadlock / block / panic":
//!
//! * free calls resolve same-file first, then same-crate, then
//!   tree-wide among the crates the caller can name ([`CrateDeps`]);
//! * `Type::assoc` resolves by impl/trait self-type; `module::free`
//!   resolves by file stem or inline-module name; `Self::assoc` uses
//!   the caller's own impl type; `std::...` paths resolve nowhere;
//! * method calls resolve by name to every workspace method, capped at
//!   [`AMBIGUITY_CAP`] candidates so prelude-shaped names (`get`,
//!   `len`, `clone`) don't glue the graph into one component. Before
//!   the cap, inherent methods of crates the caller's crate cannot name
//!   ([`CrateDeps`]) drop out; trait methods stay, since `dyn` dispatch
//!   reaches impls in any crate.
//!
//! On top of reachability, three passes:
//!
//! 1. **lock-set propagation** (`nested-lock`): each function's
//!    transitive may-acquire set, checked against the manifest at every
//!    call made while a guard is live;
//! 2. **reactor-blocking**: nothing reachable from the poll-loop
//!    dispatch may sleep, do file I/O, connect sockets, print to
//!    stdio, or take a lock class not declared `reactorsafe`;
//! 3. **panic reachability** (`panic-path`): helpers outside the hot
//!    crates whose panics are reachable from hot-path functions.
//!
//! Every finding carries the discovery call chain in its message.

use crate::lock_order::LockOrder;
use crate::rules::panic_path::HOT_PATHS;
use crate::rules::{in_fixtures, Finding};
use crate::symbols::{CallKind, CallSite, FileSummary, FnDef};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

/// Method-call resolution gives up beyond this many candidates: a name
/// defined this often is prelude-shaped, and linking it everywhere
/// would connect unrelated subsystems.
pub const AMBIGUITY_CAP: usize = 6;

/// Method names that collide with std container/iterator/IO APIs.
/// `buf.len()` is almost never a call into a workspace `len` method, so
/// resolving these by bare name manufactures edges between unrelated
/// subsystems (every `.len()` would link to `ModelRegistry::len`).
/// Path-qualified calls (`ModelRegistry::len(...)`) still resolve.
pub const STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "next",
    "iter",
    "into_iter",
    "clone",
    "write",
    "read",
    "flush",
    "wait",
    "take",
    "drain",
    "extend",
    "last",
    "first",
    "split",
    "join",
    "send",
    "recv",
    "lock",
    "add",
    "sub",
    "mul",
    "div",
    "cmp",
    "eq",
    "fmt",
    "hash",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "sqrt",
    "parse",
    "trim",
    "chars",
    "bytes",
    "map",
    "filter",
    "fold",
    "count",
    "sum",
    "any",
    "all",
    "find",
    "position",
    "sort",
    "reverse",
    "new",
    "default",
    "as_ref",
    "as_mut",
    "into",
    "from",
    "to_string",
    "start",
    "end",
    "swap",
    "copy",
    "fill",
    "resize",
    "truncate",
];

/// Call chains in messages are elided past this many hops.
const MAX_CHAIN: usize = 8;

/// Files whose fns are reactor-blocking roots: the event loop itself
/// plus the serve handler it dispatches into.
pub const REACTOR_ROOT_PATHS: &[&str] = &["crates/reactor/src/", "crates/serve/src/front.rs"];

/// The FFI readiness shim is allowlisted: its non-unix fallback sleeps
/// deliberately (bounded, documented), and `poll(2)` itself is the one
/// blocking call the loop exists to make.
pub const REACTOR_ALLOW_PATHS: &[&str] = &["crates/reactor/src/sys.rs"];

/// Interprocedural passes for `--list-rules` (id, description).
pub const INTERPROCEDURAL_RULES: &[(&str, &str)] = &[
    (
        "nested-lock",
        "(interprocedural) call chains whose transitive lock acquisitions violate lock_order.txt",
    ),
    (
        "reactor-blocking",
        "blocking call (sleep, file I/O, stdio, non-reactorsafe lock) reachable from the event loop",
    ),
    (
        "panic-path",
        "(interprocedural) panics outside hot crates reachable from hot-path functions",
    ),
];

/// The workspace crates each crate can name: `crates/<dir>/` → the
/// transitive closure of its `anomex-*` dependencies, itself included.
/// A caller whose crate has no entry (files outside `crates/`, or a
/// crate without a readable `Cargo.toml`) sees every crate.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// Reads the `Cargo.toml` of every `crates/<dir>/` that `files` touch
/// and closes the `anomex-*` keys of its dependency tables
/// transitively.
#[must_use]
pub fn crate_deps(files: &[(String, PathBuf)]) -> CrateDeps {
    // Crate prefix → (package name, direct `anomex-*` dependencies).
    let mut manifests: BTreeMap<&str, (String, Vec<String>)> = BTreeMap::new();
    for (rel, path) in files {
        let krate = CallGraph::crate_of(rel);
        if krate.is_empty() || manifests.contains_key(krate) {
            continue;
        }
        // `crates/<dir>/src/x.rs` sits two levels below its crate dir.
        let below = rel.split('/').count() - 2;
        let Some(dir) = path.ancestors().nth(below) else {
            continue;
        };
        if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            manifests.insert(krate, parse_manifest(&text));
        }
    }
    let by_name: BTreeMap<&str, &str> = manifests
        .iter()
        .map(|(&krate, (name, _))| (name.as_str(), krate))
        .collect();
    manifests
        .keys()
        .map(|&krate| {
            let mut seen = BTreeSet::from([krate.to_string()]);
            let mut stack = vec![krate];
            while let Some(c) = stack.pop() {
                for dep in manifests.get(c).map_or(&[][..], |(_, deps)| deps) {
                    if let Some(&d) = by_name.get(dep.as_str()) {
                        if seen.insert(d.to_string()) {
                            stack.push(d);
                        }
                    }
                }
            }
            (krate.to_string(), seen)
        })
        .collect()
}

/// The `[package]` name and the `anomex-*` keys of every dependency
/// table of one `Cargo.toml`.
fn parse_manifest(text: &str) -> (String, Vec<String>) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut table = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap_or("");
        if table == "[package]" && key == "name" {
            let value = line.split_once('=').map_or("", |(_, v)| v);
            name = value.trim().trim_matches('"').to_string();
        } else if table.ends_with("dependencies]") && key.starts_with("anomex-") {
            deps.push(key.to_string());
        }
    }
    (name, deps)
}

/// One function node: indices into the summary slice.
#[derive(Debug, Clone, Copy)]
struct Node {
    file: usize,
    fun: usize,
}

/// The linked workspace graph.
pub struct CallGraph<'a> {
    summaries: &'a [FileSummary],
    deps: &'a CrateDeps,
    nodes: Vec<Node>,
    /// Adjacency: `(callee node, spawned)` per resolved call. Spawned
    /// edges (calls inside `spawn(...)` closures) run on a different
    /// thread; thread-affine passes must not cross them.
    edges: Vec<Vec<(usize, bool)>>,
    /// Method/assoc-fn name → nodes with a non-empty qualifier.
    methods: BTreeMap<&'a str, Vec<usize>>,
    /// (qual, name) → nodes, for `Type::assoc` and `Self::assoc`.
    by_qual: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// Free-fn name → nodes with an empty qualifier.
    free: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Indexes and links `summaries`, resolving inherent method calls
    /// only into crates `deps` lets the caller name.
    #[must_use]
    pub fn build(summaries: &'a [FileSummary], deps: &'a CrateDeps) -> Self {
        let mut nodes = Vec::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, s) in summaries.iter().enumerate() {
            for (gi, f) in s.fns.iter().enumerate() {
                let n = nodes.len();
                nodes.push(Node { file: fi, fun: gi });
                if f.qual.is_empty() {
                    free.entry(f.name.as_str()).or_default().push(n);
                } else {
                    methods.entry(f.name.as_str()).or_default().push(n);
                    by_qual
                        .entry((f.qual.as_str(), f.name.as_str()))
                        .or_default()
                        .push(n);
                }
            }
        }
        let mut g = CallGraph {
            summaries,
            deps,
            nodes,
            edges: Vec::new(),
            methods,
            by_qual,
            free,
        };
        g.edges = (0..g.nodes.len())
            .map(|n| {
                let mut out = Vec::new();
                for call in &g.fn_of(n).calls {
                    for callee in g.resolve(n, call) {
                        out.push((callee, call.spawned));
                    }
                }
                out.sort_unstable();
                // Keep the non-spawned edge when a pair is called both
                // ways (sort puts `false` first).
                out.dedup_by_key(|e| e.0);
                out
            })
            .collect();
        g
    }

    fn fn_of(&self, n: usize) -> &'a FnDef {
        let node = self.nodes[n];
        &self.summaries[node.file].fns[node.fun]
    }

    fn path_of(&self, n: usize) -> &'a str {
        &self.summaries[self.nodes[n].file].path
    }

    /// `Qual::name` display of node `n`.
    fn display(&self, n: usize) -> String {
        self.fn_of(n).display()
    }

    /// The crate prefix (`crates/<name>/`) of a workspace-relative path.
    fn crate_of(path: &str) -> &str {
        let mut it = path.splitn(3, '/');
        match (it.next(), it.next(), it.next()) {
            (Some("crates"), Some(c), Some(_)) => &path[..7 + c.len() + 1],
            _ => "",
        }
    }

    /// The file stem (`sys` for `crates/reactor/src/sys.rs`).
    fn stem(path: &str) -> &str {
        path.rsplit('/')
            .next()
            .unwrap_or("")
            .trim_end_matches(".rs")
    }

    /// Whether code in `caller`'s crate can name node `n`'s crate. A
    /// caller outside `crates/` (or without a manifest) names every
    /// crate; one inside names only its `anomex-*` dependencies, never
    /// a file outside `crates/`.
    fn nameable(&self, caller: usize, n: usize) -> bool {
        self.deps
            .get(Self::crate_of(self.path_of(caller)))
            .is_none_or(|v| v.contains(Self::crate_of(self.path_of(n))))
    }

    /// Candidate callee nodes for `call` made from `caller`.
    fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let capped = |v: Option<&Vec<usize>>| -> Vec<usize> {
            match v {
                Some(v) if v.len() <= AMBIGUITY_CAP => v.clone(),
                _ => Vec::new(),
            }
        };
        match call.kind {
            CallKind::Method => {
                if STD_METHODS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                // An inherent method of a crate the caller cannot name is
                // never the callee; trait methods stay (`dyn` dispatch).
                let nameable: Vec<usize> = self
                    .methods
                    .get(call.name.as_str())
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(|&n| !self.fn_of(n).inherent || self.nameable(caller, n))
                    .collect();
                let mut v = capped(Some(&nameable));
                // A same-name method called on a receiver other than
                // `self` is delegation, not recursion — don't link the
                // caller to itself (`h.snapshot()` inside
                // `MetricsRegistry::snapshot` is `Histogram::snapshot`).
                if call.recv != "self" {
                    v.retain(|&n| n != caller);
                }
                v
            }
            CallKind::Path => {
                let last = call.qual.rsplit("::").next().unwrap_or("");
                if last == "Self" {
                    let qual = self.fn_of(caller).qual.as_str();
                    if qual.is_empty() {
                        return Vec::new();
                    }
                    return capped(self.by_qual.get(&(qual, call.name.as_str())));
                }
                if matches!(last, "self" | "crate" | "super") || last.is_empty() {
                    return self.resolve_free(caller, &call.name);
                }
                let typed = capped(self.by_qual.get(&(last, call.name.as_str())));
                if !typed.is_empty() {
                    return typed;
                }
                // Module-qualified free fn: match file stem or inline mod.
                let by_mod: Vec<usize> = self
                    .free
                    .get(call.name.as_str())
                    .map(|v| {
                        v.iter()
                            .copied()
                            .filter(|&n| {
                                Self::stem(self.path_of(n)) == last || self.fn_of(n).module == last
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                if by_mod.len() <= AMBIGUITY_CAP {
                    by_mod
                } else {
                    Vec::new()
                }
            }
            CallKind::Free => self.resolve_free(caller, &call.name),
        }
    }

    fn resolve_free(&self, caller: usize, name: &str) -> Vec<usize> {
        let Some(all) = self.free.get(name) else {
            return Vec::new();
        };
        let caller_path = self.path_of(caller);
        let same_file: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&n| self.path_of(n) == caller_path)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let krate = Self::crate_of(caller_path);
        let same_crate: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&n| !krate.is_empty() && self.path_of(n).starts_with(krate))
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        // A free fn of a crate the caller cannot name is never the
        // callee (a bare `pipeline()` in serve is not the benchmark's).
        let nameable: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&n| self.nameable(caller, n))
            .collect();
        if nameable.len() <= AMBIGUITY_CAP {
            nameable
        } else {
            Vec::new()
        }
    }

    /// BFS from `roots`. Returns, per node, `None` (unreached) or
    /// `Some(parent)` — parent == the node itself for roots. With
    /// `cross_spawn` false, edges inside `spawn(...)` closures are not
    /// traversed (the callee runs on a different thread).
    fn reach(&self, roots: &[usize], cross_spawn: bool) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut q: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                q.push_back(r);
            }
        }
        while let Some(n) = q.pop_front() {
            for &(m, spawned) in &self.edges[n] {
                if (cross_spawn || !spawned) && parent[m].is_none() {
                    parent[m] = Some(n);
                    q.push_back(m);
                }
            }
        }
        parent
    }

    /// Renders the discovery chain root → ... → `n`.
    fn chain(&self, parent: &[Option<usize>], n: usize) -> String {
        let mut hops = vec![n];
        let mut cur = n;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            hops.push(p);
            cur = p;
            if hops.len() > 64 {
                break; // defensive: parent maps from BFS cannot cycle
            }
        }
        hops.reverse();
        let mut names: Vec<String> = hops.iter().map(|&h| self.display(h)).collect();
        if names.len() > MAX_CHAIN {
            let skipped = names.len() - MAX_CHAIN;
            let tail = names.split_off(names.len() - MAX_CHAIN / 2);
            names.truncate(MAX_CHAIN / 2);
            names.push(format!("... {skipped} more ..."));
            names.extend(tail);
        }
        names.join(" -> ")
    }
}

fn finding(rule: &'static str, path: &str, line: u32, snippet: &str, message: String) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line,
        message,
        snippet: snippet.to_string(),
    }
}

/// Whether a path-qualified call is a blocking primitive; returns the
/// display name.
fn blocking_call(call: &CallSite) -> Option<String> {
    if call.kind != CallKind::Path {
        return None;
    }
    let last = call.qual.rsplit("::").next().unwrap_or("");
    match (last, call.name.as_str()) {
        ("thread", "sleep") => Some("std::thread::sleep".into()),
        ("TcpStream", "connect" | "connect_timeout") => Some(format!("TcpStream::{}", call.name)),
        ("File", "open" | "create" | "create_new") => Some(format!("File::{}", call.name)),
        ("fs", _) => Some(format!("std::fs::{}", call.name)),
        _ => None,
    }
}

/// Runs the three interprocedural passes over the linked summaries.
#[must_use]
pub fn interprocedural(
    summaries: &[FileSummary],
    manifest: &LockOrder,
    deps: &CrateDeps,
) -> Vec<Finding> {
    let g = CallGraph::build(summaries, deps);
    let mut out = Vec::new();
    lock_chains(&g, manifest, &mut out);
    reactor_blocking(&g, manifest, &mut out);
    panic_reach(&g, &mut out);
    out
}

/// Pass 1: lock-set propagation under the `nested-lock` id.
///
/// For every call made while a guard is live, the callee's *transitive*
/// acquisition set is checked against the manifest exactly like a
/// same-function nesting would be: the held class must be strictly
/// earlier-ordered, and both must be classified.
fn lock_chains(g: &CallGraph<'_>, manifest: &LockOrder, out: &mut Vec<Finding>) {
    for n in 0..g.nodes.len() {
        let f = g.fn_of(n);
        let caller_path = g.path_of(n);
        for call in &f.calls {
            // A spawned call runs on another thread, without the
            // caller's guards held.
            if call.sup_nested || call.spawned || call.held.is_empty() {
                continue;
            }
            let callees = g.resolve(n, call);
            if callees.is_empty() {
                continue;
            }
            let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
            for start in callees {
                for acq in transitive_acquires(g, start) {
                    let acq_class = manifest
                        .classify(g.path_of(acq.node), &acq.receiver_last)
                        .map(str::to_string);
                    for held in &call.held {
                        let held_class = manifest
                            .classify(caller_path, &held.receiver_last)
                            .map(str::to_string);
                        let ok = match (&held_class, &acq_class) {
                            (Some(h), Some(a)) => manifest.allows(h, a),
                            _ => false,
                        };
                        if ok {
                            continue;
                        }
                        let held_name = held_class
                            .clone()
                            .unwrap_or_else(|| format!("unclassified '{}'", held.desc));
                        let acq_name = acq_class
                            .clone()
                            .unwrap_or_else(|| format!("unclassified '{}'", acq.desc));
                        if !reported.insert((held_name.clone(), acq_name.clone())) {
                            continue;
                        }
                        let chain = g.chain(&acq.parent, acq.node);
                        out.push(finding(
                            "nested-lock",
                            caller_path,
                            call.line,
                            &call.snippet,
                            format!(
                                "call chain may acquire {acq_name} ({}:{}) while {held_name} \
                                 (line {}) is held — not a declared ordering; chain: \
                                 {} -> {chain}; see crates/analyze/lock_order.txt",
                                g.path_of(acq.node),
                                acq.line,
                                held.line,
                                f.display(),
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// One lock acquisition transitively reachable from a callee.
struct TransAcq {
    node: usize,
    receiver_last: String,
    desc: String,
    line: u32,
    /// The BFS parent map of the traversal that found it (for chains).
    parent: Vec<Option<usize>>,
}

/// Every lock acquisition in fns reachable from `start` (inclusive)
/// on the calling thread.
fn transitive_acquires(g: &CallGraph<'_>, start: usize) -> Vec<TransAcq> {
    let parent = g.reach(&[start], false);
    let mut out = Vec::new();
    for (n, p) in parent.iter().enumerate() {
        if p.is_none() {
            continue;
        }
        for l in &g.fn_of(n).locks {
            if l.spawned {
                continue;
            }
            out.push(TransAcq {
                node: n,
                receiver_last: l.receiver_last.clone(),
                desc: l.desc.clone(),
                line: l.line,
                parent: parent.clone(),
            });
        }
    }
    out
}

/// Pass 2: the `reactor-blocking` rule.
fn reactor_blocking(g: &CallGraph<'_>, manifest: &LockOrder, out: &mut Vec<Finding>) {
    let roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&n| {
            let path = g.path_of(n);
            REACTOR_ROOT_PATHS.iter().any(|p| path.contains(p))
                || (in_fixtures(path) && g.fn_of(n).qual == "Reactor")
        })
        .collect();
    let parent = g.reach(&roots, false);
    for n in 0..g.nodes.len() {
        if parent[n].is_none() {
            continue;
        }
        let path = g.path_of(n);
        if REACTOR_ALLOW_PATHS.iter().any(|p| path.contains(p)) {
            continue;
        }
        let f = g.fn_of(n);
        let chain = g.chain(&parent, n);
        for call in &f.calls {
            if call.sup_reactor || call.spawned {
                continue;
            }
            if let Some(what) = blocking_call(call) {
                out.push(finding(
                    "reactor-blocking",
                    path,
                    call.line,
                    &call.snippet,
                    format!(
                        "{what} blocks the event loop — reachable from the reactor via {chain}"
                    ),
                ));
            }
        }
        for b in &f.blocking {
            if b.sup || b.spawned {
                continue;
            }
            out.push(finding(
                "reactor-blocking",
                path,
                b.line,
                &b.snippet,
                format!(
                    "{} writes to stdio (can block on a full pipe, serializes on the stdio \
                     lock) — reachable from the reactor via {chain}",
                    b.what
                ),
            ));
        }
        for l in &f.locks {
            if l.sup_reactor || l.spawned {
                continue;
            }
            match manifest.classify(path, &l.receiver_last) {
                Some(c) if manifest.is_reactor_safe(c) => {}
                Some(c) => out.push(finding(
                    "reactor-blocking",
                    path,
                    l.line,
                    &l.snippet,
                    format!(
                        "lock class '{c}' is not declared reactorsafe — acquiring it on the \
                         event loop can stall every connection; reachable via {chain} \
                         (see crates/analyze/lock_order.txt)"
                    ),
                )),
                None => out.push(finding(
                    "reactor-blocking",
                    path,
                    l.line,
                    &l.snippet,
                    format!(
                        "unclassified lock '{}' reachable from the event loop via {chain} — \
                         classify it in crates/analyze/lock_order.txt (and mark it \
                         reactorsafe only if its critical section is bounded)",
                        l.desc
                    ),
                )),
            }
        }
    }
}

/// Pass 3: panic reachability under the `panic-path` id.
fn panic_reach(g: &CallGraph<'_>, out: &mut Vec<Finding>) {
    let is_hot = |path: &str| HOT_PATHS.iter().any(|p| path.contains(p));
    // Fixture roots are opt-in by naming convention (`hot_*`): making
    // every fixture fn a root would leave nothing at call distance >= 1.
    let roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&n| {
            let path = g.path_of(n);
            if in_fixtures(path) {
                g.fn_of(n).name.starts_with("hot_")
            } else {
                is_hot(path)
            }
        })
        .collect();
    // Panics matter on every thread serving the request, so spawned
    // edges ARE traversed here.
    let parent = g.reach(&roots, true);
    for n in 0..g.nodes.len() {
        let Some(p) = parent[n] else { continue };
        if p == n {
            continue; // roots: direct sites are the per-file rule's job
        }
        let path = g.path_of(n);
        if is_hot(path) && !in_fixtures(path) {
            continue; // covered by the per-file panic-path rule
        }
        let f = g.fn_of(n);
        let chain = g.chain(&parent, n);
        for site in &f.panics {
            if site.sup {
                continue;
            }
            out.push(finding(
                "panic-path",
                path,
                site.line,
                &site.snippet,
                format!(
                    "{} in {} can panic on a hot path — reachable via {chain}; return a \
                     typed error (or suppress with a reason if provably infallible)",
                    site.what,
                    f.display(),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::symbols::extract;

    fn summarize(path: &str, src: &str) -> FileSummary {
        extract(&SourceFile::parse(path, src))
    }

    fn manifest() -> LockOrder {
        LockOrder::parse(
            "class coarse x.rs map\nclass fine x.rs state\norder coarse fine\n\
             reactorsafe fine\n",
        )
        .unwrap()
    }

    #[test]
    fn lock_chain_violation_is_found_across_functions() {
        let s = summarize(
            "x.rs",
            "\
fn outer(&self) {
    let s = self.state.lock();
    helper(s);
}
fn helper(s: G) {
    let m = self.map.lock();
    use_both(s, m);
}",
        );
        let f = interprocedural(std::slice::from_ref(&s), &manifest(), &CrateDeps::new());
        let lock: Vec<&Finding> = f.iter().filter(|f| f.rule == "nested-lock").collect();
        assert_eq!(lock.len(), 1, "{f:?}");
        assert_eq!(lock[0].line, 3, "flagged at the call site");
        assert!(lock[0].message.contains("coarse"), "{}", lock[0].message);
        assert!(lock[0].message.contains("fine"), "{}", lock[0].message);
        assert!(
            lock[0].message.contains("outer -> helper"),
            "chain evidence: {}",
            lock[0].message
        );
    }

    #[test]
    fn declared_order_across_functions_is_clean() {
        let s = summarize(
            "x.rs",
            "\
fn outer(&self) {
    let m = self.map.lock();
    helper(m);
}
fn helper(m: G) {
    let s = self.state.lock();
    use_both(m, s);
}",
        );
        let f = interprocedural(std::slice::from_ref(&s), &manifest(), &CrateDeps::new());
        assert!(
            f.iter().all(|f| f.rule != "nested-lock"),
            "coarse -> fine across a call is the declared order: {f:?}"
        );
    }

    #[test]
    fn reactor_blocking_flags_sleep_print_and_bad_locks_with_chain() {
        let s = summarize(
            "fixtures/r.rs",
            "\
impl Reactor {
    fn run(&self) { self.dispatch(); }
}
impl Worker {
    fn dispatch(&self) {
        std::thread::sleep(d);
        println!(\"tick\");
        let g = self.map.lock();
        let s = self.state.lock();
    }
}",
        );
        let m = LockOrder::parse(
            "class coarse r.rs map\nclass fine r.rs state\norder coarse fine\nreactorsafe fine\n",
        )
        .unwrap();
        let f = interprocedural(std::slice::from_ref(&s), &m, &CrateDeps::new());
        let rb: Vec<&Finding> = f.iter().filter(|f| f.rule == "reactor-blocking").collect();
        let msgs: Vec<&str> = rb.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("std::thread::sleep")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("println!")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("'coarse'")),
            "non-reactorsafe class: {msgs:?}"
        );
        assert!(
            !msgs.iter().any(|m| m.contains("'fine'")),
            "reactorsafe class must not fire: {msgs:?}"
        );
        assert!(
            msgs.iter()
                .all(|m| m.contains("Reactor::run -> Worker::dispatch")),
            "chain evidence: {msgs:?}"
        );
    }

    #[test]
    fn panic_reach_crosses_from_hot_to_helper_crate() {
        let hot = summarize("crates/core/src/engine.rs", "fn score() { crunch(1); }");
        let helper = summarize(
            "crates/dataset/src/util.rs",
            "pub fn crunch(x: u32) -> u32 { table.get(x).unwrap() }",
        );
        let f = interprocedural(&[hot, helper], &manifest(), &CrateDeps::new());
        let pp: Vec<&Finding> = f.iter().filter(|f| f.rule == "panic-path").collect();
        assert_eq!(pp.len(), 1, "{f:?}");
        assert_eq!(pp[0].path, "crates/dataset/src/util.rs");
        assert!(
            pp[0].message.contains("score -> crunch"),
            "chain evidence: {}",
            pp[0].message
        );
    }

    #[test]
    fn panic_in_unreached_helper_is_not_flagged() {
        let hot = summarize("crates/core/src/engine.rs", "fn score() { fine(); }");
        let helper = summarize(
            "crates/dataset/src/util.rs",
            "pub fn crunch(x: u32) -> u32 { v.unwrap() }\npub fn fine() -> u32 { 0 }",
        );
        let f = interprocedural(&[hot, helper], &manifest(), &CrateDeps::new());
        assert!(
            f.iter().all(|f| f.rule != "panic-path"),
            "unreached panic must not fire: {f:?}"
        );
    }

    #[test]
    fn suppressed_sites_do_not_fire_interprocedurally() {
        let hot = summarize("crates/core/src/engine.rs", "fn score() { crunch(1); }");
        let helper = summarize(
            "crates/dataset/src/util.rs",
            "pub fn crunch(x: u32) -> u32 {\n    v.unwrap() // anomex: allow(panic-path) checked by caller\n}",
        );
        let f = interprocedural(&[hot, helper], &manifest(), &CrateDeps::new());
        assert!(f.iter().all(|f| f.rule != "panic-path"), "{f:?}");
    }

    #[test]
    fn method_resolution_gives_up_past_the_ambiguity_cap() {
        let mut files = vec![summarize(
            "crates/core/src/engine.rs",
            "fn score(&self) { self.refresh(); }",
        )];
        for i in 0..(AMBIGUITY_CAP + 1) {
            files.push(summarize(
                &format!("crates/dataset/src/m{i}.rs"),
                &format!("impl T{i} {{ fn refresh(&self) {{ v.unwrap() }} }}"),
            ));
        }
        let f = interprocedural(&files, &manifest(), &CrateDeps::new());
        assert!(
            f.iter().all(|f| f.rule != "panic-path"),
            "over-ambiguous method names must not link: {f:?}"
        );
    }

    #[test]
    fn inherent_methods_link_only_into_the_callers_dependencies() {
        // core can name dataset, as in the workspace, but not eval.
        let visible = ["crates/core/", "crates/dataset/"].map(String::from);
        let deps = CrateDeps::from([("crates/core/".to_string(), BTreeSet::from(visible))]);
        // One candidate is well under the cap, but `.build()` on a
        // builder in a hot file must still not link to an unrelated
        // inherent `build` in a crate the caller cannot even depend on.
        // A trait impl links from anywhere (`dyn` dispatch).
        for (path, block, links) in [
            ("crates/eval/src/testbed.rs", "impl T", false),
            ("crates/eval/src/sink.rs", "impl Sink for T", true),
            ("crates/dataset/src/util.rs", "impl T", true),
        ] {
            let hot = summarize(
                "crates/core/src/cache.rs",
                "fn new() { let b = Builder::default(); b.build(); }",
            );
            let helper = summarize(
                path,
                &format!("{block} {{ fn build(&self) {{ v.unwrap() }} }}"),
            );
            let f = interprocedural(&[hot, helper], &manifest(), &deps);
            let linked = f.iter().any(|f| f.rule == "panic-path");
            assert_eq!(linked, links, "`{block}` in {path}: {f:?}");
        }
    }

    #[test]
    fn free_fns_link_only_into_the_callers_dependencies() {
        // serve can name dataset, as in the workspace; nothing outside
        // `crates/` is a dependency of any crate.
        let visible = ["crates/serve/", "crates/dataset/"].map(String::from);
        let deps = CrateDeps::from([("crates/serve/".to_string(), BTreeSet::from(visible))]);
        // A bare `pipeline()` the caller's file and crate do not define
        // falls back to the tree; only the dataset fn may answer it.
        for (path, links) in [
            ("benchmark/src/trace.rs", false),
            ("crates/eval/src/runner.rs", false),
            ("tests/golden_grid.rs", false),
            ("examples/quickstart.rs", false),
            ("src/lib.rs", false),
            ("crates/dataset/src/util.rs", true),
        ] {
            let hot = summarize(
                "crates/serve/src/protocol.rs",
                "fn from_json() { let p = pipeline(); }",
            );
            let helper = summarize(path, "pub fn pipeline() { spec.expect(\"valid\") }");
            let f = interprocedural(&[hot, helper], &manifest(), &deps);
            let linked = f.iter().any(|f| f.rule == "panic-path");
            assert_eq!(linked, links, "`pipeline` in {path}: {f:?}");
        }
    }

    #[test]
    fn crate_deps_close_cargo_dependency_tables_transitively() {
        let dir = std::env::temp_dir().join("anomex_analyze_crate_deps_test");
        let _ = std::fs::remove_dir_all(&dir);
        let manifests = [
            ("a", "[package]\nname = \"anomex-a\"\n\n[dependencies]\nanomex-b.workspace = true\n"),
            ("b", "[package]\nname = \"anomex-b\"\n[dependencies]\nanomex-c = { path = \"../c\" }\nrand = \"0.8\"\n"),
            ("c", "[package]\nname = \"anomex-c\"\n"),
            ("d", "[package]\nname = \"anomex-d\"\n[dev-dependencies]\nanomex-a.workspace = true\n"),
        ];
        let mut files = Vec::new();
        for (krate, toml) in manifests {
            let src = dir.join("crates").join(krate).join("src");
            std::fs::create_dir_all(&src).unwrap();
            std::fs::write(dir.join("crates").join(krate).join("Cargo.toml"), toml).unwrap();
            files.push((format!("crates/{krate}/src/lib.rs"), src.join("lib.rs")));
        }
        files.push(("src/lib.rs".to_string(), dir.join("src/lib.rs")));
        let deps = crate_deps(&files);
        let _ = std::fs::remove_dir_all(&dir);
        let closure = |krate: &str| -> Vec<&str> {
            deps[&format!("crates/{krate}/")]
                .iter()
                .map(|c| c.trim_start_matches("crates/").trim_end_matches('/'))
                .collect()
        };
        assert_eq!(closure("a"), vec!["a", "b", "c"]);
        assert_eq!(closure("c"), vec!["c"]);
        assert_eq!(closure("d"), vec!["a", "b", "c", "d"]);
        assert_eq!(
            deps.len(),
            4,
            "files outside crates/ get no entry: {deps:?}"
        );
    }

    #[test]
    fn self_and_module_paths_resolve() {
        let s = summarize(
            "crates/reactor/src/reactor.rs",
            "\
impl Reactor {
    fn run(&self) { self.tick(); }
    fn tick(&self) { sys::wait(fds); }
}",
        );
        let sys = summarize(
            "crates/reactor/src/sys.rs",
            "pub fn wait(fds: F) { imp::wait(fds) }\nmod imp {\n    pub fn wait(fds: F) { std::thread::sleep(d); }\n}",
        );
        let f = interprocedural(&[s, sys], &manifest(), &CrateDeps::new());
        // sys.rs is allowlisted, so the sleep must NOT fire even though
        // the chain run -> tick -> wait -> imp::wait reaches it.
        assert!(
            f.iter().all(|f| f.rule != "reactor-blocking"),
            "FFI shim allowlist: {f:?}"
        );
    }
}

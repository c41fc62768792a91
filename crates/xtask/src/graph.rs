//! Conservative, name-based call graph over the extracted functions.
//!
//! Resolution is purely syntactic — no type information exists at this
//! layer — so a call site resolves to *every* workspace function it could
//! plausibly name:
//!
//! * `.name(…)`      → every method (associated fn) named `name`
//! * `Type::name(…)` → methods of `Type` named `name`. A capitalized
//!   qualifier matching no workspace impl is an external type
//!   (`Vec::new`, `Instant::now`) and resolves to nothing — its
//!   *primitives* are what the rules pattern-match instead.
//! * `mod::name(…)`  → a lowercase qualifier is a module path: free fns
//!   named `name`, preferring ones defined in a file named after the
//!   module (`…/mod.rs` path segment match).
//! * `Self::name(…)` → methods of the enclosing impl's type
//! * `T::name(…)`    → with `T` a type parameter in scope (of the fn or
//!   its impl): every method named `name` in *any* crate — the caller
//!   picks the impl, so a generic in `num` may run a `decode` defined in
//!   `md`. The crate DAG below does not prune these edges.
//! * `name(…)`       → every free function named `name`
//!
//! Two pruning passes keep the over-approximation honest without losing
//! soundness:
//!
//! * **Crate DAG** — an edge from crate A into crate B is dropped unless
//!   B is in A's (transitive) dependency set: `core` code cannot call
//!   into `bench` no matter how method names collide. Crates missing
//!   from the table default to depending on everything (conservative).
//! * Remaining over-approximation adds edges (false reachability a rule
//!   may then allowlist); it never loses them.
//!
//! Closure bodies are token spans inside their defining fn, so a closure's
//! calls are attributed to the fn that creates it. Higher-order flows
//! (`pool.run_parts(|part, w| …)`) therefore stay visible without any
//! function-pointer analysis.

use crate::ast::{is_keyword, FnDef, SourceFile};
use std::collections::BTreeMap;

/// Index of one function: (file index, fn index within that file).
pub type NodeId = usize;

/// Transitive dependency closure per workspace crate (self included).
/// Mirrors the `crates/*/Cargo.toml` path dependencies; a crate absent
/// from this table is treated as depending on everything, so a new crate
/// degrades to more edges, never fewer.
const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("num", &["num"]),
    ("mesh", &["mesh", "num"]),
    ("reference", &["reference", "mesh", "num"]),
    ("core", &["core", "reference", "mesh", "num"]),
    ("md", &["md", "core", "reference", "mesh", "num"]),
    ("mdgrape", &["mdgrape", "core", "reference", "mesh", "num"]),
    (
        "serve",
        &["serve", "mdgrape", "md", "core", "reference", "mesh", "num"],
    ),
    (
        "bench",
        &[
            "bench",
            "serve",
            "mdgrape",
            "md",
            "core",
            "reference",
            "mesh",
            "num",
        ],
    ),
    ("xtask", &["xtask"]),
];

/// The crate a workspace-relative path belongs to (`""` = root targets /
/// facade, which may depend on everything).
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// May code in `from` (a workspace-relative path) call code in `to`?
fn dep_allowed(from: &str, to: &str) -> bool {
    let (cf, ct) = (crate_of(from), crate_of(to));
    if cf == ct {
        return true;
    }
    match CRATE_DEPS.iter().find(|(c, _)| *c == cf) {
        Some((_, deps)) => deps.contains(&ct),
        None => true,
    }
}

pub struct Graph<'a> {
    files: &'a [SourceFile],
    /// Flattened (file_idx, fn_idx) per node, in file/definition order.
    nodes: Vec<(usize, usize)>,
    /// node → callee nodes (sorted, deduped).
    edges: Vec<Vec<NodeId>>,
}

impl<'a> Graph<'a> {
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for di in 0..f.fns.len() {
                nodes.push((fi, di));
            }
        }
        // BTreeMaps for deterministic iteration → stable reports.
        let mut free_by_name: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(&str, &str), Vec<NodeId>> = BTreeMap::new();
        for (id, &(fi, di)) in nodes.iter().enumerate() {
            let d = &files[fi].fns[di];
            match &d.owner {
                Some(o) => {
                    methods_by_name.entry(&d.name).or_default().push(id);
                    by_owner_name.entry((o, &d.name)).or_default().push(id);
                }
                None => free_by_name.entry(&d.name).or_default().push(id),
            }
        }
        let mut edges: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for (id, &(fi, di)) in nodes.iter().enumerate() {
            let f = &files[fi];
            let d = &f.fns[di];
            let toks = &f.tokens;
            let (a, b) = d.body;
            let mut out: Vec<NodeId> = Vec::new();
            for idx in a..=b.min(toks.len().saturating_sub(1)) {
                let t = &toks[idx];
                if t.kind != crate::lexer::TokKind::Ident || is_keyword(&t.text) {
                    continue;
                }
                if toks.get(idx + 1).map(|n| n.text.as_str()) != Some("(") {
                    continue;
                }
                let name = t.text.as_str();
                let prev = idx.checked_sub(1).map(|p| toks[p].text.as_str());
                let push = |ts: &[NodeId], out: &mut Vec<NodeId>| {
                    out.extend(
                        ts.iter()
                            .copied()
                            .filter(|&c| dep_allowed(&f.path, &files[nodes[c].0].path)),
                    );
                };
                if prev == Some(".") {
                    if let Some(ts) = methods_by_name.get(name) {
                        push(ts, &mut out);
                    }
                } else if prev == Some(":") && idx >= 3 && toks[idx - 2].text == ":" {
                    let q = toks[idx - 3].text.as_str();
                    let owner = if q == "Self" {
                        d.owner.as_deref().unwrap_or(q)
                    } else {
                        q
                    };
                    if d.type_params.iter().any(|p| p == q) {
                        if let Some(ts) = methods_by_name.get(name) {
                            out.extend(ts.iter().copied());
                        }
                    } else if let Some(ts) = by_owner_name.get(&(owner, name)) {
                        push(ts, &mut out);
                    } else if q.starts_with(|c: char| c.is_lowercase() || c == '_') {
                        // Module path. Prefer free fns whose file is named
                        // after the module; fall back to all free fns of
                        // that name (inline `mod` in some other file).
                        if let Some(ts) = free_by_name.get(name) {
                            let seg_file = format!("/{q}.rs");
                            let seg_dir = format!("/{q}/");
                            let in_mod: Vec<NodeId> = ts
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    let p = &files[nodes[c].0].path;
                                    p.ends_with(&seg_file) || p.contains(&seg_dir)
                                })
                                .collect();
                            push(if in_mod.is_empty() { ts } else { &in_mod }, &mut out);
                        }
                    }
                    // else: capitalized qualifier with no workspace impl —
                    // an external type (`Vec::new`); no edge.
                } else if let Some(ts) = free_by_name.get(name) {
                    push(ts, &mut out);
                }
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&c| c != id);
            edges[id] = out;
        }
        Self {
            files,
            nodes,
            edges,
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn def(&self, id: NodeId) -> &FnDef {
        let (fi, di) = self.nodes[id];
        &self.files[fi].fns[di]
    }

    pub fn file(&self, id: NodeId) -> &SourceFile {
        &self.files[self.nodes[id].0]
    }

    /// Every non-test node whose (owner, name) matches `qual`
    /// (`"Tme::compute_with"` or a bare free-fn name) and whose file path
    /// contains `file_hint` (empty = any file).
    pub fn find(&self, qual: &str, file_hint: &str) -> Vec<NodeId> {
        let (owner, name) = match qual.split_once("::") {
            Some((o, n)) => (Some(o), n),
            None => (None, qual),
        };
        (0..self.nodes.len())
            .filter(|&id| {
                let d = self.def(id);
                !d.is_test
                    && d.name == name
                    && d.owner.as_deref() == owner
                    && self.file(id).path.contains(file_hint)
            })
            .collect()
    }

    /// BFS from `entries`; returns per-node parent links (`parent[id]` =
    /// the node through which `id` was first reached; entries point to
    /// themselves). Unreached nodes are `None`. Test fns never join the
    /// reachable set — an entry cannot be test code, and production paths
    /// do not call into `#[cfg(test)]` items (name collisions with test
    /// helpers would otherwise pull whole test modules in).
    pub fn reach(&self, entries: &[NodeId]) -> Vec<Option<NodeId>> {
        let mut parent: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &e in entries {
            if parent[e].is_none() {
                parent[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if parent[v].is_none() && !self.def(v).is_test {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// Entry → … → `id` witness chain as `qual @ file:line` strings.
    pub fn chain(&self, parent: &[Option<NodeId>], id: NodeId) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = id;
        loop {
            let d = self.def(cur);
            rev.push(format!("{} @ {}:{}", d.qual(), self.file(cur).path, d.line));
            match parent[cur] {
                Some(p) if p != cur => cur = p,
                _ => break,
            }
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;

    fn graph_of(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter().map(|(p, s)| parse_file(p, s)).collect()
    }

    fn quals(g: &Graph, ids: &[NodeId]) -> Vec<String> {
        ids.iter().map(|&i| g.def(i).qual()).collect()
    }

    #[test]
    fn free_call_edges() {
        let files = graph_of(&[(
            "a.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}",
        )]);
        let g = Graph::build(&files);
        let top = g.find("top", "")[0];
        let parent = g.reach(&[top]);
        let leaf = g.find("leaf", "")[0];
        assert!(parent[leaf].is_some());
        let chain = g.chain(&parent, leaf);
        assert_eq!(chain.len(), 3);
        assert!(chain[0].starts_with("top @ a.rs:1"));
        assert!(chain[2].starts_with("leaf @ a.rs:3"));
    }

    #[test]
    fn method_and_qualified_calls_resolve_by_owner() {
        let files = graph_of(&[(
            "a.rs",
            "struct A; struct B;\n\
             impl A { fn go(&self) {} }\n\
             impl B { fn go(&self) {} fn make() -> B { B } }\n\
             fn use_method(a: &A) { a.go(); }\n\
             fn use_qual() { B::make(); }",
        )]);
        let g = Graph::build(&files);
        // `.go()` over-approximates to both impls named `go`.
        let parent = g.reach(&g.find("use_method", ""));
        assert!(parent[g.find("A::go", "")[0]].is_some());
        assert!(parent[g.find("B::go", "")[0]].is_some());
        // `B::make()` resolves only to B's impl.
        let parent = g.reach(&g.find("use_qual", ""));
        assert!(parent[g.find("B::make", "")[0]].is_some());
        assert!(parent[g.find("A::go", "")[0]].is_none());
    }

    #[test]
    fn module_qualified_free_fn_falls_back_to_name() {
        let files = graph_of(&[
            ("m.rs", "pub fn helper() { deep(); } pub fn deep() {}"),
            ("u.rs", "fn user() { m::helper(); }"),
        ]);
        let g = Graph::build(&files);
        let parent = g.reach(&g.find("user", ""));
        assert!(parent[g.find("helper", "")[0]].is_some());
        assert!(parent[g.find("deep", "")[0]].is_some());
    }

    #[test]
    fn self_qualified_calls_stay_in_the_impl() {
        let files = graph_of(&[(
            "a.rs",
            "struct S; struct T;\n\
             impl S { fn new() -> S { S } fn mk() -> S { Self::new() } }\n\
             impl T { fn new() -> T { T } }",
        )]);
        let g = Graph::build(&files);
        let parent = g.reach(&g.find("S::mk", ""));
        assert!(parent[g.find("S::new", "")[0]].is_some());
        assert!(parent[g.find("T::new", "")[0]].is_none());
    }

    #[test]
    fn type_parameter_calls_reach_every_impl_across_the_crate_dag() {
        let files = graph_of(&[
            (
                "crates/num/src/bytes.rs",
                "impl<'a> Reader<'a> { fn read<T: Codec>(&mut self) { T::decode(self); } }\n\
                 fn other<U>() { Vec::new(); }",
            ),
            (
                "crates/md/src/params.rs",
                "impl Codec for Params { fn decode(r: &mut Reader) {} }",
            ),
        ]);
        let g = Graph::build(&files);
        let parent = g.reach(&g.find("Reader::read", ""));
        assert!(parent[g.find("Params::decode", "")[0]].is_some());
        // A capitalized qualifier that is not a parameter in scope is
        // still an external type.
        assert_eq!(g.edges[g.find("other", "")[0]], Vec::<NodeId>::new());
    }

    #[test]
    fn closure_bodies_attribute_calls_to_the_creating_fn() {
        let files = graph_of(&[(
            "a.rs",
            "fn fan_out() { run(|x| inner(x)); }\nfn run<F: Fn(u8)>(_f: F) {}\nfn inner(_x: u8) {}",
        )]);
        let g = Graph::build(&files);
        let parent = g.reach(&g.find("fan_out", ""));
        assert!(parent[g.find("inner", "")[0]].is_some());
    }

    #[test]
    fn test_fns_are_not_reachable() {
        let files = graph_of(&[(
            "a.rs",
            "fn prod() { shared(); }\nfn shared() {}\n\
             #[cfg(test)] mod t { fn shared() { panic!(); } }",
        )]);
        let g = Graph::build(&files);
        let parent = g.reach(&g.find("prod", ""));
        let shared = g.find("shared", "");
        assert_eq!(shared.len(), 1); // test copy excluded from find()
        assert!(parent[shared[0]].is_some());
    }

    #[test]
    fn find_honors_file_hints() {
        let files = graph_of(&[("x/a.rs", "fn f() {}"), ("y/b.rs", "fn f() {}")]);
        let g = Graph::build(&files);
        assert_eq!(g.find("f", "").len(), 2);
        let only = g.find("f", "y/");
        assert_eq!(quals(&g, &only), ["f"]);
        assert_eq!(g.file(only[0]).path, "y/b.rs");
    }

    /// The closure table is hand-maintained; pin it to the manifests so a
    /// new `Cargo.toml` dependency cannot silently under-approximate the
    /// graph (a missing closure entry prunes real edges — unsound).
    #[test]
    fn crate_deps_table_matches_the_manifests() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        for (krate, closure) in CRATE_DEPS {
            // Transitivity: everything a closure member may reach, the
            // closure itself must contain.
            for member in *closure {
                if let Some((_, inner)) = CRATE_DEPS.iter().find(|(c, _)| c == member) {
                    for d in *inner {
                        assert!(
                            closure.contains(d),
                            "closure of `{krate}` misses `{d}` (via `{member}`)"
                        );
                    }
                }
            }
            let manifest = root.join("crates").join(krate).join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                panic!("CRATE_DEPS names `{krate}` but {manifest:?} is unreadable");
            };
            let mut in_deps = false;
            for line in text.lines() {
                let line = line.trim();
                if line.starts_with('[') {
                    in_deps = line == "[dependencies]";
                    continue;
                }
                if !in_deps {
                    continue;
                }
                let Some(pkg) = line.split('.').next().filter(|p| !p.is_empty()) else {
                    continue;
                };
                let dir = match pkg.strip_prefix("tme-") {
                    Some(d) => d,
                    None if pkg == "mdgrape-sim" => "mdgrape",
                    None => continue,
                };
                assert!(
                    dep_allowed(krate, dir),
                    "`{krate}` depends on `{dir}` in its manifest but the \
                     CRATE_DEPS closure omits it"
                );
            }
        }
    }
}

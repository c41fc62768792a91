//! Conservative, name-based call graph over the extracted functions.
//!
//! Resolution is purely syntactic — no type information exists at this
//! layer — so a use of a fn resolves to *every* workspace function it could
//! plausibly name. A use is a call `name(…)`, a turbofish call
//! `name::<…>(…)`, or a fn item passed as a value (`.map(Resource::new)`,
//! `spawn(worker_loop)`, `worker_loop as fn(&Server)`):
//!
//! * `.name(…)`      → every method (associated fn) named `name`
//! * `Type::name`    → methods of `Type` named `name`. A capitalized
//!   qualifier matching no workspace impl is an external type
//!   (`Vec::new`, `Instant::now`) and resolves to nothing — its
//!   *primitives* are what the rules pattern-match instead.
//! * `mod::name`     → a lowercase qualifier is a module path: free fns
//!   named `name`, preferring ones defined in a file named after the
//!   module (`…/mod.rs` path segment match).
//! * `Self::name`    → methods of the enclosing impl's type
//! * `T::name`       → with `T` a type parameter in scope (of the fn or
//!   its impl): every method named `name` in *any* crate — the caller
//!   picks the impl, so a generic in `num` may run a `decode` defined in
//!   `md`. The crate closure below does not prune these edges.
//! * `name`          → every free function named `name`; a bare name not
//!   followed by `(` counts only where a value stands (after `(`, `,`,
//!   `=`, `[` or a field's `:`; before `)`, `,`, `;`, `]`, `}` or `as`).
//!
//! One pruning pass keeps the over-approximation honest without losing
//! soundness:
//!
//! * **Crate closure** — an edge from crate A into crate B is dropped
//!   unless B is in A's transitive dependency set, read from the
//!   `crates/*/Cargo.toml` manifests ([`CrateDeps`]): `core` code cannot
//!   call into `bench` no matter how method names collide. A crate's
//!   test targets (`crates/*/tests`), code outside `crates/` and crates
//!   with no manifest may call anything.
//! * Remaining over-approximation adds edges (false reachability a rule
//!   may then allowlist); it never loses them.
//!
//! Closure bodies are token spans inside their defining fn, so a closure's
//! calls are attributed to the fn that creates it. Higher-order flows
//! (`pool.run_parts(|part, w| …)`) therefore stay visible. A call made
//! only from a `static` initializer or a `macro_rules!` body lies outside
//! every fn body and has no edge.

use crate::ast::{is_keyword, FnDef, SourceFile};
use crate::lexer::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Index of one function: (file index, fn index within that file).
pub type NodeId = usize;

/// Each workspace crate's transitive `[dependencies]` closure (self
/// included), keyed by directory name under `crates/`.
#[derive(Clone, Debug, Default)]
pub struct CrateDeps(BTreeMap<String, BTreeSet<String>>);

impl CrateDeps {
    /// Read every `crates/*/Cargo.toml` under `root`.
    pub fn from_manifests(root: &Path) -> Self {
        let manifests: Vec<(String, String)> = std::fs::read_dir(root.join("crates"))
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let text = std::fs::read_to_string(e.path().join("Cargo.toml")).ok()?;
                Some((e.file_name().to_string_lossy().into_owned(), text))
            })
            .collect();
        let pairs: Vec<(&str, &str)> = manifests
            .iter()
            .map(|(d, t)| (d.as_str(), t.as_str()))
            .collect();
        Self::from_manifest_texts(&pairs)
    }

    /// [`Self::from_manifests`] over `(directory, Cargo.toml text)` pairs.
    /// A dependency is matched to a workspace crate by package name;
    /// external packages are ignored.
    pub fn from_manifest_texts(manifests: &[(&str, &str)]) -> Self {
        let mut dir_of: BTreeMap<String, &str> = BTreeMap::new();
        let mut direct: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for &(dir, text) in manifests {
            let (name, deps) = manifest_entries(text);
            dir_of.extend(name.map(|n| (n, dir)));
            direct.insert(dir, deps);
        }
        let mut out = Self::default();
        for &start in direct.keys() {
            let mut seen = BTreeSet::from([start.to_string()]);
            let mut stack = vec![start];
            while let Some(c) = stack.pop() {
                for d in direct[c].iter().filter_map(|p| dir_of.get(p)) {
                    if seen.insert(d.to_string()) {
                        stack.push(d);
                    }
                }
            }
            out.0.insert(start.to_string(), seen);
        }
        out
    }

    /// May code in `from` (a workspace-relative path) call code in `to`?
    /// Only a crate's `src/` is bound by its closure: its test targets
    /// also see dev-dependencies, so they may call anything.
    fn allowed(&self, from: &str, to: &str) -> bool {
        let (cf, ct) = (crate_of(from), crate_of(to));
        cf == ct || !from.contains("/src/") || self.0.get(cf).is_none_or(|deps| deps.contains(ct))
    }
}

/// The package name and the `[dependencies]` keys of one manifest
/// (`tme-num.workspace = true`, `x = { path = … }`).
fn manifest_entries(text: &str) -> (Option<String>, Vec<String>) {
    let (mut name, mut deps) = (None, Vec::new());
    let mut section = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.split('.').next().unwrap_or_default().trim();
        match section {
            "[package]" if key == "name" && name.is_none() => {
                name = Some(value.trim().trim_matches('"').to_string());
            }
            "[dependencies]" => deps.push(key.to_string()),
            _ => {}
        }
    }
    (name, deps)
}

/// The crate a workspace-relative path belongs to (`""` = root targets,
/// the facade and `benchmark/`, which may depend on everything).
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// The qualifier of the path segment at `idx` (`Q` in `Q::name` or
/// `Q::<T>::name`), if the segment is qualified. A qualified self type
/// (`<T as Trait>::name`) yields `">"`.
fn qualifier(toks: &[Token], idx: usize) -> Option<&str> {
    if idx < 3 || toks[idx - 1].text != ":" || toks[idx - 2].text != ":" {
        return None;
    }
    let mut q = idx - 3;
    if toks[q].text == ">" {
        // Step back to the `<` that opens the generic group.
        let mut depth = 0i32;
        loop {
            match toks[q].text.as_str() {
                ">" => depth += 1,
                "<" => depth -= 1,
                _ => {}
            }
            if depth == 0 || q == 0 {
                break;
            }
            q -= 1;
        }
        // `Q::<T>::name` names `Q`; anything else is `<T as Trait>::name`.
        if q < 3 || toks[q - 1].text != ":" || toks[q - 2].text != ":" {
            return Some(">");
        }
        q -= 3;
    }
    Some(toks[q].text.as_str())
}

/// Index of the token after the identifier at `idx`, past a turbofish
/// `::<…>` if one follows.
fn after_turbofish(toks: &[Token], idx: usize) -> usize {
    let colons = |j: usize| toks.get(j).is_some_and(|t| t.text == ":");
    if !(colons(idx + 1) && colons(idx + 2) && toks.get(idx + 3).is_some_and(|t| t.text == "<")) {
        return idx + 1;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(idx + 3) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" if toks[j - 1].text != "-" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            "{" | ";" => return j,
            _ => {}
        }
    }
    toks.len()
}

/// Does a bare identifier with neighbours `prev` and `next` stand where a
/// value does (an argument, an initializer, a field, an element)?
fn value_position(prev: Option<&str>, prev2: Option<&str>, next: Option<&str>) -> bool {
    let before = match prev {
        Some("(" | "," | "=" | "[") => true,
        Some(":") => prev2 != Some(":"),
        _ => false,
    };
    before && matches!(next, Some(")" | "," | ";" | "]" | "}" | "as"))
}

pub struct Graph<'a> {
    files: &'a [SourceFile],
    /// Flattened (file_idx, fn_idx) per node, in file/definition order.
    nodes: Vec<(usize, usize)>,
    /// node → callee nodes (sorted, deduped).
    edges: Vec<Vec<NodeId>>,
}

impl<'a> Graph<'a> {
    pub fn build(files: &'a [SourceFile], deps: &CrateDeps) -> Self {
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
            let text = |j: usize| toks.get(j).map(|t| t.text.as_str());
            let mut out: Vec<NodeId> = Vec::new();
            let push = |ts: &[NodeId], out: &mut Vec<NodeId>| {
                out.extend(
                    ts.iter()
                        .copied()
                        .filter(|&c| deps.allowed(&f.path, &files[nodes[c].0].path)),
                );
            };
            for idx in a..=b.min(toks.len().saturating_sub(1)) {
                let t = &toks[idx];
                if t.kind != TokKind::Ident || is_keyword(&t.text) {
                    continue;
                }
                let name = t.text.as_str();
                let prev = idx.checked_sub(1).and_then(text);
                let next = text(after_turbofish(toks, idx));
                let call = next == Some("(");
                if prev == Some(".") {
                    if call {
                        if let Some(ts) = methods_by_name.get(name) {
                            push(ts, &mut out);
                        }
                    }
                } else if let Some(q) = qualifier(toks, idx) {
                    if matches!(next, Some(":" | "!")) {
                        continue; // an inner path segment, or a macro
                    }
                    let owner = if q == "Self" {
                        d.owner.as_deref().unwrap_or(q)
                    } else {
                        q
                    };
                    if q == ">" {
                        // `<T as Trait>::name`: any impl of the trait.
                        if let Some(ts) = methods_by_name.get(name) {
                            push(ts, &mut out);
                        }
                    } else if d.type_params.iter().any(|p| p == q) {
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
                } else if prev != Some("fn")
                    && (call || value_position(prev, idx.checked_sub(2).and_then(text), next))
                {
                    if let Some(ts) = free_by_name.get(name) {
                        push(ts, &mut out);
                    }
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
        let g = Graph::build(&files, &CrateDeps::default());
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
        let g = Graph::build(&files, &CrateDeps::default());
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
        let g = Graph::build(&files, &CrateDeps::default());
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
        let g = Graph::build(&files, &CrateDeps::default());
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
        let g = Graph::build(&files, &num_below_md());
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
        let g = Graph::build(&files, &CrateDeps::default());
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
        let g = Graph::build(&files, &CrateDeps::default());
        let parent = g.reach(&g.find("prod", ""));
        let shared = g.find("shared", "");
        assert_eq!(shared.len(), 1); // test copy excluded from find()
        assert!(parent[shared[0]].is_some());
    }

    #[test]
    fn find_honors_file_hints() {
        let files = graph_of(&[("x/a.rs", "fn f() {}"), ("y/b.rs", "fn f() {}")]);
        let g = Graph::build(&files, &CrateDeps::default());
        assert_eq!(g.find("f", "").len(), 2);
        let only = g.find("f", "y/");
        assert_eq!(quals(&g, &only), ["f"]);
        assert_eq!(g.file(only[0]).path, "y/b.rs");
    }

    /// `num` below `md`, as the manifests declare them.
    fn num_below_md() -> CrateDeps {
        CrateDeps::from_manifest_texts(&[
            ("num", "[package]\nname = \"tme-num\"\n[dependencies]\n"),
            (
                "md",
                "[package]\nname = \"tme-md\"\n[dependencies]\ntme-num.workspace = true\n",
            ),
        ])
    }

    #[test]
    fn turbofish_calls_are_edges() {
        let files = graph_of(&[(
            "a.rs",
            "struct S;\n\
             impl S { fn go(&self) { self.spread::<4>(); Self::mk::<u8>(); }\n\
             fn spread<const P: usize>(&self) {} fn mk<T>() {} }\n\
             fn top(s: &S) { pair_sum::<false>(1); s.go(); }\n\
             fn pair_sum<const LJ: bool>(_n: u8) {}",
        )]);
        let g = Graph::build(&files, &CrateDeps::default());
        let parent = g.reach(&g.find("top", ""));
        for callee in ["pair_sum", "S::spread", "S::mk"] {
            assert!(parent[g.find(callee, "")[0]].is_some(), "{callee}");
        }
    }

    #[test]
    fn fn_items_cast_to_fn_pointers_are_edges() {
        let files = graph_of(&[(
            "a.rs",
            "fn start() { spawn(worker_loop as fn(&u8)); }\n\
             fn spawn(_f: fn(&u8)) {}\nfn worker_loop(_s: &u8) { leaf(); }\nfn leaf() {}",
        )]);
        let g = Graph::build(&files, &CrateDeps::default());
        let parent = g.reach(&g.find("start", ""));
        assert!(parent[g.find("worker_loop", "")[0]].is_some());
        assert!(parent[g.find("leaf", "")[0]].is_some());
    }

    #[test]
    fn fn_paths_passed_as_arguments_are_edges() {
        let files = graph_of(&[(
            "a.rs",
            "struct Resource; struct Tag;\n\
             impl Resource { fn new(_n: usize) -> Resource { Resource } }\n\
             impl Tag { fn from_tag(_b: u8) -> Tag { Tag } fn read() { decode_tag(Self::from_tag); } }\n\
             fn decode_tag<F: Fn(u8) -> Tag>(_f: F) {}\n\
             fn build() { (0..2).map(Resource::new).count(); Tag::read(); }\n\
             fn field() -> Holder { Holder { f: helper } }\nfn helper() {}\n\
             fn unrelated(helper: u8) -> u8 { helper + 1 }",
        )]);
        let g = Graph::build(&files, &CrateDeps::default());
        let parent = g.reach(&g.find("build", ""));
        assert!(parent[g.find("Resource::new", "")[0]].is_some());
        assert!(parent[g.find("Tag::from_tag", "")[0]].is_some());
        let parent = g.reach(&g.find("field", ""));
        assert!(parent[g.find("helper", "")[0]].is_some());
        // A name in an expression that is not a value position is not a
        // use of the fn.
        assert_eq!(g.edges[g.find("unrelated", "")[0]], Vec::<NodeId>::new());
    }

    #[test]
    fn manifest_closures_are_transitive_and_bind_only_src() {
        let deps = CrateDeps::from_manifest_texts(&[
            ("num", "[package]\nname = \"tme-num\"\n"),
            (
                "mesh",
                "[package]\nname = \"tme-mesh\"\n[dependencies]\ntme-num.workspace = true\n",
            ),
            (
                "core",
                "[package]\nname = \"tme-core\"\n\
                 [dependencies]\ntme-mesh = { path = \"../mesh\" }\nlibc = \"0.2\"\n\
                 [dev-dependencies]\ntme-reference.workspace = true\n",
            ),
            (
                "reference",
                "[package]\nname = \"tme-reference\"\n[dependencies]\ntme-num.workspace = true\n",
            ),
        ]);
        assert!(deps.allowed("crates/core/src/a.rs", "crates/num/src/b.rs"));
        assert!(!deps.allowed("crates/num/src/b.rs", "crates/core/src/a.rs"));
        // A dev-dependency is outside `src/`'s closure; tests may call it.
        assert!(!deps.allowed("crates/core/src/a.rs", "crates/reference/src/c.rs"));
        assert!(deps.allowed("crates/core/tests/t.rs", "crates/reference/src/c.rs"));
        // Root targets and crates no manifest names may call anything.
        assert!(deps.allowed("tests/t.rs", "crates/core/src/a.rs"));
        assert!(deps.allowed("crates/new/src/x.rs", "crates/core/src/a.rs"));
    }

    /// The closure the analyzer runs on is the manifests': the load
    /// harness's `tme_router::route` call reaches the router crate, which
    /// `bench` depends on.
    #[test]
    fn serve_load_reaches_the_router_through_the_manifests() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let deps = CrateDeps::from_manifests(&root);
        let rel = "crates/bench/src/bin/serve_load.rs";
        let route = "crates/router/src/server.rs";
        let files: Vec<SourceFile> = [rel, route]
            .iter()
            .map(|p| parse_file(p, &std::fs::read_to_string(root.join(p)).unwrap()))
            .collect();
        let g = Graph::build(&files, &deps);
        let parent = g.reach(&g.find("cluster_router", rel));
        let target = g.find("route", route);
        assert_eq!(target.len(), 1);
        assert!(
            parent[target[0]].is_some(),
            "cluster_router does not reach route"
        );
    }
}

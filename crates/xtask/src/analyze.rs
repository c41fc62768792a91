//! The `tme-analyze` call-graph rules (a1–a6) and allowlist policy.
//!
//! Where the token lints (l1–l6, [`crate::rules`]) judge each file in
//! isolation, these rules judge *reachability*: they build the
//! conservative call graph ([`crate::graph`]) over the whole workspace
//! and walk it from the entry points that carry the paper's contracts.
//!
//! * **a1 hot-path-no-alloc** — no allocation primitive reachable from
//!   `Tme::compute_with` / `Tme::try_compute_with_stats` (the serve
//!   worker's steady-state solve) / `simulate_step_into` / any backend's
//!   execute path. The dynamic counting-allocator test proves one
//!   execution; this proves every branch the graph can see.
//!   `extend_from_slice`/`clear` on retained buffers are deliberately
//!   permitted: they are amortized-warm, which is the steady-state
//!   contract, and the counting allocator still guards the warm path
//!   dynamically.
//! * **a2 panic-freedom** — no `panic!`-family macro or `unwrap`/`expect`
//!   reachable from fault/checkpoint/serve entry points or a backend's
//!   execute path, plus raw indexing inside recovery/serve files
//!   themselves.
//! * **a3 merge-order determinism** — every `tme_num::pool` fan-out site
//!   (`run_parts`) must show ordered-merge discipline in the
//!   same function: `merge_ordered`, `chunk_bounds`-derived slicing,
//!   `for_each_chunk`, or `SendPtr` disjoint writes.
//! * **a4 wire-decode bounds** — decoders reachable from the wire/
//!   checkpoint decode entries must not index slices raw; every read goes
//!   through the checked-cursor API (`ByteReader::take`). A decoder is any
//!   codec `decode` fn, whatever file it is in, or any fn of a decode file
//!   (`bytes.rs`, `protocol.rs`, `*checkpoint*`).
//! * **a5 oracle-only pair loop** — the exact O(N²) real-space loop
//!   (`pairwise::short_range`, `short_range_into`,
//!   `short_range_table_into`) is the oracle and the numerical-fault
//!   fallback; no backend's execute path may reach a call to it. Reported
//!   *per entry*, so the one exemption (the Ewald oracle backend) names
//!   that backend and nothing else.
//! * **a6 every public fn has a caller** — every `pub fn` (and provided
//!   method of a `pub trait`) under `crates/*/src`, bins excluded, must be
//!   reachable from an entry: any `main`, or any fn outside
//!   `crates/*/src` (`tests/`, `examples/`, `benchmark/`,
//!   `crates/*/tests`). In-module `#[cfg(test)]` code is not an entry: a
//!   fn only its own unit tests call is dead. A method of an
//!   `impl Trait for Type` block is an entry too, because the trait runs
//!   it (operators, `Drop`, `Display`, generic bounds) where the graph
//!   sees no call. Methods of a macro-generated impl (`impl $name`) are
//!   not judged: calls name the types the macro expands for.
//!
//! Findings are suppressed only by the committed allowlist
//! (`crates/xtask/analyze.allow`), whose entries *must* carry a
//! justification after ` -- `; an entry without one is itself an error.

use crate::ast::{is_keyword, SourceFile};
use crate::graph::{CrateDeps, Graph, NodeId};
use crate::lexer::{TokKind, Token};
use crate::report::Finding;
use std::path::Path;

/// Rule entry points: (qualified name, file-path hint).
pub const A1_ENTRIES: &[(&str, &str)] = &[
    ("Tme::compute_with", "crates/core/"),
    ("Tme::try_compute_with_stats", "crates/core/"),
    ("simulate_step_into", "crates/mdgrape/"),
];

/// Every backend's execute path — a1, a2 *and* a5 entries: the
/// `LongRangeBackend` contract (DESIGN.md §14) promises a zero-alloc,
/// panic-free steady state on the one real-space kernel for each of them,
/// not just TME. SPME's and the cutoff model's run `compute_shared`, the
/// shared composition (it reaches every impl's `mesh_into` by name); the
/// other three keep their own sequence.
pub const BACKEND_ENTRIES: &[(&str, &str)] = &[
    ("SpmeBackend::compute_into", "crates/md/"),
    ("CutoffBackend::compute_into", "crates/md/"),
    ("TmeBackend::compute_into", "crates/md/"),
    ("SlabBackend::compute_into", "crates/md/"),
    ("EwaldBackend::compute_into", "crates/md/"),
];

pub const A2_ENTRIES: &[(&str, &str)] = &[
    ("NveSim::checkpoint", "crates/md/"),
    ("NveSim::restore", "crates/md/"),
    ("run_with_checkpoints", "crates/md/"),
    ("Request::decode", "crates/serve/"),
    // The network core both servers run on (DESIGN.md §12.3): a panic in
    // its loops kills a connection thread, or the accept thread and the
    // server with it.
    ("accept_loop", "crates/serve/src/net.rs"),
    ("connection_loop", "crates/serve/src/net.rs"),
    // Each service's own bodies behind the core's calls. Serve's are
    // reached from the core by name too; the router's are not (serve
    // does not depend on it), so they must be entries: a poisoned
    // forward must answer the client, not unwind the connection thread.
    ("Server::admit", "crates/serve/"),
    ("Server::screen", "crates/serve/"),
    ("submit_and_wait", "crates/serve/"),
    ("worker_loop", "crates/serve/"),
    ("handle_work", "crates/router/"),
    ("probe_loop", "crates/router/"),
];

pub const A4_ENTRIES: &[(&str, &str)] = &[
    ("Request::decode", "crates/serve/"),
    ("Response::decode", "crates/serve/"),
    ("read_frame", "crates/serve/"),
    ("NveSim::restore", "crates/md/"),
];

/// Result of one analyze pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings NOT covered by the allowlist (these fail the run).
    pub findings: Vec<Finding>,
    /// Count of findings suppressed by allowlist entries.
    pub allowlisted: usize,
    /// Allowlist entries that matched nothing (stale — warn).
    pub unused_allowlist: Vec<String>,
}

/// Run rules a1–a6 over the parsed workspace, with crate boundaries from
/// `deps`.
pub fn analyze_files(files: &[SourceFile], deps: &CrateDeps, allowlist_text: &str) -> Analysis {
    let g = Graph::build(files, deps);
    let mut raw: Vec<Finding> = Vec::new();
    let with_backends =
        |entries: &[(&'static str, &'static str)]| [entries, BACKEND_ENTRIES].concat();
    rule_reachable_primitives(&g, "a1", &with_backends(A1_ENTRIES), A1_PRIMS, &mut raw);
    rule_reachable_primitives(&g, "a2", &with_backends(A2_ENTRIES), A2_PRIMS, &mut raw);
    rule_a2_indexing(&g, &mut raw);
    rule_a3_merge_order(files, &mut raw);
    rule_a4_decode_bounds(&g, &mut raw);
    rule_a5_oracle_only(&g, &mut raw);
    rule_a6_public_fns_reached(&g, &mut raw);
    apply_allowlist(raw, allowlist_text)
}

// ---------------------------------------------------------------- a1/a2

/// One forbidden primitive, matched against the token stream.
enum Prim {
    /// `Owner :: name` (any of `names`).
    Qual(&'static str, &'static [&'static str]),
    /// `. name (` method call.
    Method(&'static str),
    /// `name !` macro invocation.
    Mac(&'static str),
    /// `name (` free-function call (not a method, not the definition).
    Call(&'static str),
}

const A1_PRIMS: &[Prim] = &[
    Prim::Qual("Vec", &["new", "with_capacity", "from"]),
    Prim::Qual("Box", &["new", "from", "leak"]),
    Prim::Qual("String", &["new", "from", "with_capacity"]),
    Prim::Mac("vec"),
    Prim::Mac("format"),
    Prim::Method("to_vec"),
    Prim::Method("to_string"),
    Prim::Method("to_owned"),
    Prim::Method("collect"),
    Prim::Method("push"),
    Prim::Method("push_back"),
    Prim::Method("push_front"),
];

const A2_PRIMS: &[Prim] = &[
    Prim::Mac("panic"),
    Prim::Mac("unreachable"),
    Prim::Mac("todo"),
    Prim::Mac("unimplemented"),
    Prim::Method("unwrap"),
    Prim::Method("expect"),
];

fn prim_hits(toks: &[Token], span: (usize, usize), prims: &[Prim]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let hi = span.1.min(toks.len().saturating_sub(1));
    for idx in span.0..=hi {
        let t = &toks[idx];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(idx + 1).map(|n| n.text.as_str());
        let prev = idx.checked_sub(1).map(|p| toks[p].text.as_str());
        for p in prims {
            match p {
                Prim::Qual(owner, names) => {
                    if t.text == *owner
                        && next == Some(":")
                        && toks.get(idx + 2).map(|n| n.text.as_str()) == Some(":")
                        && toks
                            .get(idx + 3)
                            .is_some_and(|n| names.contains(&n.text.as_str()))
                    {
                        out.push((t.line, format!("{owner}::{}", toks[idx + 3].text)));
                    }
                }
                Prim::Method(name) => {
                    if t.text == *name && prev == Some(".") && next == Some("(") {
                        out.push((t.line, format!(".{name}()")));
                    }
                }
                Prim::Mac(name) => {
                    if t.text == *name && next == Some("!") {
                        out.push((t.line, format!("{name}!")));
                    }
                }
                Prim::Call(name) => {
                    if t.text == *name && next == Some("(") && !matches!(prev, Some("." | "fn")) {
                        out.push((t.line, format!("{name}()")));
                    }
                }
            }
        }
    }
    out
}

fn rule_reachable_primitives(
    g: &Graph,
    rule: &str,
    entries: &[(&str, &str)],
    prims: &[Prim],
    out: &mut Vec<Finding>,
) {
    let entry_ids: Vec<NodeId> = entries.iter().flat_map(|(q, h)| g.find(q, h)).collect();
    let parent = g.reach(&entry_ids);
    let what = if rule == "a1" {
        "allocation primitive"
    } else {
        "panic primitive"
    };
    for id in 0..g.len() {
        if parent[id].is_none() || g.def(id).is_test {
            continue;
        }
        let f = g.file(id);
        let d = g.def(id);
        for (line, desc) in prim_hits(&f.tokens, d.body, prims) {
            out.push(Finding {
                rule: rule.to_string(),
                file: f.path.clone(),
                line,
                function: d.qual(),
                message: format!("{what} `{desc}` reachable from a {rule} entry point"),
                chain: g.chain(&parent, id),
            });
        }
    }
}

// ------------------------------------------------------------------- a5

const A5_PRIMS: &[Prim] = &[
    Prim::Call("short_range"),
    Prim::Call("short_range_into"),
    Prim::Call("short_range_table_into"),
];

/// One finding per (backend entry, reachable call of the O(N²) loop),
/// attributed to the *entry*: which backend may sit on the oracle loop is
/// the decision the allowlist records, not which callee contains it.
fn rule_a5_oracle_only(g: &Graph, out: &mut Vec<Finding>) {
    for entry in BACKEND_ENTRIES.iter().flat_map(|(q, h)| g.find(q, h)) {
        let parent = g.reach(&[entry]);
        for id in 0..g.len() {
            if parent[id].is_none() || g.def(id).is_test {
                continue;
            }
            for (line, desc) in prim_hits(&g.file(id).tokens, g.def(id).body, A5_PRIMS) {
                out.push(Finding {
                    rule: "a5".to_string(),
                    file: g.file(entry).path.clone(),
                    line: g.def(entry).line,
                    function: g.def(entry).qual(),
                    message: format!(
                        "exact O(N²) pair loop `{desc}` ({}:{line}) reachable from a backend \
                         execute path — real space runs on `cells::short_range_cells_into`",
                        g.file(id).path
                    ),
                    chain: g.chain(&parent, id),
                });
            }
        }
    }
}

// ------------------------------------------------------------------- a2 indexing

/// Raw slice-indexing sites in a token span: `recv[ …ident… ]`. Bracket
/// groups whose contents are all integer literals (fixed-size array
/// access, e.g. after `try_into`) are treated as guarded-by-construction.
fn raw_index_sites(toks: &[Token], span: (usize, usize)) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let hi = span.1.min(toks.len().saturating_sub(1));
    for idx in span.0..=hi {
        if toks[idx].text != "[" || idx == 0 {
            continue;
        }
        let prev = &toks[idx - 1];
        let is_recv = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
            || prev.text == "]"
            || prev.text == ")";
        if !is_recv {
            continue;
        }
        // Scan the balanced group; flag only if an identifier appears
        // (a dynamic index/range), not for literal-only indices.
        let mut depth = 0i32;
        let mut j = idx;
        let mut dynamic = false;
        while j <= hi {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                s if toks[j].kind == TokKind::Ident && !is_keyword(s) && j > idx => {
                    dynamic = true;
                }
                _ => {}
            }
            j += 1;
        }
        if dynamic {
            out.push((prev.line, prev.text.clone()));
        }
    }
    out
}

fn rule_a2_indexing(g: &Graph, out: &mut Vec<Finding>) {
    for id in 0..g.len() {
        let f = g.file(id);
        let scope = crate::walk::scope_for(Path::new(&f.path));
        if !(scope.recovery || scope.serve) {
            continue;
        }
        let d = g.def(id);
        if d.is_test {
            continue;
        }
        for (line, recv) in raw_index_sites(&f.tokens, d.body) {
            out.push(Finding {
                rule: "a2".to_string(),
                file: f.path.clone(),
                line,
                function: d.qual(),
                message: format!(
                    "raw dynamic indexing of `{recv}` in recovery/serve code — use `get` or a \
                     length-checked split"
                ),
                chain: Vec::new(),
            });
        }
    }
}

// ------------------------------------------------------------------- a3

const A3_MARKERS: &[&str] = &["merge_ordered", "chunk_bounds", "for_each_chunk", "SendPtr"];

fn rule_a3_merge_order(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files {
        for d in &f.fns {
            if d.is_test {
                continue;
            }
            let (a, b) = d.body;
            let hi = b.min(f.tokens.len().saturating_sub(1));
            let toks = &f.tokens;
            let mut fan_out_line = None;
            let mut has_marker = false;
            for idx in a..=hi {
                let t = &toks[idx];
                if t.kind != TokKind::Ident {
                    continue;
                }
                if A3_MARKERS.contains(&t.text.as_str()) {
                    has_marker = true;
                }
                if t.text == "run_parts"
                    && idx > 0
                    && toks[idx - 1].text == "."
                    && toks.get(idx + 1).map(|n| n.text.as_str()) == Some("(")
                    && fan_out_line.is_none()
                {
                    fan_out_line = Some((t.line, t.text.clone()));
                }
            }
            if let Some((line, call)) = fan_out_line {
                if !has_marker {
                    out.push(Finding {
                        rule: "a3".to_string(),
                        file: f.path.clone(),
                        line,
                        function: d.qual(),
                        message: format!(
                            "pool fan-out `.{call}(…)` without ordered-merge discipline — merge \
                             worker results via `pool::merge_ordered` (or `chunk_bounds`/`SendPtr` \
                             disjoint writes)"
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }
}

// ------------------------------------------------------------------- a4

/// A codec `decode` fn — a layout declared beside its type, in any
/// file — or any fn of a file that is all decoding.
fn is_decoder(path: &str, name: &str) -> bool {
    name == "decode"
        || path.ends_with("bytes.rs")
        || path.ends_with("protocol.rs")
        || path.contains("checkpoint")
}

fn rule_a4_decode_bounds(g: &Graph, out: &mut Vec<Finding>) {
    let entry_ids: Vec<NodeId> = A4_ENTRIES.iter().flat_map(|(q, h)| g.find(q, h)).collect();
    let parent = g.reach(&entry_ids);
    for id in 0..g.len() {
        if parent[id].is_none() || g.def(id).is_test {
            continue;
        }
        let f = g.file(id);
        let d = g.def(id);
        if !is_decoder(&f.path, &d.name) {
            continue;
        }
        let mut sites = raw_index_sites(&f.tokens, d.body);
        // `get_unchecked` is never acceptable on a decode path.
        let hi = d.body.1.min(f.tokens.len().saturating_sub(1));
        for idx in d.body.0..=hi {
            let t = &f.tokens[idx];
            if t.text == "get_unchecked" && idx > 0 && f.tokens[idx - 1].text == "." {
                sites.push((t.line, "get_unchecked".to_string()));
            }
        }
        for (line, recv) in sites {
            out.push(Finding {
                rule: "a4".to_string(),
                file: f.path.clone(),
                line,
                function: d.qual(),
                message: format!(
                    "raw read of `{recv}` on a wire-decode path — go through the checked cursor \
                     (`ByteReader::take`)"
                ),
                chain: g.chain(&parent, id),
            });
        }
    }
}

// ------------------------------------------------------------------- a6

/// A library source under `crates/*/src`, not a bin target.
fn is_library_source(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.contains("/src/bin/")
        && !path.ends_with("/src/main.rs")
}

fn rule_a6_public_fns_reached(g: &Graph, out: &mut Vec<Finding>) {
    let entries: Vec<NodeId> = (0..g.len())
        .filter(|&id| {
            let d = g.def(id);
            let path = &g.file(id).path;
            let in_src = path.starts_with("crates/") && path.contains("/src/");
            !in_src || (!d.is_test && (d.name == "main" || d.trait_impl))
        })
        .collect();
    let parent = g.reach(&entries);
    for (id, reached) in parent.iter().enumerate() {
        let (f, d) = (g.file(id), g.def(id));
        let macro_impl = d.owner.as_deref().is_some_and(|o| o.starts_with('$'));
        if d.is_pub && !d.is_test && !macro_impl && reached.is_none() && is_library_source(&f.path)
        {
            out.push(Finding {
                rule: "a6".to_string(),
                file: f.path.clone(),
                line: d.line,
                function: d.qual(),
                message: "public fn reached from no entry (a `main`, or code outside \
                          `crates/*/src`) — delete it, or allowlist it with the reason it stays"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
}

// ------------------------------------------------------------- allowlist

struct AllowEntry {
    rule: String,
    file_suffix: String,
    function: String,
    line: String,
    used: bool,
}

/// Parse the committed allowlist. Format, one entry per line:
///
/// ```text
/// <rule> <file-suffix> <fn-qual> -- <justification>
/// ```
///
/// `#`-comments and blank lines are skipped. A line without a ` -- `
/// justification is an error finding — unexplained suppressions are
/// exactly what the rule exists to prevent.
fn apply_allowlist(raw: Vec<Finding>, allowlist_text: &str) -> Analysis {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut an = Analysis::default();
    for (lineno, line) in allowlist_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, just) = match line.split_once(" -- ") {
            Some((h, j)) if !j.trim().is_empty() => (h, j),
            _ => {
                an.findings.push(Finding {
                    rule: "allowlist".to_string(),
                    file: "crates/xtask/analyze.allow".to_string(),
                    line: (lineno + 1) as u32,
                    function: String::new(),
                    message: format!("allowlist entry without ` -- <justification>`: `{line}`"),
                    chain: Vec::new(),
                });
                continue;
            }
        };
        let _ = just;
        let fields: Vec<&str> = head.split_whitespace().collect();
        if fields.len() != 3 {
            an.findings.push(Finding {
                rule: "allowlist".to_string(),
                file: "crates/xtask/analyze.allow".to_string(),
                line: (lineno + 1) as u32,
                function: String::new(),
                message: format!(
                    "malformed allowlist entry (want `<rule> <file-suffix> <fn-qual> -- why`): \
                     `{line}`"
                ),
                chain: Vec::new(),
            });
            continue;
        }
        entries.push(AllowEntry {
            rule: fields[0].to_string(),
            file_suffix: fields[1].to_string(),
            function: fields[2].to_string(),
            line: line.to_string(),
            used: false,
        });
    }
    for f in raw {
        let hit = entries.iter_mut().find(|e| {
            e.rule == f.rule && f.file.ends_with(&e.file_suffix) && e.function == f.function
        });
        match hit {
            Some(e) => {
                e.used = true;
                an.allowlisted += 1;
            }
            None => an.findings.push(f),
        }
    }
    an.unused_allowlist = entries
        .iter()
        .filter(|e| !e.used)
        .map(|e| e.line.clone())
        .collect();
    an
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::walk;
    use std::path::PathBuf;

    const ALLOW: &str = include_str!("../analyze.allow");

    fn fixture(name: &str, fake_path: &str) -> SourceFile {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/analyze");
        let src = std::fs::read_to_string(dir.join(name)).unwrap();
        parse_file(fake_path, &src)
    }

    fn rules_hit<'a>(an: &'a Analysis, rule: &str) -> Vec<&'a Finding> {
        an.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// The findings of rules a1–a5 (and allowlist errors). A fixture for
    /// one of them is a fragment whose entry fns no code calls, so a6
    /// judges it only in its own fixtures.
    fn without_a6(an: &Analysis) -> Vec<&Finding> {
        an.findings.iter().filter(|f| f.rule != "a6").collect()
    }

    #[test]
    fn fixture_a1_bad_flags_transitive_alloc_with_witness() {
        let files = vec![fixture("a1_bad.rs", "crates/core/src/a1_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let a1 = rules_hit(&an, "a1");
        let f = a1
            .iter()
            .find(|f| f.message.contains("Vec::new"))
            .unwrap_or_else(|| panic!("no Vec::new finding in {:?}", an.findings));
        assert_eq!(f.function, "grow");
        assert_eq!(f.chain.len(), 3, "entry -> stage -> grow: {:?}", f.chain);
        assert!(f.chain[0].contains("Tme::compute_with"), "{:?}", f.chain);
        assert!(a1.iter().any(|f| f.message.contains(".push()")));
    }

    #[test]
    fn fixture_a1_reaches_through_array_typed_signatures() {
        let files = vec![fixture("a1_array_sig.rs", "crates/core/src/a1_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let a1 = rules_hit(&an, "a1");
        let f = a1
            .iter()
            .find(|f| f.message.contains("Vec::new"))
            .unwrap_or_else(|| panic!("no Vec::new finding in {:?}", an.findings));
        assert_eq!(f.function, "spread");
        assert_eq!(f.chain.len(), 2, "entry -> spread: {:?}", f.chain);
        assert!(a1.iter().any(|f| f.message.contains(".push()")));
    }

    #[test]
    fn fixture_a1_ok_is_clean_and_test_code_is_exempt() {
        let files = vec![fixture("a1_ok.rs", "crates/core/src/a1_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        assert!(without_a6(&an).is_empty(), "{:?}", an.findings);
    }

    #[test]
    fn fixture_a2_bad_flags_unwrap_and_raw_index() {
        let files = vec![fixture("a2_bad.rs", "crates/md/src/checkpoint_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let a2 = rules_hit(&an, "a2");
        let unwrap = a2
            .iter()
            .find(|f| f.message.contains("unwrap"))
            .unwrap_or_else(|| panic!("no unwrap finding in {:?}", an.findings));
        assert_eq!(unwrap.function, "apply");
        assert!(
            unwrap.chain[0].contains("run_with_checkpoints"),
            "{:?}",
            unwrap.chain
        );
        assert!(
            a2.iter()
                .any(|f| f.function == "lookup" && f.message.contains("index")),
            "raw index in recovery file not flagged: {:?}",
            an.findings
        );
    }

    #[test]
    fn fixture_a2_ok_is_clean() {
        let files = vec![fixture("a2_ok.rs", "crates/md/src/checkpoint_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        assert!(without_a6(&an).is_empty(), "{:?}", an.findings);
    }

    #[test]
    fn fixture_a3_bad_flags_unordered_fanout() {
        let files = vec![fixture("a3_bad.rs", "crates/mesh/src/a3_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let a3 = rules_hit(&an, "a3");
        assert_eq!(a3.len(), 1, "{:?}", an.findings);
        assert_eq!(a3[0].function, "reduce");
    }

    #[test]
    fn fixture_a3_ok_ordered_merge_is_clean() {
        let files = vec![fixture("a3_ok.rs", "crates/mesh/src/a3_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        assert!(rules_hit(&an, "a3").is_empty(), "{:?}", an.findings);
    }

    #[test]
    fn fixture_a4_bad_flags_raw_wire_index_with_witness() {
        let files = vec![fixture("a4_bad.rs", "crates/serve/src/a4_protocol.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let a4 = rules_hit(&an, "a4");
        let f = a4
            .iter()
            .find(|f| f.function == "read_len")
            .unwrap_or_else(|| panic!("no a4 finding in {:?}", an.findings));
        assert!(f.chain[0].contains("Request::decode"), "{:?}", f.chain);
    }

    /// A decode impl outside any decode-named file, reached only through
    /// a call qualified by a type parameter, is still a checked decoder.
    #[test]
    fn fixture_a4_flags_raw_index_in_a_decode_impl_anywhere() {
        let files = vec![
            fixture("a4_generic_entry.rs", "crates/serve/src/a4_protocol.rs"),
            fixture("a4_generic_impl.rs", "crates/md/src/backend/params.rs"),
        ];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let a4 = rules_hit(&an, "a4");
        let f = a4
            .iter()
            .find(|f| f.function == "Params::decode")
            .unwrap_or_else(|| panic!("no a4 finding in {:?}", an.findings));
        assert!(f.chain[0].contains("Request::decode"), "{:?}", f.chain);
        assert!(f.chain[1].contains("Reader::read"), "{:?}", f.chain);
    }

    #[test]
    fn fixture_a4_ok_checked_cursor_is_clean() {
        let files = vec![fixture("a4_ok.rs", "crates/serve/src/a4_protocol.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        assert!(without_a6(&an).is_empty(), "{:?}", an.findings);
    }

    #[test]
    fn fixture_a5_bad_names_the_backend_entry_with_witness() {
        let files = vec![fixture("a5_bad.rs", "crates/md/src/backend/a5_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let a5 = rules_hit(&an, "a5");
        assert_eq!(a5.len(), 1, "{:?}", an.findings);
        assert_eq!(a5[0].function, "SlabBackend::compute_into");
        assert!(a5[0].message.contains("short_range_into()"), "{:?}", a5[0]);
        assert_eq!(
            a5[0].chain.len(),
            2,
            "entry -> real_space: {:?}",
            a5[0].chain
        );
        assert!(
            a5[0].chain[1].starts_with("real_space @"),
            "{:?}",
            a5[0].chain
        );
        // The allowlist line names the backend, not the callee.
        let allow = "a5 backend/a5_fixture.rs SlabBackend::compute_into -- fixture";
        let an = analyze_files(&files, &CrateDeps::default(), allow);
        assert!(without_a6(&an).is_empty(), "{:?}", an.findings);
    }

    #[test]
    fn fixture_a5_ok_cell_kernel_backend_is_clean() {
        let files = vec![fixture("a5_ok.rs", "crates/md/src/backend/a5_fixture.rs")];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        assert!(without_a6(&an).is_empty(), "{:?}", an.findings);
    }

    /// The entry for the a6 fixtures: an integration test outside
    /// `crates/*/src`.
    const A6_ENTRY: &str = "fn uses() {\n\
        let t = Table::new(3);\n\
        let _ = [&t].into_iter().map(Table::len_of).sum::<usize>();\n\
        let _ = t.spread::<4>();\n\
        }";

    #[test]
    fn fixture_a6_bad_flags_public_fns_no_entry_reaches() {
        let files = vec![
            fixture("a6_bad.rs", "crates/num/src/a6_fixture.rs"),
            parse_file("crates/num/tests/a6_entry.rs", A6_ENTRY),
        ];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        let flagged: Vec<&str> = rules_hit(&an, "a6")
            .iter()
            .map(|f| f.function.as_str())
            .collect();
        assert_eq!(flagged, ["Table::capacity", "orphan"], "{:?}", an.findings);
        let allow = "a6 num/src/a6_fixture.rs orphan -- fixture\n\
                     a6 num/src/a6_fixture.rs Table::capacity -- fixture";
        assert!(analyze_files(&files, &CrateDeps::default(), allow)
            .findings
            .is_empty());
    }

    #[test]
    fn fixture_a6_ok_entries_reach_every_public_fn() {
        let files = vec![
            fixture("a6_ok.rs", "crates/num/src/a6_fixture.rs"),
            parse_file("crates/num/tests/a6_entry.rs", A6_ENTRY),
            // A bin's public fns are not library surface.
            parse_file(
                "crates/num/src/bin/tool.rs",
                "fn main() {}\npub fn unused_in_bin() {}",
            ),
        ];
        let an = analyze_files(&files, &CrateDeps::default(), "");
        assert!(an.findings.is_empty(), "{:?}", an.findings);
    }

    /// Parse every workspace source the CLI would scan, relative to the
    /// workspace root, with the manifests' crate closures.
    fn parse_workspace() -> (PathBuf, Vec<SourceFile>, CrateDeps) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let files = walk::workspace_rs_files(&root)
            .into_iter()
            .map(|p| {
                let rel = p.strip_prefix(&root).unwrap().to_string_lossy().to_string();
                let src = std::fs::read_to_string(&p).unwrap();
                parse_file(&rel, &src)
            })
            .collect();
        let deps = CrateDeps::from_manifests(&root);
        (root, files, deps)
    }

    /// The committed tree must be analyze-clean under the committed
    /// allowlist, with no stale allowlist entries.
    #[test]
    fn workspace_is_analyze_clean() {
        let (_root, files, deps) = parse_workspace();
        assert!(
            files.len() > 50,
            "walker found too few files: {}",
            files.len()
        );
        let an = analyze_files(&files, &deps, ALLOW);
        assert!(
            an.findings.is_empty(),
            "workspace has unallowlisted findings:\n{}",
            an.findings
                .iter()
                .map(Finding::text)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            an.unused_allowlist.is_empty(),
            "stale allowlist entries (prune them): {:?}",
            an.unused_allowlist
        );
    }

    /// The a2/a4 proofs reach the layouts they guard: the generic `Vec`
    /// decode in `num` and the backend parameters' decode in `md` from
    /// `Request::decode`, and the generic `Vec` decode from
    /// `NveSim::restore` — so a panic or raw read planted in any of them
    /// is a finding.
    #[test]
    fn decode_entries_reach_every_layout_they_decode() {
        let (_root, files, deps) = parse_workspace();
        let g = Graph::build(&files, &deps);
        for (entry, hint, decoder, decoder_hint) in [
            (
                "Request::decode",
                "crates/serve/",
                "Vec::decode",
                "crates/num/",
            ),
            (
                "Request::decode",
                "crates/serve/",
                "BackendParams::decode",
                "crates/md/",
            ),
            (
                "NveSim::restore",
                "crates/md/",
                "Vec::decode",
                "crates/num/",
            ),
        ] {
            let parent = g.reach(&g.find(entry, hint));
            let target = g.find(decoder, decoder_hint);
            assert_eq!(target.len(), 1, "{decoder}");
            assert!(
                parent[target[0]].is_some(),
                "{entry} does not reach {decoder}"
            );
        }
    }

    /// The a1/a2/a5 proofs look inside the cell kernel: its pair sum and
    /// the kernel table's batch evaluation are called through turbofish
    /// instantiations (`pair_sum::<false>(…)`), and every backend's
    /// execute path reaches both — and every SIMD body of the hit pipeline
    /// (candidate pass, accumulate, table batch) beside its portable
    /// reference, so the zero-alloc (a1) and panic-freedom (a2) proofs
    /// cover the code the CPU actually runs (the SAFETY-comment lint, l4,
    /// reads every file).
    #[test]
    fn backend_entries_reach_the_cell_kernel_through_turbofish_calls() {
        let (_root, files, deps) = parse_workspace();
        let g = Graph::build(&files, &deps);
        let targets: Vec<NodeId> = [
            ("pair_sum", "crates/mesh/src/cells.rs"),
            ("Lane::candidates", "crates/mesh/src/cells.rs"),
            ("Lane::candidates_avx2", "crates/mesh/src/cells.rs"),
            ("Lane::candidates_avx512", "crates/mesh/src/cells.rs"),
            ("Lane::accumulate", "crates/mesh/src/cells.rs"),
            ("Lane::accumulate_avx2", "crates/mesh/src/cells.rs"),
            ("PairKernelTable::erfc_kernel_r2_batch", "crates/num/"),
            ("PairKernelTable::erfc_batch_scalar", "crates/num/"),
            ("PairKernelTable::erfc_batch_avx2", "crates/num/"),
        ]
        .iter()
        .map(|(q, h)| {
            let ids = g.find(q, h);
            assert_eq!(ids.len(), 1, "{q}");
            ids[0]
        })
        .collect();
        for (entry, hint) in BACKEND_ENTRIES {
            let parent = g.reach(&g.find(entry, hint));
            for &t in &targets {
                assert!(
                    parent[t].is_some(),
                    "{entry} does not reach {}",
                    g.def(t).qual()
                );
            }
        }
    }

    /// Deliberately plant a `Vec::new()`
    /// in a function reachable from `Tme::compute_with` and demand a
    /// finding with a full call-chain witness.
    #[test]
    fn injected_allocation_is_caught_with_call_chain() {
        let (root, mut files, deps) = parse_workspace();
        let ws_rel = "crates/core/src/workspace.rs";
        let src = std::fs::read_to_string(root.join(ws_rel)).unwrap();
        let fn_at = src.find("fn long_range_on").expect("entry helper moved");
        let brace = fn_at + src[fn_at..].find('{').unwrap() + 1;
        let mut patched = src.clone();
        patched.insert_str(brace, " let _boom: Vec<f64> = Vec::new(); ");
        let slot = files.iter_mut().find(|f| f.path == ws_rel).unwrap();
        *slot = parse_file(ws_rel, &patched);
        let an = analyze_files(&files, &deps, ALLOW);
        let f = an
            .findings
            .iter()
            .find(|f| f.rule == "a1" && f.message.contains("Vec::new") && f.file == ws_rel)
            .expect("injected allocation was not caught");
        assert!(
            f.chain[0].contains("compute_with"),
            "witness chain does not start at the hot-path entry: {:?}",
            f.chain
        );
    }
}

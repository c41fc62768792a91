//! Item/impl/fn extraction over the [`crate::lexer`] token stream.
//!
//! `tme-analyze` needs just enough structure to build a call graph: which
//! functions exist, which `impl` block (if any) owns each one, where each
//! body's token span lies, and whether the function is test-only code.
//! A full parser is out of scope (and `syn` is unavailable offline); this
//! extractor is a single linear pass with a brace-depth counter and an
//! `impl` stack, which is exact for the constructs this workspace uses
//! and degrades conservatively (a missed body span means missed *edges*,
//! never a crash).

use crate::lexer::{lex, TokKind, Token};

/// One extracted function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Bare function name (`compute_with`).
    pub name: String,
    /// Owning `impl` type — or, for a provided method, the `trait` — if
    /// the fn is an associated fn/method.
    pub owner: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Inclusive token span of the body `{ … }`, indices into the file's
    /// token vector. Bodiless fns (trait declarations) are not recorded.
    pub body: (usize, usize),
    /// Defined under `#[cfg(test)]` / `#[test]` — excluded from findings.
    pub is_test: bool,
    /// Type parameters in scope: the fn's own and its `impl`/`trait`'s.
    pub type_params: Vec<String>,
    /// Part of the crate's public surface: declared `pub fn` (not
    /// `pub(crate)`), or a provided method of a `pub trait`.
    pub is_pub: bool,
    /// A method of an `impl Trait for Type` block. Such a method is run
    /// through the trait — by an operator, `?`, a `for` loop, `Drop`,
    /// `format!` or a generic bound — which a name-based call graph
    /// cannot follow.
    pub trait_impl: bool,
}

impl FnDef {
    /// Qualified display name: `Owner::name` or bare `name`.
    pub fn qual(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One lexed + extracted source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub tokens: Vec<Token>,
    pub fns: Vec<FnDef>,
}

/// Lex `src` and extract every function definition with its body span.
pub fn parse_file(path: &str, src: &str) -> SourceFile {
    let lexed = lex(src);
    let fns = extract_fns(&lexed.tokens);
    SourceFile {
        path: path.replace('\\', "/"),
        tokens: lexed.tokens,
        fns,
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn extract_fns(toks: &[Token]) -> Vec<FnDef> {
    let test_spans = test_spans(toks);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx <= b);
    let mut fns = Vec::new();
    // Stack of the enclosing `impl`/`trait` blocks.
    let mut impls: Vec<Block> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                while impls.last().is_some_and(|b| depth < b.depth) {
                    impls.pop();
                }
            }
            "impl" | "trait" if t.kind == TokKind::Ident => {
                let header = if t.text == "impl" {
                    impl_header(toks, i)
                } else {
                    trait_header(toks, i)
                };
                if let Some((owner, trait_impl, body_open)) = header {
                    let is_trait = t.text == "trait";
                    impls.push(Block {
                        owner,
                        depth: depth + 1,
                        params: type_params(toks, i + 1 + usize::from(is_trait)),
                        trait_impl,
                        pub_trait: is_trait && is_pub_before(toks, i),
                    });
                    // Resume at the body `{` so the depth counter sees it.
                    i = body_open;
                    continue;
                }
            }
            "fn" if t.kind == TokKind::Ident => {
                // `fn(` is a fn-pointer type, not an item.
                let Some(name_tok) = toks.get(i + 1) else {
                    break;
                };
                if name_tok.kind == TokKind::Ident && !is_keyword(&name_tok.text) {
                    if let Some(open) = body_open_after(toks, i + 2) {
                        let close = matching_brace(toks, open);
                        let mut params = type_params(toks, i + 2);
                        let block = impls.last();
                        if let Some(b) = block {
                            params.extend(b.params.iter().cloned());
                        }
                        fns.push(FnDef {
                            name: name_tok.text.clone(),
                            owner: block.map(|b| b.owner.clone()),
                            line: t.line,
                            body: (open, close),
                            is_test: in_test(i),
                            type_params: params,
                            is_pub: is_pub_before(toks, i) || block.is_some_and(|b| b.pub_trait),
                            trait_impl: block.is_some_and(|b| b.trait_impl),
                        });
                        // Resume at the `{` (not past the body) so nested
                        // fns are also extracted and depth stays exact.
                        i = open;
                        continue;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

/// One enclosing `impl` or `trait` block.
struct Block {
    /// The implementing type, or the trait.
    owner: String,
    /// Brace depth of the block's body.
    depth: i32,
    /// The block's type parameters.
    params: Vec<String>,
    /// `impl Trait for Type`.
    trait_impl: bool,
    /// `pub trait`: its provided methods are public.
    pub_trait: bool,
}

/// Is the item whose keyword (`fn`, `trait`) sits at token `i` declared
/// plain `pub`? Qualifiers between the visibility and the keyword
/// (`const`, `unsafe`, `async`, `extern "C"`) are skipped; `pub(crate)`
/// and friends are not `pub`.
fn is_pub_before(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0
        && (matches!(
            toks[j - 1].text.as_str(),
            "const" | "unsafe" | "async" | "extern"
        ) || toks[j - 1].kind == TokKind::Literal)
    {
        j -= 1;
    }
    j > 0 && toks[j - 1].text == "pub"
}

/// Parse an `impl` header starting at token `i` (`impl<…> Trait for Type
/// where … {`). Returns the implementing type's last path segment, whether
/// the block implements a trait, and the index of the body `{`.
fn impl_header(toks: &[Token], i: usize) -> Option<(String, bool, usize)> {
    let mut j = i + 1;
    let mut owner = String::new();
    let mut in_where = false;
    let mut for_trait = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "{" => {
                if owner.is_empty() {
                    return None;
                }
                return Some((owner, for_trait, j));
            }
            ";" => return None,
            "<" => {
                j = skip_angles(toks, j);
                continue;
            }
            "where" => in_where = true,
            "for" => for_trait |= !in_where,
            "dyn" | "unsafe" | "const" | "mut" => {}
            // `impl $name` in a `macro_rules!` body keeps its `$`: the type
            // is known only where the macro expands.
            _ if t.kind == TokKind::Ident && !is_keyword(&t.text) && !in_where => {
                owner = if toks[j - 1].text == "$" {
                    format!("${}", t.text)
                } else {
                    t.text.clone()
                };
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parse a `trait` header starting at token `i` (`trait Name<…>: Bounds
/// where … {`). A provided method is owned by the trait the way an
/// inherent one is owned by its type, so `.name(…)` calls resolve to it
/// and it can be named as a rule entry. Returns the trait's name and the
/// index of the body `{` (in [`impl_header`]'s shape; a trait implements
/// no trait).
fn trait_header(toks: &[Token], i: usize) -> Option<(String, bool, usize)> {
    let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    body_open_after(toks, i + 2).map(|open| (name.text.clone(), false, open))
}

/// The type parameters declared by a `<…>` group at `open` (none if
/// `toks[open]` is not `<`): each identifier opening a top-level
/// parameter. Lifetimes are their own token kind; a `const` parameter's
/// name follows the keyword and is skipped.
fn type_params(toks: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    if toks.get(open).is_none_or(|t| t.text != "<") {
        return out;
    }
    let end = skip_angles(toks, open);
    let mut depth = 0i32;
    for j in open..end {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" if toks[j - 1].text != "-" => depth -= 1,
            _ if depth == 1
                && toks[j].kind == TokKind::Ident
                && !is_keyword(&toks[j].text)
                && matches!(toks[j - 1].text.as_str(), "<" | ",") =>
            {
                out.push(toks[j].text.clone());
            }
            _ => {}
        }
    }
    out
}

/// Change in `(…)`/`[…]` nesting at one token. The signature scans below
/// track it because only a `;` outside both ends a declaration: the one
/// in an array type `[T; N]` does not.
fn nesting_step(text: &str) -> i32 {
    match text {
        "(" | "[" => 1,
        ")" | "]" => -1,
        _ => 0,
    }
}

/// Skip a balanced `<…>` group starting at `open` (`toks[open] == "<"`).
/// Returns the index just past the closing `>`. A `>` preceded by `-`
/// (the `->` arrow) does not close the group.
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut nest = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && toks[j - 1].text == "-" => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            "{" => return j, // malformed; bail before the body
            ";" if nest == 0 => return j,
            t => nest += nesting_step(t),
        }
        j += 1;
    }
    toks.len()
}

/// From a position inside a fn signature (or trait header), find the
/// body `{` — or `None` for a bodiless (trait-declaration) fn ending in
/// `;`. The signature itself contains no braces, but its generics may
/// contain `<`/`>` and its array types a `;`.
fn body_open_after(toks: &[Token], from: usize) -> Option<usize> {
    let mut nest = 0i32;
    let mut j = from;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => return Some(j),
            ";" if nest == 0 => return None,
            "<" => {
                j = skip_angles(toks, j);
                continue;
            }
            t => nest += nesting_step(t),
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// file is truncated).
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Token spans of test-only code: items under `#[cfg(test)]`-style
/// attributes (any `cfg` attribute mentioning `test` un-negated) and
/// `#[test]`-attributed fns. Both the analyzer and the lint rules skip
/// these.
pub(crate) fn test_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            let mut depth = 0i32;
            let mut j = i + 1;
            let (mut is_cfg, mut has_test, mut negated) = (false, false, false);
            let attr_start = j;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "cfg" => is_cfg = true,
                    "test" => has_test = true,
                    "not" => negated = true,
                    _ => {}
                }
                j += 1;
            }
            // `#[test]` is exactly `[ test ]` → the closer sits two past
            // the opener.
            let plain_test = has_test && !is_cfg && j == attr_start + 2;
            if (is_cfg && has_test && !negated) || plain_test {
                let end = item_end(toks, j + 1);
                spans.push((i, end));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// End (inclusive token index) of the item following an attribute: skip
/// further attributes, then span to the matching `}` of the first brace
/// group — or the first `;` if one comes first.
fn item_end(toks: &[Token], mut k: usize) -> usize {
    while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
        let mut d = 0i32;
        k += 1;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "[" => d += 1,
                "]" => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        k += 1;
    }
    while k < toks.len() {
        match toks[k].text.as_str() {
            ";" => return k,
            "{" => return matching_brace(toks, k),
            _ => k += 1,
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn defs(src: &str) -> Vec<FnDef> {
        parse_file("t.rs", src).fns
    }

    #[test]
    fn free_and_associated_fns() {
        let f = defs(
            "fn alpha() { beta(); }\n\
             pub struct S;\n\
             impl S { pub fn m(&self) -> usize { 1 } }\n\
             impl Default for S { fn default() -> Self { S } }\n\
             fn omega() {}\n",
        );
        let quals: Vec<String> = f.iter().map(FnDef::qual).collect();
        assert_eq!(quals, ["alpha", "S::m", "S::default", "omega"]);
    }

    #[test]
    fn generic_impls_resolve_to_the_type_not_its_params() {
        let f = defs(
            "impl<'a, T: Clone> Wrapper<'a, T> where T: Send { fn get(&self) -> &T { &self.0 } }",
        );
        assert_eq!(f[0].qual(), "Wrapper::get");
    }

    #[test]
    fn trait_for_type_owner_is_the_type() {
        let f = defs("impl std::fmt::Display for Tme { fn fmt(&self) {} }");
        assert_eq!(f[0].qual(), "Tme::fmt");
    }

    #[test]
    fn arrow_in_generic_bounds_does_not_break_angle_skipping() {
        let f = defs("impl<F: Fn(usize) -> f64> Holder<F> { fn call(&self) {} }");
        assert_eq!(f[0].qual(), "Holder::call");
    }

    #[test]
    fn nested_and_following_fns_keep_owners_straight() {
        let f = defs(
            "impl A { fn outer(&self) { fn inner() {} inner(); } }\n\
             fn free_after() {}",
        );
        let quals: Vec<String> = f.iter().map(FnDef::qual).collect();
        // `inner` inherits the enclosing impl (conservative; fine).
        assert_eq!(quals, ["A::outer", "A::inner", "free_after"]);
        assert_eq!(f[2].owner, None);
    }

    #[test]
    fn type_params_of_the_fn_and_its_impl_are_in_scope() {
        let f = defs(
            "impl<'a, T: Codec, const N: usize> Wrap<'a, T> {\n\
             fn get<U: Into<Vec<T>>, F: Fn(u8) -> U>(&self) {}\n\
             fn plain(&self) {} }\n\
             fn free<S>() {}\n\
             fn bare() {}",
        );
        let params: Vec<&[String]> = f.iter().map(|d| d.type_params.as_slice()).collect();
        assert_eq!(params, [&["U", "F", "T"][..], &["T"], &["S"], &[]]);
    }

    #[test]
    fn visibility_and_trait_impls_are_recorded() {
        let f = defs(
            "pub fn a() {}\npub(crate) fn b() {}\npub const unsafe fn c() {}\nfn d() {}\n\
             impl S { pub fn m(&self) {} }\nimpl Tr for S { fn t(&self) {} }\n\
             pub trait P { fn provided(&self) {} }\ntrait Q { fn hidden(&self) {} }\n\
             macro_rules! gen { ($n:ident) => { impl $n { pub fn new() {} } }; }",
        );
        let got: Vec<(String, bool, bool)> = f
            .iter()
            .map(|d| (d.qual(), d.is_pub, d.trait_impl))
            .collect();
        let want = [
            ("a", true, false),
            ("b", false, false),
            ("c", true, false),
            ("d", false, false),
            ("S::m", true, false),
            ("S::t", false, true),
            ("P::provided", true, false),
            ("Q::hidden", false, false),
            ("$n::new", true, false),
        ]
        .map(|(q, p, t)| (q.to_string(), p, t));
        assert_eq!(got, want);
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let f = defs(
            "trait T: Send + Sync { fn decl(&self); fn has_default(&self) { } }\n\
             fn free_after() {}",
        );
        // The provided method belongs to the trait, not to its bounds.
        let quals: Vec<String> = f.iter().map(FnDef::qual).collect();
        assert_eq!(quals, ["T::has_default", "free_after"]);
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_declaration() {
        let f = defs(
            "fn f(n: [usize; 3]) -> [f64; 3] { g(); }\n\
             fn lookup(&self) -> Option<[usize; 3]> { None }\n\
             fn pairs(v: Vec<([V3; 3], [V3; 3])>) {}\n\
             trait T { fn decl(&self, a: [u8; 4]); fn provided(&self) -> [u8; 2] { [0; 2] } }\n\
             fn free_after() {}",
        );
        let quals: Vec<String> = f.iter().map(FnDef::qual).collect();
        assert_eq!(quals, ["f", "lookup", "pairs", "T::provided", "free_after"]);
    }

    /// `fn <name>` tokens of `sf` (not fn-pointer types) that did not
    /// become a [`FnDef`] and are not a bodyless declaration — one in a
    /// `trait` or `extern` block whose first `;` outside `(…)`/`[…]` comes
    /// before any `{`. Judged from the tokens alone, independently of the
    /// extractor's own signature scan.
    fn unextracted(sf: &SourceFile) -> Vec<(u32, String)> {
        let toks = &sf.tokens;
        // Per open `{`: does it open a trait or extern block?
        let mut blocks: Vec<bool> = Vec::new();
        let mut header = 0;
        let mut missed = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                "{" => {
                    let decl = toks[header..i].iter().any(|h| {
                        h.kind == TokKind::Ident && (h.text == "trait" || h.text == "extern")
                    });
                    blocks.push(decl);
                    header = i + 1;
                }
                "}" => {
                    blocks.pop();
                    header = i + 1;
                }
                ";" => header = i + 1,
                "fn" if t.kind == TokKind::Ident => {
                    let Some(name) = toks.get(i + 1) else {
                        continue;
                    };
                    if name.kind != TokKind::Ident || is_keyword(&name.text) {
                        continue;
                    }
                    if sf
                        .fns
                        .iter()
                        .any(|d| d.line == t.line && d.name == name.text)
                    {
                        continue;
                    }
                    let mut nest = 0i32;
                    let end = toks[i..].iter().find(|u| {
                        match u.text.as_str() {
                            "(" | "[" => nest += 1,
                            ")" | "]" => nest -= 1,
                            _ => {}
                        }
                        u.text == "{" || (u.text == ";" && nest == 0)
                    });
                    let bodyless = end.is_some_and(|u| u.text == ";");
                    if !(bodyless && blocks.last() == Some(&true)) {
                        missed.push((t.line, name.text.clone()));
                    }
                }
                _ => {}
            }
        }
        missed
    }

    #[test]
    fn unextracted_flags_a_fn_the_extractor_skipped() {
        let sf = parse_file(
            "t.rs",
            "trait T { fn decl(&self, a: [u8; 4]); }\n\
             extern \"C\" { fn ext(x: f64) -> f64; }\n\
             fn kept() { let p: fn(u8) = g; }",
        );
        assert!(unextracted(&sf).is_empty());
        let mut sf = sf;
        sf.fns.clear();
        assert_eq!(unextracted(&sf), [(3, "kept".to_string())]);
    }

    /// The extractor's self-check: every `fn <name>` in the workspace's
    /// `crates/*/src` is a [`FnDef`] or a bodyless declaration, so a fn the
    /// signature scan loses (as array types once were) fails here instead
    /// of silently dropping out of the call graph.
    #[test]
    fn every_fn_in_the_workspace_sources_is_extracted() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut dirs: Vec<_> = std::fs::read_dir(&crates)
            .expect("crates directory")
            .flatten()
            .map(|e| e.path().join("src"))
            .filter(|src| src.is_dir())
            .collect();
        dirs.sort();
        let (mut files, mut fns) = (0, 0);
        let mut missed = Vec::new();
        for path in dirs
            .iter()
            .flat_map(|src| crate::walk::workspace_rs_files(src))
        {
            let text = std::fs::read_to_string(&path).expect("readable source");
            let rel = path.strip_prefix(&crates).unwrap_or(&path);
            let sf = parse_file(&rel.to_string_lossy(), &text);
            files += 1;
            fns += sf.fns.len();
            for (line, name) in unextracted(&sf) {
                missed.push(format!("{}:{line} fn {name}", sf.path));
            }
        }
        assert!(files > 100 && fns > 1000, "walked {files} files, {fns} fns");
        assert!(missed.is_empty(), "fns with no FnDef: {missed:#?}");
    }

    #[test]
    fn test_code_is_marked() {
        let f = defs(
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests { fn helper() {} #[test] fn case() {} }\n\
             #[test]\nfn standalone_case() {}\n",
        );
        let flags: Vec<(String, bool)> = f.iter().map(|d| (d.name.clone(), d.is_test)).collect();
        assert_eq!(
            flags,
            [
                ("prod".into(), false),
                ("helper".into(), true),
                ("case".into(), true),
                ("standalone_case".into(), true),
            ]
        );
    }

    #[test]
    fn body_spans_cover_the_braces() {
        let sf = parse_file("t.rs", "fn f() { g(1); }");
        let (a, b) = sf.fns[0].body;
        assert_eq!(sf.tokens[a].text, "{");
        assert_eq!(sf.tokens[b].text, "}");
        let inner: Vec<&str> = sf.tokens[a + 1..b]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(inner, ["g", "(", "1", ")", ";"]);
    }
}

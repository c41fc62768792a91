//! The `tme-lint` rules: numerical-safety policies specific to this
//! workspace, evaluated over the token stream from [`crate::lexer`].
//!
//! | rule | policy | scope |
//! |------|--------|-------|
//! | `l1` | no lossy float→int `as` casts (use `tme_num::cast`) | `num`, `mesh`, `core` |
//! | `l2` | no `unwrap()` / `expect()` / `panic!` | library crates, non-test code |
//! | `l3` | no `HashMap` / `HashSet` (iteration order breaks determinism) | numeric crates |
//! | `l4` | every `unsafe` needs a `// SAFETY:` comment | everywhere |
//! | `l5` | no `unwrap()` / `expect()` / `panic!` — test code included | fault/chaos/checkpoint/recovery files |
//! | `l6` | no `unwrap()` / `expect()`; request queues only via the bounded queue module | `serve` crate, non-test code |
//!
//! Waivers: a `lint:allow(<rule>[, <rule>…])` marker inside a comment on
//! the violating line or the line directly above it silences that rule for
//! that line. There are no file- or crate-level waivers by design — every
//! exception is visible at the exception site.

use crate::lexer::{lex, Comment, TokKind, Token};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Which rule families apply to a file (derived from its path by the
/// driver; fixture tests set it directly).
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// L1: numeric-kernel crate (`num`, `mesh`, `core`).
    pub numeric_kernel: bool,
    /// L2: library crate (`core`, `mesh`, `num`, `md`, `mdgrape`).
    pub library: bool,
    /// L3: deterministic-accumulation crate (library crates + `reference`).
    pub deterministic: bool,
    /// L5: fault-handling / checkpoint / recovery file (by file name).
    /// The whole point of that code is to *not* panic on bad input, so
    /// the L2 ban extends into its test code: tests must be
    /// `Result`-based (plain `assert!`/`assert_eq!` stay allowed — an
    /// assertion failing is the harness's business, not the code's).
    pub recovery: bool,
    /// L6: the `serve` crate (every file, binaries included). A panic in
    /// the service tears down a worker or connection thread for *all*
    /// tenants, so `unwrap()`/`expect()` are banned outside tests, and
    /// request queues must go through the bounded queue module —
    /// `push`-ing onto anything named like a queue elsewhere bypasses
    /// admission control.
    pub serve: bool,
    /// The file IS the bounded queue module (`queue.rs` in `serve`);
    /// only there may queue-named collections be pushed to directly.
    pub queue_module: bool,
}

impl Scope {
    /// The L1–L3 families on: the scope most fixtures use. L5 stays off
    /// so the exact-match expectations of the older tests hold.
    #[cfg(test)]
    pub const ALL: Scope = Scope {
        numeric_kernel: true,
        library: true,
        deterministic: true,
        recovery: false,
        serve: false,
        queue_module: false,
    };
}

const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// f64/f32 methods that always return a float; a following `as <int>` is a
/// lossy truncation L1 flags. Deliberately excludes ambiguous names that
/// integers also have (`abs`, `min`, `max`, `clamp`, `signum`, `pow`).
const FLOAT_METHODS: &[&str] = &[
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "sqrt",
    "cbrt",
    "exp",
    "exp2",
    "ln",
    "log2",
    "log10",
    "powf",
    "powi",
    "recip",
    "to_radians",
    "to_degrees",
    "hypot",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "mul_add",
];

/// Lint one source file. `scope` selects the rule families; test code
/// (`#[cfg(test)]` items and `#[test]` fns, [`crate::ast::test_spans`]) is
/// exempt from everything except L4.
pub fn lint_source(src: &str, scope: Scope) -> Vec<Violation> {
    let lexed = lex(src);
    let waivers = collect_waivers(&lexed.comments);
    let test_spans = crate::ast::test_spans(&lexed.tokens);
    let mut out = Vec::new();

    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx <= b);
    let waived = |rule: &str, line: u32| {
        waivers
            .iter()
            .any(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
    };

    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        // L4 first: applies everywhere, including test code.
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            let has_safety = lexed
                .comments
                .iter()
                .any(|c| c.text.contains("SAFETY:") && c.line <= t.line && c.line + 8 >= t.line);
            if !has_safety && !waived("l4", t.line) {
                out.push(Violation {
                    rule: "l4",
                    line: t.line,
                    message: "`unsafe` without a `// SAFETY:` comment in the preceding lines"
                        .into(),
                });
            }
        }

        // L5 second: like L2 but for fault/checkpoint/recovery files,
        // where even test code must stay panic-free (the machinery under
        // test exists to turn faults into typed errors — a test that can
        // panic is exercising the wrong contract).
        if scope.recovery {
            if t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect") {
                let is_method_call = i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(");
                if is_method_call && !waived("l5", t.line) {
                    out.push(Violation {
                        rule: "l5",
                        line: t.line,
                        message: format!(
                            "`.{}()` in fault/recovery code (tests included); use `Result`-based \
                             flow — this code's contract is to never panic",
                            t.text
                        ),
                    });
                }
            }
            if t.kind == TokKind::Ident
                && t.text == "panic"
                && toks.get(i + 1).is_some_and(|n| n.text == "!")
                && !waived("l5", t.line)
            {
                out.push(Violation {
                    rule: "l5",
                    line: t.line,
                    message: "`panic!` in fault/recovery code (tests included); return a typed \
                              error instead"
                        .into(),
                });
            }
        }

        if in_test(i) {
            continue;
        }

        // L1: lossy float→int `as` casts in numeric kernels.
        if scope.numeric_kernel && t.kind == TokKind::Ident && t.text == "as" {
            if let Some(target) = toks.get(i + 1) {
                if target.kind == TokKind::Ident && INT_TYPES.contains(&target.text.as_str()) {
                    if let Some(reason) = float_source_before(toks, i) {
                        if !waived("l1", t.line) {
                            out.push(Violation {
                                rule: "l1",
                                line: t.line,
                                message: format!(
                                    "lossy `{reason} as {}` cast; use the checked helpers in `tme_num::cast`",
                                    target.text
                                ),
                            });
                        }
                    }
                }
            }
        }

        // L2: unwrap()/expect()/panic! in library non-test code.
        if scope.library {
            if t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect") {
                let is_method_call = i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(");
                if is_method_call && !waived("l2", t.line) {
                    out.push(Violation {
                        rule: "l2",
                        line: t.line,
                        message: format!(
                            "`.{}()` in library code; propagate a `Result` with the crate's error type",
                            t.text
                        ),
                    });
                }
            }
            if t.kind == TokKind::Ident && t.text == "panic" {
                let is_macro = toks.get(i + 1).is_some_and(|n| n.text == "!");
                if is_macro && !waived("l2", t.line) {
                    out.push(Violation {
                        rule: "l2",
                        line: t.line,
                        message: "`panic!` in library code; return an error instead".into(),
                    });
                }
            }
        }

        // L6: service-crate discipline. A panicking worker or connection
        // thread silently drops every queued request it owned, so the
        // serve crate must never `unwrap()`/`expect()` outside tests;
        // and request queues must go through the bounded queue module —
        // a raw `push` onto a queue-named collection is an unbounded
        // buffer that admission control never sees.
        if scope.serve {
            if t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect") {
                let is_method_call = i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(");
                if is_method_call && !waived("l6", t.line) {
                    out.push(Violation {
                        rule: "l6",
                        line: t.line,
                        message: format!(
                            "`.{}()` in service code; a panic here tears down a worker or \
                             connection thread for every tenant — handle the error",
                            t.text
                        ),
                    });
                }
            }
            if !scope.queue_module
                && t.kind == TokKind::Ident
                && (t.text == "push" || t.text == "push_back" || t.text == "push_front")
            {
                let queue_receiver = i >= 2
                    && toks[i - 1].text == "."
                    && toks[i - 2].kind == TokKind::Ident
                    && toks[i - 2].text.to_ascii_lowercase().contains("queue")
                    && toks.get(i + 1).is_some_and(|n| n.text == "(");
                if queue_receiver && !waived("l6", t.line) {
                    out.push(Violation {
                        rule: "l6",
                        line: t.line,
                        message: format!(
                            "`{}.{}(…)` bypasses admission control; request queues must go \
                             through the bounded queue module (`queue::Bounded::try_push`)",
                            toks[i - 2].text,
                            t.text
                        ),
                    });
                }
            }
        }

        // L3: HashMap/HashSet in deterministic numeric code. Iteration
        // order is randomised per process, so any use risks leaking
        // nondeterminism into accumulation order; require BTreeMap/Vec.
        if scope.deterministic
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !waived("l3", t.line)
        {
            out.push(Violation {
                rule: "l3",
                line: t.line,
                message: format!(
                    "`{}` in deterministic numeric code; iteration order is random — use `BTreeMap`/`BTreeSet`/`Vec`",
                    t.text
                ),
            });
        }
    }
    out
}

struct Waiver {
    rule: String,
    line: u32,
}

/// Extract `lint:allow(a, b)` markers from comments.
fn collect_waivers(comments: &[Comment]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(end) = rest.find(')') else { break };
            for rule in rest[..end].split(',') {
                out.push(Waiver {
                    rule: rule.trim().to_ascii_lowercase(),
                    line: c.line,
                });
            }
            rest = &rest[end..];
        }
    }
    out
}

/// If the expression before the `as` at token index `as_idx` is manifestly
/// a float (float literal, or a call of a known float-returning method),
/// return a short description of it.
fn float_source_before(toks: &[Token], as_idx: usize) -> Option<String> {
    if as_idx == 0 {
        return None;
    }
    let prev = &toks[as_idx - 1];
    if prev.kind == TokKind::Float {
        return Some(prev.text.clone());
    }
    if prev.text != ")" {
        return None;
    }
    // Walk back over the balanced `( … )` group to the callee.
    let mut depth = 0i32;
    let mut j = as_idx - 1;
    loop {
        match toks[j].text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    // Expect `. method (` right before the group.
    if j >= 2
        && toks[j - 1].kind == TokKind::Ident
        && FLOAT_METHODS.contains(&toks[j - 1].text.as_str())
        && toks[j - 2].text == "."
    {
        return Some(format!(".{}()", toks[j - 1].text));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str, scope: Scope) -> Vec<&'static str> {
        lint_source(src, scope)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    // ---- L1 ----------------------------------------------------------

    #[test]
    fn l1_fixture_positive() {
        let v = lint_source(include_str!("../fixtures/l1_bad.rs"), Scope::ALL);
        let l1: Vec<_> = v.iter().filter(|v| v.rule == "l1").collect();
        assert_eq!(l1.len(), 3, "{v:?}");
    }

    #[test]
    fn l1_fixture_negative() {
        let v = lint_source(include_str!("../fixtures/l1_ok.rs"), Scope::ALL);
        assert!(v.iter().all(|v| v.rule != "l1"), "{v:?}");
    }

    #[test]
    fn l1_only_in_numeric_kernel_scope() {
        let src = "fn f(x: f64) -> usize { x.floor() as usize }";
        assert_eq!(rules_hit(src, Scope::ALL), ["l1"]);
        assert!(rules_hit(
            src,
            Scope {
                numeric_kernel: false,
                ..Scope::ALL
            }
        )
        .is_empty());
    }

    #[test]
    fn l1_ignores_int_to_int() {
        assert!(rules_hit("fn f(n: u32) -> usize { n as usize }", Scope::ALL).is_empty());
        assert!(rules_hit("fn f(n: usize) -> f64 { n as f64 }", Scope::ALL).is_empty());
    }

    // ---- L2 ----------------------------------------------------------

    #[test]
    fn l2_fixture_positive() {
        let v = lint_source(include_str!("../fixtures/l2_bad.rs"), Scope::ALL);
        let l2: Vec<_> = v.iter().filter(|v| v.rule == "l2").collect();
        assert_eq!(l2.len(), 3, "{v:?}");
    }

    #[test]
    fn l2_fixture_negative() {
        let v = lint_source(include_str!("../fixtures/l2_ok.rs"), Scope::ALL);
        assert!(v.iter().all(|v| v.rule != "l2"), "{v:?}");
    }

    #[test]
    fn l2_skips_test_modules() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { foo().unwrap(); }
            }
        "#;
        assert!(rules_hit(src, Scope::ALL).is_empty());
    }

    #[test]
    fn l2_expect_ident_is_not_a_call() {
        // `expect` as a plain identifier (field, variable) must not fire.
        assert!(rules_hit("fn f(expect: u8) -> u8 { expect }", Scope::ALL).is_empty());
    }

    // ---- L3 ----------------------------------------------------------

    #[test]
    fn l3_fixture_positive() {
        let v = lint_source(include_str!("../fixtures/l3_bad.rs"), Scope::ALL);
        let l3: Vec<_> = v.iter().filter(|v| v.rule == "l3").collect();
        assert_eq!(l3.len(), 2, "{v:?}");
    }

    #[test]
    fn l3_fixture_negative() {
        let v = lint_source(include_str!("../fixtures/l3_ok.rs"), Scope::ALL);
        assert!(v.iter().all(|v| v.rule != "l3"), "{v:?}");
    }

    // ---- L4 ----------------------------------------------------------

    #[test]
    fn l4_fixture_positive() {
        let v = lint_source(include_str!("../fixtures/l4_bad.rs"), Scope::default());
        let l4: Vec<_> = v.iter().filter(|v| v.rule == "l4").collect();
        assert_eq!(l4.len(), 1, "{v:?}");
    }

    #[test]
    fn l4_fixture_negative() {
        let v = lint_source(include_str!("../fixtures/l4_ok.rs"), Scope::default());
        assert!(v.iter().all(|v| v.rule != "l4"), "{v:?}");
    }

    #[test]
    fn l4_applies_even_in_test_code() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn t() { unsafe { core::hint::unreachable_unchecked() } }
            }
        "#;
        assert_eq!(rules_hit(src, Scope::default()), ["l4"]);
    }

    // ---- L5 ----------------------------------------------------------

    const L5_ONLY: Scope = Scope {
        numeric_kernel: false,
        library: false,
        deterministic: false,
        recovery: true,
        serve: false,
        queue_module: false,
    };

    #[test]
    fn l5_fixture_positive() {
        let v = lint_source(include_str!("../fixtures/l5_bad.rs"), L5_ONLY);
        let l5: Vec<_> = v.iter().filter(|v| v.rule == "l5").collect();
        assert_eq!(l5.len(), 3, "{v:?}");
    }

    #[test]
    fn l5_fixture_negative() {
        let v = lint_source(include_str!("../fixtures/l5_ok.rs"), L5_ONLY);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn l5_reaches_test_code_unlike_l2() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { foo().unwrap(); }
            }
        "#;
        // L2 alone exempts test modules …
        assert!(rules_hit(src, Scope::ALL).is_empty());
        // … L5 does not.
        assert_eq!(rules_hit(src, L5_ONLY), ["l5"]);
    }

    #[test]
    fn l5_allows_assertions_and_is_waivable() {
        let src = "fn t() { assert_eq!(restore(&[]).is_err(), true); }";
        assert!(rules_hit(src, L5_ONLY).is_empty());
        let waived = "fn f() { foo().unwrap() } // lint:allow(l5) — startup only";
        assert!(rules_hit(waived, L5_ONLY).is_empty());
    }

    #[test]
    fn l5_off_outside_recovery_scope() {
        let src = "fn f() { foo().unwrap(); }";
        assert_eq!(
            rules_hit(
                src,
                Scope {
                    library: false,
                    ..Scope::ALL
                }
            ),
            Vec::<&str>::new()
        );
    }

    // ---- L6 ----------------------------------------------------------

    const L6_ONLY: Scope = Scope {
        numeric_kernel: false,
        library: false,
        deterministic: false,
        recovery: false,
        serve: true,
        queue_module: false,
    };

    #[test]
    fn l6_fixture_positive() {
        let v = lint_source(include_str!("../fixtures/l6_bad.rs"), L6_ONLY);
        let l6: Vec<_> = v.iter().filter(|v| v.rule == "l6").collect();
        assert_eq!(l6.len(), 4, "{v:?}");
    }

    #[test]
    fn l6_fixture_negative() {
        let v = lint_source(include_str!("../fixtures/l6_ok.rs"), L6_ONLY);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn l6_queue_pushes_allowed_only_in_the_queue_module() {
        let src = "fn f(q: &mut Inner, j: u64) { q.queue.push_back(j); }";
        assert_eq!(rules_hit(src, L6_ONLY), ["l6"]);
        let in_module = Scope {
            queue_module: true,
            ..L6_ONLY
        };
        assert!(rules_hit(src, in_module).is_empty());
    }

    #[test]
    fn l6_skips_test_code_and_plain_vec_pushes() {
        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { foo().unwrap(); }
            }
        "#;
        assert!(rules_hit(test_src, L6_ONLY).is_empty());
        assert!(rules_hit("fn f(v: &mut Vec<u64>) { v.push(1); }", L6_ONLY).is_empty());
        // unwrap_or_else is not unwrap.
        let tolerant =
            "fn f(m: &Mutex<u64>) -> u64 { *m.lock().unwrap_or_else(PoisonError::into_inner) }";
        assert!(rules_hit(tolerant, L6_ONLY).is_empty());
    }

    #[test]
    fn l6_off_outside_the_serve_crate() {
        let src = "fn f(q: &mut VecDeque<u64>) { q.front().copied().unwrap(); }";
        assert!(rules_hit(src, Scope::default()).is_empty());
    }

    // ---- waivers ------------------------------------------------------

    #[test]
    fn waiver_on_same_line() {
        let src = "fn f(x: f64) -> usize { x.floor() as usize } // lint:allow(l1)";
        assert!(rules_hit(src, Scope::ALL).is_empty());
    }

    #[test]
    fn waiver_on_line_above() {
        let src = "// lint:allow(l2) — startup-only invariant\nfn f() { foo().unwrap(); }";
        assert!(rules_hit(src, Scope::ALL).is_empty());
    }

    #[test]
    fn waiver_is_rule_specific() {
        let src = "fn f(x: f64) -> usize { x.floor() as usize } // lint:allow(l2)";
        assert_eq!(rules_hit(src, Scope::ALL), ["l1"]);
    }

    #[test]
    fn waiver_does_not_leak_to_later_lines() {
        let src = "// lint:allow(l2)\nfn f() {}\nfn g() { foo().unwrap(); }";
        assert_eq!(rules_hit(src, Scope::ALL), ["l2"]);
    }

    #[test]
    fn patterns_inside_strings_do_not_fire() {
        let src = r#"fn f() -> &'static str { "x.floor() as usize and .unwrap() and HashMap" }"#;
        assert!(rules_hit(src, Scope::ALL).is_empty());
    }
}

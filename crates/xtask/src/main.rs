//! `cargo xtask` — workspace automation.
//!
//! Two subcommands:
//!
//! * `cargo xtask lint [--json] [--verbose] [--no-cache]` — the
//!   `tme-lint` token-level numerical-safety rules (l1–l6, see
//!   [`rules`]) over every workspace `.rs` file.
//! * `cargo xtask analyze [--json] [--verbose] [--no-cache]` — the
//!   `tme-analyze` call-graph rules (a1–a5, see [`analyze`]): hot-path
//!   zero-alloc, panic-freedom, merge-order determinism and wire-decode
//!   bounds, proven by reachability with call-chain witnesses.
//!
//! Both exit non-zero on any unwaived/unallowlisted finding; `--json`
//! prints a `tme-analyze/1` report ([`report`]) on stdout instead of
//! text. Repeat runs skip unchanged files via a content-hash cache under
//! `target/xtask-cache/` ([`cache`]).
//!
//! The tool is dependency-free on purpose: it must build in offline
//! containers and never hold the workspace's own build hostage to an
//! external parser. See DESIGN.md §13 for the rule definitions, the
//! waiver policy and the allowlist policy.

mod analyze;
mod ast;
mod cache;
mod graph;
mod lexer;
mod report;
mod rules;
mod walk;

use report::Finding;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The committed a1–a5 allowlist, compiled in so the binary and the
/// self-check test can never disagree about its content.
const ALLOWLIST: &str = include_str!("../analyze.allow");

#[derive(Clone, Copy, Default)]
struct Opts {
    json: bool,
    verbose: bool,
    no_cache: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts {
        json: args.iter().any(|a| a == "--json"),
        verbose: args.iter().any(|a| a == "--verbose"),
        no_cache: args.iter().any(|a| a == "--no-cache"),
    };
    match args.first().map(String::as_str) {
        Some("lint") => lint(opts),
        Some("analyze") => analyze_cmd(opts),
        _ => {
            eprintln!("usage: cargo xtask <lint|analyze> [--json] [--verbose] [--no-cache]");
            ExitCode::from(2)
        }
    }
}

/// CARGO_MANIFEST_DIR = crates/xtask; the workspace root is two up.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn read_sources(root: &Path, files: &[PathBuf]) -> Result<Vec<(String, String)>, ExitCode> {
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        match std::fs::read_to_string(file) {
            Ok(src) => out.push((rel.to_string_lossy().replace('\\', "/"), src)),
            Err(_) => {
                eprintln!("xtask: cannot read {}", file.display());
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(out)
}

fn lint(opts: Opts) -> ExitCode {
    let root = workspace_root();
    let files = walk::workspace_rs_files(&root);
    let sources = match read_sources(&root, &files) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut lint_cache = cache::LintCache::load(&root);
    let mut findings: Vec<Finding> = Vec::new();
    let mut skipped = 0usize;
    for (rel, src) in &sources {
        let hash = cache::fnv1a(src.as_bytes());
        if !opts.no_cache && lint_cache.is_clean(rel, hash) {
            skipped += 1;
            continue;
        }
        if opts.verbose {
            eprintln!("scanning {rel}");
        }
        let violations = rules::lint_source(src, walk::scope_for(Path::new(rel)));
        lint_cache.mark(rel, hash, violations.is_empty());
        for v in violations {
            findings.push(Finding {
                rule: v.rule.to_string(),
                file: rel.clone(),
                line: v.line,
                function: String::new(),
                message: v.message,
                chain: Vec::new(),
            });
        }
    }
    if !opts.no_cache {
        lint_cache.store();
    }
    if opts.json {
        print!(
            "{}",
            report::to_json("tme-lint", sources.len(), &findings, 0)
        );
    } else {
        for f in &findings {
            println!("{}", f.text());
        }
    }
    if findings.is_empty() {
        eprintln!(
            "tme-lint: {} files clean (rules l1–l6){}",
            sources.len(),
            cache_note(skipped, opts)
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tme-lint: {} violation(s) in {} files — fix them or add an inline \
             `lint:allow(<rule>)` with a justification",
            findings.len(),
            sources.len()
        );
        ExitCode::FAILURE
    }
}

fn analyze_cmd(opts: Opts) -> ExitCode {
    let root = workspace_root();
    let files = walk::workspace_rs_files(&root);
    let sources = match read_sources(&root, &files) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // The call graph is global, so the cache is all-or-nothing: an
    // identical (sources, allowlist, rules) digest that was clean before
    // is clean now.
    let hashes: Vec<(String, u64)> = sources
        .iter()
        .map(|(rel, src)| (rel.clone(), cache::fnv1a(src.as_bytes())))
        .collect();
    let digest = cache::analyze_digest(&hashes, ALLOWLIST);
    if !opts.no_cache && cache::analyze_was_clean(&root, digest) {
        if opts.json {
            print!("{}", report::to_json("tme-analyze", sources.len(), &[], 0));
        }
        eprintln!(
            "tme-analyze: {} files clean (rules a1–a5, cached — `--no-cache` to re-run)",
            sources.len()
        );
        return ExitCode::SUCCESS;
    }
    let parsed: Vec<ast::SourceFile> = sources
        .iter()
        .map(|(rel, src)| ast::parse_file(rel, src))
        .collect();
    if opts.verbose {
        let fns: usize = parsed.iter().map(|f| f.fns.len()).sum();
        let live = parsed
            .iter()
            .flat_map(|f| &f.fns)
            .filter(|d| !d.is_test)
            .count();
        eprintln!(
            "tme-analyze: {} files, {fns} fns ({live} non-test)",
            parsed.len()
        );
    }
    let an = analyze::analyze_files(&parsed, ALLOWLIST);
    for stale in &an.unused_allowlist {
        eprintln!("tme-analyze: warning: unused allowlist entry: {stale}");
    }
    if opts.json {
        print!(
            "{}",
            report::to_json("tme-analyze", sources.len(), &an.findings, an.allowlisted)
        );
    } else {
        for f in &an.findings {
            println!("{}", f.text());
        }
    }
    if an.findings.is_empty() {
        if !opts.no_cache {
            cache::analyze_mark_clean(&root, digest);
        }
        eprintln!(
            "tme-analyze: {} files clean (rules a1–a5, {} allowlisted)",
            sources.len(),
            an.allowlisted
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tme-analyze: {} finding(s) in {} files — fix them or add a justified entry to \
             crates/xtask/analyze.allow",
            an.findings.len(),
            sources.len()
        );
        ExitCode::FAILURE
    }
}

fn cache_note(skipped: usize, opts: Opts) -> String {
    if opts.no_cache || skipped == 0 {
        String::new()
    } else {
        format!(", {skipped} unchanged skipped")
    }
}

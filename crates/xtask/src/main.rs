//! `cargo xtask` — workspace automation.
//!
//! Two subcommands:
//!
//! * `cargo xtask lint [--json] [--verbose]` — the `tme-lint` token-level
//!   numerical-safety rules (l1–l6, see [`rules`]) over every workspace
//!   `.rs` file.
//! * `cargo xtask analyze [--json] [--verbose]` — the `tme-analyze`
//!   call-graph rules (a1–a6, see [`analyze`]): hot-path zero-alloc,
//!   panic-freedom, merge-order determinism, wire-decode bounds and the
//!   oracle-only pair loop, proven by reachability with call-chain
//!   witnesses, and no public fn without a caller.
//!
//! Both exit 1 on any unwaived/unallowlisted finding and 2 on an unknown
//! subcommand or flag; `--json` prints a `tme-analyze/1` report
//! ([`report`]) on stdout instead of text.
//!
//! The tool is dependency-free on purpose: it must build in offline
//! containers and never hold the workspace's own build hostage to an
//! external parser. See DESIGN.md §13 for the rule definitions, the
//! waiver policy and the allowlist policy.

mod analyze;
mod ast;
mod graph;
mod lexer;
mod report;
mod rules;
mod walk;

use report::Finding;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The committed a1–a6 allowlist, compiled in so the binary and the
/// self-check test can never disagree about its content.
const ALLOWLIST: &str = include_str!("../analyze.allow");

const USAGE: &str = "usage: cargo xtask <lint|analyze> [--json] [--verbose]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cmd {
    Lint,
    Analyze,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Opts {
    json: bool,
    verbose: bool,
}

/// The subcommand and its flags; any other argument is an error.
fn parse_args(args: &[String]) -> Result<(Cmd, Opts), String> {
    let cmd = match args.first().map(String::as_str) {
        Some("lint") => Cmd::Lint,
        Some("analyze") => Cmd::Analyze,
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
        None => return Err("missing subcommand".to_string()),
    };
    let mut opts = Opts::default();
    for a in &args[1..] {
        match a.as_str() {
            "--json" => opts.json = true,
            "--verbose" => opts.verbose = true,
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok((cmd, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((Cmd::Lint, opts)) => lint(opts),
        Ok((Cmd::Analyze, opts)) => analyze_cmd(opts),
        Err(e) => {
            eprintln!("xtask: {e}\n{USAGE}");
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
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, src) in &sources {
        if opts.verbose {
            eprintln!("scanning {rel}");
        }
        for v in rules::lint_source(src, walk::scope_for(Path::new(rel))) {
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
        eprintln!("tme-lint: {} files clean (rules l1–l6)", sources.len());
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
        let lines: usize = sources
            .iter()
            .filter(|(rel, _)| rel.starts_with("crates/") && rel.contains("/src/"))
            .map(|(_, src)| non_test_lines(src))
            .sum();
        eprintln!(
            "tme-analyze: {} files, {fns} fns ({live} non-test), {lines} non-test lines \
             under crates/*/src",
            parsed.len()
        );
    }
    let deps = graph::CrateDeps::from_manifests(&root);
    let an = analyze::analyze_files(&parsed, &deps, ALLOWLIST);
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
        eprintln!(
            "tme-analyze: {} files clean (rules a1–a6, {} allowlisted)",
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

/// Lines of `src` above its top-level test module: the first
/// column-0 `#[cfg(test)]` line whose next line past any further
/// attributes declares a `mod`, of any visibility. A file without one
/// counts whole.
fn non_test_lines(src: &str) -> usize {
    let lines: Vec<&str> = src.lines().collect();
    let declares_mod = |line: &&str| {
        line.split_once("mod ")
            .is_some_and(|(vis, _)| vis.is_empty() || vis.starts_with("pub"))
    };
    (0..lines.len())
        .find(|&i| {
            lines[i] == "#[cfg(test)]"
                && lines[i + 1..]
                    .iter()
                    .find(|l| !l.starts_with("#["))
                    .is_some_and(declares_mod)
        })
        .unwrap_or(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn known_subcommands_and_flags_parse() {
        assert_eq!(
            parse_args(&args(&["lint"])),
            Ok((Cmd::Lint, Opts::default()))
        );
        assert_eq!(
            parse_args(&args(&["analyze", "--verbose", "--json"])),
            Ok((
                Cmd::Analyze,
                Opts {
                    json: true,
                    verbose: true
                }
            ))
        );
    }

    #[test]
    fn unknown_flags_and_subcommands_are_rejected() {
        for bad in [
            &["analyze", "--jsno"][..],
            &["lint", "--no-cache"],
            &["lint", "extra"],
            &["analyse"],
            &["--json"],
            &[],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn non_test_lines_stop_at_the_top_level_test_module() {
        let src = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(src), 2);
        // An inner or attribute-split `#[cfg(test)]` is not the module.
        let src = "fn a() {\n#[cfg(test)]\n    let x = 1;\n}\n";
        assert_eq!(non_test_lines(src), 4);
    }

    #[test]
    fn non_test_lines_see_past_attributes_and_visibility() {
        let src = "fn a() {}\n#[cfg(test)]\n#[allow(clippy::x)] // why\nmod tests {}\n";
        assert_eq!(non_test_lines(src), 1);
        let src =
            "fn a() {}\n\n#[cfg(test)]\npub(crate) mod testing {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(non_test_lines(src), 2);
    }
}

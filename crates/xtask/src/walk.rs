//! Workspace file discovery and per-file rule scoping for `tme-lint`.

use crate::rules::Scope;
use std::path::{Path, PathBuf};

/// Crates whose kernels must use checked float↔int conversions (L1).
const NUMERIC_KERNEL_CRATES: &[&str] = &["num", "mesh", "core"];
/// Library crates where panicking is banned (L2).
const LIBRARY_CRATES: &[&str] = &["core", "mesh", "num", "md", "mdgrape"];
/// Crates whose accumulation order must be deterministic (L3).
const DETERMINISTIC_CRATES: &[&str] = &["core", "mesh", "num", "md", "mdgrape", "reference"];
/// File-name keywords marking fault-handling / checkpoint / recovery code
/// (L5): these files' contract is to never panic, tests included.
const RECOVERY_KEYWORDS: &[&str] = &["fault", "chaos", "checkpoint", "recover"];

/// The single ignore list shared by `lint` and `analyze`: directory names
/// that are never workspace sources. `target` covers cargo's default;
/// the rest are common out-of-tree build/vendor dirs whose generated `.rs`
/// files used to be re-tokenized on every run when present.
const IGNORED_DIRS: &[&str] = &["target", "node_modules", "vendor", "out", "build", "dist"];

/// Should the walker descend into `dir` (named `name`)? One predicate for
/// both passes — plus a `CACHEDIR.TAG` probe, the marker cargo writes into
/// *any* target dir (`CARGO_TARGET_DIR` renames included), so redirected
/// build output is skipped even under an unlisted name.
pub fn walk_into(dir: &Path, name: &str) -> bool {
    if IGNORED_DIRS.contains(&name) || name.starts_with('.') || dir.ends_with("xtask/fixtures") {
        return false;
    }
    !dir.join("CACHEDIR.TAG").exists()
}

/// Every `.rs` file under the workspace root that the lint should read,
/// sorted for stable output. Skips the shared ignore list ([`walk_into`]):
/// build output, VCS metadata and the tools' own deliberately-violating
/// fixtures.
pub fn workspace_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if walk_into(&path, &name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Derive the rule scope for one file from its workspace-relative path.
///
/// Test, bench, example and binary-target sources are tool/leaf code: only
/// L4 (documented `unsafe`) applies there — plus L5 wherever the file name
/// marks fault-handling/checkpoint code, since that contract follows the
/// code into tests and driver binaries. Library `src/` trees get the
/// crate-specific rule families.
pub fn scope_for(rel: &Path) -> Scope {
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let recovery = parts
        .last()
        .is_some_and(|f| RECOVERY_KEYWORDS.iter().any(|k| f.contains(k)));
    // L6 covers the whole serve crate — binaries included, since the
    // `serve` bin hosts the same worker/connection threads — and the
    // router crate, whose forwarding/health threads live under the same
    // never-panic-in-a-service-thread contract.
    let serve = parts.first().is_some_and(|p| p == "crates")
        && parts.get(1).is_some_and(|p| p == "serve" || p == "router");
    let queue_module = serve && parts.last().is_some_and(|f| f == "queue.rs");
    let is_lib_src = parts.iter().any(|p| p == "src")
        && !parts
            .iter()
            .any(|p| p == "bin" || p == "tests" || p == "benches" || p == "examples");
    if !is_lib_src {
        return Scope {
            recovery,
            serve,
            queue_module,
            ..Scope::default()
        }; // L4 (+ L5 by file name, + L6 in `serve`) only
    }
    let krate = match parts.first().map(String::as_str) {
        Some("crates") => parts.get(1).cloned().unwrap_or_default(),
        // The workspace-root facade crate (`src/lib.rs`) is a pure
        // re-export shim; treat it as a library for L2/L3.
        Some("src") => String::from("facade"),
        _ => String::new(),
    };
    Scope {
        numeric_kernel: NUMERIC_KERNEL_CRATES.contains(&krate.as_str()),
        library: LIBRARY_CRATES.contains(&krate.as_str()) || krate == "facade",
        deterministic: DETERMINISTIC_CRATES.contains(&krate.as_str()) || krate == "facade",
        recovery,
        serve,
        queue_module,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_crates_get_l1() {
        assert!(scope_for(Path::new("crates/num/src/fft.rs")).numeric_kernel);
        assert!(scope_for(Path::new("crates/mesh/src/grid.rs")).numeric_kernel);
        assert!(scope_for(Path::new("crates/core/src/levels.rs")).numeric_kernel);
        assert!(!scope_for(Path::new("crates/md/src/nve.rs")).numeric_kernel);
    }

    #[test]
    fn library_crates_get_l2_but_tools_do_not() {
        assert!(scope_for(Path::new("crates/md/src/nve.rs")).library);
        assert!(scope_for(Path::new("crates/mdgrape/src/step.rs")).library);
        assert!(!scope_for(Path::new("crates/bench/src/lib.rs")).library);
        assert!(!scope_for(Path::new("crates/xtask/src/main.rs")).library);
    }

    #[test]
    fn leaf_code_is_l4_only() {
        for p in [
            "tests/paper_claims.rs",
            "examples/quickstart.rs",
            "crates/bench/benches/fft.rs",
            "crates/bench/src/bin/table1.rs",
            "crates/md/tests/integration.rs",
        ] {
            let s = scope_for(Path::new(p));
            assert!(!s.numeric_kernel && !s.library && !s.deterministic, "{p}");
        }
    }

    #[test]
    fn recovery_files_get_l5_everywhere() {
        // Library sources, test targets and bench binaries all carry L5
        // when the file name marks fault/checkpoint code.
        for p in [
            "crates/md/src/checkpoint.rs",
            "crates/bench/src/bin/chaos_run.rs",
            "tests/fault_recovery.rs",
        ] {
            assert!(scope_for(Path::new(p)).recovery, "{p}");
        }
        assert!(!scope_for(Path::new("crates/md/src/nve.rs")).recovery);
        assert!(!scope_for(Path::new("tests/paper_claims.rs")).recovery);
    }

    #[test]
    fn serve_crate_gets_l6_everywhere_including_binaries() {
        for p in [
            "crates/serve/src/server.rs",
            "crates/serve/src/protocol.rs",
            "crates/serve/src/admission.rs",
            "crates/serve/src/bin/serve.rs",
        ] {
            assert!(scope_for(Path::new(p)).serve, "{p}");
        }
        assert!(!scope_for(Path::new("crates/serve/src/server.rs")).queue_module);
        assert!(scope_for(Path::new("crates/serve/src/queue.rs")).queue_module);
        // Other crates never pick up L6, even for files named queue.rs.
        assert!(!scope_for(Path::new("crates/md/src/queue.rs")).serve);
        assert!(!scope_for(Path::new("crates/bench/src/bin/serve_load.rs")).serve);
    }

    #[test]
    fn router_crate_gets_l6_like_serve() {
        for p in [
            "crates/router/src/server.rs",
            "crates/router/src/quota.rs",
            "crates/router/src/bin/router.rs",
        ] {
            assert!(scope_for(Path::new(p)).serve, "{p}");
        }
        assert!(!scope_for(Path::new("crates/router/src/quota.rs")).queue_module);
    }

    #[test]
    fn reference_crate_is_deterministic_but_may_panic() {
        let s = scope_for(Path::new("crates/reference/src/ewald.rs"));
        assert!(s.deterministic);
        assert!(!s.library);
    }

    #[test]
    fn shared_ignore_list_covers_renamed_target_dirs() {
        let tmp = std::env::temp_dir().join(format!("xtask-walk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        // Listed names and dot-dirs are skipped by name alone.
        assert!(!walk_into(&tmp.join("target"), "target"));
        assert!(!walk_into(&tmp.join("node_modules"), "node_modules"));
        assert!(!walk_into(&tmp.join(".git"), ".git"));
        assert!(!walk_into(&tmp.join("xtask/fixtures"), "fixtures"));
        // A renamed CARGO_TARGET_DIR is caught by its CACHEDIR.TAG.
        let redirected = tmp.join("build-out");
        std::fs::create_dir_all(&redirected).unwrap();
        assert!(walk_into(&redirected, "build-out"));
        std::fs::write(
            redirected.join("CACHEDIR.TAG"),
            "Signature: 8a477f597d28d172789f06886806bc55",
        )
        .unwrap();
        assert!(!walk_into(&redirected, "build-out"));
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn discovery_skips_fixtures_and_target() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let files = workspace_rs_files(root);
        assert!(!files.is_empty());
        assert!(files
            .iter()
            .all(|f| !f.to_string_lossy().contains("fixtures")));
        assert!(files
            .iter()
            .all(|f| !f.to_string_lossy().contains("/target/")));
        assert!(files
            .iter()
            .any(|f| f.ends_with("crates/core/src/solver.rs")));
    }
}

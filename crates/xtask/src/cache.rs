//! File-hash cache so repeat `xtask lint` / `xtask analyze` runs skip
//! unchanged work.
//!
//! * **lint** caches per file: a source whose FNV-1a hash matches a prior
//!   *clean* scan is skipped outright (dirty files are always re-linted so
//!   their messages reprint).
//! * **analyze** caches one digest over every (path, hash) pair plus the
//!   allowlist and a rules version: the call graph is global, so any
//!   changed file invalidates the whole run — but the no-change case (CI
//!   re-runs, pre-commit hooks) drops to a hash-only pass.
//!
//! Cache files live under `target/xtask-cache/`; corruption or absence
//! just means a full run. `--no-cache` bypasses reads and writes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Bump when rule semantics change so stale "clean" verdicts die.
pub const RULES_VERSION: u32 = 2;

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn cache_dir(root: &Path) -> PathBuf {
    root.join("target").join("xtask-cache")
}

/// Per-file clean-scan records for the lint pass.
pub struct LintCache {
    path: PathBuf,
    /// rel path → hash of the content that last linted clean.
    clean: BTreeMap<String, u64>,
}

impl LintCache {
    pub fn load(root: &Path) -> Self {
        let path = cache_dir(root).join("lint.v1");
        let mut clean = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                if let Some((h, rel)) = line.split_once(' ') {
                    if let Ok(h) = u64::from_str_radix(h, 16) {
                        clean.insert(rel.to_string(), h);
                    }
                }
            }
        }
        Self { path, clean }
    }

    /// Was `rel` clean at exactly this content hash?
    pub fn is_clean(&self, rel: &str, hash: u64) -> bool {
        self.clean.get(rel) == Some(&hash)
    }

    pub fn mark(&mut self, rel: &str, hash: u64, clean: bool) {
        if clean {
            self.clean.insert(rel.to_string(), hash);
        } else {
            self.clean.remove(rel);
        }
    }

    pub fn store(&self) {
        let mut out = String::new();
        for (rel, h) in &self.clean {
            out.push_str(&format!("{h:016x} {rel}\n"));
        }
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&self.path, out);
    }
}

/// Whole-run digest for the analyze pass: hashes of every input that can
/// change the verdict.
pub fn analyze_digest(inputs: &[(String, u64)], allowlist_text: &str) -> u64 {
    let mut acc = String::new();
    acc.push_str(&format!("v{RULES_VERSION}\n"));
    for (rel, h) in inputs {
        acc.push_str(&format!("{h:016x} {rel}\n"));
    }
    acc.push_str(allowlist_text);
    fnv1a(acc.as_bytes())
}

/// True if a prior analyze run with this exact digest was clean.
pub fn analyze_was_clean(root: &Path, digest: u64) -> bool {
    std::fs::read_to_string(cache_dir(root).join("analyze.v1"))
        .is_ok_and(|t| t.trim() == format!("{digest:016x} clean"))
}

pub fn analyze_mark_clean(root: &Path, digest: u64) {
    let dir = cache_dir(root);
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("analyze.v1"), format!("{digest:016x} clean\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn lint_cache_round_trips_through_disk() {
        let root = std::env::temp_dir().join(format!("xtask-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut c = LintCache::load(&root);
        assert!(!c.is_clean("a.rs", 1));
        c.mark("a.rs", 1, true);
        c.mark("b.rs", 2, false);
        c.store();
        let c2 = LintCache::load(&root);
        assert!(c2.is_clean("a.rs", 1));
        assert!(!c2.is_clean("a.rs", 9)); // content changed
        assert!(!c2.is_clean("b.rs", 2)); // was dirty
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn analyze_digest_is_sensitive_to_every_input() {
        let base = analyze_digest(&[("a.rs".into(), 1)], "allow");
        assert_ne!(base, analyze_digest(&[("a.rs".into(), 2)], "allow"));
        assert_ne!(base, analyze_digest(&[("b.rs".into(), 1)], "allow"));
        assert_ne!(base, analyze_digest(&[("a.rs".into(), 1)], "other"));
    }

    #[test]
    fn analyze_clean_marker_round_trips() {
        let root = std::env::temp_dir().join(format!("xtask-an-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        assert!(!analyze_was_clean(&root, 42));
        analyze_mark_clean(&root, 42);
        assert!(analyze_was_clean(&root, 42));
        assert!(!analyze_was_clean(&root, 43));
        let _ = std::fs::remove_dir_all(&root);
    }
}

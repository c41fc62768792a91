//! Facts about the host and the build, recorded in every result.
//!
//! A timing means nothing without the core count it was taken on: results
//! carry `nproc`, the pool threads used, the compiler and the commit, and
//! `compare` refuses to compare runs whose thread counts differ.

use crate::json::{num, obj, text, Value};

#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Pool threads the workloads use: `min(nproc, 2)`.
    pub threads: usize,
    pub rustc: String,
    pub commit: String,
}

/// Pool threads for a host with `nproc` cores. The benchmark is sized for
/// a two-core sandbox: more threads than that would change what the
/// recorded baselines mean.
pub fn pool_threads(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self {
            nproc,
            threads: pool_threads(nproc),
            rustc: rustc_version(),
            commit: head_commit(),
        }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("nproc", num(self.nproc as f64)),
            ("threads", num(self.threads as f64)),
            ("rustc", text(&*self.rustc)),
            ("commit", text(&*self.commit)),
        ])
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (which would search parent directories — the
/// benchmark reads nothing outside its checkout). `unknown` in a checkout
/// that is not a repository.
fn head_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_threads_follow_the_host_up_to_two() {
        assert_eq!(pool_threads(1), 1);
        assert_eq!(pool_threads(2), 2);
        assert_eq!(pool_threads(64), 2);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}

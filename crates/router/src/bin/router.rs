//! `tme-router` — run the cluster front door from the command line
//! (flags in `USAGE`).
//!
//! Flags parse strictly (unknown or repeated flag / missing value / bad
//! number exits 2 naming the flag, then the usage line); values that
//! parse but make no sense are rejected by `RouterConfig::validate` with
//! a typed error before the listener is bound (exit 1). The lifecycle — signals, drain, `--stats-out` — is
//! the serve binary's, `tme_serve::net::run_binary`.

use std::time::Duration;
use tme_num::args::Args;
use tme_router::{route, RouterConfig};
use tme_serve::net::run_binary;

const USAGE: &str = "usage: tme-router --shards HOST:PORT[,HOST:PORT...] [--addr HOST:PORT] \
                     [--max-active N] [--quantum N] [--max-waiting N] \
                     [--quota-rate N] [--quota-burst N] [--quota-tenants N] \
                     [--strikes N] [--cooldown-ms N] [--probe-interval-ms N] \
                     [--retry-after-ms N] [--connect-timeout-ms N] [--forward-timeout-ms N] \
                     [--seed N] [--stats-out PATH]";

/// The configuration the flags ask for; an unknown or repeated flag or an
/// unparsable value is left in `args` as a problem.
fn config(args: &mut Args) -> RouterConfig {
    let mut c = RouterConfig {
        addr: args.get_or("--addr", "127.0.0.1:7070".to_string()),
        ..RouterConfig::default()
    };
    if let Some(list) = args.opt("--shards") {
        c.shards = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
    }
    c.fair.max_active = args.get_or("--max-active", c.fair.max_active);
    c.fair.quantum = args.get_or("--quantum", c.fair.quantum);
    c.fair.max_waiting_per_tenant = args.get_or("--max-waiting", c.fair.max_waiting_per_tenant);
    c.quota.rate_per_sec = args.get_or("--quota-rate", c.quota.rate_per_sec);
    c.quota.burst = args.get_or("--quota-burst", c.quota.burst);
    c.quota.max_tenants = args.get_or("--quota-tenants", c.quota.max_tenants);
    c.health.strikes = args.get_or("--strikes", c.health.strikes);
    let cooldown_ms = u64::try_from(c.health.cooldown.as_millis()).unwrap_or(u64::MAX);
    c.health.cooldown = Duration::from_millis(args.get_or("--cooldown-ms", cooldown_ms));
    c.probe_interval_ms = args.get_or("--probe-interval-ms", c.probe_interval_ms);
    c.retry_after_ms = args.get_or("--retry-after-ms", c.retry_after_ms);
    c.connect_timeout_ms = args.get_or("--connect-timeout-ms", c.connect_timeout_ms);
    c.forward_timeout_ms = args.get_or("--forward-timeout-ms", c.forward_timeout_ms);
    c.seed = args.get_or("--seed", c.seed);
    c
}

fn main() -> std::process::ExitCode {
    run_binary("tme-router", USAGE, config, route)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<RouterConfig, Vec<String>> {
        let mut args = Args::from_vec(words.iter().map(ToString::to_string).collect());
        let cfg = config(&mut args);
        let problems = args.problems();
        if problems.is_empty() {
            Ok(cfg)
        } else {
            Err(problems)
        }
    }

    #[test]
    fn flags_parse_strictly() {
        let cfg = parse(&[
            "--shards",
            "127.0.0.1:7878,127.0.0.1:7879",
            "--max-active",
            "8",
            "--quota-rate",
            "100",
            "--cooldown-ms",
            "250",
        ])
        .expect("valid flags must parse");
        assert_eq!(cfg.shards.len(), 2);
        assert_eq!(cfg.fair.max_active, 8);
        assert_eq!(cfg.quota.rate_per_sec, 100);
        assert_eq!(cfg.health.cooldown, Duration::from_millis(250));

        assert!(parse(&["--shard", "x"]).is_err(), "unknown flag");
        assert!(parse(&["--max-active"]).is_err(), "missing value");
        assert!(parse(&["--quantum", "many"]).is_err(), "bad number");
        assert!(
            parse(&["--seed", "1", "--seed", "2"]).is_err(),
            "repeated flag"
        );
    }

    #[test]
    fn parsed_nonsense_fails_validation_not_parsing() {
        let cfg = parse(&[]).expect("empty is parsable");
        assert_eq!(
            cfg.validate().err(),
            Some(tme_router::RouterConfigError::NoShards)
        );
        let cfg = parse(&["--shards", "127.0.0.1:1", "--max-active", "0"])
            .expect("0 is a parsable usize");
        assert_eq!(
            cfg.validate().err(),
            Some(tme_router::RouterConfigError::ZeroMaxActive)
        );
    }
}

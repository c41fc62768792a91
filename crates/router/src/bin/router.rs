//! `tme-router` — run the cluster front door from the command line
//! (flags in `USAGE`).
//!
//! Flags parse strictly (unknown flag / missing value / bad number exits
//! 2 naming the flag); values that parse but make no sense are rejected
//! by `RouterConfig::validate` with a typed error before the listener is
//! bound (exit 1). The lifecycle — signals, drain, `--stats-out` — is
//! the serve binary's, `tme_serve::net::run_binary`.

use std::time::Duration;
use tme_router::{route, RouterConfig};
use tme_serve::net::{flag_value, run_binary};

const USAGE: &str = "usage: tme-router --shards HOST:PORT[,HOST:PORT...] [--addr HOST:PORT] \
                     [--max-active N] [--quantum N] [--max-waiting N] \
                     [--quota-rate N] [--quota-burst N] [--quota-tenants N] \
                     [--strikes N] [--cooldown-ms N] [--probe-interval-ms N] \
                     [--retry-after-ms N] [--connect-timeout-ms N] [--forward-timeout-ms N] \
                     [--seed N] [--stats-out PATH]";

fn defaults() -> RouterConfig {
    RouterConfig {
        addr: "127.0.0.1:7070".to_string(),
        ..RouterConfig::default()
    }
}

/// Apply one flag; an unknown one is an error.
fn set_flag(cfg: &mut RouterConfig, flag: &str, value: Option<String>) -> Result<(), String> {
    match flag {
        "--addr" => cfg.addr = flag_value(flag, value)?,
        "--shards" => {
            let list: String = flag_value(flag, value)?;
            cfg.shards = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
        }
        "--max-active" => cfg.fair.max_active = flag_value(flag, value)?,
        "--quantum" => cfg.fair.quantum = flag_value(flag, value)?,
        "--max-waiting" => cfg.fair.max_waiting_per_tenant = flag_value(flag, value)?,
        "--quota-rate" => cfg.quota.rate_per_sec = flag_value(flag, value)?,
        "--quota-burst" => cfg.quota.burst = flag_value(flag, value)?,
        "--quota-tenants" => cfg.quota.max_tenants = flag_value(flag, value)?,
        "--strikes" => cfg.health.strikes = flag_value(flag, value)?,
        "--cooldown-ms" => cfg.health.cooldown = Duration::from_millis(flag_value(flag, value)?),
        "--probe-interval-ms" => cfg.probe_interval_ms = flag_value(flag, value)?,
        "--retry-after-ms" => cfg.retry_after_ms = flag_value(flag, value)?,
        "--connect-timeout-ms" => cfg.connect_timeout_ms = flag_value(flag, value)?,
        "--forward-timeout-ms" => cfg.forward_timeout_ms = flag_value(flag, value)?,
        "--seed" => cfg.seed = flag_value(flag, value)?,
        other => return Err(format!("unknown flag {other:?}")),
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    run_binary("tme-router", USAGE, defaults(), set_flag, route)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<RouterConfig, String> {
        let args = words.iter().map(|s| (*s).to_string());
        tme_serve::net::parse_flags(args, defaults(), set_flag).map(|(cfg, _)| cfg)
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

//! `serve` — run the TME simulation service from the command line (flags
//! in `USAGE`).
//!
//! Flags are parsed strictly: an unknown flag, a missing value, or an
//! unparsable number exits 2 with the offending flag named — never a
//! silent fall-back to a default the operator didn't ask for.
//! Nonsensical values that *do* parse (zero workers, an overflowing
//! queue depth) are rejected by `ServeConfig::validate` with a typed
//! error before any socket is bound (exit 1). The server runs until
//! SIGTERM/SIGINT or a wire `Shutdown`, then drains; the lifecycle is
//! `tme_serve::net::run_binary`.

use tme_serve::net::{flag_value, run_binary};
use tme_serve::{serve, ServeConfig};

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--cost-budget N] [--cache N] [--retry-after-ms N] [--stats-out PATH] \
                     [--min-service-us N]";

fn defaults() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    }
}

/// Apply one flag; an unknown one is an error.
fn set_flag(cfg: &mut ServeConfig, flag: &str, value: Option<String>) -> Result<(), String> {
    match flag {
        "--addr" => cfg.addr = flag_value(flag, value)?,
        "--workers" => cfg.workers = flag_value(flag, value)?,
        "--queue" => cfg.queue_capacity = flag_value(flag, value)?,
        "--cost-budget" => cfg.cost_budget = flag_value(flag, value)?,
        "--cache" => cfg.plan_cache_capacity = flag_value(flag, value)?,
        "--retry-after-ms" => cfg.retry_after_ms = flag_value(flag, value)?,
        "--min-service-us" => cfg.min_service_us = flag_value(flag, value)?,
        other => return Err(format!("unknown flag {other:?}")),
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    run_binary("serve", USAGE, defaults(), set_flag, serve)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<ServeConfig, String> {
        let args = words.iter().map(|s| (*s).to_string());
        tme_serve::net::parse_flags(args, defaults(), set_flag).map(|(cfg, _)| cfg)
    }

    #[test]
    fn flags_parse_strictly() {
        let cfg = parse(&[
            "--workers",
            "4",
            "--queue",
            "32",
            "--cost-budget",
            "65536",
            "--retry-after-ms",
            "40",
        ])
        .expect("valid flags must parse");
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.queue_capacity, 32);
        assert_eq!(cfg.cost_budget, 65_536);
        assert_eq!(cfg.retry_after_ms, 40);

        // Unknown flags, missing values, and garbage numbers all fail
        // loudly instead of silently defaulting.
        assert!(parse(&["--quue", "8"]).is_err());
        assert!(parse(&["--queue"]).is_err());
        assert!(parse(&["--queue", "eight"]).is_err());
        assert!(parse(&["--cost-budget", "-1"]).is_err());
    }

    #[test]
    fn parsed_zeroes_fail_validation_not_parsing() {
        // "0" parses fine — rejecting it is validate()'s job, with a
        // typed error.
        let cfg = parse(&["--queue", "0"]).expect("0 is a parsable usize");
        assert!(matches!(
            cfg.validate(),
            Err(tme_serve::ConfigError::ZeroQueueCapacity)
        ));
    }
}

//! `serve` — run the TME simulation service from the command line (flags
//! in `USAGE`).
//!
//! Flags are parsed strictly: an unknown or repeated flag, a missing
//! value, or an unparsable number exits 2 with the offending flag named
//! and the usage line — never a silent fall-back to a default the
//! operator didn't ask for.
//! Nonsensical values that *do* parse (zero workers, an overflowing
//! queue depth) are rejected by `ServeConfig::validate` with a typed
//! error before any socket is bound (exit 1). The server runs until
//! SIGTERM/SIGINT or a wire `Shutdown`, then drains; the lifecycle is
//! `tme_serve::net::run_binary`.

use tme_num::args::Args;
use tme_serve::net::run_binary;
use tme_serve::{serve, ServeConfig};

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--cost-budget N] [--cache N] [--retry-after-ms N] [--stats-out PATH] \
                     [--min-service-us N]";

/// The configuration the flags ask for; an unknown or repeated flag or an
/// unparsable value is left in `args` as a problem.
fn config(args: &mut Args) -> ServeConfig {
    let d = ServeConfig::default();
    ServeConfig {
        addr: args.get_or("--addr", "127.0.0.1:7878".to_string()),
        workers: args.get_or("--workers", d.workers),
        queue_capacity: args.get_or("--queue", d.queue_capacity),
        cost_budget: args.get_or("--cost-budget", d.cost_budget),
        plan_cache_capacity: args.get_or("--cache", d.plan_cache_capacity),
        retry_after_ms: args.get_or("--retry-after-ms", d.retry_after_ms),
        min_service_us: args.get_or("--min-service-us", d.min_service_us),
        ..d
    }
}

fn main() -> std::process::ExitCode {
    run_binary("serve", USAGE, config, serve)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<ServeConfig, Vec<String>> {
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

        // Unknown flags, missing values, garbage numbers and repeated
        // flags all fail loudly instead of silently defaulting.
        assert!(parse(&["--quue", "8"]).is_err());
        assert!(parse(&["--queue"]).is_err());
        assert!(parse(&["--queue", "eight"]).is_err());
        assert!(parse(&["--cost-budget", "-1"]).is_err());
        assert!(parse(&["--queue", "8", "--queue", "9"]).is_err());
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

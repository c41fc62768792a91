//! The one argument parser of the workspace's binaries: the `tme-bench`
//! reproducers and gates (through `tme_bench::init_cli`) and the `serve`
//! and `tme-router` servers (through `tme_serve::net::run_binary`).
//!
//! Every binary speaks the same tiny dialect — `--name value` pairs and
//! bare `--flag`s. [`Args`] parses once, hands out typed values, and
//! [`Args::problems`] lists anything left over (unknown, misspelled or
//! repeated flags, unparseable values); [`Args::finish`] turns those into
//! exit status 2 instead of a silent default.
//!
//! ```no_run
//! let mut args = tme_num::args::Args::parse();
//! let steps: usize = args.get_or("--steps", 200);
//! let out = args.opt("--out").unwrap_or_else(|| "out.json".to_string());
//! args.finish(); // exits(2) with a message on leftovers or parse errors
//! ```

use std::str::FromStr;

/// Parsed command line: raw tokens plus a consumed/erroneous ledger.
pub struct Args {
    argv: Vec<String>,
    used: Vec<bool>,
    errors: Vec<String>,
}

impl Args {
    /// Capture the process arguments (without `argv[0]`).
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Build from an explicit token list (tests, embedding).
    pub fn from_vec(argv: Vec<String>) -> Self {
        let used = vec![false; argv.len()];
        Args {
            argv,
            used,
            errors: Vec::new(),
        }
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.argv.iter().position(|a| a == name)
    }

    /// `--flag` presence; consumes the token.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.position(name) {
            Some(i) => {
                self.used[i] = true;
                true
            }
            None => false,
        }
    }

    /// `--name value` as a raw string; consumes both tokens.
    pub fn opt(&mut self, name: &str) -> Option<String> {
        let i = self.position(name)?;
        self.used[i] = true;
        match self.argv.get(i + 1) {
            Some(v) => {
                self.used[i + 1] = true;
                Some(v.clone())
            }
            None => {
                self.errors.push(format!("{name}: missing value"));
                None
            }
        }
    }

    /// `--name value` parsed as `T`, falling back to `default` when the
    /// flag is absent. A present-but-unparseable value is recorded as an
    /// error for [`Args::finish`] rather than silently defaulted.
    pub fn get_or<T: FromStr>(&mut self, name: &str, default: T) -> T {
        match self.opt(name) {
            Some(raw) => match raw.parse() {
                Ok(v) => v,
                Err(_) => {
                    self.errors.push(format!("{name}: cannot parse `{raw}`"));
                    default
                }
            },
            None => default,
        }
    }

    /// Collected problems: parse errors first, then any token no getter
    /// consumed (unknown or misspelled flags, and the second occurrence
    /// of a repeated one — getters read the first).
    pub fn problems(&self) -> Vec<String> {
        let mut out = self.errors.clone();
        for (i, a) in self.argv.iter().enumerate() {
            if !self.used[i] {
                out.push(format!("unknown argument `{a}`"));
            }
        }
        out
    }

    /// Exit(2) with a diagnostic if any flag was unknown or unparseable.
    /// Call after the last getter.
    pub fn finish(self) {
        let problems = self.problems();
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("error: {p}");
            }
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn typed_getters_consume_their_tokens() {
        let mut a = Args::from_vec(argv(&["--steps", "10", "--quick", "--out", "x.json"]));
        assert_eq!(a.get_or("--steps", 200usize), 10);
        assert!(a.flag("--quick"));
        assert_eq!(a.opt("--out").as_deref(), Some("x.json"));
        assert!(a.problems().is_empty());
    }

    #[test]
    fn absent_flags_fall_back_to_defaults() {
        let mut a = Args::from_vec(argv(&[]));
        assert_eq!(a.get_or("--steps", 200usize), 200);
        assert!(!a.flag("--quick"));
        assert_eq!(a.opt("--out"), None);
        assert!(a.problems().is_empty());
    }

    #[test]
    fn unknown_flags_are_reported_not_ignored() {
        let mut a = Args::from_vec(argv(&["--water", "512"]));
        assert_eq!(a.get_or("--waters", 64usize), 64);
        let problems = a.problems();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("--water"));
    }

    #[test]
    fn bad_values_are_errors_not_silent_defaults() {
        let mut a = Args::from_vec(argv(&["--seed", "many"]));
        assert_eq!(a.get_or("--seed", 42u64), 42);
        let problems = a.problems();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("cannot parse `many`"));
    }

    #[test]
    fn trailing_flag_without_value_is_an_error() {
        let mut a = Args::from_vec(argv(&["--out"]));
        assert_eq!(a.opt("--out"), None);
        assert!(a.problems()[0].contains("missing value"));
    }
}

//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positional subcommand + `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: Option<String>,
    options: HashMap<String, String>,
}

/// Options that are boolean switches: present means on, no value token.
const BOOL_FLAGS: &[&str] = &["verbose"];

impl Args {
    /// Parses argv (without the program name).
    ///
    /// Every `--key` must be followed by a value, except the boolean
    /// switches in [`BOOL_FLAGS`] (e.g. `--verbose`), which take none.
    /// Which keys are valid depends on the subcommand; see
    /// [`Args::accept_only`].
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = if BOOL_FLAGS.contains(&key) {
                    "1".to_string()
                } else {
                    it.next().ok_or_else(|| format!("--{key} expects a value"))?.clone()
                };
                if out.options.insert(key.to_string(), value).is_some() {
                    return Err(format!("--{key} given twice"));
                }
            } else if out.command.is_none() {
                out.command = Some(tok.clone());
            } else {
                return Err(format!("unexpected positional argument {tok:?}"));
            }
        }
        Ok(out)
    }

    /// Whether a boolean switch (see [`BOOL_FLAGS`]) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Optional parsed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Fails, naming every offending key, unless each given option is one
    /// of `accepted`: a misspelt or retired option is an error, never
    /// silently ignored.
    pub fn accept_only(&self, accepted: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<String> =
            self.options.keys().filter(|k| !accepted.contains(&k.as_str())).map(|k| format!("--{k}")).collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort();
        let command = self.command.as_deref().unwrap_or("umsc");
        let accepted: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
        let accepted = if accepted.is_empty() { "none".to_string() } else { accepted.join(" ") };
        Err(format!("{command} does not take {} (accepted: {accepted})", unknown.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(&argv(&["cluster", "--clusters", "7", "--data", "/tmp/x"])).unwrap();
        assert_eq!(a.command.as_deref(), Some("cluster"));
        assert_eq!(a.require("data").unwrap(), "/tmp/x");
        assert_eq!(a.get_parsed::<usize>("clusters", 0).unwrap(), 7);
        assert_eq!(a.get_parsed("seed", 5u64).unwrap(), 5);
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(Args::parse(&argv(&["x", "--flag"])).is_err());
        assert!(Args::parse(&argv(&["x", "--a", "1", "--a", "2"])).is_err());
        assert!(Args::parse(&argv(&["x", "y"])).is_err());
    }

    #[test]
    fn missing_required_reported() {
        let a = Args::parse(&argv(&["info"])).unwrap();
        assert!(a.require("data").unwrap_err().contains("--data"));
    }

    #[test]
    fn bad_parse_reported() {
        let a = Args::parse(&argv(&["x", "--n", "abc"])).unwrap();
        assert!(a.get_parsed::<usize>("n", 0).is_err());
    }

    #[test]
    fn options_outside_the_accepted_set_rejected() {
        let a = Args::parse(&argv(&["info", "--data", "d", "--zeta", "1", "--alpha", "2"])).unwrap();
        assert!(a.accept_only(&["data"]).unwrap_err().contains("--alpha, --zeta"));
        assert!(a.accept_only(&["data", "zeta", "alpha"]).is_ok());
        let m = Args::parse(&argv(&["methods", "--verbose"])).unwrap();
        assert!(m.accept_only(&[]).unwrap_err().contains("accepted: none"));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse(&argv(&["cluster", "--verbose", "--clusters", "3"])).unwrap();
        assert!(a.flag("verbose"));
        assert_eq!(a.get_parsed::<usize>("clusters", 0).unwrap(), 3);
        let b = Args::parse(&argv(&["cluster", "--clusters", "3"])).unwrap();
        assert!(!b.flag("verbose"));
        // Trailing boolean flag needs no value either.
        assert!(Args::parse(&argv(&["cluster", "--verbose"])).is_ok());
    }
}

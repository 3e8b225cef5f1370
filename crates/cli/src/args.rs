//! Minimal `--key value` / `--flag` argument scanner for the `ftsched`
//! subcommands.
//!
//! The sanctioned dependency set has no CLI parser and the surface is
//! small, so this hand-rolled scanner is the single home of argument
//! handling.

use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` pairs and bare flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the command word). Keys must start with
    /// `--`; a key followed by another key (or nothing) is a flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got `{}`", argv[i]))?;
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    flags.push(key.to_string());
                    i += 1;
                }
            }
        }
        Ok(Args { values, flags })
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Parsed numeric option with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse `{s}`")),
        }
    }

    /// Required numeric option.
    pub fn require_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.require(key)?
            .parse()
            .map_err(|_| format!("option --{key}: cannot parse `{}`", self.get(key).unwrap()))
    }

    /// Bare-flag presence.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&argv("--tasks 120 --gantt --out x.json")).unwrap();
        assert_eq!(a.get("tasks"), Some("120"));
        assert_eq!(a.get("out"), Some("x.json"));
        assert!(a.has_flag("gantt"));
        assert!(!a.has_flag("tasks"));
    }

    #[test]
    fn numeric_helpers() {
        let a = Args::parse(&argv("--epsilon 2")).unwrap();
        assert_eq!(a.require_num::<usize>("epsilon").unwrap(), 2);
        assert_eq!(a.get_num::<usize>("procs", 20).unwrap(), 20);
        assert!(a.require_num::<usize>("missing").is_err());
    }

    #[test]
    fn rejects_bare_words() {
        assert!(Args::parse(&argv("tasks 120")).is_err());
    }

    #[test]
    fn bad_number_reported() {
        let a = Args::parse(&argv("--tasks many")).unwrap();
        let err = a.get_num::<usize>("tasks", 1).unwrap_err();
        assert!(err.contains("cannot parse"));
    }
}

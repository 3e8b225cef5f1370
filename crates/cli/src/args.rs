//! Minimal `--key value` / `--flag` argument scanner for the `ftsched`
//! subcommands.
//!
//! The sanctioned dependency set has no CLI parser and the surface is
//! small, so this hand-rolled scanner is the single home of argument
//! handling. Each command declares the options it takes and which of
//! them are bare flags; anything else — an unknown or misspelled
//! option, `--key=value`, a value after a flag, an option without its
//! value, a repeated option — is a named error before the command does
//! any work.

use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` pairs and bare flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the command word) against the command's
    /// declared `options` (each followed by a value) and bare `flags`,
    /// both written as space-separated `--name`s.
    pub fn parse(argv: &[String], options: &str, flags: &str) -> Result<Args, String> {
        let declared = |list: &str, word: &str| list.split_whitespace().any(|w| w == word);
        let mut args = Args::default();
        let mut words = argv.iter().peekable();
        while let Some(word) = words.next() {
            let key = word
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got `{word}`"))?;
            let value = words.next_if(|next| !next.starts_with("--"));
            let (option, flag) = (declared(options, word), declared(flags, word));
            if (option || flag) && (args.values.contains_key(key) || args.has_flag(key)) {
                return Err(format!("option {word} is given twice"));
            }
            match value {
                Some(value) if option => {
                    args.values.insert(key.to_string(), value.clone());
                }
                None if option => return Err(format!("option {word} needs a value")),
                None if flag => args.flags.push(key.to_string()),
                Some(value) if flag => {
                    return Err(format!("flag {word} takes no value, got `{value}`"));
                }
                _ => {
                    let accepted = format!("{options} {flags}");
                    let accepted = accepted.trim_end();
                    return Err(format!("unknown option `{word}` (accepted: {accepted})"));
                }
            }
        }
        Ok(args)
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

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&argv(s), "--tasks --out --epsilon --procs", "--gantt")
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = parse("--tasks 120 --gantt --out x.json").unwrap();
        assert_eq!(a.get("tasks"), Some("120"));
        assert_eq!(a.get("out"), Some("x.json"));
        assert!(a.has_flag("gantt"));
        assert!(!a.has_flag("tasks"));
    }

    #[test]
    fn numeric_helpers() {
        let a = parse("--epsilon 2").unwrap();
        assert_eq!(a.require_num::<usize>("epsilon").unwrap(), 2);
        assert_eq!(a.get_num::<usize>("procs", 20).unwrap(), 20);
        assert!(a.require_num::<usize>("missing").is_err());
    }

    #[test]
    fn rejects_bare_words() {
        assert!(parse("tasks 120").is_err());
    }

    #[test]
    fn bad_number_reported() {
        let a = parse("--tasks many").unwrap();
        let err = a.get_num::<usize>("tasks", 1).unwrap_err();
        assert!(err.contains("cannot parse"));
    }

    #[test]
    fn undeclared_and_misshapen_options_are_named_errors() {
        for (args, expected) in [
            (
                "--task 120",
                "unknown option `--task` (accepted: --tasks --out ",
            ),
            ("--tasks=120", "unknown option `--tasks=120`"),
            ("--gantt yes", "flag --gantt takes no value, got `yes`"),
            ("--tasks --out x.json", "option --tasks needs a value"),
            ("--out x.json --tasks", "option --tasks needs a value"),
            ("--tasks 1 --tasks 2", "option --tasks is given twice"),
            ("--gantt --gantt", "option --gantt is given twice"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(expected), "{args}: {err}");
        }
        // A negative number is a value, not an option.
        assert_eq!(parse("--epsilon -1").unwrap().get("epsilon"), Some("-1"));
    }
}

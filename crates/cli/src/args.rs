//! Minimal flag parsing for the CLI (kept dependency-free on purpose).

use std::collections::BTreeMap;

/// A parsed command line: subcommand, `--key value` flags, and positionals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs.
    pub flags: BTreeMap<String, String>,
    /// Remaining positional arguments.
    pub positionals: Vec<String>,
}

/// Parses an argument vector (without the program name).
///
/// A `--flag` followed by another flag (or by nothing) is a boolean
/// switch and parses as `true`, so `lint --all` and `lint --all true`
/// are equivalent.
///
/// # Errors
///
/// Returns a message if no subcommand was given.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                _ => "true".to_string(),
            };
            out.flags.insert(key.to_string(), value);
        } else if out.command.is_empty() {
            out.command = arg;
        } else {
            out.positionals.push(arg);
        }
    }
    if out.command.is_empty() {
        return Err("no subcommand given".to_string());
    }
    Ok(out)
}

impl Parsed {
    /// A flag parsed as `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    /// A size flag (`--stripes`, `--element`) parsed as a positive count,
    /// with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse or is zero.
    pub fn get_positive(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get_or(key, default)? {
            0 => Err(format!("--{key} must be positive")),
            n => Ok(n),
        }
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns a message if absent.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let p = parse(sv(&["layout", "--code", "hv", "--p", "13", "extra"])).unwrap();
        assert_eq!(p.command, "layout");
        assert_eq!(p.flags.get("code").unwrap(), "hv");
        assert_eq!(p.get_or("p", 7usize).unwrap(), 13);
        assert_eq!(p.positionals, vec!["extra"]);
    }

    #[test]
    fn defaults_and_requirements() {
        let p = parse(sv(&["check"])).unwrap();
        assert_eq!(p.get_or("p", 7usize).unwrap(), 7);
        assert!(p.require("code").unwrap_err().contains("--code"));
    }

    #[test]
    fn error_cases() {
        assert!(parse(sv(&[])).is_err());
        let p = parse(sv(&["x", "--p", "nope"])).unwrap();
        assert!(p.get_or("p", 1usize).is_err());
    }

    #[test]
    fn valueless_flags_are_boolean_switches() {
        let p = parse(sv(&["lint", "--all", "--code", "hv"])).unwrap();
        assert!(p.get_or("all", false).unwrap());
        assert_eq!(p.flags.get("code").unwrap(), "hv");
        let trailing = parse(sv(&["lint", "--json"])).unwrap();
        assert!(trailing.get_or("json", false).unwrap());
    }
}

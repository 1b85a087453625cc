//! Tiny dependency-free argument parsing for the `xbfs` binary.

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional args, and
/// `--key value` / `--flag` options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Args {
    pub command: String,
    pub positional: Vec<String>,
    pub options: HashMap<String, String>,
}

impl Args {
    /// Parse from an iterator of argument strings (excluding `argv[0]`).
    /// `is_flag(command, key)` says which options never take a value: a
    /// flag does not consume the word after it, and `--flag=value` is an
    /// error.
    pub fn parse<I: IntoIterator<Item = String>>(
        argv: I,
        is_flag: impl Fn(&str, &str) -> bool,
    ) -> Result<Self, String> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().unwrap_or_default();
        let mut out = Args {
            command,
            ..Default::default()
        };
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name".into());
                }
                // `--key=value`, `--key value`, or bare `--flag`.
                if let Some((k, v)) = key.split_once('=') {
                    if is_flag(&out.command, k) {
                        return Err(format!("--{k} is a flag and takes no value"));
                    }
                    out.options.insert(k.to_string(), v.to_string());
                } else if !is_flag(&out.command, key)
                    && it.peek().is_some_and(|n| !n.starts_with("--"))
                {
                    out.options.insert(key.to_string(), it.next().unwrap());
                } else {
                    out.options.insert(key.to_string(), String::new());
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// A typed option with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// A required option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string()), |_, key| {
            key == "validate"
        })
        .unwrap()
    }

    #[test]
    fn parses_mixed_forms() {
        let a = parse(&[
            "bfs",
            "input.bin",
            "--source",
            "5",
            "--scale=18",
            "--validate",
        ]);
        assert_eq!(a.command, "bfs");
        assert_eq!(a.positional, vec!["input.bin"]);
        assert_eq!(a.get::<u32>("source", 0).unwrap(), 5);
        assert_eq!(a.get::<u32>("scale", 0).unwrap(), 18);
        assert!(a.flag("validate"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["generate"]);
        assert_eq!(a.get::<u32>("scale", 14).unwrap(), 14);
        assert!(a.require("out").is_err());
        assert!(parse(&["x", "--scale", "abc"])
            .get::<u32>("scale", 1)
            .is_err());
    }

    #[test]
    fn empty_argv() {
        let a = Args::parse(std::iter::empty(), |_, _| false).unwrap();
        assert_eq!(a.command, "");
    }
}

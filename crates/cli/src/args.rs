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
                let (k, v) = if let Some((k, v)) = key.split_once('=') {
                    if is_flag(&out.command, k) {
                        return Err(format!("--{k} is a flag and takes no value"));
                    }
                    (k, v.to_string())
                } else if !is_flag(&out.command, key)
                    && it.peek().is_some_and(|n| !n.starts_with("--"))
                {
                    (key, it.next().unwrap())
                } else {
                    (key, String::new())
                };
                // A repeated key would silently keep one of its values.
                if out.options.insert(k.to_string(), v).is_some() {
                    return Err(format!("--{k} given more than once"));
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

    fn try_parse(parts: &[&str]) -> Result<Args, String> {
        Args::parse(parts.iter().map(|s| s.to_string()), |_, k| k == "validate")
    }

    fn parse(parts: &[&str]) -> Args {
        try_parse(parts).unwrap()
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
    fn repeated_option_is_a_usage_error() {
        let err = try_parse(&["cluster", "g.bin", "--gcds", "4", "--gcds", "8"]).unwrap_err();
        assert_eq!(err, "--gcds given more than once");
        assert!(try_parse(&["bfs", "--source=1", "--source", "1"]).is_err());
        assert!(try_parse(&["bfs", "--validate", "--validate"]).is_err());
    }

    #[test]
    fn empty_argv() {
        let a = Args::parse(std::iter::empty(), |_, _| false).unwrap();
        assert_eq!(a.command, "");
    }
}

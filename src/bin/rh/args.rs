//! The one command-line parser every `rh` subcommand goes through.

use std::fmt::Display;
use std::str::FromStr;

/// A subcommand's command line: its usage line, its flags and its
/// positional arguments.
pub struct Spec {
    /// The line printed by `--help` and with every usage error.
    pub usage: &'static str,
    /// Flags that take a value, written `--name value` or `--name=value`.
    pub options: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// The positional arguments' names, in their fixed order.
    pub positionals: &'static [&'static str],
}

/// A command line [`Spec::parse`] accepted: each given flag or
/// positional by its name in the spec, with its text (empty for a
/// switch).
pub struct Args(Vec<(&'static str, String)>);

impl Spec {
    /// Parses `argv` (the words after the subcommand).  Flags may come
    /// anywhere; positionals fill the spec's names in order.  `Ok(None)`
    /// means `--help` (or `-h`) was given.
    ///
    /// # Errors
    ///
    /// What is wrong, for a flag the spec does not take, a flag given
    /// twice, a value that is missing or given to a switch, or more
    /// positionals than the spec names.
    pub fn parse(&self, argv: &[String]) -> Result<Option<Args>, String> {
        if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
            return Ok(None);
        }
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut positionals = self.positionals.iter();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let (name, value) = if word.starts_with("--") {
                let (flag, inline) = match word.split_once('=') {
                    Some((flag, value)) => (flag, Some(value.to_string())),
                    None => (word.as_str(), None),
                };
                if let Some(&name) = self.options.iter().find(|&&o| o == flag) {
                    let value = match inline {
                        Some(value) => value,
                        None => words
                            .next()
                            .filter(|next| !next.starts_with("--"))
                            .ok_or_else(|| format!("{name} needs a value"))?
                            .clone(),
                    };
                    (name, value)
                } else if let Some(&name) = self.switches.iter().find(|&&s| s == flag) {
                    if inline.is_some() {
                        return Err(format!("{name} takes no value"));
                    }
                    (name, String::new())
                } else {
                    return Err(format!("unknown flag {flag}"));
                }
            } else {
                let &name = positionals
                    .next()
                    .ok_or_else(|| format!("unexpected argument `{word}`"))?;
                (name, word.clone())
            };
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("{name} given twice"));
            }
            given.push((name, value));
        }
        Ok(Some(Args(given)))
    }
}

impl Args {
    /// The text given for the flag or positional `name`.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, value)| value.as_str())
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// The value given for the flag or positional `name`, parsed.
    ///
    /// # Errors
    ///
    /// What is wrong with a value that does not parse as a `T`.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.raw(name)
            .map(|value| {
                value
                    .parse()
                    .map_err(|err| format!("bad {name} `{value}`: {err}"))
            })
            .transpose()
    }
}

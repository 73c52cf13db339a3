//! Shared directive-registry machinery and value parsers.
//!
//! Each simulated server owns a registry of [`DirectiveSpec`]s (name,
//! value type, default) but applies its *own* parsing and validation
//! discipline on top — that per-system discipline is precisely what
//! ConfErr measures, so the lenient and strict parsing helpers both
//! live here, clearly labelled. The simulators in `conferr-sut` and
//! the static linter in this crate call the very same functions,
//! which is what makes static verdicts sound by construction.

use std::borrow::Cow;
use std::fmt;

/// The value domain of a directive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueType {
    /// Integer with inclusive bounds.
    Int {
        /// Minimum accepted value.
        min: i64,
        /// Maximum accepted value.
        max: i64,
    },
    /// Byte size with `K`/`M`/`G` multiplier suffixes and inclusive
    /// bounds (in bytes).
    Size {
        /// Minimum accepted size in bytes.
        min: u64,
        /// Maximum accepted size in bytes.
        max: u64,
    },
    /// Floating-point with inclusive bounds.
    Float {
        /// Minimum accepted value.
        min: f64,
        /// Maximum accepted value.
        max: f64,
    },
    /// Boolean.
    Bool,
    /// One of a fixed set of keywords (case-insensitive).
    Enum(&'static [&'static str]),
    /// Free-form text (paths, host names, quoted strings, ...).
    Text,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int { min, max } => write!(f, "integer [{min}, {max}]"),
            ValueType::Size { min, max } => write!(f, "size [{min}B, {max}B]"),
            ValueType::Float { min, max } => write!(f, "float [{min}, {max}]"),
            ValueType::Bool => f.write_str("boolean"),
            ValueType::Enum(options) => write!(f, "one of {options:?}"),
            ValueType::Text => f.write_str("text"),
        }
    }
}

/// One directive a server understands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectiveSpec {
    /// Canonical directive name.
    pub name: &'static str,
    /// Value domain.
    pub vtype: ValueType,
    /// Default value used when the directive is absent (or, for
    /// lenient servers, when the supplied value is unusable).
    pub default: &'static str,
}

impl DirectiveSpec {
    /// Shorthand constructor.
    pub const fn new(name: &'static str, vtype: ValueType, default: &'static str) -> Self {
        DirectiveSpec {
            name,
            vtype,
            default,
        }
    }
}

/// The resolved values of one registry: a slot per [`DirectiveSpec`],
/// in registry order.
///
/// A validator clones a table of defaults built once and overwrites
/// the slots its configuration sets, so its cost follows the
/// configuration's directives, not the registry's size. Defaults and
/// keywords stay borrowed; only values taken from the configuration
/// are owned. Two tables are equal when every slot holds the same
/// value; compare tables of one registry only.
#[derive(Clone)]
pub struct RegistryValues {
    registry: &'static [DirectiveSpec],
    values: Vec<Cow<'static, str>>,
}

impl RegistryValues {
    /// A table holding `values`, in `registry` order.
    pub(crate) fn new(
        registry: &'static [DirectiveSpec],
        values: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        let values: Vec<Cow<'static, str>> = values.into_iter().map(Cow::Borrowed).collect();
        debug_assert_eq!(values.len(), registry.len());
        RegistryValues { registry, values }
    }

    /// Sets the value of the registry's `index`-th directive.
    pub(crate) fn set(&mut self, index: usize, value: Cow<'static, str>) {
        self.values[index] = value;
    }

    /// The value of the directive with canonical name `name`, or
    /// `None` when the registry has no such directive.
    pub fn get(&self, name: &str) -> Option<&str> {
        let index = self.registry.iter().position(|s| s.name == name)?;
        Some(&self.values[index])
    }
}

impl PartialEq for RegistryValues {
    fn eq(&self, other: &Self) -> bool {
        // Slots still at their default borrow the same string, so most
        // compare by address.
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| std::ptr::eq::<str>(a.as_ref(), b.as_ref()) || a == b)
    }
}

impl fmt::Debug for RegistryValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.registry.iter().map(|s| s.name);
        f.debug_map().entries(names.zip(&self.values)).finish()
    }
}

/// Strict full-string integer parse (sign allowed).
pub fn parse_int_strict(s: &str) -> Option<i64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    t.parse::<i64>().ok()
}

/// Strict size parse: an integer followed by *exactly* one optional
/// multiplier suffix consuming the whole string (Postgres-style, with
/// `kB`/`MB`/`GB` spellings accepted case-insensitively alongside
/// bare `K`/`M`/`G`).
pub fn parse_size_strict(s: &str) -> Option<u64> {
    let t = s.trim();
    let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    let value: u64 = digits.parse().ok()?;
    let suffix = &t[digits.len()..];
    let multiplier = match suffix.to_ascii_lowercase().as_str() {
        "" => 1,
        "k" | "kb" => 1024,
        "m" | "mb" => 1024 * 1024,
        "g" | "gb" => 1024 * 1024 * 1024,
        _ => return None,
    };
    value.checked_mul(multiplier)
}

/// Result of MySQL's quirky size parsing — see [`parse_size_mysql`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MySqlParse {
    /// A value was produced (possibly ignoring trailing junk).
    Value(u64),
    /// The value is invalid in a way MySQL *silently* absorbs,
    /// substituting the default (the paper's flaw cases).
    SilentDefault,
    /// The value is invalid in a way MySQL reports at startup.
    Invalid,
}

/// MySQL's lenient size parse (paper §5.2): consume leading digits,
/// then **stop at the first multiplier symbol**, ignoring anything
/// after it — `"1M0"` parses as one megabyte. Values that *start*
/// with a multiplier are "silently ignored and defaults are used
/// instead"; any other malformed value (unknown suffix, no digits) is
/// rejected with a startup error, as the real option parser does.
pub fn parse_size_mysql(s: &str) -> MySqlParse {
    let t = s.trim();
    let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        // The documented flaw: a value *starting* with a multiplier
        // suffix is silently replaced by the default.
        return match t.chars().next().map(|c| c.to_ascii_lowercase()) {
            Some('k' | 'm' | 'g') => MySqlParse::SilentDefault,
            _ => MySqlParse::Invalid,
        };
    }
    let Ok(value) = digits.parse::<u64>() else {
        return MySqlParse::Invalid;
    };
    match t[digits.len()..].chars().next() {
        // Plain number.
        None => MySqlParse::Value(value),
        Some(c) => match c.to_ascii_lowercase() {
            // The documented flaw: parsing stops after the first
            // multiplier symbol, accepting values like "1M0".
            'k' => mul(value, 1024),
            'm' => mul(value, 1024 * 1024),
            'g' => mul(value, 1024 * 1024 * 1024),
            _ => MySqlParse::Invalid,
        },
    }
}

fn mul(value: u64, multiplier: u64) -> MySqlParse {
    match value.checked_mul(multiplier) {
        Some(v) => MySqlParse::Value(v),
        None => MySqlParse::Invalid,
    }
}

/// MySQL boolean spellings.
pub fn parse_bool_mysql(s: &str) -> Option<bool> {
    match s.trim().to_ascii_uppercase().as_str() {
        "1" | "ON" | "TRUE" | "YES" => Some(true),
        "0" | "OFF" | "FALSE" | "NO" => Some(false),
        _ => None,
    }
}

/// Postgres boolean spellings.
pub fn parse_bool_pg(s: &str) -> Option<bool> {
    let t = s.trim().trim_matches('\'');
    match t.to_ascii_lowercase().as_str() {
        "on" | "true" | "yes" | "1" => Some(true),
        "off" | "false" | "no" | "0" => Some(false),
        _ => None,
    }
}

/// Resolves `name` against a registry accepting unambiguous
/// *prefixes* (MySQL's truncatable option names, Table 2). Returns
/// the index of the matching entry; an exact name wins over longer
/// names it prefixes. Only an ambiguity allocates, to list its
/// candidates.
///
/// # Errors
///
/// [`PrefixError::Unknown`] when nothing matches,
/// [`PrefixError::Ambiguous`] when several entries share the prefix.
pub fn resolve_prefix<'a>(
    registry: impl Iterator<Item = &'a str> + Clone,
    name: &str,
) -> Result<usize, PrefixError> {
    let mut first = None;
    let mut matches = 0usize;
    for (i, candidate) in registry.clone().enumerate() {
        if candidate == name {
            return Ok(i);
        }
        if candidate.starts_with(name) {
            first.get_or_insert(i);
            matches += 1;
        }
    }
    match (first, matches) {
        (None, _) => Err(PrefixError::Unknown),
        (Some(i), 1) => Ok(i),
        _ => Err(PrefixError::Ambiguous {
            candidates: registry
                .filter(|c| c.starts_with(name))
                .map(str::to_string)
                .collect(),
        }),
    }
}

/// Why prefix resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// No registry entry starts with the name.
    Unknown,
    /// More than one registry entry starts with the name.
    Ambiguous {
        /// The colliding candidates.
        candidates: Vec<String>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_int_rejects_garbage() {
        assert_eq!(parse_int_strict("100"), Some(100));
        assert_eq!(parse_int_strict(" -5 "), Some(-5));
        assert_eq!(parse_int_strict("33o6"), None);
        assert_eq!(parse_int_strict(""), None);
    }

    #[test]
    fn strict_size_requires_full_match() {
        assert_eq!(parse_size_strict("16M"), Some(16 << 20));
        assert_eq!(parse_size_strict("8kB"), Some(8 * 1024));
        assert_eq!(parse_size_strict("2GB"), Some(2 << 30));
        assert_eq!(parse_size_strict("1M0"), None, "trailing junk must fail");
        assert_eq!(parse_size_strict("M10"), None);
    }

    #[test]
    fn mysql_size_reproduces_the_paper_flaw() {
        // "a value like 1M0 is accepted as valid" (§5.2).
        assert_eq!(parse_size_mysql("1M0"), MySqlParse::Value(1 << 20));
        // "values that start with one of the mentioned suffixes ...
        // are silently ignored" — the default is substituted.
        assert_eq!(parse_size_mysql("M10"), MySqlParse::SilentDefault);
        assert_eq!(parse_size_mysql("16M"), MySqlParse::Value(16 << 20));
        // Other malformations are reported at startup.
        assert_eq!(parse_size_mysql("16Q"), MySqlParse::Invalid);
        assert_eq!(parse_size_mysql("abc"), MySqlParse::Invalid);
        assert_eq!(parse_size_mysql(""), MySqlParse::Invalid);
    }

    #[test]
    fn bool_spellings() {
        assert_eq!(parse_bool_mysql("ON"), Some(true));
        assert_eq!(parse_bool_mysql("0"), Some(false));
        assert_eq!(parse_bool_mysql("o"), None);
        assert_eq!(parse_bool_pg("off"), Some(false));
        assert_eq!(parse_bool_pg("'on'"), Some(true));
        assert_eq!(parse_bool_pg("of"), None);
    }

    #[test]
    fn prefix_resolution() {
        let names = ["max_connections", "max_allowed_packet", "port"];
        let resolve = |name| resolve_prefix(names.into_iter(), name).map(|i| names[i]);
        assert_eq!(resolve("port"), Ok("port"));
        assert_eq!(resolve("max_connect"), Ok("max_connections"));
        assert_eq!(resolve("nope"), Err(PrefixError::Unknown));
        assert!(matches!(
            resolve("max_"),
            Err(PrefixError::Ambiguous { .. })
        ));
    }

    #[test]
    fn exact_match_beats_prefix_ambiguity() {
        let names = ["port", "port_open_timeout"];
        assert_eq!(
            resolve_prefix(names.into_iter(), "port").map(|i| names[i]),
            Ok("port")
        );
    }

    #[test]
    fn value_type_display() {
        assert_eq!(ValueType::Bool.to_string(), "boolean");
        assert!(ValueType::Int { min: 0, max: 9 }
            .to_string()
            .contains("[0, 9]"));
    }
}

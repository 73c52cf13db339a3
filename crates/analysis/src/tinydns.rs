//! djbdns (tinydns) dialect model, extracted from the simulator.
//!
//! `tinydns-data` checks syntax only: unknown record-type prefixes
//! and malformed IPv4 addresses abort the data compile, while
//! cross-record consistency is deliberately unchecked (the paper's
//! Table 3 point). The check functions here are shared verbatim with
//! `conferr-sut`'s `DjbdnsSim`, and the fingerprint captures the
//! loaded record semantics: the ordered `(type, payload)` line
//! sequence, which fully determines the zone store.

use conferr_formats::tinydns_fields;
use conferr_tree::Node;

use crate::verdict::{ValidationClass, Violation};

/// Record-type prefixes whose lines carry an IPv4 address in field 1
/// that must parse (for `@`, `.`, `&` only when non-empty).
pub const IP_CHECKED_TYPES: &[&str] = &["=", "+", "@", ".", "&"];

/// Record-type prefixes `tinydns-data` accepts without further
/// syntax checks.
pub const UNCHECKED_TYPES: &[&str] = &["^", "C", "'", "Z", "%", "-", ":", "3", "6"];

/// Validates one IPv4 address the way `tinydns-data` does.
///
/// # Errors
///
/// A [`Violation`] carrying the verbatim fatal diagnostic.
pub fn check_ip(ip: &str, line_no: usize) -> Result<(), Violation> {
    let octets: Vec<&str> = ip.split('.').collect();
    let valid = octets.len() == 4 && octets.iter().all(|o| o.parse::<u8>().is_ok());
    if valid {
        Ok(())
    } else {
        Err(Violation::new(
            ip,
            ValidationClass::InvalidValue,
            format!(
                "tinydns-data: fatal: unable to parse data line {line_no}: bad IP address '{ip}'"
            ),
        ))
    }
}

/// Validates one data line's syntax, exactly as the loader does
/// before expanding it into records.
///
/// # Errors
///
/// A [`Violation`] carrying the verbatim fatal diagnostic.
pub fn check_line(ty: &str, payload: &str, line_no: usize) -> Result<(), Violation> {
    let fields = tinydns_fields(payload);
    let f = |i: usize| fields.get(i).copied().unwrap_or("");
    match ty {
        "=" | "+" => check_ip(f(1), line_no),
        "@" | "." | "&" => {
            if f(1).is_empty() {
                Ok(())
            } else {
                check_ip(f(1), line_no)
            }
        }
        "^" | "C" | "'" | "Z" | "%" | "-" | ":" | "3" | "6" => Ok(()),
        other => Err(Violation::new(
            other,
            ValidationClass::UnknownDirective,
            format!(
                "tinydns-data: fatal: unable to parse data line {line_no}: unknown \
                 leading character '{other}'"
            ),
        )),
    }
}

/// Validates every line of a parsed data file, in file order. Line
/// numbers count *all* root children (comments and blanks included),
/// matching the loader's numbering.
///
/// # Errors
///
/// The first fatal [`Violation`].
pub fn check_file(root: &Node) -> Result<(), Violation> {
    for (i, node) in root.children().iter().enumerate() {
        if node.kind() != "line" {
            continue;
        }
        let ty = node.attr("type").unwrap_or("");
        check_line(ty, node.text().unwrap_or(""), i + 1)?;
    }
    Ok(())
}

/// The semantic fingerprint the linter compares against the
/// baseline's with `==`: the ordered `(type, payload)` sequence of
/// data lines, which fully determines the loaded zone store (comments
/// and blank lines load nothing).
///
/// # Errors
///
/// The first fatal [`Violation`], when the syntax check fails.
pub fn fingerprint(root: &Node) -> Result<Vec<(String, String)>, Violation> {
    check_file(root)?;
    Ok(root
        .children_of_kind("line")
        .map(|n| {
            let ty = n.attr("type").unwrap_or("");
            (ty.to_string(), n.text().unwrap_or("").to_string())
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_formats::{ConfigFormat, TinyDnsFormat};
    use conferr_tree::ConfTree;

    fn parse(text: &str) -> ConfTree {
        TinyDnsFormat::new().parse(text).expect("fixture parses")
    }

    #[test]
    fn bad_ip_is_fatal_with_line_number() {
        let tree = parse("# comment\n=www.example.com:192.O.2.10:86400\n");
        let err = check_file(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::InvalidValue);
        assert_eq!(
            err.message,
            "tinydns-data: fatal: unable to parse data line 2: bad IP address '192.O.2.10'"
        );
    }

    #[test]
    fn unknown_prefix_is_fatal() {
        // The format parser already rejects unknown prefixes, so this
        // arm is only reachable through attribute edits on parsed
        // trees; exercise the checker directly.
        let err = check_line("!", "bogus:line", 1).unwrap_err();
        assert_eq!(err.class, ValidationClass::UnknownDirective);
        assert!(err.message.contains("unknown leading character '!'"));
    }

    #[test]
    fn empty_ip_on_mx_and_ns_lines_is_accepted() {
        let tree = parse("@example.com::mail.example.com:10:86400\n");
        assert!(check_file(tree.root()).is_ok());
    }

    #[test]
    fn fingerprint_ignores_comment_churn_but_sees_record_changes() {
        let a = parse("# one\n=www.example.com:192.0.2.10:86400\n");
        let b = parse("# two\n=www.example.com:192.0.2.10:86400\n");
        assert_eq!(
            fingerprint(a.root()).unwrap(),
            fingerprint(b.root()).unwrap()
        );
        let c = parse("=www.example.com:192.0.2.11:86400\n");
        assert_ne!(
            fingerprint(a.root()).unwrap(),
            fingerprint(c.root()).unwrap()
        );
    }
}

//! tinydns-data files, as consumed by djbdns.
//!
//! Each data line starts with a one-character record type followed by
//! colon-separated fields. The types relevant to the paper's case
//! study (§5.4):
//!
//! | Prefix | Meaning |
//! |--------|---------|
//! | `=`    | A record **plus** the matching PTR record (the combined directive that makes certain faults inexpressible) |
//! | `+`    | A record only |
//! | `^`    | PTR record only |
//! | `C`    | CNAME |
//! | `@`    | MX (plus A for the exchanger when an IP is given) |
//! | `.`    | NS + SOA + A for the name server |
//! | `&`    | NS + A (delegation) |
//! | `'`    | TXT |
//! | `Z`    | explicit SOA |
//! | `%`    | client-location line |
//! | `-`    | ignored (disabled) line |
//!
//! Tree schema produced by [`TinyDnsFormat`]:
//!
//! ```text
//! data(format=tinydns, final_newline=yes|no)
//! ├── line(type="=") = "www.example.com:192.0.2.10:86400"
//! ├── line(type="C") = "ftp.example.com:www.example.com:86400"
//! ├── comment = "# note"
//! └── blank
//! ```
//!
//! Lines split at `\n` only. A data line ending in `\r` (a CRLF file)
//! keeps that `\r` in a `trailing="\r"` attribute, out of its fields;
//! comments and blank lines keep it in their text.

use conferr_tree::{ConfTree, Node};

use crate::{ConfigFormat, ParseError, SerializeError};

/// Parser/serializer for tinydns-data files.
#[derive(Debug, Clone, Copy, Default)]
pub struct TinyDnsFormat {
    _priv: (),
}

impl TinyDnsFormat {
    /// Creates the format.
    pub fn new() -> Self {
        TinyDnsFormat { _priv: () }
    }
}

const FORMAT: &str = "tinydns";

/// Record-type prefixes accepted in tinydns-data files.
pub const KNOWN_PREFIXES: &[char] = &[
    '=', '+', '^', 'C', '@', '.', '&', '\'', 'Z', '%', '-', ':', '3', '6',
];

impl ConfigFormat for TinyDnsFormat {
    fn name(&self) -> &str {
        FORMAT
    }

    fn parse(&self, input: &str) -> Result<ConfTree, ParseError> {
        let mut root = Node::new("data").with_attr("format", FORMAT);
        if !input.is_empty() && !input.ends_with('\n') {
            root.set_attr("final_newline", "no");
        }
        for (lineno, line) in input.split_terminator('\n').enumerate() {
            let lineno = lineno + 1;
            if line.trim().is_empty() {
                root.push_child(Node::new("blank").with_text(line));
            } else if line.starts_with('#') {
                root.push_child(Node::new("comment").with_text(line));
            } else {
                let ty = line.chars().next().expect("non-empty line");
                if !KNOWN_PREFIXES.contains(&ty) {
                    return Err(ParseError::at_line(
                        FORMAT,
                        lineno,
                        format!("unknown record-type prefix {ty:?}"),
                    ));
                }
                // A CRLF line's `\r` is no part of the last field.
                let payload = &line[ty.len_utf8()..];
                let fields = payload.strip_suffix('\r').unwrap_or(payload);
                let mut node = Node::new("line")
                    .with_attr("type", ty.to_string())
                    .with_text(fields);
                if fields.len() < payload.len() {
                    node.set_attr("trailing", "\r");
                }
                root.push_child(node);
            }
        }
        Ok(ConfTree::new(root))
    }

    fn serialize(&self, tree: &ConfTree) -> Result<String, SerializeError> {
        let root = tree.root();
        let mut out = String::new();
        for child in root.children() {
            match child.kind() {
                "comment" | "blank" => out.push_str(child.text().unwrap_or("")),
                "line" => {
                    let ty = child.attr("type").ok_or_else(|| {
                        SerializeError::new(FORMAT, "line node missing its type attribute")
                    })?;
                    if ty.chars().count() != 1
                        || !KNOWN_PREFIXES.contains(&ty.chars().next().expect("non-empty"))
                    {
                        return Err(SerializeError::new(
                            FORMAT,
                            format!("invalid record-type prefix {ty:?}"),
                        ));
                    }
                    out.push_str(ty);
                    out.push_str(child.text().unwrap_or(""));
                    out.push_str(child.attr("trailing").unwrap_or(""));
                }
                other => {
                    return Err(SerializeError::new(
                        FORMAT,
                        format!("node kind {other:?} cannot appear in a tinydns-data file"),
                    ))
                }
            }
            out.push('\n');
        }
        if root.attr("final_newline") == Some("no") && out.ends_with('\n') {
            out.pop();
        }
        Ok(out)
    }
}

/// Splits a tinydns line payload into its colon-separated fields.
pub fn fields(payload: &str) -> Vec<&str> {
    payload.split(':').collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# example.com data
.example.com:192.0.2.1:ns1.example.com:259200
=www.example.com:192.0.2.10:86400
+extra.example.com:192.0.2.11
@example.com:192.0.2.20:mail.example.com:10:86400
Cftp.example.com:www.example.com:86400
'example.com:v=spf1 -all:300

^9.2.0.192.in-addr.arpa:other.example.com:86400
";

    fn roundtrip(text: &str) {
        let fmt = TinyDnsFormat::new();
        let tree = fmt.parse(text).unwrap();
        assert_eq!(fmt.serialize(&tree).unwrap(), text, "round-trip failed");
    }

    #[test]
    fn round_trips_sample() {
        roundtrip(SAMPLE);
    }

    #[test]
    fn parses_types_and_payloads() {
        let fmt = TinyDnsFormat::new();
        let tree = fmt.parse(SAMPLE).unwrap();
        let lines: Vec<&Node> = tree.root().children_of_kind("line").collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(lines[1].attr("type"), Some("="));
        assert_eq!(lines[1].text(), Some("www.example.com:192.0.2.10:86400"));
        assert_eq!(lines[4].attr("type"), Some("C"));
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let err = TinyDnsFormat::new().parse("!bogus\n").unwrap_err();
        assert_eq!(err.line, Some(1));
    }

    #[test]
    fn fields_split_on_colons() {
        assert_eq!(
            fields("www.example.com:192.0.2.10:86400"),
            ["www.example.com", "192.0.2.10", "86400"]
        );
        assert_eq!(fields(""), [""]);
    }

    #[test]
    fn serialize_rejects_bad_type_attr() {
        let fmt = TinyDnsFormat::new();
        let tree = ConfTree::new(
            Node::new("data").with_child(Node::new("line").with_attr("type", "!").with_text("x")),
        );
        assert!(fmt.serialize(&tree).is_err());
        let tree = ConfTree::new(Node::new("data").with_child(Node::new("line").with_text("x")));
        assert!(fmt.serialize(&tree).is_err());
    }

    #[test]
    fn disabled_lines_round_trip() {
        roundtrip("-old.example.com:192.0.2.99\n");
    }

    #[test]
    fn final_newline_preserved() {
        roundtrip("=a.example.com:1.2.3.4");
    }

    #[test]
    fn round_trips_crlf_line_endings() {
        roundtrip("+www.example.com:192.0.2.10:86400\r\n");
        roundtrip(&SAMPLE.replace('\n', "\r\n"));
        let tree = TinyDnsFormat::new()
            .parse("+www.example.com:192.0.2.10:86400\r\n")
            .unwrap();
        let line = &tree.root().children()[0];
        assert_eq!(line.text(), Some("www.example.com:192.0.2.10:86400"));
        assert_eq!(fields(line.text().unwrap())[2], "86400");
    }
}

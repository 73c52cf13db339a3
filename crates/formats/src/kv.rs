//! Line-oriented `name = value` configuration files (Postgres style).
//!
//! Tree schema produced by [`KvFormat`]:
//!
//! ```text
//! config(format=kv, final_newline=yes|no)
//! ├── directive(name=..., indent=..., sep=..., trailing=...) = "value"
//! ├── comment = "# full line"
//! └── blank = "   "
//! ```
//!
//! `sep` is the raw separator between name and value (`" = "`, `"="`,
//! `" "`); `trailing` is everything after the value (trailing spaces
//! and inline `#` comments). Values may be single-quoted; `#` inside
//! quotes does not start a comment.

use conferr_tree::{ConfTree, Node};

use crate::{parses_alone, ConfigFormat, ParseError, SerializeError};

/// Parser/serializer for Postgres-style key-value files.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvFormat {
    _priv: (),
}

impl KvFormat {
    /// Creates the format.
    pub fn new() -> Self {
        KvFormat { _priv: () }
    }
}

const FORMAT: &str = "kv";

impl ConfigFormat for KvFormat {
    fn name(&self) -> &str {
        FORMAT
    }

    fn parse(&self, input: &str) -> Result<ConfTree, ParseError> {
        let mut root = Node::new("config").with_attr("format", FORMAT);
        if !input.is_empty() && !input.ends_with('\n') {
            root.set_attr("final_newline", "no");
        }
        for (lineno, line) in input.split_terminator('\n').enumerate() {
            root.push_child(parse_line(line, lineno + 1)?);
        }
        Ok(ConfTree::new(root))
    }

    fn serialize(&self, tree: &ConfTree) -> Result<String, SerializeError> {
        let root = tree.root();
        let mut out = String::new();
        for child in root.children() {
            match child.kind() {
                "directive" => {
                    out.push_str(child.attr("indent").unwrap_or(""));
                    out.push_str(child.attr("name").unwrap_or(""));
                    out.push_str(child.attr("sep").unwrap_or(""));
                    out.push_str(child.text().unwrap_or(""));
                    out.push_str(child.attr("trailing").unwrap_or(""));
                }
                "comment" | "blank" => out.push_str(child.text().unwrap_or("")),
                other => {
                    return Err(SerializeError::new(
                        FORMAT,
                        format!(
                            "node kind {other:?} has no representation in a flat key-value file \
                             (this format has no sections)"
                        ),
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

    fn parses_in_place(&self, node: &Node) -> bool {
        parses_alone(self, node)
    }
}

fn parse_line(line: &str, lineno: usize) -> Result<Node, ParseError> {
    let trimmed = line.trim_start();
    if trimmed.is_empty() {
        return Ok(Node::new("blank").with_text(line));
    }
    if trimmed.starts_with('#') {
        return Ok(Node::new("comment").with_text(line));
    }
    let indent_len = line.len() - trimmed.len();
    let indent = &line[..indent_len];
    let rest = &line[indent_len..];

    // Name: up to whitespace or '='.
    let name_end = rest
        .find(|c: char| c.is_whitespace() || c == '=')
        .unwrap_or(rest.len());
    let name = &rest[..name_end];
    if name.is_empty() {
        return Err(ParseError::at_line(
            FORMAT,
            lineno,
            "missing directive name",
        ));
    }
    let after_name = &rest[name_end..];

    // Separator: whitespace, optional '=', whitespace.
    let mut sep_end = 0;
    let bytes: Vec<char> = after_name.chars().collect();
    let mut saw_eq = false;
    for &c in &bytes {
        if c == '=' && !saw_eq {
            saw_eq = true;
            sep_end += c.len_utf8();
        } else if c.is_whitespace() {
            sep_end += c.len_utf8();
        } else {
            break;
        }
    }
    let sep = &after_name[..sep_end];
    let value_part = &after_name[sep_end..];

    // Value: scan respecting single quotes; '#' outside quotes starts
    // the inline comment.
    let mut value_end = value_part.len();
    let mut in_quote = false;
    for (i, c) in value_part.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            '#' if !in_quote => {
                value_end = i;
                break;
            }
            _ => {}
        }
    }
    let raw_value = &value_part[..value_end];
    let comment_part = &value_part[value_end..];
    let value_trimmed = raw_value.trim_end();
    let trailing_ws = &raw_value[value_trimmed.len()..];
    let trailing = format!("{trailing_ws}{comment_part}");

    Ok(Node::new("directive")
        .with_attr("name", name)
        .with_attr("indent", indent)
        .with_attr("sep", sep)
        .with_attr("trailing", trailing)
        .with_text(value_trimmed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) {
        let fmt = KvFormat::new();
        let tree = fmt.parse(text).unwrap();
        assert_eq!(fmt.serialize(&tree).unwrap(), text, "round-trip failed");
    }

    #[test]
    fn parses_simple_directives() {
        let fmt = KvFormat::new();
        let tree = fmt.parse("port = 5432\nmax_connections=100\n").unwrap();
        let dirs: Vec<&Node> = tree.root().children_of_kind("directive").collect();
        assert_eq!(dirs.len(), 2);
        assert_eq!(dirs[0].attr("name"), Some("port"));
        assert_eq!(dirs[0].text(), Some("5432"));
        assert_eq!(dirs[0].attr("sep"), Some(" = "));
        assert_eq!(dirs[1].attr("sep"), Some("="));
    }

    #[test]
    fn round_trips_comments_blanks_and_inline_comments() {
        roundtrip("# header\n\nport = 5432   # the port\n  indented = 1\n");
    }

    #[test]
    fn round_trips_missing_final_newline() {
        roundtrip("a = 1\nb = 2");
        roundtrip("");
    }

    #[test]
    fn quoted_values_keep_hashes() {
        let fmt = KvFormat::new();
        let text = "log_line_prefix = '%t # %u'  # fmt\n";
        let tree = fmt.parse(text).unwrap();
        let d = tree.root().first_child_of_kind("directive").unwrap();
        assert_eq!(d.text(), Some("'%t # %u'"));
        assert_eq!(d.attr("trailing"), Some("  # fmt"));
        assert_eq!(fmt.serialize(&tree).unwrap(), text);
    }

    #[test]
    fn bare_directive_has_empty_value() {
        let fmt = KvFormat::new();
        let tree = fmt.parse("autovacuum\n").unwrap();
        let d = tree.root().first_child_of_kind("directive").unwrap();
        assert_eq!(d.attr("name"), Some("autovacuum"));
        assert_eq!(d.text(), Some(""));
        assert_eq!(fmt.serialize(&tree).unwrap(), "autovacuum\n");
    }

    #[test]
    fn space_separated_value() {
        let fmt = KvFormat::new();
        let tree = fmt.parse("port 5432\n").unwrap();
        let d = tree.root().first_child_of_kind("directive").unwrap();
        assert_eq!(d.attr("sep"), Some(" "));
        assert_eq!(d.text(), Some("5432"));
    }

    #[test]
    fn sections_are_inexpressible() {
        let fmt = KvFormat::new();
        let tree = ConfTree::new(
            Node::new("config").with_child(Node::new("section").with_attr("name", "x")),
        );
        let err = fmt.serialize(&tree).unwrap_err();
        assert!(err.to_string().contains("no sections"));
    }

    #[test]
    fn value_with_equals_inside() {
        let fmt = KvFormat::new();
        let text = "search_path = 'a=b'\n";
        let tree = fmt.parse(text).unwrap();
        let d = tree.root().first_child_of_kind("directive").unwrap();
        assert_eq!(d.text(), Some("'a=b'"));
        assert_eq!(fmt.serialize(&tree).unwrap(), text);
    }

    #[test]
    fn round_trips_crlf_line_endings() {
        roundtrip("# header\r\nport = 5432\r\n\r\nautovacuum\r\n");
        let tree = KvFormat::new().parse("port = 5432\r\n").unwrap();
        let d = tree.root().first_child_of_kind("directive").unwrap();
        assert_eq!(d.text(), Some("5432"));
        assert_eq!(d.attr("trailing"), Some("\r"));
    }

    #[test]
    fn parses_in_place_approves_whole_lines_only() {
        let fmt = KvFormat::new();
        let tree = fmt
            .parse("port = 5432\n# note\n\t\nlisten = '*'  # all\n")
            .unwrap();
        for node in tree.root().children() {
            assert!(fmt.parses_in_place(node), "{node:?}");
        }
        let port = &tree.root().children()[0];
        let mut split = port.clone();
        split.set_text(Some("54\n32".to_string()));
        assert!(!fmt.parses_in_place(&split));
        let mut commented = port.clone();
        commented.set_attr("name", "#port");
        assert!(!fmt.parses_in_place(&commented));
    }
}

//! INI-style configuration files (MySQL `my.cnf` style).
//!
//! Tree schema produced by [`IniFormat`]:
//!
//! ```text
//! config(format=ini, final_newline=yes|no)
//! ├── comment = "# prologue"
//! ├── section(name=mysqld, indent=..., trailing=...)
//! │   ├── directive(name=port, indent=..., sep==, trailing=...) = "3306"
//! │   ├── directive(name=skip-networking, bare=yes)          # no value
//! │   ├── comment = "; note"
//! │   └── blank
//! └── section(name=mysqldump, ...)
//! ```
//!
//! Both `#` and `;` start comments. A directive without `=` is a
//! *bare* directive (`bare=yes`, no text). Directives appearing before
//! any section header live directly under `config`.

use conferr_tree::{ConfTree, Node};

use crate::{parses_alone, ConfigFormat, ParseError, SerializeError};

/// Parser/serializer for MySQL-style INI files.
#[derive(Debug, Clone, Copy, Default)]
pub struct IniFormat {
    _priv: (),
}

impl IniFormat {
    /// Creates the format.
    pub fn new() -> Self {
        IniFormat { _priv: () }
    }
}

const FORMAT: &str = "ini";

impl ConfigFormat for IniFormat {
    fn name(&self) -> &str {
        FORMAT
    }

    fn parse(&self, input: &str) -> Result<ConfTree, ParseError> {
        let mut root = Node::new("config").with_attr("format", FORMAT);
        if !input.is_empty() && !input.ends_with('\n') {
            root.set_attr("final_newline", "no");
        }
        let mut current_section: Option<Node> = None;
        for (lineno, line) in input.split_terminator('\n').enumerate() {
            let lineno = lineno + 1;
            let trimmed = line.trim_start();
            let node = if trimmed.is_empty() {
                Node::new("blank").with_text(line)
            } else if trimmed.starts_with('#') || trimmed.starts_with(';') {
                Node::new("comment").with_text(line)
            } else if trimmed.starts_with('[') {
                // New section header: flush the previous section.
                if let Some(sec) = current_section.take() {
                    root.push_child(sec);
                }
                let indent = &line[..line.len() - trimmed.len()];
                let close = trimmed.find(']').ok_or_else(|| {
                    ParseError::at_line(FORMAT, lineno, "section header missing ']'")
                })?;
                let name = &trimmed[1..close];
                if name.is_empty() {
                    return Err(ParseError::at_line(FORMAT, lineno, "empty section name"));
                }
                let trailing = &trimmed[close + 1..];
                current_section = Some(
                    Node::new("section")
                        .with_attr("name", name)
                        .with_attr("indent", indent)
                        .with_attr("trailing", trailing),
                );
                continue;
            } else {
                parse_directive(line, trimmed)
            };
            match &mut current_section {
                Some(sec) => sec.push_child(node),
                None => root.push_child(node),
            }
        }
        if let Some(sec) = current_section.take() {
            root.push_child(sec);
        }
        Ok(ConfTree::new(root))
    }

    fn serialize(&self, tree: &ConfTree) -> Result<String, SerializeError> {
        let root = tree.root();
        let mut out = String::new();
        for child in root.children() {
            match child.kind() {
                "section" => serialize_section(child, &mut out)?,
                other => serialize_line(child, other, &mut out)?,
            }
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

fn parse_directive(line: &str, trimmed: &str) -> Node {
    let indent = &line[..line.len() - trimmed.len()];
    match trimmed.find('=') {
        Some(eq) => {
            let name_part = &trimmed[..eq];
            let name = name_part.trim_end();
            let ws_before = &name_part[name.len()..];
            let after = &trimmed[eq + 1..];
            // Inline comments: '#' after the value.
            let mut value_end = after.len();
            let mut in_quote: Option<char> = None;
            for (i, c) in after.char_indices() {
                match (c, in_quote) {
                    ('"' | '\'', None) => in_quote = Some(c),
                    (c2, Some(q)) if c2 == q => in_quote = None,
                    ('#', None) => {
                        value_end = i;
                        break;
                    }
                    _ => {}
                }
            }
            let raw_value = &after[..value_end];
            let comment = &after[value_end..];
            let value = raw_value.trim();
            let lead_ws_len = raw_value.len() - raw_value.trim_start().len();
            let lead_ws = &raw_value[..lead_ws_len];
            let trail_ws = &raw_value[lead_ws_len + value.len()..];
            Node::new("directive")
                .with_attr("name", name)
                .with_attr("indent", indent)
                .with_attr("sep", format!("{ws_before}={lead_ws}"))
                .with_attr("trailing", format!("{trail_ws}{comment}"))
                .with_text(value)
        }
        None => {
            let name = trimmed.trim_end();
            let trailing = &trimmed[name.len()..];
            Node::new("directive")
                .with_attr("name", name)
                .with_attr("indent", indent)
                .with_attr("bare", "yes")
                .with_attr("trailing", trailing)
        }
    }
}

fn serialize_line(node: &Node, kind: &str, out: &mut String) -> Result<(), SerializeError> {
    match kind {
        "directive" => {
            out.push_str(node.attr("indent").unwrap_or(""));
            out.push_str(node.attr("name").unwrap_or(""));
            if node.attr("bare") != Some("yes") {
                out.push_str(node.attr("sep").unwrap_or("="));
                out.push_str(node.text().unwrap_or(""));
            }
            out.push_str(node.attr("trailing").unwrap_or(""));
        }
        "comment" | "blank" => out.push_str(node.text().unwrap_or("")),
        other => {
            return Err(SerializeError::new(
                FORMAT,
                format!("node kind {other:?} cannot appear in an INI file"),
            ))
        }
    }
    out.push('\n');
    Ok(())
}

fn serialize_section(section: &Node, out: &mut String) -> Result<(), SerializeError> {
    out.push_str(section.attr("indent").unwrap_or(""));
    out.push('[');
    out.push_str(section.attr("name").unwrap_or(""));
    out.push(']');
    out.push_str(section.attr("trailing").unwrap_or(""));
    out.push('\n');
    for child in section.children() {
        if child.kind() == "section" {
            return Err(SerializeError::new(
                FORMAT,
                "INI files do not support nested sections",
            ));
        }
        serialize_line(child, child.kind(), out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) {
        let fmt = IniFormat::new();
        let tree = fmt.parse(text).unwrap();
        assert_eq!(fmt.serialize(&tree).unwrap(), text, "round-trip failed");
    }

    const SAMPLE: &str = "\
# MySQL sample
[mysqld]
port=3306
key_buffer_size = 16M
skip-external-locking

[mysqldump]
quick
max_allowed_packet=16M
";

    #[test]
    fn parses_sections_and_directives() {
        let fmt = IniFormat::new();
        let tree = fmt.parse(SAMPLE).unwrap();
        let sections: Vec<&Node> = tree.root().children_of_kind("section").collect();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].attr("name"), Some("mysqld"));
        let dirs: Vec<&Node> = sections[0].children_of_kind("directive").collect();
        assert_eq!(dirs.len(), 3);
        assert_eq!(dirs[1].attr("name"), Some("key_buffer_size"));
        assert_eq!(dirs[1].text(), Some("16M"));
        assert_eq!(dirs[2].attr("bare"), Some("yes"));
        assert_eq!(dirs[2].text(), None);
    }

    #[test]
    fn round_trips_sample() {
        roundtrip(SAMPLE);
    }

    #[test]
    fn round_trips_odd_spacing_and_semicolon_comments() {
        roundtrip("; note\n[a]\n  x =  1  # inline\ny= 2\nbare \n");
    }

    #[test]
    fn pre_section_directives_live_under_root() {
        let fmt = IniFormat::new();
        let tree = fmt.parse("global=1\n[s]\nx=2\n").unwrap();
        assert_eq!(tree.root().children()[0].attr("name"), Some("global"));
        roundtrip("global=1\n[s]\nx=2\n");
    }

    #[test]
    fn missing_bracket_is_an_error() {
        let fmt = IniFormat::new();
        let err = fmt.parse("[broken\n").unwrap_err();
        assert_eq!(err.line, Some(1));
    }

    #[test]
    fn empty_section_name_is_an_error() {
        assert!(IniFormat::new().parse("[]\n").is_err());
    }

    #[test]
    fn nested_sections_are_inexpressible() {
        let fmt = IniFormat::new();
        let tree = ConfTree::new(
            Node::new("config").with_child(
                Node::new("section")
                    .with_attr("name", "outer")
                    .with_child(Node::new("section").with_attr("name", "inner")),
            ),
        );
        let err = fmt.serialize(&tree).unwrap_err();
        assert!(err.to_string().contains("nested"));
    }

    #[test]
    fn quoted_value_with_hash_survives() {
        roundtrip("[s]\ninit_command='SET x=\"#1\"'\n");
        let fmt = IniFormat::new();
        let tree = fmt.parse("[s]\nv='a#b' # real comment\n").unwrap();
        let sec = tree.root().first_child_of_kind("section").unwrap();
        let d = sec.first_child_of_kind("directive").unwrap();
        assert_eq!(d.text(), Some("'a#b'"));
    }

    #[test]
    fn final_newline_preserved_when_absent() {
        roundtrip("[s]\nx=1");
    }

    #[test]
    fn round_trips_crlf_line_endings() {
        roundtrip("; note\r\n[mysqld]\r\nport=3306\r\nquick\r\n\r\n");
    }

    #[test]
    fn parses_in_place_approves_whole_lines_only() {
        let fmt = IniFormat::new();
        let tree = fmt.parse(SAMPLE).unwrap();
        for (_, node) in tree.iter().skip(1) {
            assert!(fmt.parses_in_place(node), "{node:?}");
        }
        let port = tree.root().children()[1].children()[0].clone();
        let mut split = port.clone();
        split.set_text(Some("33\n06".to_string()));
        assert!(!fmt.parses_in_place(&split));
        let mut commented = port.clone();
        commented.set_attr("name", "#port");
        assert!(!fmt.parses_in_place(&commented));
        // A leaf rendered as a section header.
        let mut header = port;
        header.set_attr("name", "[port]");
        assert!(!fmt.parses_in_place(&header));
        assert!(!fmt.parses_in_place(&Node::new("blank").with_text("[client]")));
    }
}

//! Apache httpd-style configuration files with nested sections.
//!
//! Tree schema produced by [`ApacheFormat`]:
//!
//! ```text
//! config(format=apache, final_newline=yes|no)
//! ├── directive(name=Listen, indent=..., sep=" ", trailing=...) = "80"
//! ├── comment = "# LoadModule ..."
//! ├── blank
//! └── section(name=VirtualHost, args="*:80", indent=..., trailing=...,
//! │           close_indent=..., close_trailing=...)
//! │   ├── directive(name=ServerName, ...) = "www.example.com"
//! │   └── section(name=Directory, args="/var/www", ...)   # nesting
//! ```
//!
//! A directive's text is the raw argument string after the directive
//! name (`sep` holds the whitespace between them); directives without
//! arguments have no text.

use conferr_tree::{ConfTree, Node};

use crate::{parses_alone, ConfigFormat, ParseError, SerializeError};

/// Parser/serializer for Apache httpd-style files.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApacheFormat {
    _priv: (),
}

impl ApacheFormat {
    /// Creates the format.
    pub fn new() -> Self {
        ApacheFormat { _priv: () }
    }
}

const FORMAT: &str = "apache";

impl ConfigFormat for ApacheFormat {
    fn name(&self) -> &str {
        FORMAT
    }

    fn parse(&self, input: &str) -> Result<ConfTree, ParseError> {
        let mut root = Node::new("config").with_attr("format", FORMAT);
        if !input.is_empty() && !input.ends_with('\n') {
            root.set_attr("final_newline", "no");
        }
        // Stack of open sections; the bottom is the root.
        let mut stack: Vec<Node> = vec![root];
        for (lineno, line) in input.split_terminator('\n').enumerate() {
            let lineno = lineno + 1;
            let trimmed = line.trim_start();
            let indent = &line[..line.len() - trimmed.len()];
            if trimmed.is_empty() {
                stack
                    .last_mut()
                    .expect("stack never empty")
                    .push_child(Node::new("blank").with_text(line));
            } else if trimmed.starts_with('#') {
                stack
                    .last_mut()
                    .expect("stack never empty")
                    .push_child(Node::new("comment").with_text(line));
            } else if let Some(rest) = trimmed.strip_prefix("</") {
                let close = rest.find('>').ok_or_else(|| {
                    ParseError::at_line(FORMAT, lineno, "closing tag missing '>'")
                })?;
                let name = rest[..close].trim();
                let trailing = &rest[close + 1..];
                if stack.len() == 1 {
                    return Err(ParseError::at_line(
                        FORMAT,
                        lineno,
                        format!("unexpected closing tag </{name}> with no open section"),
                    ));
                }
                let mut section = stack.pop().expect("checked len above");
                let open_name = section.attr("name").unwrap_or("").to_string();
                if !open_name.eq_ignore_ascii_case(name) {
                    return Err(ParseError::at_line(
                        FORMAT,
                        lineno,
                        format!("closing tag </{name}> does not match open section <{open_name}>"),
                    ));
                }
                section.set_attr("close_name", name);
                section.set_attr("close_indent", indent);
                section.set_attr("close_trailing", trailing);
                stack.last_mut().expect("non-empty").push_child(section);
            } else if let Some(rest) = trimmed.strip_prefix('<') {
                let close = rest.find('>').ok_or_else(|| {
                    ParseError::at_line(FORMAT, lineno, "section header missing '>'")
                })?;
                let header = &rest[..close];
                let trailing = &rest[close + 1..];
                let name_end = header.find(char::is_whitespace).unwrap_or(header.len());
                let name = &header[..name_end];
                if name.is_empty() {
                    return Err(ParseError::at_line(FORMAT, lineno, "empty section name"));
                }
                let args = header[name_end..].trim_start();
                let arg_sep = &header[name_end..header.len() - args.len()];
                stack.push(
                    Node::new("section")
                        .with_attr("name", name)
                        .with_attr("args", args)
                        .with_attr("arg_sep", arg_sep)
                        .with_attr("indent", indent)
                        .with_attr("trailing", trailing),
                );
            } else {
                stack
                    .last_mut()
                    .expect("non-empty")
                    .push_child(parse_directive(trimmed, indent));
            }
        }
        if stack.len() != 1 {
            let open = stack
                .last()
                .and_then(|s| s.attr("name"))
                .unwrap_or("?")
                .to_string();
            return Err(ParseError::new(
                FORMAT,
                format!("unclosed section <{open}> at end of file"),
            ));
        }
        Ok(ConfTree::new(stack.pop().expect("exactly the root")))
    }

    fn serialize(&self, tree: &ConfTree) -> Result<String, SerializeError> {
        let root = tree.root();
        let mut out = String::new();
        for child in root.children() {
            serialize_node(child, &mut out)?;
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

fn parse_directive(trimmed: &str, indent: &str) -> Node {
    let name_end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
    let name = &trimmed[..name_end];
    let after = &trimmed[name_end..];
    let args = after.trim_start();
    let sep = &after[..after.len() - args.len()];
    let args_trimmed = args.trim_end();
    let mut node = Node::new("directive")
        .with_attr("name", name)
        .with_attr("indent", indent);
    if args_trimmed.is_empty() {
        // No arguments: the entire tail (whitespace only) is trailing.
        node.set_attr("sep", "");
        node.set_attr("trailing", after);
    } else {
        node.set_attr("sep", sep);
        node.set_attr("trailing", &args[args_trimmed.len()..]);
        node.set_text(Some(args_trimmed.to_string()));
    }
    node
}

fn serialize_node(node: &Node, out: &mut String) -> Result<(), SerializeError> {
    match node.kind() {
        "directive" => {
            out.push_str(node.attr("indent").unwrap_or(""));
            out.push_str(node.attr("name").unwrap_or(""));
            if let Some(text) = node.text() {
                let sep = node.attr("sep").unwrap_or(" ");
                out.push_str(if sep.is_empty() { " " } else { sep });
                out.push_str(text);
            }
            out.push_str(node.attr("trailing").unwrap_or(""));
            out.push('\n');
        }
        "comment" | "blank" => {
            out.push_str(node.text().unwrap_or(""));
            out.push('\n');
        }
        "section" => {
            let name = node.attr("name").unwrap_or("");
            out.push_str(node.attr("indent").unwrap_or(""));
            out.push('<');
            out.push_str(name);
            let args = node.attr("args").unwrap_or("");
            match node.attr("arg_sep") {
                Some(sep) => out.push_str(sep),
                None if !args.is_empty() => out.push(' '),
                None => {}
            }
            out.push_str(args);
            out.push('>');
            out.push_str(node.attr("trailing").unwrap_or(""));
            out.push('\n');
            for child in node.children() {
                serialize_node(child, out)?;
            }
            out.push_str(node.attr("close_indent").unwrap_or(""));
            out.push_str("</");
            out.push_str(node.attr("close_name").unwrap_or(name));
            out.push('>');
            out.push_str(node.attr("close_trailing").unwrap_or(""));
            out.push('\n');
        }
        other => {
            return Err(SerializeError::new(
                FORMAT,
                format!("node kind {other:?} cannot appear in an Apache config"),
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Apache sample
Listen 80
ServerAdmin admin@example.com

<VirtualHost *:80>
    ServerName www.example.com
    DocumentRoot /var/www/html
    <Directory /var/www/html>
        Options Indexes FollowSymLinks
        AllowOverride None
    </Directory>
</VirtualHost>
";

    fn roundtrip(text: &str) {
        let fmt = ApacheFormat::new();
        let tree = fmt.parse(text).unwrap();
        assert_eq!(fmt.serialize(&tree).unwrap(), text, "round-trip failed");
    }

    #[test]
    fn parses_nested_sections() {
        let fmt = ApacheFormat::new();
        let tree = fmt.parse(SAMPLE).unwrap();
        let vhost = tree.root().first_child_of_kind("section").unwrap();
        assert_eq!(vhost.attr("name"), Some("VirtualHost"));
        assert_eq!(vhost.attr("args"), Some("*:80"));
        let dir = vhost.first_child_of_kind("section").unwrap();
        assert_eq!(dir.attr("name"), Some("Directory"));
        assert_eq!(dir.children_of_kind("directive").count(), 2);
    }

    #[test]
    fn round_trips_sample() {
        roundtrip(SAMPLE);
    }

    #[test]
    fn directive_args_are_raw_text() {
        let fmt = ApacheFormat::new();
        let tree = fmt.parse("AddType application/x-tar .tgz\n").unwrap();
        let d = tree.root().first_child_of_kind("directive").unwrap();
        assert_eq!(d.attr("name"), Some("AddType"));
        assert_eq!(d.text(), Some("application/x-tar .tgz"));
    }

    #[test]
    fn directive_without_args() {
        roundtrip("ClearModuleList\n");
        let fmt = ApacheFormat::new();
        let tree = fmt.parse("ClearModuleList\n").unwrap();
        let d = tree.root().first_child_of_kind("directive").unwrap();
        assert_eq!(d.text(), None);
    }

    #[test]
    fn mismatched_closing_tag_is_an_error() {
        let fmt = ApacheFormat::new();
        let err = fmt.parse("<VirtualHost *:80>\n</Directory>\n").unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn unclosed_section_is_an_error() {
        let fmt = ApacheFormat::new();
        let err = fmt.parse("<VirtualHost *:80>\nServerName x\n").unwrap_err();
        assert!(err.to_string().contains("unclosed"));
    }

    #[test]
    fn stray_closing_tag_is_an_error() {
        assert!(ApacheFormat::new().parse("</Directory>\n").is_err());
    }

    #[test]
    fn closing_tag_is_case_insensitive() {
        roundtrip("<IfModule mod_ssl.c>\nSSLEngine on\n</ifmodule>\n");
    }

    #[test]
    fn round_trips_trailing_whitespace_and_comments() {
        roundtrip("Listen 80   \n  # indented comment\n\t\n");
    }

    #[test]
    fn round_trips_crlf_line_endings() {
        roundtrip(
            "# c\r\nClearModuleList\r\n<Directory /x>\r\n  Options None\r\n</Directory>\r\n\r\n",
        );
    }

    #[test]
    fn parses_in_place_approves_whole_lines_only() {
        let fmt = ApacheFormat::new();
        let tree = fmt.parse(SAMPLE).unwrap();
        for (_, node) in tree.iter().skip(1) {
            assert!(fmt.parses_in_place(node), "{node:?}");
        }
        let listen = tree.root().children()[1].clone();
        let mut split = listen.clone();
        split.set_text(Some("80\n443".to_string()));
        assert!(!fmt.parses_in_place(&split));
        let mut commented = listen;
        commented.set_attr("name", "#Listen");
        assert!(!fmt.parses_in_place(&commented));
        // The close tag keeps the parsed name: a renamed section only
        // parses in place while the names still match.
        let vhost = tree.root().first_child_of_kind("section").unwrap();
        let mut renamed = vhost.clone();
        renamed.set_attr("name", "VirtualHosts");
        assert!(!fmt.parses_in_place(&renamed));
        renamed.set_attr("name", "virtualhost");
        assert!(fmt.parses_in_place(&renamed));
    }

    #[test]
    fn serializing_synthetic_section_without_layout_attrs() {
        // Sections built programmatically (e.g. by the structural error
        // plugin borrowing a foreign section) must still serialize.
        let fmt = ApacheFormat::new();
        let tree = ConfTree::new(
            Node::new("config").with_child(
                Node::new("section")
                    .with_attr("name", "Directory")
                    .with_attr("args", "/tmp")
                    .with_child(
                        Node::new("directive")
                            .with_attr("name", "Options")
                            .with_text("None"),
                    ),
            ),
        );
        let text = fmt.serialize(&tree).unwrap();
        assert_eq!(text, "<Directory /tmp>\nOptions None\n</Directory>\n");
        // And it parses back.
        fmt.parse(&text).unwrap();
    }
}

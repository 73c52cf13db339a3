//! Round-trip-faithful configuration parsers and serializers.
//!
//! # Architecture
//!
//! This crate is the *format layer* of the reproduction (paper §3.2):
//! in the workspace DAG
//! `tree → {keyboard, formats, model} → {plugins, sut} → core → bench`
//! it bridges between on-disk text and [`conferr_tree::ConfTree`],
//! serving both the campaign engine (which serializes mutated trees)
//! and the simulators in `conferr-sut` (which re-parse that text at
//! startup, exactly as the real systems would).
//!
//! ConfErr performs all mutations on abstract tree representations of
//! configuration files (paper §3.2). This crate supplies the
//! system-specific parsing/serialization plugins that bridge between
//! on-disk text and [`conferr_tree::ConfTree`]:
//!
//! | Format | Type | Used by | [Parses in place] |
//! |--------|------|---------|-------------------|
//! | [`KvFormat`] | line-oriented `name = value` | Postgres-style configs | yes |
//! | [`IniFormat`] | `[section]` + directives | MySQL-style configs | yes |
//! | [`ApacheFormat`] | directives + nested `<Section>` blocks | Apache httpd | yes |
//! | [`XmlFormat`] | generic XML subset | XML-configured systems | no |
//! | [`ZoneFormat`] | DNS master (zone) files | BIND | no |
//! | [`TinyDnsFormat`] | tinydns-data lines | djbdns | no |
//!
//! [Parses in place]: ConfigFormat::parses_in_place
//!
//! Every parser preserves comments, blank lines and whitespace as tree
//! nodes/attributes, so `serialize(parse(text)) == text` for
//! well-formed inputs (the one documented exception: parenthesised
//! multi-line records in zone files are normalised to one line). Every
//! line-based parser (kv, INI, Apache, zone and tinydns) splits lines at
//! `\n` only, so a CRLF file keeps its `\r`s too. This fidelity matters for error
//! injection: a mutated configuration file differs from the original
//! *only* by the injected error, exactly as if a human had made the
//! mistake while editing.
//!
//! The formats marked in the last column also answer
//! [`ConfigFormat::parses_in_place`]: whether one node's own lines
//! parse back to that node wherever it stands. The answer, asked once
//! per single-edit fault about every node the edit writes
//! (`conferr_analysis::edit_parses_in_place`), decides two things: the
//! campaign engine skips the parse of a file that differs from its
//! baseline in that one node, and the static linter bounds the fault's
//! touch map to the directives the edit writes, so test-impact
//! pruning can skip the functional tests that read none of them. The
//! same three formats serialize a document one root child after
//! another, so the engine also builds such a file's text from its
//! baseline text and the one edited top-level node
//! ([`child_offsets`], [`splice_child`]) instead of serializing it
//! whole.
//!
//! # Examples
//!
//! ```
//! use conferr_formats::{ConfigFormat, IniFormat};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "[mysqld]\nport=3306\nkey_buffer_size=16M\n";
//! let fmt = IniFormat::new();
//! let tree = fmt.parse(text)?;
//! assert_eq!(fmt.serialize(&tree)?, text);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod apache;
mod error;
mod ini;
mod kv;
mod tinydns;
mod xml;
mod zone;

pub use apache::ApacheFormat;
pub use error::{ParseError, SerializeError};
pub use ini::IniFormat;
pub use kv::KvFormat;
pub use tinydns::{fields as tinydns_fields, TinyDnsFormat, KNOWN_PREFIXES};
pub use xml::{parse_attrs as xml_parse_attrs, XmlFormat};
pub use zone::{ZoneFormat, KNOWN_RTYPES};

use conferr_tree::{ConfTree, Node};

/// A system-specific configuration parser/serializer pair.
///
/// Implementations must be *round-trip faithful*: parsing a well-formed
/// document and serializing the unmodified tree reproduces the input
/// byte-for-byte (documented *normalisations* excepted). This is what
/// lets ConfErr inject errors that look like genuine human edits.
pub trait ConfigFormat: std::fmt::Debug + Send + Sync {
    /// Short identifier, e.g. `"ini"`.
    fn name(&self) -> &str;

    /// Parses a configuration document into its tree representation.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] with the line number and a description
    /// when the input is not well-formed in this format.
    fn parse(&self, input: &str) -> Result<ConfTree, ParseError>;

    /// Serializes a tree back to configuration text.
    ///
    /// # Errors
    ///
    /// Returns [`SerializeError`] when the tree contains nodes this
    /// format cannot express — the paper's "differences in the
    /// expressiveness of the two representations" (§3.2), which
    /// ConfErr reports as an inexpressible fault rather than a bug.
    fn serialize(&self, tree: &ConfTree) -> Result<String, SerializeError>;

    /// `true` iff `node` parses in place: serialized as the only child
    /// of a fresh root, its text parses back to exactly `node`.
    ///
    /// A format answers only when that round trip licenses a shortcut.
    /// Take a text ending in `\n` whose parse serializes back to that
    /// text byte for byte. Edit the text or an attribute of one
    /// non-root node of the parse so that the edited node parses in
    /// place, or delete one non-root node that parses in place. The
    /// edited tree must then be the parse of its own serialization.
    /// Likewise, inserting, duplicating, moving or swapping nodes that
    /// parse in place must leave every other line meaning what it
    /// meant, which is what lets a touch map name only the written
    /// nodes. Both hold where a line's meaning depends on no other line
    /// except through the sections that the node's own lines open and
    /// close, which is why only the line-based [`KvFormat`],
    /// [`IniFormat`] and [`ApacheFormat`] answer. The default, `false`,
    /// is always sound: it only costs the caller a full parse and a
    /// whole-file touch map.
    fn parses_in_place(&self, _node: &Node) -> bool {
        false
    }
}

/// A fresh root of `format`'s documents, holding no children.
fn fresh_root(format: &dyn ConfigFormat) -> ConfTree {
    ConfTree::new(Node::new("config").with_attr("format", format.name()))
}

/// `node`'s own lines: `node` serialized by `format` as the only child
/// of a fresh root.
fn serialize_alone(format: &dyn ConfigFormat, node: &Node) -> Result<String, SerializeError> {
    let mut tree = fresh_root(format);
    tree.root_mut().push_child(node.clone());
    format.serialize(&tree)
}

/// The round trip behind [`ConfigFormat::parses_in_place`]: `node`'s
/// own lines parse back to exactly `node`.
fn parses_alone(format: &dyn ConfigFormat, node: &Node) -> bool {
    serialize_alone(format, node)
        .ok()
        .and_then(|text| format.parse(&text).ok())
        .is_some_and(|tree| tree.root().children() == std::slice::from_ref(node))
}

/// Where each root child of `tree` starts in `text`, followed by
/// `text.len()`, when `text` is exactly those children's own lines
/// one after another, each child serialized by `format` as the only
/// child of one reused fresh root, as [`ConfigFormat::parses_in_place`]
/// serializes it. `None` otherwise.
///
/// Computed once for a baseline, the offsets let [`splice_child`]
/// rewrite one top-level node's lines without serializing the others.
///
/// # Examples
///
/// ```
/// use conferr_formats::{child_offsets, ConfigFormat, KvFormat};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "port = 5432\n# note\n";
/// let tree = KvFormat::new().parse(text)?;
/// assert_eq!(child_offsets(&KvFormat::new(), &tree, text), Some(vec![0, 12, 19]));
/// assert_eq!(child_offsets(&KvFormat::new(), &tree, "port = 5432\n"), None);
/// # Ok(())
/// # }
/// ```
pub fn child_offsets(format: &dyn ConfigFormat, tree: &ConfTree, text: &str) -> Option<Vec<usize>> {
    let mut alone = fresh_root(format);
    let mut offsets = Vec::with_capacity(tree.root().children().len() + 1);
    let mut end = 0;
    offsets.push(end);
    for child in tree.root().children() {
        let slot = alone.root_mut().children_mut();
        slot.clear();
        slot.push(child.clone());
        let lines = format.serialize(&alone).ok()?;
        let start = end;
        end += lines.len();
        if text.get(start..end) != Some(lines.as_str()) {
            return None;
        }
        offsets.push(end);
    }
    (end == text.len()).then_some(offsets)
}

/// `text`, whose root children start at `offsets` (see
/// [`child_offsets`]), with the lines of root child `index` replaced
/// by `node`'s own lines, or removed when `node` is `None`.
///
/// For the kv, INI and Apache formats, which serialize a document one
/// root child after another, that is the serialization of the document
/// with the one child replaced or removed, at the cost of serializing
/// that child alone.
///
/// # Errors
///
/// The format's [`SerializeError`] when `node` cannot be serialized.
///
/// # Panics
///
/// When `index + 1` is not a valid index into `offsets`, or an offset
/// is not a character boundary of `text`.
///
/// # Examples
///
/// ```
/// use conferr_formats::{child_offsets, splice_child, ConfigFormat, KvFormat};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kv = KvFormat::new();
/// let text = "port = 5432\n# note\nmax_connections = 10\n";
/// let offsets = child_offsets(&kv, &kv.parse(text)?, text).unwrap();
/// let mut tree = kv.parse(text)?;
/// tree.root_mut().children_mut()[0].set_text(Some("5433".to_string()));
/// let spliced = splice_child(&kv, text, &offsets, 0, Some(&tree.root().children()[0]))?;
/// assert_eq!(spliced, kv.serialize(&tree)?);
/// assert_eq!(splice_child(&kv, text, &offsets, 1, None)?, "port = 5432\nmax_connections = 10\n");
/// # Ok(())
/// # }
/// ```
pub fn splice_child(
    format: &dyn ConfigFormat,
    text: &str,
    offsets: &[usize],
    index: usize,
    node: Option<&Node>,
) -> Result<String, SerializeError> {
    let lines = node.map_or_else(|| Ok(String::new()), |node| serialize_alone(format, node))?;
    let (head, tail) = (&text[..offsets[index]], &text[offsets[index + 1]..]);
    let mut out = String::with_capacity(head.len() + lines.len() + tail.len());
    out.push_str(head);
    out.push_str(&lines);
    out.push_str(tail);
    Ok(out)
}

/// All built-in formats, for registry-style lookup.
pub fn builtin_formats() -> Vec<Box<dyn ConfigFormat>> {
    vec![
        Box::new(KvFormat::new()),
        Box::new(IniFormat::new()),
        Box::new(ApacheFormat::new()),
        Box::new(XmlFormat::new()),
        Box::new(ZoneFormat::new()),
        Box::new(TinyDnsFormat::new()),
    ]
}

/// Looks up a built-in format by [`ConfigFormat::name`].
pub fn format_by_name(name: &str) -> Option<Box<dyn ConfigFormat>> {
    builtin_formats().into_iter().find(|f| f.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_formats() {
        let names: Vec<String> = builtin_formats()
            .iter()
            .map(|f| f.name().to_string())
            .collect();
        assert_eq!(names, ["kv", "ini", "apache", "xml", "zone", "tinydns"]);
    }

    #[test]
    fn formats_that_do_not_opt_in_never_parse_in_place() {
        let record = TinyDnsFormat::new()
            .parse("+www.example.com:192.0.2.10:86400\n")
            .unwrap();
        assert!(!TinyDnsFormat::new().parses_in_place(&record.root().children()[0]));
        let zone = ZoneFormat::new().parse("www IN A 192.0.2.10\n").unwrap();
        assert!(!ZoneFormat::new().parses_in_place(&zone.root().children()[0]));
        let xml = XmlFormat::new().parse("<a><b>1</b></a>").unwrap();
        assert!(!XmlFormat::new().parses_in_place(&xml.root().children()[0]));
    }

    #[test]
    fn splicing_one_top_level_node_is_serializing_the_document() {
        let docs: [(Box<dyn ConfigFormat>, &str); 3] = [
            (Box::new(KvFormat::new()), "port = 5432\n# note\n\nmax = 10\n"),
            (
                Box::new(IniFormat::new()),
                "# top\n[client]\nport=3306\n\n[mysqld]\nport=3306\nkey=16M\n",
            ),
            (
                Box::new(ApacheFormat::new()),
                "Listen 80\n<VirtualHost *:80>\n  ServerName a\n  <Directory />\n    Options None\n  </Directory>\n</VirtualHost>\n# end\n",
            ),
        ];
        for (format, lf) in docs {
            for text in [lf.to_string(), lf.replace('\n', "\r\n")] {
                let tree = format.parse(&text).unwrap();
                let offsets = child_offsets(format.as_ref(), &tree, &text).unwrap();
                let children = tree.root().children();
                assert_eq!(offsets.len(), children.len() + 1);
                for (i, child) in children.iter().enumerate() {
                    // The node itself, its last descendant rewritten,
                    // and no node at all.
                    let mut rewritten = tree.clone();
                    let mut node = &mut rewritten.root_mut().children_mut()[i];
                    while !node.children().is_empty() {
                        node = node.children_mut().last_mut().unwrap();
                    }
                    node.set_attr("name", "Renamed");
                    let mut deleted = tree.clone();
                    deleted.root_mut().children_mut().remove(i);
                    for (edited, lines) in [
                        (&tree, Some(child)),
                        (&rewritten, Some(&rewritten.root().children()[i])),
                        (&deleted, None),
                    ] {
                        assert_eq!(
                            splice_child(format.as_ref(), &text, &offsets, i, lines).unwrap(),
                            format.serialize(edited).unwrap(),
                            "{} document {text:?} at child {i}",
                            format.name()
                        );
                    }
                }
                assert_eq!(child_offsets(format.as_ref(), &tree, &text[1..]), None);
            }
        }
    }

    #[test]
    fn format_by_name_finds_and_misses() {
        assert!(format_by_name("zone").is_some());
        assert!(format_by_name("toml").is_none());
    }
}

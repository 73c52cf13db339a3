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
//! pruning can skip the functional tests that read none of them.
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

/// The round trip behind [`ConfigFormat::parses_in_place`]: `node`,
/// serialized by `format` as the only child of a fresh root, parses
/// back to exactly `node`.
fn parses_alone(format: &dyn ConfigFormat, node: &Node) -> bool {
    let root = Node::new("config")
        .with_attr("format", format.name())
        .with_child(node.clone());
    format
        .serialize(&ConfTree::new(root))
        .ok()
        .and_then(|text| format.parse(&text).ok())
        .is_some_and(|tree| tree.root().children() == std::slice::from_ref(node))
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
    fn format_by_name_finds_and_misses() {
        assert!(format_by_name("zone").is_some());
        assert!(format_by_name("toml").is_none());
    }
}

//! DNS master (zone) files, as loaded by BIND.
//!
//! Tree schema produced by [`ZoneFormat`]:
//!
//! ```text
//! zone(format=zone, final_newline=yes|no)
//! ├── directive(name=$TTL, sep=" ") = "86400"
//! ├── directive(name=$ORIGIN, sep=" ") = "example.com."
//! ├── record(owner=@, g1="  ", ttl=3600, g2=" ", class=IN, g3=" ",
//! │          rtype=SOA, g4=" ", trailing="") = "ns1 admin 1 7200 ..."
//! ├── record(owner="", g1="\t", rtype=A, ...) = "192.0.2.1"   # inherited owner
//! ├── comment = "; note"
//! └── blank
//! ```
//!
//! The record's *text* is the raw rdata. Owner, TTL and class are
//! optional exactly as in RFC 1035; an empty `owner` attribute means
//! the owner is inherited from the previous record. Parenthesised
//! multi-line records (typically SOA) are accepted and **normalised to
//! a single line** — the only documented round-trip normalisation in
//! this crate (`normalized=yes` is set on such records).

use conferr_tree::{ConfTree, Node};

use crate::{ConfigFormat, ParseError, SerializeError};

/// Parser/serializer for DNS zone files.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZoneFormat {
    _priv: (),
}

impl ZoneFormat {
    /// Creates the format.
    pub fn new() -> Self {
        ZoneFormat { _priv: () }
    }
}

const FORMAT: &str = "zone";

/// Record types the parser recognises.
pub const KNOWN_RTYPES: &[&str] = &[
    "SOA", "NS", "A", "AAAA", "CNAME", "MX", "PTR", "TXT", "RP", "HINFO", "SRV", "SPF", "NAPTR",
    "DNAME", "CAA",
];

fn is_rtype(token: &str) -> bool {
    KNOWN_RTYPES.iter().any(|t| token.eq_ignore_ascii_case(t))
}

fn is_ttl(token: &str) -> bool {
    let mut chars = token.chars().peekable();
    let mut digits = 0;
    while let Some(c) = chars.peek() {
        if c.is_ascii_digit() {
            digits += 1;
            chars.next();
        } else {
            break;
        }
    }
    if digits == 0 {
        return false;
    }
    match chars.next() {
        None => true,
        Some(c) => {
            chars.next().is_none() && matches!(c.to_ascii_lowercase(), 's' | 'm' | 'h' | 'd' | 'w')
        }
    }
}

fn is_class(token: &str) -> bool {
    ["IN", "CH", "HS"]
        .iter()
        .any(|c| token.eq_ignore_ascii_case(c))
}

impl ConfigFormat for ZoneFormat {
    fn name(&self) -> &str {
        FORMAT
    }

    fn parse(&self, input: &str) -> Result<ConfTree, ParseError> {
        let mut root = Node::new("zone").with_attr("format", FORMAT);
        if !input.is_empty() && !input.ends_with('\n') {
            root.set_attr("final_newline", "no");
        }
        // Split at `\n` only: a CRLF line's `\r` lands in the
        // `trailing` whitespace of its node, or in a comment's or
        // blank line's text.
        let lines: Vec<&str> = input.split_terminator('\n').collect();
        let mut i = 0;
        while i < lines.len() {
            let line = lines[i];
            let lineno = i + 1;
            let trimmed = line.trim_start();
            if trimmed.is_empty() {
                root.push_child(Node::new("blank").with_text(line));
                i += 1;
            } else if trimmed.starts_with(';') {
                root.push_child(Node::new("comment").with_text(line));
                i += 1;
            } else if trimmed.starts_with('$') {
                root.push_child(parse_dollar_directive(line, trimmed, lineno)?);
                i += 1;
            } else {
                let (node, consumed) = parse_record(&lines, i)?;
                root.push_child(node);
                i += consumed;
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
                "directive" => {
                    out.push_str(child.attr("name").unwrap_or(""));
                    out.push_str(child.attr("sep").unwrap_or(" "));
                    out.push_str(child.text().unwrap_or(""));
                    out.push_str(child.attr("trailing").unwrap_or(""));
                }
                "record" => serialize_record(child, &mut out),
                other => {
                    return Err(SerializeError::new(
                        FORMAT,
                        format!("node kind {other:?} cannot appear in a zone file"),
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

fn serialize_record(rec: &Node, out: &mut String) {
    out.push_str(rec.attr("owner").unwrap_or(""));
    out.push_str(rec.attr("g1").unwrap_or("\t"));
    if let Some(ttl) = rec.attr("ttl") {
        out.push_str(ttl);
        out.push_str(rec.attr("g2").unwrap_or(" "));
    }
    if let Some(class) = rec.attr("class") {
        out.push_str(class);
        out.push_str(rec.attr("g3").unwrap_or(" "));
    }
    out.push_str(rec.attr("rtype").unwrap_or(""));
    out.push_str(rec.attr("g4").unwrap_or(" "));
    out.push_str(rec.text().unwrap_or(""));
    out.push_str(rec.attr("trailing").unwrap_or(""));
}

fn parse_dollar_directive(line: &str, trimmed: &str, lineno: usize) -> Result<Node, ParseError> {
    let name_end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
    let name = &trimmed[..name_end];
    let after = &trimmed[name_end..];
    let value = after.trim_start();
    let sep = &after[..after.len() - value.len()];
    // Inline comment.
    let (value, trailing) = split_inline_comment(value);
    if value.is_empty() {
        return Err(ParseError::at_line(
            FORMAT,
            lineno,
            format!("{name} directive requires a value"),
        ));
    }
    let value_trimmed = value.trim_end();
    let ws = &value[value_trimmed.len()..];
    let _ = line;
    Ok(Node::new("directive")
        .with_attr("name", name)
        .with_attr("sep", sep)
        .with_attr("trailing", format!("{ws}{trailing}"))
        .with_text(value_trimmed))
}

/// Splits `s` at the first `;` that is outside double quotes.
fn split_inline_comment(s: &str) -> (&str, &str) {
    let mut in_quote = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            ';' if !in_quote => return (&s[..i], &s[i..]),
            _ => {}
        }
    }
    (s, "")
}

/// Counts unbalanced parentheses outside double quotes.
fn paren_balance(s: &str, start: i32) -> i32 {
    let mut bal = start;
    let mut in_quote = false;
    for c in s.chars() {
        match c {
            '"' => in_quote = !in_quote,
            '(' if !in_quote => bal += 1,
            ')' if !in_quote => bal -= 1,
            _ => {}
        }
    }
    bal
}

/// Removes parens (outside quotes) and collapses whitespace runs.
fn normalize_rdata(s: &str) -> String {
    let mut cleaned = String::new();
    let mut in_quote = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                cleaned.push(c);
            }
            '(' | ')' if !in_quote => cleaned.push(' '),
            _ => cleaned.push(c),
        }
    }
    // Collapse whitespace outside quotes.
    let mut out = String::new();
    let mut in_quote = false;
    let mut pending_space = false;
    for c in cleaned.trim().chars() {
        match c {
            '"' => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                in_quote = !in_quote;
                out.push(c);
            }
            c if c.is_whitespace() && !in_quote => pending_space = true,
            c => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
            }
        }
    }
    out
}

fn parse_record(lines: &[&str], start: usize) -> Result<(Node, usize), ParseError> {
    let line = lines[start];
    let lineno = start + 1;
    // Owner: present iff the line starts at column 0 with non-space.
    let (owner, after_owner) = if line.starts_with(char::is_whitespace) {
        ("", line)
    } else {
        let end = line.find(char::is_whitespace).unwrap_or(line.len());
        (&line[..end], &line[end..])
    };
    let mut rest = after_owner;
    let take_ws = |s: &str| -> (String, usize) {
        let t = s.trim_start();
        (s[..s.len() - t.len()].to_string(), s.len() - t.len())
    };
    let (g1, n) = take_ws(rest);
    rest = &rest[n..];

    let mut ttl: Option<(String, String)> = None;
    let mut class: Option<(String, String)> = None;
    let rtype;
    let g4;
    loop {
        let tok_end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        let tok = &rest[..tok_end];
        if tok.is_empty() {
            return Err(ParseError::at_line(
                FORMAT,
                lineno,
                "record line ended before a record type was found",
            ));
        }
        let after_tok = &rest[tok_end..];
        let (ws, n) = take_ws(after_tok);
        if is_rtype(tok) {
            rtype = tok.to_string();
            g4 = ws;
            rest = &after_tok[n..];
            break;
        } else if ttl.is_none() && class.is_none() && is_ttl(tok) {
            ttl = Some((tok.to_string(), ws));
            rest = &after_tok[n..];
        } else if class.is_none() && is_class(tok) {
            class = Some((tok.to_string(), ws));
            rest = &after_tok[n..];
        } else {
            return Err(ParseError::at_line(
                FORMAT,
                lineno,
                format!("unknown record type or field {tok:?}"),
            ));
        }
    }

    let (rdata_part, trailing) = split_inline_comment(rest);
    let mut consumed = 1;
    let mut normalized = false;
    let mut rdata = rdata_part.to_string();
    let mut trailing = trailing.to_string();
    let mut bal = paren_balance(rdata_part, 0);
    if bal > 0 {
        // Multi-line record: consume lines until parens balance.
        let mut i = start + 1;
        while bal > 0 {
            if i >= lines.len() {
                return Err(ParseError::at_line(
                    FORMAT,
                    lineno,
                    "unbalanced '(' in record (end of file reached)",
                ));
            }
            let (body, _comment) = split_inline_comment(lines[i]);
            bal = paren_balance(body, bal);
            rdata.push(' ');
            rdata.push_str(body);
            i += 1;
        }
        consumed = i - start;
        normalized = true;
        trailing.clear();
        rdata = normalize_rdata(&rdata);
    } else if bal < 0 {
        return Err(ParseError::at_line(
            FORMAT,
            lineno,
            "unbalanced ')' in record",
        ));
    }

    let rdata_trimmed = rdata.trim_end().to_string();
    if !normalized {
        let ws = &rdata[rdata_trimmed.len()..];
        trailing = format!("{ws}{trailing}");
    }

    let mut node = Node::new("record")
        .with_attr("owner", owner)
        .with_attr("g1", g1)
        .with_attr("rtype", &rtype)
        .with_attr("g4", g4)
        .with_attr("trailing", trailing)
        .with_text(rdata_trimmed);
    if let Some((t, g2)) = ttl {
        node.set_attr("ttl", t);
        node.set_attr("g2", g2);
    }
    if let Some((c, g3)) = class {
        node.set_attr("class", c);
        node.set_attr("g3", g3);
    }
    if normalized {
        node.set_attr("normalized", "yes");
    }
    Ok((node, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
$TTL 86400
$ORIGIN example.com.
@\tIN SOA ns1.example.com. admin.example.com. 2024010101 7200 3600 1209600 86400
@\tIN NS ns1.example.com.
ns1\tIN A 192.0.2.1
www\tIN A 192.0.2.10
\tIN MX 10 mail.example.com.
mail\t3600 IN A 192.0.2.20
ftp\tIN CNAME www.example.com.
; trailing comment
";

    fn roundtrip(text: &str) {
        let fmt = ZoneFormat::new();
        let tree = fmt.parse(text).unwrap();
        assert_eq!(fmt.serialize(&tree).unwrap(), text, "round-trip failed");
    }

    #[test]
    fn round_trips_sample() {
        roundtrip(SAMPLE);
    }

    #[test]
    fn round_trips_crlf_line_endings() {
        roundtrip("www IN A 192.0.2.10\r\n");
        roundtrip(&SAMPLE.replace('\n', "\r\n"));
        let tree = ZoneFormat::new().parse("www IN A 192.0.2.10\r\n").unwrap();
        assert_eq!(tree.root().children()[0].text(), Some("192.0.2.10"));
    }

    #[test]
    fn parses_record_fields() {
        let fmt = ZoneFormat::new();
        let tree = fmt.parse(SAMPLE).unwrap();
        let records: Vec<&Node> = tree.root().children_of_kind("record").collect();
        assert_eq!(records.len(), 7);
        assert_eq!(records[0].attr("rtype"), Some("SOA"));
        assert_eq!(records[0].attr("owner"), Some("@"));
        assert_eq!(records[2].attr("owner"), Some("ns1"));
        assert_eq!(records[2].text(), Some("192.0.2.1"));
        // Inherited owner on the MX line.
        assert_eq!(records[4].attr("owner"), Some(""));
        assert_eq!(records[4].attr("rtype"), Some("MX"));
        // TTL field.
        assert_eq!(records[5].attr("ttl"), Some("3600"));
    }

    #[test]
    fn parenthesized_soa_is_normalized() {
        let fmt = ZoneFormat::new();
        let text = "@ IN SOA ns1 admin (\n  2024010101 ; serial\n  7200\n  3600 1209600 86400 )\n";
        let tree = fmt.parse(text).unwrap();
        let rec = tree.root().first_child_of_kind("record").unwrap();
        assert_eq!(rec.attr("normalized"), Some("yes"));
        assert_eq!(
            rec.text(),
            Some("ns1 admin 2024010101 7200 3600 1209600 86400")
        );
        // Semantic round-trip: reparsing the serialization yields the
        // same record set.
        let re = fmt.parse(&fmt.serialize(&tree).unwrap()).unwrap();
        let rec2 = re.root().first_child_of_kind("record").unwrap();
        assert_eq!(rec2.text(), rec.text());
    }

    #[test]
    fn inline_comments_are_preserved() {
        roundtrip("www IN A 192.0.2.1 ; web server\n");
    }

    #[test]
    fn txt_with_semicolon_in_quotes() {
        let fmt = ZoneFormat::new();
        let text = "@ IN TXT \"v=spf1; all\"\n";
        let tree = fmt.parse(text).unwrap();
        let rec = tree.root().first_child_of_kind("record").unwrap();
        assert_eq!(rec.text(), Some("\"v=spf1; all\""));
        roundtrip(text);
    }

    #[test]
    fn unknown_type_is_an_error() {
        let err = ZoneFormat::new()
            .parse("www IN BOGUS 1.2.3.4\n")
            .unwrap_err();
        assert!(err.to_string().contains("BOGUS"));
    }

    #[test]
    fn missing_ttl_value_is_an_error() {
        assert!(ZoneFormat::new().parse("$TTL\n").is_err());
    }

    #[test]
    fn unbalanced_parens_error() {
        assert!(ZoneFormat::new().parse("@ IN SOA a b (1 2 3\n").is_err());
        assert!(ZoneFormat::new().parse("@ IN SOA a b 1 2 3)\n").is_err());
    }

    #[test]
    fn synthetic_record_serializes_with_defaults() {
        let fmt = ZoneFormat::new();
        let tree = ConfTree::new(
            Node::new("zone").with_child(
                Node::new("record")
                    .with_attr("owner", "www")
                    .with_attr("rtype", "A")
                    .with_text("192.0.2.9"),
            ),
        );
        let text = fmt.serialize(&tree).unwrap();
        assert_eq!(text, "www\tA 192.0.2.9\n");
        fmt.parse(&text).unwrap();
    }

    #[test]
    fn ttl_token_recognition() {
        for good in ["300", "1h", "2d", "1W"] {
            assert!(is_ttl(good), "{good}");
        }
        for bad in ["", "h", "3x", "1hh", "ns1"] {
            assert!(!is_ttl(bad), "{bad}");
        }
    }
}

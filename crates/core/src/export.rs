//! Machine-readable exports of resilience profiles.
//!
//! The profile is ConfErr's sole output (§3.1); beyond the human
//! reports, campaigns feed dashboards and regression gates, so the
//! profile exports to CSV (one row per injection) and to a small,
//! dependency-free JSON encoding.
//!
//! Both formats are defined **per outcome** ([`outcome_to_csv_row`],
//! [`outcome_to_jsonl`]): the whole-profile renderers concatenate the
//! row encoders, and the streaming sinks ([`crate::CsvSink`],
//! [`crate::JsonlSink`]) write the very same rows one outcome at a
//! time — a streamed export is byte-identical to exporting the
//! collected profile.
//!
//! Every encoder appends its fields to one buffer: strings go through
//! one appending escaper ([`push_json_string`]) or CSV quoter, the
//! result's detail is formatted from the borrowed outcome instead of
//! being built as a `String` first, and a streaming sink keeps one row
//! buffer and writes each row with its newline in one `write_all`.

use std::fmt::{self, Write as _};

use crate::{InjectionOutcome, InjectionResult, ResilienceProfile};

/// The CSV header row (no trailing newline).
pub const CSV_HEADER: &str =
    "system,id,class,cognitive_level,result,verdict,tier,detail,description";

/// Appends `value` as one CSV field, quoted in place (RFC 4180) when
/// its text holds a comma, a quote or a line break.
fn csv_field(out: &mut String, value: impl fmt::Display) {
    let start = out.len();
    let _ = write!(out, "{value}");
    if out[start..].contains([',', '"', '\n', '\r']) {
        let mut at = start;
        while let Some(quote) = out[at..].find('"') {
            out.insert(at + quote, '"');
            at += quote + 2;
        }
        out.insert(start, '"');
        out.push('"');
    }
}

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`,
/// `\` and the C0 control characters escaped (`\n`, `\r`, `\t`, and
/// `\u00xx` for the rest); every other character is copied as is. The
/// one escaper behind the profile exports and the plan bug base.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// Appends `s` with [`push_json_string`]'s escapes, unquoted.
fn push_json_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut copied = 0;
    for (at, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[copied..at]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
        copied = at + 1;
    }
    out.push_str(&s[copied..]);
}

/// Escapes for JSON whatever is formatted into it, so a `Display`
/// value lands in a JSON string without being collected first.
struct JsonEscaped<'a>(&'a mut String);

impl fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_json_escaped(self.0, s);
        Ok(())
    }
}

/// Appends `value`'s text as a JSON string literal.
fn push_json_display(out: &mut String, value: impl fmt::Display) {
    out.push('"');
    let _ = write!(JsonEscaped(out), "{value}");
    out.push('"');
}

/// The detail column of an outcome: its diagnostic, test failure,
/// warnings, reason, timeout or panic message, formatted from the
/// borrowed result.
struct ResultDetail<'a>(&'a InjectionResult);

impl fmt::Display for ResultDetail<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            InjectionResult::DetectedAtStartup { diagnostic } => f.write_str(diagnostic),
            InjectionResult::DetectedByFunctionalTest { test, diagnostic } => {
                write!(f, "{test}: {diagnostic}")
            }
            InjectionResult::Undetected { warnings } => {
                for (i, warning) in warnings.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    f.write_str(warning)?;
                }
                Ok(())
            }
            InjectionResult::Inexpressible { reason } | InjectionResult::Skipped { reason } => {
                f.write_str(reason)
            }
            InjectionResult::TimedOut { phase, budget_ms } => {
                write!(f, "{phase} exceeded {budget_ms} ms")
            }
            InjectionResult::HarnessFailure { panic_msg } => f.write_str(panic_msg),
        }
    }
}

/// Appends one outcome's CSV record (no trailing newline).
pub(crate) fn push_csv_row(out: &mut String, system: &str, o: &InjectionOutcome) {
    csv_field(out, system);
    out.push(',');
    csv_field(out, &o.id);
    out.push(',');
    csv_field(out, &o.class);
    out.push(',');
    csv_field(out, o.class.cognitive_level());
    for label in [o.result.label(), o.verdict.label(), o.tier.label()] {
        out.push(',');
        out.push_str(label);
    }
    out.push(',');
    csv_field(out, ResultDetail(&o.result));
    out.push(',');
    csv_field(out, &o.description);
}

/// Renders one outcome as a CSV record (no trailing newline) under
/// [`CSV_HEADER`].
pub fn outcome_to_csv_row(system: &str, o: &InjectionOutcome) -> String {
    let mut out = String::new();
    push_csv_row(&mut out, system, o);
    out
}

/// Renders the profile as CSV: header plus one row per injection.
///
/// ```
/// use conferr::{profile_to_csv, ResilienceProfile};
///
/// let csv = profile_to_csv(&ResilienceProfile::new("sut", vec![]));
/// assert!(csv.starts_with("system,id,class,cognitive_level,result,verdict,tier,detail,description"));
/// ```
pub fn profile_to_csv(profile: &ResilienceProfile) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for o in profile.outcomes() {
        push_csv_row(&mut out, profile.system(), o);
        out.push('\n');
    }
    out
}

/// Renders the profile as JSON (an object with `system`, `summary` and
/// an `outcomes` array), without external dependencies.
pub fn profile_to_json(profile: &ResilienceProfile) -> String {
    let s = profile.summary();
    let mut out = String::from("{\"system\":");
    push_json_string(&mut out, profile.system());
    let _ = write!(
        out,
        ",\"summary\":{{\"total\":{},\"detected_at_startup\":{},\"detected_by_tests\":{},\
         \"ignored\":{},\"inexpressible\":{},\"skipped\":{},\"timed_out\":{},\
         \"harness_failures\":{}}},",
        s.total,
        s.detected_at_startup,
        s.detected_by_tests,
        s.undetected,
        s.inexpressible,
        s.skipped,
        s.timed_out,
        s.harness_failures
    );
    out.push_str("\"outcomes\":[");
    for (i, o) in profile.outcomes().iter().enumerate() {
        out.push_str(if i > 0 { ",{" } else { "{" });
        push_outcome_members(&mut out, o);
    }
    out.push_str("]}");
    out
}

/// Appends an outcome's JSON members, `"id"` through the `"diff"`
/// array, and the object's closing brace.
fn push_outcome_members(out: &mut String, o: &InjectionOutcome) {
    out.push_str("\"id\":");
    push_json_string(out, &o.id);
    out.push_str(",\"class\":");
    push_json_display(out, &o.class);
    out.push_str(",\"result\":");
    push_json_string(out, o.result.label());
    out.push_str(",\"verdict\":");
    push_json_string(out, o.verdict.label());
    out.push_str(",\"tier\":");
    push_json_string(out, o.tier.label());
    out.push_str(",\"detail\":");
    push_json_display(out, ResultDetail(&o.result));
    out.push_str(",\"description\":");
    push_json_string(out, &o.description);
    out.push_str(",\"diff\":[");
    for (j, line) in o.diff.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        push_json_string(out, line);
    }
    out.push_str("]}");
}

/// Appends one outcome's JSON Lines record (no trailing newline).
pub(crate) fn push_jsonl_row(out: &mut String, system: &str, o: &InjectionOutcome) {
    out.push_str("{\"system\":");
    push_json_string(out, system);
    out.push(',');
    push_outcome_members(out, o);
}

/// Renders one outcome as the JSON object used inside
/// [`profile_to_json`]'s `outcomes` array.
pub fn outcome_to_json(o: &InjectionOutcome) -> String {
    let mut out = String::from('{');
    push_outcome_members(&mut out, o);
    out
}

/// Renders one outcome as a JSON Lines record (no trailing newline):
/// the [`outcome_to_json`] object with the system name as its first
/// member, so each line of a streamed JSONL export is self-describing.
pub fn outcome_to_jsonl(system: &str, o: &InjectionOutcome) -> String {
    let mut out = String::new();
    push_jsonl_row(&mut out, system, o);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InjectionOutcome;
    use conferr_analysis::{StaticVerdict, ValidationClass};
    use conferr_model::{ErrorClass, StructuralKind, TypoKind};
    use conferr_sut::Tier;

    fn sample() -> ResilienceProfile {
        ResilienceProfile::new(
            "my,sut",
            vec![
                InjectionOutcome {
                    id: "a#1".into(),
                    description: "omit \"x\", then retry".into(),
                    class: ErrorClass::Typo(TypoKind::Omission),
                    diff: vec!["- /0 directive".to_string()].into(),
                    verdict: StaticVerdict::WillFailParse,
                    tier: Tier::Sim,
                    result: InjectionResult::DetectedAtStartup {
                        diagnostic: "bad\nline".into(),
                    },
                },
                InjectionOutcome {
                    id: "b#2".into(),
                    description: "dup".into(),
                    class: ErrorClass::Typo(TypoKind::Insertion),
                    diff: Vec::new().into(),
                    verdict: StaticVerdict::Unknown,
                    tier: Tier::Proc,
                    result: InjectionResult::Undetected { warnings: vec![] },
                },
            ],
        )
    }

    #[test]
    fn csv_has_header_and_rows_with_quoting() {
        let csv = profile_to_csv(&sample());
        // 2 logical records + header; the embedded newline in the
        // first diagnostic is quoted, producing one extra raw line.
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("system,id,class"));
        assert!(csv.contains("\"my,sut\""), "{csv}");
        assert!(csv.contains("detected-at-startup"));
        assert!(csv.contains("\"bad\nline\""), "{csv}");
        assert!(csv.contains("ignored"));
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_braces() {
        let json = profile_to_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"id\":").count(), 2);
        assert!(json.contains("\"system\":\"my,sut\""));
        assert!(json.contains("\\n"), "newline must be escaped");
        // Balanced braces and brackets (a cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_corner_cases() {
        let csv = |s: &str| {
            let mut out = String::from("x,");
            csv_field(&mut out, s);
            out
        };
        assert_eq!(csv("plain"), "x,plain");
        assert_eq!(csv("a\"b"), "x,\"a\"\"b\"");
        assert_eq!(csv("\"\"x\""), "x,\"\"\"\"\"x\"\"\"");
        let json = |s: &str| {
            let mut out = String::from("x:");
            push_json_string(&mut out, s);
            out
        };
        assert_eq!(json("tab\there"), "x:\"tab\\there\"");
        assert_eq!(json("ctrl\u{1}"), "x:\"ctrl\\u0001\"");
        assert_eq!(json("\u{1f}\u{7f}é"), "x:\"\\u001f\u{7f}é\"");
    }

    /// Every special character class the escapers handle, in one field.
    fn nasty(tag: &str) -> String {
        format!("{tag}\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,")
    }

    /// The three row encoders on every result variant, with quotes,
    /// backslashes, line breaks, tabs, C0 and DEL controls, multibyte
    /// characters and commas in every free-text field. The pinned rows
    /// are the encoders' output before they appended into one buffer.
    #[test]
    fn row_encoders_pin_their_bytes_on_every_result() {
        let results = [
            InjectionResult::DetectedAtStartup {
                diagnostic: nasty("diag"),
            },
            InjectionResult::DetectedByFunctionalTest {
                test: nasty("test"),
                diagnostic: nasty("diag"),
            },
            InjectionResult::Undetected { warnings: vec![] },
            InjectionResult::Undetected {
                warnings: vec![nasty("w0"), nasty("w1")],
            },
            InjectionResult::Inexpressible {
                reason: nasty("why"),
            },
            InjectionResult::Skipped {
                reason: nasty("why"),
            },
            InjectionResult::TimedOut {
                phase: nasty("phase"),
                budget_ms: 250,
            },
            InjectionResult::HarnessFailure {
                panic_msg: nasty("panic"),
            },
        ];
        let classes = [
            ErrorClass::Typo(TypoKind::Omission),
            ErrorClass::Structural(StructuralKind::Duplication),
            ErrorClass::Semantic {
                domain: "dns".into(),
                rule: "a,\"b\"".into(),
            },
        ];
        let verdicts = [
            StaticVerdict::WillFailParse,
            StaticVerdict::WillFailValidate {
                directive: "x".into(),
                class: ValidationClass::InvalidValue,
            },
            StaticVerdict::SemanticallySilent,
            StaticVerdict::Unknown,
        ];
        let tiers = [Tier::Sim, Tier::Proc, Tier::ProcFallback];
        let pinned: [[&str; 3]; 8] = [
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"typo/omission\",\"result\":\"detected-at-startup\",\"verdict\":\"will-fail-parse\",\"tier\":\"sim\",\"detail\":\"diag\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"typo/omission\",\"result\":\"detected-at-startup\",\"verdict\":\"will-fail-parse\",\"tier\":\"sim\",\"detail\":\"diag\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",typo/omission,skill-based,detected-at-startup,will-fail-parse,sim,\"diag\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"structural/duplication\",\"result\":\"detected-by-tests\",\"verdict\":\"will-fail-validate\",\"tier\":\"proc\",\"detail\":\"test\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,: diag\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"structural/duplication\",\"result\":\"detected-by-tests\",\"verdict\":\"will-fail-validate\",\"tier\":\"proc\",\"detail\":\"test\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,: diag\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",structural/duplication,skill-based,detected-by-tests,will-fail-validate,proc,\"test\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,: diag\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"semantic/dns/a,\\\"b\\\"\",\"result\":\"ignored\",\"verdict\":\"semantically-silent\",\"tier\":\"proc-fallback\",\"detail\":\"\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"semantic/dns/a,\\\"b\\\"\",\"result\":\"ignored\",\"verdict\":\"semantically-silent\",\"tier\":\"proc-fallback\",\"detail\":\"\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"semantic/dns/a,\"\"b\"\"\",knowledge-based,ignored,semantically-silent,proc-fallback,,\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"typo/omission\",\"result\":\"ignored\",\"verdict\":\"unknown\",\"tier\":\"sim\",\"detail\":\"w0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,; w1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"typo/omission\",\"result\":\"ignored\",\"verdict\":\"unknown\",\"tier\":\"sim\",\"detail\":\"w0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,; w1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",typo/omission,skill-based,ignored,unknown,sim,\"w0\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,; w1\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"structural/duplication\",\"result\":\"inexpressible\",\"verdict\":\"will-fail-parse\",\"tier\":\"proc\",\"detail\":\"why\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"structural/duplication\",\"result\":\"inexpressible\",\"verdict\":\"will-fail-parse\",\"tier\":\"proc\",\"detail\":\"why\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",structural/duplication,skill-based,inexpressible,will-fail-parse,proc,\"why\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"semantic/dns/a,\\\"b\\\"\",\"result\":\"skipped\",\"verdict\":\"will-fail-validate\",\"tier\":\"proc-fallback\",\"detail\":\"why\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"semantic/dns/a,\\\"b\\\"\",\"result\":\"skipped\",\"verdict\":\"will-fail-validate\",\"tier\":\"proc-fallback\",\"detail\":\"why\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"semantic/dns/a,\"\"b\"\"\",knowledge-based,skipped,will-fail-validate,proc-fallback,\"why\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"typo/omission\",\"result\":\"timed-out\",\"verdict\":\"semantically-silent\",\"tier\":\"sim\",\"detail\":\"phase\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀, exceeded 250 ms\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"typo/omission\",\"result\":\"timed-out\",\"verdict\":\"semantically-silent\",\"tier\":\"sim\",\"detail\":\"phase\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀, exceeded 250 ms\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",typo/omission,skill-based,timed-out,semantically-silent,sim,\"phase\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀, exceeded 250 ms\",\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
            [
                "{\"system\":\"sys,\\\"x\\\"\",\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"structural/duplication\",\"result\":\"harness-failure\",\"verdict\":\"unknown\",\"tier\":\"proc\",\"detail\":\"panic\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "{\"id\":\"id\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"class\":\"structural/duplication\",\"result\":\"harness-failure\",\"verdict\":\"unknown\",\"tier\":\"proc\",\"detail\":\"panic\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"description\":\"desc\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff\":[\"diff0\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\",\"diff1\\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é🦀,\"]}",
                "\"sys,\"\"x\"\"\",\"id\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",structural/duplication,skill-based,harness-failure,unknown,proc,\"panic\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\",\"desc\"\"\\\n\r\t\u{1}\u{1f}\u{7f}é🦀,\"",
            ],
        ];
        for (i, (result, [jsonl, json, csv])) in results.into_iter().zip(pinned).enumerate() {
            let o = InjectionOutcome {
                id: nasty("id"),
                description: nasty("desc"),
                class: classes[i % 3].clone(),
                diff: vec![nasty("diff0"), nasty("diff1")].into(),
                verdict: verdicts[i % 4].clone(),
                tier: tiers[i % 3],
                result,
            };
            assert_eq!(outcome_to_jsonl("sys,\"x\"", &o), jsonl, "case {i}");
            assert_eq!(outcome_to_json(&o), json, "case {i}");
            assert_eq!(outcome_to_csv_row("sys,\"x\"", &o), csv, "case {i}");
        }
    }

    #[test]
    fn robustness_outcomes_export_next_to_the_verdict() {
        let o = InjectionOutcome {
            id: "c#3".into(),
            description: "stall".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            diff: Vec::new().into(),
            verdict: StaticVerdict::Unknown,
            tier: Tier::Sim,
            result: InjectionResult::TimedOut {
                phase: "startup".into(),
                budget_ms: 250,
            },
        };
        let row = outcome_to_csv_row("sut", &o);
        assert!(
            row.contains("timed-out,unknown,sim,startup exceeded 250 ms"),
            "{row}"
        );
        let o = InjectionOutcome {
            result: InjectionResult::HarnessFailure {
                panic_msg: "adapter bug".into(),
            },
            ..o
        };
        let line = outcome_to_jsonl("sut", &o);
        assert!(line.contains("\"result\":\"harness-failure\""), "{line}");
        assert!(line.contains("\"detail\":\"adapter bug\""), "{line}");
        assert!(line.contains("\"verdict\":"), "{line}");
        assert!(line.contains("\"tier\":\"sim\""), "{line}");
    }

    #[test]
    fn tier_column_sits_next_to_the_verdict() {
        let csv = profile_to_csv(&sample());
        assert!(csv.contains(",verdict,tier,"), "{csv}");
        assert!(csv.contains("will-fail-parse,sim,"), "{csv}");
        assert!(csv.contains("unknown,proc,"), "{csv}");
        let json = profile_to_json(&sample());
        assert!(json.contains("\"tier\":\"proc\""), "{json}");
    }

    #[test]
    fn summary_json_carries_robustness_buckets() {
        let json = profile_to_json(&sample());
        assert!(json.contains("\"timed_out\":0"), "{json}");
        assert!(json.contains("\"harness_failures\":0"), "{json}");
    }

    #[test]
    fn empty_profile_exports() {
        let p = ResilienceProfile::new("s", vec![]);
        assert_eq!(profile_to_csv(&p).lines().count(), 1);
        assert!(profile_to_json(&p).contains("\"outcomes\":[]"));
    }
}

//! The replayable bug base: a directory of JSON counterexample records.
//!
//! Every record stores *recipes*, not serialized faults: the system
//! name, workload profile, generator seed and step count reproduce the
//! full plan; the shrinker's [`Selection`](crate::Selection) (kept
//! step ids + kept edit indices) reproduces the minimal plan; the
//! optional chaos spec and deadline reproduce the SUT. The expected
//! trace lines ride along so replay can diff byte-for-byte.
//!
//! Records are single-line JSON, written whole with a trailing
//! newline. Like the campaign checkpoint journal, loading is
//! torn-write safe: a record that does not end with the full closing
//! delimiter (`]}}` — the trace array is always the final field) or is
//! missing required fields is rejected as
//! [`BugBaseError::Malformed`], never misread.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use conferr::push_json_string;
use conferr_sut::ChaosConfig;

/// Seeded chaos rates in integer *per-mille* (so records never print
/// floats and replay is exact). Converts to [`ChaosConfig`] for
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed mixed into every per-fault roll.
    pub seed: u64,
    /// `start` panic rate, per mille.
    pub panic_pm: u32,
    /// `start` stall rate, per mille.
    pub stall_pm: u32,
    /// `start` failure rate, per mille.
    pub fail_pm: u32,
    /// Fabricated functional-test failure rate, per mille.
    pub fail_test_pm: u32,
    /// How long a stall sleeps, in milliseconds.
    pub stall_ms: u64,
}

impl ChaosSpec {
    /// The executable [`ChaosConfig`] these rates describe.
    pub fn to_config(self) -> ChaosConfig {
        ChaosConfig {
            seed: self.seed,
            panic_rate: f64::from(self.panic_pm) / 1000.0,
            stall_rate: f64::from(self.stall_pm) / 1000.0,
            fail_rate: f64::from(self.fail_pm) / 1000.0,
            fail_test_rate: f64::from(self.fail_test_pm) / 1000.0,
            stall_for: Duration::from_millis(self.stall_ms),
        }
    }
}

/// One bug-base record: everything needed to regenerate a failing
/// plan, its minimal counterexample, and the trace both must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugRecord {
    /// SUT name (`mysql`, `postgres`, ...).
    pub system: String,
    /// Workload-profile name the plan was generated with.
    pub profile: String,
    /// Generator seed.
    pub seed: u64,
    /// Step count the plan was generated with.
    pub steps: usize,
    /// The violated property's name.
    pub property: String,
    /// Per-fault deadline in milliseconds, `0` for unlimited.
    pub deadline_ms: u64,
    /// Chaos rates, when the failure needs a chaos wrapper.
    pub chaos: Option<ChaosSpec>,
    /// Stable ids of the minimal plan's steps.
    pub kept: Vec<usize>,
    /// Simplified inject steps, each encoded `"<step id>:<kept edit
    /// indices, comma separated>"`.
    pub kept_edits: Vec<(usize, Vec<usize>)>,
    /// Rendered trace lines of the *minimal* plan.
    pub trace: Vec<String>,
}

/// Reverses [`push_json_string`]'s escapes.
fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Extracts the unsigned integer following `"key":`.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let at = line.find(&marker)? + marker.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts and unescapes the string following `"key":"`.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut end = None;
    let mut escaped = false;
    for (i, c) in line[start..].char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            end = Some(start + i);
            break;
        }
    }
    Some(json_unescape(&line[start..end?]))
}

/// Extracts the raw text between `"key":[` and its matching `]`
/// (strings inside the array are skipped escape-aware).
fn json_array_body<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":[");
    let start = line.find(&marker)? + marker.len();
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line[start..].char_indices() {
        if escaped {
            escaped = false;
        } else if in_string {
            match c {
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_string = true,
                ']' => return Some(&line[start..start + i]),
                _ => {}
            }
        }
    }
    None
}

/// Parses an array of unsigned integers.
fn parse_usize_array(body: &str) -> Option<Vec<usize>> {
    let body = body.trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|piece| piece.trim().parse().ok())
        .collect()
}

/// Parses an array of JSON strings (each unescaped).
fn parse_string_array(body: &str) -> Option<Vec<String>> {
    let mut out = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        if !rest.starts_with('"') {
            return None;
        }
        let inner = &rest[1..];
        let mut end = None;
        let mut escaped = false;
        for (i, c) in inner.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end?;
        out.push(json_unescape(&inner[..end]));
        rest = inner[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(out)
}

/// Parses one `"<step id>:<i>,<i>,..."` kept-edits entry.
fn parse_kept_edits(entry: &str) -> Option<(usize, Vec<usize>)> {
    let (id, indices) = entry.split_once(':')?;
    let indices = if indices.is_empty() {
        Vec::new()
    } else {
        parse_usize_array(indices)?
    };
    Some((id.parse().ok()?, indices))
}

impl BugRecord {
    /// Renders the record as its single-line JSON form (no trailing
    /// newline; [`BugBase::store`] appends one).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"bug\":{\"system\":");
        push_json_string(&mut out, &self.system);
        out.push_str(",\"profile\":");
        push_json_string(&mut out, &self.profile);
        let _ = write!(
            out,
            ",\"seed\":{},\"steps\":{},\"property\":",
            self.seed, self.steps
        );
        push_json_string(&mut out, &self.property);
        let _ = write!(out, ",\"deadline_ms\":{}", self.deadline_ms);
        match &self.chaos {
            Some(c) => {
                let _ = write!(
                    out,
                    ",\"chaos\":{{\"seed\":{},\"panic_pm\":{},\"stall_pm\":{},\"fail_pm\":{},\"fail_test_pm\":{},\"stall_ms\":{}}}",
                    c.seed, c.panic_pm, c.stall_pm, c.fail_pm, c.fail_test_pm, c.stall_ms,
                );
            }
            None => out.push_str(",\"chaos\":null"),
        }
        let kept: Vec<String> = self.kept.iter().map(ToString::to_string).collect();
        let _ = write!(out, ",\"kept\":[{}],\"kept_edits\":[", kept.join(","));
        for (i, (id, indices)) in self.kept_edits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let indices: Vec<String> = indices.iter().map(ToString::to_string).collect();
            push_json_string(&mut out, &format!("{id}:{}", indices.join(",")));
        }
        // The trace array is deliberately the final field: the
        // torn-write check keys on the record's closing `]}}`.
        out.push_str("],\"trace\":[");
        for (i, line) in self.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, line);
        }
        out.push_str("]}}");
        out
    }

    /// Parses one record, `None` if the text is not a complete record
    /// (torn by a crash mid-write, or not a bug record at all).
    pub fn parse_record(line: &str) -> Option<BugRecord> {
        if !line.contains("\"bug\"") || !line.trim_end().ends_with("]}}") {
            return None;
        }
        let chaos = if line.contains("\"chaos\":null") {
            None
        } else {
            let body_at = line.find("\"chaos\":{")?;
            let body = &line[body_at..];
            Some(ChaosSpec {
                seed: json_u64_field(body, "seed")?,
                panic_pm: u32::try_from(json_u64_field(body, "panic_pm")?).ok()?,
                stall_pm: u32::try_from(json_u64_field(body, "stall_pm")?).ok()?,
                fail_pm: u32::try_from(json_u64_field(body, "fail_pm")?).ok()?,
                fail_test_pm: u32::try_from(json_u64_field(body, "fail_test_pm")?).ok()?,
                stall_ms: json_u64_field(body, "stall_ms")?,
            })
        };
        Some(BugRecord {
            system: json_str_field(line, "system")?,
            profile: json_str_field(line, "profile")?,
            // The chaos object nests its own "seed"/"steps"-free
            // fields after the top-level ones, so first-match wins
            // and stays unambiguous.
            seed: json_u64_field(line, "seed")?,
            steps: usize::try_from(json_u64_field(line, "steps")?).ok()?,
            property: json_str_field(line, "property")?,
            deadline_ms: json_u64_field(line, "deadline_ms")?,
            chaos,
            kept: parse_usize_array(json_array_body(line, "kept")?)?,
            kept_edits: parse_string_array(json_array_body(line, "kept_edits")?)?
                .iter()
                .map(|entry| parse_kept_edits(entry))
                .collect::<Option<Vec<_>>>()?,
            trace: parse_string_array(json_array_body(line, "trace")?)?,
        })
    }

    /// The record's canonical file name within a bug base.
    pub fn file_name(&self) -> String {
        format!(
            "bug-{}-{}-{}-{}.json",
            self.system, self.property, self.profile, self.seed
        )
    }
}

/// Why a bug-base record failed to load.
#[derive(Debug)]
pub enum BugBaseError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file's contents are not a complete bug record (torn write,
    /// truncation, or foreign content).
    Malformed {
        /// The offending file.
        path: PathBuf,
    },
}

impl std::fmt::Display for BugBaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BugBaseError::Io(e) => write!(f, "bug base i/o error: {e}"),
            BugBaseError::Malformed { path } => {
                write!(f, "malformed bug record: {}", path.display())
            }
        }
    }
}

impl std::error::Error for BugBaseError {}

impl From<io::Error> for BugBaseError {
    fn from(e: io::Error) -> Self {
        BugBaseError::Io(e)
    }
}

/// A directory of [`BugRecord`] files, one record per file.
#[derive(Debug, Clone)]
pub struct BugBase {
    dir: PathBuf,
}

impl BugBase {
    /// Opens (without creating) a bug base rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        BugBase { dir: dir.into() }
    }

    /// The base directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a record stores to.
    pub fn path_for(&self, record: &BugRecord) -> PathBuf {
        self.dir.join(record.file_name())
    }

    /// Writes (or overwrites) a record, creating the directory if
    /// needed. Returns the path written.
    pub fn store(&self, record: &BugRecord) -> Result<PathBuf, BugBaseError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(record);
        std::fs::write(&path, record.to_json() + "\n")?;
        Ok(path)
    }

    /// Loads one record from an explicit path.
    pub fn load(path: &Path) -> Result<BugRecord, BugBaseError> {
        let text = std::fs::read_to_string(path)?;
        BugRecord::parse_record(&text).ok_or(BugBaseError::Malformed {
            path: path.to_path_buf(),
        })
    }

    /// Loads every record in the base, sorted by file name (so sweeps
    /// iterate deterministically). A missing directory is an empty
    /// base.
    pub fn records(&self) -> Result<Vec<(PathBuf, BugRecord)>, BugBaseError> {
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        paths.sort();
        paths
            .into_iter()
            .map(|path| Self::load(&path).map(|record| (path, record)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> BugRecord {
        BugRecord {
            system: "mysql".to_string(),
            profile: "operator-default".to_string(),
            seed: 42,
            steps: 12,
            property: "recovers-after-revert".to_string(),
            deadline_ms: 0,
            chaos: Some(ChaosSpec {
                seed: 7,
                panic_pm: 0,
                stall_pm: 0,
                fail_pm: 350,
                fail_test_pm: 200,
                stall_ms: 5,
            }),
            kept: vec![0, 3, 7],
            kept_edits: vec![(3, vec![0, 2]), (7, vec![])],
            trace: vec![
                "step 0 inject f0 active=[0] -> undetected".to_string(),
                "line with \"quotes\" and\nnewline".to_string(),
            ],
        }
    }

    #[test]
    fn records_round_trip_including_escapes_and_empty_indices() {
        let record = sample();
        let json = record.to_json();
        assert!(json.starts_with("{\"bug\":{"));
        assert!(json.ends_with("]}}"));
        assert!(!json.contains('\n'), "single line");
        assert_eq!(BugRecord::parse_record(&json), Some(record));

        let no_chaos = BugRecord {
            chaos: None,
            kept_edits: vec![],
            trace: vec![],
            ..sample()
        };
        assert_eq!(BugRecord::parse_record(&no_chaos.to_json()), Some(no_chaos));
    }

    proptest! {
        /// `json_unescape` inverts the exporter's escaper for any
        /// string, and the record scanner finds the escaped string's
        /// end: mostly ASCII (every control character, quote and
        /// backslash), with some characters from the whole range.
        #[test]
        fn unescape_inverts_the_exporters_escaper(
            chars in prop::collection::vec(
                prop_oneof![
                    prop::char::range('\0', '\u{7f}'),
                    prop::char::range('\0', char::MAX),
                ],
                0..40,
            )
        ) {
            let s: String = chars.into_iter().collect();
            let mut escaped = String::new();
            push_json_string(&mut escaped, &s);
            prop_assert_eq!(json_unescape(&escaped[1..escaped.len() - 1]), s.clone());
            prop_assert_eq!(parse_string_array(&escaped), Some(vec![s]));
        }
    }

    #[test]
    fn torn_and_foreign_lines_are_rejected() {
        let json = sample().to_json();
        for cut in [1, json.len() / 2, json.len() - 1] {
            assert_eq!(BugRecord::parse_record(&json[..cut]), None, "cut at {cut}");
        }
        assert_eq!(BugRecord::parse_record("{\"checkpoint\":{}}"), None);
        assert_eq!(BugRecord::parse_record(""), None);
    }

    #[test]
    fn store_load_and_enumerate() {
        let dir = std::env::temp_dir().join(format!("conferr-bugbase-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = BugBase::new(&dir);
        assert!(base.records().unwrap().is_empty(), "missing dir is empty");

        let record = sample();
        let path = base.store(&record).unwrap();
        assert_eq!(BugBase::load(&path).unwrap(), record);
        let listed = base.records().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].1, record);

        std::fs::write(dir.join("torn.json"), &record.to_json()[..40]).unwrap();
        assert!(matches!(
            base.records(),
            Err(BugBaseError::Malformed { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

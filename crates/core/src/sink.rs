//! Outcome sinks — the streaming end of the campaign pipeline.
//!
//! An [`OutcomeSink`] receives [`InjectionOutcome`]s one at a time,
//! **in fault order**, as the campaign drivers complete them. Sinks
//! are what decouple a campaign's memory from its size: a collecting
//! sink reproduces today's in-memory [`ResilienceProfile`], while the
//! counting and writer-backed sinks hold O(1) state no matter how many
//! faults flow through — the bounded-memory half of a million-fault
//! campaign (source → chunked queue → sink; see
//! `docs/ARCHITECTURE.md`).
//!
//! Every driver guarantees in-order delivery: the serial loop
//! ([`crate::Campaign::run_source`], and a 1-thread
//! [`crate::CampaignExecutor`]) completes faults in order outright,
//! and a pooled executor reorders worker completions through a
//! bounded buffer before the sink sees them, so a streamed export is
//! byte-identical to exporting the collected profile.

use std::io;

use crate::export::{push_csv_row, push_jsonl_row, CSV_HEADER};
use crate::{InjectionOutcome, ProfileSummary, ResilienceProfile};

/// A consumer of campaign outcomes, fed in fault order as injections
/// complete.
///
/// # Examples
///
/// A sink that keeps only undetected faults:
///
/// ```
/// use conferr::{InjectionOutcome, OutcomeSink};
///
/// #[derive(Default)]
/// struct Undetected(Vec<String>);
///
/// impl OutcomeSink for Undetected {
///     fn accept(&mut self, outcome: InjectionOutcome) {
///         if !outcome.result.detected() {
///             self.0.push(outcome.id);
///         }
///     }
/// }
/// ```
pub trait OutcomeSink {
    /// Receives the next completed outcome. Called exactly once per
    /// fault, in fault order.
    fn accept(&mut self, outcome: InjectionOutcome);

    /// Takes the sink's pending I/O error, if it has one. The
    /// campaign drivers poll this after delivering outcomes and abort
    /// the run with `CampaignError::SinkIo` when it returns `Some` —
    /// a full disk stops the campaign cleanly instead of silently
    /// discarding the rest of the stream. In-memory sinks (the
    /// default) never error.
    fn take_error(&mut self) -> Option<io::Error> {
        None
    }
}

impl<S: OutcomeSink + ?Sized> OutcomeSink for &mut S {
    fn accept(&mut self, outcome: InjectionOutcome) {
        (**self).accept(outcome);
    }

    fn take_error(&mut self) -> Option<io::Error> {
        (**self).take_error()
    }
}

impl<S: OutcomeSink + ?Sized> OutcomeSink for Box<S> {
    fn accept(&mut self, outcome: InjectionOutcome) {
        (**self).accept(outcome);
    }

    fn take_error(&mut self) -> Option<io::Error> {
        (**self).take_error()
    }
}

/// Collects every outcome into memory — the sink behind all the
/// profile-returning entry points, reproducing the pre-streaming
/// behaviour exactly.
#[derive(Debug, Default)]
pub struct CollectingSink {
    outcomes: Vec<InjectionOutcome>,
}

impl CollectingSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// An empty collector with room for `n` outcomes.
    pub fn with_capacity(n: usize) -> Self {
        CollectingSink {
            outcomes: Vec::with_capacity(n),
        }
    }

    /// Outcomes collected so far.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` iff nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Wraps the collected outcomes into a profile.
    pub fn into_profile(self, system: impl Into<String>) -> ResilienceProfile {
        ResilienceProfile::new(system, self.outcomes)
    }

    /// The collected outcomes, in fault order.
    pub fn into_outcomes(self) -> Vec<InjectionOutcome> {
        self.outcomes
    }
}

impl OutcomeSink for CollectingSink {
    fn accept(&mut self, outcome: InjectionOutcome) {
        self.outcomes.push(outcome);
    }
}

/// Folds outcomes into a running [`ProfileSummary`] and drops them —
/// O(1) memory regardless of campaign size. This is the sink the
/// million-fault smoke run drains through: the aggregate Table 1
/// numbers survive, the per-fault records do not.
#[derive(Debug, Default)]
pub struct CountingSink {
    summary: ProfileSummary,
}

impl CountingSink {
    /// An empty counter.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// A counter resuming from previously accumulated counts — the
    /// restore half of checkpoint/resume (see
    /// [`crate::CheckpointSink`]): seed it with the journaled summary
    /// and the resumed run continues the same totals.
    pub fn with_summary(summary: ProfileSummary) -> Self {
        CountingSink { summary }
    }

    /// The counts accumulated so far.
    pub fn summary(&self) -> ProfileSummary {
        self.summary
    }
}

impl OutcomeSink for CountingSink {
    fn accept(&mut self, outcome: InjectionOutcome) {
        self.summary.absorb(&outcome.result);
    }
}

/// The writing half both exporting sinks share: one row buffer,
/// reused for every row and written with its newline in one
/// `write_all`, and the first I/O error, held for
/// [`OutcomeSink::take_error`] and `finish`.
#[derive(Debug)]
struct RowWriter<W: io::Write> {
    writer: W,
    row: String,
    error: Option<io::Error>,
    /// The error was already handed to a driver via `take_error`;
    /// `finish` must still fail, just without the moved-out cause.
    tripped: bool,
}

impl<W: io::Write> RowWriter<W> {
    fn new(writer: W) -> Self {
        RowWriter {
            writer,
            row: String::new(),
            error: None,
            tripped: false,
        }
    }

    /// Encodes one row into the buffer and writes it with its newline;
    /// does nothing once a write has failed.
    fn write_row(&mut self, encode: impl FnOnce(&mut String)) {
        if self.error.is_some() || self.tripped {
            return;
        }
        self.row.clear();
        encode(&mut self.row);
        self.row.push('\n');
        if let Err(e) = self.writer.write_all(self.row.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn take_error(&mut self) -> Option<io::Error> {
        let error = self.error.take();
        if error.is_some() {
            self.tripped = true;
        }
        error
    }

    fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.tripped {
            return Err(io::Error::other(
                "a streaming write failed (already reported)",
            ));
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Streams outcomes as CSV rows (the exact format of
/// [`crate::profile_to_csv`]) into any writer: the header up front
/// (so even a zero-fault campaign's export matches
/// `profile_to_csv(&empty_profile)` byte for byte), then one record
/// per outcome. O(1) memory; I/O errors are recorded and reported by
/// [`CsvSink::finish`] rather than panicking mid-campaign.
#[derive(Debug)]
pub struct CsvSink<W: io::Write> {
    system: String,
    rows: RowWriter<W>,
}

impl<W: io::Write> CsvSink<W> {
    /// A CSV sink labelling every row with `system`. Writes the
    /// header immediately (an I/O failure surfaces in
    /// [`CsvSink::finish`]).
    pub fn new(system: impl Into<String>, writer: W) -> Self {
        let mut rows = RowWriter::new(writer);
        rows.write_row(|row| row.push_str(CSV_HEADER));
        CsvSink {
            system: system.into(),
            rows,
        }
    }

    /// Flushes and returns the writer, surfacing the first I/O error
    /// hit while streaming.
    ///
    /// # Errors
    ///
    /// The first write/flush failure, if any occurred — even when the
    /// error itself was already surfaced through
    /// [`OutcomeSink::take_error`].
    pub fn finish(self) -> io::Result<W> {
        self.rows.finish()
    }
}

impl<W: io::Write> OutcomeSink for CsvSink<W> {
    fn accept(&mut self, outcome: InjectionOutcome) {
        let system = &self.system;
        self.rows
            .write_row(|row| push_csv_row(row, system, &outcome));
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.rows.take_error()
    }
}

/// Streams outcomes as JSON Lines (one [`crate::outcome_to_jsonl`]
/// object per line) into any writer. O(1) memory; I/O errors surface
/// via [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    system: String,
    rows: RowWriter<W>,
}

impl<W: io::Write> JsonlSink<W> {
    /// A JSONL sink labelling every record with `system`.
    pub fn new(system: impl Into<String>, writer: W) -> Self {
        JsonlSink {
            system: system.into(),
            rows: RowWriter::new(writer),
        }
    }

    /// Flushes and returns the writer, surfacing the first I/O error
    /// hit while streaming.
    ///
    /// # Errors
    ///
    /// The first write/flush failure, if any occurred — even when the
    /// error itself was already surfaced through
    /// [`OutcomeSink::take_error`].
    pub fn finish(self) -> io::Result<W> {
        self.rows.finish()
    }
}

impl<W: io::Write> OutcomeSink for JsonlSink<W> {
    fn accept(&mut self, outcome: InjectionOutcome) {
        let system = &self.system;
        self.rows
            .write_row(|row| push_jsonl_row(row, system, &outcome));
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.rows.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile_to_csv, InjectionResult};
    use conferr_model::{ErrorClass, TypoKind};

    fn outcome(id: &str) -> InjectionOutcome {
        InjectionOutcome {
            id: id.to_string(),
            description: format!("desc {id}"),
            class: ErrorClass::Typo(TypoKind::Omission),
            diff: vec![format!("- {id}")].into(),
            verdict: conferr_analysis::StaticVerdict::Unknown,
            tier: conferr_sut::Tier::Sim,
            result: InjectionResult::DetectedAtStartup {
                diagnostic: "bad, line".to_string(),
            },
        }
    }

    #[test]
    fn collecting_sink_reproduces_a_profile() {
        let mut sink = CollectingSink::new();
        sink.accept(outcome("a"));
        sink.accept(outcome("b"));
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        let profile = sink.into_profile("sut");
        assert_eq!(profile.outcomes()[0].id, "a");
        assert_eq!(profile.outcomes()[1].id, "b");
    }

    #[test]
    fn counting_sink_matches_profile_summary() {
        let mut counting = CountingSink::new();
        let mut collecting = CollectingSink::new();
        for id in ["a", "b", "c"] {
            counting.accept(outcome(id));
            collecting.accept(outcome(id));
        }
        assert_eq!(counting.summary(), collecting.into_profile("s").summary());
    }

    #[test]
    fn csv_sink_streams_byte_identically_to_profile_export() {
        let outcomes: Vec<InjectionOutcome> =
            ["a", "b,c", "d\"e"].iter().map(|id| outcome(id)).collect();
        let mut sink = CsvSink::new("my,sut", Vec::new());
        for o in &outcomes {
            sink.accept(o.clone());
        }
        let streamed = String::from_utf8(sink.finish().unwrap()).unwrap();
        let profile = ResilienceProfile::new("my,sut", outcomes);
        assert_eq!(streamed, profile_to_csv(&profile));
    }

    #[test]
    fn empty_csv_sink_matches_empty_profile_export() {
        let sink = CsvSink::new("s", Vec::new());
        let streamed = String::from_utf8(sink.finish().unwrap()).unwrap();
        let empty = ResilienceProfile::new("s", vec![]);
        assert_eq!(
            streamed,
            profile_to_csv(&empty),
            "header-only, like the profile export"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_self_describing_object_per_line() {
        let mut sink = JsonlSink::new("sut", Vec::new());
        sink.accept(outcome("a"));
        sink.accept(outcome("b"));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"system\":\"sut\",\"id\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert_eq!(
            lines[1].matches("\"id\":\"b\"").count(),
            1,
            "records stream in fault order"
        );
    }

    #[test]
    fn writer_errors_surface_in_finish_not_accept() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CsvSink::new("s", Failing);
        sink.accept(outcome("a")); // must not panic
        sink.accept(outcome("b"));
        assert!(sink.finish().is_err());
    }

    #[test]
    fn take_error_drains_once_and_finish_still_fails() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new("s", Failing);
        assert!(sink.take_error().is_none(), "no error before any write");
        sink.accept(outcome("a"));
        let taken = sink.take_error().expect("first write failed");
        assert_eq!(taken.to_string(), "disk full");
        assert!(sink.take_error().is_none(), "error is taken once");
        sink.accept(outcome("b")); // tripped: stays a no-op
        assert!(sink.finish().is_err(), "finish still reports failure");
    }

    #[test]
    fn in_memory_sinks_never_error() {
        let mut sink = CollectingSink::new();
        sink.accept(outcome("a"));
        assert!(sink.take_error().is_none());
        let mut counting = CountingSink::with_summary(sink.into_profile("s").summary());
        assert_eq!(counting.summary().total, 1);
        counting.accept(outcome("b"));
        assert_eq!(counting.summary().total, 2, "resumed counts continue");
        assert!(counting.take_error().is_none());
    }
}

//! Output digests: every submission's outcomes are folded into one
//! 64-bit FNV-1a value that the run compares against the digest
//! recorded for its workload and seed.

use std::fmt::{self, Write as _};
use std::io;

use conferr::{InjectionOutcome, InjectionResult, OutcomeSink, ProfileSummary};

/// A running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one string field in, terminated so that adjacent fields
    /// cannot run into each other.
    pub fn field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Folds a previously finished digest in.
    pub fn digest(&mut self, d: u64) {
        self.write(&d.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Formatting into the hash folds the text in without allocating it.
impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// An [`io::Write`] that hashes everything written to it, so an
/// exporting sink's bytes are checked without being kept.
#[derive(Debug, Default)]
pub struct FnvWriter(pub Fnv);

impl io::Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Folds every field of one outcome row into `h`: the identity, the
/// error class, the result with its diagnostics, the static verdict,
/// the tier and the diff lines.
pub fn digest_outcome(h: &mut Fnv, o: &InjectionOutcome) {
    h.field(&o.id);
    h.field(&o.description);
    let _ = write!(h, "{}", o.class);
    h.write(&[0xff]);
    h.field(o.result.label());
    match &o.result {
        InjectionResult::DetectedAtStartup { diagnostic } => h.field(diagnostic),
        InjectionResult::DetectedByFunctionalTest { test, diagnostic } => {
            h.field(test);
            h.field(diagnostic);
        }
        InjectionResult::Undetected { warnings } => warnings.iter().for_each(|w| h.field(w)),
        InjectionResult::Inexpressible { reason } | InjectionResult::Skipped { reason } => {
            h.field(reason);
        }
        InjectionResult::TimedOut { phase, budget_ms } => {
            h.field(phase);
            h.digest(*budget_ms);
        }
        InjectionResult::HarnessFailure { panic_msg } => h.field(panic_msg),
    }
    h.field(o.verdict.label());
    h.field(o.tier.label());
    o.diff.iter().for_each(|line| h.field(line));
}

/// The benchmark's own outermost sink layer: tallies every outcome
/// (the `failed` count comes from here) and, when asked, digests each
/// row before forwarding it to the workload's sink.
#[derive(Debug)]
pub struct Checked<S> {
    inner: S,
    summary: ProfileSummary,
    digest: Option<Fnv>,
}

impl<S> Checked<S> {
    /// Tallies outcomes; the inner sink's own output is what gets
    /// digested.
    pub fn new(inner: S) -> Self {
        Checked {
            inner,
            summary: ProfileSummary::default(),
            digest: None,
        }
    }

    /// Tallies and digests every outcome — for sinks that keep no
    /// per-fault output of their own.
    pub fn hashing(inner: S) -> Self {
        Checked {
            digest: Some(Fnv::default()),
            ..Checked::new(inner)
        }
    }

    /// The wrapped sink, the tally and the row digest (when hashing).
    pub fn into_parts(self) -> (S, ProfileSummary, Option<u64>) {
        (self.inner, self.summary, self.digest.map(Fnv::finish))
    }
}

impl<S: OutcomeSink> OutcomeSink for Checked<S> {
    fn accept(&mut self, outcome: InjectionOutcome) {
        self.summary.absorb(&outcome.result);
        if let Some(h) = &mut self.digest {
            digest_outcome(h, &outcome);
        }
        self.inner.accept(outcome);
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.inner.take_error()
    }
}

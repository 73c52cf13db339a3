//! Simulated systems-under-test for ConfErr campaigns.
//!
//! The paper evaluates ConfErr against five production servers:
//! MySQL 5.1, Postgres 8.2, Apache httpd 2.2, ISC BIND 9.4 and djbdns
//! 1.05. This crate provides in-process simulations of each —
//! [`MySqlSim`], [`PostgresSim`], [`ApacheSim`], [`BindSim`],
//! [`DjbdnsSim`] — that reproduce the systems' *configuration-handling
//! behaviour*: which mistakes each parser rejects at startup, which
//! slip through to functional failures, and which are silently
//! ignored, including the specific flaws the paper documents in §5.2
//! (see each simulator's module docs for its flaw inventory).
//!
//! Three substrates give the simulators real behaviour to test:
//!
//! * [`minidb`] — a small relational engine with a SQL subset, used by
//!   the database functional tests;
//! * [`minihttp`] — virtual-host HTTP request handling over an
//!   in-memory filesystem, used by the web-server functional test;
//! * [`minidns`] — a DNS record store and resolver with CNAME chasing,
//!   used by both name servers.
//!
//! Every simulator implements [`SystemUnderTest`]: the campaign driver
//! feeds it a [`ConfigPayload`] of serialized (possibly
//! fault-injected) configuration text, starts it, runs its functional
//! tests and classifies the outcome. Because the simulators are
//! deterministic functions of that text, each memoizes its
//! parse-and-validate startup path through a [`ParseCache`], in the
//! startup slot of the payload file it starts from — one file provably
//! yields one [`StartOutcome`], so a repeated start from that file, or
//! from any clone of it, costs a lookup instead of a re-parse on every
//! simulator instance, while each freshly serialized file takes the
//! full paper-faithful startup path on its first start (see
//! [`payload`] for the design).
//!
//! # Architecture
//!
//! This crate is the *case-study layer* of the reproduction (paper
//! §5): in the workspace DAG
//! `tree → {keyboard, formats, model} → {plugins, sut} → core → bench`
//! it sits alongside the error-generator plugins, consuming the
//! format layer ([`conferr_formats`]) and being driven by the
//! campaign engine in `conferr` (core).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod apache;
mod appserver;
mod bind;
pub mod chaos;
mod deadline;
mod djbdns;
pub mod minidb;
pub mod minidns;
pub mod minihttp;
mod mysql;
pub mod payload;
mod postgres;

pub use apache::ApacheSim;
pub use appserver::AppServerSim;
pub use bind::BindSim;
pub use chaos::{ChaosAction, ChaosConfig, ChaosSut, CHAOS_PREFIX};
pub use deadline::Deadline;
pub use djbdns::DjbdnsSim;
pub use mysql::MySqlSim;
pub use payload::{CacheStats, ConfigPayload, FileText, ParseCache, TextOrigin};
pub use postgres::PostgresSim;

// The declarative schemas the simulators expose for static analysis.
pub use conferr_analysis::{schema_for, DirectiveSchema};

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// One configuration file a system expects: its name, its
/// [`conferr_formats`] format identifier and the default contents
/// shipped with the system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigFileSpec {
    /// File name within the configuration set, e.g. `"my.cnf"`.
    pub name: String,
    /// Format identifier understood by
    /// [`conferr_formats::format_by_name`].
    pub format: String,
    /// The default contents that ship with the system.
    pub default_contents: String,
}

/// Which execution tier produced an outcome: the in-process
/// simulators, a process-backed adapter, or the simulator standing in
/// for an unavailable process tier.
///
/// The campaign engine records the tier of the SUT that served each
/// fault on its [`conferr::InjectionOutcome`] row (exported in the
/// `tier` CSV/JSON column), so mixed-tier batches stay auditable:
/// every verdict says whether it came from the model or from a real
/// process.
///
/// [`conferr::InjectionOutcome`]: https://docs.rs/conferr
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// An in-process simulator answered.
    Sim,
    /// An external process (spawned in a sandbox) answered.
    Proc,
    /// The process tier was unavailable or degraded, so the simulator
    /// answered in its place.
    ProcFallback,
}

impl Tier {
    /// Short label used in exports: `sim`, `proc` or `proc-fallback`.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Sim => "sim",
            Tier::Proc => "proc",
            Tier::ProcFallback => "proc-fallback",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of starting the system with a set of configuration files.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartOutcome {
    /// The system came up cleanly.
    Started,
    /// The system came up but logged warnings an attentive operator
    /// could notice.
    StartedWithWarnings {
        /// The warning messages.
        warnings: Vec<String>,
    },
    /// The system refused to start (it *detected* the configuration
    /// error).
    FailedToStart {
        /// The diagnostic the system printed.
        diagnostic: String,
    },
    /// The start phase overran its **hard** wall-clock budget and the
    /// adapter killed the system. In-process simulators never report
    /// this (the engine's soft [`Deadline`] check covers them);
    /// process-backed adapters do, because a hung child is reaped by
    /// the supervisor before the soft deadline machinery ever sees the
    /// overrun. The engine classifies it as
    /// `InjectionResult::TimedOut` with the adapter's phase name.
    TimedOut {
        /// Which phase overran (process adapters report `"process"`).
        phase: String,
        /// The hard budget that was enforced, in milliseconds.
        budget_ms: u64,
    },
}

impl StartOutcome {
    /// `true` iff the system is running (with or without warnings).
    pub fn is_running(&self) -> bool {
        matches!(
            self,
            StartOutcome::Started | StartOutcome::StartedWithWarnings { .. }
        )
    }
}

impl fmt::Display for StartOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartOutcome::Started => f.write_str("started"),
            StartOutcome::StartedWithWarnings { warnings } => {
                write!(f, "started with {} warning(s)", warnings.len())
            }
            StartOutcome::FailedToStart { diagnostic } => {
                write!(f, "failed to start: {diagnostic}")
            }
            StartOutcome::TimedOut { phase, budget_ms } => {
                write!(f, "killed after {budget_ms} ms in phase {phase}")
            }
        }
    }
}

/// Result of one functional test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestOutcome {
    /// The test passed.
    Passed,
    /// The test failed with a diagnostic.
    Failed {
        /// What went wrong, as the test script would report it.
        diagnostic: String,
    },
}

impl TestOutcome {
    /// `true` iff the test passed.
    pub fn passed(&self) -> bool {
        matches!(self, TestOutcome::Passed)
    }

    /// Convenience constructor for failures.
    pub fn failed(diagnostic: impl Into<String>) -> Self {
        TestOutcome::Failed {
            diagnostic: diagnostic.into(),
        }
    }
}

/// A system that ConfErr can test: start it from configuration text,
/// run domain-specific functional tests, stop it.
///
/// Implementations are deterministic state machines: `start` parses
/// and validates the configuration exactly as the real system's
/// startup path would, `run_test` exercises the running instance the
/// way an administrator's smoke script would (paper §5.1: create a
/// table and query it; fetch a page; resolve forward and reverse
/// names). Determinism is what makes the [`ParseCache`] sound: the
/// same configuration bytes under the same file name must always
/// produce the same startup state and [`StartOutcome`], since every
/// instance that starts from one payload file reads the startup state
/// the first of them built.
///
/// # Examples
///
/// ```
/// use conferr_sut::{default_payload, Deadline, MySqlSim, SystemUnderTest};
///
/// let mut sut = MySqlSim::new();
/// let payload = default_payload(&sut);
/// let deadline = Deadline::unlimited();
/// assert!(sut.start(&payload, &deadline).is_running());
/// for test in sut.test_names() {
///     assert!(sut.run_test(&test, &deadline).passed());
/// }
/// sut.stop();
/// ```
pub trait SystemUnderTest: fmt::Debug {
    /// System name, e.g. `"mysql-sim"`.
    fn name(&self) -> &str;

    /// The configuration files the system reads, with defaults.
    fn config_files(&self) -> Vec<ConfigFileSpec>;

    /// Starts the system from the serialized configuration payload
    /// (shared per-file text, as produced by serializing a mutated
    /// configuration set — see [`ConfigPayload`]).
    ///
    /// `deadline` is the soft budget for the whole fault cycle.
    /// In-process simulators may ignore it (the campaign engine
    /// checks expiry after each phase); adapters that wait on
    /// external processes should bound the wait by
    /// [`Deadline::remaining`].
    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome;

    /// Names of the functional tests, in execution order.
    fn test_names(&self) -> Vec<String>;

    /// Runs one functional test against the started system, under the
    /// same soft `deadline` as the start phase.
    fn run_test(&mut self, test: &str, deadline: &Deadline) -> TestOutcome;

    /// Stops the system and discards runtime state.
    fn stop(&mut self);

    /// Enables or disables startup parse memoization, when the
    /// implementation has a [`ParseCache`]. Disabling yields the
    /// reference cold path: every `start` re-parses from text.
    /// Default: no-op for implementations without a cache.
    fn set_parse_caching(&mut self, _enabled: bool) {}

    /// Parse-cache counters, or `None` when the implementation does
    /// not memoize startup parsing.
    fn parse_cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// The system's declarative directive schema — files, dialect
    /// models and per-test read-sets — when one has been extracted.
    /// Static analysis (pre-flight linting, test-impact pruning) is
    /// only available for systems that return `Some`. Default: `None`.
    fn schema(&self) -> Option<&'static DirectiveSchema> {
        None
    }

    /// Which [`Tier`] served the most recent `start` (or will serve
    /// the next one, before any start has run). The campaign engine
    /// stamps this on every outcome row. Default: [`Tier::Sim`] — the
    /// in-process simulators are the base tier; process-backed
    /// adapters and tier-mixing wrappers override it.
    fn tier(&self) -> Tier {
        Tier::Sim
    }
}

/// Builds the default configuration text map for a system — the
/// starting point of every campaign.
pub fn default_configs(sut: &dyn SystemUnderTest) -> BTreeMap<String, String> {
    sut.config_files()
        .into_iter()
        .map(|spec| (spec.name, spec.default_contents))
        .collect()
}

/// Builds the default configuration payload for a system, tagging
/// every file as baseline text. Each call makes fresh files, so the
/// first start from each call's payload parses it in full.
pub fn default_payload(sut: &dyn SystemUnderTest) -> ConfigPayload {
    sut.config_files()
        .into_iter()
        .map(|spec| (spec.name, FileText::baseline(spec.default_contents)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_sims_start_crlf_copies_of_their_defaults_like_the_originals() {
        let deadline = Deadline::unlimited();
        let sims: [Box<dyn SystemUnderTest>; 2] =
            [Box::new(BindSim::new()), Box::new(DjbdnsSim::new())];
        for mut sut in sims {
            let lf = default_configs(sut.as_ref());
            let crlf: BTreeMap<String, String> = lf
                .iter()
                .map(|(file, text)| (file.clone(), text.replace('\n', "\r\n")))
                .collect();
            // Each CRLF file survives the parse and serialization that
            // every untouched file of a campaign goes through.
            for spec in sut.config_files() {
                let format = conferr_formats::format_by_name(&spec.format).unwrap();
                let text = &crlf[&spec.name];
                let tree = format.parse(text).unwrap();
                assert_eq!(&format.serialize(&tree).unwrap(), text, "{}", spec.name);
            }
            let mut run = |texts: &BTreeMap<String, String>| {
                let start = sut.start(&ConfigPayload::from_texts(texts), &deadline);
                let tests: Vec<TestOutcome> = sut
                    .test_names()
                    .iter()
                    .map(|test| sut.run_test(test, &deadline))
                    .collect();
                sut.stop();
                (start, tests)
            };
            let original = run(&lf);
            assert_eq!(original.0, StartOutcome::Started);
            assert!(original.1.iter().all(|t| *t == TestOutcome::Passed));
            assert_eq!(run(&crlf), original);
        }
    }

    #[test]
    fn outcome_accessors() {
        assert!(StartOutcome::Started.is_running());
        assert!(StartOutcome::StartedWithWarnings {
            warnings: vec!["w".into()]
        }
        .is_running());
        assert!(!StartOutcome::FailedToStart {
            diagnostic: "bad".into()
        }
        .is_running());
        assert!(TestOutcome::Passed.passed());
        assert!(!TestOutcome::failed("nope").passed());
    }

    #[test]
    fn outcome_display() {
        assert_eq!(StartOutcome::Started.to_string(), "started");
        assert!(StartOutcome::FailedToStart {
            diagnostic: "x".into()
        }
        .to_string()
        .contains("x"));
    }

    #[test]
    fn hard_timeout_outcome_is_not_running() {
        let t = StartOutcome::TimedOut {
            phase: "process".into(),
            budget_ms: 250,
        };
        assert!(!t.is_running());
        assert!(t.to_string().contains("250 ms"));
        assert!(t.to_string().contains("process"));
    }

    #[test]
    fn tier_labels() {
        assert_eq!(Tier::Sim.label(), "sim");
        assert_eq!(Tier::Proc.label(), "proc");
        assert_eq!(Tier::ProcFallback.to_string(), "proc-fallback");
        // Simulators sit on the base tier by default.
        let sut = MySqlSim::new();
        assert_eq!(sut.tier(), Tier::Sim);
    }
}

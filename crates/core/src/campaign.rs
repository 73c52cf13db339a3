//! The end-to-end injection campaign driver (paper §3.1, Figure 1).
//!
//! A [`Campaign`] wires together the pieces: it parses the SUT's
//! configuration files into a [`ConfigSet`], asks each error-generator
//! plugin for its fault load, and for every fault performs the
//! inject → serialize → start → test → classify cycle, producing a
//! [`ResilienceProfile`]. "None of these require human intervention."
//!
//! The per-injection hot path is allocation-lean: scenarios
//! copy-on-write only the file(s) they edit (see
//! [`conferr_model::FaultScenario::apply`]), and the driver keeps the
//! baseline's serialized text cached as `Arc<str>` payload entries
//! ([`conferr_sut::FileText`]) so a file whose tree is still
//! pointer-shared with the baseline is neither re-serialized nor
//! diffed — its shared text (plus precomputed content identity) is
//! handed to the SUT, whose [`conferr_sut::ParseCache`] then skips
//! re-parsing it at startup. A campaign runs on the executor's serial
//! loop over its borrowed SUT; for multi-core throughput,
//! [`crate::CampaignExecutor`] shards fault loads across worker
//! threads over the same kind of shared engine.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use conferr_analysis::{FaultLinter, Lint, PrunePlan, StaticVerdict, TouchMap};
use conferr_formats::{format_by_name, ConfigFormat};
use conferr_model::{
    ConfigSet, ErrorGenerator, FaultScenario, FaultSource, GenerateError, GeneratedFault, TreeEdit,
};
use conferr_sut::{ConfigPayload, Deadline, FileText, StartOutcome, SystemUnderTest, Tier};
use conferr_tree::diff;
use parking_lot::Mutex;

use crate::executor::{serial_loop, ExecPolicy, SutSlot};
use crate::{InjectionOutcome, InjectionResult, ResilienceProfile};

/// Maximum number of diff lines recorded per injection.
const MAX_DIFF_LINES: usize = 6;

/// Fault-memo entries retained before the table is reset wholesale.
/// Sized far above any single fault load; the epoch clear merely
/// bounds memory on unbounded campaign streams.
const FAULT_MEMO_CAPACITY: usize = 8192;

/// Errors that abort a whole campaign (as opposed to per-injection
/// outcomes, which are recorded in the profile).
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// A configuration file declared by the SUT uses an unknown
    /// format.
    UnknownFormat {
        /// The offending file.
        file: String,
        /// The format identifier.
        format: String,
    },
    /// The SUT's *default* configuration failed to parse — the
    /// campaign has no sound baseline.
    BaselineParse {
        /// The offending file.
        file: String,
        /// Parser diagnostic.
        message: String,
    },
    /// The parsed baseline failed to serialize back to text — the
    /// round-trip the whole injection cycle depends on is broken.
    BaselineSerialize {
        /// The offending file.
        file: String,
        /// Serializer diagnostic.
        message: String,
    },
    /// A generator failed outright.
    Generate(GenerateError),
    /// An outcome sink reported an I/O failure (full disk, closed
    /// pipe, ...). The campaign aborts cleanly — outcomes already
    /// written stay written — instead of silently discarding the rest
    /// of the stream.
    SinkIo(std::io::Error),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::UnknownFormat { file, format } => {
                write!(f, "file {file:?} declares unknown format {format:?}")
            }
            CampaignError::BaselineParse { file, message } => {
                write!(
                    f,
                    "baseline configuration {file:?} failed to parse: {message}"
                )
            }
            CampaignError::BaselineSerialize { file, message } => {
                write!(
                    f,
                    "baseline configuration {file:?} failed to serialize: {message}"
                )
            }
            CampaignError::Generate(e) => write!(f, "{e}"),
            CampaignError::SinkIo(e) => write!(f, "outcome sink failed: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Generate(e) => Some(e),
            CampaignError::SinkIo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GenerateError> for CampaignError {
    fn from(e: GenerateError) -> Self {
        CampaignError::Generate(e)
    }
}

/// The deterministic, SUT-independent half of one scenario's
/// injection: the serialized payload and diff summary (or the reason
/// neither exists). For a fixed engine this is a pure function of the
/// scenario's edits, which is what makes the fault memo sound — two
/// scenarios with identical edit lists produce identical `Prepared`
/// values, byte for byte.
enum Prepared {
    /// The mutated set applied and serialized; the SUT can start.
    Ready {
        payload: ConfigPayload,
        diff: Arc<[String]>,
    },
    /// The scenario could not be applied to the baseline.
    Skipped { reason: String },
    /// The mutated tree exists (and diffs) but cannot be expressed in
    /// the file format (paper §3.2/§5.4).
    Inexpressible { diff: Arc<[String]>, reason: String },
}

/// The shared empty diff every diff-less outcome points at — one
/// allocation per process instead of one per outcome.
static EMPTY_DIFF: std::sync::LazyLock<Arc<[String]>> =
    std::sync::LazyLock::new(|| Vec::new().into());

/// A refcount bump on the process-wide empty diff.
pub(crate) fn empty_diff() -> Arc<[String]> {
    Arc::clone(&EMPTY_DIFF)
}

/// The shared heart of a campaign: per-file parser/serializer pairs,
/// the pristine baseline set, the baseline's serialized text, and the
/// fault memo.
///
/// The engine is what both [`Campaign`] and the
/// [`crate::CampaignExecutor`] drive injections through. It holds no
/// SUT and, apart from the internally synchronized memo, is never
/// mutated after construction, so worker threads can share one engine
/// by reference (`ConfigFormat` is `Send + Sync`, and the baseline's
/// `Arc`-shared trees are immutable).
pub(crate) struct InjectionEngine {
    /// The tier the construction-time SUT reported — recorded on
    /// harness-failure rows, where the panicking SUT can no longer be
    /// asked which tier it was serving from.
    tier: Tier,
    formats: BTreeMap<String, Box<dyn ConfigFormat>>,
    baseline: ConfigSet,
    /// `serialize(baseline[file])` wrapped as baseline-origin payload
    /// entries (shared `Arc<str>` text plus content identity), computed
    /// once. Injections reuse these entries verbatim — a
    /// reference-count bump, no `String` clone — for every file the
    /// scenario did not touch, and the SUT's parse cache pins their
    /// parsed form.
    baseline_payload: ConfigPayload,
    /// Memoized apply → serialize → diff results, keyed by the exact
    /// edit list. Repeated fault loads (bench reruns, Table 2
    /// variation probes) skip the whole preparation; the SUT start
    /// and functional tests still run per injection.
    memo: Mutex<HashMap<Vec<TreeEdit>, Arc<Prepared>>>,
    /// When false, every fault is prepared from scratch — the
    /// reference cold path used by benches and equivalence tests.
    /// Atomic so shared engines (executor, parallel workers) can be
    /// switched without exclusive access.
    memoize_faults: AtomicBool,
    /// Static-analysis context, present only when the SUT publishes a
    /// directive schema. Holds the shared fault linter plus what the
    /// one-time baseline scout observed dynamically.
    analysis: Option<EngineAnalysis>,
    /// When true (the default), functional tests whose declared
    /// read-set is provably disjoint from a fault's touch map are
    /// skipped — sound only against a healthy baseline, so the flag
    /// is additionally gated on [`EngineAnalysis::healthy`]. Atomic
    /// for the same shared-engine reason as `memoize_faults`.
    impact_pruning: AtomicBool,
    /// Per-fault soft deadline budget in milliseconds; 0 means
    /// unlimited (the default). Atomic for the same shared-engine
    /// reason as the other knobs. See [`Campaign::set_fault_deadline`].
    fault_deadline_ms: AtomicU64,
    /// When true, faults the linter *proved* will fail startup get
    /// their `DetectedAtStartup` outcome synthesized from the captured
    /// diagnostic instead of paying for a simulator start. Opt-in
    /// (default off); see [`Campaign::set_static_triage`]. Atomic for
    /// the same shared-engine reason as the other knobs.
    static_triage: AtomicBool,
    /// Dynamic SUT starts actually performed (one per
    /// `start_and_classify` call) — the denominator of the triage
    /// skip-rate the bench gates on.
    dynamic_starts: AtomicUsize,
    /// Starts the triage fast path synthesized away.
    triaged_starts: AtomicUsize,
}

/// What the engine knows statically about its SUT, plus the result of
/// the one-time dynamic scout run over the pristine baseline.
struct EngineAnalysis {
    /// The shared pre-flight linter ([`conferr_analysis::FaultLinter`]).
    linter: Arc<FaultLinter>,
    /// The baseline started and every functional test passed — the
    /// precondition for counting a pruned (skipped) test as passed.
    healthy: bool,
    /// `healthy`, and the start carried no warnings — the
    /// precondition for surfacing [`StaticVerdict::SemanticallySilent`],
    /// which promises an undetected *and warning-free* run.
    clean_start: bool,
    /// Pre-computed pruning plan: which tests impact pruning can ever
    /// skip, with read scopes pre-widened (see
    /// [`conferr_analysis::PrunePlan`]). Tests absent from the plan
    /// run without any per-fault disjointness check.
    prune_plan: PrunePlan,
}

impl InjectionEngine {
    /// Builds the engine from the SUT's declared configuration files,
    /// with `overrides` (when given) replacing the default contents of
    /// individual files. Files present in `overrides` are parsed once
    /// — from the override's shared text — never from the defaults,
    /// and never through an intermediate `String` clone.
    ///
    /// When the SUT publishes a [`conferr_analysis::DirectiveSchema`],
    /// construction also *scouts* it: one start on the pristine
    /// baseline plus one pass over the functional tests, establishing
    /// whether the baseline is healthy (every test passes) and clean
    /// (no startup warnings). Test-impact pruning and
    /// `SemanticallySilent` verdicts are gated on that evidence.
    pub(crate) fn new(
        sut: &mut dyn SystemUnderTest,
        overrides: Option<&ConfigPayload>,
    ) -> Result<Self, CampaignError> {
        let mut formats = BTreeMap::new();
        let mut baseline = ConfigSet::new();
        for spec in sut.config_files() {
            let format =
                format_by_name(&spec.format).ok_or_else(|| CampaignError::UnknownFormat {
                    file: spec.name.clone(),
                    format: spec.format.clone(),
                })?;
            let text = overrides
                .and_then(|o| o.get(&spec.name))
                .map_or(spec.default_contents.as_str(), FileText::text);
            let tree = format
                .parse(text)
                .map_err(|e| CampaignError::BaselineParse {
                    file: spec.name.clone(),
                    message: e.to_string(),
                })?;
            baseline.insert(spec.name.clone(), tree);
            formats.insert(spec.name, format);
        }
        if let Some(overrides) = overrides {
            for (file, _) in overrides.iter() {
                if !formats.contains_key(file) {
                    return Err(CampaignError::UnknownFormat {
                        file: file.to_string(),
                        format: "<undeclared file>".to_string(),
                    });
                }
            }
        }
        let mut baseline_payload = ConfigPayload::new();
        for (file, tree) in baseline.iter() {
            let text =
                formats[file]
                    .serialize(tree)
                    .map_err(|e| CampaignError::BaselineSerialize {
                        file: file.to_string(),
                        message: e.to_string(),
                    })?;
            baseline_payload.insert(file.to_string(), FileText::baseline(text));
        }
        let analysis = Self::scout(sut, &baseline, &baseline_payload);
        Ok(InjectionEngine {
            tier: sut.tier(),
            formats,
            baseline,
            baseline_payload,
            memo: Mutex::new(HashMap::new()),
            memoize_faults: AtomicBool::new(true),
            analysis,
            impact_pruning: AtomicBool::new(true),
            fault_deadline_ms: AtomicU64::new(0),
            static_triage: AtomicBool::new(false),
            dynamic_starts: AtomicUsize::new(0),
            triaged_starts: AtomicUsize::new(0),
        })
    }

    /// Builds the static-analysis context when the SUT publishes a
    /// schema, probing the baseline dynamically once. A SUT without a
    /// schema — or one whose schema the linter cannot service —
    /// yields `None`, and the engine behaves exactly as before the
    /// analysis layer existed.
    fn scout(
        sut: &mut dyn SystemUnderTest,
        baseline: &ConfigSet,
        baseline_payload: &ConfigPayload,
    ) -> Option<EngineAnalysis> {
        let schema = sut.schema()?;
        let linter = FaultLinter::new(schema, baseline.clone()).ok()?;
        // Scouting always runs unlimited: the baseline probe decides
        // soundness, it must never be cut short by a fault budget.
        let unlimited = Deadline::unlimited();
        let start = sut.start(baseline_payload, &unlimited);
        let started = start.is_running();
        let mut healthy = started;
        if started {
            for test in sut.test_names() {
                if !matches!(
                    sut.run_test(&test, &unlimited),
                    conferr_sut::TestOutcome::Passed
                ) {
                    healthy = false;
                    break;
                }
            }
        }
        sut.stop();
        Some(EngineAnalysis {
            linter: Arc::new(linter),
            healthy,
            clean_start: healthy && matches!(start, StartOutcome::Started),
            prune_plan: PrunePlan::new(schema, baseline),
        })
    }

    /// Enables or disables test-impact pruning (see
    /// [`Campaign::set_impact_pruning`]).
    pub(crate) fn set_impact_pruning(&self, enabled: bool) {
        self.impact_pruning.store(enabled, Ordering::Relaxed);
    }

    /// Enables or disables the static-triage fast path (see
    /// [`Campaign::set_static_triage`]).
    pub(crate) fn set_static_triage(&self, enabled: bool) {
        self.static_triage.store(enabled, Ordering::Relaxed);
    }

    /// `(dynamic, synthesized)` start counts since construction:
    /// starts actually performed against the SUT versus starts the
    /// triage fast path synthesized away.
    pub(crate) fn triage_stats(&self) -> (usize, usize) {
        (
            self.dynamic_starts.load(Ordering::Relaxed),
            self.triaged_starts.load(Ordering::Relaxed),
        )
    }

    /// The static-triage fast path: when enabled, a fault whose
    /// dynamic outcome the linter *proved* has that outcome
    /// synthesized without starting the SUT. Two verdict families
    /// qualify: the `WillFail*` verdicts carry the exact startup
    /// diagnostic the simulator would emit (→ `DetectedAtStartup`),
    /// and `SemanticallySilent` guarantees — relative to the clean
    /// baseline this path is gated on — a warning-free start with
    /// every functional test passing (→ `Undetected` with no
    /// warnings). The linter already ran for the verdict column, so
    /// the marginal cost is a few loads.
    ///
    /// Byte-identity with the dynamic path needs every gate below: a
    /// clean-start baseline (no earlier failure or warning can preempt
    /// the predicted one, and `SemanticallySilent`'s promise is only
    /// relative to a healthy, warning-free scout), a simulator tier
    /// (`Tier::Sim` — process diagnostics come from exit codes and
    /// stderr, which the linter does not model), and no configured
    /// watchdog (a synthesized outcome could never observe an
    /// overrun).
    fn triage_shortcut(
        &self,
        sut: &mut dyn SystemUnderTest,
        lint: Option<&Lint>,
    ) -> Option<InjectionResult> {
        if !self.static_triage.load(Ordering::Relaxed) {
            return None;
        }
        let lint = lint?;
        let analysis = self.analysis.as_ref()?;
        if !analysis.clean_start
            || self.fault_deadline_ms.load(Ordering::Relaxed) != 0
            || sut.tier() != Tier::Sim
        {
            return None;
        }
        let result = match (&lint.verdict, &lint.diagnostic) {
            (
                StaticVerdict::WillFailParse | StaticVerdict::WillFailValidate { .. },
                Some(diagnostic),
            ) => InjectionResult::DetectedAtStartup {
                diagnostic: diagnostic.to_string(),
            },
            (StaticVerdict::SemanticallySilent, _) => InjectionResult::Undetected {
                warnings: Vec::new(),
            },
            _ => return None,
        };
        self.triaged_starts.fetch_add(1, Ordering::Relaxed);
        Some(result)
    }

    /// Sets the per-fault soft deadline (see
    /// [`Campaign::set_fault_deadline`]). `None` disables the
    /// watchdog; sub-millisecond budgets round up to 1 ms so a
    /// configured deadline is never silently dropped.
    pub(crate) fn set_fault_deadline(&self, budget: Option<Duration>) {
        let ms = budget.map_or(0, |b| {
            u64::try_from(b.as_millis()).unwrap_or(u64::MAX).max(1)
        });
        self.fault_deadline_ms.store(ms, Ordering::Relaxed);
    }

    /// The configured per-fault budget, if any.
    pub(crate) fn fault_deadline(&self) -> Option<Duration> {
        match self.fault_deadline_ms.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    /// The shared pre-flight linter, when the SUT publishes a schema.
    pub(crate) fn linter(&self) -> Option<Arc<FaultLinter>> {
        self.analysis.as_ref().map(|a| Arc::clone(&a.linter))
    }

    /// Enables or disables the fault memo (see
    /// [`Campaign::set_fault_memoization`]).
    pub(crate) fn set_fault_memoization(&self, enabled: bool) {
        self.memoize_faults.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.memo.lock().clear();
        }
    }

    /// `true` iff the fault memo is active.
    fn memoize_faults(&self) -> bool {
        self.memoize_faults.load(Ordering::Relaxed)
    }

    /// The parsed baseline configuration set.
    pub(crate) fn baseline(&self) -> &ConfigSet {
        &self.baseline
    }

    /// The tier the construction-time SUT reported.
    pub(crate) fn tier(&self) -> Tier {
        self.tier
    }

    /// Serializes a configuration set to a startup payload. Files
    /// whose tree is still pointer-shared with the baseline reuse the
    /// cached baseline entry — shared `Arc<str>` text plus its content
    /// identity, so the SUT's parse cache can skip re-parsing them —
    /// instead of walking the tree again; the cost is proportional to
    /// the files an edit touched, and only those are serialized and
    /// tagged as mutated.
    fn payload_for(&self, set: &ConfigSet) -> Result<ConfigPayload, String> {
        let mut out = ConfigPayload::new();
        for (file, tree) in set.iter_arcs() {
            if self
                .baseline
                .get_arc(file)
                .is_some_and(|b| Arc::ptr_eq(b, tree))
            {
                let entry = self
                    .baseline_payload
                    .get(file)
                    .expect("baseline files all have payload entries");
                out.insert(file.to_string(), entry.clone());
                continue;
            }
            let Some(format) = self.formats.get(file) else {
                return Err(format!("no serializer registered for {file:?}"));
            };
            match format.serialize(tree) {
                Ok(text) => {
                    out.insert(file.to_string(), FileText::mutated(text));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(out)
    }

    /// Prepares one scenario's injection: apply to the baseline,
    /// diff, serialize. Pure in the scenario's edits, so results are
    /// memoized by exact edit list when the fault memo is enabled —
    /// a hit returns the byte-identical `Prepared` the cold path
    /// would recompute.
    fn prepare(&self, scenario: &FaultScenario) -> Arc<Prepared> {
        if self.memoize_faults() {
            if let Some(hit) = self.memo.lock().get(&scenario.edits) {
                return Arc::clone(hit);
            }
        }
        let prepared = Arc::new(self.prepare_cold(scenario));
        if self.memoize_faults() {
            let mut memo = self.memo.lock();
            if memo.len() >= FAULT_MEMO_CAPACITY {
                memo.clear();
            }
            memo.insert(scenario.edits.clone(), Arc::clone(&prepared));
        }
        prepared
    }

    /// The un-memoized preparation path.
    fn prepare_cold(&self, scenario: &FaultScenario) -> Prepared {
        let mutated = match scenario.apply(&self.baseline) {
            Ok(m) => m,
            Err(e) => {
                return Prepared::Skipped {
                    reason: e.to_string(),
                }
            }
        };
        let diff: Arc<[String]> = self.diff_summary(&mutated).into();
        // Serialization can legitimately fail: the mutated tree may
        // not be expressible in the file format (paper §3.2/§5.4).
        match self.payload_for(&mutated) {
            Ok(payload) => Prepared::Ready { payload, diff },
            Err(reason) => Prepared::Inexpressible { diff, reason },
        }
    }

    /// Starts the SUT on one prepared payload and classifies its
    /// response.
    ///
    /// With a touch map in hand (and pruning enabled against a
    /// healthy baseline), functional tests whose schema-declared
    /// read-set is provably disjoint from the fault's touch map are
    /// skipped: the scout saw them pass on the baseline, and the
    /// touch map bounds the edit away from everything they read, so
    /// their outcome cannot differ. Tests the schema does not declare
    /// are never skipped.
    fn start_and_classify(
        &self,
        sut: &mut dyn SystemUnderTest,
        payload: &ConfigPayload,
        touch: Option<&TouchMap>,
    ) -> InjectionResult {
        let prune = touch.and_then(|touch| {
            let analysis = self.analysis.as_ref()?;
            (analysis.healthy
                && self.impact_pruning.load(Ordering::Relaxed)
                && !analysis.prune_plan.is_empty())
            .then_some((&analysis.prune_plan, touch))
        });
        // One soft deadline per fault, spanning start and every test.
        // The check runs after each phase returns (deadlines never
        // preempt), and an overrun wins over whatever the overrunning
        // phase reported — a start or test that blew the budget is a
        // watchdog event, not a resilience datum.
        let deadline = self
            .fault_deadline()
            .map_or_else(Deadline::unlimited, Deadline::after);
        self.dynamic_starts.fetch_add(1, Ordering::Relaxed);
        let start = sut.start(payload, &deadline);
        let result = match start {
            // A hard-supervised adapter that killed its child reports
            // the overrun itself, with its own phase name — more
            // precise than the engine's after-the-fact soft check, so
            // it wins. An adapter that recorded no budget of its own
            // falls back to the engine's configured one.
            StartOutcome::TimedOut { phase, budget_ms } => InjectionResult::TimedOut {
                phase,
                budget_ms: if budget_ms == 0 {
                    deadline.budget_ms()
                } else {
                    budget_ms
                },
            },
            _ if deadline.expired() => InjectionResult::TimedOut {
                phase: "startup".to_string(),
                budget_ms: deadline.budget_ms(),
            },
            start => match start {
                StartOutcome::TimedOut { .. } => unreachable!("handled above"),
                StartOutcome::FailedToStart { diagnostic } => {
                    InjectionResult::DetectedAtStartup { diagnostic }
                }
                ref start @ (StartOutcome::Started | StartOutcome::StartedWithWarnings { .. }) => {
                    let warnings = match start {
                        StartOutcome::StartedWithWarnings { warnings } => warnings.clone(),
                        _ => Vec::new(),
                    };
                    let mut failed: Option<(String, String)> = None;
                    let mut overran: Option<String> = None;
                    for test in sut.test_names() {
                        if let Some((plan, touch)) = prune {
                            if plan
                                .scopes(&test)
                                .is_some_and(|scopes| !PrunePlan::impacted(scopes, touch))
                            {
                                continue;
                            }
                        }
                        let outcome = sut.run_test(&test, &deadline);
                        if deadline.expired() {
                            overran = Some(test);
                            break;
                        }
                        match outcome {
                            conferr_sut::TestOutcome::Passed => {}
                            conferr_sut::TestOutcome::Failed { diagnostic } => {
                                failed = Some((test, diagnostic));
                                break;
                            }
                        }
                    }
                    if let Some(phase) = overran {
                        InjectionResult::TimedOut {
                            phase,
                            budget_ms: deadline.budget_ms(),
                        }
                    } else {
                        match failed {
                            Some((test, diagnostic)) => {
                                InjectionResult::DetectedByFunctionalTest { test, diagnostic }
                            }
                            None => InjectionResult::Undetected { warnings },
                        }
                    }
                }
            },
        };
        sut.stop();
        result
    }

    /// Computes a short structural diff describing the injected edit.
    /// Files still pointer-shared with the baseline are skipped
    /// without even a structural comparison; deep-equal trees fall
    /// through to `diff`, which emits nothing for them.
    fn diff_summary(&self, mutated: &ConfigSet) -> Vec<String> {
        let mut lines = Vec::new();
        for (file, tree) in mutated.iter_arcs() {
            if let Some(original) = self.baseline.get_arc(file) {
                if Arc::ptr_eq(original, tree) {
                    continue;
                }
                for op in diff(original, tree) {
                    if lines.len() >= MAX_DIFF_LINES {
                        lines.push("...".to_string());
                        return lines;
                    }
                    lines.push(format!("{file}: {op}"));
                }
            }
        }
        lines
    }

    /// Runs one fault end to end against `sut` and records the
    /// outcome. This is the unit of work both drivers schedule; for a
    /// fixed engine and fault it depends only on the SUT's
    /// deterministic start/test behaviour, never on scheduling order.
    pub(crate) fn outcome(
        &self,
        sut: &mut dyn SystemUnderTest,
        fault: GeneratedFault,
    ) -> InjectionOutcome {
        match fault {
            GeneratedFault::Scenario(scenario) => {
                let lint = self.lint(&scenario.edits);
                let verdict = self.annotate(lint.as_ref());
                let prepared = self.prepare(&scenario);
                // `diff` clones below are `Arc` refcount bumps: every
                // outcome of the same preparation shares one line
                // allocation (ROADMAP perf idea: no per-outcome
                // `Vec<String>` clone).
                let (diff, result) = match prepared.as_ref() {
                    Prepared::Ready { payload, diff } => {
                        let result = match self.triage_shortcut(sut, lint.as_ref()) {
                            Some(result) => result,
                            None => self.start_and_classify(
                                sut,
                                payload,
                                lint.as_ref().map(|l| &*l.touch),
                            ),
                        };
                        (diff.clone(), result)
                    }
                    Prepared::Skipped { reason } => (
                        empty_diff(),
                        InjectionResult::Skipped {
                            reason: reason.clone(),
                        },
                    ),
                    Prepared::Inexpressible { diff, reason } => (
                        diff.clone(),
                        InjectionResult::Inexpressible {
                            reason: reason.clone(),
                        },
                    ),
                };
                InjectionOutcome {
                    id: scenario.id,
                    description: scenario.description,
                    class: scenario.class,
                    diff,
                    verdict,
                    // Read *after* the start ran: tier-mixing wrappers
                    // report the tier that actually served this fault.
                    tier: sut.tier(),
                    result,
                }
            }
            GeneratedFault::Inexpressible {
                id,
                description,
                class,
                reason,
            } => InjectionOutcome {
                id,
                description,
                class,
                diff: empty_diff(),
                verdict: StaticVerdict::Unknown,
                tier: sut.tier(),
                result: InjectionResult::Inexpressible { reason },
            },
        }
    }

    /// Lints one scenario's edit list through the shared linter, when
    /// the engine has one.
    fn lint(&self, edits: &[TreeEdit]) -> Option<Lint> {
        self.analysis.as_ref().map(|a| a.linter.lint(edits))
    }

    /// The verdict an outcome row carries: the lint's verdict, with
    /// `SemanticallySilent` downgraded to `Unknown` unless the scout
    /// certified a clean (healthy *and* warning-free) baseline —
    /// silence is only a guarantee relative to such a baseline.
    fn annotate(&self, lint: Option<&Lint>) -> StaticVerdict {
        let (Some(analysis), Some(lint)) = (self.analysis.as_ref(), lint) else {
            return StaticVerdict::Unknown;
        };
        match &lint.verdict {
            StaticVerdict::SemanticallySilent if !analysis.clean_start => StaticVerdict::Unknown,
            v => v.clone(),
        }
    }
}

impl fmt::Debug for InjectionEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InjectionEngine")
            .field("files", &self.baseline.len())
            .finish()
    }
}

/// An injection campaign against one system-under-test.
///
/// # Examples
///
/// ```
/// use conferr::Campaign;
/// use conferr_plugins::StructuralPlugin;
/// use conferr_sut::MySqlSim;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sut = MySqlSim::new();
/// let mut campaign = Campaign::new(&mut sut)?;
/// campaign.add_generator(Box::new(StructuralPlugin::new()));
/// let profile = campaign.run()?;
/// assert!(profile.len() > 0);
/// # Ok(())
/// # }
/// ```
pub struct Campaign<'s> {
    sut: &'s mut dyn SystemUnderTest,
    generators: Vec<Box<dyn ErrorGenerator>>,
    engine: InjectionEngine,
}

impl fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("sut", &self.sut.name())
            .field("generators", &self.generators.len())
            .field("files", &self.engine.baseline().len())
            .finish()
    }
}

impl<'s> Campaign<'s> {
    /// Creates a campaign from the SUT's default configuration files.
    ///
    /// # Errors
    ///
    /// Fails if a configuration file declares an unknown format or the
    /// default contents do not parse (or do not serialize back).
    pub fn new(sut: &'s mut dyn SystemUnderTest) -> Result<Self, CampaignError> {
        let engine = InjectionEngine::new(sut, None)?;
        Ok(Campaign {
            sut,
            generators: Vec::new(),
            engine,
        })
    }

    /// Creates a campaign from explicit configuration payloads instead
    /// of the SUT defaults (build one from plain text with
    /// [`ConfigPayload::from_texts`]). Overridden files are parsed
    /// once, from the payload's shared `Arc<str>` text — no `String`
    /// clone per campaign; only non-overridden files fall back to the
    /// SUT defaults.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Campaign::new`], plus an
    /// [`CampaignError::UnknownFormat`] for override files the SUT
    /// does not declare.
    pub fn with_payload(
        sut: &'s mut dyn SystemUnderTest,
        configs: &ConfigPayload,
    ) -> Result<Self, CampaignError> {
        let engine = InjectionEngine::new(sut, Some(configs))?;
        Ok(Campaign {
            sut,
            generators: Vec::new(),
            engine,
        })
    }

    /// Adds an error-generator plugin.
    pub fn add_generator(&mut self, generator: Box<dyn ErrorGenerator>) -> &mut Self {
        self.generators.push(generator);
        self
    }

    /// Enables or disables the engine's fault memo (default: on).
    ///
    /// For a fixed baseline, a scenario's apply → serialize → diff
    /// preparation is a pure function of its edit list, so the engine
    /// memoizes it by exact edit equality; repeated faults skip the
    /// preparation while the SUT start and functional tests still run
    /// per injection. Disabling yields the reference cold path —
    /// profiles are byte-identical either way (asserted in
    /// `tests/parse_cache.rs`), only wall-clock differs. Pair with
    /// [`conferr_sut::SystemUnderTest::set_parse_caching`] to disable
    /// every cache layer at once.
    pub fn set_fault_memoization(&mut self, enabled: bool) -> &mut Self {
        self.engine.set_fault_memoization(enabled);
        self
    }

    /// Enables or disables test-impact pruning (default: on).
    ///
    /// When the SUT publishes a [`conferr_analysis::DirectiveSchema`]
    /// and the construction-time scout found the baseline healthy,
    /// the engine skips functional tests whose schema-declared
    /// read-set is provably disjoint from a fault's statically
    /// derived touch map. The profile is byte-identical either way
    /// (asserted in `tests/static_analysis.rs`); only wall-clock
    /// differs. Systems without a schema ignore the knob.
    pub fn set_impact_pruning(&mut self, enabled: bool) -> &mut Self {
        self.engine.set_impact_pruning(enabled);
        self
    }

    /// Enables or disables the static-triage fast path (default: off).
    ///
    /// When enabled, faults the pre-flight linter *proved* will fail
    /// startup (`WillFailParse`/`WillFailValidate`, with the exact
    /// simulator diagnostic captured through the shared dialect
    /// deciders) synthesize their
    /// [`crate::InjectionResult::DetectedAtStartup`] outcome without
    /// starting the SUT — the linter already ran for the verdict
    /// column, so the whole dynamic start is saved. The fast path
    /// self-gates on conditions that make the synthesis byte-identical
    /// to a real start: a clean-start baseline, a simulator tier, and
    /// no configured fault deadline; outside them the dynamic path
    /// runs as usual. Byte-identity against the
    /// `set_static_triage(false)` reference is asserted by
    /// `tests/static_analysis.rs` and gated in `bench_campaign`.
    pub fn set_static_triage(&mut self, enabled: bool) -> &mut Self {
        self.engine.set_static_triage(enabled);
        self
    }

    /// `(dynamic, synthesized)` start counts since construction: how
    /// many faults paid for a real SUT start versus how many the
    /// static-triage fast path decided without one.
    pub fn triage_stats(&self) -> (usize, usize) {
        self.engine.triage_stats()
    }

    /// Sets the per-fault soft deadline (default: none).
    ///
    /// Each injection gets one [`conferr_sut::Deadline`] spanning its
    /// start and every functional test. The deadline is **soft**: the
    /// engine never preempts the SUT, it checks after each phase
    /// returns, and classifies overruns as
    /// [`crate::InjectionResult::TimedOut`] — a watchdog event that
    /// stays in the injected denominator but is never a detection.
    /// Cooperative adapters can bound their own waits via
    /// [`conferr_sut::Deadline::remaining`]. `None` restores unlimited
    /// time. Sub-millisecond budgets round up to one millisecond.
    pub fn set_fault_deadline(&mut self, budget: Option<std::time::Duration>) -> &mut Self {
        self.engine.set_fault_deadline(budget);
        self
    }

    /// The engine's shared pre-flight linter, when the SUT publishes
    /// a directive schema (e.g. to wrap a fault stream in a
    /// [`conferr_analysis::LintedSource`]).
    pub fn linter(&self) -> Option<std::sync::Arc<conferr_analysis::FaultLinter>> {
        self.engine.linter()
    }

    /// The parsed baseline configuration set.
    pub fn baseline(&self) -> &ConfigSet {
        self.engine.baseline()
    }

    /// Runs every generator's full fault load and returns the
    /// resilience profile — ConfErr's sole output (§3.1).
    ///
    /// # Errors
    ///
    /// Fails only when a generator fails outright; per-fault problems
    /// are recorded in the profile.
    pub fn run(&mut self) -> Result<ResilienceProfile, CampaignError> {
        let mut faults = Vec::new();
        for generator in &self.generators {
            faults.extend(generator.generate(self.engine.baseline())?);
        }
        self.run_faults(faults)
    }

    /// Runs an explicit fault load (used by benches that pre-sample).
    ///
    /// Internally this is the streaming pipeline with an eager-source
    /// adapter and a collecting sink — byte-identical to the
    /// pre-streaming loop, asserted by `tests/streaming_pipeline.rs`.
    ///
    /// # Errors
    ///
    /// Currently infallible, but kept fallible for symmetry with
    /// [`Campaign::run`].
    pub fn run_faults(
        &mut self,
        faults: Vec<GeneratedFault>,
    ) -> Result<ResilienceProfile, CampaignError> {
        let mut sink = crate::CollectingSink::with_capacity(faults.len());
        self.run_source(&mut conferr_model::EagerSource::new(faults), &mut sink)?;
        Ok(sink.into_profile(self.sut.name()))
    }

    /// Streams faults from a live [`FaultSource`], handing each
    /// outcome to `sink` **as it completes, in fault order** —
    /// serially, the bounded-memory path for fault spaces too large to
    /// materialize. Memory held by the driver is O(chunk size): at
    /// most [`crate::DEFAULT_CHUNK_SIZE`] faults are in flight and no
    /// outcome is ever buffered.
    ///
    /// This is the [`crate::CampaignExecutor`]'s 1-thread loop with
    /// the borrowed SUT as its one-slot SUT cache, under the
    /// executor's default contract: a harness panic on one fault is
    /// recorded as [`crate::InjectionResult::HarnessFailure`] for that
    /// fault, the SUT is `stop()`ped, and the campaign keeps running.
    ///
    /// # Errors
    ///
    /// Propagates the source's first production failure — a panicking
    /// source included — as [`CampaignError::Generate`], or the sink's
    /// first reported I/O failure ([`OutcomeSink::take_error`]) as
    /// [`CampaignError::SinkIo`]; outcomes already handed to the sink
    /// stay handed.
    ///
    /// [`OutcomeSink::take_error`]: crate::OutcomeSink::take_error
    pub fn run_source(
        &mut self,
        source: &mut dyn FaultSource,
        sink: &mut dyn crate::OutcomeSink,
    ) -> Result<(), CampaignError> {
        serial_loop(
            &self.engine,
            &mut SutSlot::Borrowed(&mut *self.sut),
            source,
            sink,
            crate::DEFAULT_CHUNK_SIZE,
            &ExecPolicy::default(),
            &mut |_| {},
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_keyboard::Keyboard;
    use conferr_model::{StructuralKind, TypoKind};
    use conferr_plugins::{StructuralPlugin, TokenClass, TypoPlugin};
    use conferr_sut::{MySqlSim, PostgresSim};

    #[test]
    fn campaign_against_postgres_produces_outcomes() {
        let mut sut = PostgresSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        campaign.add_generator(Box::new(
            TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames)
                .with_kinds([TypoKind::Omission]),
        ));
        let profile = campaign.run().unwrap();
        assert!(!profile.is_empty());
        // Name typos against Postgres are essentially always caught at
        // startup (unknown parameter) — a couple of omissions can
        // collide with other valid names but none exist here.
        let summary = profile.summary();
        assert_eq!(summary.total, profile.len());
        assert!(
            summary.detected_at_startup > summary.undetected,
            "{summary:?}"
        );
    }

    #[test]
    fn campaign_records_diffs_and_ids() {
        let mut sut = MySqlSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        campaign.add_generator(Box::new(
            StructuralPlugin::new().with_kinds([StructuralKind::DirectiveOmission]),
        ));
        let profile = campaign.run().unwrap();
        assert_eq!(profile.len(), 14, "my.cnf ships 14 directives");
        for outcome in profile.outcomes() {
            assert!(!outcome.diff.is_empty(), "{}", outcome.id);
            assert!(outcome.id.starts_with("delete:"));
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || {
            let mut sut = MySqlSim::new();
            let mut campaign = Campaign::new(&mut sut).unwrap();
            campaign.add_generator(Box::new(
                TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveValues)
                    .with_kinds([TypoKind::Transposition]),
            ));
            campaign.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes(), b.outcomes());
    }

    #[test]
    fn with_configs_overrides_baseline() {
        let mut sut = PostgresSim::new();
        let mut configs = BTreeMap::new();
        configs.insert(
            "postgresql.conf".to_string(),
            "port = 5432\nmax_connections = 10\nshared_buffers = 100\n".to_string(),
        );
        let campaign =
            Campaign::with_payload(&mut sut, &ConfigPayload::from_texts(&configs)).unwrap();
        let tree = campaign.baseline().get("postgresql.conf").unwrap();
        assert_eq!(tree.root().children_of_kind("directive").count(), 3);
    }

    #[test]
    fn with_configs_rejects_undeclared_files() {
        let mut sut = PostgresSim::new();
        let mut configs = BTreeMap::new();
        configs.insert("other.conf".to_string(), String::new());
        assert!(matches!(
            Campaign::with_payload(&mut sut, &ConfigPayload::from_texts(&configs)),
            Err(CampaignError::UnknownFormat { .. })
        ));
    }

    #[test]
    fn engine_caches_baseline_serialization() {
        let mut sut = PostgresSim::new();
        let campaign = Campaign::new(&mut sut).unwrap();
        // The untouched baseline's payload is served entirely from the
        // cached baseline entries: same Arc<str> allocation (no text
        // clone), baseline origin, and text matching a from-scratch
        // serialization.
        let payload = campaign.engine.payload_for(campaign.baseline()).unwrap();
        assert_eq!(payload.len(), campaign.engine.baseline_payload.len());
        for (file, entry) in payload.iter() {
            let baseline_entry = campaign.engine.baseline_payload.get(file).unwrap();
            assert!(Arc::ptr_eq(
                &entry.shared_text(),
                &baseline_entry.shared_text()
            ));
            assert_eq!(entry.origin(), conferr_sut::TextOrigin::Baseline);
            let format = &campaign.engine.formats[file];
            assert_eq!(
                entry.text(),
                format
                    .serialize(campaign.baseline().get(file).unwrap())
                    .unwrap()
            );
        }
    }

    #[test]
    fn mutated_files_are_serialized_fresh_and_tagged_mutated() {
        let mut sut = MySqlSim::new();
        let campaign = Campaign::new(&mut sut).unwrap();
        let faults = StructuralPlugin::new()
            .with_kinds([StructuralKind::DirectiveOmission])
            .generate(campaign.baseline())
            .unwrap();
        let GeneratedFault::Scenario(scenario) = &faults[0] else {
            panic!("structural faults are scenarios");
        };
        let mutated = scenario.apply(campaign.baseline()).unwrap();
        let payload = campaign.engine.payload_for(&mutated).unwrap();
        let entry = payload.get("my.cnf").unwrap();
        assert_eq!(entry.origin(), conferr_sut::TextOrigin::Mutated);
        assert_ne!(
            entry.text(),
            campaign
                .engine
                .baseline_payload
                .get("my.cnf")
                .unwrap()
                .text()
        );
    }
}

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
//! diffed — a clone of its baseline entry is handed to the SUT, and
//! since every clone shares one startup slot, each simulator's
//! [`conferr_sut::ParseCache`] reads the baseline's startup state from
//! it instead of re-parsing. A mutated file gets at most one parse per
//! cold fault: the static linter judges that parse, and the SUT's start
//! reuses it, together with the dialect check the linter ran on a
//! single edit's file, so that file is validated once too. The fault
//! memo keeps the mutated payload files, so a repeated fault's start
//! reads their startup slots the same way. A
//! single-edit fault whose edited node parses in place
//! ([`conferr_analysis::edit_parses_in_place`], asked once per cold
//! single-edit fault, whose answer also bounds the fault's touch map)
//! needs no parse at all, because its mutated tree already is the
//! parse of its serialized bytes and shares every untouched subtree
//! with the baseline. Such a fault's text is the baseline text with
//! the one edited top-level node's lines spliced in, and the linter
//! patches the baseline's Apache check instead of validating the whole
//! file. A campaign runs on the executor's serial loop
//! over its borrowed SUT; for multi-core throughput,
//! [`crate::CampaignExecutor`] shards fault loads across worker
//! threads over the same kind of shared engine.
//! Both campaign handles give out that [`InjectionEngine`], the one
//! place the campaign's knobs, start counters and linter live.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use conferr_analysis::{
    edit_parses_in_place, FaultLinter, Lint, PrunePlan, StaticVerdict, TouchMap,
};
use conferr_formats::{child_offsets, format_by_name, splice_child, ConfigFormat};
use conferr_model::{
    ConfigSet, ErrorGenerator, FaultScenario, FaultSource, GenerateError, GeneratedFault, TreeEdit,
};
use conferr_sut::{
    ConfigPayload, Deadline, FileText, StartOutcome, SystemUnderTest, TextOrigin, Tier,
};
use conferr_tree::{diff, ConfTree};
use parking_lot::Mutex;

use crate::executor::{serial_loop, SutSlot};
use crate::{InjectionOutcome, InjectionResult, ResilienceProfile};

/// Maximum number of diff lines recorded per injection.
const MAX_DIFF_LINES: usize = 6;

/// Fault-memo entries retained before the table is reset wholesale.
/// Each entry's payload files also hold the startup state their first
/// start built, so this bounds the memory of both. A repeated load of
/// up to this many distinct faults is prepared and started cold once;
/// the epoch clear bounds memory on unbounded campaign streams.
const FAULT_MEMO_CAPACITY: usize = 1024;

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
/// injection: the serialized payload, the diff summary and the
/// linter's judgement. For a fixed engine this is a pure function of
/// the scenario's edits, which is what makes the fault memo sound —
/// two scenarios with identical edit lists produce identical
/// `Prepared` values, byte for byte.
struct Prepared {
    /// Diff summary lines (empty when the edits did not apply).
    diff: Arc<[String]>,
    /// The linter's judgement, when the engine has a linter.
    lint: Option<Lint>,
    /// The payload the SUT starts from, or the result that stands in
    /// for the start: `Skipped` when the edits do not apply to the
    /// baseline, `Inexpressible` when the mutated tree exists (and
    /// diffs) but cannot be expressed in the file format (paper
    /// §3.2/§5.4).
    payload: Result<ConfigPayload, InjectionResult>,
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
/// the pristine baseline set, the baseline's serialized text, the
/// fault memo, and the campaign's knobs, start counters and linter.
///
/// The engine is what both [`Campaign`] and the
/// [`crate::CampaignExecutor`] drive injections through;
/// [`Campaign::engine`] and [`crate::ExecutorCampaign::engine`] hand
/// it out. Its knobs take `&self` and apply to every later fault run
/// through the engine, so a setting made through one
/// `ExecutorCampaign` holds for all its clones. It holds no SUT and,
/// apart from the internally synchronized memo, knobs and counters,
/// is never mutated after construction, so worker threads can share
/// one engine by reference (`ConfigFormat` is `Send + Sync`, and the
/// baseline's `Arc`-shared trees are immutable).
///
/// # Examples
///
/// ```
/// use conferr::Campaign;
/// use conferr_sut::MySqlSim;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sut = MySqlSim::new();
/// let campaign = Campaign::new(&mut sut)?;
/// campaign.engine().set_impact_pruning(false).set_static_triage(true);
/// assert!(campaign.engine().linter().is_some(), "mysql publishes a schema");
/// assert_eq!(campaign.engine().triage_stats(), (0, 0));
/// # Ok(())
/// # }
/// ```
pub struct InjectionEngine {
    /// The tier the construction-time SUT reported — recorded on
    /// harness-failure rows, where the panicking SUT can no longer be
    /// asked which tier it was serving from.
    tier: Tier,
    formats: BTreeMap<String, Box<dyn ConfigFormat>>,
    baseline: ConfigSet,
    /// `serialize(baseline[file])` wrapped as baseline-origin payload
    /// entries, computed once. Injections reuse clones of these
    /// entries — reference-count bumps, no `String` clone — for every
    /// file the scenario did not touch, so every start shares their
    /// startup slots and the baseline's startup state is built once
    /// per engine.
    baseline_payload: ConfigPayload,
    /// Files whose baseline serializes back to its source text byte
    /// for byte, that text ends in `\n`, and it is the baseline's root
    /// children serialized one by one, each mapped to where those
    /// children start in it ([`child_offsets`]). A single-edit fault
    /// on one of them may skip its parse (see [`Self::known_parse`])
    /// and then splices its text (see [`Self::splice`]).
    splice_ready: BTreeMap<String, Vec<usize>>,
    /// Memoized apply → diff → serialize → parse → judge results,
    /// keyed by the exact edit list. Repeated fault loads (bench
    /// reruns, Table 2 variation probes) skip the whole preparation;
    /// the SUT start and functional tests still run per injection,
    /// from the startup state the entry's payload files hold.
    memo: Mutex<HashMap<Vec<TreeEdit>, Arc<Prepared>>>,
    /// When false, every fault is prepared (and judged) from scratch —
    /// the reference cold path used by benches and equivalence tests.
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
    /// reason as the other knobs. See [`Self::set_fault_deadline`].
    fault_deadline_ms: AtomicU64,
    /// When true, faults the linter *proved* will fail startup get
    /// their `DetectedAtStartup` outcome synthesized from the captured
    /// diagnostic instead of paying for a simulator start. Opt-in
    /// (default off); see [`Self::set_static_triage`]. Atomic for
    /// the same shared-engine reason as the other knobs.
    static_triage: AtomicBool,
    /// Dynamic SUT starts actually performed (one per
    /// `start_and_classify` call) — the denominator of the triage
    /// skip-rate `tests/static_analysis.rs` gates on.
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
    ///
    /// A file is *splice-ready* when its parsed baseline serializes
    /// back to its source text byte for byte, that text ends in `\n`,
    /// and it is the baseline's root children serialized one by one.
    /// Deciding this costs no parse beyond the baseline's own, and the
    /// linter, told that these files round-trip, models them on their
    /// baseline trees without one either.
    pub(crate) fn new(
        sut: &mut dyn SystemUnderTest,
        overrides: Option<&ConfigPayload>,
    ) -> Result<Self, CampaignError> {
        let mut formats = BTreeMap::new();
        let mut baseline = ConfigSet::new();
        let mut baseline_payload = ConfigPayload::new();
        let mut splice_ready = BTreeMap::new();
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
            let serialized =
                format
                    .serialize(&tree)
                    .map_err(|e| CampaignError::BaselineSerialize {
                        file: spec.name.clone(),
                        message: e.to_string(),
                    })?;
            // The baseline is the parse of `text`, so when `text` is
            // also its serialization, the baseline is the parse of
            // its own serialization.
            if serialized == text && text.ends_with('\n') {
                if let Some(offsets) = child_offsets(format.as_ref(), &tree, text) {
                    splice_ready.insert(spec.name.clone(), offsets);
                }
            }
            baseline_payload.insert(spec.name.clone(), FileText::baseline(serialized));
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
        let analysis = Self::scout(sut, &formats, &baseline, &baseline_payload, &splice_ready);
        Ok(InjectionEngine {
            tier: sut.tier(),
            formats,
            baseline,
            baseline_payload,
            splice_ready,
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
    ///
    /// The linter judges the engine's parse of the bytes the SUT
    /// receives, so a schema that reads a file in a different format
    /// than the SUT's `config_files()` declares gets no analysis
    /// either: its dialect model would judge a tree the SUT never
    /// parses.
    fn scout(
        sut: &mut dyn SystemUnderTest,
        formats: &BTreeMap<String, Box<dyn ConfigFormat>>,
        baseline: &ConfigSet,
        baseline_payload: &ConfigPayload,
        splice_ready: &BTreeMap<String, Vec<usize>>,
    ) -> Option<EngineAnalysis> {
        let schema = sut.schema()?;
        if schema
            .files
            .iter()
            .any(|fs| formats.get(fs.file).is_some_and(|f| f.name() != fs.format))
        {
            return None;
        }
        let round_trips = |file: &str| splice_ready.contains_key(file);
        let linter = FaultLinter::with_round_trips(schema, baseline.clone(), round_trips).ok()?;
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

    /// Enables or disables test-impact pruning (default: on).
    ///
    /// When the SUT publishes a [`conferr_analysis::DirectiveSchema`]
    /// and the construction-time scout found the baseline healthy,
    /// the engine skips functional tests whose schema-declared
    /// read-set is provably disjoint from a fault's statically
    /// derived touch map. The profile is byte-identical either way
    /// (asserted in `tests/static_analysis.rs`); only wall-clock
    /// differs. Systems without a schema ignore the knob.
    pub fn set_impact_pruning(&self, enabled: bool) -> &Self {
        self.impact_pruning.store(enabled, Ordering::Relaxed);
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
    /// `tests/static_analysis.rs`.
    pub fn set_static_triage(&self, enabled: bool) -> &Self {
        self.static_triage.store(enabled, Ordering::Relaxed);
        self
    }

    /// `(dynamic, synthesized)` start counts since construction: how
    /// many faults paid for a real SUT start versus how many the
    /// static-triage fast path decided without one.
    pub fn triage_stats(&self) -> (usize, usize) {
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

    /// Sets the per-fault soft deadline (default: none).
    ///
    /// Each injection gets one [`conferr_sut::Deadline`] spanning its
    /// start and every functional test. The deadline is **soft**: the
    /// engine never preempts the SUT, it checks after each phase
    /// returns, and classifies overruns as
    /// [`crate::InjectionResult::TimedOut`] — a watchdog event that
    /// stays in the injected denominator but is never a detection,
    /// and that the executor's [`crate::RetryPolicy`] retries.
    /// Cooperative adapters can bound their own waits via
    /// [`conferr_sut::Deadline::remaining`]. `None` restores unlimited
    /// time. Sub-millisecond budgets round up to one millisecond, so
    /// a configured deadline is never silently dropped.
    pub fn set_fault_deadline(&self, budget: Option<Duration>) -> &Self {
        let ms = budget.map_or(0, |b| {
            u64::try_from(b.as_millis()).unwrap_or(u64::MAX).max(1)
        });
        self.fault_deadline_ms.store(ms, Ordering::Relaxed);
        self
    }

    /// The configured per-fault budget, if any.
    pub(crate) fn fault_deadline(&self) -> Option<Duration> {
        match self.fault_deadline_ms.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    /// The shared pre-flight linter, when the SUT publishes a
    /// directive schema (e.g. to [lint](FaultLinter::lint) a fault on
    /// its own, outside any campaign).
    pub fn linter(&self) -> Option<Arc<FaultLinter>> {
        self.analysis.as_ref().map(|a| Arc::clone(&a.linter))
    }

    /// Enables or disables the fault memo (default: on).
    ///
    /// For a fixed baseline, a scenario's apply → diff → serialize →
    /// parse → lint preparation is a pure function of its edit list,
    /// so the engine memoizes it by exact edit equality; repeated
    /// faults skip the preparation and the lint while the SUT start
    /// and functional tests still run per injection. Disabling yields
    /// the cold path — profiles are byte-identical either way
    /// (asserted in `tests/parse_cache.rs`), only wall-clock differs.
    /// The linter keeps no memo of its own, so pairing this with
    /// [`conferr_sut::SystemUnderTest::set_parse_caching`] disables
    /// every cache layer at once. That pairing is the reference path:
    /// the cold path may still skip the engine's parse of a
    /// single-edit fault whose edited node parses in place, but a
    /// disabled parse cache drops any parse the engine hands over, so
    /// the simulator parses every byte itself.
    pub fn set_fault_memoization(&self, enabled: bool) -> &Self {
        self.memoize_faults.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.memo.lock().clear();
        }
        self
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
    /// cached baseline entry — shared `Arc<str>` text plus its startup
    /// slot, so the SUT's start can skip re-parsing them — instead of
    /// walking the tree again; the cost is proportional to
    /// the files an edit touched, and only those are serialized and
    /// tagged as mutated. The file of `known`, a single edit whose
    /// tree is its known parse (see [`Self::known_parse`]), is spliced
    /// instead (see [`Self::splice`]), at a cost proportional to the
    /// one top-level node the edit is under.
    fn payload_for(
        &self,
        set: &ConfigSet,
        known: Option<&TreeEdit>,
    ) -> Result<ConfigPayload, String> {
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
            let text = match known.filter(|edit| edit.file() == file) {
                Some(edit) => self.splice(format.as_ref(), tree, edit),
                None => format.serialize(tree),
            };
            match text {
                Ok(text) => {
                    out.insert(file.to_string(), FileText::mutated(text));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(out)
    }

    /// The serialization of `tree`, the baseline of the edited file
    /// with the known-parse `edit` applied (see [`Self::known_parse`]):
    /// the baseline text with the lines of the top-level node the edit
    /// is under replaced by that node's own lines, or removed for a
    /// top-level `Delete` ([`splice_child`]). The file is splice-ready,
    /// so the other top-level nodes' lines are theirs in the baseline
    /// text; debug builds assert the result against a full serialize.
    fn splice(
        &self,
        format: &dyn ConfigFormat,
        tree: &ConfTree,
        edit: &TreeEdit,
    ) -> Result<String, conferr_formats::SerializeError> {
        let file = edit.file();
        let (path, deleted) = match edit {
            TreeEdit::SetText { path, .. } | TreeEdit::SetAttr { path, .. } => (path, false),
            TreeEdit::Delete { path, .. } => (path, true),
            _ => unreachable!("a known parse comes from a SetText, SetAttr or Delete"),
        };
        let [top, below @ ..] = path.indices() else {
            unreachable!("a known parse never edits the root")
        };
        let node = (!deleted || !below.is_empty()).then(|| &tree.root().children()[*top]);
        let baseline = self
            .baseline_payload
            .text(file)
            .expect("every file has a baseline");
        let text = splice_child(format, baseline, &self.splice_ready[file], *top, node)?;
        debug_assert!(
            format.serialize(tree).as_ref() == Ok(&text),
            "the spliced {file} text differs from its serialization: {text:?}"
        );
        Ok(text)
    }

    /// Prepares one scenario's injection: apply to the baseline,
    /// diff, serialize, parse, judge. Pure in the scenario's edits, so
    /// results are memoized by exact edit list when the fault memo is
    /// enabled — a hit returns the byte-identical `Prepared` the cold
    /// path would recompute.
    ///
    /// A cold preparation also returns this fault's payload with the
    /// engine's parse attached to every mutated file (see
    /// [`Self::prepare_cold`]), whether parsed or known without a
    /// parse, and the linter's dialect check beside a single edit's
    /// parse. It is handed to this fault's start and dropped after it;
    /// the memo never keeps a parse or a check.
    fn prepare(&self, scenario: &FaultScenario) -> (Arc<Prepared>, Option<ConfigPayload>) {
        if self.memoize_faults() {
            if let Some(hit) = self.memo.lock().get(&scenario.edits) {
                return (Arc::clone(hit), None);
            }
        }
        let (prepared, parsed) = self.prepare_cold(scenario);
        let prepared = Arc::new(prepared);
        if self.memoize_faults() {
            let mut memo = self.memo.lock();
            if memo.len() >= FAULT_MEMO_CAPACITY {
                memo.clear();
            }
            memo.insert(scenario.edits.clone(), Arc::clone(&prepared));
        }
        (prepared, parsed)
    }

    /// The un-memoized preparation path. With a linter, a single-edit
    /// fault gets one [`edit_parses_in_place`] answer before anything
    /// is serialized, and [`Self::known_parse`] decides from it whether
    /// the mutated tree is the parse of its own serialization. If it
    /// is, that answer licenses three shortcuts: the edited file's
    /// text is spliced into the baseline text instead of serialized
    /// whole (see [`Self::payload_for`]), the mutated tree is carried
    /// as its parse, and the linter, told so, may patch the baseline's
    /// dialect check instead of running it whole (see
    /// [`FaultLinter::judge`]). Every other mutated file is serialized
    /// and parsed in full, once. The linter judges the edited file's
    /// parse with the same answers and hands back the dialect check
    /// it ran on it, which joins that parse. The copy of the payload
    /// that carries both goes to the start, whose simulator then skips
    /// its own parse and validation of the same bytes.
    fn prepare_cold(&self, scenario: &FaultScenario) -> (Prepared, Option<ConfigPayload>) {
        let edits = &scenario.edits;
        let linter = self.analysis.as_ref().map(|a| &a.linter);
        let unparsed = |diff, result| Prepared {
            diff,
            lint: linter.map(|l| l.judge(edits, false, false, None).0),
            payload: Err(result),
        };
        let mutated = match scenario.apply(&self.baseline) {
            Ok(m) => m,
            Err(e) => {
                let reason = e.to_string();
                return (
                    unparsed(empty_diff(), InjectionResult::Skipped { reason }),
                    None,
                );
            }
        };
        let diff: Arc<[String]> = self.diff_summary(&mutated).into();
        let single = match edits.as_slice() {
            [edit] => Some(edit),
            _ => None,
        };
        let in_place = linter.is_some()
            && single.is_some_and(|edit| {
                let file = edit.file();
                let format = self.formats[file].as_ref();
                (self.baseline.get(file).zip(mutated.get(file))).is_some_and(|(before, after)| {
                    edit_parses_in_place(format, before, after, edit)
                })
            });
        let known = single.filter(|edit| self.known_parse(edit, in_place));
        // Serialization can legitimately fail: the mutated tree may
        // not be expressible in the file format (paper §3.2/§5.4).
        let payload = match self.payload_for(&mutated, known) {
            Ok(payload) => payload,
            Err(reason) => {
                return (
                    unparsed(diff, InjectionResult::Inexpressible { reason }),
                    None,
                );
            }
        };
        let Some(linter) = linter else {
            let prepared = Prepared {
                diff,
                lint: None,
                payload: Ok(payload),
            };
            return (prepared, None);
        };
        let known_file = known.map(TreeEdit::file);
        let mut parsed: ConfigPayload = payload
            .iter()
            .map(|(file, text)| {
                let format = self.formats[file].as_ref();
                let text = match (text.origin(), mutated.get(file)) {
                    (TextOrigin::Baseline, _) => text.clone(),
                    (TextOrigin::Mutated, Some(tree)) if known_file == Some(file) => {
                        text.clone().with_known_parse(format, tree.clone())
                    }
                    (TextOrigin::Mutated, _) => text.clone().with_parse(format),
                };
                (file.to_string(), text)
            })
            .collect();
        let edited =
            single.and_then(|edit| parsed.get(edit.file()).map(|text| (edit.file(), text)));
        let reparsed = edited.map(|(file, text)| text.parse_with(self.formats[file].as_ref()));
        let (lint, check) = linter.judge(
            edits,
            in_place,
            known.is_some(),
            reparsed.as_ref().map(Result::as_ref),
        );
        if let (Some((file, text)), Some(check)) = (edited, check) {
            let text = text.clone().with_check(check);
            parsed.insert(file, text);
        }
        let prepared = Prepared {
            diff,
            lint: Some(lint),
            payload: Ok(payload),
        };
        (prepared, Some(parsed))
    }

    /// Whether the mutated tree of a single-edit fault is the parse of
    /// its own serialization, given the edit's [`edit_parses_in_place`]
    /// answer, so the fault needs no parse: the answer is yes, the
    /// file is splice-ready (see [`Self::new`]) and the edit is a
    /// `SetText`, `SetAttr` or `Delete` (see
    /// [`ConfigFormat::parses_in_place`]). Every other line of the
    /// file then parses as in the baseline. The same answer lets the
    /// fault splice its text ([`Self::splice`]) and lets the linter
    /// patch its check, so none of the three needs a test of its own.
    fn known_parse(&self, edit: &TreeEdit, in_place: bool) -> bool {
        in_place
            && self.splice_ready.contains_key(edit.file())
            && matches!(
                edit,
                TreeEdit::SetText { .. } | TreeEdit::SetAttr { .. } | TreeEdit::Delete { .. }
            )
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
                let (prepared, parsed) = self.prepare(&scenario);
                let lint = prepared.lint.as_ref();
                let result = match &prepared.payload {
                    Ok(payload) => match self.triage_shortcut(sut, lint) {
                        Some(result) => result,
                        None => self.start_and_classify(
                            sut,
                            parsed.as_ref().unwrap_or(payload),
                            lint.map(|l| &*l.touch),
                        ),
                    },
                    Err(result) => result.clone(),
                };
                InjectionOutcome {
                    id: scenario.id,
                    description: scenario.description,
                    class: scenario.class,
                    // A refcount bump: every outcome of the same
                    // preparation shares one line allocation.
                    diff: Arc::clone(&prepared.diff),
                    verdict: self.annotate(lint),
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

    /// Adds an error-generator plugin.
    pub fn add_generator(&mut self, generator: Box<dyn ErrorGenerator>) -> &mut Self {
        self.generators.push(generator);
        self
    }

    /// The campaign's injection engine: its knobs, start counters and
    /// linter.
    pub fn engine(&self) -> &InjectionEngine {
        &self.engine
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
    /// most [`crate::CHUNK_SIZE`] faults are in flight and no outcome
    /// is ever buffered.
    ///
    /// This is the [`crate::CampaignExecutor`]'s 1-thread loop with
    /// the borrowed SUT as its one-slot SUT cache, under the
    /// executor's failure contract with no retry: a harness panic on
    /// one fault is recorded as
    /// [`crate::InjectionResult::HarnessFailure`] for that fault, the
    /// SUT is `stop()`ped, and the campaign keeps running.
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
            &crate::RetryPolicy::none(),
            &mut |_| {},
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_keyboard::Keyboard;
    use conferr_model::{ErrorClass, StructuralKind, TypoKind};
    use conferr_plugins::{StructuralPlugin, TokenClass, TypoPlugin};
    use conferr_sut::{ApacheSim, MySqlSim, PostgresSim};
    use conferr_tree::{Node, TreePath};

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
        let engine =
            InjectionEngine::new(&mut sut, Some(&ConfigPayload::from_texts(&configs))).unwrap();
        let tree = engine.baseline().get("postgresql.conf").unwrap();
        assert_eq!(tree.root().children_of_kind("directive").count(), 3);
    }

    const CRLF_POSTGRES: &str = "port = 5432\r\n# note\r\n\r\nmax_connections = 10\r\n";

    fn crlf_engine() -> InjectionEngine {
        let mut sut = PostgresSim::new();
        let mut configs = BTreeMap::new();
        configs.insert("postgresql.conf".to_string(), CRLF_POSTGRES.to_string());
        InjectionEngine::new(&mut sut, Some(&ConfigPayload::from_texts(&configs))).unwrap()
    }

    #[test]
    fn an_untouched_crlf_override_reaches_the_sut_byte_identical() {
        let engine = crlf_engine();
        // What the engine hands the SUT for every file a fault leaves
        // untouched.
        let payload = engine.payload_for(engine.baseline(), None).unwrap();
        assert_eq!(payload.text("postgresql.conf"), Some(CRLF_POSTGRES));
    }

    #[test]
    fn a_crlf_baseline_is_splice_ready() {
        let engine = crlf_engine();
        assert!(engine.splice_ready.contains_key("postgresql.conf"));
        let scenario = FaultScenario {
            id: "typo".into(),
            description: "port typo".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetText {
                file: "postgresql.conf".into(),
                path: TreePath::root().child(0),
                text: Some("5433".into()),
            }],
        };
        assert!(engine.known_parse(&scenario.edits[0], true));
        assert!(!engine.known_parse(&scenario.edits[0], false));
        // The carried parse is the mutated tree, which still shares the
        // untouched lines' nodes with the baseline.
        let file = "postgresql.conf";
        let (_, parsed) = engine.prepare(&scenario);
        let parsed = parsed.unwrap();
        let tree = parsed
            .get(file)
            .unwrap()
            .parse_with(engine.formats[file].as_ref())
            .unwrap();
        assert!(Node::ptr_eq(
            &tree.root().children()[1],
            &engine.baseline().get(file).unwrap().root().children()[1]
        ));
        let text = parsed.text(file).unwrap().to_string();
        assert_eq!(text, CRLF_POSTGRES.replace("5432", "5433"));
    }

    #[test]
    fn with_configs_rejects_undeclared_files() {
        let mut sut = PostgresSim::new();
        let mut configs = BTreeMap::new();
        configs.insert("other.conf".to_string(), String::new());
        assert!(matches!(
            InjectionEngine::new(&mut sut, Some(&ConfigPayload::from_texts(&configs))),
            Err(CampaignError::UnknownFormat { .. })
        ));
    }

    #[test]
    fn fault_deadlines_round_up_and_saturate_instead_of_dropping() {
        let mut sut = PostgresSim::new();
        let engine = InjectionEngine::new(&mut sut, None).unwrap();
        let ms = Duration::from_millis;
        for (budget, expected) in [
            (Some(Duration::from_micros(1)), Some(ms(1))),
            (Some(Duration::ZERO), Some(ms(1))),
            (Some(Duration::MAX), Some(ms(u64::MAX))),
            (None, None),
        ] {
            engine.set_fault_deadline(budget);
            assert_eq!(engine.fault_deadline(), expected, "{budget:?}");
        }
    }

    #[test]
    fn engine_caches_baseline_serialization() {
        let mut sut = PostgresSim::new();
        let campaign = Campaign::new(&mut sut).unwrap();
        // The untouched baseline's payload is served entirely from the
        // cached baseline entries: same Arc<str> allocation (no text
        // clone), baseline origin, and text matching a from-scratch
        // serialization.
        let payload = campaign
            .engine
            .payload_for(campaign.baseline(), None)
            .unwrap();
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
    fn fault_memo_hit_returns_the_memoized_lint() {
        let mut sut = MySqlSim::new();
        let campaign = Campaign::new(&mut sut).unwrap();
        let faults = StructuralPlugin::new()
            .with_kinds([StructuralKind::DirectiveOmission])
            .generate(campaign.baseline())
            .unwrap();
        let GeneratedFault::Scenario(scenario) = &faults[0] else {
            panic!("structural faults are scenarios");
        };
        let engine = &campaign.engine;
        let (cold, parsed) = engine.prepare(scenario);
        assert!(parsed.is_some(), "a cold preparation hands on its parse");
        let (hit, parsed) = engine.prepare(scenario);
        assert!(parsed.is_none(), "a memo hit has no parse to hand on");
        let touch = |p: &Prepared| Arc::clone(&p.lint.as_ref().expect("mysql is linted").touch);
        assert!(
            Arc::ptr_eq(&touch(&cold), &touch(&hit)),
            "the second preparation must hit the memo"
        );
        // With the memo off, every preparation judges afresh.
        engine.set_fault_memoization(false);
        let (fresh, parsed) = engine.prepare(scenario);
        assert!(parsed.is_some());
        assert!(!Arc::ptr_eq(&touch(&cold), &touch(&fresh)));
        assert_eq!(*touch(&cold), *touch(&fresh));
    }

    #[test]
    fn prepared_lints_agree_with_the_standalone_linter() {
        let suts: [Box<dyn SystemUnderTest>; 3] = [
            Box::new(MySqlSim::new()),
            Box::new(PostgresSim::new()),
            Box::new(ApacheSim::new()),
        ];
        for mut sut in suts {
            let engine = InjectionEngine::new(sut.as_mut(), None).unwrap();
            engine.set_fault_memoization(false);
            let linter = engine.linter().expect("the system publishes a schema");
            let mut faults = StructuralPlugin::new().generate(engine.baseline()).unwrap();
            for class in [
                TokenClass::DirectiveNames,
                TokenClass::DirectiveValues,
                TokenClass::SectionNames,
            ] {
                let typos = TypoPlugin::new(Keyboard::qwerty_us(), class);
                faults.extend(typos.generate(engine.baseline()).unwrap());
            }
            let mut refined = 0;
            for fault in faults {
                let GeneratedFault::Scenario(scenario) = fault else {
                    continue;
                };
                if scenario.edits.len() != 1 {
                    continue;
                }
                // The engine hands `judge` the in-place answer it also
                // splices by; the standalone linter asks on its own.
                let (prepared, _) = engine.prepare(&scenario);
                let judged = prepared.lint.as_ref().expect("a linted system");
                let linted = linter.lint(&scenario.edits);
                assert_eq!(judged.verdict, linted.verdict, "{}", scenario.id);
                assert_eq!(judged.touch, linted.touch, "{}", scenario.id);
                refined += usize::from(
                    !judged
                        .touch
                        .values()
                        .any(|t| *t == conferr_analysis::FileTouch::WholeFile),
                );
            }
            assert!(refined > 0, "{}: no touch map was refined", sut.name());
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
        let payload = campaign.engine.payload_for(&mutated, None).unwrap();
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

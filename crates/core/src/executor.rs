//! The persistent campaign executor: a reusable worker pool with
//! cross-system batch scheduling and a streaming fault pipeline.
//!
//! The paper's real workloads (`table2`, `fig3`, `paper_all`, the
//! §5.5 comparison) run *many* campaigns back to back, and the
//! ROADMAP's north star runs *huge* ones (million-fault sweeps). The
//! types here amortize the per-campaign costs and bound the
//! per-campaign memory:
//!
//! * [`CampaignExecutor`] — a pool of persistent worker threads,
//!   constructed once and reused across any number of `run_faults` /
//!   `run_batch` / `run_source` calls. Each worker keeps a private
//!   cache of SUT instances **keyed by [`SutFactory`] identity**, so a
//!   worker that has ever driven a `postgres-sim` reuses that instance
//!   for every later campaign built from the same factory. The
//!   instances memoize no startup state of their own: a start reads
//!   it from the payload's files, which every worker shares (see
//!   [`conferr_sut::ParseCache`]).
//! * [`CampaignBatch`] — N campaigns submitted as one unit, each
//!   backed either by an eager fault `Vec` ([`CampaignBatch::push`])
//!   or by a live, lazily-pulled [`FaultSource`]
//!   ([`CampaignBatch::push_source`]). The executor gives every
//!   entry its own scheduling shard, and workers steal across
//!   *systems* as well as within each system's fault list.
//! * [`ExecutorCampaign`] — the shareable half of a campaign (system
//!   name, [`SutFactory`], `Arc`-shared [`InjectionEngine`], whose
//!   knobs [`ExecutorCampaign::engine`] hands out). Cloning is a
//!   handful of refcount bumps, so many batch entries can share one
//!   engine (the §5.5 driver schedules one entry per *directive*, all
//!   against the same full-coverage baseline).
//!
//! # Streaming data flow
//!
//! Scheduling state is **sharded per batch entry**: every entry owns
//! its fault source behind its own producer lock, its own
//! `CHUNK_SIZE × threads` outstanding window, and its own reorder
//! buffer. A lock-free atomic cursor rotates claiming threads across
//! the entries, so threads pulling work for different systems never
//! contend on a shared queue lock (the global producer bottleneck
//! this design replaced), and entries generate concurrently with each
//! other.
//!
//! Faults are handed out in fixed **chunks** of [`CHUNK_SIZE`] rather
//! than one at a time: a claiming thread takes one entry's shard
//! lock, pulls the next chunk from that entry's fault source (for
//! eager entries this is just an index bump over the owned `Vec`),
//! and works the whole chunk before claiming again — so generation
//! for an entry runs on at most one thread at a time *while every
//! other thread injects*, and queue contention drops by the chunk
//! factor.
//!
//! Completed outcomes are published in **batches**: each thread
//! accumulates up to eight outcomes in a thread-local buffer and
//! parks them in the entry's reorder buffer
//! under one lock acquisition, flushing early on chunk boundaries,
//! exhaustion and panics — so isolation and checkpoint semantics are
//! unchanged. The submitting thread drains each entry's contiguous
//! completed prefix to its [`OutcomeSink`] **in fault order**.
//! Production is throttled per entry by a window of
//! `CHUNK_SIZE × threads` faults outstanding (produced but not yet
//! sunk), which bounds both the in-flight faults and the buffered
//! outcomes for each entry: a million-fault campaign streamed into a
//! counting sink never holds more than the window in memory
//! ([`StreamStats::peak_buffered`] reports the observed maximum).
//!
//! A thread with nothing to do — a worker facing full windows, the
//! submitter waiting on in-flight faults — sleeps on the batch's one
//! wake-up signal. Every event that can unblock either one (a drain,
//! a completion-batch flush, an abort, poisoning) bumps that signal.
//!
//! Scheduling never affects results: every profile is byte-identical
//! to a serial [`crate::Campaign::run_faults`] over the same faults
//! (asserted by the integration tests and the campaign bench). When
//! the executor's effective parallelism is 1 — a one-core machine, or
//! `threads = 1` — submissions take the serial loop with zero queue,
//! buffer or window overhead, driving the caller-side SUT cache
//! directly on the submitting thread and handing each outcome to its
//! sink the moment it completes. [`crate::Campaign`] runs on that
//! same loop over its borrowed SUT, so both share one failure
//! contract: per-fault isolation, retry and quarantine, source panics
//! as [`CampaignError::Generate`] and sink failures as
//! [`CampaignError::SinkIo`]. The only panics that escape it — a shed
//! SUT whose `Drop` panics, or a panicking sink — re-raise on the
//! submitting thread, and the pool stays serviceable.
//!
//! # Examples
//!
//! ```
//! use conferr::{sut_factory, CampaignBatch, CampaignExecutor, ExecutorCampaign};
//! use conferr_keyboard::Keyboard;
//! use conferr_model::ErrorGenerator;
//! use conferr_plugins::{TokenClass, TypoPlugin};
//! use conferr_sut::{MySqlSim, PostgresSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let executor = CampaignExecutor::new(2);
//! let plugin = TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames);
//!
//! // One batch, two systems; workers steal across both.
//! let mut batch = CampaignBatch::new();
//! for campaign in [
//!     ExecutorCampaign::new(sut_factory(MySqlSim::new))?,
//!     ExecutorCampaign::new(sut_factory(PostgresSim::new))?,
//! ] {
//!     let faults = plugin.generate(campaign.baseline())?;
//!     batch.push(&campaign, faults);
//! }
//! let profiles = executor.run_batch(batch)?;
//! assert_eq!(profiles.len(), 2);
//! assert_eq!(profiles[0].system(), "mysql-sim");
//! # Ok(())
//! # }
//! ```
//!
//! Streaming a lazily generated fault load into a bounded-memory
//! sink:
//!
//! ```
//! use conferr::{sut_factory, CampaignExecutor, CountingSink, ExecutorCampaign, CHUNK_SIZE};
//! use conferr_keyboard::Keyboard;
//! use conferr_model::IntoFaultSource;
//! use conferr_plugins::{TokenClass, TypoPlugin};
//! use conferr_sut::PostgresSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let executor = CampaignExecutor::new(2);
//! let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new))?;
//! let plugin = TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames);
//! let source = plugin.into_source(campaign.baseline());
//! let mut sink = CountingSink::new();
//! let stats = executor.run_source(&campaign, Box::new(source), &mut sink)?;
//! assert_eq!(sink.summary().total, stats.outcomes);
//! assert!(stats.peak_buffered <= CHUNK_SIZE * executor.threads());
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use conferr_model::{
    BoxFaultSource, ConfigSet, EagerSource, FaultSource, GenerateError, GeneratedFault,
};
use conferr_sut::{ConfigPayload, SystemUnderTest};

use crate::campaign::InjectionEngine;
use crate::sink::{CollectingSink, OutcomeSink};
use crate::{CampaignError, InjectionOutcome, ResilienceProfile};

/// Faults handed out per queue claim — the middle of the ROADMAP's
/// 8–32 chunked-stealing range. With `threads` workers each batch
/// entry's streaming window is `CHUNK_SIZE × threads` faults.
pub const CHUNK_SIZE: usize = 16;

/// Completed outcomes a thread accumulates locally before publishing
/// them to an entry's reorder buffer in one lock acquisition — half a
/// chunk, so even a thread working one chunk publishes (and
/// releases window space) mid-chunk. Publishing every outcome on its
/// own measured slower on the warm-rerun workload, where emit-lock
/// traffic dominates.
const COMPLETION_BATCH: usize = 8;

/// Default worker count for [`CampaignExecutor`]: every core the
/// machine offers (1 when the parallelism cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Locks a [`Mutex`], shedding poisoning (a panicking worker must not
/// wedge the pool; the executor's state is repaired by the next
/// submission, and reorder buffers are only drained by the
/// submitting thread).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shareable, `Send + Sync` factory of system-under-test instances
/// — the executor's unit of SUT identity.
///
/// Workers cache one SUT per *factory* (not per call), so handing the
/// same `SutFactory` to many campaigns is what makes the pool
/// amortize SUT construction across them. Two
/// clones of one factory share identity ([`SutFactory::key`]); two
/// independently built factories never do, even for the same
/// closure.
///
/// Build one with [`SutFactory::new`] or the free-function shorthand
/// [`sut_factory`].
#[derive(Clone)]
pub struct SutFactory {
    construct: Arc<dyn Fn() -> Box<dyn SystemUnderTest + Send> + Send + Sync>,
}

impl SutFactory {
    /// Wraps a concrete SUT constructor,
    /// e.g. `SutFactory::new(PostgresSim::new)`.
    pub fn new<S, C>(construct: C) -> Self
    where
        S: SystemUnderTest + Send + 'static,
        C: Fn() -> S + Send + Sync + 'static,
    {
        SutFactory {
            construct: Arc::new(move || Box::new(construct())),
        }
    }

    /// Wraps a closure that already produces boxed trait objects.
    pub fn from_boxed(
        construct: impl Fn() -> Box<dyn SystemUnderTest + Send> + Send + Sync + 'static,
    ) -> Self {
        SutFactory {
            construct: Arc::new(construct),
        }
    }

    /// Builds one SUT instance.
    pub fn create(&self) -> Box<dyn SystemUnderTest + Send> {
        (self.construct)()
    }

    /// The factory's identity: stable across clones, distinct across
    /// independently constructed factories. Worker SUT caches key on
    /// this.
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.construct).cast::<()>() as usize
    }
}

impl fmt::Debug for SutFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SutFactory")
            .field("key", &self.key())
            .finish()
    }
}

/// Shorthand for [`SutFactory::new`]:
/// `sut_factory(PostgresSim::new)` reads better than the
/// closure-plus-box it expands to. This is the factory shape
/// [`ExecutorCampaign::new`] expects.
pub fn sut_factory<S, C>(construct: C) -> SutFactory
where
    S: SystemUnderTest + Send + 'static,
    C: Fn() -> S + Send + Sync + 'static,
{
    SutFactory::new(construct)
}

/// Bounded exponential backoff for retrying *retryable* per-fault
/// failures (harness panics and deadline overruns) under fault
/// isolation — see [`CampaignExecutor::set_retry_policy`].
///
/// Attempt `n + 1` sleeps `min(cap, base × 2ⁿ⁻¹)` first; the default
/// ([`RetryPolicy::none`]) makes a single attempt and never sleeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per fault (clamped to at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl RetryPolicy {
    /// One attempt, no retries — the default.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// A policy of `max_attempts` total attempts with exponential
    /// backoff from `base` capped at `cap`.
    pub fn new(max_attempts: u32, base: Duration, cap: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base,
            cap,
        }
    }

    /// The sleep before retry number `retry` (1-based).
    fn backoff(&self, retry: u32) -> Duration {
        let shift = retry.saturating_sub(1).min(31);
        self.base.saturating_mul(1u32 << shift).min(self.cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Faults remembered as repeatedly failing before the quarantine list
/// stops growing — a diagnostic aid, not a correctness structure.
const QUARANTINE_CAPACITY: usize = 1024;

fn push_quarantine(quarantine: &Mutex<Vec<String>>, id: &str) {
    let mut q = lock(quarantine);
    if q.len() < QUARANTINE_CAPACITY {
        q.push(id.to_string());
    }
}

/// Renders a caught panic payload for the `HarnessFailure` record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The outcome recorded when the harness (SUT adapter, factory or
/// engine) panicked on a fault: the fault's own identity with a
/// [`crate::InjectionResult::HarnessFailure`] result, so exports keep
/// the static verdict column next to the failure.
fn harness_failure_outcome(
    fault: &GeneratedFault,
    panic_msg: String,
    tier: conferr_sut::Tier,
) -> InjectionOutcome {
    let (id, description, class) = match fault {
        GeneratedFault::Scenario(s) => (s.id.clone(), s.description.clone(), s.class.clone()),
        GeneratedFault::Inexpressible {
            id,
            description,
            class,
            ..
        } => (id.clone(), description.clone(), class.clone()),
    };
    InjectionOutcome {
        id,
        description,
        class,
        diff: Vec::new().into(),
        verdict: crate::StaticVerdict::Unknown,
        tier,
        result: crate::InjectionResult::HarnessFailure { panic_msg },
    }
}

/// Pulls one chunk with a panicking source contained into a
/// generation error, so a buggy generator ends the campaign cleanly
/// instead of unwinding through the driver.
fn pull_contained(
    source: &mut dyn FaultSource,
    max: usize,
    out: &mut Vec<GeneratedFault>,
) -> Result<usize, GenerateError> {
    catch_unwind(AssertUnwindSafe(|| source.next_chunk(max, out))).unwrap_or_else(|payload| {
        Err(GenerateError::new(
            "fault-source",
            format!("source panicked: {}", panic_message(payload.as_ref())),
        ))
    })
}

/// One fault's execution: what to record, how many retries it took,
/// and whether every attempt failed retryably (the quarantine
/// signal).
struct FaultRun {
    outcome: InjectionOutcome,
    retries: usize,
    exhausted: bool,
}

/// Runs one fault in isolation, retrying under `retry`.
///
/// A panic anywhere from SUT construction through classification is
/// caught, the panicking SUT is shed ([`SutSlot::shed`]), and the
/// fault is recorded as a [`crate::InjectionResult::HarnessFailure`].
/// Harness panics and deadline overruns are retried per `retry`;
/// anything else returns immediately.
///
/// Every exit leaves no SUT marked live in a cache: a completed
/// attempt [`SutSlot::release`]s it, and a contained panic's
/// [`SutSlot::shed`] takes the live mark before it drops the SUT. So
/// even the one panic that escapes — a shed SUT whose `Drop` panics —
/// leaves the cache consistent for the next fault.
fn run_fault(
    engine: &InjectionEngine,
    slot: &mut SutSlot<'_>,
    fault: GeneratedFault,
    retry: &RetryPolicy,
) -> FaultRun {
    let attempts = retry.max_attempts.max(1);
    let mut last = None;
    for attempt in 1..=attempts {
        if attempt > 1 {
            let backoff = retry.backoff(attempt - 1);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            engine.outcome(slot.get(), fault.clone())
        }));
        match run {
            Ok(outcome) => {
                slot.release();
                let retryable = matches!(outcome.result, crate::InjectionResult::TimedOut { .. });
                if !retryable {
                    return FaultRun {
                        outcome,
                        retries: (attempt - 1) as usize,
                        exhausted: false,
                    };
                }
                last = Some(outcome);
            }
            Err(payload) => {
                slot.shed();
                last = Some(harness_failure_outcome(
                    &fault,
                    panic_message(payload.as_ref()),
                    engine.tier(),
                ));
            }
        }
    }
    FaultRun {
        outcome: last.expect("at least one attempt ran"),
        retries: (attempts - 1) as usize,
        exhausted: true,
    }
}

/// The one serial campaign loop, shared by
/// [`crate::Campaign::run_source`] and the executor's 1-thread path:
/// pull a [`CHUNK_SIZE`] chunk from `source`, run each fault in
/// isolation under `retry`, hand each outcome to `sink` the moment it
/// completes, and surface the sink's first I/O failure after each
/// chunk. Returns `(outcomes, retries)`.
///
/// A panicking source becomes [`CampaignError::Generate`]. On any
/// error, outcomes already handed to the sink stay handed.
pub(crate) fn serial_loop(
    engine: &InjectionEngine,
    slot: &mut SutSlot<'_>,
    source: &mut dyn FaultSource,
    sink: &mut dyn OutcomeSink,
    retry: &RetryPolicy,
    quarantine: &mut dyn FnMut(&str),
) -> Result<(usize, usize), CampaignError> {
    let mut outcomes = 0;
    let mut retries = 0;
    let mut chunk = Vec::with_capacity(CHUNK_SIZE);
    loop {
        chunk.clear();
        pull_contained(source, CHUNK_SIZE, &mut chunk).map_err(CampaignError::Generate)?;
        // Exhaustion is judged by what was appended, not the returned
        // count, so a source that miscounts cannot loop forever.
        if chunk.is_empty() {
            return Ok((outcomes, retries));
        }
        for fault in chunk.drain(..) {
            let run = run_fault(engine, slot, fault, retry);
            retries += run.retries;
            if run.exhausted {
                quarantine(&run.outcome.id);
            }
            sink.accept(run.outcome);
            outcomes += 1;
        }
        // Streaming sinks swallow write errors to keep `accept`
        // infallible; drain them here so a failing export aborts the
        // campaign instead of silently dropping rows.
        if let Some(e) = sink.take_error() {
            return Err(CampaignError::SinkIo(e));
        }
    }
}

/// Where the serial loop's SUT comes from.
pub(crate) enum SutSlot<'a> {
    /// A thread's SUT cache, filled from the campaign's factory; a
    /// contained panic drops the live SUT.
    Cached {
        cache: &'a mut SutCache,
        factory: &'a SutFactory,
    },
    /// A caller's borrowed SUT: a one-slot cache that cannot be
    /// dropped, so a contained panic `stop()`s it instead. Every
    /// simulator's `start` clears its running state first, so the
    /// next fault starts from a reset SUT.
    Borrowed(&'a mut dyn SystemUnderTest),
}

impl SutSlot<'_> {
    /// The SUT to drive the next fault against (a cached one is
    /// marked live first).
    fn get(&mut self) -> &mut dyn SystemUnderTest {
        match self {
            SutSlot::Cached { cache, factory } => cache.get_or_create(factory),
            SutSlot::Borrowed(sut) => &mut **sut,
        }
    }

    /// The fault completed normally: nothing is live any more.
    fn release(&mut self) {
        if let SutSlot::Cached { cache, .. } = self {
            cache.live = None;
        }
    }

    /// A panic unwound through the live SUT: drop it from the cache,
    /// or stop the borrowed one (containing a second panic from
    /// `stop` itself, which a SUT that just panicked may raise).
    fn shed(&mut self) {
        match self {
            SutSlot::Cached { cache, .. } => cache.shed_live(),
            SutSlot::Borrowed(sut) => {
                let _ = catch_unwind(AssertUnwindSafe(|| sut.stop()));
            }
        }
    }
}

/// SUT instances cached per worker (and one cache for submitting
/// threads), keyed by [`SutFactory::key`]. The cached entry holds the
/// factory alive, so a key can never be recycled by a new allocation
/// while its SUT is cached.
#[derive(Default)]
pub(crate) struct SutCache {
    suts: HashMap<usize, (SutFactory, Box<dyn SystemUnderTest + Send>)>,
    /// The entry currently driving a fault, if any. A panic can only
    /// leave *that* SUT half-mutated, so panic recovery sheds exactly
    /// this entry ([`SutCache::shed_live`]) and every other cached
    /// SUT stays in service.
    live: Option<usize>,
}

/// Distinct factories a single worker retains SUTs for. Far above any
/// paper workload (six simulator kinds); the clear merely bounds
/// memory for executors fed unbounded streams of fresh factories.
const SUT_CACHE_CAPACITY: usize = 32;

impl SutCache {
    fn get_or_create(&mut self, factory: &SutFactory) -> &mut (dyn SystemUnderTest + Send) {
        let key = factory.key();
        if self.suts.len() >= SUT_CACHE_CAPACITY && !self.suts.contains_key(&key) {
            self.suts.clear();
        }
        // Marked live before construction: if the factory itself
        // panics nothing was inserted, so shedding removes nothing.
        self.live = Some(key);
        self.suts
            .entry(key)
            .or_insert_with(|| (factory.clone(), factory.create()))
            .1
            .as_mut()
    }

    /// Drops only the SUT that was live when a panic unwound through
    /// it, keeping the rest of the cache warm.
    fn shed_live(&mut self) {
        if let Some(key) = self.live.take() {
            self.suts.remove(&key);
        }
    }
}

/// The shareable half of one campaign: system name, SUT factory and
/// `Arc`-shared [`InjectionEngine`] (formats, parsed baseline, cached
/// baseline payload, fault memo, knobs and counters).
///
/// Cloning is cheap (refcount bumps), and many [`CampaignBatch`]
/// entries may share one `ExecutorCampaign` — the §5.5 driver pushes
/// one entry per directive, all against the same engine, so the
/// full-coverage configuration is parsed exactly once per comparison
/// rather than once per worker thread.
#[derive(Clone)]
pub struct ExecutorCampaign {
    system: String,
    factory: SutFactory,
    engine: Arc<InjectionEngine>,
}

impl fmt::Debug for ExecutorCampaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorCampaign")
            .field("system", &self.system)
            .field("files", &self.engine.baseline().len())
            .finish()
    }
}

impl ExecutorCampaign {
    /// Creates a campaign from the factory's SUT defaults, probing one
    /// scout instance.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::Campaign::new`].
    pub fn new(factory: SutFactory) -> Result<Self, CampaignError> {
        Self::build(factory, None)
    }

    /// Creates a campaign from explicit configuration payloads instead
    /// of the SUT defaults (build one from plain text with
    /// [`ConfigPayload::from_texts`]). Overridden files are parsed
    /// once, from the payload's shared `Arc<str>` text; only
    /// non-overridden files fall back to the SUT defaults.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::Campaign::new`], plus an
    /// [`CampaignError::UnknownFormat`] for override files the SUT
    /// does not declare.
    pub fn with_payload(
        factory: SutFactory,
        configs: &ConfigPayload,
    ) -> Result<Self, CampaignError> {
        Self::build(factory, Some(configs))
    }

    fn build(
        factory: SutFactory,
        overrides: Option<&ConfigPayload>,
    ) -> Result<Self, CampaignError> {
        let mut scout = factory.create();
        let engine = Arc::new(InjectionEngine::new(scout.as_mut(), overrides)?);
        Ok(ExecutorCampaign {
            system: scout.name().to_string(),
            factory,
            engine,
        })
    }

    /// The system name the campaign's profiles carry.
    pub fn system(&self) -> &str {
        &self.system
    }

    /// The parsed baseline configuration set.
    pub fn baseline(&self) -> &ConfigSet {
        self.engine.baseline()
    }

    /// The campaign's SUT factory (shared identity with every clone).
    pub fn factory(&self) -> &SutFactory {
        &self.factory
    }

    /// The injection engine every clone of this campaign shares: a
    /// knob set through it holds for all of them.
    pub fn engine(&self) -> &InjectionEngine {
        &self.engine
    }
}

/// N campaigns with their fault supplies, submitted to a
/// [`CampaignExecutor`] as one scheduling unit.
///
/// Entry order is preserved: [`CampaignExecutor::run_batch`] returns
/// one profile per entry, in push order, each merged in fault order —
/// and the sink-based runner delivers each entry's outcomes to its
/// sink in fault order.
#[derive(Default)]
pub struct CampaignBatch {
    entries: Vec<(ExecutorCampaign, BoxFaultSource)>,
}

impl fmt::Debug for CampaignBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(
                self.entries
                    .iter()
                    .map(|(campaign, source)| (campaign.system(), source.size_hint())),
            )
            .finish()
    }
}

impl CampaignBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        CampaignBatch::default()
    }

    /// Appends one campaign with an explicit, eager fault load. The
    /// campaign handle is cloned (refcount bumps); pushing the same
    /// campaign several times with different fault loads is the
    /// intended way to group outcomes (e.g. per directive) while
    /// sharing one engine.
    pub fn push(&mut self, campaign: &ExecutorCampaign, faults: Vec<GeneratedFault>) {
        self.push_source(campaign, Box::new(EagerSource::new(faults)));
    }

    /// Appends one campaign backed by a live [`FaultSource`]: faults
    /// are pulled chunk by chunk *while the batch runs*, so generation
    /// overlaps injection and the fault space is never materialized.
    pub fn push_source(&mut self, campaign: &ExecutorCampaign, source: BoxFaultSource) {
        self.entries.push((campaign.clone(), source));
    }

    /// Number of campaigns in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no campaign has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What a streaming run reports beyond the sinks' own contents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Outcomes handed to sinks across all batch entries.
    pub outcomes: usize,
    /// The largest number of completed-but-not-yet-sunk outcomes ever
    /// buffered across the reorder windows — bounded by
    /// `CHUNK_SIZE × threads` *per batch entry* by construction (and
    /// `0` on the serial fast path, which sinks each outcome the
    /// moment it completes).
    pub peak_buffered: usize,
    /// Retries spent on retryable per-fault failures (harness panics,
    /// deadline overruns) under the [`RetryPolicy`]; always `0` with
    /// the default no-retry policy.
    pub retries: usize,
}

/// One claimed unit of work: `faults[i]` is fault `base + i` of batch
/// entry `unit`.
struct Chunk {
    unit: usize,
    base: usize,
    faults: Vec<GeneratedFault>,
}

/// The producer half of one batch entry: its fault source and fault
/// index, guarded by the entry's own shard lock — so production on
/// different entries never contends, and at most one thread generates
/// per entry (the lock *is* the "dedicated producer path" — every
/// other thread injects meanwhile).
struct EntryShard {
    /// `None` once the source is drained, failed, or aborted.
    feed: Option<BoxFaultSource>,
    /// Faults produced so far (= the next fault index for this
    /// entry).
    produced: usize,
}

/// One entry's reorder buffer: completions arrive in any order (and
/// in batches), the submitting thread drains the contiguous prefix to
/// the sink.
struct EmitUnit {
    /// Next fault index to hand to the sink.
    next: usize,
    pending: BTreeMap<usize, InjectionOutcome>,
}

/// One batch entry's full scheduling shard: campaign handle, producer
/// state, outstanding window and reorder buffer. Each field has its
/// own lock (or is atomic), so entries are scheduled fully
/// independently.
struct EntryState {
    campaign: ExecutorCampaign,
    shard: Mutex<EntryShard>,
    /// Faults produced for this entry but not yet drained to its
    /// sink. Production requires `outstanding + CHUNK_SIZE ≤ window`,
    /// which is what bounds this entry's reorder-buffer memory.
    outstanding: AtomicUsize,
    /// Set (permanently) under the shard lock when the feed is
    /// drained, failed, or the batch aborts; lets claimers skip the
    /// entry without touching its lock.
    exhausted: AtomicBool,
    emit: Mutex<EmitUnit>,
}

/// A batch's one wake-up channel. Every event that may let a sleeper
/// proceed bumps `epoch`; a thread reads the epoch before it checks
/// for work and sleeps only while the epoch stands still, so a missed
/// wake-up is impossible.
#[derive(Default)]
struct Signal {
    epoch: u64,
    /// Threads asleep on the signal; a bump notifies only when some.
    sleepers: usize,
}

/// One streaming batch in flight. Shared by the pool workers and the
/// submitting thread; sinks stay on the submitting thread and are
/// never touched by workers.
struct StreamState {
    entries: Vec<EntryState>,
    /// `CHUNK_SIZE × threads`: the *per-entry* cap on faults produced
    /// but not sunk.
    window: usize,
    /// Retry policy snapshotted at submission.
    retry: RetryPolicy,
    /// Shared with the executor: faults whose every attempt failed
    /// retryably.
    quarantine: Arc<Mutex<Vec<String>>>,
    /// Retries spent across the batch (reported in [`StreamStats`]).
    retries: AtomicUsize,
    /// Round-robin start point for claim scans: each claimer bumps it
    /// and scans from `cursor % entries`, spreading threads across
    /// the entry shards instead of convoying on entry 0.
    cursor: AtomicUsize,
    /// The first source or sink failure; ends production, reported
    /// after the in-flight faults drain.
    error: Mutex<Option<CampaignError>>,
    /// Bumped on every drain, completion-batch flush, abort and
    /// poisoning; claimers facing full windows and the submitter
    /// waiting on in-flight faults both sleep on `wake`.
    signal: Mutex<Signal>,
    wake: Condvar,
    /// Set when a panic escaped isolation: on a worker (a shed SUT
    /// whose `Drop` panics), the submitter re-raises instead of
    /// waiting for a drain that will never finish; on the submitter
    /// (a panicking sink), workers stop waiting for window space
    /// that will never be released.
    poisoned: AtomicBool,
    /// Completed-but-not-sunk outcomes, and the high-water mark.
    buffered: AtomicUsize,
    peak_buffered: AtomicUsize,
}

/// A thread-local buffer of completed outcomes for one batch entry,
/// published to the entry's reorder buffer in batches of
/// [`COMPLETION_BATCH`] under a single emit-lock acquisition — the
/// "drain every K" half of the sharded scheduler. Dropping the
/// buffer flushes the remainder, so chunk boundaries, exhaustion
/// *and unwinding panics* all publish every completed outcome:
/// isolation and checkpoint semantics are identical to per-fault
/// publication.
struct CompletionBatch<'a> {
    state: &'a StreamState,
    unit: usize,
    pending: Vec<(usize, InjectionOutcome)>,
}

impl<'a> CompletionBatch<'a> {
    fn new(state: &'a StreamState, unit: usize) -> Self {
        CompletionBatch {
            state,
            unit,
            pending: Vec::with_capacity(COMPLETION_BATCH),
        }
    }

    /// Buffers one completed outcome; returns `true` when the buffer
    /// reached capacity and was flushed (the submitting thread drains
    /// sinks on that signal).
    fn push(&mut self, index: usize, outcome: InjectionOutcome) -> bool {
        self.pending.push((index, outcome));
        if self.pending.len() >= COMPLETION_BATCH {
            self.flush();
            true
        } else {
            false
        }
    }

    /// Publishes every buffered outcome under one emit-lock
    /// acquisition and bumps the signal once.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.pending.len();
        {
            let mut emit = lock(&self.state.entries[self.unit].emit);
            // Counted under the emit lock, BEFORE the inserts: the
            // drain's matching `fetch_sub` can only run after it
            // removed these outcomes (same lock), so the increment
            // always happens-before its decrement and the counter
            // can never underflow.
            let buffered = self.state.buffered.fetch_add(n, Ordering::AcqRel) + n;
            self.state
                .peak_buffered
                .fetch_max(buffered, Ordering::AcqRel);
            for (index, outcome) in self.pending.drain(..) {
                emit.pending.insert(index, outcome);
            }
        }
        self.state.bump();
    }
}

impl Drop for CompletionBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl StreamState {
    fn new(
        entries: Vec<(ExecutorCampaign, BoxFaultSource)>,
        threads: usize,
        retry: RetryPolicy,
        quarantine: Arc<Mutex<Vec<String>>>,
    ) -> Self {
        StreamState {
            window: CHUNK_SIZE.saturating_mul(threads),
            retry,
            quarantine,
            retries: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            error: Mutex::new(None),
            signal: Mutex::default(),
            wake: Condvar::new(),
            poisoned: AtomicBool::new(false),
            buffered: AtomicUsize::new(0),
            peak_buffered: AtomicUsize::new(0),
            entries: entries
                .into_iter()
                .map(|(campaign, feed)| EntryState {
                    campaign,
                    shard: Mutex::new(EntryShard {
                        feed: Some(feed),
                        produced: 0,
                    }),
                    outstanding: AtomicUsize::new(0),
                    exhausted: AtomicBool::new(false),
                    emit: Mutex::new(EmitUnit {
                        next: 0,
                        pending: BTreeMap::new(),
                    }),
                })
                .collect(),
        }
    }

    /// Pulls one chunk from entry `unit` under its held shard lock.
    /// `Ok(None)` means the feed ran dry (or another claimer already
    /// drained it) and the entry is now exhausted. A failing or
    /// panicking source is an `Err`, on which the caller must abort
    /// the batch *after* releasing the shard lock, so two concurrently
    /// failing entries never lock each other's shards in opposite
    /// orders.
    fn produce(&self, unit: usize, shard: &mut EntryShard) -> Result<Option<Chunk>, CampaignError> {
        let entry = &self.entries[unit];
        let Some(feed) = shard.feed.as_mut() else {
            return Ok(None);
        };
        let mut faults = Vec::with_capacity(CHUNK_SIZE);
        let pulled = pull_contained(feed.as_mut(), CHUNK_SIZE, &mut faults);
        // Window/index bookkeeping trusts what was actually
        // appended, never the source's returned count — a
        // miscounting third-party source must not be able to
        // wedge `outstanding` above zero forever (hang) or spin
        // on empty "non-empty" chunks (live-lock).
        match pulled {
            Err(e) => {
                shard.feed = None;
                entry.exhausted.store(true, Ordering::Release);
                Err(CampaignError::Generate(e))
            }
            Ok(_) if faults.is_empty() => {
                shard.feed = None;
                entry.exhausted.store(true, Ordering::Release);
                Ok(None)
            }
            Ok(_) => {
                let n = faults.len();
                let base = shard.produced;
                shard.produced += n;
                entry.outstanding.fetch_add(n, Ordering::AcqRel);
                Ok(Some(Chunk { unit, base, faults }))
            }
        }
    }

    /// The signal's current epoch: read it *before* checking for
    /// work, then pass it to [`StreamState::sleep_since`].
    fn epoch(&self) -> u64 {
        lock(&self.signal).epoch
    }

    /// Publishes an event that may let a sleeper proceed, notifying
    /// only when some thread sleeps.
    fn bump(&self) {
        let mut signal = lock(&self.signal);
        signal.epoch += 1;
        if signal.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// Sleeps until the next bump, unless the epoch has moved since
    /// `seen` or the batch is poisoned. May return spuriously: callers
    /// re-check and loop.
    fn sleep_since(&self, seen: u64) {
        let mut signal = lock(&self.signal);
        if signal.epoch == seen && !self.poisoned.load(Ordering::Acquire) {
            signal.sleepers += 1;
            signal = self
                .wake
                .wait(signal)
                .unwrap_or_else(PoisonError::into_inner);
            signal.sleepers -= 1;
        }
    }

    /// Poisons the batch after a panic escaped isolation and wakes
    /// every sleeper: workers stop claiming, and the submitter stops
    /// waiting and re-raises.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.bump();
    }

    /// Aborts the whole batch after a source or sink failure: records
    /// the first error, drains every feed, and bumps the signal (a
    /// submitter already asleep when the last in-flight outcome
    /// drained would otherwise never learn the batch is over). Must
    /// not be called with any shard lock held.
    fn abort(&self, error: CampaignError) {
        {
            let mut slot = lock(&self.error);
            if slot.is_none() {
                *slot = Some(error);
            }
        }
        for entry in &self.entries {
            let mut shard = lock(&entry.shard);
            shard.feed = None;
            entry.exhausted.store(true, Ordering::Release);
        }
        self.bump();
    }

    /// Claims the next chunk of work, scanning the entry shards
    /// round-robin from an atomically advanced start point. Sleeps on
    /// the signal when every live entry's window is full and `block`
    /// is set (pool workers); returns `None` immediately otherwise
    /// (the submitting thread, which must keep draining). `None` with
    /// `block` means the batch is over for this thread.
    fn claim(&self, block: bool) -> Option<Chunk> {
        let n = self.entries.len();
        loop {
            // Read before scanning: any space created after this read
            // bumps the epoch, so the sleep below cannot miss it.
            let seen = self.epoch();
            if self.poisoned.load(Ordering::Acquire) {
                return None;
            }
            let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
            let mut failure = None;
            'scan: for i in 0..n {
                let unit = (start + i) % n;
                let entry = &self.entries[unit];
                if entry.exhausted.load(Ordering::Acquire) {
                    continue;
                }
                if entry.outstanding.load(Ordering::Acquire) + CHUNK_SIZE > self.window {
                    continue;
                }
                let mut shard = lock(&entry.shard);
                // Re-check under the lock: another claimer may have
                // filled the window while we waited for the shard.
                if entry.outstanding.load(Ordering::Acquire) + CHUNK_SIZE > self.window {
                    continue;
                }
                match self.produce(unit, &mut shard) {
                    Ok(Some(chunk)) => return Some(chunk),
                    Ok(None) => continue,
                    Err(e) => {
                        // Abort outside the shard lock (see `abort`).
                        drop(shard);
                        failure = Some(e);
                        break 'scan;
                    }
                }
            }
            if let Some(e) = failure {
                self.abort(e);
                return None;
            }
            // Re-read the flags rather than trusting the scan: an
            // entry seen live above may have been exhausted by
            // another claimer (without any notification) meanwhile.
            if self
                .entries
                .iter()
                .all(|e| e.exhausted.load(Ordering::Acquire))
            {
                return None;
            }
            if !block {
                return None;
            }
            // Every live entry's window is full: outstanding > 0
            // somewhere, so a future drain (or abort, or poisoning)
            // will bump the signal.
            self.sleep_since(seen);
        }
    }

    /// Runs one claimed fault and returns its outcome — published by
    /// the caller through a [`CompletionBatch`].
    fn run_claimed(
        &self,
        suts: &mut SutCache,
        unit: usize,
        fault: GeneratedFault,
    ) -> InjectionOutcome {
        let campaign = &self.entries[unit].campaign;
        let mut slot = SutSlot::Cached {
            cache: suts,
            factory: &campaign.factory,
        };
        let run = run_fault(&campaign.engine, &mut slot, fault, &self.retry);
        self.retries.fetch_add(run.retries, Ordering::Relaxed);
        if run.exhausted {
            push_quarantine(&self.quarantine, &run.outcome.id);
        }
        run.outcome
    }

    /// Pool-worker loop: claim chunks until the batch is over,
    /// publishing completions in batches (flushed at the latest on
    /// each chunk boundary).
    fn work(&self, suts: &mut SutCache) {
        while let Some(chunk) = self.claim(true) {
            let mut completions = CompletionBatch::new(self, chunk.unit);
            for (i, fault) in chunk.faults.into_iter().enumerate() {
                let outcome = self.run_claimed(suts, chunk.unit, fault);
                completions.push(chunk.base + i, outcome);
            }
        }
    }

    /// Drains every entry's contiguous completed prefix to its sink
    /// (submitting thread only), releasing window space. Returns how
    /// many outcomes were sunk.
    fn drain(
        &self,
        sinks: &mut [&mut dyn OutcomeSink],
        scratch: &mut Vec<InjectionOutcome>,
    ) -> usize {
        let mut drained = 0;
        let mut sink_error = None;
        for (entry, sink) in self.entries.iter().zip(sinks.iter_mut()) {
            scratch.clear();
            {
                let mut emit = lock(&entry.emit);
                loop {
                    let next = emit.next;
                    match emit.pending.remove(&next) {
                        Some(outcome) => {
                            emit.next += 1;
                            scratch.push(outcome);
                        }
                        None => break,
                    }
                }
            }
            if !scratch.is_empty() {
                drained += scratch.len();
                self.buffered.fetch_sub(scratch.len(), Ordering::AcqRel);
                entry.outstanding.fetch_sub(scratch.len(), Ordering::AcqRel);
            }
            // Sink writes happen outside the emit lock so workers
            // completing faults for this entry never wait on I/O.
            for outcome in scratch.drain(..) {
                sink.accept(outcome);
            }
            if sink_error.is_none() {
                sink_error = sink.take_error();
            }
        }
        if drained > 0 {
            self.bump();
        }
        if let Some(e) = sink_error {
            // A failed export aborts production: no new faults are
            // pulled, the in-flight ones drain normally (into a sink
            // that now discards), and the error surfaces after the
            // batch settles.
            self.abort(CampaignError::SinkIo(e));
        }
        drained
    }

    /// `true` once every produced fault has been handed to a sink and
    /// no feed can produce more. Per entry, `exhausted` is read
    /// before `outstanding`: the flag is set under the shard lock
    /// after the final production, so a true flag makes every
    /// increment of that entry's counter visible — and the submitter
    /// itself performs all decrements.
    fn finished(&self) -> bool {
        self.entries.iter().all(|e| {
            e.exhausted.load(Ordering::Acquire) && e.outstanding.load(Ordering::Acquire) == 0
        })
    }

    /// The submitting thread's loop: steal work like a worker, but
    /// drain completions to the sinks on every completion-batch flush
    /// and sleep only while nothing progresses. Returns the total
    /// outcomes sunk; on poisoning it returns early (the caller
    /// re-raises).
    fn drive(&self, suts: &mut SutCache, sinks: &mut [&mut dyn OutcomeSink]) -> usize {
        let mut scratch = Vec::new();
        let mut sunk = 0;
        loop {
            // Read before draining: a flush after this read bumps the
            // epoch, so the sleep below cannot miss it.
            let seen = self.epoch();
            sunk += self.drain(sinks, &mut scratch);
            if self.poisoned.load(Ordering::Acquire) || self.finished() {
                return sunk;
            }
            if let Some(chunk) = self.claim(false) {
                {
                    let mut completions = CompletionBatch::new(self, chunk.unit);
                    for (i, fault) in chunk.faults.into_iter().enumerate() {
                        let outcome = self.run_claimed(suts, chunk.unit, fault);
                        if completions.push(chunk.base + i, outcome) {
                            sunk += self.drain(sinks, &mut scratch);
                        }
                    }
                    // Dropping `completions` flushes the remainder
                    // before the post-chunk drain below.
                }
                sunk += self.drain(sinks, &mut scratch);
            } else {
                // The failed claim may itself have *discovered*
                // exhaustion (produced the final `Ok(0)`s): re-check
                // before sleeping, or nothing would ever wake us.
                if self.finished() {
                    return sunk;
                }
                // Otherwise faults are in flight on workers: wait for
                // a completion-batch flush (or poisoning, or an
                // abort).
                self.sleep_since(seen);
            }
        }
    }
}

/// What the pool's condition variable hands to waiting workers.
struct JobSlot {
    /// Bumped once per installed batch; a worker only picks up a
    /// batch whose generation it has not seen.
    generation: u64,
    batch: Option<Arc<StreamState>>,
    shutdown: bool,
}

struct PoolShared {
    job: Mutex<JobSlot>,
    work_ready: Condvar,
}

fn worker_loop(shared: Arc<PoolShared>) {
    let mut suts = SutCache::default();
    let mut seen = 0u64;
    loop {
        let batch = {
            let mut slot = lock(&shared.job);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation != seen {
                    seen = slot.generation;
                    if let Some(batch) = &slot.batch {
                        break Arc::clone(batch);
                    }
                    // Generation moved but the batch is already
                    // retired (fully drained before this worker woke):
                    // nothing to steal, keep waiting.
                }
                slot = shared
                    .work_ready
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A panic that escaped isolation (a shed SUT whose `Drop`
        // panics) leaves its claimed chunk unfinished, so it must
        // poison the batch or the submitter waits forever. The unwind
        // has already flushed this worker's completed outcomes.
        // Containing it keeps the pool at full size, and `run_fault`
        // left no SUT live, so the worker keeps every cached SUT.
        if catch_unwind(AssertUnwindSafe(|| batch.work(&mut suts))).is_err() {
            batch.poison();
        }
        debug_assert!(suts.live.is_none(), "run_fault left a SUT live");
    }
}

/// A persistent, work-stealing campaign worker pool.
///
/// Construct one per process (or per benchmark) with the desired
/// parallelism and reuse it for every campaign: `threads - 1`
/// persistent worker threads are spawned up front, and the submitting
/// thread itself works the queue during a submission, so `threads`
/// equals the effective parallelism. Submissions are serialized (one
/// batch in flight at a time); dropping the executor shuts the
/// workers down.
///
/// See the `executor` module docs (the source header of
/// `crates/core/src/executor.rs`) for the scheduling, streaming and
/// determinism guarantees, and [`CampaignBatch`] for multi-campaign
/// submissions.
pub struct CampaignExecutor {
    threads: usize,
    /// Retry policy for retryable isolated failures.
    retry: Mutex<RetryPolicy>,
    /// Faults whose every attempt failed retryably, across
    /// submissions; see [`CampaignExecutor::quarantined`].
    quarantine: Arc<Mutex<Vec<String>>>,
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes submissions and holds the submitting side's SUT
    /// cache (reused across submissions exactly like a worker's).
    caller: Mutex<SutCache>,
}

impl fmt::Debug for CampaignExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignExecutor")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl CampaignExecutor {
    /// Creates an executor with `threads` effective parallelism
    /// (clamped to at least 1): `threads - 1` persistent workers plus
    /// the submitting thread. `CampaignExecutor::new(1)` spawns no
    /// threads at all — every submission runs on the caller via the
    /// serial fast path.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            job: Mutex::new(JobSlot {
                generation: 0,
                batch: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        CampaignExecutor {
            threads,
            retry: Mutex::new(RetryPolicy::none()),
            quarantine: Arc::new(Mutex::new(Vec::new())),
            shared,
            workers,
            caller: Mutex::new(SutCache::default()),
        }
    }

    /// Creates an executor sized to the machine's available
    /// parallelism.
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// The executor's effective parallelism (workers + submitting
    /// thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the retry policy for retryable isolated failures —
    /// harness panics and [`crate::InjectionResult::TimedOut`]
    /// overruns (default: [`RetryPolicy::none`]). A fault whose every
    /// attempt fails retryably keeps its last outcome and is added to
    /// the [`CampaignExecutor::quarantined`] list. A submission runs
    /// under the policy set when it started.
    pub fn set_retry_policy(&self, policy: RetryPolicy) -> &Self {
        *lock(&self.retry) = policy;
        self
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *lock(&self.retry)
    }

    /// Fault ids whose every isolated attempt failed retryably, in
    /// completion order, accumulated across submissions (capped at an
    /// internal capacity). Empty with the default no-retry policy
    /// unless a fault fails its single attempt.
    pub fn quarantined(&self) -> Vec<String> {
        lock(&self.quarantine).clone()
    }

    /// Clears the quarantine list.
    pub fn clear_quarantine(&self) {
        lock(&self.quarantine).clear();
    }

    /// Runs one campaign's fault load through the pool and merges the
    /// outcomes in fault order. Byte-identical to a serial
    /// [`crate::Campaign::run_faults`] over the same faults.
    ///
    /// # Errors
    ///
    /// Currently infallible (kept fallible for symmetry with
    /// [`crate::Campaign::run_faults`]); per-fault problems are
    /// recorded in the profile.
    pub fn run_faults(
        &self,
        campaign: &ExecutorCampaign,
        faults: Vec<GeneratedFault>,
    ) -> Result<ResilienceProfile, CampaignError> {
        let mut batch = CampaignBatch::new();
        batch.push(campaign, faults);
        Ok(self
            .run_batch(batch)?
            .pop()
            .expect("single-entry batch yields one profile"))
    }

    /// Streams one campaign from a live fault source into `sink`,
    /// with outcomes delivered in fault order as they complete.
    /// Memory is bounded by the streaming window no matter how many
    /// faults the source yields.
    ///
    /// # Errors
    ///
    /// Propagates the source's first production failure; outcomes
    /// completed before the failure are still delivered to the sink.
    pub fn run_source(
        &self,
        campaign: &ExecutorCampaign,
        source: BoxFaultSource,
        sink: &mut dyn OutcomeSink,
    ) -> Result<StreamStats, CampaignError> {
        let mut batch = CampaignBatch::new();
        batch.push_source(campaign, source);
        self.run_batch_with_sinks(batch, &mut [sink])
    }

    /// Resumes an interrupted campaign from a recovered
    /// [`crate::Checkpoint`]: re-runs the *same* fault source with the
    /// completed prefix skipped
    /// ([`conferr_model::FaultSourceExt::skip`], so positions keep
    /// their global meaning) and streams the remaining outcomes into
    /// `sink` — typically a [`crate::CheckpointSink`] built with
    /// [`crate::CheckpointSink::resume`] so counts continue where the
    /// journal left off. The resumed outcomes continue to the
    /// byte-identical final profile of the uninterrupted run
    /// (asserted by `tests/robust_executor.rs`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CampaignExecutor::run_source`].
    pub fn resume_from(
        &self,
        campaign: &ExecutorCampaign,
        source: BoxFaultSource,
        checkpoint: &crate::Checkpoint,
        sink: &mut dyn OutcomeSink,
    ) -> Result<StreamStats, CampaignError> {
        use conferr_model::FaultSourceExt;
        self.run_source(campaign, Box::new(source.skip(checkpoint.completed)), sink)
    }

    /// Runs a whole batch, every entry on its own scheduling shard,
    /// and returns one profile per entry (push order, outcomes in
    /// fault order — byte-identical to running every entry through a
    /// serial campaign). Streaming entries
    /// ([`CampaignBatch::push_source`]) are pulled lazily while the
    /// batch runs.
    ///
    /// # Errors
    ///
    /// Fails when a streaming entry's source fails; eager entries
    /// never fail (per-fault problems are recorded in the profiles).
    pub fn run_batch(&self, batch: CampaignBatch) -> Result<Vec<ResilienceProfile>, CampaignError> {
        let systems: Vec<String> = batch
            .entries
            .iter()
            .map(|(c, _)| c.system.clone())
            .collect();
        let mut collectors: Vec<CollectingSink> = batch
            .entries
            .iter()
            .map(|_| CollectingSink::new())
            .collect();
        {
            let mut sinks: Vec<&mut dyn OutcomeSink> = collectors
                .iter_mut()
                .map(|c| c as &mut dyn OutcomeSink)
                .collect();
            self.run_batch_with_sinks(batch, &mut sinks)?;
        }
        Ok(systems
            .into_iter()
            .zip(collectors)
            .map(|(system, collector)| collector.into_profile(system))
            .collect())
    }

    /// Runs a batch with one caller-provided sink per entry
    /// (`sinks[i]` receives entry `i`'s outcomes, in fault order, as
    /// they complete). This is the bounded-memory entry point: the
    /// executor never buffers more than [`CHUNK_SIZE`] × `threads`
    /// outcomes per entry, and with O(1) sinks (counting, CSV/JSONL
    /// writers) a million-fault batch runs in constant memory.
    ///
    /// Sinks stay on the submitting thread — they need not be `Send`
    /// — and are only written to between faults, never concurrently.
    ///
    /// # Errors
    ///
    /// Propagates the first source failure (outcomes completed before
    /// it are still delivered).
    ///
    /// # Panics
    ///
    /// Panics if `sinks.len() != batch.len()`. A panic that escapes
    /// per-fault isolation — a shed SUT whose `Drop` panics, or a
    /// panicking sink — re-raises on the submitting thread; the
    /// executor stays usable and drops cleanly afterwards.
    pub fn run_batch_with_sinks(
        &self,
        batch: CampaignBatch,
        sinks: &mut [&mut dyn OutcomeSink],
    ) -> Result<StreamStats, CampaignError> {
        assert_eq!(sinks.len(), batch.entries.len(), "one sink per batch entry");
        // One submission at a time; the guard doubles as the
        // submitting thread's SUT cache.
        let mut caller = lock(&self.caller);
        let entries = batch.entries;
        if entries.is_empty() {
            return Ok(StreamStats::default());
        }
        // Snapshot the retry policy for the whole submission: changing
        // it mid-flight never affects a batch already running.
        let retry = self.retry_policy();

        // Serial fast path: with no pool workers (threads == 1), run
        // the entries in order on this thread, with zero queue, window
        // or reorder overhead: each outcome goes straight to its sink.
        // This is the serial campaign loop `Campaign` runs, over the
        // persistent SUT cache.
        if self.workers.is_empty() {
            let result = self.run_serial(entries, sinks, &mut caller, &retry);
            debug_assert!(caller.live.is_none(), "run_fault left a SUT live");
            return result;
        }

        let state = Arc::new(StreamState::new(
            entries,
            self.threads,
            retry,
            Arc::clone(&self.quarantine),
        ));
        {
            let mut slot = lock(&self.shared.job);
            slot.generation += 1;
            slot.batch = Some(Arc::clone(&state));
        }
        self.shared.work_ready.notify_all();

        // The submitting thread steals work too, and owns the sinks. A
        // panic here (a sink's, or one escaping a fault it runs)
        // propagates to the caller, but poisons the batch first, so no
        // worker is left waiting on a window only this thread can
        // drain.
        let outcomes = catch_unwind(AssertUnwindSafe(|| state.drive(&mut caller, sinks)))
            .unwrap_or_else(|payload| {
                state.poison();
                resume_unwind(payload)
            });
        debug_assert!(caller.live.is_none(), "run_fault left a SUT live");

        lock(&self.shared.job).batch = None;
        // Re-raise a worker's escaped panic on the submitting thread,
        // as the scoped driver's join did.
        assert!(
            !state.poisoned.load(Ordering::Acquire),
            "a campaign worker panicked while executing a fault"
        );
        if let Some(error) = lock(&state.error).take() {
            return Err(error);
        }
        Ok(StreamStats {
            outcomes,
            peak_buffered: state.peak_buffered.load(Ordering::Acquire),
            retries: state.retries.load(Ordering::Relaxed),
        })
    }

    /// The 1-thread path: entries in order through [`serial_loop`],
    /// each outcome sunk the moment it completes
    /// (`peak_buffered = 0`).
    fn run_serial(
        &self,
        entries: Vec<(ExecutorCampaign, BoxFaultSource)>,
        sinks: &mut [&mut dyn OutcomeSink],
        suts: &mut SutCache,
        retry: &RetryPolicy,
    ) -> Result<StreamStats, CampaignError> {
        let mut stats = StreamStats::default();
        for ((campaign, mut source), sink) in entries.into_iter().zip(sinks.iter_mut()) {
            let mut slot = SutSlot::Cached {
                cache: &mut *suts,
                factory: &campaign.factory,
            };
            let (outcomes, retries) = serial_loop(
                &campaign.engine,
                &mut slot,
                source.as_mut(),
                &mut **sink,
                retry,
                &mut |id| push_quarantine(&self.quarantine, id),
            )?;
            stats.outcomes += outcomes;
            stats.retries += retries;
        }
        Ok(stats)
    }
}

impl Drop for CampaignExecutor {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.job);
            slot.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, CountingSink};
    use conferr_keyboard::Keyboard;
    use conferr_model::{EagerSource, ErrorGenerator, IntoFaultSource, TypoKind};
    use conferr_plugins::{TokenClass, TypoPlugin};
    use conferr_sut::{MySqlSim, PostgresSim};

    fn plugin() -> TypoPlugin {
        TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames)
            .with_kinds([TypoKind::Omission, TypoKind::Transposition])
    }

    #[test]
    fn factory_identity_is_shared_by_clones_only() {
        let a = sut_factory(PostgresSim::new);
        let b = a.clone();
        let c = sut_factory(PostgresSim::new);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_eq!(a.create().name(), "postgres-sim");
    }

    #[test]
    fn executor_profiles_match_serial_for_all_thread_counts() {
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = plugin().generate(campaign.baseline()).unwrap();
        let serial = {
            let mut sut = PostgresSim::new();
            let mut c = Campaign::new(&mut sut).unwrap();
            c.run_faults(faults.clone()).unwrap()
        };
        for threads in [1, 2, 5] {
            let executor = CampaignExecutor::new(threads);
            let profile = executor.run_faults(&campaign, faults.clone()).unwrap();
            assert_eq!(profile.outcomes(), serial.outcomes(), "threads = {threads}");
            assert_eq!(profile.system(), "postgres-sim");
        }
    }

    #[test]
    fn batch_preserves_entry_order_and_fault_order() {
        let executor = CampaignExecutor::new(3);
        let mysql = ExecutorCampaign::new(sut_factory(MySqlSim::new)).unwrap();
        let postgres = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let mysql_faults = plugin().generate(mysql.baseline()).unwrap();
        let postgres_faults = plugin().generate(postgres.baseline()).unwrap();

        let mut batch = CampaignBatch::new();
        batch.push(&postgres, postgres_faults);
        batch.push(&mysql, mysql_faults.clone());
        assert_eq!(batch.len(), 2);
        let profiles = executor.run_batch(batch).unwrap();
        assert_eq!(profiles[0].system(), "postgres-sim");
        assert_eq!(profiles[1].system(), "mysql-sim");
        let ids: Vec<&str> = profiles[1]
            .outcomes()
            .iter()
            .map(|o| o.id.as_str())
            .collect();
        let expected: Vec<&str> = mysql_faults
            .iter()
            .map(conferr_model::GeneratedFault::id)
            .collect();
        assert_eq!(ids, expected, "outcomes merge in fault order");
    }

    #[test]
    fn empty_batch_and_empty_entries_work() {
        let executor = CampaignExecutor::new(2);
        assert!(executor.run_batch(CampaignBatch::new()).unwrap().is_empty());
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let mut batch = CampaignBatch::new();
        batch.push(&campaign, Vec::new());
        let profiles = executor.run_batch(batch).unwrap();
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].is_empty());
    }

    #[test]
    fn executor_is_reusable_across_submissions() {
        let executor = CampaignExecutor::new(2);
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = plugin().generate(campaign.baseline()).unwrap();
        let first = executor.run_faults(&campaign, faults.clone()).unwrap();
        let second = executor.run_faults(&campaign, faults).unwrap();
        assert_eq!(first.outcomes(), second.outcomes());
    }

    #[test]
    fn streamed_source_matches_eager_run_and_bounds_buffering() {
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = plugin().generate(campaign.baseline()).unwrap();
        let eager = {
            let executor = CampaignExecutor::new(1);
            executor.run_faults(&campaign, faults.clone()).unwrap()
        };
        for threads in [1, 2, 4] {
            let executor = CampaignExecutor::new(threads);
            let mut sink = crate::CollectingSink::new();
            let stats = executor
                .run_source(
                    &campaign,
                    Box::new(EagerSource::new(faults.clone())),
                    &mut sink,
                )
                .unwrap();
            assert_eq!(stats.outcomes, faults.len());
            assert!(
                stats.peak_buffered <= CHUNK_SIZE * threads,
                "peak {} vs window {} at {threads} threads",
                stats.peak_buffered,
                CHUNK_SIZE * threads
            );
            let profile = sink.into_profile(campaign.system());
            assert_eq!(profile.outcomes(), eager.outcomes(), "threads = {threads}");
        }
    }

    #[test]
    fn lazy_generator_source_runs_through_the_pool() {
        let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).unwrap();
        let eager = plugin().generate(campaign.baseline()).unwrap();
        let executor = CampaignExecutor::new(3);
        let mut sink = CountingSink::new();
        let stats = executor
            .run_source(
                &campaign,
                Box::new(plugin().into_source(campaign.baseline())),
                &mut sink,
            )
            .unwrap();
        assert_eq!(stats.outcomes, eager.len());
        assert_eq!(sink.summary().total, eager.len());
    }

    /// Violates the `FaultSource` contract in both directions: claims
    /// more faults than it appends, then claims progress while
    /// appending nothing — and reports `hint` as its size, whatever it
    /// holds. Appends `remaining` from the back, one fault per pull.
    #[derive(Debug)]
    struct Lying {
        remaining: Vec<GeneratedFault>,
        hint: (usize, Option<usize>),
    }

    impl conferr_model::FaultSource for Lying {
        fn next_chunk(
            &mut self,
            max: usize,
            out: &mut Vec<GeneratedFault>,
        ) -> Result<usize, conferr_model::GenerateError> {
            if let Some(fault) = self.remaining.pop() {
                out.push(fault);
            }
            Ok(max + 5) // never the truth
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            self.hint
        }
    }

    #[test]
    fn miscounting_sources_cannot_hang_the_pool() {
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = plugin().generate(campaign.baseline()).unwrap();
        let nine: Vec<GeneratedFault> = faults.iter().take(9).cloned().collect();
        let reference = CampaignExecutor::new(1)
            .run_faults(&campaign, nine.iter().rev().cloned().collect())
            .unwrap();
        // An unknown size; an exact size of one; an exact size far
        // above the truth; a lower bound no allocation can hold. None
        // of them steers scheduling or sizes a buffer.
        for hint in [
            (0, None),
            (1, Some(1)),
            (100, Some(100)),
            (usize::MAX, None),
        ] {
            let lying = || -> BoxFaultSource {
                Box::new(Lying {
                    remaining: nine.clone(),
                    hint,
                })
            };
            for threads in [1, 3] {
                let executor = CampaignExecutor::new(threads);
                let mut sink = crate::CollectingSink::new();
                let stats = executor.run_source(&campaign, lying(), &mut sink).unwrap();
                // The executor counts what actually arrived; the batch
                // terminates instead of waiting on phantom faults.
                assert_eq!(stats.outcomes, 9, "threads = {threads}, hint = {hint:?}");
                assert_eq!(
                    sink.into_outcomes(),
                    reference.outcomes(),
                    "threads = {threads}, hint = {hint:?}"
                );
                let mut batch = CampaignBatch::new();
                batch.push_source(&campaign, lying());
                let profiles = executor.run_batch(batch).unwrap();
                assert_eq!(
                    profiles[0].outcomes(),
                    reference.outcomes(),
                    "run_batch: threads = {threads}, hint = {hint:?}"
                );
            }
        }
    }

    #[test]
    fn combinators_count_what_a_miscounting_source_appends() {
        use conferr_model::FaultSourceExt;
        use std::sync::mpsc::RecvTimeoutError;

        type Combine = fn(BoxFaultSource, BoxFaultSource) -> BoxFaultSource;
        // Each case puts the source under test where `s` is and an
        // honest one where `other` is.
        let cases: [(&str, Combine); 6] = [
            ("chain", |s, other| Box::new(s.chain(other))),
            ("take", |s, _| Box::new(s.take(5))),
            ("skip", |s, _| Box::new(s.skip(3))),
            ("sample", |s, _| Box::new(s.sample(7, 0.5))),
            ("product, left", |s, other| Box::new(s.product(other))),
            ("product, right", |s, other| Box::new(other.product(s))),
        ];
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = plugin().generate(campaign.baseline()).unwrap();
        let (tested, other) = (faults[..9].to_vec(), faults[9..12].to_vec());
        for (name, combine) in cases {
            for threads in [1, 3] {
                let case = format!("{name}, threads = {threads}");
                let (campaign, tested, other) = (campaign.clone(), tested.clone(), other.clone());
                let (done, outcomes) = std::sync::mpsc::channel();
                // Each case runs on a helper thread with a bounded
                // wait, so a combinator that spins fails the test
                // instead of hanging it.
                let helper = std::thread::spawn(move || {
                    let executor = CampaignExecutor::new(threads);
                    let run = |s: BoxFaultSource| {
                        let source = combine(s, Box::new(EagerSource::new(other.clone())));
                        let mut sink = crate::CollectingSink::new();
                        executor.run_source(&campaign, source, &mut sink).unwrap();
                        sink.into_outcomes()
                    };
                    let honest = run(Box::new(EagerSource::new(tested.clone())));
                    let lying = run(Box::new(Lying {
                        remaining: tested.into_iter().rev().collect(),
                        hint: (0, None),
                    }));
                    // The receiver is gone only once the wait below timed out.
                    let _ = done.send((honest, lying));
                });
                let (honest, lying) = match outcomes.recv_timeout(Duration::from_secs(60)) {
                    Ok(outcomes) => outcomes,
                    // The helper panicked before sending: surface its panic.
                    Err(RecvTimeoutError::Disconnected) => {
                        resume_unwind(helper.join().expect_err("the helper sent nothing"))
                    }
                    // A hung helper cannot be joined; it is left detached.
                    Err(RecvTimeoutError::Timeout) => panic!("{case}: no return within 60 s"),
                };
                helper.join().expect("the helper returns after sending");
                assert!(!honest.is_empty(), "{case}");
                assert_eq!(lying, honest, "{case}");
            }
        }
    }

    #[test]
    fn source_errors_propagate_after_inflight_outcomes_drain() {
        use conferr_model::{FaultSource, GenerateError};

        /// Yields one fault, then fails.
        #[derive(Debug)]
        struct OneThenFail {
            yielded: bool,
            fault: Option<GeneratedFault>,
        }
        impl FaultSource for OneThenFail {
            fn next_chunk(
                &mut self,
                _max: usize,
                out: &mut Vec<GeneratedFault>,
            ) -> Result<usize, GenerateError> {
                if self.yielded {
                    return Err(GenerateError::new("one-then-fail", "stream broke"));
                }
                self.yielded = true;
                out.push(self.fault.take().expect("first pull"));
                Ok(1)
            }
        }

        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let fault = plugin()
            .generate(campaign.baseline())
            .unwrap()
            .into_iter()
            .next()
            .unwrap();
        for threads in [1, 3] {
            let executor = CampaignExecutor::new(threads);
            let mut sink = crate::CollectingSink::new();
            let err = executor
                .run_source(
                    &campaign,
                    Box::new(OneThenFail {
                        yielded: false,
                        fault: Some(fault.clone()),
                    }),
                    &mut sink,
                )
                .unwrap_err();
            assert!(matches!(err, CampaignError::Generate(_)), "{err}");
            // The serial path sinks the fault before hitting the
            // error; the pooled path drains in-flight outcomes too.
            assert_eq!(sink.len(), 1, "threads = {threads}");
        }
    }

    /// A simulator that panics when started on a configuration
    /// containing the marker text — stands in for a simulator bug
    /// tripped by a pathological injected configuration.
    #[derive(Debug)]
    struct PanickingSim;

    impl conferr_sut::SystemUnderTest for PanickingSim {
        fn name(&self) -> &str {
            "panic-sim"
        }
        fn config_files(&self) -> Vec<conferr_sut::ConfigFileSpec> {
            vec![conferr_sut::ConfigFileSpec {
                name: "p.conf".to_string(),
                format: "kv".to_string(),
                default_contents: "x = 1\n".to_string(),
            }]
        }
        fn start(
            &mut self,
            configs: &conferr_sut::ConfigPayload,
            _deadline: &conferr_sut::Deadline,
        ) -> conferr_sut::StartOutcome {
            if configs.text("p.conf").is_some_and(|t| t.contains("BOOM")) {
                panic!("simulator bug");
            }
            conferr_sut::StartOutcome::Started
        }
        fn test_names(&self) -> Vec<String> {
            Vec::new()
        }
        fn run_test(
            &mut self,
            _test: &str,
            _deadline: &conferr_sut::Deadline,
        ) -> conferr_sut::TestOutcome {
            conferr_sut::TestOutcome::Passed
        }
        fn stop(&mut self) {}
    }

    fn panic_fault(v: &str, i: usize) -> GeneratedFault {
        use conferr_model::{ErrorClass, FaultScenario, TreeEdit};
        use conferr_tree::TreePath;
        GeneratedFault::Scenario(FaultScenario {
            id: format!("f{i}"),
            description: "set x".to_string(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetText {
                file: "p.conf".to_string(),
                path: TreePath::from(vec![0]),
                text: Some(v.to_string()),
            }],
        })
    }

    /// Which thread a [`SidedTeardownSim`]'s escape fires on, and
    /// whether that side has started a fault yet.
    #[derive(Debug)]
    struct EscapeSide {
        submitter: std::thread::ThreadId,
        on_submitter: bool,
        started: Mutex<bool>,
        started_cv: Condvar,
    }

    impl EscapeSide {
        fn escapes_here(&self) -> bool {
            (std::thread::current().id() == self.submitter) == self.on_submitter
        }

        /// On the escaping side, records that it has started a fault;
        /// on the other side, waits (up to 30 s) until it has.
        fn rendezvous(&self) {
            let mut started = lock(&self.started);
            if self.escapes_here() {
                *started = true;
                self.started_cv.notify_all();
            } else {
                let _ = self.started_cv.wait_timeout_while(
                    started,
                    Duration::from_secs(30),
                    |started| !*started,
                );
            }
        }
    }

    /// A simulator whose every `start` panics. Isolation contains that
    /// panic and sheds the SUT, and on the escaping side the shed
    /// SUT's `Drop` panics too: the panic that gets past isolation. A
    /// start on the other side first waits (up to 30 s) until the
    /// escaping side has started a fault, so that side always runs
    /// one.
    #[derive(Debug)]
    struct SidedTeardownSim {
        side: Arc<EscapeSide>,
        /// Set by `start` just before it panics.
        tripped: bool,
    }

    impl conferr_sut::SystemUnderTest for SidedTeardownSim {
        fn name(&self) -> &str {
            PanickingSim.name()
        }
        fn config_files(&self) -> Vec<conferr_sut::ConfigFileSpec> {
            PanickingSim.config_files()
        }
        fn start(
            &mut self,
            _configs: &conferr_sut::ConfigPayload,
            _deadline: &conferr_sut::Deadline,
        ) -> conferr_sut::StartOutcome {
            self.side.rendezvous();
            self.tripped = true;
            panic!("simulator bug");
        }
        fn test_names(&self) -> Vec<String> {
            Vec::new()
        }
        fn run_test(
            &mut self,
            _test: &str,
            _deadline: &conferr_sut::Deadline,
        ) -> conferr_sut::TestOutcome {
            conferr_sut::TestOutcome::Passed
        }
        fn stop(&mut self) {}
    }

    impl Drop for SidedTeardownSim {
        fn drop(&mut self) {
            assert!(
                !(self.tripped && self.side.escapes_here()) || std::thread::panicking(),
                "simulator teardown bug"
            );
        }
    }

    /// Runs one escape case with the calling thread as the submitter.
    /// Returns the message of the panic the submission re-raised,
    /// after a benign submission on the same executor and its drop.
    fn escape_case(threads: usize, on_submitter: bool) -> String {
        let side = Arc::new(EscapeSide {
            submitter: std::thread::current().id(),
            on_submitter,
            started: Mutex::new(false),
            started_cv: Condvar::new(),
        });
        let campaign = ExecutorCampaign::new(sut_factory(move || SidedTeardownSim {
            side: Arc::clone(&side),
            tripped: false,
        }))
        .unwrap();
        let executor = CampaignExecutor::new(threads);
        // Four chunks, so whichever thread claims first leaves work
        // for the other.
        let faults = (0..64).map(|i| panic_fault("2", i)).collect();
        let Err(payload) =
            catch_unwind(AssertUnwindSafe(|| executor.run_faults(&campaign, faults)))
        else {
            panic!("the escaped panic must propagate");
        };
        // The pool survives a poisoned submission.
        let benign = ExecutorCampaign::new(sut_factory(|| PanickingSim)).unwrap();
        let profile = executor
            .run_faults(&benign, (0..8).map(|i| panic_fault("3", i)).collect())
            .unwrap();
        assert_eq!(profile.len(), 8);
        drop(executor);
        panic_message(payload.as_ref())
    }

    #[test]
    fn strict_mode_worker_panic_propagates_instead_of_deadlocking() {
        use std::sync::mpsc::RecvTimeoutError;

        // A shed SUT whose `Drop` panics gets past per-fault
        // isolation. Each case forces that escape onto one side, and
        // the submission must re-raise it rather than wait forever on
        // the fault it left unfinished. Each case runs on a helper
        // thread with a bounded wait, so a lost wake-up fails the test
        // instead of hanging it.
        for (threads, on_submitter, expected) in [
            (1, true, "simulator teardown bug"),
            (2, false, "a campaign worker panicked"),
            (2, true, "simulator teardown bug"),
        ] {
            let case = format!("threads = {threads}, on_submitter = {on_submitter}");
            let (done, outcome) = std::sync::mpsc::channel();
            let helper = std::thread::spawn(move || {
                // The receiver is gone only once the wait below timed out.
                let _ = done.send(escape_case(threads, on_submitter));
            });
            let message = match outcome.recv_timeout(Duration::from_secs(60)) {
                Ok(message) => message,
                // The helper panicked before sending: surface its panic.
                Err(RecvTimeoutError::Disconnected) => {
                    resume_unwind(helper.join().expect_err("the helper sent nothing"))
                }
                // A hung helper cannot be joined; it is left detached.
                Err(RecvTimeoutError::Timeout) => {
                    panic!("{case}: no re-raise and no return within 60 s")
                }
            };
            helper.join().expect("the helper returns after sending");
            assert!(message.starts_with(expected), "{case}: {message}");
        }
    }

    #[test]
    fn isolated_panic_becomes_a_harness_failure_and_the_run_continues() {
        // The same panicking fault load, isolation on (the default):
        // no panic escapes, the poisoned fault is recorded as a
        // harness failure, and every other fault's outcome matches a
        // clean run.
        let campaign = ExecutorCampaign::new(sut_factory(|| PanickingSim)).unwrap();
        for threads in [1, 4] {
            let executor = CampaignExecutor::new(threads);
            let mut faults: Vec<GeneratedFault> = (0..24).map(|i| panic_fault("2", i)).collect();
            faults.insert(12, panic_fault("BOOM", 24));
            let profile = executor.run_faults(&campaign, faults).unwrap();
            assert_eq!(profile.len(), 25, "threads = {threads}");
            let summary = profile.summary();
            assert_eq!(summary.harness_failures, 1);
            let failed = &profile.outcomes()[12];
            assert_eq!(failed.id, "f24");
            assert!(
                matches!(
                    &failed.result,
                    crate::InjectionResult::HarnessFailure { panic_msg }
                        if panic_msg.contains("simulator bug")
                ),
                "{:?}",
                failed.result
            );
            // The single failed attempt exhausted the (no-retry)
            // policy, so the fault lands in quarantine.
            assert_eq!(executor.quarantined(), ["f24"]);
            executor.clear_quarantine();
            assert!(executor.quarantined().is_empty());
        }
    }

    #[test]
    fn retry_policy_retries_transient_panics_and_quarantines_persistent_ones() {
        // Creations 1 and 2 panic; the scout (creation 0) and later
        // ones succeed — a transient harness fault healed by
        // retrying (each panic sheds the live SUT, so every retry
        // re-runs the factory).
        let creations = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&creations);
        let factory = SutFactory::new(move || {
            let n = counter.fetch_add(1, Ordering::Relaxed);
            assert!(!(n == 1 || n == 2), "transient factory bug");
            PanickingSim
        });
        let campaign = ExecutorCampaign::new(factory).unwrap();
        let executor = CampaignExecutor::new(1);
        executor.set_retry_policy(RetryPolicy::new(
            4,
            Duration::from_millis(1),
            Duration::from_millis(2),
        ));
        assert_eq!(executor.retry_policy().max_attempts, 4);

        let mut sink = crate::CollectingSink::new();
        let stats = executor
            .run_source(
                &campaign,
                Box::new(EagerSource::new(vec![panic_fault("2", 0)])),
                &mut sink,
            )
            .unwrap();
        assert_eq!(stats.retries, 2, "two failed attempts, then success");
        assert!(executor.quarantined().is_empty());
        let outcomes = sink.into_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert!(!matches!(
            outcomes[0].result,
            crate::InjectionResult::HarnessFailure { .. }
        ));

        // A fault that panics on every attempt exhausts the policy
        // and is quarantined with its last harness failure recorded.
        let mut sink = crate::CollectingSink::new();
        let stats = executor
            .run_source(
                &campaign,
                Box::new(EagerSource::new(vec![panic_fault("BOOM", 1)])),
                &mut sink,
            )
            .unwrap();
        assert_eq!(stats.retries, 3);
        assert_eq!(executor.quarantined(), ["f1"]);
        assert!(matches!(
            sink.into_outcomes()[0].result,
            crate::InjectionResult::HarnessFailure { .. }
        ));
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let policy = RetryPolicy::new(10, Duration::from_millis(3), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(3));
        assert_eq!(policy.backoff(2), Duration::from_millis(6));
        assert_eq!(policy.backoff(3), Duration::from_millis(10), "capped");
        assert_eq!(policy.backoff(31), Duration::from_millis(10), "no overflow");
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(
            RetryPolicy::new(0, Duration::ZERO, Duration::ZERO).max_attempts,
            1
        );
    }

    #[test]
    fn panicking_source_poisons_instead_of_deadlocking() {
        use conferr_model::{FaultSource, GenerateError};

        /// Yields a few faults, then panics inside `next_chunk` —
        /// a buggy generator on the producer path.
        #[derive(Debug)]
        struct PanickingSource {
            remaining: Vec<GeneratedFault>,
        }
        impl FaultSource for PanickingSource {
            fn next_chunk(
                &mut self,
                max: usize,
                out: &mut Vec<GeneratedFault>,
            ) -> Result<usize, GenerateError> {
                if self.remaining.is_empty() {
                    panic!("generator bug");
                }
                let n = max.min(self.remaining.len());
                out.extend(self.remaining.drain(..n));
                Ok(n)
            }
        }

        // The source panic is contained into a generation error:
        // completed outcomes still arrive, no panic escapes.
        let campaign = ExecutorCampaign::new(sut_factory(|| PanickingSim)).unwrap();
        let executor = CampaignExecutor::new(3);
        let mut sink = CountingSink::new();
        let err = executor
            .run_source(
                &campaign,
                Box::new(PanickingSource {
                    remaining: (0..8).map(|i| panic_fault("2", i)).collect(),
                }),
                &mut sink,
            )
            .unwrap_err();
        assert!(
            matches!(&err, CampaignError::Generate(g) if g.message.contains("generator bug")),
            "{err}"
        );
        assert_eq!(sink.summary().total, 8);

        // The pool is still serviceable.
        let profile = executor
            .run_faults(&campaign, (0..8).map(|i| panic_fault("3", i)).collect())
            .unwrap();
        assert_eq!(profile.len(), 8);
    }

    #[test]
    fn sink_write_errors_abort_the_batch_as_sink_io() {
        use std::io::{self, Write};

        /// Fails after `ok_writes` successful writes.
        struct FlakyWriter {
            ok_writes: usize,
        }
        impl Write for FlakyWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.ok_writes == 0 {
                    return Err(io::Error::other("export disk full"));
                }
                self.ok_writes -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = plugin().generate(campaign.baseline()).unwrap();
        assert!(faults.len() > 4);
        for threads in [1, 3] {
            let executor = CampaignExecutor::new(threads);
            let mut sink = crate::CsvSink::new("postgres-sim", FlakyWriter { ok_writes: 3 });
            let err = executor
                .run_source(
                    &campaign,
                    Box::new(EagerSource::new(faults.clone())),
                    &mut sink,
                )
                .unwrap_err();
            assert!(
                matches!(&err, CampaignError::SinkIo(e) if e.to_string().contains("disk full")),
                "threads = {threads}: {err}"
            );
            assert!(sink.finish().is_err(), "the sink stays tripped");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one_with_no_workers() {
        let executor = CampaignExecutor::new(0);
        assert_eq!(executor.threads(), 1);
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = plugin().generate(campaign.baseline()).unwrap();
        assert!(!executor.run_faults(&campaign, faults).unwrap().is_empty());
    }
}

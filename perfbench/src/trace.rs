//! The traced run's timing decorators.
//!
//! [`TracedSut`], [`TracedSource`] and [`TracedSink`] wrap the three
//! trait objects a campaign user hands the engine and time every call
//! across that boundary. They forward every trait method — including
//! `tier`, `schema`, `set_parse_caching` and `parse_cache_stats`, which
//! gate triage and pruning — so a traced campaign's exports are
//! byte-identical to an untraced one's.
//!
//! Each decorator keeps its spans and totals privately and merges them
//! into the shared [`Collector`] once, when it is dropped (or
//! finished), so the hot path takes no shared lock. Spans are recorded
//! only while the collector is switched on, which keeps set-up work
//! (the engine's baseline scout, a warm-up submission) out of the
//! fault-phase numbers.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use conferr::{InjectionOutcome, OutcomeSink, StaticVerdict};
use conferr_model::{BoxFaultSource, FaultSource, GenerateError, GeneratedFault};
use conferr_sut::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, DirectiveSchema, StartOutcome,
    SystemUnderTest, TestOutcome, Tier,
};

/// A timed boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SystemUnderTest::start`.
    SutStart,
    /// `SystemUnderTest::run_test`.
    SutTest,
    /// `SystemUnderTest::stop`.
    SutStop,
    /// `FaultSource::next_chunk`.
    Source,
    /// `OutcomeSink::accept`.
    Sink,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 5;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::SutStart,
        Layer::SutTest,
        Layer::SutStop,
        Layer::Source,
        Layer::Sink,
    ];

    /// The span name written out with the trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SutStart => "sut.start",
            Layer::SutTest => "sut.test",
            Layer::SutStop => "sut.stop",
            Layer::Source => "model.source",
            Layer::Sink => "core.sink",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One timed call. Spans of one SUT start–test–stop cycle share a
/// `cycle` id (the start's); source and sink spans carry `0`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The boundary crossed.
    pub layer: Layer,
    /// The start–test–stop cycle this span belongs to.
    pub cycle: u64,
    /// Nanoseconds since the collector was created.
    pub start_ns: u64,
    /// Nanoseconds since the collector was created.
    pub end_ns: u64,
}

/// Per-layer call counts and busy time, plus the counters measured at
/// the same boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls per layer, indexed like [`Layer::ALL`].
    pub calls: [u64; LAYERS],
    /// Busy nanoseconds per layer.
    pub nanos: [u64; LAYERS],
    /// Parse-cache hits observed across timed starts.
    pub cache_hits: u64,
    /// Parse-cache misses observed across timed starts.
    pub cache_misses: u64,
    /// Outcome rows seen by the sink.
    pub rows: u64,
    /// Rows whose static verdict is not `Unknown`.
    pub decisive: u64,
}

impl Totals {
    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Busy nanoseconds in `layer`.
    pub fn nanos(&self, layer: Layer) -> u64 {
        self.nanos[layer.index()]
    }

    /// Adds `other` in.
    pub fn merge(&mut self, other: &Totals) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.rows += other.rows;
        self.decisive += other.decisive;
    }
}

/// Raw spans one decorator keeps; the totals cover every call.
const SPANS_PER_DECORATOR: usize = 256;
/// Raw spans the collector keeps across all decorators.
const SPANS_KEPT: usize = 1 << 16;

/// Where decorators merge their spans and totals.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    recording: AtomicBool,
    instances: AtomicU64,
    totals: Mutex<Totals>,
    spans: Mutex<Vec<Span>>,
}

impl Collector {
    /// A collector that is not yet recording.
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            instances: AtomicU64::new(0),
            totals: Mutex::new(Totals::default()),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Switches recording on or off. Decorators check the switch at
    /// every call; the flag publishes no other data.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Totals merged so far (decorators still alive are not included).
    pub fn totals(&self) -> Totals {
        *self.totals.lock().expect("collector lock poisoned")
    }

    /// Writes the kept spans as JSON Lines.
    ///
    /// # Errors
    ///
    /// The writer's first failure.
    pub fn write_spans(&self, mut w: impl Write) -> io::Result<()> {
        let spans = self.spans.lock().expect("collector lock poisoned").clone();
        for s in spans {
            writeln!(
                w,
                "{{\"layer\":\"{}\",\"cycle\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer.name(),
                s.cycle,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }

    fn absorb(&self, local: &mut Local) {
        self.totals
            .lock()
            .expect("collector lock poisoned")
            .merge(&local.totals);
        let mut spans = self.spans.lock().expect("collector lock poisoned");
        let room = SPANS_KEPT.saturating_sub(spans.len());
        spans.extend(local.spans.drain(..).take(room));
        local.totals = Totals::default();
    }
}

/// A decorator's private record, merged into the [`Collector`] once.
#[derive(Debug, Default)]
struct Local {
    totals: Totals,
    spans: Vec<Span>,
}

impl Local {
    fn record(&mut self, layer: Layer, cycle: u64, start_ns: u64, end_ns: u64) {
        let i = layer.index();
        self.totals.calls[i] += 1;
        self.totals.nanos[i] += end_ns.saturating_sub(start_ns);
        if self.spans.len() < SPANS_PER_DECORATOR {
            self.spans.push(Span {
                layer,
                cycle,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Times every call into a system under test. Build it inside a
/// `SutFactory::from_boxed` closure so that every instance the
/// executor creates is traced.
pub struct TracedSut {
    inner: Box<dyn SystemUnderTest + Send>,
    collector: Arc<Collector>,
    local: Local,
    /// The current cycle's id: this instance's id in the high bits, a
    /// per-instance start count in the low ones.
    cycle: u64,
    /// Parse-cache counters after the last recorded start, so each
    /// start reads them once.
    cache_seen: Option<CacheStats>,
}

impl TracedSut {
    /// Wraps `inner`, merging into `collector` when dropped.
    pub fn new(inner: Box<dyn SystemUnderTest + Send>, collector: Arc<Collector>) -> Self {
        let instance = collector.instances.fetch_add(1, Ordering::Relaxed) + 1;
        TracedSut {
            inner,
            collector,
            local: Local::default(),
            cycle: instance << 32,
            cache_seen: None,
        }
    }
}

impl std::fmt::Debug for TracedSut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedSut")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl SystemUnderTest for TracedSut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.inner.config_files()
    }

    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        if !self.collector.recording() {
            self.cache_seen = None;
            return self.inner.start(configs, deadline);
        }
        if self.cache_seen.is_none() {
            self.cache_seen = self.inner.parse_cache_stats();
        }
        let t0 = self.collector.now_ns();
        let outcome = self.inner.start(configs, deadline);
        let t1 = self.collector.now_ns();
        let now = self.inner.parse_cache_stats();
        if let (Some(before), Some(after)) = (self.cache_seen, now) {
            self.local.totals.cache_hits += after.hits - before.hits;
            self.local.totals.cache_misses += after.misses - before.misses;
        }
        self.cache_seen = now;
        self.cycle += 1;
        self.local.record(Layer::SutStart, self.cycle, t0, t1);
        outcome
    }

    fn test_names(&self) -> Vec<String> {
        self.inner.test_names()
    }

    fn run_test(&mut self, test: &str, deadline: &Deadline) -> TestOutcome {
        if !self.collector.recording() {
            return self.inner.run_test(test, deadline);
        }
        let t0 = self.collector.now_ns();
        let outcome = self.inner.run_test(test, deadline);
        let t1 = self.collector.now_ns();
        self.local.record(Layer::SutTest, self.cycle, t0, t1);
        outcome
    }

    fn stop(&mut self) {
        if !self.collector.recording() {
            return self.inner.stop();
        }
        let t0 = self.collector.now_ns();
        self.inner.stop();
        let t1 = self.collector.now_ns();
        self.local.record(Layer::SutStop, self.cycle, t0, t1);
    }

    fn set_parse_caching(&mut self, enabled: bool) {
        self.inner.set_parse_caching(enabled);
    }

    fn parse_cache_stats(&self) -> Option<CacheStats> {
        self.inner.parse_cache_stats()
    }

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        self.inner.schema()
    }

    fn tier(&self) -> Tier {
        self.inner.tier()
    }
}

impl Drop for TracedSut {
    fn drop(&mut self) {
        self.collector.absorb(&mut self.local);
    }
}

/// Times every pull from a fault source.
pub struct TracedSource {
    inner: BoxFaultSource,
    collector: Arc<Collector>,
    local: Local,
}

impl TracedSource {
    /// Wraps `inner`, merging into `collector` when dropped.
    pub fn new(inner: BoxFaultSource, collector: Arc<Collector>) -> Self {
        TracedSource {
            inner,
            collector,
            local: Local::default(),
        }
    }
}

impl FaultSource for TracedSource {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        if !self.collector.recording() {
            return self.inner.next_chunk(max, out);
        }
        let t0 = self.collector.now_ns();
        let pulled = self.inner.next_chunk(max, out);
        let t1 = self.collector.now_ns();
        self.local.record(Layer::Source, 0, t0, t1);
        pulled
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        self.collector.absorb(&mut self.local);
    }
}

/// Times every outcome delivery and counts decisive verdicts; a plain
/// pass-through when built without a collector.
#[derive(Debug)]
pub struct TracedSink<S> {
    inner: S,
    collector: Option<Arc<Collector>>,
    local: Local,
}

impl<S> TracedSink<S> {
    /// Wraps `inner`; `None` makes the wrapper a pass-through.
    pub fn new(inner: S, collector: Option<&Arc<Collector>>) -> Self {
        TracedSink {
            inner,
            collector: collector.cloned(),
            local: Local::default(),
        }
    }

    /// Merges the record into the collector and returns the wrapped
    /// sink.
    pub fn finish(mut self) -> S {
        if let Some(collector) = &self.collector {
            collector.absorb(&mut self.local);
        }
        self.inner
    }
}

impl<S: OutcomeSink> OutcomeSink for TracedSink<S> {
    fn accept(&mut self, outcome: InjectionOutcome) {
        let Some(collector) = self.collector.as_ref().filter(|c| c.recording()) else {
            return self.inner.accept(outcome);
        };
        self.local.totals.rows += 1;
        if !matches!(outcome.verdict, StaticVerdict::Unknown) {
            self.local.totals.decisive += 1;
        }
        let t0 = collector.now_ns();
        self.inner.accept(outcome);
        let t1 = collector.now_ns();
        self.local.record(Layer::Sink, 0, t0, t1);
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.inner.take_error()
    }
}

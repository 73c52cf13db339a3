//! Machine-readable campaign-engine timings and gates — the repo's
//! perf trajectory anchor. The repository benchmark proper, with its
//! distinct-fault workloads and per-layer metrics, is `perfbench/`
//! (declared in `BENCHMARK.json`; see `perfbench/README.md`).
//!
//! Runs the full §5.2 fault load (Table 1 protocol: every-directive
//! deletion plus sampled name/value typos) against MySQL, Postgres
//! and Apache, `repeat` times over, through five configurations:
//!
//! * **serial uncached** — one `Campaign`, one SUT, parse caching
//!   disabled: the reference cold path (every `start` re-parses its
//!   configuration from text, as the pre-PR-3 drivers always did);
//! * **serial** — the same campaign with the SUTs' content-addressed
//!   `ParseCache` on: unchanged files parse once, repeated mutated
//!   texts parse once;
//! * **serial pruned** — the cached serial campaign with test-impact
//!   pruning on: functional tests whose schema-declared read-set is
//!   provably disjoint from a fault's statically derived touch map
//!   are skipped (v5);
//! * **parallel** — a fresh engine run by a fresh
//!   `CampaignExecutor::new(threads)`, one worker and one SUT instance
//!   (with its own cache) per thread, outcomes merged in fault order;
//! * **executor** — one persistent `CampaignExecutor` shared by all
//!   three systems: worker threads and per-worker SUT caches are
//!   constructed once and reused across every `run_faults` call;
//! * **batch** — all three systems' fault loads as **one**
//!   `CampaignBatch`, one entry per system (cross-system work
//!   stealing), timed cold (fresh engines and pool) and warm
//!   (resubmitted to the persistent executor);
//! * **streaming** — the same fault load pulled from a live
//!   `FaultSource` chunk by chunk and drained into an `OutcomeSink`
//!   through the executor's bounded reorder window, with the observed
//!   peak buffering asserted against the `CHUNK_SIZE × threads` bound.
//!
//! All profiles are asserted **byte-identical** before any timing is
//! reported — caches, the pool, the batch scheduler, the streaming
//! pipeline and test-impact pruning must be pure wall-clock/memory
//! optimisations — then the numbers go to `BENCH_campaign.json`
//! (schema v10). A **scheduler** section (v8) prices the sharded
//! executor core: the warm 3-system batch best-of-5 on the
//! persistent pool, gated no slower than the cached serial total
//! (under the v7 global-lock scheduler the pooled executor *lost* to
//! serial; the fixed v7 anchors ride along in the JSON), and the
//! static-triage fast path against its
//! `set_static_triage(false)` reference — byte-identity plus the
//! skip-rate gate (at least 50% of the dynamic starts must be
//! replaced). The
//! parallel/executor/batch speedups scale with core count; on a
//! single-core machine they only measure scheduling overhead (and the
//! batch profile exercises the executor's serial fast path). A
//! **process** section (v7) prices the process tier: the mean
//! wall-clock of one real spawned-validator start (`proc_start_ms`,
//! sandbox materialization + spawn + supervise + classify, measured
//! against the committed `conferr-stub-apachectl`) and the apache
//! triage→confirm funnel ratio of a mixed-tier `run_tiered` pass; it
//! degrades to `"available": false` when the stub binaries were not
//! built alongside this bench. Two
//! closing benches: a **million-fault smoke run** — a lazily
//! enumerated ≥10^6-fault space streamed into a counting sink, never
//! buffering more than the streaming window — and the
//! `FaultScenario::apply` microbench against a whole-tree deep copy.
//!
//! ```text
//! cargo run --release -p conferr-bench --bin bench_campaign [repeat] [threads]
//! ```
//!
//! `threads` defaults to `CONFERR_THREADS` (or the machine's
//! parallelism). CI runs this binary with `CONFERR_THREADS=2` as a
//! byte-identity gate: any profile diverging from the uncached serial
//! reference — or a streaming window overrun — aborts with a failing
//! assertion.

use std::fmt::Write as _;
use std::time::Instant;

use conferr::{
    sut_factory, Campaign, CampaignBatch, CampaignExecutor, CollectingSink, CountingSink,
    ExecutorCampaign, ResilienceProfile, SutFactory, CHUNK_SIZE,
};
use conferr_bench::{
    deep_copy_tree, httpd_apply_fixture, million_fault_source, table1_faultload, threads_from_env,
    DEFAULT_SEED,
};
use conferr_keyboard::Keyboard;
use conferr_model::{EagerSource, ErrorGenerator, GeneratedFault};
use conferr_plugins::StructuralPlugin;
use conferr_proc::{apachectl_spec, process_factory, ProcessSut};
use conferr_sut::{
    default_payload, ApacheSim, Deadline, MySqlSim, PostgresSim, StartOutcome, SystemUnderTest,
};

/// Fixed reference points of the trajectory, all measured on the
/// committed-run host at `repeat` = 20:
///
/// * pre-PR-2: the deep-clone-everything, serialize-everything serial
///   driver;
/// * PR 2: the copy-on-write engine with cached baseline
///   serialization, still re-parsing every configuration at every
///   `start` (what "serial uncached" reproduces today).
const PRE_PR2_SERIAL_TOTAL_MS: f64 = 1440.0;
const PR2_SERIAL_TOTAL_MS: f64 = 1430.0;
const REFERENCE_REPEAT: usize = 20;

/// v7 anchors of the *global-lock* scheduler this PR's sharded
/// scheduler replaced, measured on the committed-run host at
/// `repeat` = 20, 2 threads: every claim, completion and progress
/// update serialized on one producer mutex and one progress lock.
const V7_GLOBAL_LOCK_EXECUTOR_TOTAL_MS: f64 = 140.9;
const V7_GLOBAL_LOCK_BATCH_COLD_MS: f64 = 137.1;
const V7_GLOBAL_LOCK_BATCH_WARM_MS: f64 = 21.6;
const V7_REFERENCE_THREADS: usize = 2;

/// Faults in the bounded-memory streaming smoke run.
const SMOKE_TARGET: usize = 1_000_000;

/// Baseline starts averaged for the process tier's per-start price.
const STARTS: usize = 20;

/// Timing row for one system.
struct Row {
    system: String,
    faults: usize,
    serial_uncached_ms: f64,
    serial_ms: f64,
    serial_pruned_ms: f64,
    parallel_ms: f64,
    executor_ms: f64,
    streaming_ms: f64,
    peak_buffered: usize,
}

/// One system's prepared workload: factory, shared campaign, and the
/// repeated §5.2 fault load.
struct Workload {
    factory: SutFactory,
    campaign: ExecutorCampaign,
    faults: Vec<GeneratedFault>,
}

fn workload(factory: SutFactory, repeat: usize) -> Workload {
    let keyboard = Keyboard::qwerty_us();
    let campaign = ExecutorCampaign::new(factory.clone()).expect("campaign");
    let one = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let mut faults = Vec::with_capacity(one.len() * repeat);
    for _ in 0..repeat {
        faults.extend(one.iter().cloned());
    }
    Workload {
        factory,
        campaign,
        faults,
    }
}

/// One timed serial run over `faults` with every cache layer (the
/// SUT's parse cache and the engine's fault memo) on or off, and
/// test-impact pruning controlled independently so the pruned and
/// unpruned cached profiles are separable.
fn timed_serial(
    factory: &SutFactory,
    faults: Vec<GeneratedFault>,
    caching: bool,
    pruning: bool,
) -> (ResilienceProfile, f64) {
    let mut sut = factory.create();
    sut.set_parse_caching(caching);
    let mut campaign = Campaign::new(sut.as_mut()).expect("campaign");
    campaign.set_fault_memoization(caching);
    campaign.set_impact_pruning(pruning);
    let start = Instant::now();
    let profile = campaign.run_faults(faults).expect("serial run");
    (profile, start.elapsed().as_secs_f64() * 1e3)
}

fn run_system(
    work: &Workload,
    threads: usize,
    executor: &CampaignExecutor,
) -> (Row, ResilienceProfile) {
    let system = work.campaign.system().to_string();
    let n = work.faults.len();

    let (uncached, serial_uncached_ms) =
        timed_serial(&work.factory, work.faults.clone(), false, false);
    let (serial, serial_ms) = timed_serial(&work.factory, work.faults.clone(), true, false);
    let (pruned, serial_pruned_ms) = timed_serial(&work.factory, work.faults.clone(), true, true);

    // A one-shot parallel run: a fresh engine and a fresh pool, whose
    // construction is timed with the run.
    let fresh = ExecutorCampaign::new(work.factory.clone()).expect("campaign");
    let start = Instant::now();
    let parallel = CampaignExecutor::new(threads)
        .run_faults(&fresh, work.faults.clone())
        .expect("parallel run");
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

    // The persistent pool: threads and per-worker SUT caches already
    // exist (warmed by earlier systems/submissions).
    let start = Instant::now();
    let exec_profile = executor
        .run_faults(&work.campaign, work.faults.clone())
        .expect("executor run");
    let executor_ms = start.elapsed().as_secs_f64() * 1e3;

    // Streaming: the same load pulled from a live source chunk by
    // chunk and drained through the bounded reorder window into a
    // sink — the v4 profile. The source adapter is built outside the
    // timed region, like every other profile's inputs.
    let source = Box::new(EagerSource::new(work.faults.clone()));
    let mut sink = CollectingSink::with_capacity(n);
    let start = Instant::now();
    let stats = executor
        .run_source(&work.campaign, source, &mut sink)
        .expect("streaming run");
    let streaming_ms = start.elapsed().as_secs_f64() * 1e3;
    let streamed = sink.into_profile(work.campaign.system());
    let window = CHUNK_SIZE * executor.threads();
    assert!(
        stats.peak_buffered <= window,
        "streaming buffered {} outcomes, window is {window}",
        stats.peak_buffered
    );

    assert_profiles_identical(&uncached, &serial, "cached serial");
    assert_profiles_identical(&uncached, &pruned, "impact-pruned serial");
    assert_profiles_identical(&uncached, &parallel, "parallel");
    assert_profiles_identical(&uncached, &exec_profile, "executor");
    assert_profiles_identical(&uncached, &streamed, "streaming");
    (
        Row {
            system,
            faults: n,
            serial_uncached_ms,
            serial_ms,
            serial_pruned_ms,
            parallel_ms,
            executor_ms,
            streaming_ms,
            peak_buffered: stats.peak_buffered,
        },
        uncached,
    )
}

/// The bounded-memory smoke: a lazily enumerated space of
/// [`SMOKE_TARGET`] compound faults (the MySQL Table 1 load crossed
/// with itself twice, sampled and capped — see
/// [`million_fault_source`]) streamed into a counting sink. The fault
/// space is never materialized, no outcome is retained, and the
/// executor's reorder buffer is asserted to stay within the
/// `CHUNK_SIZE × threads` window.
struct SmokeBench {
    faults: usize,
    ms: f64,
    peak_buffered: usize,
    window: usize,
    detected_at_startup: usize,
}

fn million_fault_smoke(threads: usize) -> SmokeBench {
    let keyboard = Keyboard::qwerty_us();
    let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).expect("campaign");
    // A million *distinct* edit lists would only thrash the engine's
    // bounded fault memo; the smoke measures the uncached pipeline.
    campaign.set_fault_memoization(false);
    let base = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let source = million_fault_source(base, SMOKE_TARGET);

    let executor = CampaignExecutor::new(threads);
    let window = CHUNK_SIZE * executor.threads();
    let mut sink = CountingSink::new();
    let start = Instant::now();
    let stats = executor
        .run_source(&campaign, Box::new(source), &mut sink)
        .expect("smoke run");
    let ms = start.elapsed().as_secs_f64() * 1e3;

    let summary = sink.summary();
    assert_eq!(
        stats.outcomes, SMOKE_TARGET,
        "the space holds >= 10^6 faults"
    );
    assert_eq!(summary.total, SMOKE_TARGET);
    assert!(
        stats.peak_buffered <= window,
        "smoke buffered {} outcomes, window is {window}",
        stats.peak_buffered
    );
    SmokeBench {
        faults: SMOKE_TARGET,
        ms,
        peak_buffered: stats.peak_buffered,
        window,
        detected_at_startup: summary.detected_at_startup,
    }
}

/// Process-tier pricing: the mean wall-clock of one real
/// spawned-validator start and the apache triage→confirm funnel of a
/// mixed-tier pass. `available` is `false` (and every number zero)
/// when the committed stubs were not built next to this bench.
struct ProcessBench {
    available: bool,
    proc_start_ms: f64,
    tiered_ms: f64,
    triaged: usize,
    confirmed: usize,
    funnel_ratio: f64,
}

fn process_bench(threads: usize) -> ProcessBench {
    let unavailable = ProcessBench {
        available: false,
        proc_start_ms: 0.0,
        tiered_ms: 0.0,
        triaged: 0,
        confirmed: 0,
        funnel_ratio: 0.0,
    };
    let Some(stub) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("conferr-stub-apachectl")))
        .filter(|stub| stub.is_file())
    else {
        return unavailable;
    };

    // Per-start cost: sandbox materialization + spawn + supervise +
    // classify, on the baseline payload the scout uses.
    let mut sut = ProcessSut::new(apachectl_spec(stub.clone()));
    let payload = default_payload(&sut);
    let deadline = Deadline::unlimited();
    for _ in 0..3 {
        assert!(matches!(
            sut.start(&payload, &deadline),
            StartOutcome::Started
        ));
    }
    let start = Instant::now();
    for _ in 0..STARTS {
        assert!(matches!(
            sut.start(&payload, &deadline),
            StartOutcome::Started
        ));
    }
    let proc_start_ms = start.elapsed().as_secs_f64() * 1e3 / STARTS as f64;

    // The mixed-tier funnel: simulator triage over the apache
    // structural load, interesting faults confirmed on the spawned
    // stub.
    let executor = CampaignExecutor::new(threads);
    let triage = ExecutorCampaign::new(sut_factory(ApacheSim::new)).expect("triage campaign");
    let confirm =
        ExecutorCampaign::new(process_factory(apachectl_spec(stub))).expect("confirm campaign");
    let faults = StructuralPlugin::new()
        .generate(triage.baseline())
        .expect("structural load");
    let start = Instant::now();
    let report = executor
        .run_tiered(&triage, &confirm, faults)
        .expect("tiered run");
    let tiered_ms = start.elapsed().as_secs_f64() * 1e3;
    ProcessBench {
        available: true,
        proc_start_ms,
        tiered_ms,
        triaged: report.triage.len(),
        confirmed: report.selected,
        funnel_ratio: report.funnel_ratio(),
    }
}

/// The sharded-scheduler section (v8): the warm 3-system batch
/// re-timed best-of-5 on the persistent pool and gated at no slower
/// than the cached serial total, and the static-triage fast path
/// priced against its `set_static_triage(false)` reference with
/// byte-identity and the >= 50% skip-rate gate asserted.
struct SchedulerBench {
    warm_batch_ms: f64,
    warm_vs_serial_ratio: f64,
    triage_off_ms: f64,
    triage_on_ms: f64,
    triage_speedup: f64,
    dynamic_starts: usize,
    synthesized_starts: usize,
    skip_rate: f64,
}

fn scheduler_bench(
    workloads: &[Workload],
    references: &[ResilienceProfile],
    batch_executor: &CampaignExecutor,
    make_batch: &dyn Fn() -> CampaignBatch,
    total_serial: f64,
) -> SchedulerBench {
    // Warm 3-system batch, best of 5 rounds (the least-interfered
    // round scores): every cache and thread
    // already exists, so this is the steady-state scheduling cost the
    // sharded producer shards + batched completions pay for.
    let mut warm_batch_ms = f64::INFINITY;
    for _ in 0..5 {
        let batch = make_batch();
        let start = Instant::now();
        let profiles = batch_executor.run_batch(batch).expect("warm batch");
        warm_batch_ms = warm_batch_ms.min(start.elapsed().as_secs_f64() * 1e3);
        for (reference, profile) in references.iter().zip(&profiles) {
            assert_profiles_identical(reference, profile, "scheduler warm batch");
        }
    }
    // The v8 acceptance gate: the pooled warm batch must be no slower
    // than the cached serial total (<= 1.0x, plus 1 ms of timer
    // slack) — under the v7 global-lock scheduler the pooled executor
    // lost to serial outright.
    assert!(
        warm_batch_ms <= total_serial + 1.0,
        "warm 3-system batch {warm_batch_ms:.1} ms is slower than the cached serial \
         total {total_serial:.1} ms; the sharded scheduler must close the v7 gap"
    );

    // Static triage: the 3-system serial load with the fast path off
    // (the reference knob) and on, byte-identity asserted per system,
    // start counters summed across systems.
    let mut triage_off_ms = 0.0;
    let mut triage_on_ms = 0.0;
    let mut dynamic_starts = 0;
    let mut synthesized_starts = 0;
    for (work, reference) in workloads.iter().zip(references) {
        let timed = |triage: bool| {
            let mut sut = work.factory.create();
            let mut campaign = Campaign::new(sut.as_mut()).expect("campaign");
            campaign.set_static_triage(triage);
            let start = Instant::now();
            let profile = campaign
                .run_faults(work.faults.clone())
                .expect("triage run");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let stats = campaign.triage_stats();
            (profile, ms, stats)
        };
        let (off, off_ms, (_, off_synth)) = timed(false);
        assert_eq!(off_synth, 0, "triage off = every start dynamic");
        let (on, on_ms, (dynamic, synthesized)) = timed(true);
        assert_profiles_identical(reference, &off, "triage-off serial");
        assert_profiles_identical(reference, &on, "triaged serial");
        triage_off_ms += off_ms;
        triage_on_ms += on_ms;
        dynamic_starts += dynamic;
        synthesized_starts += synthesized;
    }
    let skip_rate = synthesized_starts as f64 / (dynamic_starts + synthesized_starts) as f64;
    // The second v8 acceptance gate: triage must cut dynamic starts
    // on the Table 1 load by at least half.
    assert!(
        skip_rate >= 0.5,
        "static triage skipped only {skip_rate:.3} of the Table 1 starts \
         ({synthesized_starts} synthesized vs {dynamic_starts} dynamic); the gate is 50%"
    );
    SchedulerBench {
        warm_batch_ms,
        warm_vs_serial_ratio: warm_batch_ms / total_serial,
        triage_off_ms,
        triage_on_ms,
        triage_speedup: triage_off_ms / triage_on_ms,
        dynamic_starts,
        synthesized_starts,
        skip_rate,
    }
}

/// The timing comparison is only meaningful if every driver computed
/// the same thing — and the caches and schedulers are only *sound* if
/// their runs are byte-identical to the uncached serial reference.
fn assert_profiles_identical(reference: &ResilienceProfile, other: &ResilienceProfile, who: &str) {
    assert_eq!(
        conferr::profile_to_json(reference),
        conferr::profile_to_json(other),
        "{who} profile diverged from the uncached serial reference"
    );
}

/// Timings (in microseconds) of one `httpd.conf` scenario apply: the
/// current path-proportional copy vs the old whole-tree deep copy.
struct ApplyBench {
    nodes: usize,
    deep_copy_us: f64,
    path_apply_us: f64,
}

fn apply_bench() -> ApplyBench {
    let (baseline, scenario) = httpd_apply_fixture();
    let tree = baseline.get("httpd.conf").expect("httpd.conf parsed");
    let nodes = tree.root().subtree_len();

    const ITERS: u32 = 2000;
    let time_us = |f: &mut dyn FnMut()| {
        // Warm up, then time.
        for _ in 0..50 {
            f();
        }
        let start = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS)
    };

    let deep_copy_us = time_us(&mut || {
        let copy = deep_copy_tree(tree);
        std::hint::black_box(&copy);
    });
    let path_apply_us = time_us(&mut || {
        let mutated = scenario.apply(&baseline).expect("apply");
        std::hint::black_box(&mutated);
    });
    ApplyBench {
        nodes,
        deep_copy_us,
        path_apply_us,
    }
}

fn main() {
    let repeat: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let threads: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(threads_from_env);

    println!("campaign engine, full Table 1 fault load x{repeat}, {threads} thread(s)");

    // One persistent pool for the executor profile — its workers and
    // SUT caches survive across all three systems.
    let executor = CampaignExecutor::new(threads);
    let workloads = [
        workload(sut_factory(MySqlSim::new), repeat),
        workload(sut_factory(PostgresSim::new), repeat),
        workload(sut_factory(ApacheSim::new), repeat),
    ];

    let mut rows = Vec::new();
    let mut references = Vec::new();
    for work in &workloads {
        let (row, reference) = run_system(work, threads, &executor);
        rows.push(row);
        references.push(reference);
    }

    // Batch profile, cold: all three systems in one batch, with
    // *fresh* engines and a fresh pool so the number measures
    // batch-scheduling cost with every cache as cold as the serial
    // runs'. Best of 3 rounds (cold state rebuilt each round,
    // construction untimed), because this one carries a gate.
    //
    // The cold gate's reference is the *parallel* total, not the
    // serial one: a multi-worker cold batch keeps one SUT (and one
    // parse cache) per worker, so each distinct mutated text parses
    // once per worker instead of once overall — work a 1-worker
    // serial run never does, and exactly the structure the parallel
    // profile shares. (The old "<= 3% vs serial" note
    // predates per-worker caches and was measured at 1 thread, where
    // the two references coincide.) Against the matching reference,
    // batch scheduling — cross-system queue, producer shards, reorder
    // windows — must be cheap.
    let total_parallel: f64 = rows.iter().map(|r| r.parallel_ms).sum();
    let mut batch_cold_ms = f64::INFINITY;
    let mut batch_executor = CampaignExecutor::new(threads);
    let mut cold_campaigns: Vec<ExecutorCampaign> = Vec::new();
    for _ in 0..3 {
        let executor = CampaignExecutor::new(threads);
        let campaigns: Vec<ExecutorCampaign> = workloads
            .iter()
            .map(|work| ExecutorCampaign::new(work.factory.clone()).expect("campaign"))
            .collect();
        let mut batch = CampaignBatch::new();
        for (work, campaign) in workloads.iter().zip(&campaigns) {
            batch.push(campaign, work.faults.clone());
        }
        let start = Instant::now();
        let batch_profiles = executor.run_batch(batch).expect("batch run");
        batch_cold_ms = batch_cold_ms.min(start.elapsed().as_secs_f64() * 1e3);
        for (reference, profile) in references.iter().zip(&batch_profiles) {
            assert_profiles_identical(reference, profile, "batch (cold)");
        }
        // The last round's pool and engines stay warm for the warm
        // rerun below.
        batch_executor = executor;
        cold_campaigns = campaigns;
    }
    let batch_vs_parallel_pct = (batch_cold_ms - total_parallel) / total_parallel * 100.0;
    assert!(
        batch_cold_ms <= total_parallel * 1.15 + 2.0,
        "cold 3-system batch {batch_cold_ms:.1} ms is {batch_vs_parallel_pct:+.1}% over the \
         parallel total {total_parallel:.1} ms; the gate is 15% (+ 2 ms timer slack)"
    );
    let make_batch = || {
        // Built (fault lists cloned) outside the timed region, like
        // every other profile's inputs.
        let mut batch = CampaignBatch::new();
        for (work, campaign) in workloads.iter().zip(&cold_campaigns) {
            batch.push(campaign, work.faults.clone());
        }
        batch
    };

    // Batch profile, warm: the identical batch resubmitted to the
    // same executor — fault memos, parse caches, SUT instances and
    // worker threads all persist. This is the steady state of a
    // table2-style many-campaign workload.
    let batch = make_batch();
    let start = Instant::now();
    let warm_profiles = batch_executor.run_batch(batch).expect("warm batch");
    let batch_warm_ms = start.elapsed().as_secs_f64() * 1e3;
    for (reference, profile) in references.iter().zip(&warm_profiles) {
        assert_profiles_identical(reference, profile, "batch (warm)");
    }

    let total_serial: f64 = rows.iter().map(|r| r.serial_ms).sum();
    let scheduler = scheduler_bench(
        &workloads,
        &references,
        &batch_executor,
        &make_batch,
        total_serial,
    );

    for row in &rows {
        println!(
            "{:<14} {:>6} faults  uncached {:>8.1} ms  serial {:>8.1} ms  pruned {:>8.1} ms  \
             parallel {:>8.1} ms  executor {:>8.1} ms  streaming {:>8.1} ms (peak buf {})  \
             cache {:>5.2}x",
            row.system,
            row.faults,
            row.serial_uncached_ms,
            row.serial_ms,
            row.serial_pruned_ms,
            row.parallel_ms,
            row.executor_ms,
            row.streaming_ms,
            row.peak_buffered,
            row.serial_uncached_ms / row.serial_ms
        );
    }
    let total_uncached: f64 = rows.iter().map(|r| r.serial_uncached_ms).sum();
    let total_pruned: f64 = rows.iter().map(|r| r.serial_pruned_ms).sum();
    let total_executor: f64 = rows.iter().map(|r| r.executor_ms).sum();
    let batch_overhead_pct = (batch_cold_ms - total_serial) / total_serial * 100.0;
    println!(
        "{:<14} {:>6}         uncached {total_uncached:>8.1} ms  serial {total_serial:>8.1} ms  \
         pruned {total_pruned:>8.1} ms  parallel {total_parallel:>8.1} ms  \
         executor {total_executor:>8.1} ms  cache {:>5.2}x  prune {:>5.2}x",
        "TOTAL",
        "",
        total_uncached / total_serial,
        total_serial / total_pruned
    );
    println!(
        "batch (all systems, one submission): cold {batch_cold_ms:.1} ms \
         ({batch_overhead_pct:+.1}% vs serial total, {batch_vs_parallel_pct:+.1}% vs parallel \
         total, gate 15%), warm rerun {batch_warm_ms:.1} ms ({:.2}x vs serial total)",
        total_serial / batch_warm_ms
    );
    if repeat == REFERENCE_REPEAT {
        println!(
            "references (same fault load, committed-run host): pre-PR-2 serial \
             {PRE_PR2_SERIAL_TOTAL_MS:.0} ms, PR 2 serial {PR2_SERIAL_TOTAL_MS:.0} ms -> \
             {:.2}x vs cached serial",
            PR2_SERIAL_TOTAL_MS / total_serial
        );
    }

    println!(
        "scheduler (sharded producers, batched completions): warm batch best {:.1} ms \
         ({:.2}x vs serial total, gate <= 1.0x; v7 global lock: cold {:.0} ms, warm {:.0} ms \
         at {} threads)",
        scheduler.warm_batch_ms,
        scheduler.warm_vs_serial_ratio,
        V7_GLOBAL_LOCK_BATCH_COLD_MS,
        V7_GLOBAL_LOCK_BATCH_WARM_MS,
        V7_REFERENCE_THREADS,
    );
    println!(
        "static triage (3-system Table 1): off {:.1} ms, on {:.1} ms ({:.2}x), \
         {} of {} starts synthesized (skip rate {:.3}, gate 0.5)",
        scheduler.triage_off_ms,
        scheduler.triage_on_ms,
        scheduler.triage_speedup,
        scheduler.synthesized_starts,
        scheduler.dynamic_starts + scheduler.synthesized_starts,
        scheduler.skip_rate,
    );

    let process = process_bench(threads);
    if process.available {
        println!(
            "process tier (apache structural load): one spawned start {:.2} ms, \
             {} triaged -> {} confirmed (funnel {:.3}) in {:.1} ms",
            process.proc_start_ms,
            process.triaged,
            process.confirmed,
            process.funnel_ratio,
            process.tiered_ms
        );
    } else {
        println!(
            "process tier: stubs not built next to this bench \
             (cargo build --release -p conferr-proc --bins) — section skipped"
        );
    }

    let smoke = million_fault_smoke(threads);
    println!(
        "streaming smoke: {} faults through a counting sink in {:.0} ms \
         ({:.0}k faults/s), peak buffered outcomes {} (window {}), \
         {} detected at startup",
        smoke.faults,
        smoke.ms,
        smoke.faults as f64 / smoke.ms,
        smoke.peak_buffered,
        smoke.window,
        smoke.detected_at_startup,
    );

    let apply = apply_bench();
    println!(
        "scenario apply on httpd.conf ({} nodes): whole-tree deep copy {:.2} us, \
         path-proportional apply {:.2} us -> {:.1}x",
        apply.nodes,
        apply.deep_copy_us,
        apply.path_apply_us,
        apply.deep_copy_us / apply.path_apply_us
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"conferr-bench-campaign/v10\",");
    let _ = writeln!(json, "  \"repeat\": {repeat},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"references\": {{\"pre_pr2_serial_total_ms\": {PRE_PR2_SERIAL_TOTAL_MS}, \
         \"pr2_serial_total_ms\": {PR2_SERIAL_TOTAL_MS}, \"repeat\": {REFERENCE_REPEAT}, \
         \"note\": \"fixed trajectory anchors measured on the committed-run host: the pre-COW \
         deep-clone serial driver and the PR 2 COW serial driver (re-parse on every start)\"}},"
    );
    json.push_str("  \"systems\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"system\": \"{}\", \"faults\": {}, \"serial_uncached_ms\": {:.1}, \
             \"serial_ms\": {:.1}, \"serial_pruned_ms\": {:.1}, \"parallel_ms\": {:.1}, \
             \"executor_ms\": {:.1}, \"streaming_ms\": {:.1}, \"streaming_peak_buffered\": {}, \
             \"cache_speedup\": {:.2}, \"prune_speedup\": {:.2}}}{comma}",
            row.system,
            row.faults,
            row.serial_uncached_ms,
            row.serial_ms,
            row.serial_pruned_ms,
            row.parallel_ms,
            row.executor_ms,
            row.streaming_ms,
            row.peak_buffered,
            row.serial_uncached_ms / row.serial_ms,
            row.serial_ms / row.serial_pruned_ms
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total\": {{\"serial_uncached_ms\": {total_uncached:.1}, \
         \"serial_ms\": {total_serial:.1}, \"serial_pruned_ms\": {total_pruned:.1}, \
         \"parallel_ms\": {total_parallel:.1}, \"executor_ms\": {total_executor:.1}, \
         \"cache_speedup\": {:.2}, \"prune_speedup\": {:.2}, \
         \"speedup_vs_pr2_serial\": {:.2}}},",
        total_uncached / total_serial,
        total_serial / total_pruned,
        PR2_SERIAL_TOTAL_MS / total_serial
    );
    let _ = writeln!(
        json,
        "  \"batch\": {{\"cold_ms\": {batch_cold_ms:.1}, \
         \"overhead_vs_serial_pct\": {batch_overhead_pct:.1}, \
         \"overhead_vs_parallel_pct\": {batch_vs_parallel_pct:.1}, \
         \"warm_ms\": {batch_warm_ms:.1}, \"warm_speedup_vs_serial\": {:.2}, \
         \"note\": \"all three systems' fault loads as one CampaignBatch: cold = fresh \
         engines and pool, best of 3 rounds, gated <= 15% over the *parallel* total — the \
         reference with the same one-SUT-cache-per-worker structure, which a multi-worker \
         cold run duplicates parse work against serial by design; warm = same batch \
         resubmitted to the persistent executor (fault memos, parse caches, SUTs and \
         threads reused); byte-identity vs the uncached serial reference asserted for \
         both\"}},",
        total_serial / batch_warm_ms
    );
    json.push_str("  \"scheduler\": {\n");
    let _ = writeln!(
        json,
        "    \"warm_batch_ms\": {:.1}, \"warm_vs_serial_ratio\": {:.2},",
        scheduler.warm_batch_ms, scheduler.warm_vs_serial_ratio
    );
    let _ = writeln!(
        json,
        "    \"v7_global_lock\": {{\"executor_total_ms\": {V7_GLOBAL_LOCK_EXECUTOR_TOTAL_MS}, \
         \"batch_cold_ms\": {V7_GLOBAL_LOCK_BATCH_COLD_MS}, \
         \"batch_warm_ms\": {V7_GLOBAL_LOCK_BATCH_WARM_MS}, \
         \"threads\": {V7_REFERENCE_THREADS}, \
         \"note\": \"fixed anchors measured on the committed-run host before sharding: one \
         global producer mutex and one progress lock serialized every claim, completion and \
         drain\"}},"
    );
    let _ = writeln!(
        json,
        "    \"triage\": {{\"off_ms\": {:.1}, \"on_ms\": {:.1}, \"speedup\": {:.2}, \
         \"dynamic_starts\": {}, \"synthesized_starts\": {}, \"skip_rate\": {:.3}, \
         \"note\": \"3-system serial Table 1 load with the static-triage fast path off (the \
         reference knob) and on: WillFail* verdicts synthesize DetectedAtStartup, \
         SemanticallySilent synthesizes a warning-free Undetected, everything else starts \
         dynamically; byte-identity asserted per system and skip_rate gated >= 0.5\"}},",
        scheduler.triage_off_ms,
        scheduler.triage_on_ms,
        scheduler.triage_speedup,
        scheduler.dynamic_starts,
        scheduler.synthesized_starts,
        scheduler.skip_rate
    );
    let _ = writeln!(
        json,
        "    \"note\": \"per-entry producer shards + atomic entry cursor + drain-every-8 \
         completion batching: warm_batch_ms is the best of 5 warm 3-system batches on the \
         persistent pool, gated no slower than the cached serial total\"\n  }},"
    );
    if process.available {
        let _ = writeln!(
            json,
            "  \"process\": {{\"available\": true, \"proc_start_ms\": {:.2}, \
             \"tiered_ms\": {:.1}, \"triaged\": {}, \"confirmed\": {}, \
             \"funnel_ratio\": {:.3}, \
             \"note\": \"the process tier priced against the committed conferr-stub-apachectl: \
             proc_start_ms is the mean of {STARTS} baseline starts (sandbox materialization + \
             spawn + supervision + exit/stderr classification); the funnel is a run_tiered pass \
             over the apache structural load — simulator triage, interesting faults confirmed \
             on the spawned stub\"}},",
            process.proc_start_ms,
            process.tiered_ms,
            process.triaged,
            process.confirmed,
            process.funnel_ratio
        );
    } else {
        let _ = writeln!(
            json,
            "  \"process\": {{\"available\": false, \
             \"note\": \"stub binaries not built next to this bench; run \
             cargo build --release -p conferr-proc --bins first\"}},"
        );
    }
    let _ = writeln!(
        json,
        "  \"streaming_smoke\": {{\"faults\": {}, \"ms\": {:.0}, \"faults_per_sec\": {:.0}, \
         \"peak_buffered\": {}, \"window\": {}, \"threads\": {threads}, \
         \"note\": \"a lazily enumerated space of 10^6 compound faults (MySQL Table 1 load \
         crossed with itself twice, seeded 90% sample, capped) streamed into a counting \
         sink: the fault space is never materialized, no outcome is retained, and the \
         executor's reorder buffer is asserted to stay within CHUNK_SIZE x threads\"}},",
        smoke.faults,
        smoke.ms,
        smoke.faults as f64 / (smoke.ms / 1e3),
        smoke.peak_buffered,
        smoke.window,
    );
    let _ = writeln!(
        json,
        "  \"apply\": {{\"file\": \"httpd.conf\", \"nodes\": {}, \"deep_copy_us\": {:.2}, \
         \"path_apply_us\": {:.2}, \"speedup\": {:.1}, \
         \"note\": \"one value-typo FaultScenario::apply (Arc-backed path copy) vs the \
         whole-tree deep copy it replaced\"}}",
        apply.nodes,
        apply.deep_copy_us,
        apply.path_apply_us,
        apply.deep_copy_us / apply.path_apply_us
    );
    json.push_str("}\n");
    std::fs::write("BENCH_campaign.json", &json).expect("write BENCH_campaign.json");
    println!("wrote BENCH_campaign.json");
}

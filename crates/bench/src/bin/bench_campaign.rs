//! The campaign-engine gates the repository benchmark cannot make,
//! with their timings. The repository benchmark proper, with its
//! distinct-fault workloads and per-layer metrics, is `perfbench/`
//! (declared in `BENCHMARK.json`; see `perfbench/README.md`).
//!
//! Runs the full §5.2 fault load (Table 1 protocol: every-directive
//! deletion plus sampled name/value typos) against MySQL, Postgres
//! and Apache, `repeat` times over, and times four profiles:
//!
//! * **serial** — one `Campaign` per system with the SUT's parse
//!   cache and the engine's fault memo on and test-impact pruning
//!   off: the identity reference for every other profile;
//! * **parallel** — a fresh engine on a fresh
//!   `CampaignExecutor::new(threads)`, the pool's construction timed
//!   with the run;
//! * **cold batch** — all three systems' loads as one `CampaignBatch`
//!   on fresh engines and a fresh pool, best of 3 rounds;
//! * **warm batch** — the same batch resubmitted to the last cold
//!   round's pool, every memo, cache, SUT and thread reused, best of 5.
//!
//! Gates, each a failing assertion:
//!
//! * every timed profile is byte-identical to the serial reference;
//! * cold batch ≤ parallel total × 1.15 + 2 ms. The parallel total is
//!   the reference with the batch's one-SUT-per-worker structure,
//!   which a multi-worker cold run pays for by design;
//! * warm batch ≤ serial total + 1 ms;
//! * a **million-fault smoke run** — a lazily enumerated 10⁶-fault
//!   space streamed into a counting sink — yields exactly 10⁶
//!   outcomes with the reorder buffer inside the
//!   `CHUNK_SIZE × threads` window.
//!
//! A **process** section prices the process tier: the mean wall-clock
//! of one real spawned-validator start against the committed
//! `conferr-stub-apachectl`, and the apache triage→confirm funnel of
//! a mixed-tier `run_tiered` pass. It reports `"available": false`
//! unless the stubs were built next to this binary
//! (`cargo build --release -p conferr-proc --bins`).
//!
//! The numbers go to `BENCH_campaign.json` (schema v11).
//!
//! Earlier schemas timed more profiles. Each identity assert they
//! made is a named test:
//!
//! | dropped profile | asserted by |
//! |---|---|
//! | uncached serial, the old reference | `tests/parse_cache.rs`: `cached_profile_is_byte_identical_to_uncached_{mysql,postgres,apache,bind}`, `repeated_fault_load_hits_the_cache_and_stays_identical` |
//! | impact-pruned serial | `tests/static_analysis.rs`: `pruned_profile_is_byte_identical_{mysql,postgres,apache}`, `pruned_parallel_profile_is_byte_identical_at_every_thread_count` |
//! | per-system persistent executor | `tests/executor_batch.rs`: `executor_reuse_is_byte_identical_to_fresh_serial_campaigns`, `cross_system_table1_batch_matches_serial` |
//! | per-system streaming and its window bound | `tests/streaming_pipeline.rs`: `table1_streaming_is_byte_identical_to_eager_across_threads` |
//! | static triage off/on and its ≥ 50% skip rate | `tests/static_analysis.rs`: `triaged_profile_is_byte_identical_{mysql,postgres,apache}` (each asserts ≥ 50% synthesized starts per system), `triaged_executor_batch_is_byte_identical_across_threads` |
//!
//! ```text
//! cargo run --release -p conferr-bench --bin bench_campaign [repeat] [threads]
//! ```
//!
//! `repeat` defaults to 20; `threads` defaults to `CONFERR_THREADS`
//! (or the machine's parallelism).

use std::fmt::Write as _;
use std::time::Instant;

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignBatch, CampaignExecutor, CountingSink,
    ExecutorCampaign, ResilienceProfile, SutFactory, CHUNK_SIZE,
};
use conferr_bench::{million_fault_source, table1_faultload, threads_from_env, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{ErrorGenerator, GeneratedFault};
use conferr_plugins::StructuralPlugin;
use conferr_proc::{apachectl_spec, process_factory, ProcessSut};
use conferr_sut::{
    default_payload, ApacheSim, Deadline, MySqlSim, PostgresSim, StartOutcome, SystemUnderTest,
};

/// Faults in the bounded-memory streaming smoke run.
const SMOKE_TARGET: usize = 1_000_000;

/// Baseline starts averaged for the process tier's per-start price.
const STARTS: usize = 20;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The least of `rounds` timings: the least-interfered round scores.
fn best_of(rounds: usize, mut round: impl FnMut() -> f64) -> f64 {
    (0..rounds).map(|_| round()).fold(f64::INFINITY, f64::min)
}

/// A timed profile is only comparable, and a cache or scheduler only
/// sound, if it is byte-identical to the serial reference.
fn assert_identical(reference: &ResilienceProfile, other: &ResilienceProfile, who: &str) {
    assert_eq!(
        profile_to_json(reference),
        profile_to_json(other),
        "{who} profile of {} diverged from the cached serial reference",
        reference.system()
    );
}

/// One system's repeated §5.2 fault load, its serial reference and
/// the two per-system timings.
struct System {
    factory: SutFactory,
    faults: Vec<GeneratedFault>,
    reference: ResilienceProfile,
    serial_ms: f64,
    parallel_ms: f64,
}

fn run_system(factory: SutFactory, repeat: usize, threads: usize) -> System {
    let keyboard = Keyboard::qwerty_us();
    let mut sut = factory.create();
    let mut campaign = Campaign::new(sut.as_mut()).expect("campaign");
    let one = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let faults: Vec<GeneratedFault> = (0..repeat).flat_map(|_| one.iter().cloned()).collect();

    // Pruning off: the pooled profiles prune by default, so their
    // identity with this run checks pruning too.
    campaign.engine().set_impact_pruning(false);
    let start = Instant::now();
    let reference = campaign.run_faults(faults.clone()).expect("serial run");
    let serial_ms = ms_since(start);

    let fresh = ExecutorCampaign::new(factory.clone()).expect("campaign");
    let start = Instant::now();
    let parallel = CampaignExecutor::new(threads)
        .run_faults(&fresh, faults.clone())
        .expect("parallel run");
    let parallel_ms = ms_since(start);
    assert_identical(&reference, &parallel, "parallel");

    System {
        factory,
        faults,
        reference,
        serial_ms,
        parallel_ms,
    }
}

/// Runs the 3-system batch on `executor` and asserts every entry
/// identical to its system's reference. The batch is built (fault
/// lists cloned) outside the timed region.
fn timed_batch(
    executor: &CampaignExecutor,
    systems: &[System],
    campaigns: &[ExecutorCampaign],
    who: &str,
) -> f64 {
    let mut batch = CampaignBatch::new();
    for (system, campaign) in systems.iter().zip(campaigns) {
        batch.push(campaign, system.faults.clone());
    }
    let start = Instant::now();
    let profiles = executor.run_batch(batch).expect("batch run");
    let ms = ms_since(start);
    for (system, profile) in systems.iter().zip(&profiles) {
        assert_identical(&system.reference, profile, who);
    }
    ms
}

/// The bounded-memory smoke: [`SMOKE_TARGET`] compound faults (the
/// MySQL Table 1 load crossed with itself twice, sampled and capped —
/// see [`million_fault_source`]) streamed into a counting sink. The
/// fault space is never materialized and no outcome is retained.
struct SmokeBench {
    ms: f64,
    peak_buffered: usize,
    window: usize,
}

fn million_fault_smoke(threads: usize) -> SmokeBench {
    let keyboard = Keyboard::qwerty_us();
    let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).expect("campaign");
    // A million *distinct* edit lists would only thrash the engine's
    // bounded fault memo; the smoke measures the uncached pipeline.
    campaign.engine().set_fault_memoization(false);
    let base = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let source = million_fault_source(base, SMOKE_TARGET);

    let executor = CampaignExecutor::new(threads);
    let window = CHUNK_SIZE * executor.threads();
    let mut sink = CountingSink::new();
    let start = Instant::now();
    let stats = executor
        .run_source(&campaign, Box::new(source), &mut sink)
        .expect("smoke run");
    let ms = ms_since(start);

    assert_eq!(stats.outcomes, SMOKE_TARGET, "the space holds 10^6 faults");
    assert_eq!(sink.summary().total, SMOKE_TARGET);
    assert!(
        stats.peak_buffered <= window,
        "smoke buffered {} outcomes, window is {window}",
        stats.peak_buffered
    );
    SmokeBench {
        ms,
        peak_buffered: stats.peak_buffered,
        window,
    }
}

/// Process-tier pricing: the mean cost of one spawned start and the
/// apache triage→confirm funnel.
struct ProcessBench {
    proc_start_ms: f64,
    tiered_ms: f64,
    triaged: usize,
    confirmed: usize,
    funnel_ratio: f64,
}

/// `None` when the committed stubs were not built next to this binary.
fn process_bench(threads: usize) -> Option<ProcessBench> {
    let stub = std::env::current_exe()
        .ok()?
        .parent()?
        .join("conferr-stub-apachectl");
    if !stub.is_file() {
        return None;
    }

    // Per-start cost: sandbox materialization + spawn + supervise +
    // classify, on the baseline payload, after 3 warm-up starts.
    let mut sut = ProcessSut::new(apachectl_spec(stub.clone()));
    let payload = default_payload(&sut);
    let deadline = Deadline::unlimited();
    let mut start_once = || {
        assert!(matches!(
            sut.start(&payload, &deadline),
            StartOutcome::Started
        ));
    };
    (0..3).for_each(|_| start_once());
    let start = Instant::now();
    (0..STARTS).for_each(|_| start_once());
    let proc_start_ms = ms_since(start) / STARTS as f64;

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
    Some(ProcessBench {
        proc_start_ms,
        tiered_ms: ms_since(start),
        triaged: report.triage.len(),
        confirmed: report.selected,
        funnel_ratio: report.funnel_ratio(),
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let repeat: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let threads: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(threads_from_env);
    println!("campaign engine, full Table 1 fault load x{repeat}, {threads} thread(s)");

    let systems = [
        run_system(sut_factory(MySqlSim::new), repeat, threads),
        run_system(sut_factory(PostgresSim::new), repeat, threads),
        run_system(sut_factory(ApacheSim::new), repeat, threads),
    ];
    let serial_ms: f64 = systems.iter().map(|s| s.serial_ms).sum();
    let parallel_ms: f64 = systems.iter().map(|s| s.parallel_ms).sum();

    // Cold batch: fresh engines and a fresh pool every round, their
    // construction untimed. The last round's pool and engines stay
    // for the warm batch.
    let mut last_pool = None;
    let cold_ms = best_of(3, || {
        let executor = CampaignExecutor::new(threads);
        let campaigns: Vec<ExecutorCampaign> = systems
            .iter()
            .map(|s| ExecutorCampaign::new(s.factory.clone()).expect("campaign"))
            .collect();
        let ms = timed_batch(&executor, &systems, &campaigns, "cold batch");
        last_pool = Some((executor, campaigns));
        ms
    });
    let (executor, campaigns) = last_pool.expect("a cold round ran");
    let warm_ms = best_of(5, || {
        timed_batch(&executor, &systems, &campaigns, "warm batch")
    });
    let cold_ratio = cold_ms / parallel_ms;
    let warm_ratio = warm_ms / serial_ms;
    println!(
        "serial {serial_ms:.1} ms, parallel {parallel_ms:.1} ms; 3-system batch: \
         cold {cold_ms:.1} ms ({cold_ratio:.2}x parallel, gate 1.15x), \
         warm {warm_ms:.1} ms ({warm_ratio:.2}x serial, gate 1.0x)"
    );
    assert!(
        cold_ms <= parallel_ms * 1.15 + 2.0,
        "cold 3-system batch {cold_ms:.1} ms is over 1.15x the parallel total \
         {parallel_ms:.1} ms (+ 2 ms timer slack)"
    );
    assert!(
        warm_ms <= serial_ms + 1.0,
        "warm 3-system batch {warm_ms:.1} ms is slower than the cached serial total \
         {serial_ms:.1} ms (+ 1 ms timer slack)"
    );

    let process = process_bench(threads);
    match &process {
        Some(p) => println!(
            "process tier (apache structural load): one spawned start {:.2} ms, \
             {} triaged -> {} confirmed (funnel {:.3}) in {:.1} ms",
            p.proc_start_ms, p.triaged, p.confirmed, p.funnel_ratio, p.tiered_ms
        ),
        None => println!(
            "process tier: stubs not built next to this binary \
             (cargo build --release -p conferr-proc --bins) — section skipped"
        ),
    }

    let smoke = million_fault_smoke(threads);
    let smoke_rate = SMOKE_TARGET as f64 / (smoke.ms / 1e3);
    println!(
        "streaming smoke: {SMOKE_TARGET} faults through a counting sink in {:.0} ms \
         ({smoke_rate:.0} faults/s), peak buffered outcomes {} (window {})",
        smoke.ms, smoke.peak_buffered, smoke.window
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"conferr-bench-campaign/v11\",");
    let _ = writeln!(json, "  \"repeat\": {repeat},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"gates\": {{\"serial_total_ms\": {serial_ms:.1}, \
         \"parallel_total_ms\": {parallel_ms:.1}, \"cold_batch_ms\": {cold_ms:.1}, \
         \"cold_vs_parallel_ratio\": {cold_ratio:.2}, \"warm_batch_ms\": {warm_ms:.1}, \
         \"warm_vs_serial_ratio\": {warm_ratio:.2}, \
         \"note\": \"the Table 1 load x repeat on mysql, postgres and apache; serial = cached \
         Campaign, the identity reference; parallel = fresh engine on a fresh executor, pool \
         construction timed; cold batch = all three systems as one CampaignBatch on fresh \
         engines and pool, best of 3, gated <= 1.15x parallel + 2 ms; warm batch = the same \
         batch resubmitted to the last cold pool, best of 5, gated <= serial + 1 ms; every \
         profile asserted byte-identical to serial\"}},"
    );
    match &process {
        Some(p) => {
            let _ = writeln!(
                json,
                "  \"process\": {{\"available\": true, \"proc_start_ms\": {:.2}, \
                 \"tiered_ms\": {:.1}, \"triaged\": {}, \"confirmed\": {}, \
                 \"funnel_ratio\": {:.3}, \
                 \"note\": \"the process tier priced against the committed \
                 conferr-stub-apachectl: proc_start_ms is the mean of {STARTS} baseline starts \
                 (sandbox materialization + spawn + supervision + exit/stderr classification); \
                 the funnel is a run_tiered pass over the apache structural load — simulator \
                 triage, interesting faults confirmed on the spawned stub\"}},",
                p.proc_start_ms, p.tiered_ms, p.triaged, p.confirmed, p.funnel_ratio
            );
        }
        None => {
            let _ = writeln!(
                json,
                "  \"process\": {{\"available\": false, \
                 \"note\": \"stub binaries not built next to this binary; run \
                 cargo build --release -p conferr-proc --bins first\"}},"
            );
        }
    }
    let _ = writeln!(
        json,
        "  \"streaming_smoke\": {{\"faults\": {SMOKE_TARGET}, \"ms\": {:.0}, \
         \"faults_per_sec\": {smoke_rate:.0}, \"peak_buffered\": {}, \"window\": {}, \
         \"note\": \"a lazily enumerated space of 10^6 compound faults (MySQL Table 1 load \
         crossed with itself twice, seeded 90% sample, capped) streamed into a counting \
         sink: the fault space is never materialized, no outcome is retained, and the \
         executor's reorder buffer is asserted to stay within CHUNK_SIZE x threads\"}}",
        smoke.ms, smoke.peak_buffered, smoke.window,
    );
    json.push_str("}\n");
    std::fs::write("BENCH_campaign.json", &json).expect("write BENCH_campaign.json");
    println!("wrote BENCH_campaign.json");
}

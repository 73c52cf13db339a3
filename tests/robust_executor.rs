//! Robustness suite: fault isolation, the deadline watchdog and
//! checkpoint resume, exercised end to end with the shared
//! [`ChaosSut`] wrapper over the full Table 1 fault load.
//!
//! The load-bearing claims:
//!
//! * a seeded chaos batch at 1/2/4 threads yields **non-chaos**
//!   outcomes byte-identical to a clean reference run, and the chaos
//!   outcomes themselves are identical across thread counts;
//! * killing a campaign mid-flight and resuming from the recovered
//!   checkpoint reproduces the uninterrupted run's final profile
//!   byte-identically;
//! * the serial `Campaign` keeps the executor's failure contract: a
//!   harness panic becomes one `HarnessFailure` row, a panicking
//!   source a `Generate` error, a failing sink a `SinkIo` error;
//! * a panic that escapes isolation — a panicking sink — poisons the
//!   pooled submission and re-raises on the submitting thread, and
//!   the executor then takes another submission and drops cleanly;
//! * a warm, reused SUT gives the same profile as a fresh SUT for
//!   every start, on all six simulators: the assumption behind SUT
//!   reuse, and behind `stop()`ping a borrowed SUT after a contained
//!   panic.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use conferr::{
    profile_to_json, Campaign, CampaignError, CampaignExecutor, Checkpoint, CheckpointSink,
    CollectingSink, ExecutorCampaign, InjectionOutcome, InjectionResult, OutcomeSink, RetryPolicy,
    SutFactory, Tier,
};
use conferr_bench::{table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{
    ConfigSet, EagerSource, ErrorClass, ErrorGenerator, FaultScenario, FaultSource, FaultSourceExt,
    GenerateError, GeneratedFault, TreeEdit, TypoKind,
};
use conferr_plugins::{DnsSemanticPlugin, StructuralPlugin, XmlAttrTypoPlugin};
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, CacheStats, ChaosConfig, ChaosSut, ConfigFileSpec,
    ConfigPayload, Deadline, DirectiveSchema, DjbdnsSim, MySqlSim, PostgresSim, StartOutcome,
    SystemUnderTest, TestOutcome, CHAOS_PREFIX,
};
use conferr_tree::NodeQuery;

/// The clean campaign, its chaos twin (same baseline, same fault
/// space) and the shared Table 1 fault load.
fn fixtures(chaos: ChaosConfig) -> (ExecutorCampaign, ExecutorCampaign, Vec<GeneratedFault>) {
    let clean = ExecutorCampaign::new(SutFactory::new(MySqlSim::new)).expect("clean campaign");
    let chaotic = ExecutorCampaign::new(SutFactory::new(move || {
        ChaosSut::new(MySqlSim::new(), chaos)
    }))
    .expect("chaos campaign");
    let faults = table1_faultload(clean.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    assert!(faults.len() > 100, "Table 1 load is non-trivial");
    (clean, chaotic, faults)
}

/// `true` for outcomes fabricated (or perturbed) by the chaos layer.
fn is_chaotic(result: &InjectionResult) -> bool {
    match result {
        InjectionResult::HarnessFailure { panic_msg } => panic_msg.contains(CHAOS_PREFIX),
        InjectionResult::DetectedAtStartup { diagnostic } => diagnostic.contains(CHAOS_PREFIX),
        InjectionResult::TimedOut { .. } => true,
        _ => false,
    }
}

#[test]
fn chaos_non_chaos_outcomes_match_the_clean_reference_at_every_thread_count() {
    let config = ChaosConfig {
        seed: DEFAULT_SEED,
        panic_rate: 0.10,
        fail_rate: 0.10,
        ..ChaosConfig::default()
    };
    let (clean, chaotic, faults) = fixtures(config);
    let reference = CampaignExecutor::new(1)
        .run_faults(&clean, faults.clone())
        .expect("reference run");

    let mut chaos_profiles = Vec::new();
    for threads in [1, 2, 4] {
        let executor = CampaignExecutor::new(threads);
        let profile = executor
            .run_faults(&chaotic, faults.clone())
            .expect("chaos run survives isolated");
        assert_eq!(profile.len(), reference.len(), "threads = {threads}");

        let mut chaotic_seen = 0;
        for (chaos_outcome, clean_outcome) in profile.outcomes().iter().zip(reference.outcomes()) {
            if is_chaotic(&chaos_outcome.result) {
                chaotic_seen += 1;
                assert_eq!(chaos_outcome.id, clean_outcome.id);
            } else {
                assert_eq!(
                    chaos_outcome, clean_outcome,
                    "non-chaos outcomes are byte-identical (threads = {threads})"
                );
            }
        }
        assert!(
            chaotic_seen > 0,
            "the seeded rates actually perturbed something"
        );
        assert!(
            chaotic_seen < profile.len(),
            "and left most faults untouched"
        );
        // Every chaos panic fails its single (no-retry) attempt, so
        // it lands in quarantine.
        assert_eq!(
            executor.quarantined().len(),
            profile.summary().harness_failures,
            "threads = {threads}"
        );
        chaos_profiles.push(profile);
    }
    // The chaos decision is a pure function of payload and seed, so
    // whole chaos profiles agree across thread counts too.
    assert_eq!(chaos_profiles[0], chaos_profiles[1]);
    assert_eq!(chaos_profiles[0], chaos_profiles[2]);
}

/// A journal writer whose bytes survive the sink being dropped — the
/// in-process stand-in for a file that outlives a killed process.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 journal")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_profile() {
    let (clean, _, faults) = fixtures(ChaosConfig::default());
    let executor = CampaignExecutor::new(2);
    let reference = executor
        .run_faults(&clean, faults.clone())
        .expect("uninterrupted run");

    // "Kill" mid-campaign: the process dies after ~55% of the faults,
    // at a point that is deliberately not a checkpoint boundary, with
    // no chance to write a final record.
    let killed_at = faults.len() * 55 / 100;
    let interval = 7;
    assert!(killed_at % interval != 0, "kill between checkpoints");
    let journal = SharedBuf::default();
    let mut sink = CheckpointSink::new(CollectingSink::new(), journal.clone(), interval);
    executor
        .run_source(
            &clean,
            Box::new(EagerSource::new(faults.clone()).take(killed_at)),
            &mut sink,
        )
        .expect("killed run");
    // Snapshot the journal BEFORE finish(): a killed process never
    // writes the final record. `finish` only serves to recover the
    // killed run's delivered outcomes for the splice below.
    let journal_text = journal.text();
    let (killed_outcomes, _) = sink.finish().expect("journal healthy");
    let killed_outcomes = killed_outcomes.into_outcomes();
    assert_eq!(killed_outcomes.len(), killed_at);

    let recovered = Checkpoint::from_journal(&journal_text).expect("a durable checkpoint");
    assert_eq!(
        recovered.completed,
        killed_at - killed_at % interval,
        "the last durable record is an interval boundary"
    );

    // Resume: same source, completed prefix skipped, counts seeded
    // from the journal.
    let mut resumed_sink = CheckpointSink::resume(
        CollectingSink::new(),
        SharedBuf::default(),
        interval,
        &recovered,
    );
    executor
        .resume_from(
            &clean,
            Box::new(EagerSource::new(faults.clone())),
            &recovered,
            &mut resumed_sink,
        )
        .expect("resumed run");
    let final_state = resumed_sink.checkpoint();
    assert_eq!(final_state.completed, faults.len());
    assert_eq!(
        final_state.summary,
        reference.summary(),
        "resumed counts equal the uninterrupted run's"
    );
    let (resumed_outcomes, _) = resumed_sink.finish().expect("journal healthy");

    // At-least-once splice: the first `completed` outcomes of the
    // killed run plus everything the resumed run delivered equal the
    // uninterrupted stream byte for byte.
    let mut spliced = killed_outcomes[..recovered.completed].to_vec();
    spliced.extend(resumed_outcomes.into_outcomes());
    assert_eq!(spliced.as_slice(), reference.outcomes());
}

#[test]
fn stalls_past_the_deadline_are_classified_timed_out() {
    let config = ChaosConfig {
        seed: DEFAULT_SEED,
        stall_rate: 1.0,
        stall_for: Duration::from_millis(30),
        ..ChaosConfig::default()
    };
    let (_, chaotic, faults) = fixtures(config);
    chaotic
        .engine()
        .set_fault_deadline(Some(Duration::from_millis(5)));
    let executor = CampaignExecutor::new(1);
    let profile = executor
        .run_faults(&chaotic, faults.iter().take(4).cloned().collect())
        .expect("timed-out faults are outcomes, not errors");
    let summary = profile.summary();
    assert_eq!(summary.timed_out, 4);
    // Timed-out faults were injected (unlike harness failures).
    assert_eq!(summary.injected(), 4);
    for outcome in profile.outcomes() {
        assert!(
            matches!(
                &outcome.result,
                InjectionResult::TimedOut { phase, budget_ms: 5 } if phase == "startup"
            ),
            "{:?}",
            outcome.result
        );
    }
    // A timed-out single attempt exhausts the no-retry policy.
    assert_eq!(executor.quarantined().len(), 4);

    // With the deadline lifted the same stalls pass normally.
    chaotic.engine().set_fault_deadline(None);
    let profile = executor
        .run_faults(&chaotic, faults.iter().take(2).cloned().collect())
        .expect("no deadline, no timeouts");
    assert_eq!(profile.summary().timed_out, 0);
}

#[test]
fn retries_heal_timed_out_faults_when_the_stall_is_transient() {
    // A deadline generous enough that the *second* attempt (which
    // stalls again — chaos is deterministic — but starts with a fresh
    // deadline) still overruns: so this instead demonstrates that
    // retries of deterministic overruns exhaust and quarantine, while
    // the retry counter reports the spent attempts.
    let config = ChaosConfig {
        seed: DEFAULT_SEED,
        stall_rate: 1.0,
        stall_for: Duration::from_millis(20),
        ..ChaosConfig::default()
    };
    let (_, chaotic, faults) = fixtures(config);
    chaotic
        .engine()
        .set_fault_deadline(Some(Duration::from_millis(4)));
    let executor = CampaignExecutor::new(1);
    executor.set_retry_policy(RetryPolicy::new(
        3,
        Duration::from_millis(1),
        Duration::from_millis(2),
    ));
    let mut sink = CollectingSink::new();
    let stats = executor
        .run_source(
            &chaotic,
            Box::new(EagerSource::new(faults.iter().take(2).cloned().collect())),
            &mut sink,
        )
        .expect("run completes");
    assert_eq!(stats.outcomes, 2);
    assert_eq!(stats.retries, 4, "two faults x two retries each");
    assert_eq!(executor.quarantined().len(), 2);
    chaotic.engine().set_fault_deadline(None);
}

#[test]
fn serial_campaign_surfaces_sink_io_errors() {
    /// Fails after two successful writes (header + first row).
    struct Failing {
        ok: usize,
    }
    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok == 0 {
                return Err(io::Error::other("no space left on device"));
            }
            self.ok -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let mut sink = conferr::CsvSink::new("mysql-sim", Failing { ok: 2 });
    let err = campaign
        .run_source(
            &mut EagerSource::new(faults.iter().take(32).cloned().collect()),
            &mut sink,
        )
        .expect_err("the write failure aborts the campaign");
    assert!(
        matches!(&err, CampaignError::SinkIo(e) if e.to_string().contains("no space left")),
        "{err}"
    );
    assert!(sink.finish().is_err(), "the sink stays tripped");
}

/// The value that makes [`PanicsOnMarker`] panic.
const PANIC_MARKER: &str = "panic-marker";

/// MySQL behind an adapter that panics right *after* starting on a
/// configuration carrying [`PANIC_MARKER`], leaving the simulator
/// running on the mutated configuration — the state a harness bug
/// mid-fault leaves behind in a borrowed SUT.
#[derive(Debug)]
struct PanicsOnMarker(MySqlSim);

impl SystemUnderTest for PanicsOnMarker {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.0.config_files()
    }
    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        let outcome = self.0.start(configs, deadline);
        assert!(
            !configs
                .text("my.cnf")
                .is_some_and(|t| t.contains(PANIC_MARKER)),
            "adapter bug"
        );
        outcome
    }
    fn test_names(&self) -> Vec<String> {
        self.0.test_names()
    }
    fn run_test(&mut self, test: &str, deadline: &Deadline) -> TestOutcome {
        self.0.run_test(test, deadline)
    }
    fn stop(&mut self) {
        self.0.stop();
    }
    fn schema(&self) -> Option<&'static DirectiveSchema> {
        self.0.schema()
    }
}

#[test]
fn serial_campaign_records_a_harness_panic_and_keeps_running() {
    let mut clean_sut = MySqlSim::new();
    let mut clean = Campaign::new(&mut clean_sut).expect("campaign");
    let mut faults: Vec<GeneratedFault> =
        table1_faultload(clean.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED)
            .into_iter()
            .take(40)
            .collect();
    let directives: NodeQuery = "//directive".parse().expect("query");
    let path = directives
        .select(clean.baseline().get("my.cnf").expect("my.cnf"))
        .remove(0);
    let marked = 20;
    faults.insert(
        marked,
        GeneratedFault::Scenario(FaultScenario {
            id: "marked".to_string(),
            description: "value that trips the adapter bug".to_string(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetText {
                file: "my.cnf".to_string(),
                path,
                text: Some(PANIC_MARKER.to_string()),
            }],
        }),
    );
    let reference = clean.run_faults(faults.clone()).expect("clean run");

    let mut sut = PanicsOnMarker(MySqlSim::new());
    let profile = Campaign::new(&mut sut)
        .expect("campaign")
        .run_faults(faults)
        .expect("the panic is contained to its fault");
    assert_eq!(profile.len(), reference.len());
    for (i, (outcome, clean)) in profile
        .outcomes()
        .iter()
        .zip(reference.outcomes())
        .enumerate()
    {
        if i == marked {
            assert_eq!(outcome.id, "marked");
            assert!(
                matches!(
                    &outcome.result,
                    InjectionResult::HarnessFailure { panic_msg } if panic_msg.contains("adapter bug")
                ),
                "{:?}",
                outcome.result
            );
        } else {
            // Rows after the panic ran on the stopped, reused SUT.
            assert_eq!(outcome, clean, "row {i} matches the clean run");
        }
    }
}

#[test]
fn serial_campaign_turns_a_source_panic_into_a_generate_error() {
    /// Yields `pulls` chunks, then panics — a generator bug
    /// mid-stream, with faults still left to give.
    #[derive(Debug)]
    struct PanicsMidStream {
        faults: EagerSource,
        pulls: usize,
    }
    impl FaultSource for PanicsMidStream {
        fn next_chunk(
            &mut self,
            max: usize,
            out: &mut Vec<GeneratedFault>,
        ) -> Result<usize, GenerateError> {
            assert!(self.pulls > 0, "generator bug");
            self.pulls -= 1;
            self.faults.next_chunk(max, out)
        }
    }

    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let mut sink = CollectingSink::new();
    let err = campaign
        .run_source(
            &mut PanicsMidStream {
                faults: EagerSource::new(faults.clone()),
                pulls: 2,
            },
            &mut sink,
        )
        .expect_err("the source panic ends the campaign");
    assert!(
        matches!(&err, CampaignError::Generate(g) if g.message.contains("generator bug")),
        "{err}"
    );
    // Both chunks pulled before the panic are already in the sink, in
    // fault order.
    let delivered = sink.into_outcomes();
    assert_eq!(delivered.len(), 2 * conferr::CHUNK_SIZE);
    let reference = campaign.run_faults(faults).expect("clean run");
    assert_eq!(delivered, reference.outcomes()[..delivered.len()]);
}

/// Runs `step` on a thread of its own and waits at most a minute for
/// it, so a hang fails the test instead of wedging the suite.
fn within_a_minute<T: Send + 'static>(step: &str, run: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || done.send(run()));
    let value = finished
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("{step} did not return within a minute: {e}"));
    worker
        .join()
        .expect("the step thread ends once it has sent")
        .expect("the receiver is alive");
    value
}

#[test]
fn a_panicking_sink_poisons_the_batch_and_the_executor_still_drops() {
    /// A sink with a bug: it panics on its third outcome.
    struct PanicsOnThird(usize);
    impl OutcomeSink for PanicsOnThird {
        fn accept(&mut self, _outcome: InjectionOutcome) {
            self.0 += 1;
            assert!(self.0 < 3, "sink bug");
        }
    }

    let (clean, _, faults) = fixtures(ChaosConfig::default());
    let executor = Arc::new(CampaignExecutor::new(2));
    // More faults than the streaming window, so the worker fills it
    // and then waits for the submitting thread to drain the sink.
    assert!(faults.len() > conferr::CHUNK_SIZE * executor.threads());

    let (pool, campaign, load) = (Arc::clone(&executor), clean.clone(), faults.clone());
    let raised = within_a_minute("the panicking submission", move || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_source(
                &campaign,
                Box::new(EagerSource::new(load)),
                &mut PanicsOnThird(0),
            )
        }))
        .is_err()
    });
    assert!(raised, "the sink panic re-raises on the submitting thread");

    let (pool, campaign, load) = (Arc::clone(&executor), clean, faults.clone());
    let outcomes = within_a_minute("the next submission", move || {
        pool.run_faults(&campaign, load).map(|p| p.len())
    });
    assert_eq!(outcomes.expect("the next submission runs"), faults.len());

    // A worker still waiting for window space would hang this join.
    within_a_minute("dropping the executor", move || drop(executor));
}

/// Builds one boxed simulator.
type Build = fn() -> Box<dyn SystemUnderTest + Send>;

/// A SUT that is a new simulator at every `start`, with parse caching
/// off — the reference for warm reuse, where one instance serves fault
/// after fault. Caching off keeps the reference free of the startup
/// state that payload files share across starts.
#[derive(Debug)]
struct FreshPerStart {
    build: Build,
    inner: Box<dyn SystemUnderTest + Send>,
}

impl FreshPerStart {
    fn new(build: Build) -> Self {
        FreshPerStart {
            build,
            inner: build(),
        }
    }
}

impl SystemUnderTest for FreshPerStart {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.inner.config_files()
    }
    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        self.inner = (self.build)();
        self.inner.set_parse_caching(false);
        self.inner.start(configs, deadline)
    }
    fn test_names(&self) -> Vec<String> {
        self.inner.test_names()
    }
    fn run_test(&mut self, test: &str, deadline: &Deadline) -> TestOutcome {
        self.inner.run_test(test, deadline)
    }
    fn stop(&mut self) {
        self.inner.stop();
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

/// Runs `load` through a 1-thread executor twice — on one warm,
/// reused `build` SUT and on a fresh one per start — and asserts the
/// two profiles are byte-identical.
fn assert_warm_matches_fresh(build: Build, load: impl FnOnce(&ConfigSet) -> Vec<GeneratedFault>) {
    let executor = CampaignExecutor::new(1);
    let warm = ExecutorCampaign::new(SutFactory::from_boxed(build)).expect("campaign");
    let fresh = ExecutorCampaign::new(SutFactory::new(move || FreshPerStart::new(build)))
        .expect("campaign");
    let faults = load(warm.baseline());
    assert!(!faults.is_empty(), "{}", warm.system());
    let reused = executor
        .run_faults(&warm, faults.clone())
        .expect("warm run");
    let reference = executor.run_faults(&fresh, faults).expect("fresh run");
    assert_eq!(
        profile_to_json(&reused),
        profile_to_json(&reference),
        "{} diverged from a fresh SUT per start",
        warm.system()
    );
}

#[test]
fn warm_suts_match_a_fresh_sut_per_start_on_all_six_simulators() {
    let keyboard = Keyboard::qwerty_us();
    let table1 = |baseline: &ConfigSet| table1_faultload(baseline, &keyboard, DEFAULT_SEED);
    assert_warm_matches_fresh(|| Box::new(MySqlSim::new()), table1);
    assert_warm_matches_fresh(|| Box::new(PostgresSim::new()), table1);
    assert_warm_matches_fresh(|| Box::new(ApacheSim::new()), table1);
    assert_warm_matches_fresh(
        || Box::new(BindSim::new()),
        |baseline| {
            DnsSemanticPlugin::bind()
                .generate(baseline)
                .expect("generate")
        },
    );
    assert_warm_matches_fresh(
        || Box::new(DjbdnsSim::new()),
        |baseline| {
            DnsSemanticPlugin::tinydns()
                .generate(baseline)
                .expect("generate")
        },
    );
    assert_warm_matches_fresh(
        || Box::new(AppServerSim::new()),
        |baseline| {
            let mut faults = StructuralPlugin::new()
                .generate(baseline)
                .expect("generate");
            faults.extend(
                XmlAttrTypoPlugin::new(Keyboard::qwerty_us())
                    .generate(baseline)
                    .expect("generate"),
            );
            faults
        },
    );
}

//! Parallel execution must be a pure wall-clock optimisation: over the
//! full §5.2 fault load, the executor's profile — including every
//! diagnostic string, diff line and warning — must be byte-identical
//! to the serial `Campaign`'s, at any thread count.

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignExecutor, CollectingSink, ExecutorCampaign,
    ResilienceProfile, SutFactory,
};
use conferr_bench::{table1, table1_faultload, table2, table3, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{GeneratedFault, IntoFaultSource};
use conferr_plugins::StructuralPlugin;
use conferr_sut::{MySqlSim, PostgresSim, SystemUnderTest};

/// The full §5.2 (Table 1) fault load for one system: deletion of
/// every directive plus sampled name/value typos.
fn full_faultload(sut: &mut dyn SystemUnderTest) -> Vec<GeneratedFault> {
    let keyboard = Keyboard::qwerty_us();
    let campaign = Campaign::new(sut).expect("campaign");
    table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED)
}

fn serial_profile(sut: &mut dyn SystemUnderTest, faults: Vec<GeneratedFault>) -> ResilienceProfile {
    let mut campaign = Campaign::new(sut).expect("campaign");
    campaign.run_faults(faults).expect("serial run")
}

/// Runs `faults` on a fresh `threads`-wide executor.
fn parallel_profile(
    factory: SutFactory,
    faults: Vec<GeneratedFault>,
    threads: usize,
) -> ResilienceProfile {
    let campaign = ExecutorCampaign::new(factory).expect("campaign");
    CampaignExecutor::new(threads)
        .run_faults(&campaign, faults)
        .expect("parallel run")
}

#[test]
fn parallel_equals_serial_for_mysql_full_faultload() {
    let mut sut = MySqlSim::new();
    let faults = full_faultload(&mut sut);
    let serial = serial_profile(&mut sut, faults.clone());
    for threads in [1, 2, 5] {
        let parallel = parallel_profile(sut_factory(MySqlSim::new), faults.clone(), threads);
        assert_eq!(
            serial.outcomes(),
            parallel.outcomes(),
            "threads = {threads}"
        );
        // Byte-identical, not merely equal: the exported JSON (every
        // id, description, diff line and diagnostic) matches exactly.
        assert_eq!(
            profile_to_json(&serial),
            profile_to_json(&parallel),
            "threads = {threads}"
        );
    }
}

#[test]
fn parallel_equals_serial_for_postgres_full_faultload() {
    let mut sut = PostgresSim::new();
    let faults = full_faultload(&mut sut);
    let serial = serial_profile(&mut sut, faults.clone());
    for threads in [2, 8] {
        let parallel = parallel_profile(sut_factory(PostgresSim::new), faults.clone(), threads);
        assert_eq!(
            profile_to_json(&serial),
            profile_to_json(&parallel),
            "threads = {threads}"
        );
    }
}

#[test]
fn parallel_campaign_generators_match_serial() {
    // A generator streamed lazily through the pool (generated on the
    // first pull) matches the serial `Campaign`'s generator-driven
    // `run`.
    let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
    let mut sink = CollectingSink::new();
    CampaignExecutor::new(3)
        .run_source(
            &campaign,
            Box::new(StructuralPlugin::new().into_source(campaign.baseline())),
            &mut sink,
        )
        .expect("parallel run");
    let parallel = sink.into_profile(campaign.system());

    let mut sut = PostgresSim::new();
    let mut serial = Campaign::new(&mut sut).expect("campaign");
    serial.add_generator(Box::new(StructuralPlugin::new()));
    let serial = serial.run().expect("serial run");

    assert_eq!(profile_to_json(&serial), profile_to_json(&parallel));
}

#[test]
fn parallel_paper_artifacts_match_serial() {
    // One persistent executor per side drives all three artifacts —
    // the cross-artifact reuse `paper_all` performs, with SUT caches
    // warmed by earlier tables when later ones run. The 1-thread
    // executor runs the serial loop `Campaign` shares.
    let serial = CampaignExecutor::new(1);
    let parallel = CampaignExecutor::new(4);

    // Table 1 summaries (one cross-system batch).
    assert_eq!(
        table1(&serial, DEFAULT_SEED).expect("table1 serial"),
        table1(&parallel, DEFAULT_SEED).expect("table1 parallel")
    );

    // Table 2 verdict matrix (14 cell campaigns in one batch).
    let serial_t2 = table2(&serial, DEFAULT_SEED).expect("table2 serial");
    let parallel_t2 = table2(&parallel, DEFAULT_SEED).expect("table2 parallel");
    assert_eq!(serial_t2.systems, parallel_t2.systems);
    assert_eq!(serial_t2.rows, parallel_t2.rows);

    // Table 3 verdicts (includes inexpressible faults on djbdns).
    let serial_t3 = table3(&serial).expect("table3 serial");
    let parallel_t3 = table3(&parallel).expect("table3 parallel");
    assert_eq!(serial_t3.rows, parallel_t3.rows);
}

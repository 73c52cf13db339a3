//! The persistent executor and the batch scheduler must be pure
//! wall-clock optimisations: reusing a pool across submissions, or
//! scheduling many campaigns as one batch, must produce profiles
//! byte-identical to fresh serial campaigns — every id, diff line and
//! diagnostic included. A `Campaign` over a freshly built SUT is the
//! reference throughout.

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignBatch, CampaignExecutor, ExecutorCampaign,
    ResilienceProfile, SutFactory,
};
use conferr_bench::{table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{ErrorGenerator, GeneratedFault};
use conferr_plugins::{DnsSemanticPlugin, VariationClass, VariationPlugin};
use conferr_sut::{ApacheSim, BindSim, DjbdnsSim, MySqlSim, PostgresSim, SystemUnderTest};

/// Builds the fresh SUT a reference `Campaign` runs against.
type FreshSut = fn() -> Box<dyn SystemUnderTest>;

fn serial_profile(
    mut sut: Box<dyn SystemUnderTest>,
    faults: Vec<GeneratedFault>,
) -> ResilienceProfile {
    let mut campaign = Campaign::new(sut.as_mut()).expect("campaign");
    campaign.run_faults(faults).expect("serial run")
}

/// Two `run_faults` calls on ONE executor — whose workers and SUT
/// caches persist between the calls — must match campaigns run on
/// fresh serial `Campaign`s byte for byte, over Postgres's full
/// Table 1 load. This is the soundness condition for reusing SUT
/// instances across campaigns.
#[test]
fn executor_reuse_is_byte_identical_to_fresh_serial_campaigns() {
    let keyboard = Keyboard::qwerty_us();
    let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    for threads in [1, 3] {
        let executor = CampaignExecutor::new(threads);
        for run in ["first", "second"] {
            let pooled = executor
                .run_faults(&campaign, faults.clone())
                .expect("executor run");
            let reference = serial_profile(Box::new(PostgresSim::new()), faults.clone());
            assert_eq!(
                profile_to_json(&pooled),
                profile_to_json(&reference),
                "{run} run, threads = {threads}"
            );
        }
    }
}

/// The cell campaigns of the §5.3 Table 2 protocol: every applicable
/// (variation class, system) pair with its 10-variant fault load.
fn table2_cells() -> Vec<(ExecutorCampaign, Vec<GeneratedFault>)> {
    let factories = [
        ("MySQL", sut_factory(MySqlSim::new)),
        ("Postgres", sut_factory(PostgresSim::new)),
        ("Apache", sut_factory(ApacheSim::new)),
    ];
    let mut cells = Vec::new();
    for class in VariationClass::ALL {
        for (name, factory) in &factories {
            if *name == "Apache" && class == VariationClass::SectionOrder {
                continue;
            }
            let campaign = ExecutorCampaign::new(factory.clone()).expect("campaign");
            let plugin = VariationPlugin::new(class, 10, DEFAULT_SEED);
            let faults = plugin.generate(campaign.baseline()).expect("generate");
            if faults.is_empty() {
                continue;
            }
            cells.push((campaign, faults));
        }
    }
    cells
}

/// The full Table 2 workload — 14 small campaigns across three
/// systems — scheduled as ONE batch must be byte-identical to running
/// each cell through its own fresh serial campaign. This is the
/// many-small-campaign workload the batch queue exists for.
#[test]
fn table2_batch_is_byte_identical_to_per_cell_serial_runs() {
    let cells = table2_cells();
    assert!(
        cells.len() >= 10,
        "Table 2 yields at least 10 scheduled cells"
    );

    let serial: Vec<ResilienceProfile> = cells
        .iter()
        .map(|(campaign, faults)| {
            let sut: Box<dyn SystemUnderTest> = match campaign.system() {
                "mysql-sim" => Box::new(MySqlSim::new()),
                "postgres-sim" => Box::new(PostgresSim::new()),
                _ => Box::new(ApacheSim::new()),
            };
            serial_profile(sut, faults.clone())
        })
        .collect();

    for threads in [1, 2, 4] {
        let executor = CampaignExecutor::new(threads);
        let mut batch = CampaignBatch::new();
        for (campaign, faults) in &cells {
            batch.push(campaign, faults.clone());
        }
        let profiles = executor.run_batch(batch).expect("batch run");
        assert_eq!(profiles.len(), serial.len());
        for (i, (batched, reference)) in profiles.iter().zip(&serial).enumerate() {
            assert_eq!(
                profile_to_json(batched),
                profile_to_json(reference),
                "cell {i} ({}) diverged at threads = {threads}",
                reference.system()
            );
        }
    }
}

/// A single-thread executor spawns no workers at all and runs batches
/// through the serial fast path — same results, no queue.
#[test]
fn single_thread_executor_takes_serial_fast_path_over_batches() {
    let executor = CampaignExecutor::new(1);
    let cells = table2_cells();
    let mut batch = CampaignBatch::new();
    for (campaign, faults) in &cells {
        batch.push(campaign, faults.clone());
    }
    let fast = executor.run_batch(batch).expect("fast-path run");

    let multi = CampaignExecutor::new(3);
    let mut batch = CampaignBatch::new();
    for (campaign, faults) in &cells {
        batch.push(campaign, faults.clone());
    }
    let pooled = multi.run_batch(batch).expect("pooled run");

    for (a, b) in fast.iter().zip(&pooled) {
        assert_eq!(profile_to_json(a), profile_to_json(b));
    }
}

/// Chunked stealing is pure scheduling: the Table 2 cells — ten-variant
/// loads, so claims take partial chunks — give the same profiles
/// through the pool as on a 1-thread executor (the serial fast path,
/// which never touches the queue).
#[test]
fn chunk_size_is_result_neutral_over_batches() {
    let cells = table2_cells();
    let reference: Vec<ResilienceProfile> = {
        let executor = CampaignExecutor::new(1);
        let mut batch = CampaignBatch::new();
        for (campaign, faults) in &cells {
            batch.push(campaign, faults.clone());
        }
        executor.run_batch(batch).expect("reference run")
    };
    for threads in [1, 3] {
        let executor = CampaignExecutor::new(threads);
        let mut batch = CampaignBatch::new();
        for (campaign, faults) in &cells {
            batch.push(campaign, faults.clone());
        }
        let profiles = executor.run_batch(batch).expect("batch run");
        for (a, b) in profiles.iter().zip(&reference) {
            assert_eq!(
                profile_to_json(a),
                profile_to_json(b),
                "threads = {threads}"
            );
        }
    }
}

/// A many-entry batch — one entry per (system × typo kind), nine in
/// all, each with a small fault load fed from a LIVE source so
/// generation interleaves with injection across all the producer
/// shards — must splice byte-identically to fresh serial campaigns at
/// 1/2/4 threads. This is the shape that exercises the sharded
/// scheduler hardest: many small independent feeds, stolen from
/// concurrently via the entry cursor.
#[test]
fn many_entry_live_source_batch_matches_serial() {
    use conferr_model::{IntoFaultSource, TypoKind};
    use conferr_plugins::{TokenClass, TypoPlugin};

    let factories = [
        sut_factory(MySqlSim::new),
        sut_factory(PostgresSim::new),
        sut_factory(ApacheSim::new),
    ];
    let suts: [FreshSut; 3] = [
        || Box::new(MySqlSim::new()),
        || Box::new(PostgresSim::new()),
        || Box::new(ApacheSim::new()),
    ];
    let kinds = [
        TypoKind::Omission,
        TypoKind::Transposition,
        TypoKind::CaseAlteration,
    ];

    let mut entries: Vec<(ExecutorCampaign, TypoPlugin)> = Vec::new();
    let mut serial: Vec<ResilienceProfile> = Vec::new();
    for (factory, fresh_sut) in factories.iter().zip(suts) {
        let campaign = ExecutorCampaign::new(factory.clone()).expect("campaign");
        for kind in kinds {
            let plugin = TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames)
                .with_kinds([kind]);
            let faults = plugin.generate(campaign.baseline()).expect("generate");
            assert!(
                !faults.is_empty(),
                "every (system, kind) cell yields faults"
            );
            serial.push(serial_profile(fresh_sut(), faults));
            entries.push((campaign.clone(), plugin));
        }
    }
    assert!(entries.len() >= 8, "a genuinely many-entry batch");

    for threads in [1, 2, 4] {
        let executor = CampaignExecutor::new(threads);
        let mut batch = CampaignBatch::new();
        for (campaign, plugin) in &entries {
            batch.push_source(
                campaign,
                Box::new(plugin.clone().into_source(campaign.baseline())),
            );
        }
        let profiles = executor.run_batch(batch).expect("batch run");
        assert_eq!(profiles.len(), serial.len());
        for (i, (batched, reference)) in profiles.iter().zip(&serial).enumerate() {
            assert_eq!(
                profile_to_json(batched),
                profile_to_json(reference),
                "entry {i} ({}) diverged at threads = {threads}",
                reference.system()
            );
        }
    }
}

/// A cross-system batch — the Table 1 protocol against all three
/// systems plus the Table 3 semantic loads against both name servers
/// (djbdns's inexpressible faults included), all in one batch —
/// matches per-system serial runs.
#[test]
fn cross_system_table1_batch_matches_serial() {
    let keyboard = Keyboard::qwerty_us();
    let executor = CampaignExecutor::new(4);
    let mut batch = CampaignBatch::new();
    let mut serial = Vec::new();
    let table1_systems: [(SutFactory, FreshSut); 3] = [
        (sut_factory(MySqlSim::new), || Box::new(MySqlSim::new())),
        (sut_factory(PostgresSim::new), || {
            Box::new(PostgresSim::new())
        }),
        (sut_factory(ApacheSim::new), || Box::new(ApacheSim::new())),
    ];
    for (factory, fresh_sut) in table1_systems {
        let campaign = ExecutorCampaign::new(factory).expect("campaign");
        let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
        serial.push(serial_profile(fresh_sut(), faults.clone()));
        batch.push(&campaign, faults);
    }
    let table3_systems: [(SutFactory, FreshSut, DnsSemanticPlugin); 2] = [
        (
            sut_factory(BindSim::new),
            || Box::new(BindSim::new()),
            DnsSemanticPlugin::bind(),
        ),
        (
            sut_factory(DjbdnsSim::new),
            || Box::new(DjbdnsSim::new()),
            DnsSemanticPlugin::tinydns(),
        ),
    ];
    for (factory, fresh_sut, plugin) in table3_systems {
        let campaign = ExecutorCampaign::new(factory).expect("campaign");
        let faults = plugin.generate(campaign.baseline()).expect("generate");
        serial.push(serial_profile(fresh_sut(), faults.clone()));
        batch.push(&campaign, faults);
    }
    let profiles = executor.run_batch(batch).expect("batch run");
    assert_eq!(profiles.len(), serial.len());
    for (batched, reference) in profiles.iter().zip(&serial) {
        assert_eq!(
            profile_to_json(batched),
            profile_to_json(reference),
            "{} diverged",
            reference.system()
        );
    }
}

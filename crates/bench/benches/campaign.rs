//! Campaign-engine throughput: a serial `Campaign` (copy-on-write
//! apply, cached baseline serialization) versus a persistent
//! `CampaignExecutor` pool, over the full §5.2 fault load. The pooled
//! numbers scale with core count; on a single-core machine they only
//! show the sharding overhead (and the executor's serial fast path).

use conferr::{sut_factory, Campaign, CampaignExecutor, ExecutorCampaign};
use conferr_bench::{default_threads, table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::GeneratedFault;
use conferr_sut::{MySqlSim, PostgresSim};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn postgres_faultload() -> Vec<GeneratedFault> {
    let keyboard = Keyboard::qwerty_us();
    let mut sut = PostgresSim::new();
    let campaign = Campaign::new(&mut sut).expect("campaign");
    table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED)
}

fn bench_serial_vs_parallel(c: &mut Criterion) {
    let faults = postgres_faultload();
    let mut group = c.benchmark_group("campaign_engine");
    group.sample_size(10);

    group.bench_function("serial_postgres_table1", |b| {
        b.iter(|| {
            let mut sut = PostgresSim::new();
            let mut campaign = Campaign::new(&mut sut).expect("campaign");
            let profile = campaign.run_faults(black_box(faults.clone())).expect("run");
            black_box(profile.summary())
        });
    });

    group.bench_function("parallel_postgres_table1", |b| {
        let executor = CampaignExecutor::new(default_threads());
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
        b.iter(|| {
            let profile = executor
                .run_faults(&campaign, black_box(faults.clone()))
                .expect("run");
            black_box(profile.summary())
        });
    });
    group.finish();
}

fn bench_cow_apply(c: &mut Criterion) {
    // The injection front half in isolation: applying a single-edit
    // scenario must cost proportional to the edit (copy-on-write of
    // one file), not to the configuration size.
    let mut sut = MySqlSim::new();
    let campaign = Campaign::new(&mut sut).expect("campaign");
    let baseline = campaign.baseline().clone();
    let keyboard = Keyboard::qwerty_us();
    let faults = table1_faultload(&baseline, &keyboard, DEFAULT_SEED);
    let scenario = faults
        .iter()
        .find_map(|f| f.scenario())
        .expect("at least one scenario")
        .clone();

    let mut group = c.benchmark_group("scenario_apply");
    group.bench_function("cow_single_edit", |b| {
        b.iter(|| black_box(scenario.apply(black_box(&baseline)).expect("apply")));
    });
    group.finish();
}

criterion_group!(benches, bench_serial_vs_parallel, bench_cow_apply);
criterion_main!(benches);

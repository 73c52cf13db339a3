//! The benchmark's three workloads: their seeded inputs, their set-up
//! and one submission of each.
//!
//! Every submission goes through the surfaces a campaign user drives —
//! [`CampaignExecutor`], [`ExecutorCampaign`], [`CampaignBatch`],
//! [`FaultSource`] and [`OutcomeSink`] — with every engine knob left
//! at its default.

use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use conferr::{
    CampaignBatch, CampaignError, CampaignExecutor, CollectingSink, CountingSink, ExecutorCampaign,
    JsonlSink, OutcomeSink, ProfileSummary, StreamStats, SutFactory,
};
use conferr_keyboard::Keyboard;
use conferr_model::{
    BoxFaultSource, ConfigSet, EagerSource, ErrorClass, ErrorGenerator, FaultScenario,
    FaultSourceExt, GeneratedFault, StructuralKind, TreeEdit,
};
use conferr_plugins::{TokenClass, TypoPlugin};
use conferr_sut::{ApacheSim, MySqlSim, PostgresSim, SystemUnderTest};
use conferr_tree::NodeQuery;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::digest::{digest_outcome, Checked, Fnv, FnvWriter};
use crate::sys::process_cpu;
use crate::trace::{Collector, TracedSink, TracedSource, TracedSut};

/// Faults sampled per system for one `typo-distinct` submission.
pub const TYPO_SAMPLE: [(System, usize); 3] = [
    (System::MySql, 700),
    (System::Postgres, 700),
    (System::Apache, 900),
];

/// Compound faults streamed by one `compound-stream` submission.
pub const COMPOUND_LEN: usize = 8000;

/// Share of the base × base pairs the compound stream keeps behind
/// each leading fault: low enough that one submission spans about a
/// hundred leading faults, so its cost does not hang on a few of them.
const PAIR_RATE: f64 = 0.005;

/// How many times the `warm-rerun` batch repeats each Table 1 load.
pub const WARM_REPEAT: usize = 20;

/// A simulated system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// `MySqlSim`.
    MySql,
    /// `PostgresSim`.
    Postgres,
    /// `ApacheSim`.
    Apache,
}

impl System {
    /// A fresh, untraced instance.
    pub fn create(self) -> Box<dyn SystemUnderTest + Send> {
        match self {
            System::MySql => Box::new(MySqlSim::new()),
            System::Postgres => Box::new(PostgresSim::new()),
            System::Apache => Box::new(ApacheSim::new()),
        }
    }

    /// A new factory (a new SUT identity, so no executor holds a warm
    /// instance for it); every instance is traced when a collector is
    /// given.
    pub fn factory(self, collector: Option<&Arc<Collector>>) -> SutFactory {
        match collector {
            None => SutFactory::from_boxed(move || self.create()),
            Some(collector) => {
                let collector = Arc::clone(collector);
                SutFactory::from_boxed(move || {
                    Box::new(TracedSut::new(self.create(), Arc::clone(&collector)))
                })
            }
        }
    }
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MySQL, Postgres and Apache, each fault once: a seeded sample of
    /// every single-edit fault, serial, into `JsonlSink`.
    TypoDistinct,
    /// A lazily generated stream of 3-edit compound MySQL faults on 2
    /// threads into `CountingSink`.
    CompoundStream,
    /// The ×20 Table 1 three-system batch resubmitted to one
    /// persistent 2-thread executor, collecting profiles.
    WarmRerun,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::TypoDistinct,
        Workload::CompoundStream,
        Workload::WarmRerun,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TypoDistinct => "typo-distinct",
            Workload::CompoundStream => "compound-stream",
            Workload::WarmRerun => "warm-rerun",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The executor's thread count.
    pub fn threads(self) -> usize {
        match self {
            Workload::TypoDistinct => 1,
            Workload::CompoundStream | Workload::WarmRerun => 2,
        }
    }
}

/// The seeded inputs of one run: one fault load per batch entry. The
/// same workload and seed always give the same inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The seed they were drawn with.
    pub seed: u64,
    /// One `(system, faults)` per batch entry. For `compound-stream`
    /// the faults are the base load the stream is crossed from.
    pub entries: Vec<(System, Vec<GeneratedFault>)>,
    /// Faults one `compound-stream` submission streams.
    pub stream_len: usize,
}

impl Inputs {
    /// The full-size inputs.
    ///
    /// # Errors
    ///
    /// When a system's baseline cannot be built or a generator fails.
    pub fn build(workload: Workload, seed: u64) -> Result<Inputs, CampaignError> {
        Inputs::sized(workload, seed, None)
    }

    /// Inputs cut to at most `limit` faults per entry (and per
    /// stream) — a small slice for tests.
    ///
    /// # Errors
    ///
    /// As [`Inputs::build`].
    pub fn sized(
        workload: Workload,
        seed: u64,
        limit: Option<usize>,
    ) -> Result<Inputs, CampaignError> {
        let cap = |n: usize| limit.map_or(n, |l| n.min(l));
        let keyboard = Keyboard::qwerty_us();
        let mut entries = Vec::new();
        match workload {
            Workload::TypoDistinct => {
                for (i, (system, n)) in TYPO_SAMPLE.into_iter().enumerate() {
                    let baseline = baseline_of(system)?;
                    let mut space = single_edit_space(&baseline, &keyboard)?;
                    let mut rng =
                        StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(i as u64));
                    space.shuffle(&mut rng);
                    space.truncate(cap(n));
                    entries.push((system, space));
                }
            }
            Workload::CompoundStream => {
                let baseline = baseline_of(System::MySql)?;
                let mut base = conferr_bench::table1_faultload(&baseline, &keyboard, seed);
                base.shuffle(&mut StdRng::seed_from_u64(seed));
                entries.push((System::MySql, base));
            }
            Workload::WarmRerun => {
                for system in [System::MySql, System::Postgres, System::Apache] {
                    let baseline = baseline_of(system)?;
                    let load = conferr_bench::table1_faultload(&baseline, &keyboard, seed);
                    let mut repeated: Vec<GeneratedFault> = std::iter::repeat_n(&load, WARM_REPEAT)
                        .flatten()
                        .cloned()
                        .collect();
                    repeated.truncate(cap(repeated.len()));
                    entries.push((system, repeated));
                }
            }
        }
        Ok(Inputs {
            workload,
            seed,
            entries,
            stream_len: cap(COMPOUND_LEN),
        })
    }

    /// Faults one submission attempts.
    pub fn faults_per_submission(&self) -> usize {
        match self.workload {
            Workload::CompoundStream => self.stream_len,
            _ => self.entries.iter().map(|(_, f)| f.len()).sum(),
        }
    }

    /// The `compound-stream` source: the base load crossed with itself
    /// twice (triples combined into one 3-edit scenario), capped. The
    /// seeded sample thins the inner base × base pairs, which the
    /// product materializes once; every leading fault is then streamed
    /// against those pairs, lazily.
    pub fn compound_source(&self) -> impl conferr_model::FaultSource + Send {
        let base = &self.entries[0].1;
        let pairs = EagerSource::new(base.clone())
            .product(EagerSource::new(base.clone()))
            .sample(self.seed, PAIR_RATE);
        EagerSource::new(base.clone())
            .product(pairs)
            .take(self.stream_len)
    }

    /// The faults one submission runs, per entry, materialized (for
    /// the replay pass).
    ///
    /// # Errors
    ///
    /// When the compound source fails.
    pub fn submitted_faults(&self) -> Result<Vec<(System, Vec<GeneratedFault>)>, CampaignError> {
        match self.workload {
            Workload::CompoundStream => {
                Ok(vec![(System::MySql, self.compound_source().collect_all()?)])
            }
            _ => Ok(self.entries.clone()),
        }
    }
}

/// A system's parsed baseline, from a throwaway untraced campaign.
fn baseline_of(system: System) -> Result<ConfigSet, CampaignError> {
    Ok(ExecutorCampaign::new(system.factory(None))?
        .baseline()
        .clone())
}

/// Every single-edit fault of a baseline: each directive deleted, plus
/// every typo of all five submodels in every directive name and value.
fn single_edit_space(
    baseline: &ConfigSet,
    keyboard: &Keyboard,
) -> Result<Vec<GeneratedFault>, CampaignError> {
    static DIRECTIVE: LazyLock<NodeQuery> =
        LazyLock::new(|| "//directive".parse().expect("static query"));
    let mut out = Vec::new();
    for (file, tree) in baseline.iter() {
        for (path, node) in DIRECTIVE.select_nodes(tree) {
            out.push(GeneratedFault::Scenario(FaultScenario {
                id: format!("delete:{file}:{path}"),
                description: format!("omit directive {}", node.describe()),
                class: ErrorClass::Structural(StructuralKind::DirectiveOmission),
                edits: vec![TreeEdit::Delete {
                    file: file.to_string(),
                    path,
                }],
            }));
        }
    }
    for class in [TokenClass::DirectiveNames, TokenClass::DirectiveValues] {
        out.extend(TypoPlugin::new(keyboard.clone(), class).generate(baseline)?);
    }
    Ok(out)
}

/// One set-up: the engines (baseline parse and serialize, scout start,
/// linter, prune plan) and the executor. No fault has been claimed.
#[derive(Debug)]
pub struct Setup {
    /// The executor all submissions of this set-up run on.
    pub executor: CampaignExecutor,
    /// One campaign per input entry.
    campaigns: Vec<ExecutorCampaign>,
    collector: Option<Arc<Collector>>,
}

/// What one submission did and cost.
#[derive(Debug, Clone, Copy)]
pub struct Submission {
    /// Outcomes the sinks accepted.
    pub faults: usize,
    /// Wall time of the executor call.
    pub wall: Duration,
    /// Process CPU time over the executor call.
    pub cpu: Duration,
    /// The outcomes' digest.
    pub digest: u64,
    /// Harness failures plus timeouts among the outcomes.
    pub failed: usize,
    /// The executor's streaming counters.
    pub stats: StreamStats,
}

impl Setup {
    /// Builds fresh engines and a fresh executor for `inputs`, traced
    /// when a collector is given.
    ///
    /// # Errors
    ///
    /// When an engine cannot be built.
    pub fn new(
        inputs: &Inputs,
        threads: usize,
        collector: Option<&Arc<Collector>>,
    ) -> Result<Setup, CampaignError> {
        let campaigns = inputs
            .entries
            .iter()
            .map(|(system, _)| ExecutorCampaign::new(system.factory(collector)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Setup {
            executor: CampaignExecutor::new(threads),
            campaigns,
            collector: collector.cloned(),
        })
    }

    /// Runs one submission of the workload and digests its outcomes.
    /// A traced set-up records spans only when `record` is set, so a
    /// warm-up submission stays out of the fault-phase numbers.
    ///
    /// # Errors
    ///
    /// When the executor or a sink fails.
    pub fn submit(&self, inputs: &Inputs, record: bool) -> Result<Submission, CampaignError> {
        let collector = self.collector.as_ref();
        let mut batch = CampaignBatch::new();
        match inputs.workload {
            Workload::TypoDistinct => {
                for (campaign, (_, faults)) in self.campaigns.iter().zip(&inputs.entries) {
                    batch.push(campaign, faults.clone());
                }
                let mut sinks: Vec<_> = self
                    .campaigns
                    .iter()
                    .map(|c| {
                        Checked::new(TracedSink::new(
                            JsonlSink::new(c.system(), FnvWriter::default()),
                            collector,
                        ))
                    })
                    .collect();
                let mut sub = self.run(batch, &mut sinks, record)?;
                let mut h = Fnv::default();
                for sink in sinks {
                    let (traced, summary, _) = sink.into_parts();
                    let writer = traced.finish().finish().map_err(CampaignError::SinkIo)?;
                    h.digest(writer.0.finish());
                    sub.add(&summary);
                }
                sub.digest = h.finish();
                Ok(sub)
            }
            Workload::CompoundStream => {
                let source: BoxFaultSource = Box::new(inputs.compound_source());
                let source: BoxFaultSource = match collector {
                    Some(c) => Box::new(TracedSource::new(source, Arc::clone(c))),
                    None => source,
                };
                batch.push_source(&self.campaigns[0], source);
                let mut sinks = vec![Checked::hashing(TracedSink::new(
                    CountingSink::new(),
                    collector,
                ))];
                let mut sub = self.run(batch, &mut sinks, record)?;
                let (traced, summary, digest) = sinks.pop().expect("one sink").into_parts();
                assert_eq!(
                    traced.finish().summary(),
                    summary,
                    "CountingSink agrees with the checking tally"
                );
                sub.add(&summary);
                sub.digest = digest.expect("hashing sink");
                Ok(sub)
            }
            Workload::WarmRerun => {
                for (campaign, (_, faults)) in self.campaigns.iter().zip(&inputs.entries) {
                    batch.push(campaign, faults.clone());
                }
                let mut sinks: Vec<_> = inputs
                    .entries
                    .iter()
                    .map(|(_, faults)| {
                        Checked::new(TracedSink::new(
                            CollectingSink::with_capacity(faults.len()),
                            collector,
                        ))
                    })
                    .collect();
                let mut sub = self.run(batch, &mut sinks, record)?;
                let mut h = Fnv::default();
                for (campaign, sink) in self.campaigns.iter().zip(sinks) {
                    let (traced, summary, _) = sink.into_parts();
                    let profile = traced.finish().into_profile(campaign.system());
                    h.field(profile.system());
                    profile
                        .outcomes()
                        .iter()
                        .for_each(|o| digest_outcome(&mut h, o));
                    sub.add(&summary);
                }
                sub.digest = h.finish();
                Ok(sub)
            }
        }
    }

    /// The timed executor call; the collector, when `record` is set,
    /// records only inside it.
    fn run<S: OutcomeSink>(
        &self,
        batch: CampaignBatch,
        sinks: &mut [S],
        record: bool,
    ) -> Result<Submission, CampaignError> {
        let mut refs: Vec<&mut dyn OutcomeSink> = sinks
            .iter_mut()
            .map(|s| s as &mut dyn OutcomeSink)
            .collect();
        let recorder = self.collector.as_ref().filter(|_| record);
        if let Some(c) = recorder {
            c.set_recording(true);
        }
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let stats = self.executor.run_batch_with_sinks(batch, &mut refs);
        let wall = t0.elapsed();
        let cpu = process_cpu().saturating_sub(cpu0);
        if let Some(c) = recorder {
            c.set_recording(false);
        }
        let stats = stats?;
        Ok(Submission {
            faults: 0,
            wall,
            cpu,
            digest: 0,
            failed: 0,
            stats,
        })
    }
}

impl Submission {
    fn add(&mut self, summary: &ProfileSummary) {
        self.faults += summary.total;
        self.failed += summary.harness_failures + summary.timed_out;
    }
}

/// The workload's reference digest for `inputs`: fresh untraced
/// engines on a fresh executor of `threads` threads, one submission.
///
/// # Errors
///
/// As [`Setup::submit`].
pub fn reference_digest(inputs: &Inputs, threads: usize) -> Result<u64, CampaignError> {
    Ok(Setup::new(inputs, threads, None)?
        .submit(inputs, false)?
        .digest)
}

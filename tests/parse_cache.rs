//! Parse-cache correctness: memoized startup parsing must be
//! observationally invisible.
//!
//! The simulators memoize their parse-and-validate startup path
//! through a `ParseCache`, in the startup slot each payload file shares
//! with its clones (see `conferr_sut::payload`). These tests pin the
//! soundness argument end to end over the full §5.2 (Table 1) fault
//! load:
//!
//! * a campaign run with caching enabled produces a profile
//!   **byte-identical** (exported JSON, every diagnostic and diff
//!   line) to a run with caching disabled;
//! * a `start` served from a cache hit yields a `StartOutcome`
//!   identical to a cold parse of the same payload, fault by fault;
//! * repeated fault loads actually hit the cache (the speedup is
//!   real, not a no-op flag), and a pool builds each fault's startup
//!   state once, whichever worker starts it;
//! * the engine parses each cold fault's mutated file once and the
//!   start receives that parse, while memo hits and the uncached
//!   reference path parse the bytes themselves;
//! * a cold single-edit fault's start also receives the linter's
//!   dialect check of that parse, equal to a fresh check of it, while
//!   memo hits and compound faults carry none;
//! * a single-edit fault whose edited node parses in place carries its
//!   mutated tree as that parse, and the tree equals a full parse of
//!   the bytes the start receives.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use conferr::{
    profile_to_json, Campaign, CampaignExecutor, ExecutorCampaign, ResilienceProfile, SutFactory,
};
use conferr_analysis::{Dialect, DialectCheck};
use conferr_bench::{table1_faultload, DEFAULT_SEED};
use conferr_formats::{format_by_name, ConfigFormat};
use conferr_keyboard::Keyboard;
use conferr_model::{
    ConfigSet, ErrorClass, ErrorGenerator, FaultScenario, GeneratedFault, StructuralKind, TreeEdit,
};
use conferr_plugins::{compound_pairs, StructuralPlugin, TokenClass, TypoPlugin};
use conferr_sut::{
    ApacheSim, BindSim, CacheStats, ConfigFileSpec, ConfigPayload, Deadline, DirectiveSchema,
    DjbdnsSim, FileText, MySqlSim, PostgresSim, StartOutcome, SystemUnderTest, TestOutcome,
    TextOrigin,
};
use conferr_tree::{ConfTree, Node};

/// Runs the full Table 1 fault load through a serial campaign with
/// every cache layer (SUT parse cache + engine fault memo) on or off.
fn table1_profile(sut: &mut dyn SystemUnderTest, caching: bool) -> ResilienceProfile {
    sut.set_parse_caching(caching);
    let mut campaign = Campaign::new(sut).expect("campaign");
    campaign.engine().set_fault_memoization(caching);
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    campaign.run_faults(faults).expect("run")
}

fn assert_cached_equals_uncached(
    make_sut: impl Fn() -> Box<dyn SystemUnderTest + Send> + Send + Sync + 'static,
) {
    let mut cold_sut = make_sut();
    let uncached = table1_profile(cold_sut.as_mut(), false);
    let stats = cold_sut
        .parse_cache_stats()
        .expect("simulators have caches");
    assert_eq!(stats.hits, 0, "disabled cache must never hit");

    let mut warm_sut = make_sut();
    let cached = table1_profile(warm_sut.as_mut(), true);
    let stats = warm_sut
        .parse_cache_stats()
        .expect("simulators have caches");
    assert!(stats.misses > 0, "first sighting always parses in full");

    // Byte-identical, not merely equal: every id, description, diff
    // line and diagnostic in the exported JSON matches exactly.
    assert_eq!(profile_to_json(&uncached), profile_to_json(&cached));

    // The cached side on a 2-thread pool, twice over one engine. The
    // second pass is all fault-memo hits, whose payloads carry no
    // parse, only the startup state the first pass built, on whichever
    // worker that was.
    let campaign = ExecutorCampaign::new(SutFactory::from_boxed(make_sut)).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let executor = CampaignExecutor::new(2);
    for pass in ["cold", "memo hits"] {
        let pooled = executor.run_faults(&campaign, faults.clone()).expect("run");
        assert_eq!(
            profile_to_json(&uncached),
            profile_to_json(&pooled),
            "2 threads, {pass}"
        );
    }
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_mysql() {
    assert_cached_equals_uncached(|| Box::new(MySqlSim::new()));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_postgres() {
    assert_cached_equals_uncached(|| Box::new(PostgresSim::new()));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_apache() {
    assert_cached_equals_uncached(|| Box::new(ApacheSim::new()));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_bind() {
    assert_cached_equals_uncached(|| Box::new(BindSim::new()));
}

#[test]
fn cached_start_is_identical_to_uncached_djbdns() {
    // The Table 1 protocol does not target tinydns data lines, so
    // djbdns is exercised with direct starts: the default data plus
    // hand-made mutations covering clean loads, syntax errors and
    // semantic loader errors.
    let mut warm = DjbdnsSim::new();
    let mut cold = DjbdnsSim::new();
    cold.set_parse_caching(false);
    let default_data = conferr_sut::default_configs(&warm)["data"].clone();
    let mutations = [
        default_data.clone(),
        default_data.replace("=www.example.com", "=www.examplecom"),
        default_data.replace("=www", "?www"),
        default_data.replace("192.0.2.10", "192.0.2.999"),
        default_data.replace(":86400", ":"),
    ];
    for text in &mutations {
        let mut payload = ConfigPayload::new();
        payload.insert("data", FileText::mutated(text.as_str()));
        let first = warm.start(&payload, &Deadline::unlimited());
        let hit = warm.start(&payload, &Deadline::unlimited());
        let reference = cold.start(&payload, &Deadline::unlimited());
        assert_eq!(first, reference);
        assert_eq!(hit, reference);
    }
    let stats = warm.parse_cache_stats().expect("cache");
    assert_eq!(stats.misses, mutations.len() as u64);
    assert_eq!(stats.hits, mutations.len() as u64);
}

#[test]
fn repeated_fault_load_hits_the_cache_and_stays_identical() {
    // The bench protocol: the same fault load injected repeatedly.
    // Repeat 2..n present texts the cache has already parsed — every
    // one must hit, and the merged profile must stay byte-identical
    // to the uncached reference.
    let run = |caching: bool| {
        let mut sut = ApacheSim::new();
        sut.set_parse_caching(caching);
        let mut campaign = Campaign::new(&mut sut).expect("campaign");
        campaign.engine().set_fault_memoization(caching);
        let one = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
        let mut faults = one.clone();
        faults.extend(one.iter().cloned());
        faults.extend(one);
        let profile = campaign.run_faults(faults).expect("run");
        let stats = sut.parse_cache_stats().expect("cache");
        (profile, stats)
    };
    let (uncached, _) = run(false);
    let (cached, stats) = run(true);
    assert_eq!(profile_to_json(&uncached), profile_to_json(&cached));
    // The engine's construction-time baseline scout contributes the
    // one baseline miss; the fault load itself must still serve at
    // least 2/3 from the cache.
    assert!(
        stats.hits >= 2 * (stats.misses - 1),
        "3x the same load must serve at least 2/3 from the cache: {stats:?}"
    );
}

/// Builds the engine-shaped pieces by hand — parsed baseline,
/// per-file formats, baseline payload — so each fault's exact startup
/// payload can be replayed against multiple SUT instances.
struct Replayer {
    baseline: ConfigSet,
    formats: BTreeMap<String, Box<dyn ConfigFormat>>,
    baseline_payload: ConfigPayload,
}

impl Replayer {
    fn new(sut: &dyn SystemUnderTest) -> Self {
        let mut baseline = ConfigSet::new();
        let mut formats = BTreeMap::new();
        let mut baseline_payload = ConfigPayload::new();
        for spec in sut.config_files() {
            let format = format_by_name(&spec.format).expect("known format");
            let tree = format
                .parse(&spec.default_contents)
                .expect("baseline parses");
            let text = format.serialize(&tree).expect("baseline serializes");
            baseline.insert(spec.name.clone(), tree);
            baseline_payload.insert(spec.name.clone(), FileText::baseline(text));
            formats.insert(spec.name, format);
        }
        Replayer {
            baseline,
            formats,
            baseline_payload,
        }
    }

    /// The payload one fault's injection would hand to `start`, built
    /// exactly as the campaign engine builds it: baseline entries for
    /// pointer-shared files, fresh mutated entries otherwise. `None`
    /// when the fault is inexpressible or inapplicable.
    fn payload_for(&self, fault: &GeneratedFault) -> Option<ConfigPayload> {
        let GeneratedFault::Scenario(scenario) = fault else {
            return None;
        };
        let mutated = scenario.apply(&self.baseline).ok()?;
        let mut payload = ConfigPayload::new();
        for (file, tree) in mutated.iter_arcs() {
            if self
                .baseline
                .get_arc(file)
                .is_some_and(|b| Arc::ptr_eq(b, tree))
            {
                payload.insert(file.to_string(), self.baseline_payload.get(file)?.clone());
            } else {
                let text = self.formats.get(file)?.serialize(tree).ok()?;
                payload.insert(file.to_string(), FileText::mutated(text));
            }
        }
        Some(payload)
    }
}

fn assert_hit_equals_cold(make_sut: impl Fn() -> Box<dyn SystemUnderTest>) {
    let mut warm = make_sut();
    let mut cold = make_sut();
    cold.set_parse_caching(false);
    let replayer = Replayer::new(warm.as_ref());
    let faults = table1_faultload(&replayer.baseline, &Keyboard::qwerty_us(), DEFAULT_SEED);

    let mut replayed = 0usize;
    for fault in &faults {
        let Some(payload) = replayer.payload_for(fault) else {
            continue;
        };
        let first = warm.start(&payload, &Deadline::unlimited()); // cold or hit, depending on history
        let hit = warm.start(&payload, &Deadline::unlimited()); // guaranteed byte-identical content
        let reference = cold.start(&payload, &Deadline::unlimited()); // full parse, no memoization
        assert_eq!(first, reference, "fault {}", fault.id());
        assert_eq!(hit, reference, "fault {} (cache hit)", fault.id());
        warm.stop();
        cold.stop();
        replayed += 1;
    }
    assert!(replayed > 50, "the Table 1 load must exercise many faults");
    let stats = warm.parse_cache_stats().expect("cache");
    assert!(
        stats.hits as usize >= replayed,
        "every replayed fault must hit at least once: {stats:?}"
    );
    let cold_stats = cold.parse_cache_stats().expect("cache");
    assert_eq!(cold_stats.hits, 0);
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_mysql() {
    assert_hit_equals_cold(|| Box::new(MySqlSim::new()));
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_postgres() {
    assert_hit_equals_cold(|| Box::new(PostgresSim::new()));
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_apache() {
    assert_hit_equals_cold(|| Box::new(ApacheSim::new()));
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_bind() {
    assert_hit_equals_cold(|| Box::new(BindSim::new()));
}

#[test]
fn unchanged_files_of_multi_file_suts_parse_once() {
    // BIND reads two zone files; a fault load that only ever mutates
    // one of them must leave the other's single build, in the startup
    // slot its baseline file shares with every payload, as the only
    // work done for it.
    let mut sut = BindSim::new();
    let replayer = Replayer::new(&sut);
    let faults = table1_faultload(&replayer.baseline, &Keyboard::qwerty_us(), DEFAULT_SEED);
    let mut starts = 0u64;
    for fault in &faults {
        let Some(payload) = replayer.payload_for(fault) else {
            continue;
        };
        sut.start(&payload, &Deadline::unlimited());
        sut.stop();
        starts += 1;
    }
    let stats = sut.parse_cache_stats().expect("cache");
    // Uncached, this would be up to 2 * starts full parses (a failing
    // first zone still short-circuits the second). With the cache,
    // misses cover each mutated file once plus the two baseline files
    // — per start, at most the one mutated file is parsed.
    assert!(stats.hits + stats.misses <= 2 * starts);
    assert!(
        stats.misses <= starts + 2,
        "only the mutated file may parse per start: {stats:?} over {starts} starts"
    );
    assert!(stats.hits > starts / 2, "untouched zones must mostly hit");
}

/// What the starts of every instance a factory made saw.
#[derive(Debug, Default)]
struct Tally {
    /// Parse-cache hits and misses, summed over the instances.
    stats: CacheStats,
    starts: u64,
    /// Each distinct file name and text a start received.
    texts: HashSet<(String, String)>,
}

/// Forwards to a simulator and adds each start to a [`Tally`] that
/// every instance of its factory shares.
#[derive(Debug)]
struct Tallied {
    inner: Box<dyn SystemUnderTest + Send>,
    tally: Arc<Mutex<Tally>>,
}

impl SystemUnderTest for Tallied {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.inner.config_files()
    }

    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        let before = self.inner.parse_cache_stats().expect("cache");
        let outcome = self.inner.start(configs, deadline);
        let after = self.inner.parse_cache_stats().expect("cache");
        let mut tally = self.tally.lock().expect("tally");
        tally.stats.hits += after.hits - before.hits;
        tally.stats.misses += after.misses - before.misses;
        tally.starts += 1;
        for (name, file) in configs.iter() {
            tally
                .texts
                .insert((name.to_string(), file.text().to_string()));
        }
        outcome
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

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        self.inner.schema()
    }
}

#[test]
fn a_pool_builds_each_distinct_texts_startup_once_across_its_workers() {
    for make_sut in [
        || -> Box<dyn SystemUnderTest + Send> { Box::new(MySqlSim::new()) },
        || -> Box<dyn SystemUnderTest + Send> { Box::new(PostgresSim::new()) },
        || -> Box<dyn SystemUnderTest + Send> { Box::new(ApacheSim::new()) },
    ] {
        let tally = Arc::new(Mutex::new(Tally::default()));
        let shared = Arc::clone(&tally);
        let factory = SutFactory::new(move || Tallied {
            inner: make_sut(),
            tally: Arc::clone(&shared),
        });
        let campaign = ExecutorCampaign::new(factory).expect("campaign");
        // The Table 1 load's distinct edit lists, twice over in one cold
        // submission: each second sighting is a fault-memo hit, on
        // whichever worker claims it. The copies lie further apart than
        // the 2-thread window, so a first sighting is always prepared
        // before its second is claimed.
        let mut seen = HashSet::new();
        let mut faults: Vec<GeneratedFault> =
            table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED)
                .into_iter()
                .filter(|fault| {
                    fault
                        .scenario()
                        .is_some_and(|s| seen.insert(s.edits.clone()))
                })
                .collect();
        faults.extend(faults.clone());
        CampaignExecutor::new(2)
            .run_faults(&campaign, faults)
            .expect("run");

        let tally = tally.lock().expect("tally");
        let name = campaign.system();
        assert_eq!(
            tally.stats.hits + tally.stats.misses,
            tally.starts,
            "{name}"
        );
        assert!(
            tally.texts.len() > 50,
            "{name}: the load must start many texts"
        );
        assert_eq!(
            tally.stats.misses,
            tally.texts.len() as u64,
            "{name}: one build per distinct text, the baseline's included"
        );
    }
}

/// Forwards to a simulator and logs, for each mutated file a start
/// receives, whether it carries a parse: two `parse_with` calls that
/// share one root. Files that do not parse are not logged. For those
/// of a fully modeled dialect it also logs whether they carry a
/// dialect check: two `check_with` calls that share one check. It
/// checks every mutated file's parse against a fresh parse of its
/// bytes, its bytes against a serialization of that parse, and every
/// carried check against a fresh check of that parse, and counts the
/// parses the engine spliced (see [`SpliceLog`]). Release builds skip
/// the engine's own assertions of its spliced text and patched check,
/// so these counts are what catches them there.
#[derive(Debug)]
struct ParseProbe {
    inner: Box<dyn SystemUnderTest>,
    formats: BTreeMap<String, Box<dyn ConfigFormat>>,
    dialects: BTreeMap<&'static str, Dialect>,
    carried: Rc<RefCell<Vec<bool>>>,
    checked: Rc<RefCell<Vec<bool>>>,
    splices: Rc<RefCell<SpliceLog>>,
}

/// What a [`ParseProbe`] learned about the parses its starts received.
#[derive(Debug, Default)]
struct SpliceLog {
    /// The engine's baseline, set once the campaign is built.
    baseline: ConfigSet,
    /// Parses (carried or not) that differ from `format.parse(text)`.
    mismatches: usize,
    /// Texts that differ from `format.serialize` of their parse: a
    /// spliced text that is not the serialization of its tree.
    text_mismatches: usize,
    /// Carried checks that differ from a fresh check of the parse.
    check_mismatches: usize,
    /// Parses sharing an untouched root child with `baseline`: the
    /// engine kept the mutated tree instead of parsing the bytes,
    /// since a parse allocates every node afresh.
    spliced: usize,
}

/// `true` iff a root child of `tree` is the very node at the same
/// place in `base`, counting from either end.
fn shares_a_root_child(tree: &ConfTree, base: &ConfTree) -> bool {
    let (a, b) = (tree.root().children(), base.root().children());
    a.iter()
        .zip(b)
        .chain(a.iter().rev().zip(b.iter().rev()))
        .any(|(x, y)| Node::ptr_eq(x, y))
}

impl ParseProbe {
    fn new(inner: Box<dyn SystemUnderTest>) -> Self {
        let formats = inner
            .config_files()
            .into_iter()
            .map(|spec| (spec.name, format_by_name(&spec.format).expect("format")))
            .collect();
        let dialects = inner
            .schema()
            .map(|schema| schema.files)
            .unwrap_or_default()
            .iter()
            .filter(|fs| fs.dialect.is_fully_modeled())
            .map(|fs| (fs.file, fs.dialect))
            .collect();
        ParseProbe {
            inner,
            formats,
            dialects,
            carried: Rc::default(),
            checked: Rc::default(),
            splices: Rc::default(),
        }
    }
}

impl SystemUnderTest for ParseProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.inner.config_files()
    }

    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        for (name, file) in configs.iter() {
            if file.origin() != TextOrigin::Mutated {
                continue;
            }
            let format = self.formats[name].as_ref();
            let parse = file.parse_with(format);
            let log = &mut *self.splices.borrow_mut();
            if parse != format.parse(file.text()) {
                log.mismatches += 1;
            }
            if let Ok(tree) = &parse {
                if format.serialize(tree).as_deref() != Ok(file.text()) {
                    log.text_mismatches += 1;
                }
            }
            if let (Ok(tree), Some(base)) = (&parse, log.baseline.get(name)) {
                if shares_a_root_child(tree, base) {
                    log.spliced += 1;
                }
            }
            let (Ok(a), Ok(b)) = (parse, file.parse_with(format)) else {
                continue;
            };
            self.carried
                .borrow_mut()
                .push(Node::ptr_eq(a.root(), b.root()));
            if let Some(&dialect) = self.dialects.get(name) {
                let check = file.check_with(format, dialect).expect("parses");
                let again = file.check_with(format, dialect).expect("parses");
                let carried = Arc::ptr_eq(&check, &again);
                if carried && Some(&*check) != DialectCheck::run(dialect, a.root()).as_ref() {
                    log.check_mismatches += 1;
                }
                self.checked.borrow_mut().push(carried);
            }
        }
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
}

#[test]
fn cold_faults_start_from_the_engines_parse_and_memo_hits_do_not() {
    for make_sut in [
        || -> Box<dyn SystemUnderTest> { Box::new(MySqlSim::new()) },
        || -> Box<dyn SystemUnderTest> { Box::new(PostgresSim::new()) },
        || -> Box<dyn SystemUnderTest> { Box::new(ApacheSim::new()) },
    ] {
        let mut probe = ParseProbe::new(make_sut());
        let carried = Rc::clone(&probe.carried);
        let checked = Rc::clone(&probe.checked);
        let mut campaign = Campaign::new(&mut probe).expect("campaign");
        // Distinct edit lists, so the first pass is all memo misses.
        let mut seen = HashSet::new();
        let faults: Vec<GeneratedFault> =
            table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED)
                .into_iter()
                .filter(|fault| match fault {
                    GeneratedFault::Scenario(s) => seen.insert(s.edits.clone()),
                    GeneratedFault::Inexpressible { .. } => false,
                })
                .collect();

        campaign.run_faults(faults.clone()).expect("cold pass");
        let cold = carried.take();
        assert!(cold.len() > 50, "the load must start on many mutated files");
        assert!(
            cold.iter().all(|&c| c),
            "every cold start must receive the engine's parse"
        );
        let cold_checks = checked.take();
        assert_eq!(cold_checks.len(), cold.len());
        assert!(
            cold_checks.iter().all(|&c| c),
            "every cold start must receive the judge's check"
        );

        campaign.run_faults(faults).expect("memo pass");
        let hits = carried.take();
        assert_eq!(hits.len(), cold.len());
        assert!(
            hits.iter().all(|&c| !c),
            "a memo hit must hand over text without a parse"
        );
        let hit_checks = checked.take();
        assert_eq!(hit_checks.len(), hits.len());
        assert!(
            hit_checks.iter().all(|&c| !c),
            "a memo hit must hand over text without a check"
        );
    }
}

#[test]
fn compound_faults_carry_a_parse_but_no_check() {
    let mut probe = ParseProbe::new(Box::new(MySqlSim::new()));
    let carried = Rc::clone(&probe.carried);
    let checked = Rc::clone(&probe.checked);
    let mut campaign = Campaign::new(&mut probe).expect("campaign");
    let typos = TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveValues)
        .generate(campaign.baseline())
        .expect("typos");
    // Distinct two-edit lists, so every fault is a memo miss.
    let mut seen = HashSet::new();
    let mut compounds = compound_pairs(&typos, DEFAULT_SEED, 200);
    compounds.retain(|fault| match fault {
        GeneratedFault::Scenario(s) => s.edits.len() == 2 && seen.insert(s.edits.clone()),
        GeneratedFault::Inexpressible { .. } => false,
    });

    campaign.run_faults(compounds).expect("run");
    let parses = carried.take();
    assert!(
        parses.len() > 50,
        "the load must start on many mutated files"
    );
    assert!(
        parses.iter().all(|&c| c),
        "a cold compound start receives the engine's parse"
    );
    let checks = checked.take();
    assert_eq!(checks.len(), parses.len());
    assert!(
        checks.iter().all(|&c| !c),
        "the linter validates no compound, so none carries a check"
    );
}

/// Every single-node deletion of `baseline`, comments, blanks and
/// sections included.
fn every_deletion(baseline: &ConfigSet) -> Vec<GeneratedFault> {
    let mut out = Vec::new();
    for (file, tree) in baseline.iter() {
        for (path, _) in tree.iter().skip(1) {
            out.push(GeneratedFault::Scenario(FaultScenario {
                id: format!("delete:{file}:{path}"),
                description: format!("delete {path} of {file}"),
                class: ErrorClass::Structural(StructuralKind::DirectiveOmission),
                edits: vec![TreeEdit::Delete {
                    file: file.to_string(),
                    path,
                }],
            }));
        }
    }
    out
}

#[test]
fn single_edit_faults_carry_their_mutated_tree_as_the_parse() {
    for make_sut in [
        || -> Box<dyn SystemUnderTest> { Box::new(MySqlSim::new()) },
        || -> Box<dyn SystemUnderTest> { Box::new(PostgresSim::new()) },
        || -> Box<dyn SystemUnderTest> { Box::new(ApacheSim::new()) },
    ] {
        let mut probe = ParseProbe::new(make_sut());
        let name = probe.name().to_string();
        let carried = Rc::clone(&probe.carried);
        let splices = Rc::clone(&probe.splices);
        let mut campaign = Campaign::new(&mut probe).expect("campaign");
        let baseline = campaign.baseline().clone();
        splices.borrow_mut().baseline = baseline.clone();

        let mut faults = every_deletion(&baseline);
        for class in [
            TokenClass::DirectiveNames,
            TokenClass::DirectiveValues,
            TokenClass::SectionNames,
        ] {
            let typos = TypoPlugin::new(Keyboard::qwerty_us(), class);
            faults.extend(typos.generate(&baseline).expect("typos"));
        }
        faults.extend(
            StructuralPlugin::new()
                .generate(&baseline)
                .expect("structural"),
        );
        // Distinct single-edit lists, so every fault is a memo miss.
        let mut seen = HashSet::new();
        faults.retain(|fault| match fault {
            GeneratedFault::Scenario(s) => s.edits.len() == 1 && seen.insert(s.edits.clone()),
            GeneratedFault::Inexpressible { .. } => false,
        });

        let profile = campaign.run_faults(faults).expect("run");
        assert_eq!(profile.summary().harness_failures, 0, "{name}");
        let reached = carried.take().len();
        let log = splices.borrow();
        assert_eq!(
            log.text_mismatches, 0,
            "{name}: a mutated text is not the serialization of its parse"
        );
        assert_eq!(
            log.mismatches, 0,
            "{name}: a carried parse is not the parse of its bytes"
        );
        assert_eq!(
            log.check_mismatches, 0,
            "{name}: a carried check is not the check of its parse"
        );
        assert!(
            log.spliced * 100 >= reached * 95,
            "{name}: only {} of {reached} parsed starts were spliced",
            log.spliced
        );
    }
}

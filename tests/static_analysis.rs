//! The static analysis layer's two hard promises, checked against the
//! dynamic pipeline over the paper's full fault loads:
//!
//! * **Verdict soundness** (precision gate): a non-`Unknown`
//!   [`StaticVerdict`] on an injection outcome is a guarantee, not a
//!   guess. `WillFailParse` / `WillFailValidate` must coincide with
//!   `DetectedAtStartup`; `SemanticallySilent` must coincide with a
//!   warning-free `Undetected`. Zero unsound predictions over the full
//!   §5.2 (Table 1) load for every schema-publishing system.
//! * **Pruning transparency**: test-impact pruning (skipping
//!   functional tests whose schema-declared read-set is provably
//!   disjoint from a fault's touch map) must be a pure wall-clock
//!   optimisation — profiles byte-identical to the unpruned reference,
//!   serially and at every thread count.
//!
//! Plus the supporting contracts: `LintedSource` transparency inside a
//! real campaign, and the `examples/configs/` drift guard that keeps
//! the CI lint gate's inputs honest.

use std::path::Path;

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignExecutor, CollectingSink, ExecutorCampaign,
    InjectionResult, LintedSource, ResilienceProfile, StaticVerdict,
};
use conferr_bench::{all_typos, table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{
    ConfigSet, EagerSource, ErrorClass, ErrorGenerator, FaultScenario, GeneratedFault,
    StructuralKind, TreeEdit, TypoKind,
};
use conferr_plugins::{VariationClass, VariationPlugin};
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, DjbdnsSim, MySqlSim, PostgresSim, SystemUnderTest,
};
use conferr_tree::NodeQuery;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Precision gate: every non-Unknown verdict must agree with the
// dynamic outcome.
// ---------------------------------------------------------------------------

/// Checks every outcome's verdict against its dynamic result and
/// returns `(predicted_failures, predicted_silent)` so callers can
/// also assert the linter actually commits to claims.
fn assert_verdicts_sound(profile: &ResilienceProfile) -> (usize, usize) {
    let mut predicted_failures = 0usize;
    let mut predicted_silent = 0usize;
    for o in profile.outcomes() {
        match &o.verdict {
            StaticVerdict::WillFailParse | StaticVerdict::WillFailValidate { .. } => {
                predicted_failures += 1;
                assert!(
                    matches!(o.result, InjectionResult::DetectedAtStartup { .. }),
                    "unsound verdict on {}: static {} vs dynamic {}",
                    o.id,
                    o.verdict,
                    o.result
                );
            }
            StaticVerdict::SemanticallySilent => {
                predicted_silent += 1;
                assert!(
                    matches!(&o.result, InjectionResult::Undetected { warnings } if warnings.is_empty()),
                    "unsound verdict on {}: static {} vs dynamic {}",
                    o.id,
                    o.verdict,
                    o.result
                );
            }
            StaticVerdict::Unknown => {}
        }
    }
    (predicted_failures, predicted_silent)
}

/// Runs the full Table 1 load against one system and gates every
/// verdict; `expect_claims` additionally requires the linter to have
/// predicted at least one startup failure (a vacuously-sound
/// all-Unknown linter must not pass for fully-modeled dialects).
fn table1_precision_gate(sut: &mut dyn SystemUnderTest, expect_claims: bool) {
    let mut campaign = Campaign::new(sut).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let total = faults.len();
    let profile = campaign.run_faults(faults).expect("run");
    assert_eq!(profile.len(), total);
    let (failures, _) = assert_verdicts_sound(&profile);
    if expect_claims {
        assert!(
            failures > 0,
            "a modeled dialect must commit to startup-failure predictions"
        );
    }
}

#[test]
fn table1_verdicts_are_sound_mysql() {
    table1_precision_gate(&mut MySqlSim::new(), true);
}

#[test]
fn table1_verdicts_are_sound_postgres() {
    table1_precision_gate(&mut PostgresSim::new(), true);
}

#[test]
fn table1_verdicts_are_sound_apache() {
    table1_precision_gate(&mut ApacheSim::new(), true);
}

#[test]
fn table1_verdicts_are_sound_bind_and_appserver() {
    // Unmodeled dialects: the schema exists (for test read-sets) but
    // the linter has no round-trip model, so every verdict must be
    // Unknown — vacuously sound, and checked so a future partial
    // model cannot ship unsound claims unnoticed.
    table1_precision_gate(&mut BindSim::new(), false);
    table1_precision_gate(&mut AppServerSim::new(), false);
}

/// A Table 1-shaped load for djbdns. The §5.2 protocol targets
/// `//directive` nodes, which a tinydns-data file does not have; the
/// equivalent line-level load deletes each record, typos each
/// record's payload, and corrupts record-type prefixes.
fn djbdns_faultload(set: &ConfigSet) -> Vec<GeneratedFault> {
    let query: NodeQuery = "//line".parse().expect("static query");
    let keyboard = Keyboard::qwerty_us();
    let mut out = Vec::new();
    for (file, tree) in set.iter() {
        for (path, node) in query.select_nodes(tree) {
            out.push(GeneratedFault::Scenario(FaultScenario {
                id: format!("djb-delete:{file}:{path}"),
                description: format!("omit record {}", node.describe()),
                class: ErrorClass::Structural(StructuralKind::DirectiveOmission),
                edits: vec![TreeEdit::Delete {
                    file: file.to_string(),
                    path: path.clone(),
                }],
            }));
            out.push(GeneratedFault::Scenario(FaultScenario {
                id: format!("djb-type:{file}:{path}"),
                description: "corrupt record-type prefix".into(),
                class: ErrorClass::Typo(TypoKind::Substitution),
                edits: vec![TreeEdit::SetAttr {
                    file: file.to_string(),
                    path: path.clone(),
                    key: "type".to_string(),
                    value: "!".to_string(),
                }],
            }));
            let Some(payload) = node.text().filter(|t| !t.is_empty()) else {
                continue;
            };
            // Deterministically corrupt the one field the loader
            // checks (the IPv4 address), yielding an out-of-range
            // octet — the WillFailValidate half of the gate.
            if payload.contains("192.0.2.") {
                out.push(GeneratedFault::Scenario(FaultScenario {
                    id: format!("djb-ip:{file}:{path}"),
                    description: "out-of-range IPv4 octet".into(),
                    class: ErrorClass::Typo(TypoKind::Insertion),
                    edits: vec![TreeEdit::SetText {
                        file: file.to_string(),
                        path: path.clone(),
                        text: Some(payload.replacen("192.0.2.", "192.0.2222.", 1)),
                    }],
                }));
            }
            for (v, (mutated, label)) in all_typos(&keyboard, payload)
                .into_iter()
                .take(6)
                .enumerate()
            {
                out.push(GeneratedFault::Scenario(FaultScenario {
                    id: format!("djb-payload:{file}:{path}#{v}"),
                    description: format!("payload typo: {label}"),
                    class: ErrorClass::Typo(TypoKind::Substitution),
                    edits: vec![TreeEdit::SetText {
                        file: file.to_string(),
                        path: path.clone(),
                        text: Some(mutated),
                    }],
                }));
            }
        }
    }
    out
}

#[test]
fn djbdns_line_edit_verdicts_are_sound() {
    let mut sut = DjbdnsSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = djbdns_faultload(campaign.baseline());
    assert!(faults.len() > 30, "the data file must yield a real load");
    let profile = campaign.run_faults(faults).expect("run");
    let (failures, _) = assert_verdicts_sound(&profile);
    assert!(
        failures > 0,
        "corrupted prefixes and payloads must yield WillFail predictions"
    );
}

// ---------------------------------------------------------------------------
// Proptest: soundness holds for arbitrary values, not just the
// keyboard model's typos.
// ---------------------------------------------------------------------------

/// Arbitrary printable-ASCII value strings, including empty and
/// whitespace-bearing ones.
fn arb_value() -> impl Strategy<Value = String> {
    "[ -~]{0,24}"
}

fn assert_single_edit_sound(sut: &mut dyn SystemUnderTest, file: &str, edit: TreeEdit, id: &str) {
    let mut campaign = Campaign::new(sut).expect("campaign");
    let faults = vec![GeneratedFault::Scenario(FaultScenario {
        id: id.to_string(),
        description: format!("arbitrary edit in {file}"),
        class: ErrorClass::Typo(TypoKind::Substitution),
        edits: vec![edit],
    })];
    let profile = campaign.run_faults(faults).expect("run");
    assert_verdicts_sound(&profile);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever string lands in a MySQL directive value, a WillFail*
    /// verdict must coincide with a failing start and a
    /// SemanticallySilent verdict with a clean pass.
    #[test]
    fn mysql_arbitrary_value_verdicts_are_sound(value in arb_value(), idx in 0usize..16) {
        let mut sut = MySqlSim::new();
        let campaign = Campaign::new(&mut sut).expect("campaign");
        let query: NodeQuery = "//directive".parse().expect("query");
        let tree = campaign.baseline().get("my.cnf").expect("baseline file");
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        drop(campaign);
        assert_single_edit_sound(
            &mut sut,
            "my.cnf",
            TreeEdit::SetText { file: "my.cnf".into(), path, text: Some(value) },
            "prop-mysql-value",
        );
    }

    /// Same for arbitrary directive *names* in Postgres, where the
    /// registry lookup (not the value check) decides.
    #[test]
    fn postgres_arbitrary_name_verdicts_are_sound(name in arb_value(), idx in 0usize..16) {
        let mut sut = PostgresSim::new();
        let campaign = Campaign::new(&mut sut).expect("campaign");
        let query: NodeQuery = "//directive".parse().expect("query");
        let tree = campaign.baseline().get("postgresql.conf").expect("baseline file");
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        drop(campaign);
        assert_single_edit_sound(
            &mut sut,
            "postgresql.conf",
            TreeEdit::SetAttr {
                file: "postgresql.conf".into(),
                path,
                key: "name".into(),
                value: name,
            },
            "prop-postgres-name",
        );
    }
}

// ---------------------------------------------------------------------------
// Pruning transparency: byte-identical profiles, serial and parallel.
// ---------------------------------------------------------------------------

fn pruned_equals_unpruned_table1(make_sut: impl Fn() -> Box<dyn SystemUnderTest>) {
    let mut reference_sut = make_sut();
    let mut reference = Campaign::new(reference_sut.as_mut()).expect("campaign");
    reference.set_impact_pruning(false);
    let faults = table1_faultload(reference.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let unpruned = reference.run_faults(faults.clone()).expect("run");

    let mut pruned_sut = make_sut();
    let mut pruned = Campaign::new(pruned_sut.as_mut()).expect("campaign");
    pruned.set_impact_pruning(true);
    let pruned = pruned.run_faults(faults).expect("run");

    assert_eq!(profile_to_json(&unpruned), profile_to_json(&pruned));
}

#[test]
fn pruned_profile_is_byte_identical_mysql() {
    pruned_equals_unpruned_table1(|| Box::new(MySqlSim::new()));
}

#[test]
fn pruned_profile_is_byte_identical_postgres() {
    pruned_equals_unpruned_table1(|| Box::new(PostgresSim::new()));
}

#[test]
fn pruned_profile_is_byte_identical_apache() {
    pruned_equals_unpruned_table1(|| Box::new(ApacheSim::new()));
}

#[test]
fn pruned_parallel_profile_is_byte_identical_at_every_thread_count() {
    // The serial unpruned run is the single source of truth; pruned
    // parallel runs at 1, 2 and 4 threads must reproduce it exactly.
    let mut sut = MySqlSim::new();
    let mut reference = Campaign::new(&mut sut).expect("campaign");
    reference.set_impact_pruning(false);
    let faults = table1_faultload(reference.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let unpruned = reference.run_faults(faults.clone()).expect("run");

    for threads in [1, 2, 4] {
        let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).expect("campaign");
        campaign.set_impact_pruning(true);
        let pruned = CampaignExecutor::new(threads)
            .run_faults(&campaign, faults.clone())
            .expect("run");
        assert_eq!(
            profile_to_json(&unpruned),
            profile_to_json(&pruned),
            "threads = {threads}"
        );
    }
}

#[test]
fn pruned_profile_is_byte_identical_over_table2_variations() {
    // The §5.3 neutral-variation load reorders and reformats whole
    // files — the touch maps are wide, so pruning rarely fires; the
    // point is that it stays invisible even on loads it cannot help.
    for class in VariationClass::ALL {
        let mut reference_sut = ApacheSim::new();
        let mut reference = Campaign::new(&mut reference_sut).expect("campaign");
        reference.set_impact_pruning(false);
        let plugin = VariationPlugin::new(class, 10, DEFAULT_SEED);
        let faults = plugin.generate(reference.baseline()).expect("generate");
        if faults.is_empty() {
            continue;
        }
        let unpruned = reference.run_faults(faults.clone()).expect("run");

        let mut pruned_sut = ApacheSim::new();
        let mut pruned = Campaign::new(&mut pruned_sut).expect("campaign");
        pruned.set_impact_pruning(true);
        let pruned = pruned.run_faults(faults).expect("run");
        assert_eq!(
            profile_to_json(&unpruned),
            profile_to_json(&pruned),
            "class = {}",
            class.label()
        );
    }
}

// ---------------------------------------------------------------------------
// LintedSource inside a real campaign.
// ---------------------------------------------------------------------------

#[test]
fn linted_source_observes_every_fault_and_stays_transparent() {
    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let total = faults.len();
    let reference = campaign.run_faults(faults.clone()).expect("run");

    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let linter = campaign.linter().expect("mysql publishes a schema");
    let mut observed = Vec::new();
    let mut source = LintedSource::new(EagerSource::new(faults), linter, |fault, lint| {
        let id = match fault {
            GeneratedFault::Scenario(s) => s.id.clone(),
            GeneratedFault::Inexpressible { id, .. } => id.clone(),
        };
        observed.push((id, lint.verdict.clone()));
    });
    let mut sink = CollectingSink::with_capacity(total);
    campaign
        .run_source(&mut source, &mut sink)
        .expect("streamed run");
    let streamed = sink.into_profile("mysql-sim");
    drop(source);

    // Transparent: the streamed profile is byte-identical to the plain
    // run over the same faults.
    assert_eq!(profile_to_json(&reference), profile_to_json(&streamed));
    // Exhaustive: one observation per fault, in order, and each
    // observed verdict matches the annotated outcome (the serial
    // campaign applies no downgrades beyond the engine's own).
    assert_eq!(observed.len(), total);
    for ((id, verdict), outcome) in observed.iter().zip(streamed.outcomes()) {
        assert_eq!(id, &outcome.id);
        match verdict {
            // The engine may downgrade SemanticallySilent to Unknown
            // when the scout could not certify a clean baseline;
            // every other verdict must round-trip exactly.
            StaticVerdict::SemanticallySilent => assert!(
                matches!(
                    outcome.verdict,
                    StaticVerdict::SemanticallySilent | StaticVerdict::Unknown
                ),
                "{id}: {} became {}",
                verdict,
                outcome.verdict
            ),
            v => assert_eq!(v, &outcome.verdict, "{id}"),
        }
    }
}

// ---------------------------------------------------------------------------
// examples/configs drift guard.
// ---------------------------------------------------------------------------

#[test]
fn example_configs_match_simulator_defaults() {
    // CI lints `examples/configs/` as the schema-coverage gate; the
    // files must stay byte-identical to the simulators' defaults.
    // Regenerate with `conferr-lint --write-defaults examples/configs`.
    let sims: Vec<Box<dyn SystemUnderTest>> = vec![
        Box::new(MySqlSim::new()),
        Box::new(PostgresSim::new()),
        Box::new(ApacheSim::new()),
        Box::new(BindSim::new()),
        Box::new(DjbdnsSim::new()),
        Box::new(AppServerSim::new()),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs");
    for sim in sims {
        let short = sim.name().strip_suffix("-sim").unwrap_or(sim.name());
        for spec in sim.config_files() {
            let path = root.join(short).join(&spec.name);
            let on_disk = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            assert_eq!(
                on_disk,
                spec.default_contents,
                "{} drifted from the {} default",
                path.display(),
                sim.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Static triage: synthesized startup outcomes, byte-identical.
// ---------------------------------------------------------------------------

/// Runs Table 1 twice — triage explicitly off (the reference knob)
/// and on — asserts byte-identity, and returns the triaged run's
/// `(dynamic, synthesized)` start counts.
fn triaged_equals_dynamic_table1(
    make_sut: impl Fn() -> Box<dyn SystemUnderTest>,
) -> (usize, usize) {
    let mut reference_sut = make_sut();
    let mut reference = Campaign::new(reference_sut.as_mut()).expect("campaign");
    reference.set_static_triage(false);
    let faults = table1_faultload(reference.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let dynamic = reference.run_faults(faults.clone()).expect("run");
    let (reference_dynamic, reference_synthesized) = reference.triage_stats();
    assert!(reference_dynamic > 0);
    assert_eq!(reference_synthesized, 0, "triage off = every start dynamic");

    let mut triaged_sut = make_sut();
    let mut triaged = Campaign::new(triaged_sut.as_mut()).expect("campaign");
    triaged.set_static_triage(true);
    let profile = triaged.run_faults(faults).expect("run");
    assert_eq!(profile_to_json(&dynamic), profile_to_json(&profile));
    triaged.triage_stats()
}

#[test]
fn triaged_profile_is_byte_identical_mysql() {
    let (dynamic, synthesized) = triaged_equals_dynamic_table1(|| Box::new(MySqlSim::new()));
    assert!(
        synthesized >= dynamic,
        "triage replaced {synthesized} of {} starts",
        dynamic + synthesized
    );
}

#[test]
fn triaged_profile_is_byte_identical_postgres() {
    let (dynamic, synthesized) = triaged_equals_dynamic_table1(|| Box::new(PostgresSim::new()));
    assert!(
        synthesized >= dynamic,
        "triage replaced {synthesized} of {} starts",
        dynamic + synthesized
    );
}

#[test]
fn triaged_profile_is_byte_identical_apache() {
    // Apache's Table 1 load is almost entirely statically decidable:
    // strict validation makes the name typos provably fatal
    // (`WillFail*` → `DetectedAtStartup`) and the rest is provably
    // inert (`SemanticallySilent` → warning-free `Undetected`).
    // Triage must replace at least half the starts (the §4 claim the
    // bench gates as `triage_speedup`).
    let (dynamic, synthesized) = triaged_equals_dynamic_table1(|| Box::new(ApacheSim::new()));
    assert!(
        synthesized >= dynamic,
        "triage replaced {synthesized} of {} starts",
        dynamic + synthesized
    );
}

#[test]
fn triaged_executor_batch_is_byte_identical_across_threads() {
    // The same contract through the pooled executor: a triaged Table 1
    // run at 1/2/4 threads matches the untriaged serial reference, and
    // the engine's counters show the shared knob took effect.
    let reference_campaign = ExecutorCampaign::new(sut_factory(ApacheSim::new)).expect("campaign");
    reference_campaign.set_static_triage(false);
    let faults = table1_faultload(
        reference_campaign.baseline(),
        &Keyboard::qwerty_us(),
        DEFAULT_SEED,
    );
    let reference = {
        let executor = CampaignExecutor::new(1);
        executor
            .run_faults(&reference_campaign, faults.clone())
            .expect("reference run")
    };

    let triaged_campaign = ExecutorCampaign::new(sut_factory(ApacheSim::new)).expect("campaign");
    triaged_campaign.set_static_triage(true);
    for threads in [1, 2, 4] {
        let executor = CampaignExecutor::new(threads);
        let profile = executor
            .run_faults(&triaged_campaign, faults.clone())
            .expect("triaged run");
        assert_eq!(
            profile_to_json(&reference),
            profile_to_json(&profile),
            "threads = {threads}"
        );
    }
    let (_, synthesized) = triaged_campaign.triage_stats();
    assert!(synthesized > 0, "the shared engine synthesized outcomes");
}

//! Every qualitative finding of the paper's §5.1–§5.4, reproduced as
//! an end-to-end injection through the public API: the fault is
//! injected via a campaign (not by poking the simulator), and the
//! classified outcome must match what the paper reported. The two
//! §5.1 design claims are ablations, asserted at nine seeds.

use std::collections::BTreeSet;

use conferr::{Campaign, InjectionResult};
use conferr_bench::{all_typos, table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{ConfigSet, ErrorClass, FaultScenario, GeneratedFault, TreeEdit, TypoKind};
use conferr_sut::{ApacheSim, ConfigPayload, Deadline, MySqlSim, PostgresSim, SystemUnderTest};
use conferr_tree::{NodeQuery, TreePath};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds a one-scenario fault load that rewrites the value of the
/// named directive.
fn set_value_fault(set: &ConfigSet, directive: &str, new_value: &str) -> Vec<GeneratedFault> {
    let query: NodeQuery = format!("//directive[@name='{directive}']")
        .parse()
        .expect("valid query");
    for (file, tree) in set.iter() {
        if let Some(path) = query.select(tree).first() {
            return vec![GeneratedFault::Scenario(FaultScenario {
                id: format!("finding:{directive}"),
                description: format!("set {directive} = {new_value}"),
                class: ErrorClass::Typo(TypoKind::Substitution),
                edits: vec![TreeEdit::SetText {
                    file: file.to_string(),
                    path: path.clone(),
                    text: Some(new_value.to_string()),
                }],
            })];
        }
    }
    panic!("directive {directive} not found in default configuration");
}

fn inject_value(sut: &mut dyn SystemUnderTest, directive: &str, value: &str) -> InjectionResult {
    let mut campaign = Campaign::new(sut).expect("campaign");
    let faults = set_value_fault(campaign.baseline(), directive, value);
    let profile = campaign.run_faults(faults).expect("run");
    profile.outcomes()[0].result.clone()
}

// ---------------------------------------------------------------------------
// Design ablations (§5.1)
// ---------------------------------------------------------------------------

/// The seeds each ablation runs at: the bench default and 0–7.
fn ablation_seeds() -> impl Iterator<Item = u64> {
    std::iter::once(DEFAULT_SEED).chain(0..8)
}

/// Uniform-random single-character substitutions in a non-empty
/// `word` (the unrealistic baseline).
fn uniform_substitutions(word: &str, rng: &mut StdRng, count: usize) -> Vec<(String, String)> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_./";
    let chars: Vec<char> = word.chars().collect();
    let mut out = Vec::new();
    for _ in 0..count {
        let pos = rng.gen_range(0..chars.len());
        let replacement = ALPHABET[rng.gen_range(0..ALPHABET.len())] as char;
        if replacement == chars[pos] {
            continue;
        }
        let mut mutated = chars.clone();
        mutated[pos] = replacement;
        out.push((
            mutated.into_iter().collect(),
            format!("uniform substitution at {pos}"),
        ));
    }
    out
}

/// Value-typo faults for every directive with a value, built by
/// `mutator` and capped per directive.
fn value_faults(
    set: &ConfigSet,
    mutator: impl Fn(&str, &mut StdRng) -> Vec<(String, String)>,
    per_directive: usize,
    seed: u64,
) -> Vec<GeneratedFault> {
    let query: NodeQuery = "//directive".parse().expect("query");
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for (file, tree) in set.iter() {
        for (path, node) in query.select_nodes(tree) {
            let Some(value) = node.text().filter(|v| !v.is_empty()) else {
                continue;
            };
            let mut variants = mutator(value, &mut rng);
            variants.truncate(per_directive);
            for (i, (mutated, label)) in variants.into_iter().enumerate() {
                out.push(GeneratedFault::Scenario(FaultScenario {
                    id: format!("abl:{file}:{path}#{i}"),
                    description: label,
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

/// Distinct undetected-flaw sites among the first `budget` faults. A
/// site is the fault id before its `#` variant suffix.
fn undetected_sites(
    campaign: &mut Campaign<'_>,
    mut faults: Vec<GeneratedFault>,
    budget: usize,
) -> usize {
    faults.truncate(budget);
    let profile = campaign.run_faults(faults).expect("run");
    profile
        .outcomes()
        .iter()
        .filter(|o| matches!(o.result, InjectionResult::Undetected { .. }))
        .map(|o| {
            o.id.rsplit_once('#')
                .map_or(o.id.as_str(), |(site, _)| site)
        })
        .collect::<BTreeSet<_>>()
        .len()
}

#[test]
fn uniform_substitutions_overstate_resilience() {
    // Typos follow keyboard geometry. A uniform random substitution is
    // more often garbage the system rejects, so a uniform model makes
    // the system look more resilient than it is against real slips.
    let keyboard = Keyboard::qwerty_us();
    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    for seed in ablation_seeds() {
        let keyboard_aware = value_faults(
            campaign.baseline(),
            |v, rng| {
                let mut variants = all_typos(&keyboard, v);
                variants.shuffle(rng);
                variants
            },
            8,
            seed,
        );
        let uniform = value_faults(
            campaign.baseline(),
            |v, rng| uniform_substitutions(v, rng, 8),
            8,
            seed,
        );
        let mut detection_rate = |faults| {
            campaign
                .run_faults(faults)
                .expect("run")
                .summary()
                .detection_rate()
        };
        let keyboard_rate = detection_rate(keyboard_aware);
        let uniform_rate = detection_rate(uniform);
        assert!(
            uniform_rate > keyboard_rate,
            "seed {seed}: uniform substitutions detected at {uniform_rate:.3}, \
             keyboard-aware typos at {keyboard_rate:.3}"
        );
    }
}

#[test]
fn class_structured_sampling_finds_more_flaws() {
    // Sampling through the error-class hierarchy "is considerably more
    // efficient at finding flaws" than sampling the flat variant pool,
    // where redundant variants of one site cluster.
    const BUDGET: usize = 60;
    let keyboard = Keyboard::qwerty_us();
    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    for seed in ablation_seeds() {
        let structured = table1_faultload(campaign.baseline(), &keyboard, seed);
        let mut uniform = value_faults(
            campaign.baseline(),
            |v, _| all_typos(&keyboard, v),
            usize::MAX,
            seed,
        );
        uniform.shuffle(&mut StdRng::seed_from_u64(seed));
        let s = undetected_sites(&mut campaign, structured, BUDGET);
        let u = undetected_sites(&mut campaign, uniform, BUDGET);
        assert!(
            2 * s >= 3 * u,
            "seed {seed}: in {BUDGET} injections class-structured sampling found {s} flaw \
             sites and uniform sampling {u}; the claim needs 1.5x"
        );
    }
}

// ---------------------------------------------------------------------------
// MySQL findings (§5.2)
// ---------------------------------------------------------------------------

#[test]
fn mysql_accepts_out_of_bounds_value_silently() {
    // "key_buffer_size=1 is accepted and ignored, although the value
    // has to be at least 8 [KiB]".
    let mut sut = MySqlSim::new();
    let result = inject_value(&mut sut, "key_buffer_size", "1");
    assert!(
        matches!(result, InjectionResult::Undetected { .. }),
        "out-of-bounds size must be silently absorbed: {result}"
    );
}

#[test]
fn mysql_accepts_one_m_zero() {
    // "a value like '1M0' is accepted as valid, whereas it is clearly
    // an unintended value (the operator likely meant '10M')".
    let mut sut = MySqlSim::new();
    let result = inject_value(&mut sut, "max_allowed_packet", "1M0");
    assert!(
        matches!(result, InjectionResult::Undetected { .. }),
        "1M0 must be accepted: {result}"
    );
}

#[test]
fn mysql_silently_ignores_suffix_leading_values() {
    // "Numeric values that start with one of the mentioned suffixes
    // (and are thus invalid) are also silently ignored."
    let mut sut = MySqlSim::new();
    let result = inject_value(&mut sut, "sort_buffer_size", "K512");
    assert!(
        matches!(result, InjectionResult::Undetected { .. }),
        "suffix-leading value must be silently absorbed: {result}"
    );
}

#[test]
fn mysql_accepts_valueless_directives() {
    // "Directives specified without a value are also accepted and
    // replaced with defaults by MySQL."
    let mut sut = MySqlSim::new();
    let result = inject_value(&mut sut, "table_open_cache", "");
    assert!(
        matches!(result, InjectionResult::Undetected { .. }),
        "valueless directive must be absorbed: {result}"
    );
}

#[test]
fn mysql_tool_section_errors_stay_latent_until_the_tool_runs() {
    // "if an administrator inadvertently inserts an error in one of
    // the other sections, it will become apparent at the earliest on
    // the next run of the corresponding tool."
    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    // Typo the name of a [mysqldump] directive.
    let query: NodeQuery = "//section[@name='mysqldump']/directive[@name='quick']"
        .parse()
        .expect("query");
    let tree = campaign.baseline().get("my.cnf").expect("my.cnf");
    let path = query
        .select(tree)
        .into_iter()
        .next()
        .expect("quick directive");
    let faults = vec![GeneratedFault::Scenario(FaultScenario {
        id: "latent".into(),
        description: "typo in [mysqldump] quick".into(),
        class: ErrorClass::Typo(TypoKind::Transposition),
        edits: vec![TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path,
            key: "name".into(),
            value: "qiuck".into(),
        }],
    })];
    let profile = campaign.run_faults(faults).expect("run");
    // The daemon starts and the admin smoke test passes.
    assert!(
        matches!(
            profile.outcomes()[0].result,
            InjectionResult::Undetected { .. }
        ),
        "{:?}",
        profile.outcomes()[0].result
    );
    drop(campaign);
    // But the backup tool, run later, trips over it.
    let configs = conferr_sut::default_configs(&sut);
    let mut broken = configs.clone();
    *broken.get_mut("my.cnf").expect("my.cnf") = broken["my.cnf"].replace("quick", "qiuck");
    assert!(sut
        .start(&ConfigPayload::from_texts(&broken), &Deadline::unlimited())
        .is_running());
    let tool = sut.run_test("mysqldump-tool", &Deadline::unlimited());
    assert!(!tool.passed(), "the tool must surface the latent error");
}

// ---------------------------------------------------------------------------
// Apache findings (§5.2)
// ---------------------------------------------------------------------------

#[test]
fn apache_accepts_freeform_mime_types() {
    // "directives related to MIME types (AddType and DefaultType)
    // should take values in the format type/subtype ... Apache,
    // however, accepts freeform strings instead."
    let mut sut = ApacheSim::new();
    let result = inject_value(&mut sut, "DefaultType", "textplain");
    assert!(
        matches!(result, InjectionResult::Undetected { .. }),
        "freeform MIME type must be accepted: {result}"
    );
}

#[test]
fn apache_accepts_freeform_server_admin() {
    // "according to the manual, [ServerAdmin] should take a URL or an
    // email address; ... freeform strings are readily accepted here."
    let mut sut = ApacheSim::new();
    let result = inject_value(&mut sut, "ServerAdmin", "not an email at all");
    assert!(
        matches!(result, InjectionResult::Undetected { .. }),
        "{result}"
    );
}

#[test]
fn apache_accepts_freeform_server_name() {
    // "ServerName should only accept DNS host names, but instead
    // accepts anything."
    let mut sut = ApacheSim::new();
    let result = inject_value(&mut sut, "ServerName", "definitely not a hostname!");
    assert!(
        matches!(result, InjectionResult::Undetected { .. }),
        "{result}"
    );
}

#[test]
fn apache_listen_port_typo_caught_only_by_functional_test() {
    // "typos in listening ports ... is why 5% of Apache errors were
    // caught by functional tests."
    let mut sut = ApacheSim::new();
    let result = inject_value(&mut sut, "Listen", "81");
    assert!(
        matches!(result, InjectionResult::DetectedByFunctionalTest { .. }),
        "valid-but-wrong port must slip past startup: {result}"
    );
}

// ---------------------------------------------------------------------------
// Postgres findings (§5.2)
// ---------------------------------------------------------------------------

#[test]
fn postgres_enforces_fsm_cross_directive_constraint() {
    // "a typo injected in the max_fsm_pages directive (replacing
    // 153600 with 15600) caused Postgres to immediately shutdown with
    // an error message explaining that max_fsm_pages must be at least
    // 16 × max_fsm_relations."
    let mut sut = PostgresSim::new();
    let result = inject_value(&mut sut, "max_fsm_pages", "15600");
    match result {
        InjectionResult::DetectedAtStartup { diagnostic } => {
            assert!(
                diagnostic.contains("16 * max_fsm_relations"),
                "the diagnostic must explain the constraint: {diagnostic}"
            );
        }
        other => panic!("constraint violation must stop startup: {other}"),
    }
}

#[test]
fn postgres_rejects_unknown_parameters_fatally() {
    let mut sut = PostgresSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let tree = campaign.baseline().get("postgresql.conf").expect("conf");
    let query: NodeQuery = "//directive[@name='port']".parse().expect("query");
    let path: TreePath = query.select(tree).into_iter().next().expect("port");
    let faults = vec![GeneratedFault::Scenario(FaultScenario {
        id: "unknown".into(),
        description: "typo in parameter name".into(),
        class: ErrorClass::Typo(TypoKind::Insertion),
        edits: vec![TreeEdit::SetAttr {
            file: "postgresql.conf".into(),
            path,
            key: "name".into(),
            value: "porrt".into(),
        }],
    })];
    let profile = campaign.run_faults(faults).expect("run");
    assert!(
        matches!(
            profile.outcomes()[0].result,
            InjectionResult::DetectedAtStartup { .. }
        ),
        "{:?}",
        profile.outcomes()[0].result
    );
}

#[test]
fn databases_detect_boolean_typos() {
    // §5.5: "neither Postgres nor MySQL accept typos in directives
    // with boolean values" — the reason booleans are excluded from the
    // comparison benchmark.
    let mut pg = PostgresSim::new();
    let mut configs = conferr_sut::default_configs(&pg);
    configs
        .get_mut("postgresql.conf")
        .expect("conf")
        .push_str("autovacuum = onn\n");
    assert!(!pg
        .start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited())
        .is_running());

    let mut my = MySqlSim::new();
    let mut configs = conferr_sut::default_configs(&my);
    *configs.get_mut("my.cnf").expect("cnf") =
        configs["my.cnf"].replace("skip-external-locking", "skip-external-locking=VES");
    assert!(!my
        .start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited())
        .is_running());
}

//! Benchmark harness regenerating every table and figure of the
//! ConfErr paper's evaluation (§5).
//!
//! # Architecture
//!
//! This crate is the *evaluation layer*, the sink of the workspace DAG
//! `tree → {keyboard, formats, model} → {plugins, sut} → core → bench`:
//! it composes generators, simulators and the campaign drivers into
//! the paper's experiments and the campaign gate harness
//! (`bench_campaign` → `BENCH_campaign.json`).
//!
//! Every artifact function runs on a caller-provided
//! [`CampaignExecutor`]; its results are identical at every thread
//! count, and `CampaignExecutor::new(1)` runs the same serial loop as
//! a plain [`Campaign`](conferr::Campaign).
//!
//! | Artifact | Function | Binary |
//! |----------|----------|--------|
//! | Table 1 — resilience to typos | [`table1`] | `cargo run -p conferr-bench --bin table1` |
//! | Table 2 — resilience to structural errors | [`table2`] | `cargo run -p conferr-bench --bin table2` |
//! | Table 3 — resilience to semantic errors | [`table3`] | `cargo run -p conferr-bench --bin table3` |
//! | Figure 3 — MySQL vs Postgres value-typo resilience | [`figure3`] | `cargo run -p conferr-bench --bin fig3` |
//! | §5.1 ablations — keyboard-aware typos, class-structured sampling | [`all_typos`], [`table1_faultload`] | `cargo test --test paper_findings` |
//!
//! Absolute counts differ from the paper (our default configurations
//! are faithful in structure but not byte-identical to the 2008
//! distribution tarballs, and our per-injection cost is microseconds
//! rather than seconds); the *shape* — who detects what, where the
//! bands fall, which faults are inexpressible — is the reproduction
//! target. The README's "Paper artifacts" table lists every artifact
//! with the paper section it reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::sync::LazyLock;

use conferr::{
    default_threads, sut_factory, value_typo_resilience, CampaignBatch, CampaignError,
    CampaignExecutor, ComparisonReport, ExecutorCampaign, InjectionResult, ProfileSummary,
    ResilienceProfile, SutFactory,
};
use conferr_keyboard::Keyboard;
use conferr_model::{
    ConfigSet, ErrorClass, ErrorGenerator, FaultScenario, GeneratedFault, StructuralKind, TreeEdit,
    TypoKind,
};
use conferr_plugins::{
    typos_of_kind, DnsFaultKind, DnsSemanticPlugin, VariationClass, VariationPlugin,
};
use conferr_sut::{ApacheSim, BindSim, ConfigPayload, DjbdnsSim, FileText, MySqlSim, PostgresSim};
use conferr_tree::{Node, NodeQuery, TreePath};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Typo variants sampled per selected directive in the Table 1
/// protocol (the paper's totals imply roughly this many per
/// directive).
const TYPOS_PER_DIRECTIVE: usize = 6;

/// Directives sampled per configuration file for name typos and for
/// value typos (paper §5.2: "randomly select 10 directives and
/// introduce a typo in each one's name"; Apache's 120-injection total
/// shows the selection was per file, not per nested block).
const DIRECTIVES_PER_FILE: usize = 10;

/// The default deterministic seed used by all bench binaries. Chosen
/// (like any published run) so the §5.2 value samples include the
/// listening-port directives whose typos only functional tests catch.
pub const DEFAULT_SEED: u64 = 1912; // RFC 1912, the DNS error catalogue.

/// Worker-thread count for the paper binaries: the `CONFERR_THREADS`
/// environment variable when set (and positive), the machine's
/// available parallelism otherwise. An environment variable rather
/// than a positional argument keeps the binaries' `[seed]` CLI stable
/// (and lets `paper_all` forward one seed to every sibling).
pub fn threads_from_env() -> usize {
    std::env::var("CONFERR_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(default_threads)
}

/// A lazily enumerated fault space of at least `target` faults built
/// from one eager base load: the base crossed with itself twice
/// (every ordered triple, combined into one 3-edit compound
/// scenario), thinned by a seeded 90% sample, capped at `target`.
/// Memory is O(|base|) however large `target` is — this is the
/// source behind `bench_campaign`'s million-fault bounded-memory
/// smoke run. Deterministic for a fixed base (same faults, same
/// order, any chunking).
pub fn million_fault_source(
    base: Vec<GeneratedFault>,
    target: usize,
) -> impl conferr_model::FaultSource + Send {
    use conferr_model::{EagerSource, FaultSourceExt};
    EagerSource::new(base.clone())
        .product(EagerSource::new(base.clone()))
        .product(EagerSource::new(base))
        .sample(DEFAULT_SEED, 0.9)
        .take(target)
}

/// All five typo submodels applied to one token, concatenated.
pub fn all_typos(keyboard: &Keyboard, token: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for kind in [
        TypoKind::Omission,
        TypoKind::Insertion,
        TypoKind::Substitution,
        TypoKind::CaseAlteration,
        TypoKind::Transposition,
    ] {
        out.extend(typos_of_kind(keyboard, kind, token));
    }
    out
}

/// Builds the paper's §5.2 fault load: deletion of every directive,
/// plus sampled typos in directive names and values (10 directives per
/// file for each, 6 seeded variants per selected directive).
pub fn table1_faultload(set: &ConfigSet, keyboard: &Keyboard, seed: u64) -> Vec<GeneratedFault> {
    /// `//directive`, parsed once per process.
    static DIRECTIVE: LazyLock<NodeQuery> =
        LazyLock::new(|| "//directive".parse().expect("static query"));
    let query: &NodeQuery = &DIRECTIVE;
    let mut out = Vec::new();
    // (a) Deletion of entire directives.
    for (file, tree) in set.iter() {
        for (path, node) in query.select_nodes(tree) {
            out.push(GeneratedFault::Scenario(FaultScenario {
                id: format!("t1-delete:{file}:{path}"),
                description: format!("omit directive {}", node.describe()),
                class: ErrorClass::Structural(StructuralKind::DirectiveOmission),
                edits: vec![TreeEdit::Delete {
                    file: file.to_string(),
                    path,
                }],
            }));
        }
    }
    // (b)+(c) Typos in names and values of sampled directives.
    for (file_idx, (file, tree)) in set.iter().enumerate() {
        let directives: Vec<(TreePath, &Node)> = query.select_nodes(tree);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(file_idx as u64));

        let mut name_targets = directives.clone();
        name_targets.shuffle(&mut rng);
        name_targets.truncate(DIRECTIVES_PER_FILE);
        for (path, node) in name_targets {
            let Some(name) = node.attr("name") else {
                continue;
            };
            let mut variants = all_typos(keyboard, name);
            variants.shuffle(&mut rng);
            variants.truncate(TYPOS_PER_DIRECTIVE);
            for (v, (mutated, label)) in variants.into_iter().enumerate() {
                out.push(GeneratedFault::Scenario(FaultScenario {
                    id: format!("t1-name:{file}:{path}#{v}"),
                    description: format!("name typo: {label}"),
                    class: ErrorClass::Typo(TypoKind::Substitution),
                    edits: vec![TreeEdit::SetAttr {
                        file: file.to_string(),
                        path: path.clone(),
                        key: "name".to_string(),
                        value: mutated,
                    }],
                }));
            }
        }

        let mut value_targets: Vec<(TreePath, &Node)> = directives
            .into_iter()
            .filter(|(_, n)| n.text().is_some_and(|t| !t.is_empty()))
            .collect();
        value_targets.shuffle(&mut rng);
        value_targets.truncate(DIRECTIVES_PER_FILE);
        for (path, node) in value_targets {
            let value = node.text().expect("filtered above");
            let mut variants = all_typos(keyboard, value);
            variants.shuffle(&mut rng);
            variants.truncate(TYPOS_PER_DIRECTIVE);
            for (v, (mutated, label)) in variants.into_iter().enumerate() {
                out.push(GeneratedFault::Scenario(FaultScenario {
                    id: format!("t1-value:{file}:{path}#{v}"),
                    description: format!("value typo: {label}"),
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

/// The three `(label, factory)` pairs of the Table 1 / Table 2
/// systems, in column order.
fn table12_factories() -> [(&'static str, SutFactory); 3] {
    [
        ("MySQL", sut_factory(MySqlSim::new)),
        ("Postgres", sut_factory(PostgresSim::new)),
        ("Apache", sut_factory(ApacheSim::new)),
    ]
}

/// The full Table 1 — MySQL, Postgres and Apache columns of the §5.2
/// protocol — scheduled on `executor` as **one batch across all three
/// systems**: every system is its own batch entry, and a worker done
/// with MySQL's faults immediately steals Postgres or Apache work.
/// The numbers are identical at every thread count.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn table1(
    executor: &CampaignExecutor,
    seed: u64,
) -> Result<Vec<(String, ProfileSummary)>, CampaignError> {
    let keyboard = Keyboard::qwerty_us();
    let mut batch = CampaignBatch::new();
    let mut labels = Vec::new();
    for (label, factory) in table12_factories() {
        let campaign = ExecutorCampaign::new(factory)?;
        let faults = table1_faultload(campaign.baseline(), &keyboard, seed);
        batch.push(&campaign, faults);
        labels.push(label.to_string());
    }
    let profiles = executor.run_batch(batch)?;
    Ok(labels
        .into_iter()
        .zip(profiles)
        .map(|(label, profile)| (label, profile.summary()))
        .collect())
}

/// One cell of Table 2: `Some(true)` = all variants accepted,
/// `Some(false)` = at least one rejected, `None` = not applicable.
pub type Table2Cell = Option<bool>;

/// The Table 2 matrix: for each variation class, the verdict per
/// system, plus the "% of assumptions satisfied" row.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// System names, in column order.
    pub systems: Vec<String>,
    /// `(row label, cells)` in Table 2 row order.
    pub rows: Vec<(String, Vec<Table2Cell>)>,
}

impl Table2 {
    /// The `% of assumptions satisfied` bottom row.
    pub fn satisfied_percentages(&self) -> Vec<f64> {
        (0..self.systems.len())
            .map(|col| {
                let applicable: Vec<bool> = self
                    .rows
                    .iter()
                    .filter_map(|(_, cells)| cells[col])
                    .collect();
                if applicable.is_empty() {
                    0.0
                } else {
                    applicable.iter().filter(|b| **b).count() as f64 * 100.0
                        / applicable.len() as f64
                }
            })
            .collect()
    }
}

/// Runs the §5.3 accepted-variations experiment (10 variant files per
/// class per system) and builds Table 2, as **one executor batch**:
/// every applicable (class, system) cell becomes a batch entry — 14
/// small campaigns in one submission, workers stealing across them —
/// with the three systems' engines shared across their five cells
/// each. This is the many-small-campaign workload the persistent pool
/// exists for; the verdicts are identical at every thread count.
///
/// Apache's section order is reported n/a, as in the paper: the order
/// of Apache's containers has defined semantics (the first matching
/// `VirtualHost` is the default), so reordering is not a neutral
/// variation there.
///
/// # Errors
///
/// Propagates the first per-cell campaign failure.
pub fn table2(executor: &CampaignExecutor, seed: u64) -> Result<Table2, CampaignError> {
    let classes = VariationClass::ALL;
    let factories = table12_factories();
    let campaigns = factories
        .iter()
        .map(|(_, factory)| ExecutorCampaign::new(factory.clone()))
        .collect::<Result<Vec<_>, _>>()?;

    // Cells in row-major order; the Apache section-order cell is n/a
    // by construction, classes with no generatable variants are n/a
    // too — neither is scheduled.
    let mut rows: Vec<(String, Vec<Table2Cell>)> = classes
        .iter()
        .map(|class| (class.label().to_string(), vec![None; factories.len()]))
        .collect();
    let mut batch = CampaignBatch::new();
    let mut scheduled: Vec<(usize, usize)> = Vec::new();
    for (row, class) in classes.iter().enumerate() {
        for (col, campaign) in campaigns.iter().enumerate() {
            if factories[col].0 == "Apache" && *class == VariationClass::SectionOrder {
                continue;
            }
            let plugin = VariationPlugin::new(*class, 10, seed);
            let faults = plugin.generate(campaign.baseline())?;
            if faults.is_empty() {
                continue;
            }
            batch.push(campaign, faults);
            scheduled.push((row, col));
        }
    }
    let profiles = executor.run_batch(batch)?;
    for ((row, col), profile) in scheduled.into_iter().zip(profiles) {
        let accepted = profile
            .outcomes()
            .iter()
            .all(|o| matches!(o.result, InjectionResult::Undetected { .. }));
        rows[row].1[col] = Some(accepted);
    }
    Ok(Table2 {
        systems: factories.iter().map(|(s, _)| s.to_string()).collect(),
        rows,
    })
}

/// One Table 3 verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table3Verdict {
    /// The system detected the fault (refused to load).
    Found,
    /// The fault was injected and went undetected.
    NotFound,
    /// The fault could not be expressed in the configuration format.
    NotApplicable,
}

impl Table3Verdict {
    /// The cell text used in the paper's Table 3.
    pub fn label(self) -> &'static str {
        match self {
            Table3Verdict::Found => "found",
            Table3Verdict::NotFound => "not found",
            Table3Verdict::NotApplicable => "N/A",
        }
    }
}

/// The Table 3 matrix: RFC-1912 fault classes × (BIND, djbdns).
#[derive(Debug, Clone)]
pub struct Table3 {
    /// `(row number, fault description, bind verdict, djbdns verdict)`.
    pub rows: Vec<(usize, String, Table3Verdict, Table3Verdict)>,
}

/// Runs the §5.4 semantic-error experiment and builds Table 3. Both
/// name servers' semantic fault loads go into **one batch** on
/// `executor`, so workers steal across BIND and djbdns instead of
/// idling at a per-system barrier. The verdicts are identical at
/// every thread count.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn table3(executor: &CampaignExecutor) -> Result<Table3, CampaignError> {
    let kinds = DnsFaultKind::TABLE3;
    let mut batch = CampaignBatch::new();
    for (factory, plugin) in [
        (sut_factory(BindSim::new), DnsSemanticPlugin::bind()),
        (sut_factory(DjbdnsSim::new), DnsSemanticPlugin::tinydns()),
    ] {
        let campaign = ExecutorCampaign::new(factory)?;
        let faults = plugin.generate(campaign.baseline())?;
        batch.push(&campaign, faults);
    }
    let profiles = executor.run_batch(batch)?;
    let verdicts = |profile: &ResilienceProfile| -> Vec<Table3Verdict> {
        kinds
            .iter()
            .map(|kind| rule_verdict(profile, kind.rule()))
            .collect()
    };
    let bind_verdicts = verdicts(&profiles[0]);
    let djb_verdicts = verdicts(&profiles[1]);
    Ok(Table3 {
        rows: kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                (
                    i + 1,
                    kind.description().to_string(),
                    bind_verdicts[i],
                    djb_verdicts[i],
                )
            })
            .collect(),
    })
}

fn rule_verdict(profile: &ResilienceProfile, rule: &str) -> Table3Verdict {
    let outcomes: Vec<&InjectionResult> = profile
        .outcomes()
        .iter()
        .filter(|o| matches!(&o.class, ErrorClass::Semantic { rule: r, .. } if r == rule))
        .map(|o| &o.result)
        .collect();
    if outcomes.is_empty()
        || outcomes
            .iter()
            .all(|r| matches!(r, InjectionResult::Inexpressible { .. }))
    {
        return Table3Verdict::NotApplicable;
    }
    let injected: Vec<&&InjectionResult> = outcomes
        .iter()
        .filter(|r| !matches!(r, InjectionResult::Inexpressible { .. }))
        .collect();
    if injected.iter().all(|r| r.detected()) {
        Table3Verdict::Found
    } else {
        Table3Verdict::NotFound
    }
}

/// The §5.5 full-coverage Postgres configuration as a startup payload.
fn postgres_full_coverage_payload() -> ConfigPayload {
    let mut configs = ConfigPayload::new();
    configs.insert(
        "postgresql.conf",
        FileText::mutated(PostgresSim::full_coverage_config()),
    );
    configs
}

/// The §5.5 full-coverage MySQL configuration as a startup payload.
fn mysql_full_coverage_payload() -> ConfigPayload {
    let mut configs = ConfigPayload::new();
    configs.insert(
        "my.cnf",
        FileText::mutated(MySqlSim::full_coverage_config()),
    );
    configs
}

/// Runs the §5.5 comparison (Figure 3): MySQL vs Postgres, 20
/// value-typo experiments per directive over full-coverage
/// configurations, booleans excluded. Each system runs through the
/// batched comparison runner ([`value_typo_resilience`]) on the same
/// persistent executor — the second comparison reuses the workers
/// (and their SUT instances) the first one warmed up. Per-directive
/// seeding depends only on the directive index, so the numbers are
/// identical at every thread count.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn figure3(executor: &CampaignExecutor, seed: u64) -> Result<ComparisonReport, CampaignError> {
    let keyboard = Keyboard::qwerty_us();
    let mutator = move |value: &str| all_typos(&keyboard, value);

    let systems = vec![
        value_typo_resilience(
            sut_factory(PostgresSim::new),
            &postgres_full_coverage_payload(),
            &mutator,
            20,
            seed,
            &PostgresSim::boolean_directive_names(),
            executor,
        )?,
        value_typo_resilience(
            sut_factory(MySqlSim::new),
            &mysql_full_coverage_payload(),
            &mutator,
            20,
            seed,
            &MySqlSim::boolean_directive_names(),
            executor,
        )?,
    ];
    Ok(ComparisonReport { systems })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every paper golden runs on the executor's serial loop and on
    /// its pool.
    const THREADS: [usize; 2] = [1, 4];

    #[test]
    fn table1_shape_matches_the_paper() {
        let [columns, pooled] =
            THREADS.map(|threads| table1(&CampaignExecutor::new(threads), DEFAULT_SEED).unwrap());
        assert_eq!(
            columns, pooled,
            "Table 1 must not depend on the thread count"
        );
        let get = |name: &str| {
            columns
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap()
        };
        let mysql = get("MySQL");
        let postgres = get("Postgres");
        let apache = get("Apache");
        for (name, s) in &columns {
            assert!(s.injected() > 20, "{name} only injected {}", s.injected());
            assert_eq!(s.skipped, 0, "{name} skipped injections");
        }
        // Databases detect most typos at startup; Apache detects far
        // fewer and ignores the most (Table 1's shape).
        assert!(
            postgres.pct(postgres.detected_at_startup) > 65.0,
            "{postgres:?}"
        );
        assert!(
            mysql.pct(mysql.detected_at_startup) > apache.pct(apache.detected_at_startup) + 10.0,
            "mysql must detect clearly more at startup: {mysql:?} vs {apache:?}"
        );
        assert!(
            postgres.pct(postgres.detected_at_startup)
                > apache.pct(apache.detected_at_startup) + 10.0,
            "postgres must detect clearly more at startup: {postgres:?} vs {apache:?}"
        );
        assert!(
            apache.pct(apache.undetected) > mysql.pct(mysql.undetected) + 10.0,
            "apache must ignore clearly more: {apache:?} vs {mysql:?}"
        );
        // Functional tests add only a sliver of detection (§5.2):
        // none for Postgres (socket-based probe), a few for the
        // listening ports of MySQL and Apache.
        assert_eq!(postgres.detected_by_tests, 0, "{postgres:?}");
        assert!(apache.detected_by_tests > 0, "{apache:?}");
        assert!(mysql.detected_by_tests > 0, "{mysql:?}");
        assert!(
            apache.pct(apache.detected_by_tests) < 10.0,
            "functional detection stays a sliver: {apache:?}"
        );
    }

    #[test]
    fn table2_matches_the_paper() {
        for threads in THREADS {
            let t = table2(&CampaignExecutor::new(threads), DEFAULT_SEED).unwrap();
            let row = |label: &str| {
                t.rows
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, cells)| cells.clone())
                    .unwrap()
            };
            // Columns: MySQL, Postgres, Apache.
            assert_eq!(row("Order of sections"), vec![Some(true), None, None]);
            assert_eq!(
                row("Order of directives"),
                vec![Some(true), Some(true), Some(true)]
            );
            assert_eq!(
                row("Spaces near separators"),
                vec![Some(true), Some(true), Some(true)]
            );
            assert_eq!(
                row("Mixed-case directive names"),
                vec![Some(false), Some(true), Some(true)]
            );
            assert_eq!(
                row("Truncatable directive names"),
                vec![Some(true), Some(false), Some(false)]
            );
            let pct = t.satisfied_percentages();
            assert!(
                (pct[0] - 80.0).abs() < 1e-9,
                "MySQL {pct:?} ({threads} threads)"
            );
            assert!(
                (pct[1] - 75.0).abs() < 1e-9,
                "Postgres {pct:?} ({threads} threads)"
            );
            assert!(
                (pct[2] - 75.0).abs() < 1e-9,
                "Apache {pct:?} ({threads} threads)"
            );
        }
    }

    #[test]
    fn table3_matches_the_paper() {
        for threads in THREADS {
            let t = table3(&CampaignExecutor::new(threads)).unwrap();
            let verdicts: Vec<(Table3Verdict, Table3Verdict)> =
                t.rows.iter().map(|(_, _, b, d)| (*b, *d)).collect();
            assert_eq!(
                verdicts,
                [
                    // Missing PTR; PTR to CNAME.
                    (Table3Verdict::NotFound, Table3Verdict::NotApplicable),
                    (Table3Verdict::NotFound, Table3Verdict::NotApplicable),
                    // NS+CNAME dup; MX to CNAME.
                    (Table3Verdict::Found, Table3Verdict::NotFound),
                    (Table3Verdict::Found, Table3Verdict::NotFound),
                ],
                "{threads} threads"
            );
        }
    }

    #[test]
    fn figure3_postgres_beats_mysql() {
        let [report, pooled] =
            THREADS.map(|threads| figure3(&CampaignExecutor::new(threads), DEFAULT_SEED).unwrap());
        assert_eq!(
            report, pooled,
            "Figure 3 must not depend on the thread count"
        );
        assert_eq!(report.systems.len(), 2);
        let postgres = &report.systems[0];
        let mysql = &report.systems[1];
        assert!(postgres.system.contains("postgres"));
        assert!(
            postgres.mean_detection_pct() > mysql.mean_detection_pct() + 20.0,
            "postgres {:.1}% vs mysql {:.1}%",
            postgres.mean_detection_pct(),
            mysql.mean_detection_pct()
        );
        // MySQL's modal band is Poor (the paper: MySQL detected <25%
        // of typos in ~45% of its directives); Postgres' Excellent
        // share dwarfs MySQL's (the paper: >75% detection in ~45% of
        // directives).
        let m = mysql.band_percentages();
        let p = postgres.band_percentages();
        let mysql_poor = m[0];
        assert!(
            mysql_poor >= m[1] && mysql_poor >= m[2] && mysql_poor >= m[3],
            "Poor must be MySQL's modal band: {m:?}"
        );
        assert!(mysql_poor > 35.0, "{m:?}");
        assert!(
            p[3] > m[3] + 15.0,
            "postgres Excellent share: {p:?} vs {m:?}"
        );
        assert!(
            p[0] < m[0],
            "postgres Poor share must be smaller: {p:?} vs {m:?}"
        );
    }
}

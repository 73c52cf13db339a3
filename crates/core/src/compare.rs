//! Comparing error resilience across systems (paper §5.5, Figure 3).
//!
//! The comparison procedure simulates the configuration process many
//! times: for every directive of a full-coverage configuration it runs
//! `k` experiments, each injecting one typo into that directive's
//! value, and measures the fraction the system detects. Per-directive
//! detection rates are then binned into the paper's four bands — poor
//! (0–25%), fair (25–50%), good (50–75%), excellent (75–100%) — whose
//! distribution is Figure 3.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::LazyLock;

use conferr_model::{ConfigSet, ErrorClass, FaultScenario, GeneratedFault, TreeEdit, TypoKind};
use conferr_sut::ConfigPayload;
use conferr_tree::{NodeQuery, TreePath};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::executor::{CampaignBatch, CampaignExecutor, ExecutorCampaign, SutFactory};
use crate::CampaignError;

/// The four detection-rate bands of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DetectionBand {
    /// 0–25% of typos detected.
    Poor,
    /// 25–50%.
    Fair,
    /// 50–75%.
    Good,
    /// 75–100%.
    Excellent,
}

impl DetectionBand {
    /// All bands in ascending order.
    pub const ALL: [DetectionBand; 4] = [
        DetectionBand::Poor,
        DetectionBand::Fair,
        DetectionBand::Good,
        DetectionBand::Excellent,
    ];

    /// Classifies a percentage (0–100).
    pub fn of(pct: f64) -> Self {
        if pct < 25.0 {
            DetectionBand::Poor
        } else if pct < 50.0 {
            DetectionBand::Fair
        } else if pct < 75.0 {
            DetectionBand::Good
        } else {
            DetectionBand::Excellent
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DetectionBand::Poor => "Poor",
            DetectionBand::Fair => "Fair",
            DetectionBand::Good => "Good",
            DetectionBand::Excellent => "Excellent",
        }
    }
}

impl fmt::Display for DetectionBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Detection statistics for one directive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectiveResilience {
    /// Directive name.
    pub directive: String,
    /// Experiments run (≤ the requested count when the value admits
    /// fewer distinct typos).
    pub experiments: usize,
    /// Experiments in which the system detected the typo.
    pub detected: usize,
}

impl DirectiveResilience {
    /// Detection percentage (0–100).
    pub fn detection_pct(&self) -> f64 {
        if self.experiments == 0 {
            0.0
        } else {
            self.detected as f64 * 100.0 / self.experiments as f64
        }
    }

    /// The Figure 3 band for this directive.
    pub fn band(&self) -> DetectionBand {
        DetectionBand::of(self.detection_pct())
    }
}

/// Per-system result of the §5.5 procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemResilience {
    /// System name.
    pub system: String,
    /// Per-directive statistics, in configuration order.
    pub directives: Vec<DirectiveResilience>,
}

impl SystemResilience {
    /// Number of directives in each band.
    pub fn band_histogram(&self) -> BTreeMap<DetectionBand, usize> {
        let mut map: BTreeMap<DetectionBand, usize> =
            DetectionBand::ALL.iter().map(|b| (*b, 0)).collect();
        for d in &self.directives {
            *map.entry(d.band()).or_default() += 1;
        }
        map
    }

    /// Percentage of directives in each band, in
    /// [`DetectionBand::ALL`] order — the stacked bars of Figure 3.
    pub fn band_percentages(&self) -> [f64; 4] {
        let hist = self.band_histogram();
        let total = self.directives.len().max(1) as f64;
        let mut out = [0.0; 4];
        for (i, band) in DetectionBand::ALL.iter().enumerate() {
            out[i] = *hist.get(band).unwrap_or(&0) as f64 * 100.0 / total;
        }
        out
    }

    /// Mean per-directive detection rate.
    pub fn mean_detection_pct(&self) -> f64 {
        if self.directives.is_empty() {
            return 0.0;
        }
        self.directives
            .iter()
            .map(DirectiveResilience::detection_pct)
            .sum::<f64>()
            / self.directives.len() as f64
    }
}

/// Side-by-side comparison of several systems — the data behind
/// Figure 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// The compared systems.
    pub systems: Vec<SystemResilience>,
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>10} {:>8} {:>8} {:>8} {:>10}",
            "system", "directives", "Poor%", "Fair%", "Good%", "Excellent%"
        )?;
        for s in &self.systems {
            let p = s.band_percentages();
            writeln!(
                f,
                "{:<14} {:>10} {:>8.1} {:>8.1} {:>8.1} {:>10.1}",
                s.system,
                s.directives.len(),
                p[0],
                p[1],
                p[2],
                p[3]
            )?;
        }
        Ok(())
    }
}

/// Runs the §5.5 value-typo resilience procedure against one system
/// on `executor`.
///
/// * `factory` — builds the system's SUT instances;
/// * `configs` — the full-coverage configuration payload (every
///   directive with a default value, booleans excluded, as in the
///   paper); build one from plain text with
///   [`ConfigPayload::from_texts`];
/// * `mutator` — produces `(mutated_value, label)` typo candidates for
///   a value (typically all five typo submodels);
/// * `experiments_per_directive` — the paper ran 20;
/// * `skip_directives` — names to exclude (booleans, no-default).
///
/// The full-coverage configuration is parsed into **one** shared
/// engine, every directive's fault load becomes one [`CampaignBatch`]
/// entry against it, and the executor's workers steal directives off
/// the shared queue, reusing their cached SUT instances. Results are
/// identical at every thread count: the per-directive seeds depend
/// only on the directive's index.
///
/// # Errors
///
/// Propagates [`CampaignError`] from campaign construction.
pub fn value_typo_resilience(
    factory: SutFactory,
    configs: &ConfigPayload,
    mutator: &dyn Fn(&str) -> Vec<(String, String)>,
    experiments_per_directive: usize,
    seed: u64,
    skip_directives: &[&str],
    executor: &CampaignExecutor,
) -> Result<SystemResilience, CampaignError> {
    let campaign = ExecutorCampaign::with_payload(factory, configs)?;
    let system = campaign.system().to_string();
    let targets = enumerate_targets(campaign.baseline(), skip_directives);

    // One batch entry per directive, all sharing the campaign's
    // engine; the executor merges outcomes per entry, in fault order.
    let mut batch = CampaignBatch::new();
    let mut names = Vec::with_capacity(targets.len());
    for (idx, target) in targets.into_iter().enumerate() {
        names.push(target.2.clone());
        let faults = directive_faults(idx, target, mutator, experiments_per_directive, seed);
        batch.push(&campaign, faults);
    }
    let profiles = executor.run_batch(batch)?;

    let directives = names
        .into_iter()
        .zip(&profiles)
        .map(|(directive, profile)| {
            let summary = profile.summary();
            DirectiveResilience {
                directive,
                experiments: summary.total,
                detected: summary.detected_at_startup + summary.detected_by_tests,
            }
        })
        .collect();
    Ok(SystemResilience { system, directives })
}

/// One injection target: `(file, path, directive name, value)`.
type Target = (String, TreePath, String, String);

/// Enumerates every candidate directive of the full-coverage
/// configuration.
fn enumerate_targets(baseline: &ConfigSet, skip_directives: &[&str]) -> Vec<Target> {
    /// `//directive`, parsed once per process.
    static DIRECTIVE: LazyLock<NodeQuery> =
        LazyLock::new(|| "//directive".parse().expect("static query"));
    let mut targets = Vec::new();
    for (file, tree) in baseline.iter() {
        for (path, node) in DIRECTIVE.select_nodes(tree) {
            let Some(name) = node.attr("name") else {
                continue;
            };
            let Some(value) = node.text() else { continue };
            if value.is_empty() {
                continue;
            }
            if skip_directives.iter().any(|s| s.eq_ignore_ascii_case(name)) {
                continue;
            }
            targets.push((file.to_string(), path, name.to_string(), value.to_string()));
        }
    }
    targets
}

/// Builds the seeded typo fault load for one directive. Pure in
/// `(idx, target, seed)` — this is what makes the batched runner
/// bit-identical at every thread count: the faults depend only on the
/// directive's index, never on scheduling.
fn directive_faults(
    idx: usize,
    (file, path, name, value): Target,
    mutator: &dyn Fn(&str) -> Vec<(String, String)>,
    experiments_per_directive: usize,
    seed: u64,
) -> Vec<GeneratedFault> {
    let mut variants = mutator(&value);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(idx as u64));
    variants.shuffle(&mut rng);
    variants.truncate(experiments_per_directive);
    variants
        .into_iter()
        .enumerate()
        .map(|(v, (mutated, label))| {
            GeneratedFault::Scenario(FaultScenario {
                id: format!("cmp:{name}:{v}"),
                description: label,
                class: ErrorClass::Typo(TypoKind::Substitution),
                edits: vec![TreeEdit::SetText {
                    file: file.clone(),
                    path: path.clone(),
                    text: Some(mutated),
                }],
            })
        })
        .collect()
}

/// Restricts a [`SystemResilience`] to the directives relevant to one
/// administration task — the paper's §5.5 extension: "using
/// domain-specific knowledge, it is possible to define a subset of
/// directives that are relevant to the task of interest, and obtain a
/// more precise comparison of the task-specific resilience".
///
/// Directive names are matched case-insensitively; the returned
/// result's system name is suffixed with the task label.
pub fn task_resilience(
    full: &SystemResilience,
    task: &str,
    directives: &[&str],
) -> SystemResilience {
    SystemResilience {
        system: format!("{}[{task}]", full.system),
        directives: full
            .directives
            .iter()
            .filter(|d| {
                directives
                    .iter()
                    .any(|name| name.eq_ignore_ascii_case(&d.directive))
            })
            .cloned()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_boundaries_match_the_paper() {
        assert_eq!(DetectionBand::of(0.0), DetectionBand::Poor);
        assert_eq!(DetectionBand::of(24.9), DetectionBand::Poor);
        assert_eq!(DetectionBand::of(25.0), DetectionBand::Fair);
        assert_eq!(DetectionBand::of(49.9), DetectionBand::Fair);
        assert_eq!(DetectionBand::of(50.0), DetectionBand::Good);
        assert_eq!(DetectionBand::of(74.9), DetectionBand::Good);
        assert_eq!(DetectionBand::of(75.0), DetectionBand::Excellent);
        assert_eq!(DetectionBand::of(100.0), DetectionBand::Excellent);
    }

    #[test]
    fn directive_resilience_math() {
        let d = DirectiveResilience {
            directive: "port".into(),
            experiments: 20,
            detected: 16,
        };
        assert!((d.detection_pct() - 80.0).abs() < 1e-9);
        assert_eq!(d.band(), DetectionBand::Excellent);
        let empty = DirectiveResilience {
            directive: "x".into(),
            experiments: 0,
            detected: 0,
        };
        assert_eq!(empty.detection_pct(), 0.0);
    }

    #[test]
    fn histogram_and_percentages() {
        let s = SystemResilience {
            system: "s".into(),
            directives: vec![
                DirectiveResilience {
                    directive: "a".into(),
                    experiments: 10,
                    detected: 0,
                },
                DirectiveResilience {
                    directive: "b".into(),
                    experiments: 10,
                    detected: 3,
                },
                DirectiveResilience {
                    directive: "c".into(),
                    experiments: 10,
                    detected: 9,
                },
                DirectiveResilience {
                    directive: "d".into(),
                    experiments: 10,
                    detected: 10,
                },
            ],
        };
        let hist = s.band_histogram();
        assert_eq!(hist[&DetectionBand::Poor], 1);
        assert_eq!(hist[&DetectionBand::Fair], 1);
        assert_eq!(hist[&DetectionBand::Excellent], 2);
        let p = s.band_percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((s.mean_detection_pct() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn task_resilience_filters_and_labels() {
        let full = SystemResilience {
            system: "pg".into(),
            directives: vec![
                DirectiveResilience {
                    directive: "work_mem".into(),
                    experiments: 10,
                    detected: 9,
                },
                DirectiveResilience {
                    directive: "port".into(),
                    experiments: 10,
                    detected: 2,
                },
                DirectiveResilience {
                    directive: "shared_buffers".into(),
                    experiments: 10,
                    detected: 8,
                },
            ],
        };
        let memory = task_resilience(&full, "memory-tuning", &["WORK_MEM", "shared_buffers"]);
        assert_eq!(memory.system, "pg[memory-tuning]");
        assert_eq!(memory.directives.len(), 2);
        assert!(memory.mean_detection_pct() > full.mean_detection_pct());
        let none = task_resilience(&full, "net", &["listen_addresses"]);
        assert!(none.directives.is_empty());
    }

    #[test]
    fn report_renders_all_systems() {
        let report = ComparisonReport {
            systems: vec![
                SystemResilience {
                    system: "alpha".into(),
                    directives: vec![],
                },
                SystemResilience {
                    system: "beta".into(),
                    directives: vec![],
                },
            ],
        };
        let text = report.to_string();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("Excellent%"));
    }
}

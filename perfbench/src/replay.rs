//! The cold replay of the layers that run inside the engine.
//!
//! The engine prepares each fault behind two memos keyed by the edit
//! list: `FaultLinter::lint` (apply → serialize → parse → validate)
//! and its own apply → diff → serialize. The decorators cannot see
//! those calls, so this pass repeats them from outside, through the
//! same public functions, for every edit list the engine's memos
//! could not have served: each list's first sight since its engine was
//! built. A workload whose set-up already submitted its faults (the
//! warm rerun) replays nothing, because every fault-phase preparation
//! is a memo hit.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use conferr::{CampaignError, ExecutorCampaign};
use conferr_analysis::FaultLinter;
use conferr_formats::{format_by_name, ConfigFormat};
use conferr_model::{GeneratedFault, TreeEdit};
use conferr_sut::FileText;

use crate::workload::System;

/// The engine's cap on diff-summary lines per fault.
const MAX_DIFF_LINES: usize = 6;

/// Busy time of each replayed layer, over `faults` faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Faults the pass covered (replayed or served by a memo).
    pub faults: usize,
    /// `FaultLinter::lint` on a linter built for the pass.
    pub lint_ns: u64,
    /// `FaultScenario::apply` to the baseline.
    pub apply_ns: u64,
    /// `conferr_tree::diff` of every edited file, rendered as the
    /// engine's summary lines.
    pub diff_ns: u64,
    /// Serializing every edited file into a payload entry (the text
    /// plus its content identity, as the engine hands it to the SUT).
    pub serialize_ns: u64,
    /// Parsing every serialized file again.
    pub parse_ns: u64,
}

impl Replay {
    /// Adds another pass in.
    pub fn merge(&mut self, other: &Replay) {
        self.faults += other.faults;
        self.lint_ns += other.lint_ns;
        self.apply_ns += other.apply_ns;
        self.diff_ns += other.diff_ns;
        self.serialize_ns += other.serialize_ns;
        self.parse_ns += other.parse_ns;
    }

    /// Nanoseconds of the layers the engine runs per preparation
    /// (lint, apply, diff, serialize). The parse is left out: the
    /// linter and the SUT start already include theirs.
    pub fn preparation_ns(&self) -> u64 {
        self.lint_ns + self.apply_ns + self.diff_ns + self.serialize_ns
    }
}

/// Replays `entries` (one submission's faults per system). When
/// `warm` is set the engines saw every fault before the fault phase,
/// so only the faults are counted.
///
/// # Errors
///
/// When a system's baseline cannot be built.
pub fn replay(
    entries: &[(System, Vec<GeneratedFault>)],
    warm: bool,
) -> Result<Replay, CampaignError> {
    let mut out = Replay::default();
    for (system, faults) in entries {
        out.faults += faults.len();
        if warm {
            continue;
        }
        let scout = system.create();
        let baseline = ExecutorCampaign::new(system.factory(None))?
            .baseline()
            .clone();
        let formats: BTreeMap<String, Box<dyn ConfigFormat>> = scout
            .config_files()
            .into_iter()
            .filter_map(|spec| Some((spec.name, format_by_name(&spec.format)?)))
            .collect();
        let linter = scout
            .schema()
            .and_then(|schema| FaultLinter::new(schema, baseline.clone()).ok());
        let mut seen: HashSet<&[TreeEdit]> = HashSet::new();
        for fault in faults {
            let GeneratedFault::Scenario(scenario) = fault else {
                continue;
            };
            if !seen.insert(&scenario.edits) {
                continue;
            }
            let t0 = Instant::now();
            if let Some(linter) = &linter {
                black_box(linter.lint(&scenario.edits));
            }
            let t1 = Instant::now();
            let mutated = scenario.apply(&baseline);
            let t2 = Instant::now();
            out.lint_ns += nanos(t0, t1);
            out.apply_ns += nanos(t1, t2);
            let Ok(mutated) = mutated else {
                continue;
            };
            let edited: Vec<(&str, &Arc<conferr_tree::ConfTree>)> = mutated
                .iter_arcs()
                .filter(|(file, tree)| {
                    baseline
                        .get_arc(file)
                        .is_none_or(|original| !Arc::ptr_eq(original, tree))
                })
                .collect();

            let t3 = Instant::now();
            let mut lines = Vec::new();
            'files: for (file, tree) in &edited {
                let Some(original) = baseline.get_arc(file) else {
                    continue;
                };
                for op in conferr_tree::diff(original, tree) {
                    if lines.len() >= MAX_DIFF_LINES {
                        lines.push("...".to_string());
                        break 'files;
                    }
                    lines.push(format!("{file}: {op}"));
                }
            }
            black_box(lines);
            let t4 = Instant::now();
            let texts: Vec<(&str, FileText)> = edited
                .iter()
                .filter_map(|(file, tree)| {
                    let text = formats.get(*file)?.serialize(tree).ok()?;
                    Some((*file, FileText::mutated(text)))
                })
                .collect();
            let t5 = Instant::now();
            for (file, text) in &texts {
                black_box(formats[*file].parse(text.text()).ok());
            }
            let t6 = Instant::now();
            out.diff_ns += nanos(t3, t4);
            out.serialize_ns += nanos(t4, t5);
            out.parse_ns += nanos(t5, t6);
        }
    }
    Ok(out)
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

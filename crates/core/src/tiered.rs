//! Tier mixing: simulated triage feeding process-tier confirmation.
//!
//! The simulators are the fast tier — thousands of faults per second,
//! but every verdict is a claim about the model. A process-backed
//! adapter (the `conferr-proc` crate) is the slow, *actual* tier —
//! each start spawns, supervises and reaps a real child process. Tier
//! mixing runs one fault load through both so the expensive tier only
//! pays for the faults worth confirming: the whole load triages on
//! the simulator campaign, then the **interesting** subset — faults
//! the static linter could not decide, plus every failed-to-start
//! candidate — replays on the confirmation campaign. Each
//! [`crate::InjectionOutcome`] carries its [`conferr_sut::Tier`], so
//! the merged evidence stays auditable row by row.
//!
//! The default notion of "interesting" is
//! [`confirmation_candidate`]; [`CampaignExecutor::run_tiered_with`]
//! accepts any other selector.
//!
//! Static triage (the engine-level fast path,
//! [`crate::InjectionEngine::set_static_triage`]) composes freely with
//! tier mixing: the knob rides on each campaign's engine, so enabling
//! it on the simulator-tier campaign synthesizes the statically-decided
//! outcomes there without a start, while the process-tier
//! confirmation campaign — whose SUTs are not [`conferr_sut::Tier::Sim`]
//! — never takes the shortcut, by the gates documented on that
//! method. Selection is unaffected either way: synthesized outcomes
//! are byte-identical to dynamic ones, so the funnel forwards the
//! same subset.

use conferr_model::GeneratedFault;

use crate::{
    CampaignError, CampaignExecutor, ExecutorCampaign, InjectionOutcome, InjectionResult,
    ResilienceProfile, StaticVerdict,
};

/// What one triage → confirm run produced: both profiles plus the
/// funnel (how many faults the triage tier forwarded).
#[derive(Debug)]
pub struct TieredRunReport {
    /// The full fault load's profile on the triage (simulator) tier.
    pub triage: ResilienceProfile,
    /// The selected subset's profile on the confirmation tier, in
    /// triage order. Empty when nothing was selected.
    pub confirm: ResilienceProfile,
    /// How many faults the selector forwarded for confirmation
    /// (equals `confirm.len()` unless the confirmation run dropped
    /// rows, which the executor never does).
    pub selected: usize,
}

impl TieredRunReport {
    /// The triage → confirm funnel ratio: selected faults over triaged
    /// faults (0.0 for an empty load). The cost model of tier mixing
    /// in one number — a confirmation tier that is 100× slower per
    /// fault is still cheap while the funnel stays narrow.
    pub fn funnel_ratio(&self) -> f64 {
        if self.triage.is_empty() {
            0.0
        } else {
            self.selected as f64 / self.triage.len() as f64
        }
    }
}

/// The default confirmation selector: a fault is worth the expensive
/// tier when the triage tier *rejected* it (`DetectedAtStartup` — the
/// claim a real binary can contradict) or when the static linter
/// could not decide it ([`StaticVerdict::Unknown`]). Faults that
/// never reached the SUT (`Skipped`, `Inexpressible`) or broke the
/// harness (`HarnessFailure`) are never forwarded: there is nothing
/// to confirm.
pub fn confirmation_candidate(outcome: &InjectionOutcome) -> bool {
    match &outcome.result {
        InjectionResult::DetectedAtStartup { .. } => true,
        InjectionResult::Skipped { .. }
        | InjectionResult::Inexpressible { .. }
        | InjectionResult::HarnessFailure { .. } => false,
        _ => matches!(outcome.verdict, StaticVerdict::Unknown),
    }
}

impl CampaignExecutor {
    /// Runs `faults` through `triage` (typically a simulator
    /// campaign), then replays the [`confirmation_candidate`] subset
    /// through `confirm` (typically a process-backed campaign) on the
    /// same pool, returning both profiles and the funnel count.
    ///
    /// Both campaigns must share a baseline — the faults were
    /// generated against one configuration set; the process adapter's
    /// [`conferr_sut::ConfigFileSpec`]s are expected to declare the
    /// same files with the same defaults as the simulator's.
    ///
    /// # Errors
    ///
    /// Propagates either campaign's [`CampaignError`]; per-fault
    /// problems (including a degraded confirmation tier) are recorded
    /// in the profiles, not raised.
    ///
    /// # Examples
    ///
    /// ```
    /// use conferr::{sut_factory, CampaignExecutor, ExecutorCampaign};
    /// use conferr_model::ErrorGenerator;
    /// use conferr_plugins::StructuralPlugin;
    /// use conferr_sut::MySqlSim;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let executor = CampaignExecutor::new(1);
    /// let triage = ExecutorCampaign::new(sut_factory(MySqlSim::new))?;
    /// // A second campaign stands in for the process tier here.
    /// let confirm = ExecutorCampaign::new(sut_factory(MySqlSim::new))?;
    /// let faults = StructuralPlugin::new().generate(triage.baseline())?;
    /// let report = executor.run_tiered(&triage, &confirm, faults)?;
    /// assert_eq!(report.selected, report.confirm.len());
    /// assert!(report.funnel_ratio() <= 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_tiered(
        &self,
        triage: &ExecutorCampaign,
        confirm: &ExecutorCampaign,
        faults: Vec<GeneratedFault>,
    ) -> Result<TieredRunReport, CampaignError> {
        self.run_tiered_with(triage, confirm, faults, &confirmation_candidate)
    }

    /// [`CampaignExecutor::run_tiered`] with an explicit selector
    /// deciding which triage outcomes earn a confirmation run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CampaignExecutor::run_tiered`].
    pub fn run_tiered_with(
        &self,
        triage: &ExecutorCampaign,
        confirm: &ExecutorCampaign,
        faults: Vec<GeneratedFault>,
        interesting: &dyn Fn(&InjectionOutcome) -> bool,
    ) -> Result<TieredRunReport, CampaignError> {
        let triage_profile = self.run_faults(triage, faults.clone())?;
        debug_assert_eq!(
            triage_profile.len(),
            faults.len(),
            "the executor records one outcome per fault, in order"
        );
        let selected: Vec<GeneratedFault> = faults
            .into_iter()
            .zip(triage_profile.outcomes())
            .filter(|(_, outcome)| interesting(outcome))
            .map(|(fault, _)| fault)
            .collect();
        let selected_count = selected.len();
        let confirm_profile = if selected.is_empty() {
            ResilienceProfile::new(confirm.system(), Vec::new())
        } else {
            self.run_faults(confirm, selected)?
        };
        Ok(TieredRunReport {
            triage: triage_profile,
            confirm: confirm_profile,
            selected: selected_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut_factory;
    use conferr_model::ErrorGenerator;
    use conferr_plugins::StructuralPlugin;
    use conferr_sut::{MySqlSim, PostgresSim, Tier};
    use std::sync::Arc;

    fn outcome(verdict: StaticVerdict, result: InjectionResult) -> InjectionOutcome {
        InjectionOutcome {
            id: "t".into(),
            description: "t".into(),
            class: conferr_model::ErrorClass::Structural(
                conferr_model::StructuralKind::DirectiveOmission,
            ),
            diff: Vec::new().into(),
            verdict,
            tier: Tier::Sim,
            result: result.clone(),
        }
    }

    #[test]
    fn selector_forwards_rejections_and_undecided_faults() {
        assert!(confirmation_candidate(&outcome(
            StaticVerdict::WillFailParse,
            InjectionResult::DetectedAtStartup {
                diagnostic: "d".into()
            },
        )));
        assert!(confirmation_candidate(&outcome(
            StaticVerdict::Unknown,
            InjectionResult::Undetected { warnings: vec![] },
        )));
        // Statically decided and absorbed: nothing to confirm.
        assert!(!confirmation_candidate(&outcome(
            StaticVerdict::SemanticallySilent,
            InjectionResult::Undetected { warnings: vec![] },
        )));
        // Never reached the SUT or broke the harness: never forwarded.
        assert!(!confirmation_candidate(&outcome(
            StaticVerdict::Unknown,
            InjectionResult::Skipped { reason: "r".into() },
        )));
        assert!(!confirmation_candidate(&outcome(
            StaticVerdict::Unknown,
            InjectionResult::Inexpressible { reason: "r".into() },
        )));
        assert!(!confirmation_candidate(&outcome(
            StaticVerdict::Unknown,
            InjectionResult::HarnessFailure {
                panic_msg: "p".into()
            },
        )));
    }

    #[test]
    fn tiered_run_confirms_exactly_the_selected_subset() {
        let executor = CampaignExecutor::new(2);
        let triage = ExecutorCampaign::new(sut_factory(MySqlSim::new)).unwrap();
        let confirm = ExecutorCampaign::new(sut_factory(MySqlSim::new)).unwrap();
        let faults = StructuralPlugin::new().generate(triage.baseline()).unwrap();
        let n = faults.len();
        let report = executor.run_tiered(&triage, &confirm, faults).unwrap();
        assert_eq!(report.triage.len(), n);
        assert_eq!(report.selected, report.confirm.len());
        let expected = report
            .triage
            .outcomes()
            .iter()
            .filter(|o| confirmation_candidate(o))
            .count();
        assert_eq!(report.selected, expected);
        assert!((report.funnel_ratio() - expected as f64 / n as f64).abs() < 1e-9);
        // The confirmation rows replay the selected faults in triage
        // order, so ids line up pairwise.
        let selected_ids: Vec<&str> = report
            .triage
            .outcomes()
            .iter()
            .filter(|o| confirmation_candidate(o))
            .map(|o| o.id.as_str())
            .collect();
        let confirm_ids: Vec<&str> = report
            .confirm
            .outcomes()
            .iter()
            .map(|o| o.id.as_str())
            .collect();
        assert_eq!(selected_ids, confirm_ids);
    }

    #[test]
    fn custom_selector_and_empty_selection() {
        let executor = CampaignExecutor::new(1);
        let triage = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let confirm = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let faults = StructuralPlugin::new().generate(triage.baseline()).unwrap();
        let nothing = Arc::new(|_: &InjectionOutcome| false);
        let report = executor
            .run_tiered_with(&triage, &confirm, faults, nothing.as_ref())
            .unwrap();
        assert_eq!(report.selected, 0);
        assert!(report.confirm.is_empty());
        assert_eq!(report.funnel_ratio(), 0.0);
    }
}

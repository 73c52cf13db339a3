//! End-to-end plan harness: name a system, get a campaign that can
//! generate, run, check, shrink and replay plans.
//!
//! [`PlanHarness`] is the glue the CLI, the sweep binary and the
//! integration gates share. Every SUT is wrapped in a
//! [`conferr_sut::ChaosSut`] — with all-zero rates when no chaos is
//! requested, which delegates identically to the bare system — so a
//! bug-base record's chaos spec is always sufficient to reconstruct
//! the exact SUT a counterexample was found against.
//!
//! Replay has two entry points with different trust levels:
//!
//! * [`PlanHarness::replay_record`] — *by file*: re-derive the minimal
//!   plan from the record's seed + kept-step selection, run it, and
//!   diff the rendered trace byte-for-byte against the stored one.
//! * [`PlanHarness::replay_seed`] — *by seed*: rerun the whole
//!   pipeline (generate → check → shrink) from the bare seed and
//!   rebuild the record from scratch; it must reproduce the stored
//!   record exactly.

use std::time::Duration;

use conferr::{
    sut_factory, CampaignError, CampaignExecutor, ExecutorCampaign, PlanTrace, SutFactory,
};
use conferr_model::FaultPlan;
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, ChaosConfig, ChaosSut, DjbdnsSim, MySqlSim, PostgresSim,
};

use crate::bugbase::{BugRecord, ChaosSpec};
use crate::generate::{PlanContext, PlanGenerator, WorkloadProfile};
use crate::property::{Property, Violation};
use crate::shrink::{shrink, Selection, ShrinkReport};

/// The systems a harness can target, by short name.
pub const SYSTEMS: [&str; 6] = ["mysql", "postgres", "apache", "bind", "djbdns", "appserver"];

/// The most steps [`PlanHarness::generate`] plans: far above any
/// recorded counterexample, and small enough that a plan's step list
/// is allocated up front.
pub const MAX_STEPS: usize = 10_000;

/// Errors from harness construction and replay.
#[derive(Debug)]
pub enum PlanError {
    /// The system name is not one of [`SYSTEMS`].
    UnknownSystem(String),
    /// The workload-profile name is not one of the built-ins.
    UnknownProfile(String),
    /// The property name is not one of [`Property::ALL`].
    UnknownProperty(String),
    /// The step count is above [`MAX_STEPS`].
    TooManySteps(usize),
    /// A chaos rate is above 1000 per mille, or the start rates (panic,
    /// stall and failure, which split one roll) sum to more than 1000.
    InvalidChaos(String),
    /// Plan execution failed in the campaign layer.
    Campaign(CampaignError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownSystem(name) => {
                write!(f, "unknown system {name:?} (expected one of {SYSTEMS:?})")
            }
            PlanError::UnknownProfile(name) => write!(f, "unknown workload profile {name:?}"),
            PlanError::UnknownProperty(name) => write!(f, "unknown property {name:?}"),
            PlanError::InvalidChaos(why) => write!(f, "invalid chaos rates: {why}"),
            PlanError::TooManySteps(steps) => {
                write!(f, "{steps} steps is above the maximum of {MAX_STEPS}")
            }
            PlanError::Campaign(e) => write!(f, "plan execution failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<CampaignError> for PlanError {
    fn from(e: CampaignError) -> Self {
        PlanError::Campaign(e)
    }
}

/// The outcome of a by-file replay: did the rerun reproduce the
/// stored counterexample?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayResult {
    /// `true` iff the rerun's trace matches the record byte-for-byte
    /// *and* still violates the record's property.
    pub matched: bool,
    /// `true` iff the rerun still violates the record's property.
    pub violated: bool,
    /// The rerun's rendered trace lines.
    pub trace: Vec<String>,
}

fn chaos_factory(system: &str, config: ChaosConfig) -> Option<SutFactory> {
    Some(match system {
        "mysql" => sut_factory(move || ChaosSut::new(MySqlSim::new(), config)),
        "postgres" => sut_factory(move || ChaosSut::new(PostgresSim::new(), config)),
        "apache" => sut_factory(move || ChaosSut::new(ApacheSim::new(), config)),
        "bind" => sut_factory(move || ChaosSut::new(BindSim::new(), config)),
        "djbdns" => sut_factory(move || ChaosSut::new(DjbdnsSim::new(), config)),
        "appserver" => sut_factory(move || ChaosSut::new(AppServerSim::new(), config)),
        _ => return None,
    })
}

/// Rejects per-mille rates a [`ChaosConfig`] cannot honour: any rate
/// above 1000, or start rates summing past 1000 (the start actions
/// split one roll in order, so the excess starves the later ones).
fn check_chaos(spec: &ChaosSpec) -> Result<(), PlanError> {
    let rates = [
        ("panic", spec.panic_pm),
        ("stall", spec.stall_pm),
        ("fail", spec.fail_pm),
        ("fail-test", spec.fail_test_pm),
    ];
    if let Some((name, pm)) = rates.iter().find(|(_, pm)| *pm > 1000) {
        return Err(PlanError::InvalidChaos(format!(
            "{name} rate {pm} is above 1000 per mille"
        )));
    }
    let start = u64::from(spec.panic_pm) + u64::from(spec.stall_pm) + u64::from(spec.fail_pm);
    if start > 1000 {
        return Err(PlanError::InvalidChaos(format!(
            "panic, stall and fail rates sum to {start}, above 1000 per mille"
        )));
    }
    Ok(())
}

/// One system's plan-testing session: campaign, workload context and
/// the generate / run / check / shrink / replay pipeline.
#[derive(Debug)]
pub struct PlanHarness {
    system: String,
    chaos: Option<ChaosSpec>,
    deadline_ms: u64,
    campaign: ExecutorCampaign,
    tests: Vec<String>,
}

impl PlanHarness {
    /// Builds a harness for one of [`SYSTEMS`], optionally wrapped in
    /// seeded chaos.
    ///
    /// # Errors
    ///
    /// [`PlanError::UnknownSystem`] for a system outside [`SYSTEMS`];
    /// [`PlanError::InvalidChaos`] when a chaos rate exceeds 1000 per
    /// mille or the panic, stall and failure rates sum past 1000,
    /// which would leave a later start action unreachable.
    pub fn new(system: &str, chaos: Option<ChaosSpec>) -> Result<Self, PlanError> {
        if let Some(spec) = &chaos {
            check_chaos(spec)?;
        }
        let config = chaos.map_or_else(ChaosConfig::default, ChaosSpec::to_config);
        let factory = chaos_factory(system, config)
            .ok_or_else(|| PlanError::UnknownSystem(system.to_string()))?;
        let campaign = ExecutorCampaign::new(factory)?;
        let tests = campaign.factory().create().test_names();
        Ok(PlanHarness {
            system: system.to_string(),
            chaos,
            deadline_ms: 0,
            campaign,
            tests,
        })
    }

    /// Rebuilds the exact harness a bug record was produced on.
    pub fn from_record(record: &BugRecord) -> Result<Self, PlanError> {
        let mut harness = Self::new(&record.system, record.chaos)?;
        harness.set_deadline_ms(record.deadline_ms);
        Ok(harness)
    }

    /// The short system name this harness targets.
    pub fn system(&self) -> &str {
        &self.system
    }

    /// The wrapped system's functional-test names (the `RunTest` pool).
    pub fn tests(&self) -> &[String] {
        &self.tests
    }

    /// The underlying executor campaign.
    pub fn campaign(&self) -> &ExecutorCampaign {
        &self.campaign
    }

    /// Sets the per-fault deadline in milliseconds (`0` = unlimited).
    pub fn set_deadline_ms(&mut self, ms: u64) {
        self.deadline_ms = ms;
        self.campaign
            .engine()
            .set_fault_deadline((ms > 0).then(|| Duration::from_millis(ms)));
    }

    /// Generates the deterministic plan for `(profile, seed, steps)`.
    ///
    /// # Errors
    ///
    /// [`PlanError::UnknownProfile`] for an unknown profile name;
    /// [`PlanError::TooManySteps`] when `steps` exceeds [`MAX_STEPS`].
    pub fn generate(&self, profile: &str, seed: u64, steps: usize) -> Result<FaultPlan, PlanError> {
        if steps > MAX_STEPS {
            return Err(PlanError::TooManySteps(steps));
        }
        let profile = WorkloadProfile::by_name(profile)
            .ok_or_else(|| PlanError::UnknownProfile(profile.to_string()))?;
        let ctx = PlanContext {
            baseline: self.campaign.baseline(),
            tests: &self.tests,
        };
        Ok(PlanGenerator::new(profile).generate(&ctx, seed, steps))
    }

    /// Executes a plan and returns its trace.
    pub fn run(
        &self,
        executor: &CampaignExecutor,
        plan: &FaultPlan,
    ) -> Result<PlanTrace, CampaignError> {
        executor.run_plan(&self.campaign, plan)
    }

    /// Executes a plan and evaluates one property over its trace.
    pub fn check(
        &self,
        executor: &CampaignExecutor,
        plan: &FaultPlan,
        property: Property,
    ) -> Result<Option<Violation>, CampaignError> {
        Ok(property.evaluate(&self.run(executor, plan)?))
    }

    /// Shrinks a failing plan to a minimal counterexample for
    /// `property` (`None` if the plan does not fail it).
    pub fn shrink(
        &self,
        executor: &CampaignExecutor,
        plan: &FaultPlan,
        property: Property,
    ) -> Result<Option<ShrinkReport>, CampaignError> {
        shrink(plan, |candidate| self.check(executor, candidate, property))
    }

    /// Builds the bug-base record for a shrunken counterexample,
    /// rerunning the minimal plan to capture its canonical trace.
    #[allow(clippy::too_many_arguments)] // one argument per record provenance field
    pub fn build_record(
        &self,
        executor: &CampaignExecutor,
        profile: &str,
        seed: u64,
        steps: usize,
        property: Property,
        original: &FaultPlan,
        minimal: &FaultPlan,
    ) -> Result<BugRecord, CampaignError> {
        let selection = Selection::of(original, minimal);
        let trace = self.run(executor, minimal)?.render_lines();
        Ok(BugRecord {
            system: self.system.clone(),
            profile: profile.to_string(),
            seed,
            steps,
            property: property.name().to_string(),
            deadline_ms: self.deadline_ms,
            chaos: self.chaos,
            kept: selection.kept,
            kept_edits: selection.kept_edits,
            trace,
        })
    }

    /// Replay *by file*: re-derive the minimal plan from the record's
    /// seed and kept-step selection, run it, and compare the rendered
    /// trace byte-for-byte.
    pub fn replay_record(
        &self,
        executor: &CampaignExecutor,
        record: &BugRecord,
    ) -> Result<ReplayResult, PlanError> {
        let property = Property::by_name(&record.property)
            .ok_or_else(|| PlanError::UnknownProperty(record.property.clone()))?;
        let full = self.generate(&record.profile, record.seed, record.steps)?;
        let selection = Selection {
            kept: record.kept.clone(),
            kept_edits: record.kept_edits.clone(),
        };
        let minimal = selection.apply(&full);
        let trace = self.run(executor, &minimal)?;
        let violated = property.evaluate(&trace).is_some();
        let lines = trace.render_lines();
        Ok(ReplayResult {
            matched: violated && lines == record.trace,
            violated,
            trace: lines,
        })
    }

    /// Replay *by seed*: rerun generate → check → shrink from the bare
    /// seed and rebuild the record from scratch. Returns `None` if the
    /// regenerated plan no longer violates the property; otherwise the
    /// rebuilt record, which must equal the stored one for the replay
    /// to count as reproduced.
    pub fn replay_seed(
        &self,
        executor: &CampaignExecutor,
        record: &BugRecord,
    ) -> Result<Option<BugRecord>, PlanError> {
        let property = Property::by_name(&record.property)
            .ok_or_else(|| PlanError::UnknownProperty(record.property.clone()))?;
        let full = self.generate(&record.profile, record.seed, record.steps)?;
        let Some(report) = self.shrink(executor, &full, property)? else {
            return Ok(None);
        };
        Ok(Some(self.build_record(
            executor,
            &record.profile,
            record.seed,
            record.steps,
            property,
            &full,
            &report.minimal,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_are_rejected_up_front() {
        assert!(matches!(
            PlanHarness::new("oracle", None),
            Err(PlanError::UnknownSystem(_))
        ));
        let harness = PlanHarness::new("mysql", None).unwrap();
        assert!(matches!(
            harness.generate("nope", 1, 4),
            Err(PlanError::UnknownProfile(_))
        ));
    }

    #[test]
    fn zero_rate_chaos_wrapper_runs_plans_cleanly() {
        let harness = PlanHarness::new("postgres", None).unwrap();
        assert!(!harness.tests().is_empty());
        let executor = CampaignExecutor::new(1);
        let plan = harness.generate("operator-default", 3, 6).unwrap();
        let trace = harness.run(&executor, &plan).unwrap();
        assert_eq!(trace.records.len(), plan.len());
    }

    #[test]
    fn generation_is_deterministic_per_harness() {
        let harness = PlanHarness::new("apache", None).unwrap();
        let a = harness.generate("compound-heavy", 9, 10).unwrap();
        let b = harness.generate("compound-heavy", 9, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, harness.generate("compound-heavy", 10, 10).unwrap());
    }
}

//! Operator-session fault plans: stateful multi-step scenarios with
//! property oracles, shrinking and a replayable bug base.
//!
//! # Architecture
//!
//! The ConfErr campaign layer (crate `conferr`) injects *independent*
//! single-shot faults. This crate models what a human operator does
//! during a real incident: a seeded *sequence* of actions against one
//! live system — inject a mistake, restart, re-run a smoke test,
//! revert an earlier edit, stack a second mistake on a degraded
//! configuration. In the workspace DAG it sits between core and
//! bench: `model → ... → core (conferr) → plan → bench`.
//!
//! The pipeline, end to end:
//!
//! 1. **Generate** — [`PlanGenerator`] derives a
//!    [`conferr_model::FaultPlan`] as a pure function of
//!    `(baseline, tests, profile, seed, steps)`, drawing weighted step
//!    shapes from a [`WorkloadProfile`] (single Table 1-style
//!    mistakes, compound pairs, corrupt-then-delete *masking*
//!    templates, revert/restart/run-test bookkeeping, partial-fix
//!    templates).
//! 2. **Run** — the plan compiles to an ordinary fault source and
//!    streams through the unmodified `CampaignExecutor`
//!    (`CampaignExecutor::run_plan`), producing a step-by-step
//!    `PlanTrace` that is byte-identical at any thread count.
//! 3. **Check** — named [`Property`] oracles (`recovers-after-revert`,
//!    `degraded-still-diagnosed`, `no-silent-compound`) evaluate the
//!    trace and report the first [`Violation`].
//! 4. **Shrink** — [`shrink()`] minimizes a failing plan (drop steps,
//!    then simplify multi-edit faults), re-checking every candidate
//!    against a fresh SUT, and yields a minimal counterexample plus
//!    the [`Selection`] that re-derives it from the regenerated
//!    original.
//! 5. **Persist & replay** — [`BugBase`] stores `{system, profile,
//!    seed, steps, property, chaos, selection, expected trace}`
//!    records as torn-write-safe single-line JSON;
//!    [`PlanHarness::replay_record`] reproduces the counterexample
//!    from the file, [`PlanHarness::replay_seed`] from the bare seed.
//!
//! [`PlanHarness`] glues the pipeline to a named simulator (optionally
//! chaos-wrapped); the `conferr-plan` binary exposes it on the command
//! line.
//!
//! # Examples
//!
//! Generate a deterministic session against the MySQL simulator, run
//! it, and evaluate every built-in property:
//!
//! ```
//! use conferr::CampaignExecutor;
//! use conferr_plan::{PlanHarness, Property};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let harness = PlanHarness::new("mysql", None)?;
//! let plan = harness.generate("operator-default", 42, 6)?;
//! assert_eq!(plan, harness.generate("operator-default", 42, 6)?);
//!
//! let executor = CampaignExecutor::new(1);
//! let trace = harness.run(&executor, &plan)?;
//! assert_eq!(trace.records.len(), plan.len());
//! for property in Property::ALL {
//!     // The simulators are well-behaved without chaos: a short
//!     // default session upholds all three invariants.
//!     assert_eq!(property.evaluate(&trace), None, "{}", property.name());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bugbase;
mod generate;
mod harness;
mod property;
mod shrink;

pub use bugbase::{BugBase, BugBaseError, BugRecord, ChaosSpec};
pub use generate::{single_faults, PlanContext, PlanGenerator, WorkloadProfile};
pub use harness::{PlanError, PlanHarness, ReplayResult, MAX_STEPS, SYSTEMS};
pub use property::{Property, Violation};
pub use shrink::{is_subplan, shrink, Selection, ShrinkReport};

//! The repository benchmark for ConfErr campaigns.
//!
//! Every number is taken from outside the engine: the benchmark times
//! calls into the public surfaces a campaign user drives
//! ([`conferr::CampaignExecutor`], [`conferr::ExecutorCampaign`],
//! [`conferr::CampaignBatch`], [`conferr_model::FaultSource`] and
//! [`conferr::OutcomeSink`]) and leaves every engine knob at its
//! default. The layers are named after the crates that own them.
//!
//! * [`workload`] — the three seeded workloads and one submission of
//!   each;
//! * [`trace`] — the timing decorators of the traced run;
//! * [`replay`] — the cold replay of the layers that run inside the
//!   engine (lint, apply, diff, serialize, parse);
//! * [`digest`] — output digests and the checking sink;
//! * [`sys`] — process CPU time and peak resident memory.
//!
//! `README.md` beside this crate maps each per-layer metric to the
//! end-to-end metric and workload it should move.

pub mod digest;
pub mod replay;
pub mod sys;
pub mod trace;
pub mod workload;

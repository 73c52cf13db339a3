//! Static fault-space analysis for ConfErr.
//!
//! # Architecture
//!
//! This crate is the *static analysis layer* of the workspace DAG
//! `tree → {keyboard, formats, model, analysis} → {plugins, sut} →
//! core → bench`: everything a simulated server "knows" about its
//! configuration language — valid directive names, value domains,
//! required arguments, cross-directive constraints, which directives
//! each functional test reads — extracted into declarative
//! [`schema::DirectiveSchema`] tables plus the *exact* decision
//! functions the simulators themselves call. Because simulator and
//! analyzer share one implementation, a static verdict can never
//! drift from the dynamic outcome it predicts.
//!
//! Two consumers build on the tables:
//!
//! * [`lint::FaultLinter`] classifies a prepared fault **before any
//!   SUT starts**: it validates the parse of the edited file's
//!   serialized bytes with the extracted models, yielding a
//!   [`verdict::StaticVerdict`] and a per-file [`touch::FileTouch`]
//!   set. The injection engine hands [`FaultLinter::judge`] the parse
//!   it makes once per fault, and passes that parse and the judge's
//!   [`DialectCheck`] on to the SUT's start; for a known parse of an
//!   Apache file the judge patches the baseline's check instead of
//!   running it whole ([`DialectModel::patched`]).
//!   [`FaultLinter::lint`] makes that parse itself — apply the edits,
//!   serialize with the real format, re-parse with the real parser —
//!   for callers outside the engine.
//! * The injection engine (in `conferr` core) uses the touch sets to
//!   skip functional tests whose declared read-set is provably
//!   disjoint from an edit — test-impact pruning, byte-identical to
//!   the unpruned reference path.
//!
//! Touch maps come from the file format, not from the dialect: an
//! edit is bounded to named directives only when every node it writes
//! parses in place ([`touch::edit_parses_in_place`], the one place
//! outside `conferr-formats` that asks
//! `ConfigFormat::parses_in_place`). The engine asks once per
//! single-edit fault and uses the same answer to skip that fault's
//! parse, splice its text and let the judge patch its check.
//!
//! The soundness contract is asymmetric by design: `WillFailParse`
//! and `WillFailValidate` promise a failing dynamic start,
//! `SemanticallySilent` promises an undetected, warning-free run
//! (relative to a healthy baseline), and `Unknown` promises nothing.
//! See `StaticVerdict` for the precise statement.

pub mod apache;
pub mod lint;
pub mod mysql;
pub mod postgres;
pub mod schema;
pub mod tinydns;
pub mod touch;
pub mod value;
pub mod verdict;

pub use lint::{DialectCheck, DialectModel, FaultLinter, FileSurvey, Lint};
pub use schema::{
    schema_for, Dialect, DirectiveSchema, FileSchema, ReadScope, TestImpact, APACHE_SCHEMA,
    APPSERVER_SCHEMA, BIND_SCHEMA, DJBDNS_SCHEMA, MYSQL_SCHEMA, POSTGRES_SCHEMA,
};
pub use touch::{
    edit_parses_in_place, scope_intersects, touch_of_edit, FileTouch, PrunePlan, TouchMap,
};
pub use verdict::{StaticVerdict, ValidationClass, Violation};

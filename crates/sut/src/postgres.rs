//! The Postgres 8.2 simulator.
//!
//! Postgres is the disciplined counterpoint to MySQL in the paper's
//! comparison (§5.2, §5.5, Figure 3):
//!
//! * unknown directives abort startup (`FATAL: unrecognized
//!   configuration parameter`);
//! * numeric values are parsed strictly (no trailing junk) and
//!   **range-checked**, with a FATAL diagnostic naming the bounds;
//! * units must be exact (`kB`/`MB`/`GB`);
//! * booleans and enums reject unknown spellings;
//! * **cross-directive constraints** are enforced — the paper's
//!   example: `max_fsm_pages` must be at least
//!   `16 × max_fsm_relations`, so a dropped digit in `max_fsm_pages`
//!   shuts the server down with an explanatory message;
//! * directive names are case-insensitive (Table 2: mixed case
//!   accepted) but may **not** be truncated (Table 2: rejected).

use std::sync::Arc;

use conferr_analysis::postgres::REGISTRY;
use conferr_analysis::value::{RegistryValues, ValueType};
use conferr_analysis::{Dialect, DialectModel, DirectiveSchema, POSTGRES_SCHEMA};
use conferr_formats::KvFormat;

use crate::minidb::{Engine, EngineLimits};
use crate::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, FileText, ParseCache, StartOutcome,
    SystemUnderTest, TestOutcome,
};

/// Postgres 8.2's default `postgresql.conf` ships with exactly these
/// eight active directives (paper §5.1).
const DEFAULT_CONF: &str = "\
# PostgreSQL configuration file (postgresql.conf)
# Memory / connections
max_connections = 100
shared_buffers = 1000

# Free space map
max_fsm_pages = 153600
max_fsm_relations = 1000

# Logging and locale
log_destination = 'stderr'
datestyle = 'iso, mdy'
lc_messages = 'C'
port = 5432
";

#[derive(Debug)]
struct Running {
    vars: Arc<RegistryValues>,
    engine: Engine,
}

/// Deterministic result of parsing and validating one
/// `postgresql.conf` text: the resolved parameters and derived engine
/// limits, or the FATAL startup diagnostic. This is what the parse
/// cache memoizes; the mutable query engine is built fresh on every
/// start.
#[derive(Debug)]
struct Blueprint {
    vars: Arc<RegistryValues>,
    limits: EngineLimits,
}

type PostgresStartup = Result<Blueprint, String>;

/// The Postgres 8.2 simulator. See the module docs for the validation
/// discipline it reproduces.
#[derive(Debug, Default)]
pub struct PostgresSim {
    running: Option<Running>,
    cache: ParseCache,
}

impl PostgresSim {
    /// Creates a stopped simulator.
    pub fn new() -> Self {
        PostgresSim::default()
    }

    /// A full-coverage `postgresql.conf` for the §5.5 comparison
    /// benchmark: every registry parameter with a default value,
    /// booleans excluded (as the paper did).
    pub fn full_coverage_config() -> String {
        let mut out = String::from("# full-coverage configuration\n");
        for spec in REGISTRY {
            if matches!(spec.vtype, ValueType::Bool) || spec.default.is_empty() {
                continue;
            }
            out.push_str(&format!("{} = {}\n", spec.name, spec.default));
        }
        out
    }

    /// Names of boolean parameters (excluded from the §5.5 benchmark
    /// because both databases detect boolean typos).
    pub fn boolean_directive_names() -> Vec<&'static str> {
        REGISTRY
            .iter()
            .filter(|s| matches!(s.vtype, ValueType::Bool))
            .map(|s| s.name)
            .collect()
    }

    /// The value of a parameter in the running instance.
    pub fn parameter(&self, name: &str) -> Option<&str> {
        self.running.as_ref().and_then(|r| r.vars.get(name))
    }

    /// The full startup path: parse `postgresql.conf`, validate every
    /// parameter strictly, enforce the cross-directive constraints.
    /// Pure in the configuration text; errors carry the exact FATAL
    /// diagnostic.
    fn parse_and_validate(file: &FileText) -> PostgresStartup {
        // Strict per-parameter validation and the cross-directive
        // constraints live in `conferr_analysis::postgres` — shared
        // verbatim with the static linter, whose check the file may
        // carry.
        let check = file
            .check_with(&KvFormat::new(), Dialect::PostgresKv)
            .map_err(|e| Dialect::PostgresKv.parse_failure_diagnostic(&e.to_string()))?;
        let vars = match &check.result {
            Ok(DialectModel::Postgres(vars)) => vars,
            Ok(other) => unreachable!("a Postgres check holds {other:?}"),
            Err(violation) => return Err(violation.message.clone()),
        };
        let limits = EngineLimits {
            max_connections: vars
                .get("max_connections")
                .and_then(|v| v.parse().ok())
                .unwrap_or(100),
            max_statement_bytes: 1 << 20,
        };
        Ok(Blueprint {
            vars: Arc::clone(vars),
            limits,
        })
    }
}

impl SystemUnderTest for PostgresSim {
    fn name(&self) -> &str {
        "postgres-sim"
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        vec![ConfigFileSpec {
            name: "postgresql.conf".to_string(),
            format: "kv".to_string(),
            default_contents: DEFAULT_CONF.to_string(),
        }]
    }

    fn start(&mut self, configs: &ConfigPayload, _deadline: &Deadline) -> StartOutcome {
        self.running = None;
        let Some(file) = configs.get("postgresql.conf") else {
            return StartOutcome::FailedToStart {
                diagnostic: "could not open postgresql.conf".to_string(),
            };
        };
        let startup = self
            .cache
            .get_or_parse("postgresql.conf", file, Self::parse_and_validate);
        match startup.as_ref() {
            Ok(blueprint) => {
                self.running = Some(Running {
                    vars: Arc::clone(&blueprint.vars),
                    engine: Engine::new(blueprint.limits.clone()),
                });
                StartOutcome::Started
            }
            Err(diagnostic) => StartOutcome::FailedToStart {
                diagnostic: diagnostic.clone(),
            },
        }
    }

    fn test_names(&self) -> Vec<String> {
        vec!["connect-and-query".to_string()]
    }

    fn run_test(&mut self, test: &str, _deadline: &Deadline) -> TestOutcome {
        let Some(running) = self.running.as_mut() else {
            return TestOutcome::failed("server is not running");
        };
        match test {
            // psql over the default unix socket: create, populate,
            // query, drop (paper §5.1).
            "connect-and-query" => {
                let mut conn = match running.engine.connect() {
                    Ok(c) => c,
                    Err(e) => return TestOutcome::failed(format!("connect failed: {e}")),
                };
                if let Err(e) = conn.execute("CREATE DATABASE conferr_probe;") {
                    return TestOutcome::failed(format!("CREATE DATABASE failed: {e}"));
                }
                if let Err(e) = conn.use_database("conferr_probe") {
                    return TestOutcome::failed(format!("\\connect failed: {e}"));
                }
                for sql in [
                    "CREATE TABLE t (id INT, name TEXT);",
                    "INSERT INTO t VALUES (1, 'alpha');",
                    "SELECT name FROM t WHERE id = 1;",
                    "DROP TABLE t;",
                    "DROP DATABASE conferr_probe;",
                ] {
                    if let Err(e) = conn.execute(sql) {
                        return TestOutcome::failed(format!("{sql} failed: {e}"));
                    }
                }
                TestOutcome::Passed
            }
            other => TestOutcome::failed(format!("unknown test {other:?}")),
        }
    }

    fn stop(&mut self) {
        self.running = None;
    }

    fn set_parse_caching(&mut self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    fn parse_cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        Some(&POSTGRES_SCHEMA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_configs;

    fn start_with(patch: impl Fn(&mut String)) -> (PostgresSim, StartOutcome) {
        let mut sut = PostgresSim::new();
        let mut configs = default_configs(&sut);
        patch(configs.get_mut("postgresql.conf").unwrap());
        let outcome = sut.start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited());
        (sut, outcome)
    }

    #[test]
    fn default_config_starts_and_passes() {
        let (mut sut, outcome) = start_with(|_| {});
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("connect-and-query", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn unknown_parameter_is_fatal() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("max_connections", "max_connektions");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("unrecognized configuration parameter"));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn truncated_names_are_rejected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("max_connections", "max_connection");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn mixed_case_names_are_accepted() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("max_connections = 100", "MAX_Connections = 90");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.parameter("max_connections"), Some("90"));
    }

    #[test]
    fn integer_trailing_junk_is_fatal() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("port = 5432", "port = 54e32");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn out_of_range_value_is_fatal_with_bounds_in_message() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("max_connections = 100", "max_connections = 0");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("valid range"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn paper_example_fsm_cross_constraint() {
        // Dropping the '3' from 153600 → 15600 < 16 × 1000.
        let (_, outcome) = start_with(|t| {
            *t = t.replace("max_fsm_pages = 153600", "max_fsm_pages = 15600");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(
                    diagnostic.contains("16 * max_fsm_relations"),
                    "{diagnostic}"
                );
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn shared_buffers_constraint_against_connections() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("shared_buffers = 1000", "shared_buffers = 100");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn boolean_typo_is_fatal() {
        let (_, outcome) = start_with(|t| {
            t.push_str("autovacuum = onn\n");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn enum_typo_is_fatal() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("log_destination = 'stderr'", "log_destination = 'stdrer'");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn missing_value_is_fatal() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("port = 5432", "port");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn quoted_text_values_are_accepted_freeform() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("datestyle = 'iso, mdy'", "datestyle = 'is, mdy'");
        });
        // Text parameters accept typos — Postgres is strict about
        // *typed* values, not free-form locale strings.
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.parameter("datestyle"), Some("is, mdy"));
    }

    #[test]
    fn size_units_must_be_exact() {
        let (_, outcome) = start_with(|t| {
            t.push_str("work_mem = 1M0\n");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
        let (sut, outcome) = start_with(|t| {
            t.push_str("work_mem = 4MB\n");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(
            sut.parameter("work_mem"),
            Some((4u64 << 20).to_string()).as_deref()
        );
    }

    #[test]
    fn deleted_directive_falls_back_to_default() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("port = 5432\n", "");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.parameter("port"), Some("5432"));
    }
}

//! `conferr-lint` — pre-flight static analysis over real
//! configuration files, before any campaign (or any server) starts.
//!
//! Two modes:
//!
//! * `conferr-lint --system <name> [--max-unknown-rate R] <files>...`
//!   surveys each file against the system's directive schema
//!   ([`conferr_analysis::lint::survey`]): how many substantive nodes
//!   the extracted dialect model understands, and any outright
//!   violations the static model detects. Exits non-zero when a
//!   violation is found or when any file's unknown-node rate exceeds
//!   `R` — CI runs this over the example configurations to catch
//!   schema-coverage regressions.
//! * `conferr-lint --write-defaults <dir>` materializes every
//!   simulator's default configuration files under `<dir>/<system>/`,
//!   which is how `examples/configs/` is generated (and kept honest
//!   by a drift-guard test).

use std::path::Path;
use std::process::ExitCode;

use conferr_analysis::{lint::survey, schema_for};
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, DjbdnsSim, MySqlSim, PostgresSim, SystemUnderTest,
};

const USAGE: &str = "usage:
  conferr-lint --system <name> [--max-unknown-rate <rate>] <files>...
  conferr-lint --write-defaults <dir>

  --system <name>            system schema to lint against
                             (mysql, postgres, apache, bind, djbdns, appserver)
  --max-unknown-rate <rate>  fail when a file's unknown-node rate exceeds <rate>,
                             a number from 0 to 1
  --write-defaults <dir>     write every simulator's default configs to <dir>/<system>/";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(LintError::Usage(msg)) => {
            eprintln!("conferr-lint: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(LintError::Gate(msg)) => {
            eprintln!("conferr-lint: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum LintError {
    /// Bad invocation (exit 2).
    Usage(String),
    /// The lint itself failed: violation or unknown-rate ceiling
    /// exceeded (exit 1).
    Gate(String),
}

/// The six built-in simulators, in stable order.
fn all_sims() -> Vec<Box<dyn SystemUnderTest>> {
    vec![
        Box::new(MySqlSim::new()),
        Box::new(PostgresSim::new()),
        Box::new(ApacheSim::new()),
        Box::new(BindSim::new()),
        Box::new(DjbdnsSim::new()),
        Box::new(AppServerSim::new()),
    ]
}

fn run(args: &[String]) -> Result<(), LintError> {
    let mut system: Option<String> = None;
    let mut max_unknown_rate: Option<f64> = None;
    let mut write_defaults: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Result<String, LintError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| LintError::Usage(format!("{} needs a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--system" => system = Some(take_value(&mut i)?),
            "--max-unknown-rate" => {
                let raw = take_value(&mut i)?;
                // `(0.0..=1.0)` also rejects NaN, which would otherwise
                // parse and then never compare above any rate.
                let rate = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|rate| (0.0..=1.0).contains(rate))
                    .ok_or_else(|| {
                        LintError::Usage(format!(
                            "--max-unknown-rate: not a rate from 0 to 1: {raw:?}"
                        ))
                    })?;
                max_unknown_rate = Some(rate);
            }
            "--write-defaults" => write_defaults = Some(take_value(&mut i)?),
            "--help" | "-h" => return Err(LintError::Usage("help".to_string())),
            flag if flag.starts_with("--") => {
                return Err(LintError::Usage(format!("unknown flag {flag:?}")))
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }

    if let Some(dir) = write_defaults {
        if system.is_some() || !files.is_empty() {
            return Err(LintError::Usage(
                "--write-defaults takes no other arguments".to_string(),
            ));
        }
        return write_default_configs(Path::new(&dir));
    }

    let Some(system) = system else {
        return Err(LintError::Usage("--system is required".to_string()));
    };
    if files.is_empty() {
        return Err(LintError::Usage("no files to lint".to_string()));
    }
    lint_files(&system, max_unknown_rate, &files)
}

fn lint_files(
    system: &str,
    max_unknown_rate: Option<f64>,
    files: &[String],
) -> Result<(), LintError> {
    let schema = schema_for(system)
        .ok_or_else(|| LintError::Usage(format!("no schema for system {system:?}")))?;

    let mut failures = Vec::new();
    for path in files {
        // Schema files are keyed by the name the SUT declares
        // (`my.cnf`, `data`, ...); match on the basename so configs
        // can live anywhere on disk.
        let name = Path::new(path)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(path.as_str());
        let contents = std::fs::read_to_string(path)
            .map_err(|e| LintError::Usage(format!("cannot read {path}: {e}")))?;
        let s = survey(schema, name, &contents).map_err(LintError::Gate)?;
        println!(
            "{path}: {} node(s), {} known, unknown rate {:.2}, {} violation(s)",
            s.total,
            s.known,
            s.unknown_rate(),
            s.violations.len()
        );
        for v in &s.violations {
            println!(
                "  violation [{}] {}: {}",
                v.class.label(),
                v.directive,
                v.message
            );
        }
        if !s.violations.is_empty() {
            failures.push(format!("{path}: {} violation(s)", s.violations.len()));
        }
        if let Some(max) = max_unknown_rate {
            if s.unknown_rate() > max {
                failures.push(format!(
                    "{path}: unknown rate {:.2} exceeds ceiling {max:.2}",
                    s.unknown_rate()
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(LintError::Gate(failures.join("; ")))
    }
}

fn write_default_configs(dir: &Path) -> Result<(), LintError> {
    for sim in all_sims() {
        let short = sim.name().strip_suffix("-sim").unwrap_or(sim.name());
        let sys_dir = dir.join(short);
        std::fs::create_dir_all(&sys_dir)
            .map_err(|e| LintError::Usage(format!("cannot create {}: {e}", sys_dir.display())))?;
        for spec in sim.config_files() {
            let path = sys_dir.join(&spec.name);
            std::fs::write(&path, &spec.default_contents)
                .map_err(|e| LintError::Usage(format!("cannot write {}: {e}", path.display())))?;
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unmodeled dialect: every node is unknown (rate 1.00) and
    /// none is a violation.
    const BIND_ZONE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/configs/bind/forward.zone"
    );

    fn lint_bind_zone(max_unknown_rate: &str) -> Result<(), LintError> {
        let args = [
            "--system",
            "bind",
            "--max-unknown-rate",
            max_unknown_rate,
            BIND_ZONE,
        ];
        run(&args.map(String::from))
    }

    #[test]
    fn max_unknown_rate_accepts_only_rates_from_zero_to_one() {
        for rate in ["nan", "NaN", "inf", "-0.5", "1.5"] {
            assert!(
                matches!(lint_bind_zone(rate), Err(LintError::Usage(_))),
                "{rate}"
            );
        }
        assert!(matches!(lint_bind_zone("0.5"), Err(LintError::Gate(_))));
        assert!(lint_bind_zone("1.0").is_ok());
    }
}

//! `conferr-plan` — operator-session fault plans on the command line.
//!
//! Two modes:
//!
//! * `conferr-plan --generate --system <name> --seed <n> --steps <k>`
//!   generates the deterministic plan for the seed, executes it
//!   statefully against the (optionally chaos-wrapped) simulator,
//!   prints the step-by-step trace and evaluates property oracles.
//!   With `--shrink`, a failing plan is minimized to a counterexample;
//!   with `--bugbase <dir>`, the counterexample is persisted as a
//!   replayable record. Exits 1 when any checked property is violated.
//! * `conferr-plan --replay <file>` reloads a bug-base record,
//!   reconstructs the exact harness (system, chaos rates, deadline),
//!   re-derives the minimal plan and diffs its trace byte-for-byte
//!   against the record; `--replay-seed` instead reruns the whole
//!   generate → shrink pipeline from the bare seed and requires it to
//!   rebuild the identical record. Exits 1 when the replay does not
//!   reproduce.

use std::path::Path;
use std::process::ExitCode;

use conferr::CampaignExecutor;
use conferr_plan::{BugBase, ChaosSpec, PlanHarness, Property};

const USAGE: &str = "usage:
  conferr-plan --generate --system <name> --seed <n> --steps <k> [options]
  conferr-plan --replay <file> [--replay-seed] [--threads <t>]

generate options:
  --system <name>       simulator to drive
                        (mysql, postgres, apache, bind, djbdns, appserver)
  --seed <n>            plan-generator seed
  --steps <k>           minimum step count (at most 10000)
  --profile <name>      workload profile (operator-default, compound-heavy,
                        revert-happy; default operator-default)
  --property <name>     oracle to check: recovers-after-revert,
                        degraded-still-diagnosed, no-silent-compound or
                        `all` (default all)
  --shrink              minimize a failing plan to a counterexample
  --bugbase <dir>       persist shrunken counterexamples under <dir>
  --deadline-ms <ms>    per-step fault deadline (0 = unlimited)
  --threads <t>         executor threads (default 1; traces are
                        thread-count independent)

chaos options (wrap the simulator in seeded misbehaviour; each rate is
at most 1000 per mille, and the panic, stall and fail rates sum to at
most 1000):
  --chaos-seed <n>          chaos roll seed (default 0)
  --chaos-panic <pm>        start panic rate, per mille
  --chaos-stall <pm>        start stall rate, per mille
  --chaos-fail <pm>         start failure rate, per mille
  --chaos-fail-test <pm>    fabricated test-failure rate, per mille
  --chaos-stall-ms <ms>     stall duration (default 200)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("conferr-plan: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Gate(msg)) => {
            eprintln!("conferr-plan: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    /// Bad invocation (exit 2).
    Usage(String),
    /// A property violation or replay mismatch (exit 1).
    Gate(String),
}

impl From<conferr_plan::PlanError> for CliError {
    fn from(e: conferr_plan::PlanError) -> Self {
        CliError::Usage(e.to_string())
    }
}

impl From<conferr::CampaignError> for CliError {
    fn from(e: conferr::CampaignError) -> Self {
        CliError::Gate(format!("plan execution failed: {e}"))
    }
}

#[derive(Default)]
struct Options {
    generate: bool,
    system: Option<String>,
    seed: Option<u64>,
    steps: Option<usize>,
    profile: String,
    property: String,
    shrink: bool,
    bugbase: Option<String>,
    deadline_ms: u64,
    threads: usize,
    replay: Option<String>,
    replay_seed: bool,
    chaos_seed: u64,
    chaos_panic: u32,
    chaos_stall: u32,
    chaos_fail: u32,
    chaos_fail_test: u32,
    chaos_stall_ms: u64,
    chaos_requested: bool,
}

impl Options {
    fn chaos(&self) -> Option<ChaosSpec> {
        self.chaos_requested.then_some(ChaosSpec {
            seed: self.chaos_seed,
            panic_pm: self.chaos_panic,
            stall_pm: self.chaos_stall,
            fail_pm: self.chaos_fail,
            fail_test_pm: self.chaos_fail_test,
            stall_ms: self.chaos_stall_ms,
        })
    }
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        profile: "operator-default".to_string(),
        property: "all".to_string(),
        threads: 1,
        chaos_stall_ms: 200,
        ..Options::default()
    };
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{} needs a value", args[*i - 1])))
        };
        let parse = |flag: &str, raw: String| -> Result<u64, CliError> {
            raw.parse()
                .map_err(|_| CliError::Usage(format!("{flag}: not a number: {raw:?}")))
        };
        match args[i].as_str() {
            "--generate" => opts.generate = true,
            "--system" => opts.system = Some(take_value(&mut i)?),
            "--seed" => opts.seed = Some(parse("--seed", take_value(&mut i)?)?),
            "--steps" => {
                opts.steps = Some(
                    usize::try_from(parse("--steps", take_value(&mut i)?)?)
                        .map_err(|_| CliError::Usage("--steps out of range".to_string()))?,
                );
            }
            "--profile" => opts.profile = take_value(&mut i)?,
            "--property" => opts.property = take_value(&mut i)?,
            "--shrink" => opts.shrink = true,
            "--bugbase" => opts.bugbase = Some(take_value(&mut i)?),
            "--deadline-ms" => {
                opts.deadline_ms = parse("--deadline-ms", take_value(&mut i)?)?;
            }
            "--threads" => {
                opts.threads = usize::try_from(parse("--threads", take_value(&mut i)?)?)
                    .map_err(|_| CliError::Usage("--threads out of range".to_string()))?;
            }
            "--replay" => opts.replay = Some(take_value(&mut i)?),
            "--replay-seed" => opts.replay_seed = true,
            "--chaos-seed" => {
                opts.chaos_seed = parse("--chaos-seed", take_value(&mut i)?)?;
                opts.chaos_requested = true;
            }
            "--chaos-panic" | "--chaos-stall" | "--chaos-fail" | "--chaos-fail-test" => {
                let flag = args[i].clone();
                let pm = u32::try_from(parse(&flag, take_value(&mut i)?)?)
                    .map_err(|_| CliError::Usage(format!("{flag} out of range")))?;
                match flag.as_str() {
                    "--chaos-panic" => opts.chaos_panic = pm,
                    "--chaos-stall" => opts.chaos_stall = pm,
                    "--chaos-fail" => opts.chaos_fail = pm,
                    _ => opts.chaos_fail_test = pm,
                }
                opts.chaos_requested = true;
            }
            "--chaos-stall-ms" => {
                opts.chaos_stall_ms = parse("--chaos-stall-ms", take_value(&mut i)?)?;
                opts.chaos_requested = true;
            }
            "--help" | "-h" => return Err(CliError::Usage("help".to_string())),
            other => return Err(CliError::Usage(format!("unknown argument {other:?}"))),
        }
        i += 1;
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_args(args)?;
    if let Some(path) = &opts.replay {
        return replay(&opts, Path::new(path));
    }
    if !opts.generate {
        return Err(CliError::Usage(
            "one of --generate or --replay is required".to_string(),
        ));
    }
    generate(&opts)
}

fn properties_for(name: &str) -> Result<Vec<Property>, CliError> {
    if name == "all" {
        return Ok(Property::ALL.to_vec());
    }
    Property::by_name(name)
        .map(|p| vec![p])
        .ok_or_else(|| CliError::Usage(format!("unknown property {name:?}")))
}

fn generate(opts: &Options) -> Result<(), CliError> {
    let system = opts
        .system
        .as_deref()
        .ok_or_else(|| CliError::Usage("--system is required".to_string()))?;
    let seed = opts
        .seed
        .ok_or_else(|| CliError::Usage("--seed is required".to_string()))?;
    let steps = opts
        .steps
        .ok_or_else(|| CliError::Usage("--steps is required".to_string()))?;
    let properties = properties_for(&opts.property)?;

    let mut harness = PlanHarness::new(system, opts.chaos())?;
    harness.set_deadline_ms(opts.deadline_ms);
    let executor = CampaignExecutor::new(opts.threads);

    let plan = harness.generate(&opts.profile, seed, steps)?;
    let trace = harness.run(&executor, &plan)?;
    println!(
        "plan {system} profile={} seed={seed} steps={}",
        opts.profile,
        plan.len()
    );
    for line in trace.render_lines() {
        println!("{line}");
    }

    let mut violations = Vec::new();
    for property in properties {
        let Some(violation) = property.evaluate(&trace) else {
            println!("property {}: ok", property.name());
            continue;
        };
        println!("property {}: VIOLATED — {violation}", property.name());
        if opts.shrink {
            if let Some(report) = harness.shrink(&executor, &plan, property)? {
                println!(
                    "  minimal counterexample: {} step(s) after {} run(s)",
                    report.minimal.len(),
                    report.runs
                );
                let record = harness.build_record(
                    &executor,
                    &opts.profile,
                    seed,
                    steps,
                    property,
                    &plan,
                    &report.minimal,
                )?;
                for line in &record.trace {
                    println!("  {line}");
                }
                if let Some(dir) = &opts.bugbase {
                    let path = BugBase::new(dir)
                        .store(&record)
                        .map_err(|e| CliError::Gate(e.to_string()))?;
                    println!("  recorded at {}", path.display());
                }
            }
        }
        violations.push(violation);
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(CliError::Gate(format!(
            "{} property violation(s)",
            violations.len()
        )))
    }
}

fn replay(opts: &Options, path: &Path) -> Result<(), CliError> {
    let record = BugBase::load(path).map_err(|e| CliError::Usage(e.to_string()))?;
    let harness = PlanHarness::from_record(&record)?;
    let executor = CampaignExecutor::new(opts.threads);
    println!(
        "replaying {} ({} {} seed={} property={})",
        path.display(),
        record.system,
        record.profile,
        record.seed,
        record.property
    );

    if opts.replay_seed {
        let rebuilt = harness.replay_seed(&executor, &record)?;
        return match rebuilt {
            Some(rebuilt) if rebuilt == record => {
                println!("seed replay reproduced the record exactly");
                Ok(())
            }
            Some(_) => Err(CliError::Gate(
                "seed replay produced a different record".to_string(),
            )),
            None => Err(CliError::Gate(
                "seed replay no longer violates the property".to_string(),
            )),
        };
    }

    let result = harness.replay_record(&executor, &record)?;
    for line in &result.trace {
        println!("{line}");
    }
    if result.matched {
        println!("replay reproduced the stored trace byte-for-byte");
        Ok(())
    } else if result.violated {
        Err(CliError::Gate(
            "replay still violates the property but the trace diverged".to_string(),
        ))
    } else {
        Err(CliError::Gate(
            "replay no longer violates the property".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate_args(extra: &[&str]) -> Vec<String> {
        [
            "--generate",
            "--system",
            "postgres",
            "--seed",
            "1",
            "--steps",
            "4",
        ]
        .iter()
        .chain(extra)
        .map(|arg| (*arg).to_string())
        .collect()
    }

    /// Whether the options `extra` adds pass argument parsing, harness
    /// construction and plan generation, without running the plan.
    fn accepted(extra: &[&str]) -> bool {
        let Ok(opts) = parse_args(&generate_args(extra)) else {
            return false;
        };
        let steps = opts.steps.expect("the arguments set --steps");
        PlanHarness::new("postgres", opts.chaos())
            .and_then(|harness| harness.generate(&opts.profile, 1, steps))
            .is_ok()
    }

    #[test]
    fn chaos_rates_and_steps_accept_only_values_in_range() {
        for extra in [
            &["--chaos-panic", "5000"][..],
            &["--chaos-fail-test", "1001"],
            &[
                "--chaos-panic",
                "600",
                "--chaos-stall",
                "300",
                "--chaos-fail",
                "101",
            ],
            &["--steps", "10001"],
            &["--steps", "100000000000"],
        ] {
            assert!(
                matches!(run(&generate_args(extra)), Err(CliError::Usage(_))),
                "{extra:?}"
            );
            assert!(!accepted(extra), "{extra:?}");
        }
        for extra in [
            &["--chaos-panic", "1000"][..],
            &[
                "--chaos-panic",
                "600",
                "--chaos-stall",
                "300",
                "--chaos-fail",
                "100",
            ],
            &["--chaos-fail-test", "1000"],
            &["--steps", "10000"],
        ] {
            assert!(accepted(extra), "{extra:?}");
        }
        assert!(USAGE.contains(&format!("at most {}", conferr_plan::MAX_STEPS)));
    }
}

//! [`ProcessSut`]: the [`SystemUnderTest`] adapter over an external
//! process.
//!
//! One `start` is one supervised child: materialize the mutated
//! payload into a fresh [`SandboxGuard`], spawn the configured
//! command against it, wait under a **hard** deadline, classify the
//! exit through the spec's [`DiagnosticRule`] table. Everything lives
//! on the stack of `start`, so every exit path — clean classify,
//! kill-on-overrun, panic on an undeclared exit code — drops the
//! guard and removes the sandbox.
//!
//! Failure vocabulary (the chaos contract):
//!
//! * overran the hard budget → killed, reaped,
//!   [`StartOutcome::TimedOut`]`{phase: "process"}`;
//! * exit code a rule declares → that rule's [`StartOutcome`];
//! * signal death, undeclared exit code, spawn failure → panic, which
//!   the executor's per-fault isolation records as a harness failure
//!   and routes through its retry policy into quarantine.

use std::fmt;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use conferr_analysis::DirectiveSchema;
use conferr_sut::{
    ConfigFileSpec, ConfigPayload, Deadline, StartOutcome, SystemUnderTest, TestOutcome, Tier,
};

use crate::rules::{classify, stub_rules, DiagnosticRule};
use crate::sandbox::SandboxGuard;
use crate::supervise::{supervise, WaitResult};

/// Everything needed to run one external system under the campaign:
/// which files it reads, how to invoke its validator, how to read its
/// exit surface, and how hard to bound it.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// System name carried by profiles, e.g. `"apache-proc"`.
    pub system: String,
    /// The configuration files, formats and defaults — same contract
    /// as a simulator's [`SystemUnderTest::config_files`].
    pub files: Vec<ConfigFileSpec>,
    /// The binary to spawn for each start.
    pub program: PathBuf,
    /// Arguments, with two substitution tokens: `{dir}` expands to
    /// the sandbox directory, `{file:NAME}` to the sandboxed path of
    /// configuration file `NAME`.
    pub args: Vec<String>,
    /// Extra environment for the child.
    pub env: Vec<(String, String)>,
    /// The exit-code/stderr classification table.
    pub rules: Vec<DiagnosticRule>,
    /// The adapter's own hard wall-clock cap per start; the binding
    /// budget is [`Deadline::hard_budget`] of this and the campaign's
    /// soft deadline.
    pub start_budget: Duration,
    /// Most stderr bytes ever read back for diagnostics.
    pub stderr_cap: usize,
    /// The system's directive schema, when extracted — enables the
    /// same static pre-flight the simulators get.
    pub schema: Option<&'static DirectiveSchema>,
}

/// A [`SystemUnderTest`] that spawns and supervises an external
/// process per start. Stateless between faults: the process never
/// outlives `start`, so there is nothing to stop and no functional
/// tests to run — the process tier confirms *startup* verdicts.
pub struct ProcessSut {
    spec: ProcessSpec,
}

impl fmt::Debug for ProcessSut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessSut")
            .field("system", &self.spec.system)
            .field("program", &self.spec.program)
            .finish()
    }
}

impl ProcessSut {
    /// Wraps a spec.
    pub fn new(spec: ProcessSpec) -> Self {
        ProcessSut { spec }
    }

    /// The adapter's spec.
    pub fn spec(&self) -> &ProcessSpec {
        &self.spec
    }

    /// Expands the `{dir}` / `{file:NAME}` tokens of one argument.
    fn expand_arg(&self, arg: &str, sandbox: &SandboxGuard) -> String {
        if arg == "{dir}" {
            return sandbox.path().to_string_lossy().into_owned();
        }
        if let Some(name) = arg.strip_prefix("{file:").and_then(|r| r.strip_suffix('}')) {
            return sandbox.file_path(name).to_string_lossy().into_owned();
        }
        arg.to_string()
    }
}

impl SystemUnderTest for ProcessSut {
    fn name(&self) -> &str {
        &self.spec.system
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.spec.files.clone()
    }

    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        let budget = deadline.hard_budget(self.spec.start_budget);
        let sandbox = SandboxGuard::new(&self.spec.system)
            .unwrap_or_else(|e| panic!("{}: sandbox: {e}", self.spec.system));
        for file in &self.spec.files {
            let text = configs
                .text(&file.name)
                .unwrap_or(file.default_contents.as_str());
            sandbox
                .write_file(&file.name, text)
                .unwrap_or_else(|e| panic!("{}: materialize {}: {e}", self.spec.system, file.name));
        }
        let mut cmd = Command::new(&self.spec.program);
        for arg in &self.spec.args {
            cmd.arg(self.expand_arg(arg, &sandbox));
        }
        for (k, v) in &self.spec.env {
            cmd.env(k, v);
        }
        cmd.current_dir(sandbox.path());
        match supervise(cmd, sandbox.path(), budget, self.spec.stderr_cap) {
            Ok(WaitResult::KilledOnOverrun { .. }) => StartOutcome::TimedOut {
                phase: "process".to_string(),
                budget_ms: u64::try_from(budget.as_millis()).unwrap_or(u64::MAX),
            },
            Ok(WaitResult::Exited { code: None, stderr }) => panic!(
                "{}: child died on a signal (stderr: {})",
                self.spec.system,
                first_line(&stderr)
            ),
            Ok(WaitResult::Exited {
                code: Some(code),
                stderr,
            }) => classify(&self.spec.rules, code, &stderr).unwrap_or_else(|| {
                panic!(
                    "{}: undeclared exit code {code} (stderr: {})",
                    self.spec.system,
                    first_line(&stderr)
                )
            }),
            Err(e) => panic!("{}: {e}", self.spec.system),
        }
        // `sandbox` drops here on every path above — including the
        // panicking ones, whose unwind runs Drop before the
        // executor's catch_unwind sees the payload.
    }

    fn test_names(&self) -> Vec<String> {
        Vec::new()
    }

    fn run_test(&mut self, test: &str, _deadline: &Deadline) -> TestOutcome {
        TestOutcome::failed(format!("process tier has no functional test '{test}'"))
    }

    fn stop(&mut self) {}

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        self.spec.schema
    }

    fn tier(&self) -> Tier {
        Tier::Proc
    }
}

/// First non-empty stderr line, truncated for panic messages.
fn first_line(stderr: &str) -> String {
    let line = stderr
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty())
        .unwrap_or("<empty>");
    let mut s: String = line.chars().take(200).collect();
    if s.len() < line.len() {
        s.push_str("...");
    }
    s
}

/// A [`conferr::SutFactory`] producing fresh [`ProcessSut`]s from one
/// spec — the process-tier analogue of `sut_factory(ApacheSim::new)`.
pub fn process_factory(spec: ProcessSpec) -> conferr::SutFactory {
    conferr::SutFactory::from_boxed(move || Box::new(ProcessSut::new(spec.clone())))
}

/// Spec for the committed `conferr-stub-apachectl` validator: the
/// Apache simulator's configuration surface checked by an external
/// process re-using the same extracted dialect deciders, so CI needs
/// no system packages.
pub fn apachectl_spec(program: PathBuf) -> ProcessSpec {
    ProcessSpec {
        system: "apache-proc".to_string(),
        files: conferr_sut::ApacheSim::new().config_files(),
        program,
        args: vec!["{file:httpd.conf}".to_string()],
        env: Vec::new(),
        rules: stub_rules(),
        start_budget: Duration::from_secs(2),
        stderr_cap: 64 * 1024,
        schema: Some(&conferr_analysis::APACHE_SCHEMA),
    }
}

/// Spec for the committed `conferr-stub-checkconf` validator over the
/// djbdns `data` file.
pub fn checkconf_spec(program: PathBuf) -> ProcessSpec {
    ProcessSpec {
        system: "djbdns-proc".to_string(),
        files: conferr_sut::DjbdnsSim::new().config_files(),
        program,
        args: vec!["{file:data}".to_string()],
        env: Vec::new(),
        rules: stub_rules(),
        start_budget: Duration::from_secs(2),
        stderr_cap: 64 * 1024,
        schema: Some(&conferr_analysis::DJBDNS_SCHEMA),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_sut::{ApacheSim, AppServerSim, BindSim, DjbdnsSim, MySqlSim, PostgresSim};

    /// The campaign engine lints its own parse of each file, made with
    /// the format `config_files()` declares, and builds no analysis for
    /// a schema that reads a file in another format. Every committed
    /// SUT must therefore agree with its schema file for file.
    #[test]
    fn committed_schemas_read_files_in_their_declared_formats() {
        let suts: Vec<Box<dyn SystemUnderTest>> = vec![
            Box::new(MySqlSim::new()),
            Box::new(PostgresSim::new()),
            Box::new(ApacheSim::new()),
            Box::new(BindSim::new()),
            Box::new(DjbdnsSim::new()),
            Box::new(AppServerSim::new()),
            Box::new(ProcessSut::new(apachectl_spec(PathBuf::new()))),
            Box::new(ProcessSut::new(checkconf_spec(PathBuf::new()))),
        ];
        for sut in &suts {
            let schema = sut
                .schema()
                .expect("every committed SUT publishes a schema");
            let declared: Vec<(String, String)> = sut
                .config_files()
                .into_iter()
                .map(|spec| (spec.name, spec.format))
                .collect();
            let read: Vec<(String, String)> = schema
                .files
                .iter()
                .map(|fs| (fs.file.to_string(), fs.format.to_string()))
                .collect();
            assert_eq!(declared, read, "{}", sut.name());
        }
    }
}

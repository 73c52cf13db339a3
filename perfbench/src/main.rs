//! `perfbench` — runs one workload of the repository benchmark and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload <typo-distinct|compound-stream|warm-rerun>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! perfbench --record <first-seed> <last-seed>
//! ```
//!
//! A run repeats set-up and fault phase in rounds until the fault
//! phases add up to `--seconds`, checks every submission's outcome
//! digest against the one recorded for the workload and seed, and
//! prints one JSON line last: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A traced run alternates
//! traced and untraced rounds, which gives the tracing overhead, and
//! ends with the cold replay of the engine's inner layers. `--record`
//! prints the reference digest of every workload for a seed range, in
//! the format of `expected-digests.txt`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use conferr::CampaignError;
use conferr_perfbench::replay::{replay, Replay};
use conferr_perfbench::sys::{peak_rss_mb, reset_peak_rss};
use conferr_perfbench::trace::{Collector, Layer, Totals};
use conferr_perfbench::workload::{reference_digest, Inputs, Setup, Submission, Workload};

/// Reference digests per workload and seed: `<workload> <seed> <hex>`.
const EXPECTED: &str = include_str!("../expected-digests.txt");
/// The seeds `EXPECTED` covers, for messages.
const RECORDED_SEEDS: &str = "0 to 127";

/// Set-up/fault-phase rounds of `warm-rerun`; the others repeat their
/// fixed-size submission until the time is used.
const WARM_ROUNDS: usize = 6;
/// Fewest rounds of any run.
const MIN_ROUNDS: usize = 4;
/// Set-ups timed per round. A `typo-distinct` set-up takes about a
/// millisecond, so one sample per round is mostly noise.
const SETUP_REPS: usize = 4;
/// A run stops starting rounds after this much wall time.
const WALL_LIMIT: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Record(u64, u64),
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        let seed = |i: usize| -> Result<u64, String> {
            argv.get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| "--record takes <first-seed> <last-seed>".to_string())
        };
        return Ok(Command::Record(seed(1)?, seed(2)?));
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse().ok().filter(|s| *s > 0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    }))
}

fn expected_digest(workload: Workload, seed: u64) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload.name() && s.parse() == Ok(seed)).then(|| u64::from_str_radix(d, 16).ok())?
    })
}

/// Fault-phase samples and counters of one kind of round (traced or
/// untraced).
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    faults_per_s: Vec<f64>,
    cpu_us_per_fault: Vec<f64>,
    wall: Duration,
    faults: usize,
}

impl Phase {
    fn add(&mut self, sub: &Submission) {
        let secs = sub.wall.as_secs_f64();
        self.faults_per_s.push(sub.faults as f64 / secs);
        self.cpu_us_per_fault
            .push(sub.cpu.as_secs_f64() * 1e6 / sub.faults as f64);
        self.wall += sub.wall;
        self.faults += sub.faults;
    }
}

/// What every submission of the run adds up to.
#[derive(Default)]
struct Run {
    untraced: Phase,
    traced: Phase,
    totals: Totals,
    attempted: usize,
    failed: usize,
    quarantined: usize,
    retries: usize,
    peak_buffered: usize,
    mismatches: Vec<String>,
    /// The replayed engine layers, one pass per traced round.
    replayed: Replay,
    /// The last traced round's collector, whose spans are written out.
    last_collector: Option<Arc<Collector>>,
}

impl Run {
    fn phase(&mut self, traced: bool) -> &mut Phase {
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
    }

    fn check(&mut self, sub: &Submission, expected: u64, what: &str) {
        self.attempted += sub.faults;
        self.failed += sub.failed;
        self.retries += sub.stats.retries;
        self.peak_buffered = self.peak_buffered.max(sub.stats.peak_buffered);
        if sub.digest != expected {
            self.mismatches.push(format!(
                "{what}: digest {:016x}, expected {expected:016x}",
                sub.digest
            ));
        }
    }

    /// Counts a finished set-up's quarantined faults, then drops it:
    /// that joins the workers, whose traced SUTs merge their spans into
    /// the collector as they go.
    fn retire(&mut self, setup: Setup) {
        self.quarantined += setup.executor.quarantined().len();
    }
}

/// The `q` quantile of `values`, interpolated between neighbours.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Throughput of the faster rounds: other work on the machine only
/// ever slows a round down, so the upper quartile of per-submission
/// rates tracks the engine rather than its neighbours.
fn best_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.75)
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Record(first, last)) => record(first, last),
        Err(e) => Err(e),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

fn record(first: u64, last: u64) -> Result<ExitCode, String> {
    println!(
        "# workload seed digest — reference output digests, from: perfbench --record {first} {last}"
    );
    for workload in Workload::ALL {
        for seed in first..=last {
            let inputs = Inputs::build(workload, seed).map_err(|e| e.to_string())?;
            let digest = reference_digest(&inputs, 1).map_err(|e| e.to_string())?;
            println!("{} {seed} {digest:016x}", workload.name());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload;
    let inputs = Inputs::build(workload, args.seed).map_err(|e| e.to_string())?;
    let expected = if let Some(digest) = expected_digest(workload, args.seed) {
        digest
    } else {
        // Without a record, the only reference is this same code on
        // another thread count: that catches output that depends on
        // scheduling, not a change every thread count shares.
        let threads = if workload.threads() == 1 { 2 } else { 1 };
        eprintln!(
            "perfbench: no recorded digest for {} seed {} (recorded: {RECORDED_SEEDS}); \
             checking only against a fresh {threads}-thread run",
            workload.name(),
            args.seed
        );
        reference_digest(&inputs, threads).map_err(|e| e.to_string())?
    };
    // The peak memory is the workload's, not the input generator's:
    // typo-distinct's inputs are cut from a space 16 times their size.
    reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;
    let run = measure(args, &inputs, expected).map_err(|e| e.to_string())?;

    let metrics = if args.trace {
        if let (Some(path), Some(collector)) = (&args.trace_out, &run.last_collector) {
            let file =
                std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
            collector
                .write_spans(std::io::BufWriter::new(file))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        layer_metrics(&run, workload.threads())
    } else {
        let p = &run.untraced;
        vec![
            ("setup_s", quantile(&p.setup_s, 0.25), "s"),
            ("faults_per_s", best_rate(&p.faults_per_s), "faults/s"),
            (
                "cpu_us_per_fault",
                quantile(&p.cpu_us_per_fault, 0.25),
                "us",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    Ok(report(workload, &run, &metrics))
}

/// Repeats set-up and fault phase until the fault phases have used
/// `--seconds` (half traced, half untraced with `--trace 1`).
fn measure(args: &Args, inputs: &Inputs, expected: u64) -> Result<Run, CampaignError> {
    let started = Instant::now();
    let warm = args.workload == Workload::WarmRerun;
    let budget = Duration::from_secs(args.seconds);
    let per_kind = if args.trace { budget / 2 } else { budget };
    let finished = |round: usize, run: &Run| {
        if warm {
            return round >= WARM_ROUNDS;
        }
        let used = run.untraced.wall >= per_kind && (!args.trace || run.traced.wall >= per_kind);
        round >= MIN_ROUNDS && (used || started.elapsed() > WALL_LIMIT)
    };
    // The replay runs after every traced round, so that it and the
    // traced rounds it is reconciled with share the machine's state.
    let replay_faults = if args.trace {
        inputs.submitted_faults()?
    } else {
        Vec::new()
    };

    let mut run = Run::default();
    for round in 0.. {
        if finished(round, &run) {
            break;
        }
        let traced = args.trace && round % 2 == 0;
        let collector = traced.then(Collector::new);
        // Set-up is timed several times per round; every set-up but
        // the last is dropped (outside the timing) unused.
        let mut setup = None;
        for _ in 0..SETUP_REPS {
            if let Some(old) = setup.take() {
                run.retire(old);
            }
            let t0 = Instant::now();
            let fresh = Setup::new(inputs, args.workload.threads(), collector.as_ref())?;
            if warm {
                let cold = fresh.submit(inputs, false)?;
                run.check(&cold, expected, "cold submission");
            }
            run.phase(traced).setup_s.push(t0.elapsed().as_secs_f64());
            setup = Some(fresh);
        }
        let setup = setup.expect("SETUP_REPS is not 0");
        let mut round_wall = Duration::ZERO;
        loop {
            let sub = setup.submit(inputs, true)?;
            run.check(&sub, expected, &format!("round {round}"));
            round_wall += sub.wall;
            run.phase(traced).add(&sub);
            if !warm || round_wall >= budget / WARM_ROUNDS as u32 {
                break;
            }
        }
        run.retire(setup);
        if let Some(collector) = collector {
            run.totals.merge(&collector.totals());
            run.last_collector = Some(collector);
            run.replayed.merge(&replay(&replay_faults, warm)?);
        }
    }
    run.failed += run.quarantined;
    Ok(run)
}

/// Prints every metric by name and unit on stderr and the result line
/// on stdout; the exit code says whether every digest matched.
fn report(workload: Workload, run: &Run, metrics: &[(&str, f64, &str)]) -> ExitCode {
    for m in &run.mismatches {
        eprintln!("perfbench: output mismatch: {m}");
    }
    for (name, value, unit) in metrics {
        eprintln!(
            "{:<36} {value:>14.4} {unit}",
            format!("{}.{name}", workload.name())
        );
    }
    let correct = run.mismatches.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted, run.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced run: decorator totals from the
/// traced rounds, the cold replay for the layers inside the engine,
/// and the reconciliation of both against the traced wall time.
fn layer_metrics(run: &Run, threads: usize) -> Vec<(&'static str, f64, &'static str)> {
    let (t, replayed) = (&run.totals, &run.replayed);
    let faults = run.traced.faults.max(1) as f64;
    let per_fault_us = |ns: u64| ns as f64 / faults / 1e3;
    let replay_faults = replayed.faults.max(1) as f64;
    let replay_us = |ns: u64| ns as f64 / replay_faults / 1e3;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let e2e_us = run.traced.wall.as_secs_f64() * threads as f64 * 1e6 / faults;
    let decorated_us = per_fault_us(Layer::ALL.iter().map(|l| t.nanos(*l)).sum::<u64>());
    let layers_us = decorated_us + replay_us(replayed.preparation_ns());
    let engine_self_us = e2e_us - layers_us;
    let traced_fps = best_rate(&run.traced.faults_per_s);
    let untraced_fps = best_rate(&run.untraced.faults_per_s);
    vec![
        ("sut.start_us", per_fault_us(t.nanos(Layer::SutStart)), "us"),
        ("sut.tests_us", per_fault_us(t.nanos(Layer::SutTest)), "us"),
        ("sut.stop_us", per_fault_us(t.nanos(Layer::SutStop)), "us"),
        (
            "sut.tests_per_fault",
            t.calls(Layer::SutTest) as f64 / faults,
            "count",
        ),
        (
            "sut.starts_per_fault",
            t.calls(Layer::SutStart) as f64 / faults,
            "count",
        ),
        (
            "sut.parse_cache_hit_ratio",
            ratio(t.cache_hits, t.cache_hits + t.cache_misses),
            "ratio",
        ),
        ("analysis.lint_us", replay_us(replayed.lint_ns), "us"),
        (
            "analysis.decisive_share",
            ratio(t.decisive, t.rows),
            "ratio",
        ),
        ("model.apply_us", replay_us(replayed.apply_ns), "us"),
        (
            "model.source_us",
            per_fault_us(t.nanos(Layer::Source)),
            "us",
        ),
        ("tree.diff_us", replay_us(replayed.diff_ns), "us"),
        (
            "formats.serialize_us",
            replay_us(replayed.serialize_ns),
            "us",
        ),
        ("formats.parse_us", replay_us(replayed.parse_ns), "us"),
        ("core.sink_us", per_fault_us(t.nanos(Layer::Sink)), "us"),
        ("core.engine_self_us", engine_self_us, "us"),
        ("core.e2e_us", e2e_us, "us"),
        ("core.peak_buffered", run.peak_buffered as f64, "count"),
        ("core.retries", run.retries as f64, "count"),
        ("core.quarantined", run.quarantined as f64, "count"),
        (
            "core.failed_share",
            ratio(run.failed as u64, run.attempted as u64),
            "ratio",
        ),
        (
            "core.layer_gap_pct",
            (engine_self_us / e2e_us).abs() * 100.0,
            "%",
        ),
        (
            "core.trace_overhead_pct",
            (untraced_fps / traced_fps - 1.0) * 100.0,
            "%",
        ),
    ]
}

//! Chaos wrapper for robustness testing of the campaign harness.
//!
//! [`ChaosSut`] wraps any [`SystemUnderTest`] and, at seeded per-fault
//! rates, makes its `start` misbehave the way a flaky real system (or
//! a buggy adapter) would: panic, stall past the fault deadline, or
//! refuse to start. The decision is a pure function of the mutated
//! payload text and the configured seed, so it is identical across
//! thread counts, chunk sizes and reruns — which is what lets the
//! robustness suites assert that every *non*-chaos outcome of a chaos
//! run is byte-identical to a clean reference run.
//!
//! Baseline payloads (no [`TextOrigin::Mutated`] entry) are never
//! perturbed, so engine scouting and health probes always succeed.
//!
//! This lives in the library (rather than a test module) so the
//! executor tests, the umbrella robustness suite and the resume smoke
//! binary all share one implementation.

use std::time::Duration;

use crate::deadline::Deadline;
use crate::payload::{ConfigPayload, TextOrigin};
use crate::{
    CacheStats, ConfigFileSpec, DirectiveSchema, StartOutcome, SystemUnderTest, TestOutcome,
};

/// Seeded per-fault misbehaviour rates for a [`ChaosSut`].
///
/// The three rates are cumulative probabilities in `[0, 1]`; their sum
/// should not exceed 1. A fault rolls one uniform value and the first
/// bucket it lands in wins: panic, then stall, then start failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed into every per-fault roll.
    pub seed: u64,
    /// Probability that `start` panics.
    pub panic_rate: f64,
    /// Probability that `start` sleeps for [`ChaosConfig::stall_for`]
    /// before delegating (tripping the fault deadline, if one is set).
    pub stall_rate: f64,
    /// Probability that `start` reports a start failure without
    /// consulting the wrapped system.
    pub fail_rate: f64,
    /// Probability that a *functional test* run after a mutated start
    /// fabricates a failure (independent of the start-phase rates;
    /// rolled per (payload, test) pair, so it is just as deterministic
    /// as the start actions). Tests after a baseline start never
    /// fail — scouting stays clean.
    pub fail_test_rate: f64,
    /// How long a stall sleeps.
    pub stall_for: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            panic_rate: 0.0,
            stall_rate: 0.0,
            fail_rate: 0.0,
            fail_test_rate: 0.0,
            stall_for: Duration::from_millis(200),
        }
    }
}

/// What a [`ChaosSut`] decided to do for one fault's `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Delegate untouched.
    Pass,
    /// Panic (exercises harness isolation).
    Panic,
    /// Sleep [`ChaosConfig::stall_for`], then delegate (exercises the
    /// deadline watchdog).
    Stall,
    /// Report `FailedToStart` without delegating (exercises ordinary
    /// error paths).
    FailStart,
}

/// Diagnostic prefix of every outcome a [`ChaosSut`] fabricates, so
/// tests can separate chaos-affected outcomes from real ones.
pub const CHAOS_PREFIX: &str = "chaos:";

// Byte-wise 64-bit FNV-1a, to which the seeded chaos decisions are
// pinned.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = hash;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

// SplitMix64 finalizer, same construction as the model layer's
// deterministic sampling.
fn splitmix(seed: u64, value: u64) -> u64 {
    let mut z = seed ^ value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Salt mixed into test-failure rolls so they are independent of the
/// start-action roll for the same payload.
const TEST_SALT: u64 = 0x7e57_7e57_7e57_7e57;

/// Maps a mixed hash to `[0, 1)` with 53-bit precision.
fn unit_roll(mixed: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let roll = (mixed >> 11) as f64 / (1u64 << 53) as f64;
    roll
}

impl ChaosConfig {
    /// FNV-1a hash of the payload's *mutated* entries, `None` when the
    /// payload is purely baseline (scout probes, health checks) — the
    /// per-fault identity every chaos decision keys on.
    pub fn mutated_hash(payload: &ConfigPayload) -> Option<u64> {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let mut hash = FNV_OFFSET;
        let mut mutated = false;
        for (name, file) in payload.iter() {
            if file.origin() == TextOrigin::Mutated {
                mutated = true;
                hash = fnv1a(hash, name.as_bytes());
                hash = fnv1a(hash, file.text().as_bytes());
            }
        }
        mutated.then_some(hash)
    }

    /// `true` iff a functional test named `test`, run after a start
    /// whose payload hashed to `payload_hash`, should fabricate a
    /// failure. Pure function of (seed, payload, test name).
    pub fn fails_test(&self, payload_hash: u64, test: &str) -> bool {
        if self.fail_test_rate <= 0.0 {
            return false;
        }
        let mixed = splitmix(self.seed ^ TEST_SALT, fnv1a(payload_hash, test.as_bytes()));
        unit_roll(mixed) < self.fail_test_rate
    }

    /// The action for one payload: a pure function of the seed and the
    /// payload's *mutated* file texts. Payloads with no mutated entry
    /// (baselines, scout probes) always [`ChaosAction::Pass`].
    pub fn action_for(&self, payload: &ConfigPayload) -> ChaosAction {
        let Some(hash) = Self::mutated_hash(payload) else {
            return ChaosAction::Pass;
        };
        let roll = unit_roll(splitmix(self.seed, hash));
        if roll < self.panic_rate {
            ChaosAction::Panic
        } else if roll < self.panic_rate + self.stall_rate {
            ChaosAction::Stall
        } else if roll < self.panic_rate + self.stall_rate + self.fail_rate {
            ChaosAction::FailStart
        } else {
            ChaosAction::Pass
        }
    }
}

/// A [`SystemUnderTest`] decorator that injects harness-level faults
/// (panics, stalls, start failures) at seeded per-fault rates while
/// delegating everything else to the wrapped system. See the module
/// docs for the determinism contract.
#[derive(Debug)]
pub struct ChaosSut<S> {
    inner: S,
    config: ChaosConfig,
    /// Mutated-payload hash of the most recent `start` (`None` after a
    /// baseline start or `stop`) — the identity test-failure rolls key
    /// on.
    started: Option<u64>,
}

impl<S: SystemUnderTest> ChaosSut<S> {
    /// Wraps `inner` with the given chaos rates.
    pub fn new(inner: S, config: ChaosConfig) -> Self {
        ChaosSut {
            inner,
            config,
            started: None,
        }
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The chaos configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }
}

impl<S: SystemUnderTest> SystemUnderTest for ChaosSut<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.inner.config_files()
    }

    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        self.started = ChaosConfig::mutated_hash(configs);
        match self.config.action_for(configs) {
            ChaosAction::Pass => self.inner.start(configs, deadline),
            ChaosAction::Panic => panic!("{CHAOS_PREFIX} injected harness panic"),
            ChaosAction::Stall => {
                std::thread::sleep(self.config.stall_for);
                self.inner.start(configs, deadline)
            }
            ChaosAction::FailStart => StartOutcome::FailedToStart {
                diagnostic: format!("{CHAOS_PREFIX} injected start failure"),
            },
        }
    }

    fn test_names(&self) -> Vec<String> {
        self.inner.test_names()
    }

    fn run_test(&mut self, test: &str, deadline: &Deadline) -> TestOutcome {
        if let Some(hash) = self.started {
            if self.config.fails_test(hash, test) {
                return TestOutcome::Failed {
                    diagnostic: format!("{CHAOS_PREFIX} injected test failure"),
                };
            }
        }
        self.inner.run_test(test, deadline)
    }

    fn stop(&mut self) {
        self.started = None;
        self.inner.stop();
    }

    fn set_parse_caching(&mut self, enabled: bool) {
        self.inner.set_parse_caching(enabled);
    }

    fn parse_cache_stats(&self) -> Option<CacheStats> {
        self.inner.parse_cache_stats()
    }

    fn tier(&self) -> crate::Tier {
        self.inner.tier()
    }

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        self.inner.schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::FileText;
    use crate::{default_payload, MySqlSim};

    fn mutated_payload(text: &str) -> ConfigPayload {
        let mut payload = default_payload(&MySqlSim::new());
        payload.insert("my.cnf".to_string(), FileText::mutated(text.to_string()));
        payload
    }

    #[test]
    fn baseline_payloads_are_never_perturbed() {
        let config = ChaosConfig {
            panic_rate: 1.0,
            ..ChaosConfig::default()
        };
        let payload = default_payload(&MySqlSim::new());
        assert_eq!(config.action_for(&payload), ChaosAction::Pass);
    }

    #[test]
    fn actions_are_deterministic_per_payload() {
        let config = ChaosConfig {
            seed: 42,
            panic_rate: 0.25,
            stall_rate: 0.25,
            fail_rate: 0.25,
            ..ChaosConfig::default()
        };
        for i in 0..32 {
            let payload = mutated_payload(&format!("[mysqld]\nport = {i}\n"));
            let first = config.action_for(&payload);
            assert_eq!(first, config.action_for(&payload));
        }
    }

    #[test]
    fn rates_cover_all_actions_over_many_payloads() {
        let config = ChaosConfig {
            seed: 7,
            panic_rate: 0.3,
            stall_rate: 0.3,
            fail_rate: 0.3,
            ..ChaosConfig::default()
        };
        let mut seen = [false; 4];
        for i in 0..64 {
            let payload = mutated_payload(&format!("[mysqld]\nport = {i}\n"));
            match config.action_for(&payload) {
                ChaosAction::Pass => seen[0] = true,
                ChaosAction::Panic => seen[1] = true,
                ChaosAction::Stall => seen[2] = true,
                ChaosAction::FailStart => seen[3] = true,
            }
        }
        assert!(seen.iter().all(|&s| s), "all actions reachable: {seen:?}");
    }

    #[test]
    fn zero_rates_always_delegate() {
        let config = ChaosConfig::default();
        for i in 0..16 {
            let payload = mutated_payload(&format!("[mysqld]\nport = {i}\n"));
            assert_eq!(config.action_for(&payload), ChaosAction::Pass);
        }
    }

    #[test]
    fn fail_start_fabricates_prefixed_diagnostic() {
        let config = ChaosConfig {
            seed: 0,
            fail_rate: 1.0,
            ..ChaosConfig::default()
        };
        let mut sut = ChaosSut::new(MySqlSim::new(), config);
        let outcome = sut.start(
            &mutated_payload("[mysqld]\nport = 1\n"),
            &Deadline::unlimited(),
        );
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.starts_with(CHAOS_PREFIX));
            }
            other => panic!("expected chaos start failure, got {other:?}"),
        }
    }

    #[test]
    fn test_failures_roll_only_after_mutated_starts_and_deterministically() {
        let config = ChaosConfig {
            seed: 5,
            fail_test_rate: 0.5,
            ..ChaosConfig::default()
        };
        let mut sut = ChaosSut::new(MySqlSim::new(), config);
        let deadline = Deadline::unlimited();

        // Baseline start: every test passes, whatever the rate.
        assert!(sut
            .start(&default_payload(&MySqlSim::new()), &deadline)
            .is_running());
        for test in sut.test_names() {
            assert!(sut.run_test(&test, &deadline).passed());
        }
        sut.stop();

        // The fabrication decision is a pure function of
        // (payload hash, test name): rerolling reproduces it, and
        // across many payload hashes both outcomes occur.
        let mut failed_any = false;
        let mut passed_any = false;
        for hash in 0..64u64 {
            let first = config.fails_test(hash, "ping");
            assert_eq!(first, config.fails_test(hash, "ping"));
            failed_any |= first;
            passed_any |= !first;
        }
        assert!(failed_any && passed_any, "both outcomes reachable");
        // A zero rate never fabricates.
        assert!(!ChaosConfig::default().fails_test(1, "ping"));
    }

    #[test]
    fn fabricated_test_failures_carry_the_chaos_prefix() {
        let config = ChaosConfig {
            seed: 0,
            fail_test_rate: 1.0,
            ..ChaosConfig::default()
        };
        let mut sut = ChaosSut::new(MySqlSim::new(), config);
        let deadline = Deadline::unlimited();
        assert!(sut
            .start(&mutated_payload("[mysqld]\nport = 1\n"), &deadline)
            .is_running());
        let test = sut.test_names().remove(0);
        match sut.run_test(&test, &deadline) {
            TestOutcome::Failed { diagnostic } => {
                assert!(diagnostic.starts_with(CHAOS_PREFIX));
            }
            TestOutcome::Passed => panic!("expected fabricated failure"),
        }
        // After stop + a baseline start no payload hash is live, so
        // even a 1.0 rate delegates untouched.
        sut.stop();
        assert!(sut
            .start(&default_payload(&MySqlSim::new()), &deadline)
            .is_running());
        assert!(sut.run_test(&test, &deadline).passed());
    }

    #[test]
    fn delegation_preserves_inner_behaviour() {
        let mut sut = ChaosSut::new(MySqlSim::new(), ChaosConfig::default());
        let payload = default_payload(&MySqlSim::new());
        let deadline = Deadline::unlimited();
        assert!(sut.start(&payload, &deadline).is_running());
        for test in sut.test_names() {
            assert!(sut.run_test(&test, &deadline).passed());
        }
        sut.stop();
        assert_eq!(sut.name(), "mysql-sim");
        assert!(sut.schema().is_some());
    }
}

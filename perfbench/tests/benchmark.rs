//! Tests of the benchmark itself: its timing decorators must not
//! change a campaign's output, and its inputs must follow the seed.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use conferr_model::GeneratedFault;
use conferr_perfbench::trace::{Collector, Layer};
use conferr_perfbench::workload::{reference_digest, Inputs, Setup, Workload};

/// Faults per batch entry (and per stream) in the small slices.
const SLICE: usize = 60;

#[test]
fn traced_submissions_digest_like_untraced_ones() {
    for workload in Workload::ALL {
        let inputs = Inputs::sized(workload, 4, Some(SLICE)).unwrap();
        let reference = reference_digest(&inputs, 1).unwrap();
        for threads in [1, 2] {
            let collector = Collector::new();
            let plain = Setup::new(&inputs, threads, None)
                .unwrap()
                .submit(&inputs, true)
                .unwrap();
            let traced = Setup::new(&inputs, threads, Some(&collector))
                .unwrap()
                .submit(&inputs, true)
                .unwrap();
            let what = format!("{} at {threads} thread(s)", workload.name());
            assert_eq!(plain.digest, reference, "{what}");
            assert_eq!(
                traced.digest, reference,
                "{what}: tracing changed the output"
            );
            assert_eq!(plain.faults, inputs.faults_per_submission(), "{what}");
            assert_eq!(plain.failed, 0, "{what}");
            // The decorators really were in the path.
            let totals = collector.totals();
            assert!(totals.calls(Layer::SutStart) > 0, "{what}");
            assert_eq!(totals.calls(Layer::Sink), traced.faults as u64, "{what}");
            if workload == Workload::CompoundStream {
                assert!(totals.calls(Layer::Source) > 0, "{what}");
            }
        }
    }
}

fn ids(inputs: &Inputs) -> Vec<String> {
    inputs
        .submitted_faults()
        .unwrap()
        .iter()
        .flat_map(|(_, faults)| faults.iter())
        .map(|f| match f {
            GeneratedFault::Scenario(s) => s.id.clone(),
            GeneratedFault::Inexpressible { id, .. } => id.clone(),
        })
        .collect()
}

#[test]
fn the_seed_decides_the_inputs_and_the_digest() {
    for workload in Workload::ALL {
        let a = Inputs::sized(workload, 11, Some(SLICE)).unwrap();
        let again = Inputs::sized(workload, 11, Some(SLICE)).unwrap();
        let other = Inputs::sized(workload, 12, Some(SLICE)).unwrap();
        assert_eq!(ids(&a), ids(&again), "{}", workload.name());
        assert_ne!(ids(&a), ids(&other), "{}", workload.name());
        let digest = reference_digest(&a, 1).unwrap();
        assert_eq!(
            digest,
            reference_digest(&again, 1).unwrap(),
            "{}",
            workload.name()
        );
        assert_ne!(
            digest,
            reference_digest(&other, 1).unwrap(),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn full_size_typo_faults_are_distinct_single_edits() {
    let inputs = Inputs::build(Workload::TypoDistinct, 5).unwrap();
    for (system, faults) in &inputs.entries {
        let mut edits: Vec<_> = faults
            .iter()
            .map(|f| match f {
                GeneratedFault::Scenario(s) => s.edits.clone(),
                GeneratedFault::Inexpressible { .. } => panic!("{system:?}: inexpressible"),
            })
            .collect();
        assert!(edits.iter().all(|e| e.len() == 1), "{system:?}");
        let n = edits.len();
        edits.sort_by_key(|e| format!("{e:?}"));
        edits.dedup();
        assert!(
            edits.len() * 100 >= n * 99,
            "{system:?}: {} of {n} distinct",
            edits.len()
        );
    }
}

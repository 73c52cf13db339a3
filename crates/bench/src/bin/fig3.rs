//! Regenerates Figure 3: resilience to typos in directive values,
//! MySQL vs Postgres, across all directives (paper §5.5).
//!
//! ```text
//! cargo run -p conferr-bench --bin fig3 [seed]   # CONFERR_THREADS=n to pin workers
//! ```

use conferr::report::stacked_bar;
use conferr::CampaignExecutor;
use conferr::DetectionBand;
use conferr_bench::{figure3, threads_from_env, DEFAULT_SEED};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let executor = CampaignExecutor::new(threads_from_env());
    let report = figure3(&executor, seed).expect("figure 3 comparison failed");

    println!("Figure 3. Resilience to typos in MySQL and Postgres, across all directives");
    println!("(seed {seed}; 20 value-typo experiments per directive; booleans excluded)");
    println!();
    println!("{report}");
    println!(
        "band distribution (E=Excellent 75-100%, G=Good 50-75%, F=Fair 25-50%, P=Poor 0-25%):"
    );
    for system in &report.systems {
        let p = system.band_percentages();
        let bar = stacked_bar(&[('E', p[3]), ('G', p[2]), ('F', p[1]), ('P', p[0])], 50);
        println!("  {:<14} {bar}", system.system);
    }
    println!();
    for system in &report.systems {
        println!(
            "{} mean per-directive detection: {:.1}%",
            system.system,
            system.mean_detection_pct()
        );
    }
    println!();
    println!("per-directive detail:");
    for system in &report.systems {
        println!("  {}:", system.system);
        for d in &system.directives {
            println!(
                "    {:<34} {:>5.1}%  {:?} ({} of {} detected)",
                d.directive,
                d.detection_pct(),
                DetectionBand::of(d.detection_pct()),
                d.detected,
                d.experiments
            );
        }
    }
}

//! Comparing two functionally equivalent systems (paper §5.5).
//!
//! ```text
//! cargo run --example compare_databases
//! ```
//!
//! Runs the configuration-process benchmark: for every directive of a
//! full-coverage configuration, inject seeded value typos and measure
//! the fraction each database detects, then bin the per-directive
//! rates into the paper's Poor/Fair/Good/Excellent bands (Figure 3).

use conferr::report::stacked_bar;
use conferr::{sut_factory, value_typo_resilience, CampaignExecutor};
use conferr_keyboard::Keyboard;
use conferr_model::TypoKind;
use conferr_plugins::typos_of_kind;
use conferr_sut::{ConfigPayload, FileText, MySqlSim, PostgresSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let keyboard = Keyboard::qwerty_us();
    let mutator = move |value: &str| {
        let mut out = Vec::new();
        for kind in [
            TypoKind::Omission,
            TypoKind::Insertion,
            TypoKind::Substitution,
            TypoKind::CaseAlteration,
            TypoKind::Transposition,
        ] {
            out.extend(typos_of_kind(&keyboard, kind, value));
        }
        out
    };

    // Ten experiments per directive keeps the example fast; the paper
    // (and the fig3 bench binary) use twenty.
    let experiments = 10;
    let seed = 1912;

    // The batched runner parses each full-coverage configuration into
    // one shared engine, schedules every directive as a batch entry on
    // the persistent executor (one worker and one cached SUT instance
    // per core), and merges outcomes per directive; per-directive
    // seeding makes the numbers identical at every thread count. The
    // MySQL comparison reuses the worker pool the Postgres one warmed
    // up.
    let executor = CampaignExecutor::with_default_threads();

    let postgres = {
        let mut configs = ConfigPayload::new();
        configs.insert(
            "postgresql.conf",
            FileText::mutated(PostgresSim::full_coverage_config()),
        );
        value_typo_resilience(
            sut_factory(PostgresSim::new),
            &configs,
            &mutator,
            experiments,
            seed,
            &PostgresSim::boolean_directive_names(),
            &executor,
        )?
    };
    let mysql = {
        let mut configs = ConfigPayload::new();
        configs.insert(
            "my.cnf",
            FileText::mutated(MySqlSim::full_coverage_config()),
        );
        value_typo_resilience(
            sut_factory(MySqlSim::new),
            &configs,
            &mutator,
            experiments,
            seed,
            &MySqlSim::boolean_directive_names(),
            &executor,
        )?
    };

    println!("value-typo resilience, {experiments} experiments per directive:\n");
    for system in [&postgres, &mysql] {
        let p = system.band_percentages();
        println!(
            "{:<14} mean {:>5.1}%  {}",
            system.system,
            system.mean_detection_pct(),
            stacked_bar(&[('E', p[3]), ('G', p[2]), ('F', p[1]), ('P', p[0])], 40),
        );
    }
    println!("\n(E)xcellent 75-100%  (G)ood 50-75%  (F)air 25-50%  (P)oor 0-25%\n");

    let winner = if postgres.mean_detection_pct() > mysql.mean_detection_pct() {
        "Postgres"
    } else {
        "MySQL"
    };
    println!(
        "{winner} is markedly more robust to configuration typos — the paper's §5.5 \
         conclusion, driven by strict value parsing plus cross-directive constraint checks."
    );

    // Show a couple of the directives behind each verdict.
    println!("\nstrongest and weakest directives per system:");
    for system in [&postgres, &mysql] {
        let mut sorted = system.directives.clone();
        sorted.sort_by(|a, b| {
            a.detection_pct()
                .partial_cmp(&b.detection_pct())
                .expect("rates are finite")
        });
        if let (Some(worst), Some(best)) = (sorted.first(), sorted.last()) {
            println!(
                "  {:<14} best: {} ({:.0}%), worst: {} ({:.0}%)",
                system.system,
                best.directive,
                best.detection_pct(),
                worst.directive,
                worst.detection_pct()
            );
        }
    }
    Ok(())
}

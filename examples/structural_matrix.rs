//! Which semantically neutral configuration variations does each
//! system accept? (paper §5.3, Table 2)
//!
//! ```text
//! cargo run --example structural_matrix
//! ```
//!
//! For each variation class — reordering, whitespace, case changes,
//! truncated names — ten seeded variant configurations are generated;
//! a system "supports" the class when it accepts all ten. The matrix
//! shows which administrator mental-model variations each system
//! tolerates.

use conferr::{sut_factory, CampaignBatch, CampaignExecutor, ExecutorCampaign, InjectionResult};
use conferr_model::IntoFaultSource;
use conferr_plugins::{VariationClass, VariationPlugin};
use conferr_sut::{ApacheSim, MySqlSim, PostgresSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every (class, system) cell is a tiny campaign — exactly the
    // many-small-campaign workload the persistent executor exists
    // for. All applicable cells go into ONE batch: one entry per
    // cell, workers stealing across systems, each system's engine
    // shared by its five cells. Cells are pushed as lazy *sources*, so
    // each cell's variants are generated only when a worker claims
    // them — generation overlaps injection.
    let executor = CampaignExecutor::with_default_threads();
    let systems = [
        ("MySQL", ExecutorCampaign::new(sut_factory(MySqlSim::new))?),
        (
            "Postgres",
            ExecutorCampaign::new(sut_factory(PostgresSim::new))?,
        ),
        (
            "Apache",
            ExecutorCampaign::new(sut_factory(ApacheSim::new))?,
        ),
    ];

    let mut batch = CampaignBatch::new();
    let mut cells: Vec<Vec<Option<usize>>> = Vec::new(); // batch index per cell
    let mut scheduled = 0;
    for class in VariationClass::ALL {
        let mut row = Vec::new();
        for (name, campaign) in &systems {
            // The paper reports Apache's section order as n/a:
            // container order has defined semantics there (first
            // VirtualHost wins).
            if *name == "Apache" && class == VariationClass::SectionOrder {
                row.push(None);
                continue;
            }
            // Every applicable cell is pushed lazily; classes that
            // turn out to generate no variants come back as empty
            // profiles and render as n/a below — no eager probe.
            let plugin = VariationPlugin::new(class, 10, 1912);
            batch.push_source(campaign, Box::new(plugin.into_source(campaign.baseline())));
            row.push(Some(scheduled));
            scheduled += 1;
        }
        cells.push(row);
    }
    let profiles = executor.run_batch(batch)?;

    println!(
        "{:<28} {:<8} {:<8} {:<8}",
        "variation class", "MySQL", "Postgres", "Apache"
    );
    println!("{}", "-".repeat(56));
    for (class, row) in VariationClass::ALL.iter().zip(cells) {
        let verdicts: Vec<String> = row
            .into_iter()
            .map(|cell| match cell {
                None => "n/a".to_string(),
                Some(idx) if profiles[idx].is_empty() => "n/a".to_string(),
                Some(idx) => {
                    let rejected = profiles[idx]
                        .outcomes()
                        .iter()
                        .filter(|o| !matches!(o.result, InjectionResult::Undetected { .. }))
                        .count();
                    if rejected == 0 {
                        "Yes".to_string()
                    } else {
                        format!("No ({rejected}/10 rejected)")
                    }
                }
            })
            .collect();
        println!(
            "{:<28} {:<8} {:<8} {:<8}",
            class.label(),
            verdicts[0],
            verdicts[1],
            verdicts[2],
        );
    }
    println!();
    println!(
        "an ideal system would accept every neutral variation; none of the three does\n\
         (paper §5.3: \"we do believe that all three systems should offer the flexibility\n\
         of all mutations\")"
    );
    Ok(())
}

//! Quickstart: measure a database's resilience to configuration
//! typos in under a minute.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The campaign parses MySQL's default `my.cnf`, generates every
//! single-edit typo against directive names and values using a real
//! keyboard model, injects each one, and classifies how the server
//! responds — the end-to-end loop of the ConfErr paper's Figure 1.
//!
//! This is the minimal *serial* driver. For large fault loads, run
//! the same faults through a `conferr::CampaignExecutor` and an
//! `ExecutorCampaign` (the `structural_matrix` example shows how) to
//! shard injections across every core with byte-identical results.

use conferr::{Campaign, InjectionResult};
use conferr_keyboard::Keyboard;
use conferr_plugins::{TokenClass, TypoPlugin};
use conferr_sut::MySqlSim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut)?;
    campaign.add_generator(Box::new(TypoPlugin::new(
        Keyboard::qwerty_us(),
        TokenClass::DirectiveNames,
    )));
    campaign.add_generator(Box::new(TypoPlugin::new(
        Keyboard::qwerty_us(),
        TokenClass::DirectiveValues,
    )));

    let profile = campaign.run()?;
    println!("{profile}");

    // The interesting rows: mistakes the server silently absorbed.
    println!("example silently-absorbed mistakes:");
    for outcome in profile.undetected().take(8) {
        println!("  - {} ({})", outcome.description, outcome.class);
        for line in outcome.diff.iter() {
            println!("      {line}");
        }
    }

    // And the ones an administrator would only discover in production.
    let latent = profile
        .outcomes()
        .iter()
        .filter(|o| {
            matches!(o.result, InjectionResult::Undetected { .. }) && o.id.contains("mysqldump")
        })
        .count();
    println!();
    println!(
        "{latent} mistakes in the [mysqldump] tool section were absorbed at startup — they \
         would only surface when the nightly backup cron job runs (paper §5.2's latent-error \
         design flaw)"
    );
    Ok(())
}

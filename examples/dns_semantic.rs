//! Semantic DNS error injection against BIND and djbdns (paper §5.4).
//!
//! ```text
//! cargo run --example dns_semantic
//! ```
//!
//! Generates RFC-1912 misconfigurations on the abstract DNS record
//! set and maps them back through each server's configuration format.
//! The output shows all three possible fates: faults BIND's zone
//! loader catches, faults that load silently, and faults that djbdns'
//! combined `=` directive makes *impossible to write down*.

use conferr::{sut_factory, CampaignBatch, CampaignExecutor, ExecutorCampaign, InjectionResult};
use conferr_model::ErrorGenerator;
use conferr_plugins::{DnsFaultKind, DnsSemanticPlugin};
use conferr_sut::{BindSim, DjbdnsSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The four Table 3 rows plus the extended RFC-1912 error set.
    let kinds = DnsFaultKind::ALL;

    // Both name servers' fault loads go into one batch on a shared
    // executor: workers steal across the two systems' entries, and
    // outcomes come back per campaign in fault order — identical to
    // two serial campaigns.
    let executor = CampaignExecutor::with_default_threads();
    let mut batch = CampaignBatch::new();
    let mut names = Vec::new();
    for (name, factory, plugin) in [
        (
            "BIND (zone files)",
            sut_factory(BindSim::new),
            DnsSemanticPlugin::bind().with_kinds(kinds),
        ),
        (
            "djbdns (tinydns-data)",
            sut_factory(DjbdnsSim::new),
            DnsSemanticPlugin::tinydns().with_kinds(kinds),
        ),
    ] {
        let campaign = ExecutorCampaign::new(factory)?;
        let faults = plugin.generate(campaign.baseline())?;
        batch.push(&campaign, faults);
        names.push(name);
    }
    let profiles = executor.run_batch(batch)?;

    for (name, profile) in names.into_iter().zip(&profiles) {
        println!("=== {name} ===");
        for outcome in profile.outcomes() {
            let verdict = match &outcome.result {
                InjectionResult::DetectedAtStartup { diagnostic } => {
                    format!("DETECTED at zone load: {diagnostic}")
                }
                InjectionResult::DetectedByFunctionalTest { test, .. } => {
                    format!("DETECTED by {test}")
                }
                InjectionResult::Undetected { .. } => "loaded silently (NOT detected)".to_string(),
                InjectionResult::Inexpressible { reason } => {
                    format!("INEXPRESSIBLE in this format: {reason}")
                }
                InjectionResult::Skipped { reason } => format!("skipped: {reason}"),
                InjectionResult::TimedOut { phase, budget_ms } => {
                    format!("TIMED OUT: {phase} exceeded {budget_ms} ms")
                }
                InjectionResult::HarnessFailure { panic_msg } => {
                    format!("HARNESS FAILURE: {panic_msg}")
                }
            };
            println!("  {:<46} -> {verdict}", outcome.description);
        }
        println!();
    }

    println!(
        "note the asymmetry the paper highlights: BIND *detects* the alias-consistency\n\
         errors (3, 4) but accepts broken reverse mappings (1, 2); djbdns' combined A+PTR\n\
         directive makes errors (1, 2) unwritable, yet it performs no consistency checks,\n\
         so errors (3, 4) load without complaint."
    );
    Ok(())
}

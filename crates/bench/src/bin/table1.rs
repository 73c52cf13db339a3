//! Regenerates Table 1: resilience to typos for MySQL, Postgres and
//! Apache (paper §5.2).
//!
//! ```text
//! cargo run -p conferr-bench --bin table1 [seed]   # CONFERR_THREADS=n to pin workers
//! ```

use conferr::report::summary_table;
use conferr::CampaignExecutor;
use conferr_bench::{table1, threads_from_env, DEFAULT_SEED};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let threads = threads_from_env();
    let executor = CampaignExecutor::new(threads);
    let columns = table1(&executor, seed).expect("table 1 campaign failed");

    println!("Table 1. Resilience to typos (seed {seed}, {threads} worker thread(s))");
    println!("(deletion of every directive + sampled typos in directive names and values)");
    println!();
    print!("{}", summary_table(&columns).render());
    println!();
    println!(
        "paper reported: MySQL 327 injected (83% / <1% / 17%), Postgres 98 (78% / 0% / 22%), \
         Apache 120 (38% / 5% / 57%)"
    );
}

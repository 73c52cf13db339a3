//! Regenerates Table 2: resilience to structural errors — which
//! semantically neutral configuration variations each system accepts
//! (paper §5.3).
//!
//! ```text
//! cargo run -p conferr-bench --bin table2 [seed]   # CONFERR_THREADS=n to pin workers
//! ```

use conferr::report::TextTable;
use conferr::CampaignExecutor;
use conferr_bench::{table2, threads_from_env, DEFAULT_SEED};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let executor = CampaignExecutor::new(threads_from_env());
    let t2 = table2(&executor, seed).expect("table 2 campaign failed");

    println!("Table 2. Resilience to structural errors (seed {seed}; 10 variant files per class)");
    println!();
    let mut t = TextTable::new(vec!["", &t2.systems[0], &t2.systems[1], &t2.systems[2]]);
    for (label, cells) in &t2.rows {
        let mut row = vec![label.clone()];
        for cell in cells {
            row.push(
                match cell {
                    Some(true) => "Yes",
                    Some(false) => "No",
                    None => "n/a",
                }
                .to_string(),
            );
        }
        t.add_row(row);
    }
    let mut pct_row = vec!["% of assumptions satisfied".to_string()];
    for pct in t2.satisfied_percentages() {
        pct_row.push(format!("{pct:.0}%"));
    }
    t.add_row(pct_row);
    print!("{}", t.render());
    println!();
    println!("paper reported: MySQL 80%, Postgres 75%, Apache 75%");
}

//! Regenerates Table 3: resilience to semantic (RFC-1912) DNS errors
//! for BIND and djbdns (paper §5.4).
//!
//! ```text
//! cargo run -p conferr-bench --bin table3   # CONFERR_THREADS=n to pin workers
//! ```

use conferr::report::TextTable;
use conferr::CampaignExecutor;
use conferr_bench::{table3, threads_from_env};

fn main() {
    let executor = CampaignExecutor::new(threads_from_env());
    let t3 = table3(&executor).expect("table 3 campaign failed");

    println!("Table 3. Resilience to semantic errors");
    println!();
    let mut t = TextTable::new(vec!["Err#", "Description of fault", "BIND", "djbdns"]);
    for (num, description, bind, djb) in &t3.rows {
        t.add_row(vec![
            format!("{num}."),
            description.clone(),
            bind.label().to_string(),
            djb.label().to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!(
        "paper reported: (1) not found/N/A, (2) not found/N/A, (3) found/not found, \
         (4) found/not found"
    );
}

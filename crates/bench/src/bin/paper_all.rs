//! Runs the complete evaluation — every table and figure of the paper
//! — in one go, printing each artifact in order. The README's "Paper
//! artifacts" table says what each one reproduces.
//!
//! ```text
//! cargo run -p conferr-bench --bin paper_all [seed]
//! ```
//!
//! Every sibling binary runs its campaigns on a `CampaignExecutor`,
//! one worker per core; set `CONFERR_THREADS=n` (inherited by the
//! spawned binaries) to pin the worker count.

use std::process::Command;

fn main() {
    let seed = std::env::args().nth(1).unwrap_or_default();
    let bins = ["table1", "table2", "table3", "fig3"];
    for bin in bins {
        println!("{}", "=".repeat(72));
        let mut cmd = Command::new(std::env::current_exe().map_or_else(
            |_| "cargo".to_string(),
            |p| {
                p.parent().map_or_else(
                    || "cargo".to_string(),
                    |d| d.join(bin).display().to_string(),
                )
            },
        ));
        if !seed.is_empty() {
            cmd.arg(&seed);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{bin} exited with {status}");
                std::process::exit(1);
            }
            Err(_) => {
                // Sibling binary not built (e.g. `cargo run --bin
                // paper_all` without building the others): fall back
                // to cargo.
                let status = Command::new("cargo")
                    .args(["run", "-q", "-p", "conferr-bench", "--bin", bin])
                    .args(if seed.is_empty() {
                        vec![]
                    } else {
                        vec![seed.clone()]
                    })
                    .status()
                    .expect("failed to spawn cargo");
                if !status.success() {
                    std::process::exit(1);
                }
            }
        }
        println!();
    }
    println!("{}", "=".repeat(72));
    println!("all paper artifacts regenerated");
}

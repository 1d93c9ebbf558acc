//! Regenerates every experiment report in one go (`wx sweep --all` runs the
//! same experiments into one JSON sweep report; see the README). Run with
//! `cargo run -p wx-bench --release --bin run_all_experiments [--quick]`.
//!
//! Every experiment runs even if an earlier one fails; the process prints a
//! per-experiment pass/fail summary at the end and exits nonzero if any
//! experiment panicked or produced no report, so CI and scripts can rely on
//! the exit code instead of scraping the output.

use wx_core::report::{render_table, TableRow};

fn main() {
    let opts = wx_bench::ExperimentOptions::from_args();
    let outcomes = wx_bench::experiments::run_all_checked(&opts);

    for outcome in &outcomes {
        println!("################################################################");
        println!("# {}", outcome.title);
        println!("################################################################");
        if outcome.passed {
            println!("{}", outcome.report);
        } else {
            println!(
                "FAILED: {}\n",
                outcome.error.as_deref().unwrap_or("unknown failure")
            );
        }
    }

    let rows: Vec<TableRow> = outcomes
        .iter()
        .map(|o| {
            TableRow::new(
                o.id,
                vec![
                    if o.passed { "pass" } else { "FAIL" }.to_string(),
                    o.error.clone().unwrap_or_default(),
                ],
            )
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Experiment summary",
            &["experiment", "status", "error"],
            &rows
        )
    );

    let failed = outcomes.iter().filter(|o| !o.passed).count();
    if failed > 0 {
        eprintln!("{failed}/{} experiments failed", outcomes.len());
        std::process::exit(1);
    }
    println!("all {} experiments passed", outcomes.len());
}

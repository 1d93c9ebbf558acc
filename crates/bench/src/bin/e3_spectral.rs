//! Experiment harness binary. Run with `cargo run -p wx-bench --release --bin e3_spectral [--quick] [--seed N]`.
//! The crate docs map it to the paper statement it reproduces; `wx sweep --all`
//! runs it alongside the others (see the README's scenario-lab section).

fn main() {
    let opts = wx_bench::ExperimentOptions::from_args();
    println!("{}", wx_bench::experiments::e3::run(&opts));
}

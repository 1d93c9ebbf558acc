//! # wx-bench
//!
//! Experiment harnesses for the *Wireless Expanders* reproduction.
//!
//! The paper is a theory paper: its "evaluation" is a collection of theorems,
//! explicit constructions and worked examples rather than measured tables.
//! Each module in [`experiments`] therefore regenerates the empirical content
//! of one paper statement:
//!
//! | Module | Paper statement |
//! |--------|-----------------|
//! | [`experiments::e1`]  | Theorem 1.1 — ordinary expanders are good wireless expanders |
//! | [`experiments::e2`]  | Figure 1 / Lemmas 3.2–3.3 — the unique-expansion gap |
//! | [`experiments::e3`]  | Lemma 3.1 — the spectral relation |
//! | [`experiments::e4`]  | Figure 2 / Lemma 4.4 — the core graph |
//! | [`experiments::e5`]  | Lemmas 4.6–4.8 — generalized core graphs |
//! | [`experiments::e6`]  | Theorem 1.2 / Corollary 4.11 — worst-case expanders |
//! | [`experiments::e7`]  | Section 4.2.1 — Spokesman Election solver comparison |
//! | [`experiments::e8`]  | Section 5 — the broadcast-time lower bound |
//! | [`experiments::e9`]  | Arboricity corollary — low-arboricity graphs lose only a constant |
//! | [`experiments::e10`] | Appendix A — deterministic bounds and the MG(δ) profile |
//! | [`experiments::e11`] | Introduction — the `C⁺` example end to end |
//!
//! Every experiment has a `run(&ExperimentOptions)` entry point returning
//! the printed report, and [`experiments::ALL`] lists them in order.
//! `wx sweep --all` (see the README) runs the whole table through
//! [`experiments::run_checked`] into one JSON sweep report. Timing lives
//! in the `wxbench` benchmark, not here: reports are byte-deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

/// Common options for experiment harnesses.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentOptions {
    /// Smaller sweeps for smoke tests and CI.
    pub quick: bool,
    /// Base seed for all randomized components.
    pub seed: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            quick: false,
            seed: 0xE0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-run every experiment in quick mode; this keeps the harnesses
    /// from bit-rotting and pins their qualitative claims.
    #[test]
    fn all_experiments_run_in_quick_mode() {
        let opts = ExperimentOptions {
            quick: true,
            seed: 0xE0,
        };
        let reports = experiments::run_all(&opts);
        assert_eq!(reports.len(), 11);
        for (name, report) in &reports {
            assert!(
                report.contains("##"),
                "experiment {name} produced no table:\n{report}"
            );
        }
    }

    /// The checked runner records a pass for every experiment and converts
    /// panics into failed outcomes instead of aborting.
    #[test]
    fn checked_runner_reports_pass_fail() {
        fn panicking(_: &ExperimentOptions) -> String {
            panic!("synthetic failure");
        }
        fn empty(_: &ExperimentOptions) -> String {
            String::new()
        }
        let opts = ExperimentOptions {
            quick: true,
            seed: 0xE0,
        };
        let outcome = experiments::run_checked("e3", "E3 (Lemma 3.1)", experiments::e3::run, &opts);
        assert!(outcome.passed, "{:?}", outcome.error);

        // a panicking experiment is captured, not propagated
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failed = experiments::run_checked("eX", "synthetic", panicking, &opts);
        std::panic::set_hook(prev);
        assert!(!failed.passed);
        assert!(failed
            .error
            .as_deref()
            .unwrap()
            .contains("synthetic failure"));

        // an experiment that prints no table counts as failed too
        let tableless = experiments::run_checked("eY", "tableless", empty, &opts);
        assert!(!tableless.passed);
        assert_eq!(experiments::ALL.len(), 11);
    }
}

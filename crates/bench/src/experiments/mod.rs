//! One module per reproduced paper statement. See the crate docs for the
//! experiment table and `wx sweep --all` (README, scenario-lab section) for
//! running them all.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use crate::ExperimentOptions;

/// One experiment table entry: `(id, title, entry point)`.
pub type ExperimentEntry = (&'static str, &'static str, fn(&ExperimentOptions) -> String);

/// The experiment table: `(id, title, entry point)` for every reproduced
/// paper statement, in E1..E11 order. This is the registry the `wx sweep`
/// scenario lab iterates, so adding an experiment here is all it takes to
/// appear in the sweep.
pub const ALL: &[ExperimentEntry] = &[
    ("e1", "E1 (Theorem 1.1)", e1::run),
    ("e2", "E2 (Lemmas 3.2-3.3)", e2::run),
    ("e3", "E3 (Lemma 3.1)", e3::run),
    ("e4", "E4 (Lemma 4.4)", e4::run),
    ("e5", "E5 (Lemmas 4.6-4.8)", e5::run),
    ("e6", "E6 (Theorem 1.2)", e6::run),
    ("e7", "E7 (Section 4.2.1)", e7::run),
    ("e8", "E8 (Section 5)", e8::run),
    ("e9", "E9 (arboricity corollary)", e9::run),
    ("e10", "E10 (Appendix A)", e10::run),
    ("e11", "E11 (C+ example)", e11::run),
];

/// The outcome of one pass/fail-checked experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Short id (`"e1"`..`"e11"`).
    pub id: &'static str,
    /// The display title (paper statement).
    pub title: &'static str,
    /// `true` when the experiment ran to completion and produced a report.
    pub passed: bool,
    /// The report text (empty when the experiment panicked).
    pub report: String,
    /// The panic message, for failed experiments.
    pub error: Option<String>,
}

/// Runs one experiment entry point, converting panics into a failed
/// [`ExperimentOutcome`] instead of aborting the whole sweep. An experiment
/// passes when it completes *and* produces a non-empty report.
pub fn run_checked(
    id: &'static str,
    title: &'static str,
    run: fn(&ExperimentOptions) -> String,
    opts: &ExperimentOptions,
) -> ExperimentOutcome {
    match std::panic::catch_unwind(|| run(opts)) {
        Ok(report) => {
            // the only structural requirement on a report is that it says
            // something; table formatting is pinned by the harness tests,
            // not re-checked here
            let passed = !report.trim().is_empty();
            let error = (!passed).then(|| "experiment produced an empty report".to_string());
            ExperimentOutcome {
                id,
                title,
                passed,
                report,
                error,
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            ExperimentOutcome {
                id,
                title,
                passed: false,
                report: String::new(),
                error: Some(msg),
            }
        }
    }
}

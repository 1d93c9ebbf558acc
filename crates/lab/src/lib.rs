//! # wx-lab — the declarative scenario lab
//!
//! The experiment-orchestration subsystem of the *Wireless Expanders*
//! reproduction: instead of one hard-coded binary per graph-family ×
//! measure × solver combination, a batch experiment is a plain JSON
//! document and every combination runs through one engine.
//!
//! * [`spec`] — the [`spec::ScenarioSpec`] schema: a
//!   [`source::GraphSource`], a [`spec::Task`]
//!   (measure / profile / spokesman / radio), a trial count and a seed.
//! * [`source`] — the graph-source registry unifying every generator in
//!   `wx_constructions::families`, the seeded random generators, and the
//!   `wx_graph::io` edge-list/DIMACS file loaders behind one enum.
//! * [`runner`] — expands a spec into a deterministic
//!   [`runner::TrialPlan`] (per-trial seeds via `derive_seed`), fans the
//!   trials out over [`wx_trace::par_map`] threads through the
//!   `MeasurementEngine`, spokesman solvers and radio protocols (reusing
//!   the workspace's per-thread `NeighborhoodScratch` pools), and
//!   aggregates every metric into mean/median/min/max/p95 — emitting a
//!   JSON [`runner::ScenarioReport`] that is byte-identical across runs
//!   of the same spec, at any thread count.
//! * [`canon`] — the FNV-1a content addresses (spec keys over the derived
//!   compact spec JSON, graph-instance keys, solution keys) the artifact
//!   cache and `wx serve` coalescing are keyed by.
//! * [`cache`] — the [`cache::GraphStore`]/[`cache::SolutionStore`] seam
//!   [`runner::Runner::run_ctx`] threads through trial execution, plus
//!   [`cache::ArtifactCache`], the byte-budgeted LRU implementation with
//!   in-flight build coalescing and optional on-disk solution artifacts.
//! * [`experiments`] — the eleven `e1`..`e11` paper experiments, one
//!   text report per reproduced statement.
//! * [`registry`] — one table of the named built-in scenarios and paper
//!   experiments, and one entry runner, so `wx sweep --all` reproduces the
//!   whole paper in one command.
//! * [`cli`] — the `wx` binary's subcommands
//!   (`run`/`measure`/`profile`/`spokesman`/`radio`/`sweep`/`list`/
//!   `validate`).
//!
//! ## Example
//!
//! ```
//! use wx_lab::runner::Runner;
//! use wx_lab::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::from_json(
//!     r#"{
//!         "name": "doc-example",
//!         "source": {"CompletePlus": {"k": 6}},
//!         "task": {"Profile": {}},
//!         "trials": 1,
//!         "seed": 7
//!     }"#,
//!     "doc example",
//! )
//! .unwrap();
//! let report = Runner::new().run(&spec).unwrap();
//! // The paper's headline separation, straight from a declarative spec:
//! assert_eq!(report.metrics["unique"].mean, 0.0);
//! assert!(report.metrics["wireless"].mean > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod cli;
pub mod error;
pub mod experiments;
pub mod registry;
pub mod runner;
pub mod source;
pub mod spec;

pub use cache::{ArtifactCache, CacheConfig, CacheStats, RunContext};
pub use error::{LabError, Result};
pub use runner::{Runner, ScenarioReport, TrialPlan};
pub use source::GraphSource;
pub use spec::{ScenarioSpec, Task};

#[cfg(test)]
mod tests {
    use crate::registry::{
        builtins, find, run_entries, BuiltinKind, BuiltinScenario, SweepOptions,
    };
    use crate::{LabError, Result, ScenarioSpec};

    const QUICK: SweepOptions = SweepOptions {
        quick: true,
        seed: 0xE0,
    };

    /// Smoke-run every experiment in quick mode; this keeps the harnesses
    /// from bit-rotting and pins their qualitative claims.
    #[test]
    fn all_experiments_run_in_quick_mode() {
        let papers: Vec<_> = builtins()
            .iter()
            .filter_map(|b| match b.kind {
                BuiltinKind::Paper(run) => Some((b.name, run)),
                BuiltinKind::Scenario(_) => None,
            })
            .collect();
        assert_eq!(papers.len(), 11);
        for (name, run) in papers {
            let report = run(&QUICK).unwrap();
            assert!(
                report.contains("##"),
                "experiment {name} produced no table:\n{report}"
            );
        }
    }

    /// The registry's one entry runner turns a panicking scenario builder,
    /// a panicking paper entry, a paper `Err` and an empty paper report into
    /// failed entries carrying their messages, and the entry after them
    /// still runs and passes.
    #[test]
    fn checked_runner_reports_pass_fail() {
        fn panicking_build(_: bool, _: u64) -> ScenarioSpec {
            panic!("builder boom")
        }
        fn panicking(_: &SweepOptions) -> Result<String> {
            panic!("synthetic failure")
        }
        fn failing(_: &SweepOptions) -> Result<String> {
            Err(LabError::Experiment("paper error".to_string()))
        }
        fn empty(_: &SweepOptions) -> Result<String> {
            Ok(" \n".to_string())
        }
        let entry = |name, kind| BuiltinScenario {
            name,
            title: "synthetic",
            kind,
        };
        let entries = [
            entry("s-panic", BuiltinKind::Scenario(panicking_build)),
            entry("p-panic", BuiltinKind::Paper(panicking)),
            entry("p-err", BuiltinKind::Paper(failing)),
            entry("p-empty", BuiltinKind::Paper(empty)),
            find("e3").unwrap(),
        ];
        // panics are captured, not propagated
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_entries(&entries, QUICK);
        std::panic::set_hook(prev);

        let failures: Vec<(&str, &str, &str)> = report.entries[..4]
            .iter()
            .map(|e| {
                assert!(!e.passed && e.scenario.is_none() && e.text_report.is_none());
                (
                    e.name.as_str(),
                    e.kind.as_str(),
                    e.error.as_deref().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            failures,
            [
                ("s-panic", "scenario", "builder boom"),
                ("p-panic", "paper", "synthetic failure"),
                ("p-err", "paper", "experiment check failed: paper error"),
                (
                    "p-empty",
                    "paper",
                    "experiment check failed: the experiment produced an empty report"
                ),
            ]
        );
        let e3 = &report.entries[4];
        assert!(e3.passed, "{:?}", e3.error);
        assert!(e3.text_report.as_deref().unwrap().contains("## E3"));
        assert_eq!((report.passed, report.failed), (1, 4));
    }
}

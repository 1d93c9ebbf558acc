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
//! * [`canon`] — canonical JSON serialization and the FNV-1a content
//!   addresses (spec keys, graph-instance keys, solution keys) the
//!   artifact cache and `wx serve` coalescing are keyed by.
//! * [`cache`] — the [`cache::GraphStore`]/[`cache::SolutionStore`] seam
//!   [`runner::Runner::run_ctx`] threads through trial execution, plus
//!   [`cache::ArtifactCache`], the byte-budgeted LRU implementation with
//!   in-flight build coalescing and optional on-disk solution artifacts.
//! * [`registry`] — named built-in scenarios, including the eleven
//!   `e1`..`e11` paper experiments, so `wx sweep --all` reproduces the
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
pub mod registry;
pub mod runner;
pub mod source;
pub mod spec;

pub use cache::{ArtifactCache, CacheConfig, CacheStats, RunContext};
pub use error::{LabError, Result};
pub use runner::{Runner, ScenarioReport, TrialPlan};
pub use source::GraphSource;
pub use spec::{ScenarioSpec, Task};

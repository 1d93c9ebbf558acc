//! Named built-in scenarios and the sweep driver.
//!
//! Two kinds of entries live in the registry:
//!
//! * **Declarative scenarios** — ordinary [`ScenarioSpec`]s built in code
//!   (parameterized by `quick`/`seed`), indistinguishable from a spec loaded
//!   from a JSON file.
//! * **Paper experiments** — the eleven `e1`..`e11` harnesses from
//!   `wx-bench`, re-registered here so `wx sweep --all` reproduces the whole
//!   paper through one command. They run through
//!   [`wx_bench::experiments::run_checked`] (panics become failed entries,
//!   never aborts).
//!
//! [`run_sweep`] executes any selection of entries and produces one
//! serializable [`SweepReport`] whose exit status callers can trust: an
//! entry passes only if it ran to completion and produced a report.

use crate::cache::{ArtifactCache, CacheConfig, RunContext};
use crate::error::{LabError, Result};
use crate::runner::{Runner, ScenarioReport};
use crate::source::GraphSource;
use crate::spec::{ScenarioSpec, Task};
use serde::Serialize;
use wx_bench::experiments;
use wx_bench::ExperimentOptions;
use wx_core::expansion::engine::NotionKind;
use wx_core::radio::protocols::ProtocolKind;

/// How a built-in entry is executed.
#[derive(Clone, Copy)]
pub enum BuiltinKind {
    /// A declarative scenario: the function builds the spec for the given
    /// `(quick, seed)` and the [`Runner`] executes it.
    Scenario(fn(quick: bool, seed: u64) -> ScenarioSpec),
    /// A `wx-bench` paper experiment entry point.
    Paper(fn(&ExperimentOptions) -> String),
}

/// One named entry of the built-in registry.
#[derive(Clone, Copy)]
pub struct BuiltinScenario {
    /// Lookup name (`"e1"`, `"c-plus-profile"`, …).
    pub name: &'static str,
    /// Display title.
    pub title: &'static str,
    /// How to execute it.
    pub kind: BuiltinKind,
}

fn c_plus_profile(quick: bool, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "c-plus-profile".to_string(),
        description: "the introduction's C+ example: βu collapses to 0, βw stays positive"
            .to_string(),
        source: GraphSource::CompletePlus {
            k: if quick { 6 } else { 8 },
        },
        task: Task::Profile {
            alpha: Some(0.5),
            exact_up_to: Some(14),
            fast: None,
        },
        trials: 1,
        seed,
    }
}

fn expander_wireless(quick: bool, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "expander-wireless".to_string(),
        description:
            "certified wireless expansion of random 4-regular expanders (Theorem 1.1 regime)"
                .to_string(),
        source: GraphSource::RandomRegular {
            n: if quick { 32 } else { 64 },
            d: 4,
        },
        task: Task::Measure {
            notion: NotionKind::Wireless,
            alpha: Some(0.5),
            exact_up_to: None,
            fast: Some(true),
        },
        trials: if quick { 3 } else { 8 },
        seed,
    }
}

fn expander_spokesman(quick: bool, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "expander-spokesman".to_string(),
        description: "solver portfolio comparison on bipartite views of random expander sets"
            .to_string(),
        source: GraphSource::RandomRegular {
            n: if quick { 32 } else { 64 },
            d: 4,
        },
        task: Task::Spokesman {
            set_size: if quick { 8 } else { 16 },
            solvers: None,
        },
        trials: if quick { 3 } else { 8 },
        seed,
    }
}

fn implicit_hypercube(quick: bool, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "implicit-hypercube".to_string(),
        description: "sampled ordinary expansion of an unmaterialized hypercube (implicit backend)"
            .to_string(),
        source: GraphSource::Implicit {
            family: wx_core::graph::ImplicitFamily::Hypercube {
                dim: if quick { 8 } else { 12 },
            },
        },
        task: Task::Measure {
            notion: NotionKind::Ordinary,
            alpha: Some(0.5),
            exact_up_to: Some(10),
            fast: None,
        },
        trials: 1,
        seed,
    }
}

fn grid_broadcast_decay(quick: bool, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "grid-broadcast-decay".to_string(),
        description: "decay-protocol broadcast round counts on a 2-D grid".to_string(),
        source: GraphSource::Grid {
            rows: if quick { 4 } else { 8 },
            cols: if quick { 4 } else { 8 },
        },
        task: Task::Radio {
            protocol: ProtocolKind::Decay,
            source_vertex: Some(0),
            max_rounds: None,
        },
        trials: if quick { 5 } else { 20 },
        seed,
    }
}

/// The full registry: the five declarative demo scenarios followed by the
/// eleven paper experiments (in E1..E11 order).
pub fn builtins() -> Vec<BuiltinScenario> {
    let mut entries = vec![
        BuiltinScenario {
            name: "c-plus-profile",
            title: "C+ profile (introduction example)",
            kind: BuiltinKind::Scenario(c_plus_profile),
        },
        BuiltinScenario {
            name: "expander-wireless",
            title: "Wireless expansion of random expanders",
            kind: BuiltinKind::Scenario(expander_wireless),
        },
        BuiltinScenario {
            name: "expander-spokesman",
            title: "Spokesman solvers on expander sets",
            kind: BuiltinKind::Scenario(expander_spokesman),
        },
        BuiltinScenario {
            name: "implicit-hypercube",
            title: "Expansion of an unmaterialized hypercube",
            kind: BuiltinKind::Scenario(implicit_hypercube),
        },
        BuiltinScenario {
            name: "grid-broadcast-decay",
            title: "Decay broadcast on a grid",
            kind: BuiltinKind::Scenario(grid_broadcast_decay),
        },
    ];
    for &(id, title, run) in experiments::ALL {
        entries.push(BuiltinScenario {
            name: id,
            title,
            kind: BuiltinKind::Paper(run),
        });
    }
    entries
}

/// Looks up a built-in by name.
pub fn find(name: &str) -> Option<BuiltinScenario> {
    builtins().into_iter().find(|b| b.name == name)
}

/// Options for [`run_sweep`]: the paper experiments' options, shared by
/// every entry.
pub use wx_bench::ExperimentOptions as SweepOptions;

/// One executed sweep entry.
#[derive(Clone, Debug, Serialize)]
pub struct SweepEntry {
    /// Registry name.
    pub name: String,
    /// Display title.
    pub title: String,
    /// `"scenario"` or `"paper"`.
    pub kind: String,
    /// `true` when the entry ran to completion and produced a report.
    pub passed: bool,
    /// Failure message for failed entries.
    pub error: Option<String>,
    /// The aggregated report, for scenario entries.
    pub scenario: Option<ScenarioReport>,
    /// The rendered text report, for paper entries.
    pub text_report: Option<String>,
}

/// The serializable result of a sweep.
#[derive(Clone, Debug, Serialize)]
pub struct SweepReport {
    /// Whether quick mode was on.
    pub quick: bool,
    /// The base seed.
    pub seed: u64,
    /// Number of passing entries.
    pub passed: usize,
    /// Number of failing entries.
    pub failed: usize,
    /// Every executed entry, in request order.
    pub entries: Vec<SweepEntry>,
}

impl SweepReport {
    /// Serializes the sweep to pretty JSON.
    pub fn to_json(&self) -> String {
        wx_core::report::to_json_pretty(self)
    }

    /// `true` when every entry passed.
    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }
}

/// Executes one built-in entry against a shared artifact cache: sweep cells
/// whose sources coincide (same family, same derived build seeds) reuse built
/// graphs and spokesman solutions instead of regenerating them per cell.
pub fn run_builtin_ctx(
    entry: &BuiltinScenario,
    opts: SweepOptions,
    ctx: &RunContext<'_>,
) -> SweepEntry {
    match entry.kind {
        BuiltinKind::Scenario(build) => {
            let spec = build(opts.quick, opts.seed);
            match Runner::new().run_ctx(&spec, ctx) {
                Ok(report) => SweepEntry {
                    name: entry.name.to_string(),
                    title: entry.title.to_string(),
                    kind: "scenario".to_string(),
                    passed: true,
                    error: None,
                    scenario: Some(report),
                    text_report: None,
                },
                Err(e) => SweepEntry {
                    name: entry.name.to_string(),
                    title: entry.title.to_string(),
                    kind: "scenario".to_string(),
                    passed: false,
                    error: Some(e.to_string()),
                    scenario: None,
                    text_report: None,
                },
            }
        }
        BuiltinKind::Paper(run) => {
            let outcome = experiments::run_checked(entry.name, entry.title, run, &opts);
            SweepEntry {
                name: entry.name.to_string(),
                title: entry.title.to_string(),
                kind: "paper".to_string(),
                passed: outcome.passed,
                error: outcome.error,
                scenario: None,
                text_report: outcome.passed.then_some(outcome.report),
            }
        }
    }
}

/// Runs the named entries (every registry entry when `names` is empty) and
/// aggregates pass/fail. Unknown names fail the whole sweep up front.
pub fn run_sweep(names: &[String], opts: SweepOptions) -> Result<SweepReport> {
    let selected: Vec<BuiltinScenario> = if names.is_empty() {
        builtins()
    } else {
        names
            .iter()
            .map(|name| {
                find(name).ok_or_else(|| {
                    LabError::invalid(format!(
                        "unknown built-in scenario `{name}` (see `wx list`)"
                    ))
                })
            })
            .collect::<Result<_>>()?
    };
    // One artifact cache spans the whole sweep: cells that draw the same
    // (source, seed) instances — e.g. the expander wireless and spokesman
    // demos both sample random_regular(32, 4) from the sweep seed — build
    // each graph once and share it via `Arc` instead of rebuilding per
    // cell, the redundant-rebuild fix `wx serve` generalizes.
    let cache = ArtifactCache::new(CacheConfig::default());
    let ctx = RunContext {
        graphs: Some(&cache),
        solutions: Some(&cache),
    };
    let entries: Vec<SweepEntry> = selected
        .iter()
        .map(|entry| run_builtin_ctx(entry, opts, &ctx))
        .collect();
    let passed = entries.iter().filter(|e| e.passed).count();
    Ok(SweepReport {
        quick: opts.quick,
        seed: opts.seed,
        passed,
        failed: entries.len() - passed,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_eleven_paper_experiments_plus_demos() {
        let all = builtins();
        let papers = all
            .iter()
            .filter(|b| matches!(b.kind, BuiltinKind::Paper(_)))
            .count();
        assert_eq!(papers, 11);
        assert!(all.len() >= 15);
        for id in ["e1", "e11", "c-plus-profile", "grid-broadcast-decay"] {
            assert!(find(id).is_some(), "missing builtin {id}");
        }
        assert!(find("e12").is_none());
    }

    #[test]
    fn demo_scenarios_validate_in_both_modes() {
        for entry in builtins() {
            if let BuiltinKind::Scenario(build) = entry.kind {
                build(true, 1).validate().unwrap();
                build(false, 1).validate().unwrap();
            }
        }
    }

    #[test]
    fn sweep_runs_a_scenario_and_a_paper_entry() {
        let opts = SweepOptions {
            quick: true,
            seed: 0xE0,
        };
        let report = run_sweep(&["c-plus-profile".to_string(), "e3".to_string()], opts).unwrap();
        assert_eq!(report.entries.len(), 2);
        assert!(report.all_passed(), "{:?}", report.entries);
        assert!(report.entries[0].scenario.is_some());
        assert!(report.entries[1].text_report.is_some());
        // the C+ scenario shows the paper's separation
        let metrics = &report.entries[0].scenario.as_ref().unwrap().metrics;
        assert_eq!(metrics["unique"].mean, 0.0);
        assert!(metrics["wireless"].mean > 0.0);
    }

    #[test]
    fn quick_sweep_json_is_byte_identical_across_runs() {
        // the sweep report is report bytes: no wall-clock may reach it
        let opts = SweepOptions {
            quick: true,
            seed: 0xE0,
        };
        let sweep = || run_sweep(&[], opts).unwrap().to_json();
        let first = sweep();
        assert!(first.contains("\"e7\""), "{first}");
        assert_eq!(first, sweep());
    }

    #[test]
    fn sweep_rejects_unknown_names() {
        let err =
            run_sweep(&["no-such-scenario".to_string()], SweepOptions::default()).unwrap_err();
        assert!(err.to_string().contains("no-such-scenario"));
    }
}

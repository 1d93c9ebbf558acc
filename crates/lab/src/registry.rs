//! Named built-in scenarios and the sweep driver.
//!
//! [`builtins`] is one table of two kinds of entries:
//!
//! * **Declarative scenarios** — ordinary [`ScenarioSpec`]s built in code
//!   (parameterized by `quick`/`seed`), indistinguishable from a spec loaded
//!   from a JSON file.
//! * **Paper experiments** — the eleven `e1`..`e11` reproductions in
//!   [`experiments`], each a function from [`SweepOptions`] to its text
//!   report, so `wx sweep --all` reproduces the whole paper through one
//!   command.
//!
//! [`run_sweep`] executes any selection of entries through one entry
//! runner and produces one serializable [`SweepReport`] whose exit status
//! callers can trust: an entry passes only if it ran to completion and
//! produced a report. A panic, an error or an empty paper report becomes a
//! failed entry, never an abort.

use crate::cache::{ArtifactCache, CacheConfig, RunContext};
use crate::error::{catch_panic, LabError, Result};
use crate::experiments;
use crate::runner::{Runner, ScenarioReport};
use crate::source::GraphSource;
use crate::spec::{ScenarioSpec, Task};
use serde::Serialize;
use wx_core::expansion::engine::NotionKind;
use wx_core::radio::protocols::ProtocolKind;

/// Options shared by every sweep entry.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Smaller sweeps for smoke tests and CI.
    pub quick: bool,
    /// Base seed for all randomized components.
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            quick: false,
            seed: 0xE0,
        }
    }
}

/// How a built-in entry is executed.
#[derive(Clone, Copy)]
pub enum BuiltinKind {
    /// A declarative scenario: the function builds the spec for the given
    /// `(quick, seed)` and the [`Runner`] executes it.
    Scenario(fn(quick: bool, seed: u64) -> ScenarioSpec),
    /// A paper experiment: the function renders its text report.
    Paper(fn(&SweepOptions) -> Result<String>),
}

impl BuiltinKind {
    /// `"scenario"` or `"paper"`, as `wx list` and [`SweepEntry::kind`]
    /// spell it.
    pub fn label(&self) -> &'static str {
        match self {
            BuiltinKind::Scenario(_) => "scenario",
            BuiltinKind::Paper(_) => "paper",
        }
    }
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

const fn paper(
    name: &'static str,
    title: &'static str,
    run: fn(&SweepOptions) -> Result<String>,
) -> BuiltinScenario {
    BuiltinScenario {
        name,
        title,
        kind: BuiltinKind::Paper(run),
    }
}

/// The registry: the five declarative demo scenarios followed by the
/// eleven paper experiments (in E1..E11 order).
const BUILTINS: &[BuiltinScenario] = &[
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
    paper("e1", "E1 (Theorem 1.1)", experiments::e1::run),
    paper("e2", "E2 (Lemmas 3.2-3.3)", experiments::e2::run),
    paper("e3", "E3 (Lemma 3.1)", experiments::e3::run),
    paper("e4", "E4 (Lemma 4.4)", experiments::e4::run),
    paper("e5", "E5 (Lemmas 4.6-4.8)", experiments::e5::run),
    paper("e6", "E6 (Theorem 1.2)", experiments::e6::run),
    paper("e7", "E7 (Section 4.2.1)", experiments::e7::run),
    paper("e8", "E8 (Section 5)", experiments::e8::run),
    paper("e9", "E9 (arboricity corollary)", experiments::e9::run),
    paper("e10", "E10 (Appendix A)", experiments::e10::run),
    paper("e11", "E11 (C+ example)", experiments::e11::run),
];

/// Every registry entry, in `wx list` and `wx sweep --all` order.
pub fn builtins() -> &'static [BuiltinScenario] {
    BUILTINS
}

/// Looks up a built-in by name.
pub fn find(name: &str) -> Option<BuiltinScenario> {
    BUILTINS.iter().find(|b| b.name == name).copied()
}

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

/// The one entry runner: executes a built-in entry of either kind against
/// a shared artifact cache. A panic, an `Err` or an empty paper report
/// becomes a failed [`SweepEntry`] carrying its message.
fn run_entry(entry: &BuiltinScenario, opts: SweepOptions, ctx: &RunContext<'_>) -> SweepEntry {
    let outcome = catch_panic(|| match entry.kind {
        BuiltinKind::Scenario(build) => {
            let report = Runner::new().run_ctx(&build(opts.quick, opts.seed), ctx)?;
            Ok((Some(report), None))
        }
        BuiltinKind::Paper(run) => match run(&opts)? {
            // the only structural requirement on a report is that it says
            // something; table formatting is pinned by the golden sweeps
            text if text.trim().is_empty() => Err(LabError::Experiment(
                "the experiment produced an empty report".to_string(),
            )),
            text => Ok((None, Some(text))),
        },
    })
    .and_then(|result| result.map_err(|e| e.to_string()));
    let (passed, error, (scenario, text_report)) = match outcome {
        Ok(reports) => (true, None, reports),
        Err(message) => (false, Some(message), (None, None)),
    };
    SweepEntry {
        name: entry.name.to_string(),
        title: entry.title.to_string(),
        kind: entry.kind.label().to_string(),
        passed,
        error,
        scenario,
        text_report,
    }
}

/// Runs the given entries in order against one shared artifact cache and
/// aggregates pass/fail: sweep cells whose sources coincide (same family,
/// same derived build seeds) reuse built graphs and spokesman solutions
/// instead of regenerating them per cell.
pub(crate) fn run_entries(entries: &[BuiltinScenario], opts: SweepOptions) -> SweepReport {
    // e.g. the expander wireless and spokesman demos both sample
    // random_regular(32, 4) from the sweep seed, and build it once
    let cache = ArtifactCache::new(CacheConfig::default());
    let ctx = RunContext {
        graphs: Some(&cache),
        solutions: Some(&cache),
    };
    let entries: Vec<SweepEntry> = entries
        .iter()
        .map(|entry| run_entry(entry, opts, &ctx))
        .collect();
    let passed = entries.iter().filter(|e| e.passed).count();
    SweepReport {
        quick: opts.quick,
        seed: opts.seed,
        passed,
        failed: entries.len() - passed,
        entries,
    }
}

/// Runs the named entries (every registry entry when `names` is empty) and
/// aggregates pass/fail. Unknown names fail the whole sweep up front.
pub fn run_sweep(names: &[String], opts: SweepOptions) -> Result<SweepReport> {
    let selected: Vec<BuiltinScenario> = if names.is_empty() {
        BUILTINS.to_vec()
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
    Ok(run_entries(&selected, opts))
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

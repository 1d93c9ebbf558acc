//! The four request streams. Each is a pure function of the workload,
//! the benchmark seed and the request index: the same seed always yields
//! the same specs, and the server only ever sees the generated specs.
//!
//! Seeds vary within a workload; sizes do not. Where a workload mixes
//! request classes, the classes cost about the same, so the median does
//! not sit on the boundary between two cost classes.

use wx_core::expansion::engine::NotionKind;
use wx_core::graph::random::derive_seed;
use wx_core::radio::protocols::ProtocolKind;
use wx_lab::source::GraphSource;
use wx_lab::spec::{ScenarioSpec, Task};

/// One named request stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold Spokesman Election: every request builds and solves a fresh
    /// instance, so the solver layer does the work and both caches miss.
    Solve,
    /// Ordinary and Unique measurements alternating over four resident
    /// instances: the expansion engine and Γ kernels do the work.
    Measure,
    /// Decay broadcasts: three shared-graph lane batches, then one
    /// per-trial-build scalar ensemble, of about equal cost.
    Broadcast,
    /// Small requests of all four task kinds, half of them exact repeats
    /// of warm specs: the request path (transport, parse, key, cache
    /// lookups, report serialization) does the work.
    Interactive,
}

/// Stream tags mixed into the benchmark seed, one per independent draw.
const TIMED: u64 = 1;
const WARM: u64 = 2;
const INSTANCE: u64 = 3;

/// How many distinct specs the interactive warm-up serves (two per task
/// kind); every odd interactive request repeats one of them.
const INTERACTIVE_WARM: usize = 8;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Solve,
        Workload::Measure,
        Workload::Broadcast,
        Workload::Interactive,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solve => "solve",
            Workload::Measure => "measure",
            Workload::Broadcast => "broadcast",
            Workload::Interactive => "interactive",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The untimed requests that fill the server's caches before timing:
    /// the instances `measure` cycles over, the shared `broadcast` graph,
    /// the specs `interactive` repeats. `solve` only warms code paths, on
    /// seeds the timed stream never uses.
    pub fn warmup(self, seed: u64) -> Vec<ScenarioSpec> {
        let warm = derive_seed(seed, WARM);
        match self {
            Workload::Solve => (0..2).map(|i| solve(derive_seed(warm, i))).collect(),
            Workload::Measure => (0..4).map(|i| self.request(seed, 2 * i)).collect(),
            Workload::Broadcast => vec![
                lanes_broadcast(derive_seed(warm, 0)),
                scalar_broadcast(derive_seed(warm, 1)),
            ],
            Workload::Interactive => (0..INTERACTIVE_WARM)
                .map(|i| interactive_fresh(i, derive_seed(warm, i as u64)))
                .collect(),
        }
    }

    /// Request `index` of the timed stream.
    pub fn request(self, seed: u64, index: usize) -> ScenarioSpec {
        let fresh = derive_seed(derive_seed(seed, TIMED), index as u64);
        match self {
            Workload::Solve => solve(fresh),
            Workload::Measure => {
                let notion = if index.is_multiple_of(2) {
                    NotionKind::Ordinary
                } else {
                    NotionKind::Unique
                };
                let instance = ((index / 2) % 4) as u64;
                measure(notion, derive_seed(derive_seed(seed, INSTANCE), instance))
            }
            Workload::Broadcast => {
                if index % 4 == 3 {
                    scalar_broadcast(fresh)
                } else {
                    lanes_broadcast(fresh)
                }
            }
            Workload::Interactive => {
                if index % 2 == 1 {
                    self.warmup(seed)
                        .swap_remove((index / 2) % INTERACTIVE_WARM)
                } else {
                    interactive_fresh(index / 2, fresh)
                }
            }
        }
    }

    /// Timed-stream indices whose responses are byte-compared against
    /// `wx run` after the timed window: one per request class.
    pub fn check_sample(self) -> &'static [usize] {
        match self {
            Workload::Solve => &[0, 1],
            Workload::Measure => &[0, 1],
            Workload::Broadcast => &[0, 3],
            Workload::Interactive => &[0, 1, 2, 4, 6],
        }
    }
}

fn spec(name: &str, source: GraphSource, task: Task, trials: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("wxbench-{name}"),
        description: String::new(),
        source,
        task,
        trials,
        seed,
    }
}

fn solve(seed: u64) -> ScenarioSpec {
    spec(
        "solve",
        GraphSource::RandomRegular { n: 4500, d: 8 },
        Task::Spokesman {
            set_size: 2250,
            solvers: None,
        },
        1,
        seed,
    )
}

fn measure(notion: NotionKind, seed: u64) -> ScenarioSpec {
    spec(
        "measure",
        GraphSource::RandomRegular { n: 2400, d: 8 },
        Task::Measure {
            notion,
            alpha: None,
            exact_up_to: None,
            fast: None,
        },
        1,
        seed,
    )
}

fn decay() -> Task {
    Task::Radio {
        protocol: ProtocolKind::Decay,
        source_vertex: None,
        max_rounds: None,
    }
}

fn lanes_broadcast(seed: u64) -> ScenarioSpec {
    spec(
        "broadcast-lanes",
        GraphSource::Margulis { m: 100 },
        decay(),
        64,
        seed,
    )
}

fn scalar_broadcast(seed: u64) -> ScenarioSpec {
    spec(
        "broadcast-scalar",
        GraphSource::RandomRegular { n: 3000, d: 8 },
        decay(),
        16,
        seed,
    )
}

/// The `k`-th fresh interactive spec: the task kind rotates with `k`.
fn interactive_fresh(k: usize, seed: u64) -> ScenarioSpec {
    let small = GraphSource::RandomRegular { n: 128, d: 4 };
    match k % 4 {
        0 => spec(
            "interactive-measure",
            small,
            Task::Measure {
                notion: if (k / 4).is_multiple_of(2) {
                    NotionKind::Ordinary
                } else {
                    NotionKind::Unique
                },
                alpha: None,
                exact_up_to: None,
                fast: None,
            },
            1,
            seed,
        ),
        1 => spec(
            "interactive-profile",
            GraphSource::RandomRegular { n: 32, d: 4 },
            Task::Profile {
                alpha: Some(0.25),
                exact_up_to: None,
                fast: Some(true),
            },
            1,
            seed,
        ),
        2 => spec(
            "interactive-spokesman",
            small,
            Task::Spokesman {
                set_size: 64,
                solvers: None,
            },
            1,
            seed,
        ),
        _ => spec("interactive-radio", small, decay(), 4, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64) -> Vec<String> {
        (0..40).map(|i| w.request(seed, i).to_json()).collect()
    }

    #[test]
    fn the_same_seed_yields_the_same_request_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7), stream(w, 7), "{}", w.name());
            let warm = |s| -> Vec<String> { w.warmup(s).iter().map(|x| x.to_json()).collect() };
            assert_eq!(warm(7), warm(7));
            assert_ne!(stream(w, 7), stream(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn cold_and_repeated_requests_follow_the_declared_mix() {
        let solve = stream(Workload::Solve, 3);
        let mut distinct = solve.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), solve.len(), "every solve request is cold");

        let warm: Vec<String> = Workload::Interactive
            .warmup(3)
            .iter()
            .map(|s| s.to_json())
            .collect();
        for (i, spec) in stream(Workload::Interactive, 3).iter().enumerate() {
            assert_eq!(warm.contains(spec), i % 2 == 1, "request {i}");
        }

        let measure = stream(Workload::Measure, 3);
        assert_eq!(measure[0], measure[8], "measure cycles over 4 instances");
        assert_ne!(measure[0], measure[2]);
        for i in 0..4 {
            let warm = Workload::Measure.warmup(3)[i].to_json();
            assert_eq!(warm, measure[2 * i], "warm-up builds instance {i}");
        }
    }

    #[test]
    fn every_spec_is_valid() {
        for w in Workload::ALL {
            for spec in w
                .warmup(1)
                .iter()
                .chain(&[w.request(1, 0), w.request(1, 3)])
            {
                spec.validate().expect("generated specs validate");
            }
        }
    }
}

//! Trial ensembles: `trials` runs of one protocol on one shared simulator,
//! trial `t` seeded with `derive_seed(base_seed, t)` — the way the scenario
//! runner and the sweep experiments drive the engine — checked for
//! reproducibility, a shared completion target, sound aggregation, and
//! agreement with the scalar model.

use crate::bitslice::{run_lanes_in, with_thread_lane_workspace, LaneWorkspace, MAX_LANES};
use crate::oracle::{self, Trial};
use crate::protocols::ProtocolKind;
use crate::simulator::{RadioSimulator, SimulatorConfig};
use wx_graph::random::derive_seed;

/// Runs the ensemble on the lane engine in batches of `lanes` trials,
/// reducing each trial (its batch workspace and lane) to what `summarize`
/// returns; results in trial order.
fn lane_trials<T>(
    sim: &RadioSimulator<'_>,
    kind: ProtocolKind,
    trials: usize,
    base_seed: u64,
    lanes: usize,
    summarize: impl Fn(usize, &LaneWorkspace, usize) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(trials);
    for start in (0..trials).step_by(lanes) {
        let seeds: Vec<u64> = (start..trials.min(start + lanes))
            .map(|t| derive_seed(base_seed, t as u64))
            .collect();
        with_thread_lane_workspace(|ws| {
            run_lanes_in(sim, &mut *kind.build(), &seeds, ws);
            out.extend((0..seeds.len()).map(|lane| summarize(start + lane, ws, lane)));
        });
    }
    out
}

/// The ensemble by the scalar model, trial by trial.
fn oracle_trials(
    sim: &RadioSimulator<'_>,
    kind: ProtocolKind,
    trials: usize,
    base_seed: u64,
) -> Vec<Trial> {
    (0..trials)
        .map(|t| oracle::run(sim, kind, derive_seed(base_seed, t as u64)))
        .collect()
}

#[test]
fn trials_are_reproducible() {
    let g = wx_constructions::families::random_regular_graph(64, 4, 2).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let run = || {
        lane_trials(&sim, ProtocolKind::Decay, 6, 9, MAX_LANES, |_, ws, l| {
            Trial::of_lane(ws, l, 64)
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), 6);
    assert_eq!(a, b);
    assert_eq!(a, oracle_trials(&sim, ProtocolKind::Decay, 6, 9));
}

#[test]
fn stats_wrapper_matches_manual_aggregation() {
    let g = wx_constructions::families::grid_graph(5, 5).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let outcomes: Vec<_> = oracle_trials(&sim, ProtocolKind::Decay, 4, 3)
        .into_iter()
        .map(|t| t.outcome)
        .collect();
    // the scalar ensemble's completion statistics, aggregated inline
    let mut scalar_rounds: Vec<usize> = outcomes.iter().filter_map(|o| o.completed_at).collect();
    scalar_rounds.sort_unstable();
    // aggregate the lane engine's completion rounds by hand
    let mut rounds: Vec<usize> =
        lane_trials(&sim, ProtocolKind::Decay, 4, 3, MAX_LANES, |_, ws, l| {
            ws.lane_outcome(l).completed_at
        })
        .into_iter()
        .flatten()
        .collect();
    rounds.sort_unstable();
    assert_eq!(outcomes.len(), 4);
    assert_eq!(
        scalar_rounds.len(),
        outcomes.iter().filter(|o| o.completed()).count()
    );
    assert_eq!(scalar_rounds.len(), rounds.len());
    assert_eq!(scalar_rounds.first(), rounds.first());
    assert_eq!(scalar_rounds.last(), rounds.last());
    if !rounds.is_empty() {
        let median = |r: &[usize]| r[(r.len() - 1) / 2];
        assert_eq!(median(&scalar_rounds), median(&rounds));
        let mean = |r: &[usize]| r.iter().sum::<usize>() as f64 / r.len() as f64;
        assert_eq!(mean(&scalar_rounds), mean(&rounds));
    }
}

#[test]
fn deterministic_protocols_give_identical_trials() {
    let g = wx_constructions::families::complete_k_ary_tree(2, 5).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let kind = ProtocolKind::NaiveFlooding;
    let outcomes = oracle_trials(&sim, kind, 3, 1);
    assert!(outcomes.iter().all(|t| *t == outcomes[0]));
    // a deterministic protocol ignores its seed on lanes too
    let lanes = lane_trials(&sim, kind, 3, 1, MAX_LANES, |_, ws, l| ws.lane_outcome(l));
    assert!(lanes.iter().all(|o| *o == lanes[0]));
    assert_eq!(lanes[0], outcomes[0].outcome);
}

#[test]
fn map_trials_summaries_match_full_outcomes() {
    // summaries read off the shared thread workspace equal the full
    // records of the same trials run alone in fresh workspaces
    let g = wx_constructions::families::random_regular_graph(64, 4, 5).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let summaries = lane_trials(&sim, ProtocolKind::Decay, 5, 17, 2, |t, ws, l| {
        let outcome = ws.lane_outcome(l);
        (
            t,
            outcome.completed_at,
            outcome.rounds_simulated,
            ws.lane_rounds_to_reach_fraction(l, 0.5, outcome.reachable),
        )
    });
    assert_eq!(summaries.len(), 5);
    for (i, (t, completed_at, rounds, half)) in summaries.iter().enumerate() {
        let full = oracle::one_lane(&sim, ProtocolKind::Decay, derive_seed(17, i as u64));
        assert_eq!(*t, i);
        assert_eq!(*completed_at, full.outcome.completed_at);
        assert_eq!(*rounds, full.outcome.rounds_simulated);
        assert_eq!(
            *half,
            crate::metrics::rounds_to_reach_fraction(
                &full.informed_per_round,
                0.5,
                full.outcome.reachable
            )
        );
    }
}

#[test]
fn lane_summaries_are_identical_to_scalar_summaries() {
    let g = wx_constructions::families::random_regular_graph(90, 4, 11).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let scalar: Vec<_> = oracle_trials(&sim, ProtocolKind::Decay, 70, 23)
        .into_iter()
        .enumerate()
        .map(|(t, trial)| {
            let half = crate::metrics::rounds_to_reach_fraction(
                &trial.informed_per_round,
                0.5,
                trial.outcome.reachable,
            );
            (t, trial.outcome, half, trial.first_informed_round[89])
        })
        .collect();
    for lanes in [1usize, 8, 64] {
        let sliced = lane_trials(&sim, ProtocolKind::Decay, 70, 23, lanes, |t, ws, l| {
            let outcome = ws.lane_outcome(l);
            (
                t,
                outcome,
                ws.lane_rounds_to_reach_fraction(l, 0.5, outcome.reachable),
                ws.lane_first_informed_round(l, 89),
            )
        });
        assert_eq!(scalar, sliced, "lanes={lanes}");
    }
}

#[test]
fn shared_simulator_does_one_bfs_and_caches_the_target() {
    // the reachable count is computed in the constructor; afterwards it is
    // a field read, identical across all trials and batches
    let g = wx_constructions::families::grid_graph(6, 6).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let scalar = oracle_trials(&sim, ProtocolKind::Decay, 8, 1);
    let lanes = lane_trials(&sim, ProtocolKind::Decay, 8, 1, 3, |_, ws, l| {
        ws.lane_outcome(l).reachable
    });
    assert!(scalar
        .iter()
        .map(|t| t.outcome.reachable)
        .chain(lanes.iter().copied())
        .all(|r| r == sim.reachable_count()));
}

//! Trial ensembles: `trials` runs of one protocol on one shared simulator,
//! trial `t` seeded with `derive_seed(base_seed, t)` — the way the scenario
//! runner and the sweep experiments drive the engines — checked for
//! reproducibility, a shared completion target, sound aggregation, and
//! lane-for-scalar agreement.

use crate::bitslice::{run_lanes_in, with_thread_lane_workspace, LaneProtocol, LaneWorkspace};
use crate::bitslice::{LaneDecay, LaneMirror, MAX_LANES};
use crate::protocols::decay::DecayProtocol;
use crate::protocols::naive::NaiveFlooding;
use crate::protocols::BroadcastProtocol;
use crate::simulator::{RadioSimulator, SimulatorConfig, TrialOutcome};
use crate::workspace::{with_thread_workspace, TrialWorkspace};
use wx_graph::random::derive_seed;
use wx_graph::Graph;

/// Runs the ensemble on the scalar engine, one reused workspace, reducing
/// each trial to what `summarize` returns; results in trial order.
fn scalar_trials<P: BroadcastProtocol<Graph>, T>(
    sim: &RadioSimulator<'_>,
    trials: usize,
    base_seed: u64,
    make_protocol: impl Fn() -> P,
    summarize: impl Fn(usize, &TrialOutcome, &TrialWorkspace) -> T,
) -> Vec<T> {
    (0..trials)
        .map(|t| {
            with_thread_workspace(|ws| {
                let seed = derive_seed(base_seed, t as u64);
                let outcome = sim.run_in(&mut make_protocol(), seed, ws);
                summarize(t, &outcome, ws)
            })
        })
        .collect()
}

/// Runs the ensemble on the lane engine in batches of `lanes` trials,
/// reducing each trial (its batch workspace and lane) to what `summarize`
/// returns; results in trial order.
fn lane_trials<P: LaneProtocol<Graph>, T>(
    sim: &RadioSimulator<'_>,
    trials: usize,
    base_seed: u64,
    lanes: usize,
    make_protocol: impl Fn() -> P,
    summarize: impl Fn(usize, &LaneWorkspace, usize) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(trials);
    for start in (0..trials).step_by(lanes) {
        let seeds: Vec<u64> = (start..trials.min(start + lanes))
            .map(|t| derive_seed(base_seed, t as u64))
            .collect();
        with_thread_lane_workspace(|ws| {
            run_lanes_in(sim, &mut make_protocol(), &seeds, ws);
            out.extend((0..seeds.len()).map(|lane| summarize(start + lane, ws, lane)));
        });
    }
    out
}

/// Each scalar trial of the ensemble run alone in a fresh workspace: its
/// outcome and its per-round informed counts.
fn fresh_scalar_trials<P: BroadcastProtocol<Graph>>(
    sim: &RadioSimulator<'_>,
    trials: usize,
    base_seed: u64,
    make_protocol: impl Fn() -> P,
) -> Vec<(TrialOutcome, Vec<usize>)> {
    (0..trials)
        .map(|t| {
            let mut ws = TrialWorkspace::new(0);
            let seed = derive_seed(base_seed, t as u64);
            let outcome = sim.run_in(&mut make_protocol(), seed, &mut ws);
            (outcome, ws.informed_per_round().to_vec())
        })
        .collect()
}

#[test]
fn trials_are_reproducible() {
    let g = wx_constructions::families::random_regular_graph(64, 4, 2).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let run = || {
        lane_trials(&sim, 6, 9, MAX_LANES, LaneDecay::default, |_, ws, l| {
            (ws.lane_outcome(l), ws.lane_informed_per_round(l).to_vec())
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), 6);
    assert_eq!(a, b);
    let scalar = fresh_scalar_trials(&sim, 6, 9, DecayProtocol::default);
    let again = fresh_scalar_trials(&sim, 6, 9, DecayProtocol::default);
    for ((x, x_rounds), (y, y_rounds)) in scalar.iter().zip(again.iter()) {
        assert_eq!(x.completed_at, y.completed_at);
        assert_eq!(x_rounds, y_rounds);
    }
}

#[test]
fn stats_wrapper_matches_manual_aggregation() {
    let g = wx_constructions::families::grid_graph(5, 5).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let outcomes = scalar_trials(&sim, 4, 3, DecayProtocol::default, |_, o, _| *o);
    // the scalar ensemble's completion statistics, aggregated inline
    let mut scalar_rounds: Vec<usize> = outcomes.iter().filter_map(|o| o.completed_at).collect();
    scalar_rounds.sort_unstable();
    // aggregate the lane engine's completion rounds by hand
    let mut rounds: Vec<usize> =
        lane_trials(&sim, 4, 3, MAX_LANES, LaneDecay::default, |_, ws, l| {
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
    let outcomes = scalar_trials(&sim, 3, 1, || NaiveFlooding, |_, o, _| *o);
    let first = outcomes[0].completed_at;
    assert!(outcomes.iter().all(|o| o.completed_at == first));
    // a deterministic protocol ignores its seed on lanes too
    let lanes = lane_trials(
        &sim,
        3,
        1,
        MAX_LANES,
        || LaneMirror::new(NaiveFlooding),
        |_, ws, l| ws.lane_outcome(l),
    );
    assert!(lanes.iter().all(|o| *o == lanes[0]));
    assert_eq!(lanes[0].completed_at, first);
}

#[test]
fn map_trials_summaries_match_full_outcomes() {
    let g = wx_constructions::families::random_regular_graph(64, 4, 5).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let summaries = scalar_trials(&sim, 5, 17, DecayProtocol::default, |t, outcome, ws| {
        (
            t,
            outcome.completed_at,
            outcome.rounds_simulated,
            ws.rounds_to_reach_fraction(0.5, outcome.reachable),
        )
    });
    let full = fresh_scalar_trials(&sim, 5, 17, DecayProtocol::default);
    assert_eq!(summaries.len(), 5);
    for (i, (t, completed_at, rounds, half)) in summaries.iter().enumerate() {
        let (outcome, informed_per_round) = &full[i];
        assert_eq!(*t, i);
        assert_eq!(*completed_at, outcome.completed_at);
        assert_eq!(*rounds, outcome.rounds_simulated);
        assert_eq!(
            *half,
            crate::metrics::rounds_to_reach_fraction(informed_per_round, 0.5, outcome.reachable)
        );
    }
}

#[test]
fn lane_summaries_are_identical_to_scalar_summaries() {
    let g = wx_constructions::families::random_regular_graph(90, 4, 11).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let scalar = scalar_trials(&sim, 70, 23, DecayProtocol::default, |t, outcome, ws| {
        (
            t,
            *outcome,
            ws.rounds_to_reach_fraction(0.5, outcome.reachable),
            ws.first_informed_round()[89],
        )
    });
    for lanes in [1usize, 8, 64] {
        let sliced = lane_trials(&sim, 70, 23, lanes, LaneDecay::default, |t, ws, l| {
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
    // a field read, identical across all trials on either engine
    let g = wx_constructions::families::grid_graph(6, 6).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let scalar = scalar_trials(&sim, 8, 1, DecayProtocol::default, |_, outcome, _| {
        outcome.reachable
    });
    let lanes = lane_trials(&sim, 8, 1, 3, LaneDecay::default, |_, ws, l| {
        ws.lane_outcome(l).reachable
    });
    assert!(scalar
        .iter()
        .chain(lanes.iter())
        .all(|&r| r == sim.reachable_count()));
}

//! Radio-broadcast integration tests: protocol correctness across topologies
//! and the Section-5 lower-bound shape.

use wx_constructions::BroadcastChain;
use wx_radio::lower_bound::ChainExperiment;
use wx_radio::{
    run_lanes_in, LaneWorkspace, ProtocolKind, RadioSimulator, SimulatorConfig, TrialOutcome,
};

/// One trial of `kind` under `seed` as a 1-lane batch: its outcome and its
/// per-round informed counts, counted from the per-vertex first-informed
/// rounds.
fn run(sim: &RadioSimulator<'_>, kind: ProtocolKind, seed: u64) -> (TrialOutcome, Vec<usize>) {
    let mut ws = LaneWorkspace::new(0);
    run_lanes_in(sim, &mut *kind.build(), &[seed], &mut ws);
    let outcome = ws.lane_outcome(0);
    let mut informed_per_round = vec![0; outcome.rounds_simulated + 1];
    for v in 0..sim.graph().num_vertices() {
        if let Some(r) = ws.lane_first_informed_round(0, v) {
            informed_per_round[r] += 1;
        }
    }
    for r in 1..informed_per_round.len() {
        informed_per_round[r] += informed_per_round[r - 1];
    }
    (outcome, informed_per_round)
}

#[test]
fn collision_free_protocols_complete_everywhere() {
    let graphs: Vec<(&str, wx_graph::Graph)> = vec![
        (
            "expander",
            wx_constructions::families::random_regular_graph(96, 4, 1).unwrap(),
        ),
        (
            "grid",
            wx_constructions::families::grid_graph(8, 8).unwrap(),
        ),
        (
            "c-plus",
            wx_constructions::families::complete_plus_graph(10)
                .unwrap()
                .0,
        ),
        ("chain", BroadcastChain::new(8, 2, 1).unwrap().graph),
    ];
    for (name, g) in graphs {
        for kind in [
            ProtocolKind::RoundRobin,
            ProtocolKind::Decay,
            ProtocolKind::Spokesman,
        ] {
            let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
            let (outcome, informed_per_round) = run(&sim, kind, 3);
            assert!(
                outcome.completed_at.is_some(),
                "{kind} failed to complete on {name}"
            );
            // monotone coverage curve
            assert!(informed_per_round.windows(2).all(|w| w[1] >= w[0]));
        }
    }
}

#[test]
fn informed_counts_never_exceed_reachable() {
    let g = wx_constructions::families::random_regular_graph(64, 4, 9).unwrap();
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    for seed in 0..3 {
        let (o, informed_per_round) = run(&sim, ProtocolKind::Decay, seed);
        assert!(informed_per_round.iter().all(|&c| c <= o.reachable));
        // first-informed rounds are consistent with the informed count
        assert_eq!(o.informed, *informed_per_round.last().unwrap());
    }
}

#[test]
fn corollary_5_1_per_round_coverage_on_the_first_stage() {
    // No transmission pattern informs more than 2s vertices of stage-1 N per
    // round; therefore reaching a (2i/log 2s) fraction of N needs ≥ 1 + i
    // rounds. We verify the per-round increments directly.
    let s = 32usize;
    let chain = BroadcastChain::new(s, 1, 5).unwrap();
    let sim = RadioSimulator::new(&chain.graph, chain.root, SimulatorConfig::default());
    for kind in [
        ProtocolKind::Spokesman,
        ProtocolKind::Decay,
        ProtocolKind::NaiveFlooding,
    ] {
        let (_, informed_per_round) = run(&sim, kind, 7);
        for w in informed_per_round.windows(2) {
            let increment = w[1] - w[0];
            // per round at most: the whole S side (s, informed by the root)
            // plus 2s uniquely-coverable N vertices.
            assert!(
                increment <= 3 * s,
                "{kind}: informed {increment} new vertices in one round, above the 2s cap (+s for the S side)"
            );
        }
    }
}

#[test]
fn broadcast_time_on_chain_grows_with_number_of_stages() {
    let cfg = SimulatorConfig {
        max_rounds: 50_000,
        stop_when_complete: true,
    };
    let mut prev = 0usize;
    for stages in [1usize, 3, 6] {
        let chain = BroadcastChain::new(16, stages, 11).unwrap();
        let exp = ChainExperiment::new(&chain, cfg.clone());
        let run = exp.run(ProtocolKind::Spokesman, 3);
        let completed = run.completed_at.expect("spokesman completes");
        assert!(
            completed > prev,
            "{stages} stages completed in {completed} rounds, not more than {prev}"
        );
        prev = completed;
    }
}

#[test]
fn broadcast_time_on_chain_grows_with_log_of_stage_size() {
    // Fixing the number of stages and growing s (so growing n/D), the total
    // broadcast time should grow — the per-hop cost is Ω(log 2s).
    let cfg = SimulatorConfig {
        max_rounds: 50_000,
        stop_when_complete: true,
    };
    let stages = 3usize;
    let mut times = Vec::new();
    for s in [8usize, 64, 256] {
        let chain = BroadcastChain::new(s, stages, 13).unwrap();
        let exp = ChainExperiment::new(&chain, cfg.clone());
        // decay is the protocol the lower bound is usually stated against;
        // one run is noisy, so compare medians over several seeds
        let mut completions: Vec<usize> = (0..7u64)
            .map(|seed| {
                exp.run(ProtocolKind::Decay, 5 + seed)
                    .completed_at
                    .expect("decay completes")
            })
            .collect();
        completions.sort_unstable();
        times.push(completions[completions.len() / 2] as f64);
    }
    assert!(
        times[1] > times[0] && times[2] > times[1],
        "median broadcast times {times:?} do not grow with s"
    );
}

#[test]
fn relay_gaps_reflect_the_log_factor() {
    // Per-stage gaps on a larger-s chain should exceed those on a smaller-s
    // chain (same protocol, same seeds), matching Corollary 5.1.
    let cfg = SimulatorConfig::default();
    let small = BroadcastChain::new(8, 4, 17).unwrap();
    let large = BroadcastChain::new(128, 4, 17).unwrap();
    let small_gap = ChainExperiment::new(&small, cfg.clone())
        .run(ProtocolKind::Decay, 23)
        .mean_gap()
        .unwrap();
    let large_gap = ChainExperiment::new(&large, cfg)
        .run(ProtocolKind::Decay, 23)
        .mean_gap()
        .unwrap();
    assert!(
        large_gap > small_gap,
        "mean relay gap did not grow with s: {small_gap} vs {large_gap}"
    );
}

//! Single-trial forwards over a 1-lane [`run_lanes_in`] batch.
//!
//! The `wxbench` replay still names these four calls; each is one line over
//! the lane engine, so they add no second round. They go when the replay
//! calls [`run_lanes_in`] itself.

use crate::bitslice::{run_lanes_in, with_thread_lane_workspace, LaneProtocol, LaneWorkspace};
use crate::protocols::ProtocolKind;
use crate::simulator::{RadioSimulator, TrialOutcome};
use wx_graph::GraphView;

impl<G: GraphView + ?Sized> RadioSimulator<'_, G> {
    /// Runs one trial of `protocol` under `seed` as a 1-lane batch in `ws`
    /// and returns its outcome; the trajectory stays readable from `ws`.
    pub fn run_in(
        &self,
        protocol: &mut dyn LaneProtocol<G>,
        seed: u64,
        ws: &mut LaneWorkspace,
    ) -> TrialOutcome {
        run_lanes_in(self, protocol, &[seed], ws);
        ws.lane_outcome(0)
    }
}

impl LaneWorkspace {
    /// [`LaneWorkspace::lane_rounds_to_reach_fraction`] of lane 0.
    pub fn rounds_to_reach_fraction(&self, fraction: f64, reachable: usize) -> Option<usize> {
        self.lane_rounds_to_reach_fraction(0, fraction, reachable)
    }
}

impl ProtocolKind {
    /// [`ProtocolKind::build`].
    pub fn build_lanes<G: GraphView + ?Sized>(self) -> Box<dyn LaneProtocol<G>> {
        self.build()
    }
}

/// [`with_thread_lane_workspace`].
///
/// # Panics
/// Panics if `f` re-enters either function on the same thread.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut LaneWorkspace) -> R) -> R {
    with_thread_lane_workspace(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SimulatorConfig;

    #[test]
    fn reset_reseeds_and_reuses() {
        // a reused workspace forgets the previous trial: a new source, a
        // new first-informed record, nothing stale
        let g = wx_graph::Graph::from_edges(8, (0..7).map(|i| (i, i + 1))).unwrap();
        let config = SimulatorConfig {
            max_rounds: 2,
            stop_when_complete: true,
        };
        let mut ws = LaneWorkspace::new(8);
        let flood = |source, ws: &mut LaneWorkspace| {
            let sim = RadioSimulator::new(&g, source, config.clone());
            sim.run_in(&mut *ProtocolKind::NaiveFlooding.build(), 0, ws)
        };
        assert_eq!(flood(3, &mut ws).informed, 5);
        assert_eq!(ws.lane_first_informed_round(0, 3), Some(0));
        assert_eq!(ws.lane_first_informed_round(0, 5), Some(2));
        flood(0, &mut ws);
        assert_eq!(ws.lane_first_informed_round(0, 0), Some(0));
        assert_eq!(ws.lane_first_informed_round(0, 3), None);
        assert_eq!(ws.lane_first_informed_round(0, 5), None);
    }

    #[test]
    fn workspace_grows_across_graph_sizes() {
        let mut ws = LaneWorkspace::new(4);
        for n in [4usize, 100, 4] {
            let g = wx_graph::Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
            let sim = RadioSimulator::new(&g, n - 1, SimulatorConfig::default());
            let outcome = sim.run_in(&mut *ProtocolKind::NaiveFlooding.build(), 0, &mut ws);
            assert_eq!(outcome.completed_at, Some(n - 1));
            assert_eq!(ws.lane_first_informed_round(0, 0), Some(n - 1));
        }
    }

    #[test]
    fn thread_pool_reuses_one_workspace() {
        let g = wx_constructions::families::grid_graph(4, 4).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let outcome =
            with_thread_workspace(|ws| sim.run_in(&mut *ProtocolKind::Decay.build(), 9, ws));
        // the next borrow sees the trial the previous one left behind
        let (lanes, again) = with_thread_workspace(|ws| (ws.lanes(), ws.lane_outcome(0)));
        assert_eq!(lanes, 1);
        assert_eq!(again, outcome);
    }

    #[test]
    fn rounds_to_reach_fraction_matches_outcome_semantics() {
        let g = wx_constructions::families::grid_graph(5, 5).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let mut ws = LaneWorkspace::new(0);
        let outcome = sim.run_in(&mut *ProtocolKind::Decay.build(), 4, &mut ws);
        let rounds = outcome.completed_at.unwrap();
        assert_eq!(ws.rounds_to_reach_fraction(0.0, 25), Some(0));
        assert_eq!(ws.rounds_to_reach_fraction(1.0, 25), Some(rounds));
        for fraction in [0.1, 0.5, 0.9] {
            assert_eq!(
                ws.rounds_to_reach_fraction(fraction, 25),
                ws.lane_rounds_to_reach_fraction(0, fraction, 25)
            );
        }
        // a target above the reachable count is never met
        assert_eq!(ws.rounds_to_reach_fraction(1.0, 26), None);
    }
}

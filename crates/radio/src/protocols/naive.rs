//! Naive flooding: every informed vertex transmits every round.
//!
//! This is the strawman the paper's introduction uses to motivate unique and
//! wireless expansion: on the `C⁺` example it deadlocks after the first
//! round because every uninformed vertex always hears a collision.

use crate::bitslice::{LaneProtocol, LaneView};
use wx_graph::GraphView;

/// Every informed vertex transmits in every round.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveFlooding;

impl<G: GraphView + ?Sized> LaneProtocol<G> for NaiveFlooding {
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        for (word, &informed) in transmit.iter_mut().zip(view.informed) {
            *word = informed & view.live;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::run_lanes;
    use crate::simulator::{RadioSimulator, SimulatorConfig};
    use wx_graph::Graph;

    #[test]
    fn transmits_exactly_the_informed_set() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let informed = [0b11, 0b10, 0b01];
        let view = LaneView {
            graph: &g,
            round: 0,
            live: 0b10,
            informed: &informed,
            open: &[u64::MAX; 3],
        };
        let mut transmit = [u64::MAX; 3];
        NaiveFlooding.fill_transmitters(&view, &mut transmit);
        assert_eq!(transmit, [0b10, 0b10, 0]);
    }

    #[test]
    fn completes_on_star_but_not_on_double_star() {
        // star: the center is the source; all leaves get the message round 1.
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let sim = RadioSimulator::new(&star, 0, SimulatorConfig::default());
        assert_eq!(
            run_lanes(&sim, &mut NaiveFlooding, &[0])[0].completed_at,
            Some(1)
        );

        // two centers adjacent to the same leaves: starting from an extra
        // vertex attached to both centers, the leaves always hear collisions.
        let mut edges = vec![(4usize, 0usize), (4, 1)];
        for leaf in 2..4 {
            edges.push((0, leaf));
            edges.push((1, leaf));
        }
        let g = Graph::from_edges(5, edges).unwrap();
        let sim = RadioSimulator::new(
            &g,
            4,
            SimulatorConfig {
                max_rounds: 30,
                stop_when_complete: true,
            },
        );
        assert_eq!(
            run_lanes(&sim, &mut NaiveFlooding, &[0])[0].completed_at,
            None
        );
    }
}

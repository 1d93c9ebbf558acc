//! The Section-5 broadcast-time lower-bound experiment.
//!
//! The paper's argument: on the chain of `D/2` core graphs, the message must
//! pass through the randomly planted relays `rt₁, rt₂, …` in order
//! (Observation 5.2), and by Corollary 5.1 no transmission pattern can
//! uniquely cover more than a `2/log 2s` fraction of a stage's `N` side per
//! round — so a *random* relay needs `Ω(log 2s) = Ω(log(n/D))` rounds per
//! stage to be hit, in expectation and with high probability over the relay
//! placement.
//!
//! [`ChainExperiment`] runs any protocol on a [`BroadcastChain`] through the
//! lane engine, records when each relay is first informed, and compares the
//! total against the `Ω(D·log(n/D))` reference. The point of the
//! reproduction is the *shape*: the measured per-relay delays should grow
//! with `log s` and the total should scale like `num_stages · log s`, for
//! every protocol (including the centralized spokesman schedule).

use crate::bitslice::{run_lanes_in, with_thread_lane_workspace};
use crate::protocols::ProtocolKind;
use crate::simulator::{RadioSimulator, SimulatorConfig};
use wx_constructions::BroadcastChain;

/// Per-run measurements of the chain experiment.
#[derive(Clone, Debug)]
pub struct ChainRun {
    /// Core size `s` per stage.
    pub s: usize,
    /// Number of stages.
    pub num_stages: usize,
    /// Total number of vertices of the chain.
    pub num_vertices: usize,
    /// Round at which each relay was first informed (`None` if never).
    pub relay_rounds: Vec<Option<usize>>,
    /// Per-stage delay: rounds between informing relay `i−1` (or the start)
    /// and relay `i`, for the relays that were informed.
    pub relay_gaps: Vec<usize>,
    /// Round at which the broadcast completed, if it did.
    pub completed_at: Option<usize>,
    /// The reference lower bound `num_stages·log₂(2s)/4`.
    pub reference_lower_bound: f64,
}

impl ChainRun {
    /// The mean per-stage gap (over informed relays).
    pub fn mean_gap(&self) -> Option<f64> {
        if self.relay_gaps.is_empty() {
            None
        } else {
            Some(self.relay_gaps.iter().sum::<usize>() as f64 / self.relay_gaps.len() as f64)
        }
    }
}

/// The chain lower-bound experiment driver.
pub struct ChainExperiment<'a> {
    chain: &'a BroadcastChain,
    config: SimulatorConfig,
}

impl<'a> ChainExperiment<'a> {
    /// Creates the experiment on an existing chain.
    pub fn new(chain: &'a BroadcastChain, config: SimulatorConfig) -> Self {
        ChainExperiment { chain, config }
    }

    /// Runs `protocol` once with `seed`, as a one-lane batch of the lane
    /// engine, and extracts the relay timings.
    pub fn run(&self, protocol: ProtocolKind, seed: u64) -> ChainRun {
        let sim = RadioSimulator::new(&self.chain.graph, self.chain.root, self.config.clone());
        let mut lanes = protocol.build();
        let (relay_rounds, completed_at) = with_thread_lane_workspace(|ws| {
            run_lanes_in(&sim, &mut *lanes, &[seed], ws);
            let relay_rounds: Vec<Option<usize>> = self
                .chain
                .relays()
                .iter()
                .map(|&r| ws.lane_first_informed_round(0, r))
                .collect();
            (relay_rounds, ws.lane_outcome(0).completed_at)
        });
        let mut relay_gaps = Vec::new();
        let mut prev = 0usize;
        for r in relay_rounds.iter().flatten() {
            relay_gaps.push(r.saturating_sub(prev));
            prev = *r;
        }
        ChainRun {
            s: self.chain.s,
            num_stages: self.chain.num_stages,
            num_vertices: self.chain.num_vertices(),
            relay_rounds,
            relay_gaps,
            completed_at,
            reference_lower_bound: self.chain.reference_lower_bound(),
        }
    }
}

/// The paper's reference curve `D·log₂(n/D)` (up to its constant), evaluated
/// for a chain with the given parameters; used by the E8 harness to plot the
/// measured totals against the predicted shape.
pub fn reference_curve(num_stages: usize, s: usize) -> f64 {
    let d = (2 * num_stages) as f64;
    let n_over_d = (s as f64) * ((s as f64).log2() + 2.0) / 2.0;
    d * n_over_d.max(2.0).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relays_are_informed_in_order() {
        let chain = BroadcastChain::new(8, 3, 1).unwrap();
        let exp = ChainExperiment::new(&chain, SimulatorConfig::default());
        let run = exp.run(ProtocolKind::Spokesman, 2);
        assert!(run.completed_at.is_some());
        let rounds: Vec<usize> = run.relay_rounds.iter().map(|r| r.unwrap()).collect();
        for w in rounds.windows(2) {
            assert!(
                w[0] < w[1],
                "relay rounds not strictly increasing: {rounds:?}"
            );
        }
        assert_eq!(run.relay_gaps.len(), 3);
        assert!(run.mean_gap().unwrap() >= 1.0);
    }

    #[test]
    fn decay_total_time_scales_with_reference() {
        // Shape check on a small chain: the measured completion time should
        // be at least the reference lower bound (which has a generous 1/4
        // constant) for the randomized decay protocol.
        let chain = BroadcastChain::new(16, 3, 5).unwrap();
        let exp = ChainExperiment::new(&chain, SimulatorConfig::default());
        let run = exp.run(ProtocolKind::Decay, 7);
        assert!(run.completed_at.is_some());
        assert!(
            run.completed_at.unwrap() as f64 >= run.reference_lower_bound,
            "decay completed in {} rounds, below the reference {}",
            run.completed_at.unwrap(),
            run.reference_lower_bound
        );
    }

    #[test]
    fn longer_chains_take_proportionally_longer() {
        let short = BroadcastChain::new(8, 2, 3).unwrap();
        let long = BroadcastChain::new(8, 6, 3).unwrap();
        let cfg = SimulatorConfig::default();
        let short_run = ChainExperiment::new(&short, cfg.clone()).run(ProtocolKind::Spokesman, 1);
        let long_run = ChainExperiment::new(&long, cfg).run(ProtocolKind::Spokesman, 1);
        assert!(short_run.completed_at.is_some() && long_run.completed_at.is_some());
        assert!(
            long_run.completed_at.unwrap() >= 2 * short_run.completed_at.unwrap(),
            "long chain {} vs short chain {}",
            long_run.completed_at.unwrap(),
            short_run.completed_at.unwrap()
        );
    }

    #[test]
    fn reference_curve_is_monotone() {
        assert!(reference_curve(4, 16) < reference_curve(8, 16));
        assert!(reference_curve(4, 16) < reference_curve(4, 64));
        assert!(reference_curve(1, 2) > 0.0);
    }
}

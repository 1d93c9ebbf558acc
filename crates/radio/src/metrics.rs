//! Broadcast outcome records and aggregate statistics.

use serde::{Deserialize, Serialize};

/// The result of one broadcast simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BroadcastOutcome {
    /// Name of the protocol that was simulated.
    pub protocol: String,
    /// Number of vertices in the network.
    pub num_vertices: usize,
    /// Number of vertices reachable from the source (the completion target).
    pub reachable: usize,
    /// The round at which the last reachable vertex became informed, if the
    /// broadcast completed within the round cap.
    pub completed_at: Option<usize>,
    /// Number of rounds actually simulated.
    pub rounds_simulated: usize,
    /// `informed_per_round[r]` is the number of informed vertices after `r`
    /// rounds (`informed_per_round[0] == 1`).
    pub informed_per_round: Vec<usize>,
    /// For each vertex, the round at which it first became informed
    /// (`None` if it never did).
    pub first_informed_round: Vec<Option<usize>>,
}

impl BroadcastOutcome {
    /// The number of rounds needed to inform at least `fraction` of the
    /// reachable vertices, or `None` if that never happened.
    pub fn rounds_to_reach_fraction(&self, fraction: f64) -> Option<usize> {
        let target = (fraction * self.reachable as f64).ceil() as usize;
        self.informed_per_round.iter().position(|&c| c >= target)
    }

    /// The first round at which `vertex` was informed.
    pub fn first_round_of(&self, vertex: usize) -> Option<usize> {
        self.first_informed_round.get(vertex).copied().flatten()
    }

    /// `true` if every reachable vertex was informed.
    pub fn completed(&self) -> bool {
        self.completed_at.is_some()
    }
}

/// Aggregate statistics over an ensemble of broadcast outcomes (Monte-Carlo
/// trials of a randomized protocol, or one deterministic protocol on many
/// random instances).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnsembleStats {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Number of trials that completed within the round cap.
    pub completed: usize,
    /// Mean completion round among completed trials (`None` if none).
    pub mean_rounds: Option<f64>,
    /// Median completion round among completed trials.
    pub median_rounds: Option<usize>,
    /// Maximum completion round among completed trials.
    pub max_rounds: Option<usize>,
    /// Minimum completion round among completed trials.
    pub min_rounds: Option<usize>,
}

impl EnsembleStats {
    /// Aggregates an ensemble of outcomes.
    pub fn from_outcomes(outcomes: &[BroadcastOutcome]) -> Self {
        let mut completion_rounds: Vec<usize> =
            outcomes.iter().filter_map(|o| o.completed_at).collect();
        completion_rounds.sort_unstable();
        let completed = completion_rounds.len();
        let (mean, median, max, min) = if completed == 0 {
            (None, None, None, None)
        } else {
            let sum: usize = completion_rounds.iter().sum();
            (
                Some(sum as f64 / completed as f64),
                Some(completion_rounds[(completed - 1) / 2]),
                completion_rounds.last().copied(),
                completion_rounds.first().copied(),
            )
        };
        EnsembleStats {
            trials: outcomes.len(),
            completed,
            mean_rounds: mean,
            median_rounds: median,
            max_rounds: max,
            min_rounds: min,
        }
    }

    /// Fraction of trials that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.completed as f64 / self.trials as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(completed_at: Option<usize>, informed: Vec<usize>) -> BroadcastOutcome {
        BroadcastOutcome {
            protocol: "test".to_string(),
            num_vertices: 10,
            reachable: 10,
            completed_at,
            rounds_simulated: informed.len() - 1,
            informed_per_round: informed,
            first_informed_round: vec![Some(0); 10],
        }
    }

    #[test]
    fn rounds_to_reach_fraction() {
        let o = outcome(Some(4), vec![1, 2, 4, 8, 10]);
        assert_eq!(o.rounds_to_reach_fraction(0.1), Some(0));
        // need ⌈0.5·10⌉ = 5 informed; the first round with ≥ 5 is round 3 (count 8)
        assert_eq!(o.rounds_to_reach_fraction(0.5), Some(3));
        assert_eq!(o.rounds_to_reach_fraction(1.0), Some(4));
        let o = outcome(None, vec![1, 2, 3]);
        assert_eq!(o.rounds_to_reach_fraction(1.0), None);
        assert!(!o.completed());
    }

    #[test]
    fn ensemble_statistics() {
        let outcomes = vec![
            outcome(Some(4), vec![1, 10]),
            outcome(Some(6), vec![1, 10]),
            outcome(Some(8), vec![1, 10]),
            outcome(None, vec![1, 5]),
        ];
        let stats = EnsembleStats::from_outcomes(&outcomes);
        assert_eq!(stats.trials, 4);
        assert_eq!(stats.completed, 3);
        assert!((stats.mean_rounds.unwrap() - 6.0).abs() < 1e-12);
        assert_eq!(stats.median_rounds, Some(6));
        assert_eq!(stats.max_rounds, Some(8));
        assert_eq!(stats.min_rounds, Some(4));
        assert!((stats.completion_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_ensemble() {
        let stats = EnsembleStats::from_outcomes(&[]);
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.completion_rate(), 0.0);
        assert!(stats.mean_rounds.is_none());
    }
}

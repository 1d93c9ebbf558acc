//! Serializable spokesman solutions for content-addressed caches.
//!
//! A [`SpokesmanResult`] holds its subset as a [`VertexSet`] tied to a
//! particular bipartite instance and deliberately skips it during
//! serialization (reports only carry scalar summaries). A cache that
//! wants to *skip a resolve entirely* needs the subset itself, plus
//! enough shape information to detect that a cached entry is being
//! replayed against the wrong instance. [`SolutionArtifact`] is that
//! portable form: the solver kind, the instance's left-side size, the
//! chosen left-local indices, and the unique coverage the cold solve
//! observed — the last doubling as an integrity check on rehydration.

use serde::{Deserialize, Serialize};
use wx_graph::{BipartiteGraph, VertexSet};

use crate::solver::{SolverKind, SpokesmanResult};

/// A spokesman solution detached from its graph: serializable, and
/// checkable against the instance it is replayed on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolutionArtifact {
    /// Which solver produced the subset.
    pub solver: SolverKind,
    /// `num_left()` of the instance the subset was solved on.
    pub num_left: usize,
    /// The chosen subset as sorted left-local indices in `0..num_left`.
    pub subset: Vec<usize>,
    /// The unique coverage the cold solve observed (integrity check).
    pub unique_coverage: usize,
}

impl SolutionArtifact {
    /// Captures a solve result as a portable artifact. `num_left` is the
    /// left-side size of the instance the result was produced on.
    #[must_use]
    pub fn from_result(result: &SpokesmanResult, num_left: usize) -> SolutionArtifact {
        SolutionArtifact {
            solver: result.solver,
            num_left,
            subset: result.subset.to_vec(),
            unique_coverage: result.unique_coverage,
        }
    }

    /// Replays the artifact against `g`, recomputing the coverage from
    /// scratch. Returns `None` — "treat as a cache miss" — when the
    /// artifact does not fit the instance: wrong left-side size, an index
    /// out of range, or a recomputed unique coverage that disagrees with
    /// the one recorded at solve time.
    #[must_use]
    pub fn rehydrate(&self, g: &BipartiteGraph) -> Option<SpokesmanResult> {
        if self.num_left != g.num_left() {
            return None;
        }
        if self.subset.iter().any(|&v| v >= self.num_left) {
            return None;
        }
        let subset = VertexSet::from_iter(self.num_left, self.subset.iter().copied());
        let result = SpokesmanResult::from_subset(self.solver, g, subset);
        if result.unique_coverage != self.unique_coverage {
            return None;
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_instance() -> BipartiteGraph {
        // Two left vertices; vertex 0 covers all four right vertices.
        BipartiteGraph::from_edges(2, 4, (0..4).map(|w| (0, w)).chain([(1, 0)])).unwrap()
    }

    #[test]
    fn round_trips_through_serialization() {
        let g = star_instance();
        let cold = SolverKind::GreedyMinDegree.build().solve(&g, 7);
        let artifact = SolutionArtifact::from_result(&cold, g.num_left());
        let json = serde_json::to_string(&artifact).expect("serialize");
        let back: SolutionArtifact = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, artifact);
        let warm = back.rehydrate(&g).expect("artifact fits its own instance");
        assert_eq!(warm.solver, cold.solver);
        assert_eq!(warm.unique_coverage, cold.unique_coverage);
        assert_eq!(warm.subset.to_vec(), cold.subset.to_vec());
    }

    #[test]
    fn rehydrate_rejects_mismatched_instances() {
        let g = star_instance();
        let cold = SolverKind::GreedyMinDegree.build().solve(&g, 7);
        let mut artifact = SolutionArtifact::from_result(&cold, g.num_left());

        let mut wrong_size = artifact.clone();
        wrong_size.num_left += 1;
        assert!(wrong_size.rehydrate(&g).is_none());

        let mut out_of_range = artifact.clone();
        out_of_range.subset.push(artifact.num_left);
        assert!(out_of_range.rehydrate(&g).is_none());

        artifact.unique_coverage += 1;
        assert!(artifact.rehydrate(&g).is_none());
    }
}

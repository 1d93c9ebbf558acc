//! # wx-spokesman
//!
//! Solvers for the **Spokesman Election problem** (Chlamtac–Weinstein, and
//! Section 4.2.1 of *Wireless Expanders*): given a bipartite graph
//! `G_S = (S, N, E)`, find a subset `S' ⊆ S` maximizing the number of
//! vertices of `N` with *exactly one* neighbor in `S'` (the unique coverage
//! `|Γ¹_S(S')|`).
//!
//! The problem is NP-hard in general [Chlamtac–Kutten], so this crate offers
//! a portfolio of solvers with different guarantees, matching the algorithms
//! analysed in the paper:
//!
//! | Solver | Paper source | Guarantee |
//! |--------|--------------|-----------|
//! | [`exact::ExactSolver`] | — | optimal, `O(2^{\|S\|})`, small instances only |
//! | [`random_decay::RandomDecaySolver`] | Lemmas 4.2 & 4.3 | `Ω(\|N\| / log(2·min{δ_N, δ_S}))` in expectation |
//! | [`partition::PartitionSolver`] | Appendix A.1.2–A.2.1 (Procedure Partition) | `≥ \|N\|/(9·log 2δ_N)` deterministically |
//! | [`greedy::GreedyMinDegreeSolver`] | Lemma A.1 | `≥ \|N\|/Δ_S` deterministically |
//! | [`degree_class::DegreeClassSolver`] | Lemmas A.5–A.7 | `≥ 0.20087·\|N\|/log₂Δ` (with the optimal base `c ≈ 3.59`) |
//! | [`chlamtac_weinstein::ChlamtacWeinsteinSolver`] | \[7\] (baseline) | `≥ \|N\|/log \|S\|` |
//! | [`solver::PortfolioSolver`] | — | best of all of the above |
//!
//! Every solver returns a [`SpokesmanResult`] containing the chosen subset,
//! its unique coverage, and the solver that produced it, so results are
//! directly comparable in experiment E7/E10 harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bounds;
pub mod chlamtac_weinstein;
pub mod degree_class;
pub mod delta;
pub mod exact;
pub mod greedy;
pub mod local_search;
pub mod partition;
pub mod random_decay;
mod sample;
pub mod solver;
#[cfg(test)]
mod test_instances;

pub use artifact::SolutionArtifact;
pub use solver::{PortfolioSolver, SolverKind, SpokesmanResult, SpokesmanSolver};

pub use chlamtac_weinstein::ChlamtacWeinsteinSolver;
pub use degree_class::DegreeClassSolver;
pub use delta::CoverageTracker;
pub use exact::ExactSolver;
pub use greedy::GreedyMinDegreeSolver;
pub use local_search::{LocalSearchImprover, LocalSearchSolver};
pub use partition::PartitionSolver;
pub use random_decay::RandomDecaySolver;

//! # wx-expansion
//!
//! Expansion metrics for the *Wireless Expanders* reproduction.
//!
//! The paper studies three expansion notions for a graph `G = (V, E)` and a
//! size bound `α`:
//!
//! * **ordinary** expansion `β(G)` — the minimum of `|Γ⁻(S)|/|S|` over all
//!   non-empty `S` with `|S| ≤ α·n` ([`engine::Ordinary`]);
//! * **unique-neighbor** expansion `βu(G)` — the minimum of `|Γ¹(S)|/|S|`
//!   ([`engine::UniqueNeighbor`]);
//! * **wireless** expansion `βw(G)` — the minimum over `S` of the *maximum*
//!   over `S' ⊆ S` of `|Γ¹_S(S')|/|S|` ([`wireless`]).
//!
//! All three are minima over exponentially many candidate sets, so they share
//! one computation engine: the [`engine::MeasurementEngine`] drives any
//! [`engine::ExpansionMeasure`] ([`engine::Ordinary`],
//! [`engine::UniqueNeighbor`], [`engine::Wireless`]) over either an
//! exhaustive enumeration or the shared [`sampling`] candidate pool,
//! evaluates candidates on [`wx_trace::par_map`] threads, and returns a
//! unified [`engine::Measurement`] with value, witness, exactness flag and —
//! for the wireless measure — the certifying transmitter subset. Per set, β
//! and βu are [`wx_graph::neighborhood::expansion_of_set`] and
//! [`wx_graph::neighborhood::unique_expansion_of_set`], and βw is
//! [`wireless::of_set_exact`]; see the [`engine`] module docs for the full
//! contract and the exact-or-sampled rule.
//!
//! One engine is configured once: `α`, the exact-enumeration threshold, the
//! [`SamplerConfig`] and the seed all live on [`MeasurementEngine`].
//!
//! The [`spectral`] module computes the second adjacency eigenvalue `λ₂`
//! needed by Lemma 3.1, and [`relations`] packages the paper's inequalities
//! (Observation 2.1, Lemmas 3.1/3.2, Theorems 1.1/1.2) as checkable
//! predicates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod relations;
pub mod sampling;
pub mod spectral;
pub mod wireless;

pub use engine::{
    ExpansionMeasure, ExpansionTriple, Measurement, MeasurementEngine, MeasurementEngineBuilder,
    Ordinary, UniqueNeighbor, Wireless,
};
pub use sampling::{CandidateSets, SamplerConfig};

/// The three notions of one graph measured together, checked against the
/// spectral and Theorem 1.1 references.
#[cfg(test)]
mod profile {
    mod tests;
}

/// The engine's [`Ordinary`] measure on small graphs.
#[cfg(test)]
mod ordinary {
    mod tests;
}

/// The engine's [`UniqueNeighbor`] measure, and βu ≤ β per set.
#[cfg(test)]
mod unique {
    mod tests;
}

//! The generalized core graph with arbitrary expansion (Lemmas 4.6–4.8).
//!
//! The plain core graph of Lemma 4.4 has expansion `log 2s`, tied to its own
//! size. To obtain a *bad* example at any target expansion `β*` and maximum
//! degree `Δ*` (with `2e/Δ* ≤ β* ≤ Δ*/(2e)`), the paper rescales it:
//!
//! * **Lemma 4.7** (`β > log 2s`): replace every right vertex by
//!   `k = β/log 2s` copies. Expansion rises to `β`; the wireless coverage
//!   bound rises to `2s·k`, still a `2/log 2s` fraction of `N`.
//! * **Lemma 4.8** (`β ≤ log 2s`): replace every left vertex by
//!   `k = (log 2s)/β` copies. Expansion drops to `β`; the wireless coverage
//!   bound stays `2s`, still a `2/log 2s` fraction of `N`.
//! * **Lemma 4.6**: given `(Δ*, β*)`, solve for the core size `s` from
//!   `Δ* = 2s·(β*/log 2s)` (when `β* > log 2s`) or
//!   `Δ* = 2s'·(log 2s'/β*)` (when `β* ≤ log 2s`) and apply the matching
//!   rescaling. The result has `|S*| ≤ Δ*/2`, `|N*| = β*·|S*|`, ordinary
//!   expansion `≥ β*` and wireless coverage at most a
//!   `4/log(min{Δ*/β*, Δ*·β*})` fraction of `N*`.

use crate::core_graph::CoreGraph;
use wx_graph::{BipartiteBuilder, BipartiteGraph, GraphError, Result, VertexSet};

/// Which rescaling produced a [`GeneralizedCoreGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreScaling {
    /// Lemma 4.7: right vertices duplicated (`β > log 2s`).
    DuplicateRight {
        /// The duplication factor `k = ⌈β / log 2s⌉`.
        k: usize,
    },
    /// Lemma 4.8: left vertices duplicated (`β ≤ log 2s`).
    DuplicateLeft {
        /// The duplication factor `k = ⌈(log 2s) / β⌉`.
        k: usize,
    },
}

/// A generalized core graph (Lemma 4.6) with its construction parameters.
#[derive(Clone, Debug)]
pub struct GeneralizedCoreGraph {
    /// The underlying core size `s` (number of leaves before duplication).
    pub s: usize,
    /// The target expansion `β*` requested.
    pub target_beta: f64,
    /// The target maximum degree `Δ*` requested.
    pub target_delta: usize,
    /// Which rescaling was applied.
    pub scaling: CoreScaling,
    /// The resulting bipartite graph `G*_S = (S*, N*, E*)`.
    pub graph: BipartiteGraph,
}

/// Duplicates every right vertex of `g` into `k` copies (Lemma 4.7).
pub fn duplicate_right(g: &BipartiteGraph, k: usize) -> Result<BipartiteGraph> {
    if k == 0 {
        return Err(GraphError::invalid("duplication factor must be at least 1"));
    }
    let mut b = BipartiteBuilder::new(g.num_left(), g.num_right() * k);
    for u in 0..g.num_left() {
        for &w in g.left_neighbors(u) {
            for c in 0..k {
                b.add_edge(u, w * k + c).expect("in range");
            }
        }
    }
    Ok(b.build())
}

/// Duplicates every left vertex of `g` into `k` copies (Lemma 4.8).
pub fn duplicate_left(g: &BipartiteGraph, k: usize) -> Result<BipartiteGraph> {
    if k == 0 {
        return Err(GraphError::invalid("duplication factor must be at least 1"));
    }
    let mut b = BipartiteBuilder::new(g.num_left() * k, g.num_right());
    for u in 0..g.num_left() {
        for &w in g.left_neighbors(u) {
            for c in 0..k {
                b.add_edge(u * k + c, w).expect("in range");
            }
        }
    }
    Ok(b.build())
}

impl GeneralizedCoreGraph {
    /// Builds a generalized core graph with expansion `≥ beta` from an
    /// explicit core size `s` (a power of two), following Lemma 4.7 when
    /// `beta > log 2s` and Lemma 4.8 otherwise. Duplication factors are
    /// rounded up to integers, which can only increase the expansion.
    pub fn from_core_size(s: usize, beta: f64) -> Result<Self> {
        if beta <= 0.0 {
            return Err(GraphError::invalid("target expansion must be positive"));
        }
        let core = CoreGraph::new(s)?;
        let log2s = (core.levels + 1) as f64;
        let (scaling, graph) = if beta > log2s {
            // Rounding k *up* only increases the realized expansion log2s·k.
            let k = (beta / log2s).ceil() as usize;
            (
                CoreScaling::DuplicateRight { k },
                duplicate_right(&core.graph, k)?,
            )
        } else {
            // Rounding k *down* keeps the realized expansion log2s/k at or
            // above the requested β (k ≥ 1 because β ≤ log 2s).
            let k = ((log2s / beta).floor() as usize).max(1);
            (
                CoreScaling::DuplicateLeft { k },
                duplicate_left(&core.graph, k)?,
            )
        };
        let target_delta = graph.max_degree();
        Ok(GeneralizedCoreGraph {
            s,
            target_beta: beta,
            target_delta,
            scaling,
            graph,
        })
    }

    /// Builds a generalized core graph from target parameters `(Δ*, β*)`
    /// following the proof of Lemma 4.6: pick the core size from the
    /// equation `Δ* = 2s·β*/log 2s` (case `β* > log 2s`) or
    /// `Δ* = 2s·log 2s/β*` (case `β* ≤ log 2s`), rounded to a power of two.
    ///
    /// Requires `2e/Δ* ≤ β* ≤ Δ*/(2e)` (so that both cases are well-posed).
    pub fn from_targets(delta_star: usize, beta_star: f64) -> Result<Self> {
        let d = delta_star as f64;
        let two_e = 2.0 * std::f64::consts::E;
        if beta_star < two_e / d || beta_star > d / two_e {
            return Err(GraphError::invalid(format!(
                "Lemma 4.6 needs 2e/Δ* ≤ β* ≤ Δ*/(2e); got Δ* = {delta_star}, β* = {beta_star}"
            )));
        }
        // Solve 2s·(β*/log 2s) = Δ*  ⟺  s·/log₂(2s) = Δ*/(2β*) numerically,
        // then check which regime we landed in; if β* ≤ log 2s re-solve the
        // other equation. Scanning powers of two is exact enough because the
        // construction only needs *some* s with the right inequality.
        let ratio_right = d / (2.0 * beta_star); // = s / log2(2s) in case 4.7
        let ratio_left = d * beta_star / 2.0; //  = s·log2(2s) in case 4.8... see below
        let mut chosen: Option<(usize, bool)> = None; // (s, use_right_duplication)
        let mut s = 1usize;
        while s <= 1 << 22 {
            let log2s = (s.trailing_zeros() + 1) as f64;
            // case 4.7: Δ* = 2s·β*/log2s ⟺ s/log2s = Δ*/(2β*), need β* > log 2s
            if beta_star > log2s && (s as f64 / log2s) >= ratio_right {
                chosen = Some((s, true));
                break;
            }
            // case 4.8: Δ* = 2s·(log 2s)/β* ⟺ s·log2s = Δ*·β*/2, need β* ≤ log 2s
            if beta_star <= log2s && (s as f64 * log2s) >= ratio_left {
                chosen = Some((s, false));
                break;
            }
            s *= 2;
        }
        let (s, _dup_right) = chosen.ok_or_else(|| {
            GraphError::invalid("could not find a core size for the requested parameters")
        })?;
        let mut built = Self::from_core_size(s, beta_star)?;
        built.target_delta = delta_star.max(built.graph.max_degree());
        Ok(built)
    }

    /// The realized expansion lower bound: by construction every `S' ⊆ S*`
    /// has `|Γ(S')| ≥ β_realized·|S'|` where `β_realized ≥ β*` (duplication
    /// factors are rounded up).
    pub fn realized_expansion_lower_bound(&self) -> f64 {
        let log2s = (self.s.trailing_zeros() + 1) as f64;
        match self.scaling {
            CoreScaling::DuplicateRight { k } => log2s * k as f64,
            CoreScaling::DuplicateLeft { k } => log2s / k as f64,
        }
    }

    /// The Lemma 4.6(3) upper bound on the uniquely coverable *fraction* of
    /// `N*`: `4 / log₂(min{Δ*/β*, Δ*·β*})` (clamped to 1).
    pub fn wireless_fraction_upper_bound(&self) -> f64 {
        wx_spokesman::bounds::lemma_4_6_upper_bound(self.target_delta, self.target_beta)
            / self.target_beta.max(f64::MIN_POSITIVE)
    }

    /// The structural upper bound on `|Γ¹_{S*}(S')|` inherited from the core
    /// graph: `2s` (left duplication) or `2s·k` (right duplication).
    pub fn unique_coverage_upper_bound(&self) -> usize {
        match self.scaling {
            CoreScaling::DuplicateRight { k } => 2 * self.s * k,
            CoreScaling::DuplicateLeft { .. } => 2 * self.s,
        }
    }

    /// Verifies the checkable parts of Lemmas 4.7/4.8 on the provided
    /// subsets of `S*`: expansion `≥ β*` and unique coverage within the
    /// structural bound.
    pub fn verify(&self, subsets: &[VertexSet]) -> std::result::Result<(), String> {
        for s_prime in subsets {
            if s_prime.is_empty() {
                continue;
            }
            let neigh = self.graph.neighborhood_of_left_subset(s_prime).len() as f64;
            if neigh + 1e-9 < self.target_beta * s_prime.len() as f64 {
                return Err(format!(
                    "expansion violated: |Γ(S')| = {neigh} < β*·|S'| = {}",
                    self.target_beta * s_prime.len() as f64
                ));
            }
            let uniq = self.graph.unique_coverage(s_prime);
            if uniq > self.unique_coverage_upper_bound() {
                return Err(format!(
                    "unique coverage {uniq} exceeds structural bound {}",
                    self.unique_coverage_upper_bound()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wx_spokesman::SpokesmanSolver;

    fn random_subsets(n: usize, count: usize, seed: u64) -> Vec<VertexSet> {
        let mut rng = wx_graph::random::rng_from_seed(seed);
        let mut out = vec![VertexSet::full(n)];
        for _ in 0..count {
            let k = rng.gen_range(1..=n);
            out.push(wx_graph::random::random_subset_of_size(&mut rng, n, k));
        }
        out
    }

    #[test]
    fn duplicate_right_preserves_left_structure() {
        let core = CoreGraph::new(4).unwrap();
        let g = duplicate_right(&core.graph, 3).unwrap();
        assert_eq!(g.num_left(), 4);
        assert_eq!(g.num_right(), core.graph.num_right() * 3);
        for u in 0..4 {
            assert_eq!(g.left_degree(u), core.graph.left_degree(u) * 3);
        }
        assert_eq!(g.max_right_degree(), core.graph.max_right_degree());
    }

    #[test]
    fn duplicate_left_preserves_right_degrees_scaled() {
        let core = CoreGraph::new(4).unwrap();
        let g = duplicate_left(&core.graph, 2).unwrap();
        assert_eq!(g.num_left(), 8);
        assert_eq!(g.num_right(), core.graph.num_right());
        for w in 0..g.num_right() {
            assert_eq!(g.right_degree(w), core.graph.right_degree(w) * 2);
        }
    }

    #[test]
    fn duplication_rejects_zero_factor() {
        let core = CoreGraph::new(2).unwrap();
        assert!(duplicate_right(&core.graph, 0).is_err());
        assert!(duplicate_left(&core.graph, 0).is_err());
    }

    #[test]
    fn lemma_4_7_regime_high_expansion() {
        // s = 8 ⇒ log 2s = 4; ask for β = 12 > 4 ⇒ duplicate right by k = 3.
        let g = GeneralizedCoreGraph::from_core_size(8, 12.0).unwrap();
        assert!(matches!(g.scaling, CoreScaling::DuplicateRight { k: 3 }));
        assert_eq!(g.graph.num_right(), 8 * 4 * 3);
        g.verify(&random_subsets(g.graph.num_left(), 20, 1))
            .unwrap();
        assert!(g.realized_expansion_lower_bound() >= 12.0);
    }

    #[test]
    fn lemma_4_8_regime_low_expansion() {
        // s = 8 ⇒ log 2s = 4; ask for β = 1 ≤ 4 ⇒ duplicate left by k = 4.
        let g = GeneralizedCoreGraph::from_core_size(8, 1.0).unwrap();
        assert!(matches!(g.scaling, CoreScaling::DuplicateLeft { k: 4 }));
        assert_eq!(g.graph.num_left(), 32);
        assert_eq!(g.graph.num_right(), 32);
        g.verify(&random_subsets(g.graph.num_left(), 20, 2))
            .unwrap();
        assert!(g.realized_expansion_lower_bound() >= 1.0);
    }

    #[test]
    fn from_targets_respects_parameter_window() {
        assert!(GeneralizedCoreGraph::from_targets(16, 100.0).is_err());
        assert!(GeneralizedCoreGraph::from_targets(16, 0.001).is_err());
        let g = GeneralizedCoreGraph::from_targets(64, 4.0).unwrap();
        // |S*| ≤ Δ*/2 is the Lemma 4.6 size bound (allow slack from rounding
        // the duplication factor up).
        assert!(g.graph.num_left() <= 64, "|S*| = {}", g.graph.num_left());
        g.verify(&random_subsets(g.graph.num_left(), 10, 3))
            .unwrap();
    }

    #[test]
    fn wireless_fraction_bound_decreases_with_size() {
        let small = GeneralizedCoreGraph::from_core_size(4, 3.0).unwrap();
        let large = GeneralizedCoreGraph::from_core_size(256, 9.0).unwrap();
        // larger core ⇒ bigger log factor ⇒ smaller coverable fraction
        let f_small = 2.0 / (small.s.trailing_zeros() as f64 + 1.0);
        let f_large = 2.0 / (large.s.trailing_zeros() as f64 + 1.0);
        assert!(f_large < f_small);
        // structural coverage bound respected by the portfolio on the big one
        let res = wx_spokesman::PortfolioSolver::fast().solve(&large.graph, 3);
        assert!(res.unique_coverage <= large.unique_coverage_upper_bound());
    }

    #[test]
    fn invalid_expansion_rejected() {
        assert!(GeneralizedCoreGraph::from_core_size(8, 0.0).is_err());
        assert!(GeneralizedCoreGraph::from_core_size(8, -1.0).is_err());
    }
}

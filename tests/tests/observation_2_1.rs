//! Observation 2.1: `β(S) ≥ βw(S) ≥ βu(S)` for every set, and the same
//! sandwich for the graph-level minima.

use proptest::prelude::*;
use wx_expansion::sampling::{CandidateSets, SamplerConfig};
use wx_graph::neighborhood::{expansion_of_set, unique_expansion_of_set};
use wx_graph::{GraphView, VertexSet};
use wx_integration_tests::{random_graph, small_test_graphs};

#[test]
fn sandwich_holds_per_set_on_the_small_battery() {
    for (name, g) in small_test_graphs() {
        let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 1);
        for s in pool.sets.iter().filter(|s| s.len() <= 10) {
            let beta = expansion_of_set(&g, s);
            let (beta_w, _) = wx_expansion::wireless::of_set_exact(&g, s);
            let beta_u = unique_expansion_of_set(&g, s);
            assert!(
                beta + 1e-9 >= beta_w && beta_w + 1e-9 >= beta_u,
                "{name}: sandwich violated on {s:?}: β={beta} βw={beta_w} βu={beta_u}"
            );
        }
    }
}

#[test]
fn sandwich_holds_for_graph_level_minima_small_graphs() {
    for (name, g) in small_test_graphs() {
        if g.num_vertices() > 12 {
            continue;
        }
        let engine = wx_expansion::MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(usize::MAX)
            .build();
        let triple = engine
            .measure_all(&g, &wx_expansion::Wireless::default())
            .unwrap();
        let (beta, beta_w, beta_u) = (
            triple.ordinary.value,
            triple.wireless.value,
            triple.unique.value,
        );
        assert!(
            beta + 1e-9 >= beta_w && beta_w + 1e-9 >= beta_u,
            "{name}: graph-level sandwich violated: β={beta} βw={beta_w} βu={beta_u}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs, random sets: the sandwich and basic monotonicity of the
    /// unique coverage under the exact spokesman optimum.
    #[test]
    fn sandwich_on_random_graphs(seed in 0u64..1000, n in 5usize..11, p in 0.15f64..0.6) {
        let g = random_graph(n, p, seed);
        let mut rng = wx_graph::random::rng_from_seed(seed ^ 0xFFFF);
        for k in 1..=(n / 2).max(1) {
            let s = wx_graph::random::random_subset_of_size(&mut rng, n, k);
            let beta = expansion_of_set(&g, &s);
            let (beta_w, witness) = wx_expansion::wireless::of_set_exact(&g, &s);
            let beta_u = unique_expansion_of_set(&g, &s);
            prop_assert!(beta + 1e-9 >= beta_w);
            prop_assert!(beta_w + 1e-9 >= beta_u);
            // the witness transmitter set is a subset of S
            prop_assert!(witness.is_subset_of(&s));
        }
    }

    /// The wireless expansion of a set never exceeds |Γ⁻(S)|/|S| and is
    /// achieved by some subset, never by the empty one when Γ⁻(S) ≠ ∅.
    #[test]
    fn wireless_of_set_is_well_defined(seed in 0u64..500, n in 4usize..10) {
        let g = random_graph(n, 0.4, seed);
        let s: VertexSet = g.vertex_set(0..(n / 2).max(1));
        let boundary = wx_graph::neighborhood::external_neighborhood(&g, &s);
        let (bw, witness) = wx_expansion::wireless::of_set_exact(&g, &s);
        prop_assert!(bw <= boundary.len() as f64 / s.len() as f64 + 1e-9);
        if !boundary.is_empty() {
            prop_assert!(bw > 0.0);
            prop_assert!(!witness.is_empty());
        } else {
            prop_assert_eq!(bw, 0.0);
        }
    }
}

//! Property-based tests for the expansion metrics: per-set definitions,
//! the Observation 2.1 sandwich, estimator soundness, and spectral bounds.

use proptest::prelude::*;
use wx_graph::neighborhood::{expansion_of_set, unique_expansion_of_set};
use wx_graph::{Graph, GraphView, VertexSet};

fn edge_list(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..(n * 3).max(1)).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Per-set quantities match brute-force recomputation from the
    /// neighborhood definitions, and the Observation 2.1 sandwich holds with
    /// the exact wireless value.
    #[test]
    fn per_set_quantities_are_consistent(edges in edge_list(10),
                                         members in prop::collection::btree_set(0usize..10, 1..6)) {
        let g = Graph::from_edges(10, edges).unwrap();
        let s = VertexSet::from_iter(10, members.iter().copied());

        let beta = expansion_of_set(&g, &s);
        let beta_u = unique_expansion_of_set(&g, &s);
        let (beta_w, witness) = wx_expansion::wireless::of_set_exact(&g, &s);

        let boundary = wx_graph::neighborhood::external_neighborhood(&g, &s).len() as f64;
        let unique = wx_graph::neighborhood::unique_neighborhood(&g, &s).len() as f64;
        prop_assert!((beta - boundary / s.len() as f64).abs() < 1e-12);
        prop_assert!((beta_u - unique / s.len() as f64).abs() < 1e-12);
        prop_assert!(beta + 1e-12 >= beta_w && beta_w + 1e-12 >= beta_u);
        // the wireless witness really achieves the claimed value
        let achieved =
            wx_graph::neighborhood::s_excluding_unique_neighborhood(&g, &s, &witness).len() as f64
                / s.len() as f64;
        prop_assert!((achieved - beta_w).abs() < 1e-12);
    }

    /// Exact minima are never larger than the value of any particular set
    /// (estimator soundness), and candidate pools never produce sets above
    /// the size cap.
    #[test]
    fn exact_minimum_is_a_lower_envelope(edges in edge_list(9), alpha in 0.2f64..0.9) {
        let g = Graph::from_edges(9, edges).unwrap();
        let max_size = ((alpha * 9.0).floor() as usize).clamp(1, 9);
        let engine = wx_expansion::MeasurementEngine::builder()
            .alpha(alpha)
            .exact_up_to(usize::MAX)
            .build();
        let exact = engine.measure(&g, &wx_expansion::Ordinary).unwrap();
        let exact_u = engine.measure(&g, &wx_expansion::UniqueNeighbor).unwrap();
        let exact_w = engine.measure(&g, &wx_expansion::Wireless::default()).unwrap();
        prop_assert!(exact.witness.len() <= max_size);
        // every candidate set in a generated pool dominates the exact minima
        let pool = wx_expansion::sampling::CandidateSets::generate(
            &g,
            &wx_expansion::sampling::SamplerConfig::light(),
            alpha,
            3,
        );
        for s in &pool.sets {
            prop_assert!(s.len() <= max_size);
            prop_assert!(expansion_of_set(&g, s) + 1e-12 >= exact.value);
            prop_assert!(unique_expansion_of_set(&g, s) + 1e-12 >= exact_u.value);
            prop_assert!(wx_expansion::wireless::of_set_exact(&g, s).0 + 1e-12 >= exact_w.value);
        }
        // and the graph-level sandwich holds
        prop_assert!(exact.value + 1e-12 >= exact_w.value);
        prop_assert!(exact_w.value + 1e-12 >= exact_u.value);
    }

    /// Spectral sanity on arbitrary graphs: λ₁ is at most Δ and at least the
    /// average degree, λ₂ ≤ λ₁, and Cauchy interlacing holds against every
    /// vertex-deleted subgraph: λ₁(G) ≥ λ₁(G−v) ≥ λ₂(G) ≥ λ₂(G−v).
    #[test]
    fn spectral_bounds_and_agreement(edges in edge_list(12), seed in 0u64..50) {
        let g = Graph::from_edges(12, edges).unwrap();
        if g.num_edges() == 0 {
            return Ok(());
        }
        let (l1, l2) = wx_expansion::spectral::top_two_eigenvalues(&g, seed);
        prop_assert!(l1 <= g.max_degree() as f64 + 1e-9);
        prop_assert!(l1 + 1e-9 >= g.average_degree());
        prop_assert!(l2 <= l1 + 1e-9);
        for v in 0..12 {
            let rest = VertexSet::from_iter(12, (0..12).filter(|&u| u != v));
            let (h, _) = g.induced_subgraph(&rest);
            let (h1, h2) = wx_expansion::spectral::top_two_eigenvalues(&h, seed);
            prop_assert!(l1 + 1e-9 >= h1, "λ₁(G) = {l1} < λ₁(G−{v}) = {h1}");
            prop_assert!(h1 + 1e-9 >= l2, "λ₁(G−{v}) = {h1} < λ₂(G) = {l2}");
            prop_assert!(l2 + 1e-9 >= h2, "λ₂(G) = {l2} < λ₂(G−{v}) = {h2}");
        }
    }

    /// The three notions measured over one shared exact enumeration are
    /// internally consistent on arbitrary small graphs.
    #[test]
    fn profile_internal_consistency(edges in edge_list(9)) {
        let g = Graph::from_edges(9, edges).unwrap();
        let t = wx_expansion::MeasurementEngine::default()
            .measure_all(&g, &wx_expansion::Wireless::default())
            .unwrap();
        prop_assert!(t.ordinary.exact && t.wireless.exact);
        // Observation 2.1: β ≥ βw ≥ βu
        prop_assert!(t.ordinary.value + 1e-9 >= t.wireless.value);
        prop_assert!(t.wireless.value + 1e-9 >= t.unique.value);
        for m in [&t.ordinary, &t.unique, &t.wireless] {
            prop_assert!((1..=4).contains(&m.witness.len()));
        }
        let cert = t.wireless.certificate.as_ref().unwrap();
        prop_assert!(cert.iter().all(|v| t.wireless.witness.contains(v)));
    }

    /// Backend equivalence: all three expansion notions produce identical
    /// values, witnesses and certificates on a zero-copy `SubgraphView` vs
    /// the materialized `induced_subgraph` output — exhaustively (exact
    /// engine strategy) per random graph and random vertex subset.
    #[test]
    fn three_notions_agree_on_subgraph_view_vs_materialized(
        edges in edge_list(14),
        keep_raw in prop::collection::btree_set(0usize..14, 2..11),
    ) {
        use wx_expansion::engine::{MeasurementEngine, Wireless};
        use wx_graph::{SubgraphView, SubsetIndex};

        let g = Graph::from_edges(14, edges).unwrap();
        let keep = SubsetIndex::new(VertexSet::from_iter(14, keep_raw.iter().copied()));
        let view = SubgraphView::new(&g, &keep);
        let (mat, _) = g.induced_subgraph(keep.set());
        let engine = MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(usize::MAX)
            .seed(5)
            .build();
        let on_view = engine.measure_all(&view, &Wireless::default()).unwrap();
        let on_mat = engine.measure_all(&mat, &Wireless::default()).unwrap();
        for (a, b) in [
            (&on_view.ordinary, &on_mat.ordinary),
            (&on_view.unique, &on_mat.unique),
            (&on_view.wireless, &on_mat.wireless),
        ] {
            prop_assert_eq!(a.value, b.value);
            prop_assert_eq!(a.witness.to_vec(), b.witness.to_vec());
            prop_assert_eq!(a.exact, b.exact);
            prop_assert_eq!(
                a.certificate.as_ref().map(|c| c.to_vec()),
                b.certificate.as_ref().map(|c| c.to_vec())
            );
        }
    }

    /// Backend equivalence: the three notions agree between an
    /// `ImplicitGraph` and its materialized family graph, in both exact and
    /// sampled engine modes (the candidate pools are seeded identically, so
    /// even sampled results must match exactly).
    #[test]
    fn three_notions_agree_on_implicit_vs_materialized(
        dim in 2usize..=3,
        sampled in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        use wx_expansion::engine::{MeasurementEngine, Wireless};
        use wx_graph::view::{materialize, ImplicitGraph};

        let implicit = ImplicitGraph::hypercube(dim).unwrap();
        let mat = materialize(&implicit);
        let engine = MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(if sampled { 0 } else { usize::MAX })
            .seed(seed)
            .build();
        let on_implicit = engine.measure_all(&implicit, &Wireless::default()).unwrap();
        let on_mat = engine.measure_all(&mat, &Wireless::default()).unwrap();
        for (a, b) in [
            (&on_implicit.ordinary, &on_mat.ordinary),
            (&on_implicit.unique, &on_mat.unique),
            (&on_implicit.wireless, &on_mat.wireless),
        ] {
            prop_assert_eq!(a.value, b.value);
            prop_assert_eq!(a.witness.to_vec(), b.witness.to_vec());
        }
    }

    /// Backend equivalence for the out-of-core path: the three notions agree
    /// between an [`MmapGraph`] serving a `.wxg` file and the in-memory CSR
    /// it was written from — exhaustively, witnesses and certificates
    /// included.
    #[test]
    fn three_notions_agree_on_mmap_vs_in_memory_csr(
        edges in edge_list(12),
        seed in 0u64..1000,
    ) {
        use wx_expansion::engine::{MeasurementEngine, Wireless};
        use wx_graph::MmapGraph;

        let g = Graph::from_edges(12, edges).unwrap();
        let dir = std::env::temp_dir()
            .join(format!("wx-expansion-mmap-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("case-{seed}.wxg"));
        g.write_wxg(&path).unwrap();
        let m = MmapGraph::open(&path).unwrap();

        let engine = MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(usize::MAX)
            .seed(seed)
            .build();
        let on_mmap = engine.measure_all(&m, &Wireless::default()).unwrap();
        let on_csr = engine.measure_all(&g, &Wireless::default()).unwrap();
        for (a, b) in [
            (&on_mmap.ordinary, &on_csr.ordinary),
            (&on_mmap.unique, &on_csr.unique),
            (&on_mmap.wireless, &on_csr.wireless),
        ] {
            prop_assert_eq!(a.value, b.value);
            prop_assert_eq!(a.witness.to_vec(), b.witness.to_vec());
            prop_assert_eq!(a.exact, b.exact);
            prop_assert_eq!(
                a.certificate.as_ref().map(|c| c.to_vec()),
                b.certificate.as_ref().map(|c| c.to_vec())
            );
        }
        drop(m);
        std::fs::remove_file(&path).ok();
    }
}

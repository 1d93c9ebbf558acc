//! Section 3: relations between ordinary and unique-neighbor expansion
//! (Lemmas 3.1–3.3) and the spectral machinery behind them.

use wx_constructions::BadUniqueExpander;
use wx_expansion::relations::{lemma_3_1_graph, lemma_3_2_for_set};
use wx_expansion::sampling::{CandidateSets, SamplerConfig};
use wx_integration_tests::small_test_graphs;

#[test]
fn lemma_3_2_holds_on_every_sampled_set_of_the_battery() {
    for (name, g) in small_test_graphs() {
        let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 3);
        for s in &pool.sets {
            let check = lemma_3_2_for_set(&g, s);
            assert!(check.holds, "{name}: Lemma 3.2 violated: {check:?}");
        }
    }
}

#[test]
fn lemma_3_1_spectral_bound_on_regular_graphs() {
    let graphs: Vec<(&str, wx_graph::Graph, f64)> = vec![
        (
            "petersen",
            small_test_graphs().swap_remove(0).1,
            0.2, // αu: sets of ≤ 2 vertices
        ),
        (
            "hypercube-4",
            wx_constructions::families::hypercube_graph(4).unwrap(),
            0.25,
        ),
        (
            "cycle-12",
            wx_graph::Graph::from_edges(12, (0..12).map(|i| (i, (i + 1) % 12))).unwrap(),
            0.25,
        ),
    ];
    for (name, g, alpha_u) in graphs {
        if g.num_vertices() > 16 {
            continue;
        }
        let engine = wx_expansion::MeasurementEngine::builder()
            .alpha(alpha_u)
            .exact_up_to(usize::MAX)
            .build();
        let beta_u = engine
            .measure(&g, &wx_expansion::UniqueNeighbor)
            .unwrap()
            .value;
        let beta = engine.measure(&g, &wx_expansion::Ordinary).unwrap().value;
        let check = lemma_3_1_graph(&g, alpha_u, beta_u, beta, 1)
            .unwrap_or_else(|| panic!("{name} should be regular"));
        assert!(check.holds, "{name}: Lemma 3.1 violated: {check:?}");
    }
}

#[test]
fn lemma_3_3_gadget_is_tight_for_unique_expansion() {
    // βu(G_bad) = 2β − Δ exactly, over the full range Δ/2 ≤ β ≤ Δ.
    for (delta, beta) in [(8usize, 4usize), (8, 5), (8, 6), (8, 7), (8, 8), (12, 7)] {
        let s = 3 * delta; // comfortably large cycle
        let gadget = BadUniqueExpander::new(s, delta, beta).unwrap();
        let measured = gadget.unique_expansion_of_full_set();
        assert!(
            (measured - (2 * beta - delta) as f64).abs() < 1e-9,
            "Δ={delta}, β={beta}: measured βu = {measured}, expected {}",
            2 * beta - delta
        );
        // Lemma 3.2's lower bound 2β − Δ is therefore met with equality.
        // And the wireless expansion is at least max{2β − Δ, Δ/2} (Remark 1):
        let cert = gadget.alternating_certificate().max(measured);
        assert!(
            cert + 1e-9 >= ((2 * beta) as f64 - delta as f64).max(delta as f64 / 2.0),
            "Δ={delta}, β={beta}: wireless certificate {cert} below Remark-1 bound"
        );
    }
}

#[test]
fn spectral_eigenvalues_match_closed_forms() {
    // complete graph: λ₂ = −1; complete bipartite K_{4,4}: λ₂ = 0;
    // cycle C_n: λ₂ = 2cos(2π/n). These pin the spectral module used by
    // Lemma 3.1 to known values.
    let mut b = wx_graph::GraphBuilder::new(8);
    for i in 0..8 {
        for j in (i + 1)..8 {
            b.add_edge(i, j).unwrap();
        }
    }
    let complete = b.build();
    assert!((wx_expansion::spectral::second_eigenvalue(&complete, 0) + 1.0).abs() < 1e-6);

    let mut b = wx_graph::GraphBuilder::new(8);
    for i in 0..4 {
        for j in 4..8 {
            b.add_edge(i, j).unwrap();
        }
    }
    let k44 = b.build();
    assert!(wx_expansion::spectral::second_eigenvalue(&k44, 0).abs() < 1e-6);

    let cycle = wx_graph::Graph::from_edges(10, (0..10).map(|i| (i, (i + 1) % 10))).unwrap();
    let expected = 2.0 * (2.0 * std::f64::consts::PI / 10.0).cos();
    assert!((wx_expansion::spectral::second_eigenvalue(&cycle, 0) - expected).abs() < 1e-6);
}

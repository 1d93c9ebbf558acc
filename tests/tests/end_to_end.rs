//! End-to-end pipeline tests: the three expansion notions on every graph
//! family and reproducibility of the whole stack under a fixed seed.

use wx_core::prelude::*;
use wx_core::radio::{run_lanes, ProtocolKind};
use wx_core::spokesman::bounds::{lemma_3_2_unique_bound, theorem_1_1_lower_bound};

/// `β`, `βu` and `βw` of `g` with the light sampler (exact up to 10
/// vertices).
fn measure_light(g: &Graph) -> ExpansionTriple {
    MeasurementEngine::builder()
        .exact_up_to(10)
        .sampler(SamplerConfig::light())
        .build()
        .measure_all(g, &Wireless::default())
        .unwrap()
}

/// Observation 2.1: `β ≥ βw ≥ βu`, within a small tolerance.
fn satisfies_observation_2_1(t: &ExpansionTriple) -> bool {
    t.ordinary.value + 1e-9 >= t.wireless.value && t.wireless.value + 1e-9 >= t.unique.value
}

fn summary(t: &ExpansionTriple) -> String {
    format!(
        "β={} βu={} βw={}",
        t.ordinary.value, t.unique.value, t.wireless.value
    )
}

#[test]
fn analysis_runs_on_every_family_and_observation_2_1_always_holds() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("c-plus", complete_plus_graph(8).unwrap().0),
        ("random-regular", random_regular_graph(80, 4, 1).unwrap()),
        ("hypercube", hypercube_graph(5).unwrap()),
        ("margulis", margulis_graph(6).unwrap()),
        ("grid", grid_graph(7, 7).unwrap()),
        ("torus", torus_graph(5, 5).unwrap()),
        ("tree", complete_k_ary_tree(3, 4).unwrap()),
        ("random-tree", random_tree(60, 2).unwrap()),
        ("core-graph-8", CoreGraph::new(8).unwrap().graph.to_graph()),
        (
            "bad-unique",
            BadUniqueExpander::new(12, 6, 4).unwrap().graph.to_graph(),
        ),
        (
            "broadcast-chain",
            BroadcastChain::new(4, 2, 3).unwrap().graph,
        ),
    ];
    for (name, g) in graphs {
        let t = measure_light(&g);
        assert!(
            satisfies_observation_2_1(&t),
            "{name}: Observation 2.1 violated: {}",
            summary(&t)
        );
        assert!(
            t.wireless.value >= 0.0 && t.ordinary.value.is_finite(),
            "{name}: nonsensical measurement {}",
            summary(&t)
        );
    }
}

#[test]
fn analysis_is_reproducible_for_a_fixed_seed() {
    let g = random_regular_graph(60, 4, 5).unwrap();
    let a = measure_light(&g);
    let b = measure_light(&g);
    assert_eq!(a.ordinary.value, b.ordinary.value);
    assert_eq!(a.unique.value, b.unique.value);
    assert_eq!(a.wireless.value, b.wireless.value);
}

#[test]
fn analysis_of_c_plus_shows_the_headline_phenomenon() {
    let (g, _) = complete_plus_graph(8).unwrap();
    let t = MeasurementEngine::default()
        .measure_all(&g, &Wireless::default())
        .unwrap();
    assert!(t.wireless.exact);
    assert!(satisfies_observation_2_1(&t));
    // exact mode: Theorem 1.1 with constant 1 and Lemma 3.2's βu ≥ 2β − Δ
    let (delta, beta) = (g.max_degree(), t.ordinary.value);
    assert!(
        t.wireless.value + 1e-9 >= theorem_1_1_lower_bound(delta, beta),
        "{}",
        summary(&t)
    );
    assert!(t.unique.value + 1e-9 >= lemma_3_2_unique_bound(delta, beta));
    // βu = 0 < βw
    assert_eq!(t.unique.value, 0.0);
    assert!(t.wireless.value > 0.0);
    // from a clique vertex the spokesman schedule completes
    let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
    let outcome = run_lanes(&sim, &mut *ProtocolKind::Spokesman.build(), &[0xABCD])[0];
    assert!(outcome.completed());
}

#[test]
fn analysis_of_regular_expander_sampled_mode() {
    let g = random_regular_graph(64, 4, 3).unwrap();
    let t = measure_light(&g);
    assert!(!t.ordinary.exact);
    assert!(satisfies_observation_2_1(&t));
}

#[test]
fn sampled_minimum_searches_every_size_alpha_allows_past_8192_vertices() {
    // Two disjoint random 8-regular graphs on 5000 vertices each: either
    // one is a set of n/2 vertices with no boundary, so β = 0 at α = 1/2.
    // The sampler must search sets that large at n = 10 000 too.
    let (a, b) = (
        random_regular_graph(5000, 8, 1).unwrap(),
        random_regular_graph(5000, 8, 2).unwrap(),
    );
    let edges = a
        .edges()
        .chain(b.edges().map(|(u, v)| (u + 5000, v + 5000)));
    let g = Graph::from_edges(10_000, edges).unwrap();
    let m = MeasurementEngine::builder()
        .alpha(0.5)
        .exact_up_to(0)
        .build()
        .measure(&g, &Ordinary)
        .unwrap();
    assert_eq!(m.value, 0.0);
    assert_eq!(m.witness.len(), 5000, "the witness is a whole component");
}

#[test]
fn analysis_of_grid_low_arboricity() {
    let g = grid_graph(6, 6).unwrap();
    // grids are planar: arboricity bound small, wireless loss bounded
    assert!(wx_core::graph::arboricity::arboricity_bounds(&g).upper <= 3);
    assert!(satisfies_observation_2_1(&measure_light(&g)));
}

#[test]
fn report_tables_render_for_experiment_style_rows() {
    use wx_core::report::{fmt_f64, render_table, TableRow};
    let graphs = [
        ("grid-5x5", grid_graph(5, 5).unwrap()),
        ("hypercube-4", hypercube_graph(4).unwrap()),
    ];
    let mut rows = Vec::new();
    for (name, g) in &graphs {
        let t = measure_light(g);
        rows.push(TableRow::new(
            *name,
            vec![fmt_f64(t.ordinary.value), fmt_f64(t.wireless.value)],
        ));
    }
    let table = render_table("demo", &["graph", "beta", "beta_w"], &rows);
    assert!(table.contains("grid-5x5"));
    assert!(table.contains("hypercube-4"));
    assert_eq!(table.lines().count(), 5);
}

use crate::engine::tests::complete_plus;
use crate::engine::{MeasurementEngine, UniqueNeighbor};
use crate::sampling::{CandidateSets, SamplerConfig};
use wx_graph::neighborhood::{expansion_of_set, unique_expansion_of_set};
use wx_graph::Graph;

#[test]
fn unique_expansion_can_vanish_on_good_expanders() {
    // The C⁺ example: the set {x, y, s0} has no unique neighbors.
    let g = complete_plus(6);
    let engine = MeasurementEngine::builder().alpha(0.5).build();
    let m = engine.measure(&g, &UniqueNeighbor).unwrap();
    assert_eq!(m.value, 0.0);
    // the witness must indeed have zero unique neighbors
    assert_eq!(
        wx_graph::neighborhood::unique_neighborhood(&g, &m.witness).len(),
        0
    );
}

#[test]
fn unique_vs_ordinary_ordering_per_set() {
    // Observation 2.1 (per set): |Γ¹(S)| ≤ |Γ⁻(S)|.
    let g = complete_plus(5);
    let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 2);
    for s in &pool.sets {
        assert!(unique_expansion_of_set(&g, s) <= expansion_of_set(&g, s) + 1e-12);
    }
}

#[test]
fn unique_expansion_of_perfect_matching() {
    let g = Graph::from_edges(6, [(0, 3), (1, 4), (2, 5)]).unwrap();
    // Singletons each have exactly one (unique) external neighbor.
    let m = MeasurementEngine::builder()
        .alpha(1.0 / 6.0)
        .build()
        .measure(&g, &UniqueNeighbor)
        .unwrap();
    assert!((m.value - 1.0).abs() < 1e-12);
    // But once whole matched pairs fit under the size cap, a pair like
    // {0, 3} has an empty external neighborhood, so βu collapses to 0.
    let m = MeasurementEngine::builder()
        .alpha(0.5)
        .build()
        .measure(&g, &UniqueNeighbor)
        .unwrap();
    assert_eq!(m.value, 0.0);
    assert_eq!(m.witness.len(), 2);
}

#[test]
fn engine_estimate_upper_bounds_exact() {
    let g = complete_plus(5);
    let ex = MeasurementEngine::builder()
        .alpha(0.5)
        .exact_up_to(usize::MAX)
        .build()
        .measure(&g, &UniqueNeighbor)
        .unwrap();
    let est = MeasurementEngine::builder()
        .alpha(0.5)
        .exact_up_to(0)
        .seed(9)
        .build()
        .measure(&g, &UniqueNeighbor)
        .unwrap();
    assert!(est.value >= ex.value - 1e-12);
}

#[test]
fn empty_graph() {
    let engine = MeasurementEngine::default();
    assert!(engine.measure(&Graph::empty(0), &UniqueNeighbor).is_none());
}

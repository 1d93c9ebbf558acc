use crate::engine::tests::cycle;
use crate::engine::{MeasurementEngine, Ordinary};

#[test]
fn engine_exact_expansion_of_complete_graph() {
    // K6, α = 1/2: worst set has 3 vertices, boundary 3, expansion 1.
    let mut b = wx_graph::GraphBuilder::new(6);
    for i in 0..6 {
        for j in (i + 1)..6 {
            b.add_edge(i, j).unwrap();
        }
    }
    let g = b.build();
    let m = MeasurementEngine::builder()
        .alpha(0.5)
        .build()
        .measure(&g, &Ordinary)
        .unwrap();
    assert!((m.value - 1.0).abs() < 1e-12);
    assert_eq!(m.witness.len(), 3);
}

#[test]
fn engine_exact_on_small_alpha_only_considers_small_sets() {
    let g = cycle(8);
    // α = 1/8: only singletons allowed, each has expansion 2.
    let engine = MeasurementEngine::builder().alpha(1.0 / 8.0).build();
    let m = engine.measure(&g, &Ordinary).unwrap();
    assert!((m.value - 2.0).abs() < 1e-12);
    assert_eq!(m.witness.len(), 1);
}

#[test]
fn engine_estimate_upper_bounds_exact() {
    let g = cycle(12);
    let exact = MeasurementEngine::builder()
        .alpha(0.5)
        .exact_up_to(usize::MAX)
        .build()
        .measure(&g, &Ordinary)
        .unwrap();
    let est = MeasurementEngine::builder()
        .alpha(0.5)
        .exact_up_to(0)
        .seed(3)
        .build()
        .measure(&g, &Ordinary)
        .unwrap();
    assert!(est.value >= exact.value - 1e-12);
    assert!(
        (est.value - exact.value).abs() < 1e-9,
        "estimate {} vs exact {}",
        est.value,
        exact.value
    );
}

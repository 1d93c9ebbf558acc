use crate::engine::tests::{complete_plus, cycle};
use crate::engine::{ExpansionTriple, MeasurementEngine, Wireless};
use crate::sampling::SamplerConfig;
use crate::spectral::second_eigenvalue;
use wx_spokesman::bounds::theorem_1_1_lower_bound;

/// Observation 2.1: `β ≥ βw ≥ βu`, within a small tolerance.
fn satisfies_observation_2_1(t: &ExpansionTriple) -> bool {
    t.ordinary.value + 1e-9 >= t.wireless.value && t.wireless.value + 1e-9 >= t.unique.value
}

#[test]
fn exact_profile_of_small_graph() {
    let t = MeasurementEngine::default()
        .measure_all(&complete_plus(6), &Wireless::default())
        .unwrap();
    assert!(t.ordinary.exact && t.unique.exact && t.wireless.exact);
    assert!(satisfies_observation_2_1(&t));
    // C⁺: unique expansion collapses to zero but wireless stays positive.
    assert_eq!(t.unique.value, 0.0);
    assert!(t.wireless.value > 0.0);
    assert!((t.ordinary.value / t.wireless.value).is_finite());
}

#[test]
fn sampled_profile_of_larger_graph() {
    let engine = MeasurementEngine::builder()
        .exact_up_to(10)
        .sampler(SamplerConfig::light())
        .build();
    let t = engine
        .measure_all(&cycle(40), &Wireless::default())
        .unwrap();
    assert!(!t.ordinary.exact);
    assert!(satisfies_observation_2_1(&t));
    // a cycle's expansion estimate should find an arc: β ≈ 2/|arc| ≤ 0.5
    assert!(t.ordinary.value <= 0.6);
    assert!(t.wireless.value > 0.0);
}

#[test]
fn profile_detects_regular_graph_spectrum() {
    let l2 = second_eigenvalue(&cycle(12), 0xC0FFEE);
    assert!((l2 - 2.0 * (2.0 * std::f64::consts::PI / 12.0).cos()).abs() < 1e-6);
}

#[test]
fn theorem_1_1_satisfied_on_small_expander() {
    let g = complete_plus(6);
    let t = MeasurementEngine::default()
        .measure_all(&g, &Wireless::default())
        .unwrap();
    let reference = theorem_1_1_lower_bound(g.max_degree(), t.ordinary.value);
    assert!(t.wireless.value + 1e-9 >= reference, "{t:?}");
}

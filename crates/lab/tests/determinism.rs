//! The scenario lab's determinism contract: two runs of the same
//! `ScenarioSpec` produce **byte-identical** JSON reports, for every task
//! kind — and the bundled smoke scenario the CI step runs stays valid.
//! Equality across thread counts is checked on the `wx` binary, in
//! `crates/serve/tests/thread_invariance.rs`.

use wx_lab::runner::Runner;
use wx_lab::spec::ScenarioSpec;

fn assert_byte_identical(json_spec: &str) {
    let spec = ScenarioSpec::from_json(json_spec, "determinism test").unwrap();
    let a = Runner::new().run(&spec).unwrap().to_json();
    let b = Runner::new().run(&spec).unwrap().to_json();
    assert_eq!(a, b, "reruns differ for {}", spec.name);
    assert!(!a.is_empty());
}

#[test]
fn measure_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-measure",
            "source": {"RandomRegular": {"n": 24, "d": 3}},
            "task": {"Measure": {"notion": "Wireless", "fast": true}},
            "trials": 4,
            "seed": 42
        }"#,
    );
}

#[test]
fn profile_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-profile",
            "source": {"CompletePlus": {"k": 6}},
            "task": {"Profile": {}},
            "trials": 2,
            "seed": 7
        }"#,
    );
}

#[test]
fn spokesman_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-spokesman",
            "source": {"RandomRegular": {"n": 32, "d": 4}},
            "task": {"Spokesman": {"set_size": 8}},
            "trials": 4,
            "seed": 9
        }"#,
    );
}

#[test]
fn radio_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-radio",
            "source": {"RandomTree": {"n": 40}},
            "task": {"Radio": {"protocol": "Decay"}},
            "trials": 6,
            "seed": 11
        }"#,
    );
}

#[test]
fn different_seeds_give_different_reports() {
    let base = r#"{
        "name": "seeded",
        "source": {"RandomRegular": {"n": 24, "d": 3}},
        "task": {"Spokesman": {"set_size": 6}},
        "trials": 3,
        "seed": SEED
    }"#;
    let a = Runner::new()
        .run(&ScenarioSpec::from_json(&base.replace("SEED", "1"), "a").unwrap())
        .unwrap()
        .to_json();
    let b = Runner::new()
        .run(&ScenarioSpec::from_json(&base.replace("SEED", "2"), "b").unwrap())
        .unwrap()
        .to_json();
    assert_ne!(a, b);
}

#[test]
fn bundled_smoke_scenario_runs_and_validates() {
    // the same file the CI smoke step feeds to `wx run`
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json");
    let spec = ScenarioSpec::from_file(path).expect("bundled scenario parses");
    let report = Runner::new().run(&spec).expect("bundled scenario runs");
    // the report parses back as a JSON object (what `wx validate` checks)
    let value: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
    assert!(value.as_map().is_some());
    assert!(report.metrics.contains_key("value"));
}

//! The observability contract: the `telemetry` section of a
//! `ScenarioReport` is deterministic, and tracing is a pure observer —
//! report bytes are identical with tracing on or off. (The across-
//! thread-count half of the contract lives in
//! `crates/serve/tests/thread_invariance.rs`, next to the `wx` binary
//! it drives as subprocesses.)

use wx_lab::runner::Runner;
use wx_lab::spec::ScenarioSpec;

const MEASURE_SPEC: &str = r#"{
    "name": "telemetry-measure",
    "source": {"RandomRegular": {"n": 24, "d": 3}},
    "task": {"Measure": {"notion": "Wireless", "fast": true}},
    "trials": 4,
    "seed": 42
}"#;

#[test]
fn reports_are_byte_identical_with_tracing_on_and_off() {
    // The tracer is process-global: own it for the whole window so no
    // concurrent test drains (or re-enables) it under our feet.
    let _session = wx_trace::exclusive();
    let spec = ScenarioSpec::from_json(MEASURE_SPEC, "telemetry test").unwrap();

    wx_trace::disable();
    let _ = wx_trace::take_trace();
    let off = Runner::new().run(&spec).unwrap().to_json();

    wx_trace::enable();
    let on = Runner::new().run(&spec).unwrap().to_json();
    wx_trace::disable();
    let trace = wx_trace::take_trace();

    assert_eq!(off, on, "enabling tracing changed report bytes");
    // the traced run actually recorded engine and lab spans
    assert!(
        trace.phase_count("engine.minimize") > 0,
        "traced run recorded no engine spans"
    );
    assert!(
        trace.phase_count("lab.trial") > 0,
        "traced run recorded no per-trial spans"
    );
    // the deterministic counters landed in the report
    assert!(off.contains("\"telemetry\""), "{off}");
    assert!(off.contains("\"engine.sets_evaluated\""), "{off}");
    assert!(off.contains("\"engine.pool_sets\""), "{off}");
}

#[test]
fn radio_telemetry_counts_rounds_and_informed_vertices() {
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "telemetry-radio",
            "source": {"RandomTree": {"n": 40}},
            "task": {"Radio": {"protocol": "Decay"}},
            "trials": 6,
            "seed": 11
        }"#,
        "telemetry test",
    )
    .unwrap();
    let report = Runner::new().run(&spec).unwrap();
    let rounds = report.telemetry.get("radio.rounds_simulated").copied();
    let informed = report.telemetry.get("radio.informed_final").copied();
    assert!(rounds.is_some_and(|r| r > 0), "{:?}", report.telemetry);
    // 6 trials on a 40-vertex tree: every trial informs at least the source
    assert!(informed.is_some_and(|i| i >= 6), "{:?}", report.telemetry);
    // a rerun reproduces the whole telemetry section
    let again = Runner::new().run(&spec).unwrap();
    assert_eq!(report.telemetry, again.telemetry);
}

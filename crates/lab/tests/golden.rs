//! Golden report fixtures: every `golden/<name>.spec.json` must reproduce
//! `golden/<name>.report.json` byte for byte.
//!
//! The fixtures cover the in-memory source kinds (shared CSR, implicit,
//! per-trial randomized, `Induced` by `size` over a deterministic base,
//! `Induced` by `vertices`, `Induced` over a randomized base) crossed with
//! all four task kinds, plus every radio protocol on a per-trial source.
//! Radio reports compare with the two lane-occupancy counters
//! (`radio.lane_rounds`, `radio.lanes_completed`) stripped, since the
//! fixtures for per-trial radio scenarios predate them; every radio report
//! must carry `radio.lane_rounds`, and `radio.lanes_completed` whenever a
//! trial completed. The `long_growth__*` fixtures pin sampled measurement
//! where greedy growth runs long: `Measure` (ordinary and unique) on
//! random_regular(2400, 8), whose growths reach n/2, and a sampled
//! `Profile` on an irregular `Induced` source. `multiword__spokesman` pins
//! the spokesman solvers at |S| = 300 on random_regular(600, 8): the other
//! spokesman fixtures sample five vertices, one bitset word, while its
//! samples span five words and draw enough decisions to run the ChaCha
//! generator's 128-draw bulk batches. `multiword__radio_decay` pins Decay
//! on margulis(30): 900 vertices are 15 bit tiles, and its 70 trials run a
//! 64-lane and a 6-lane batch whose per-lane draws fill whole 16-block
//! batches of the ChaCha kernel.
//!
//! The bundled `scenarios/*.json` and the `wx sweep --all --quick` report
//! are pinned the same way: each scenario must reproduce
//! `golden/scenario__<name>.report.json` and the quick sweep
//! `golden/sweep_quick.json`, so their bytes are compared across commits,
//! not just across reruns of one commit. The full `wx sweep --all` report is
//! pinned as `golden/sweep_full.json`; it takes seconds even in a release
//! build, so the CI full-sweep step `cmp`s it instead of a test here.

use std::path::{Path, PathBuf};
use wx_lab::registry::{run_sweep, SweepOptions};
use wx_lab::runner::Runner;
use wx_lab::spec::{ScenarioSpec, Task};

const LANE_COUNTERS: [&str; 2] = ["\"radio.lane_rounds\"", "\"radio.lanes_completed\""];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The files in `dir` whose names end in `suffix`, sorted.
fn files_ending(dir: PathBuf, suffix: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(suffix))
        .collect();
    paths.sort();
    paths
}

fn strip_lane_counters(json: &str) -> String {
    json.lines()
        .filter(|line| !LANE_COUNTERS.iter().any(|key| line.contains(key)))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn reports_match_the_golden_fixtures() {
    let specs = files_ending(golden_dir(), ".spec.json");
    assert!(specs.len() >= 30, "golden fixtures missing: {specs:?}");
    for spec_path in specs {
        let name = spec_path.to_string_lossy().replace(".spec.json", "");
        let spec_text = std::fs::read_to_string(&spec_path).unwrap();
        let expected = std::fs::read_to_string(format!("{name}.report.json")).unwrap();
        let spec = ScenarioSpec::from_json(&spec_text, &name).unwrap();
        let report = Runner::new().run(&spec).unwrap();
        let json = report.to_json();
        assert_eq!(
            strip_lane_counters(&json),
            strip_lane_counters(&expected),
            "{name}: report differs from its golden fixture"
        );
        if matches!(spec.task, Task::Radio { .. }) {
            // Telemetry lists nonzero counters only, so `lanes_completed`
            // is absent exactly when no trial completed.
            let completed = report
                .per_trial
                .iter()
                .filter(|t| t.metrics["completed"] == 1.0);
            assert_eq!(
                report.telemetry.get("radio.lanes_completed").copied(),
                Some(completed.count() as u64).filter(|&c| c > 0),
                "{name}: radio.lanes_completed must count the completed trials"
            );
            assert!(
                report.telemetry.get("radio.lane_rounds")
                    >= report.telemetry.get("radio.rounds_simulated")
                    && report.telemetry.contains_key("radio.lane_rounds"),
                "{name}: radio report lacks radio.lane_rounds"
            );
        }
    }
}

#[test]
fn bundled_scenarios_match_their_golden_reports() {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let specs = files_ending(scenarios, ".json");
    assert!(specs.len() >= 4, "bundled scenarios missing: {specs:?}");
    for spec_path in specs {
        let name = spec_path.file_stem().unwrap().to_string_lossy();
        let golden = golden_dir().join(format!("scenario__{name}.report.json"));
        let spec = ScenarioSpec::from_file(&spec_path).unwrap();
        let json = Runner::new().run(&spec).unwrap().to_json();
        let expected = std::fs::read_to_string(golden).unwrap();
        assert_eq!(
            json, expected,
            "{name}: report differs from its golden fixture"
        );
    }
}

#[test]
fn quick_sweep_matches_its_golden_report() {
    let expected = std::fs::read_to_string(golden_dir().join("sweep_quick.json")).unwrap();
    let opts = SweepOptions {
        quick: true,
        ..SweepOptions::default()
    };
    let json = run_sweep(&[], opts).unwrap().to_json();
    assert_eq!(
        json, expected,
        "`wx sweep --all --quick` differs from its golden report"
    );
}

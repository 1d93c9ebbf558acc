//! Report bytes are identical at every `RAYON_NUM_THREADS` and with
//! tracing on or off. The checks drive real `wx` subprocesses, because
//! `wx_trace::par_map` reads the thread count once per process: every
//! bundled `scenarios/*.json`, every golden fixture spec under
//! `crates/lab/tests/golden/` and the `wx serve --stdin` request stream
//! run at 1 and 4 threads, and the smoke scenario also runs traced.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const WX: &str = env!("CARGO_BIN_EXE_wx");
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The files in `dir` whose names end with `suffix`, sorted.
fn files_ending(dir: &str, suffix: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(format!("{ROOT}/{dir}"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(suffix))
        .collect();
    paths.sort();
    paths
}

/// `wx run spec --out out` at `threads` threads, optionally traced to
/// `trace`; returns the report bytes.
fn wx_run(spec: &Path, out: &Path, threads: &str, trace: Option<&Path>) -> String {
    let mut cmd = Command::new(WX);
    cmd.arg("run")
        .arg(spec)
        .arg("--out")
        .arg(out)
        .env("RAYON_NUM_THREADS", threads);
    if let Some(trace) = trace {
        cmd.arg("--trace").arg(trace);
    }
    let output = cmd.output().expect("spawning wx");
    assert!(
        output.status.success(),
        "wx run {} at {threads} threads failed: {}",
        spec.display(),
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(out).unwrap()
}

#[test]
fn reports_are_byte_identical_across_thread_counts_and_tracing() {
    let scenario = Path::new(ROOT).join("scenarios/smoke.json");
    let dir = scratch("wx-serve-telemetry-threads");

    let mut reports: Vec<(String, String)> = Vec::new();
    for threads in ["1", "4", "8"] {
        for traced in [false, true] {
            let label = format!("threads={threads} traced={traced}");
            let out = dir.join(format!("report-{threads}-{traced}.json"));
            let trace_path = dir.join(format!("trace-{threads}.json"));
            let report = wx_run(&scenario, &out, threads, traced.then_some(&*trace_path));
            if traced {
                assert!(
                    std::fs::read_to_string(&trace_path)
                        .unwrap()
                        .contains("\"ph\":\"X\""),
                    "[{label}] trace has no spans"
                );
            }
            reports.push((label, report));
        }
    }
    let (first_label, first) = &reports[0];
    assert!(first.contains("\"telemetry\""), "{first}");
    for (label, report) in &reports[1..] {
        assert_eq!(
            first, report,
            "report bytes differ between {first_label} and {label}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_scenario_and_golden_spec_is_byte_identical_at_one_and_four_threads() {
    let dir = scratch("wx-serve-specs-threads");
    let mut specs = files_ending("scenarios", ".json");
    let scenarios = specs.len();
    specs.extend(files_ending("crates/lab/tests/golden", ".spec.json"));
    assert!(scenarios >= 4 && specs.len() >= scenarios + 30, "{specs:?}");
    for (k, spec) in specs.iter().enumerate() {
        let one = wx_run(spec, &dir.join(format!("{k}-1.json")), "1", None);
        let four = wx_run(spec, &dir.join(format!("{k}-4.json")), "4", None);
        assert!(
            one == four,
            "{}: report bytes differ at 1 and 4 threads",
            spec.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_reports_are_byte_identical_at_one_and_four_threads() {
    let dir = scratch("wx-serve-requests-threads");
    let requests = std::fs::read(Path::new(ROOT).join("scenarios/serve_requests.jsonl")).unwrap();
    let serve = |threads: &str| -> Vec<(String, String)> {
        let out_dir = dir.join(threads);
        let mut child = Command::new(WX)
            .args(["serve", "--stdin", "--workers", "1", "--out-dir"])
            .arg(&out_dir)
            .env("RAYON_NUM_THREADS", threads)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning wx");
        std::io::Write::write_all(&mut child.stdin.take().unwrap(), &requests).unwrap();
        let output = child.wait_with_output().unwrap();
        assert!(
            output.status.success(),
            "wx serve at {threads} threads failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let mut reports: Vec<(String, String)> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        reports.sort();
        reports
    };
    let one = serve("1");
    let four = serve("4");
    assert!(
        one.len() >= 3,
        "{:?}",
        one.iter().map(|r| &r.0).collect::<Vec<_>>()
    );
    assert_eq!(
        one.iter().map(|r| &r.0).collect::<Vec<_>>(),
        four.iter().map(|r| &r.0).collect::<Vec<_>>()
    );
    for ((name, a), (_, b)) in one.iter().zip(&four) {
        assert!(a == b, "served {name} differs at 1 and 4 threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

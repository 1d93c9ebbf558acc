//! End-to-end tests for the baseline ratchet and the `wx-analyze` CLI.
//!
//! These build tiny throwaway workspaces under the system temp dir and
//! drive the real binary (`CARGO_BIN_EXE_wx-analyze`) through the
//! bless → check → regress → ratchet-down lifecycle, asserting on exit
//! codes and on the `file:line` coordinates in the output — the
//! acceptance test for the linter as a CI gate.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use wx_analyze::{analyze_source, Baseline, Config, RatchetError};

/// A fresh scratch workspace; removed on drop.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(tag: &str) -> TempWs {
        let root =
            std::env::temp_dir().join(format!("wx-analyze-test-{}-{tag}", std::process::id()));
        // A stale dir from a crashed previous run must not leak files in.
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir");
        TempWs { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write");
    }

    fn run(&self, args: &[&str]) -> (i32, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_wx-analyze"))
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("spawn wx-analyze");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const CLEAN: &str = "pub fn ok(x: u32) -> u32 {\n    x + 1\n}\n";

/// One seed-discipline violation on line 2 column 5.
const SEEDY: &str = "pub fn bad(seed: u64) -> u64 {\n    seed + 1\n}\n";

/// Two violations: seed arithmetic (line 2) and a hot-path `.to_vec()`
/// is not in play here (demo is not a hot-path module), so use a
/// panic-freedom hit (line 3) instead.
const SEEDY_AND_PANICKY: &str = "pub fn bad(seed: u64, x: Option<u64>) -> u64 {\n    let s = seed + 1;\n    s + x.unwrap()\n}\n";

#[test]
fn report_mode_exits_nonzero_with_correct_location() {
    let ws = TempWs::new("report");
    ws.write("crates/demo/src/lib.rs", SEEDY);
    let (code, stdout, _) = ws.run(&[]);
    assert_eq!(code, 1, "violations must fail report mode: {stdout}");
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2:5: [seed-discipline]"),
        "wrong location in: {stdout}"
    );
}

#[test]
fn report_mode_exits_zero_on_clean_tree() {
    let ws = TempWs::new("clean");
    ws.write("crates/demo/src/lib.rs", CLEAN);
    let (code, stdout, _) = ws.run(&[]);
    assert_eq!(code, 0, "clean tree must pass: {stdout}");
}

#[test]
fn check_without_baseline_fails_with_guidance() {
    let ws = TempWs::new("nobase");
    ws.write("crates/demo/src/lib.rs", CLEAN);
    let (code, _, stderr) = ws.run(&["--check"]);
    assert_eq!(code, 2, "missing baseline is a usage error");
    assert!(
        stderr.contains("--bless"),
        "should point at --bless: {stderr}"
    );
}

#[test]
fn bless_then_check_passes_then_new_violation_fails() {
    let ws = TempWs::new("lifecycle");
    ws.write("crates/demo/src/lib.rs", SEEDY);

    let (code, _, _) = ws.run(&["--bless"]);
    assert_eq!(code, 0, "bless must succeed");
    let (code, stdout, _) = ws.run(&["--check"]);
    assert_eq!(code, 0, "baselined violation must pass check: {stdout}");
    assert!(stdout.contains("OK (1 violation(s) currently baselined)"));

    // Regress: a second violation in the same file must fail with the
    // new finding's exact coordinates.
    ws.write("crates/demo/src/lib.rs", SEEDY_AND_PANICKY);
    let (code, stdout, _) = ws.run(&["--check"]);
    assert_eq!(code, 1, "new violation must fail check: {stdout}");
    assert!(
        stdout.contains("crates/demo/src/lib.rs:3:11: [panic-freedom]"),
        "new finding with file:line must be printed: {stdout}"
    );
}

#[test]
fn fixing_a_baselined_violation_forces_ratchet_down() {
    let ws = TempWs::new("ratchet");
    ws.write("crates/demo/src/lib.rs", SEEDY);
    let (code, _, _) = ws.run(&["--bless"]);
    assert_eq!(code, 0);

    // Fix the violation: check now fails because the baseline is stale,
    // forcing a --bless that locks in the lower count.
    ws.write("crates/demo/src/lib.rs", CLEAN);
    let (code, stdout, _) = ws.run(&["--check"]);
    assert_eq!(code, 1, "stale baseline entry must fail check: {stdout}");
    assert!(
        stdout.contains("STALE: crates/demo/src/lib.rs: [seed-discipline]"),
        "should name the stale entry: {stdout}"
    );

    let (code, _, _) = ws.run(&["--bless"]);
    assert_eq!(code, 0);
    let (code, stdout, _) = ws.run(&["--check"]);
    assert_eq!(code, 0, "after ratcheting down, check passes: {stdout}");
    assert!(stdout.contains("OK (0 violation(s) currently baselined)"));
}

#[test]
fn bless_refuses_meta_violations() {
    let ws = TempWs::new("meta");
    ws.write(
        "crates/demo/src/lib.rs",
        "// wx-allow(determinism)\npub fn f() -> u32 {\n    3\n}\n",
    );
    let (code, stdout, stderr) = ws.run(&["--bless"]);
    assert_eq!(
        code, 2,
        "bad-allow must not be baselined: {stdout} {stderr}"
    );
    assert!(
        stderr.contains("wx-allow"),
        "should explain the refusal: {stderr}"
    );
}

#[test]
fn json_format_is_parseable_and_carries_locations() {
    let ws = TempWs::new("json");
    ws.write("crates/demo/src/lib.rs", SEEDY);
    let (code, stdout, _) = ws.run(&["--format", "json"]);
    assert_eq!(code, 1);
    let parsed = wx_analyze::json::parse(&stdout).expect("valid JSON");
    let diags = parsed
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .expect("diagnostics array");
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(
        d.get("rule").and_then(|v| v.as_str()),
        Some("seed-discipline")
    );
    assert_eq!(
        d.get("file").and_then(|v| v.as_str()),
        Some("crates/demo/src/lib.rs")
    );
    assert_eq!(d.get("line").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(d.get("col").and_then(|v| v.as_u64()), Some(5));
}

#[test]
fn hot_path_to_vec_is_caught_end_to_end() {
    // The acceptance scenario from the issue: seeding a hot-path
    // `.to_vec()` into a configured module makes `--check` exit nonzero
    // with the right file:line. The demo workspace uses the real
    // workspace config, so plant the file at a configured hot path.
    let ws = TempWs::new("hotpath");
    ws.write("crates/demo/src/lib.rs", CLEAN);
    let (code, _, _) = ws.run(&["--bless"]);
    assert_eq!(code, 0);

    ws.write(
        "crates/graph/src/scratch.rs",
        "pub fn kernel(xs: &[u32]) -> usize {\n    xs.to_vec().len()\n}\n",
    );
    let (code, stdout, _) = ws.run(&["--check"]);
    assert_eq!(code, 1, "hot-path allocation must fail check: {stdout}");
    assert!(
        stdout.contains("crates/graph/src/scratch.rs:2:8: [hot-path-alloc]"),
        "wrong location in: {stdout}"
    );
}

// ---------------------------------------------------------------------
// Baseline library-level semantics (no subprocess).
// ---------------------------------------------------------------------

fn diags_for(src: &str) -> Vec<wx_analyze::Diagnostic> {
    analyze_source("crates/demo/src/lib.rs", src, &Config::workspace())
}

#[test]
fn compare_is_empty_at_parity_and_detects_both_directions() {
    let two = diags_for(SEEDY_AND_PANICKY);
    let one = diags_for(SEEDY);
    let base = Baseline::from_diagnostics(&one);

    assert!(base.compare(&one).is_empty(), "parity must be clean");

    let worse = base.compare(&two);
    assert!(
        worse.iter().any(|e| matches!(e, RatchetError::New { .. })),
        "count above baseline is a NEW error: {worse:?}"
    );

    let better = base.compare(&diags_for(CLEAN));
    assert!(
        better
            .iter()
            .all(|e| matches!(e, RatchetError::Stale { .. })),
        "count below baseline is a STALE error: {better:?}"
    );
    assert_eq!(better.len(), 1);
}

#[test]
fn baseline_json_round_trips() {
    let base = Baseline::from_diagnostics(&diags_for(SEEDY_AND_PANICKY));
    let parsed = Baseline::parse(&base.to_json()).expect("round-trip");
    assert!(parsed.compare(&diags_for(SEEDY_AND_PANICKY)).is_empty());
}

#[test]
fn baseline_parse_rejects_corruption() {
    assert!(Baseline::parse("not json").is_err());
    assert!(Baseline::parse("{\"version\": 99, \"entries\": []}").is_err());
    let zero = "{\"version\": 1, \"entries\": [{\"rule\": \"hygiene\", \"file\": \"f.rs\", \"count\": 0}]}";
    assert!(Baseline::parse(zero).is_err(), "zero counts are malformed");
}

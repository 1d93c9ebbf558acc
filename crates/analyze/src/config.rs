//! The workspace invariant configuration the rules are wired to.
//!
//! Paths are workspace-relative with forward slashes. The default
//! configuration ([`Config::workspace`]) encodes this repo's real
//! invariants; the fixture tests build custom configs to exercise the rules
//! in isolation. `RULES.md` documents every entry.

/// Which files and crates each rule applies to.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates (directory names under `crates/`) whose non-test code must not
    /// use `HashMap`/`HashSet`: their iteration order can leak into reports
    /// or RNG draw sequences.
    pub hash_container_crates: Vec<String>,
    /// Path prefixes where wall-clock reads (`Instant::now`, `SystemTime`,
    /// `thread_rng`) are allowed — the timing harnesses whose entire purpose
    /// is measuring wall-clock.
    pub timing_allowed: Vec<String>,
    /// Path prefixes of the allocation-free hot-path modules: allocation
    /// tokens are forbidden there outside constructor functions.
    pub hot_path_modules: Vec<String>,
    /// Path prefixes where the hygiene rule tolerates `println!`/`eprintln!`:
    /// the CLI presentation layer (stdout is its interface).
    pub hygiene_allowed: Vec<String>,
    /// Function names treated as constructors by the hot-path rule
    /// (exact match, or any name starting with `new_`/`with_`/`from_`).
    pub constructor_names: Vec<String>,
    /// Crates whose non-test library code must be entirely panic-free:
    /// `--bless` refuses to write, and `--check` rejects, a
    /// `panic-freedom` baseline entry for their files (violations
    /// elsewhere are ratcheted via the baseline).
    pub panic_free_crates: Vec<String>,
}

impl Config {
    /// The committed configuration for this workspace.
    pub fn workspace() -> Config {
        let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        Config {
            // Every library crate that feeds bytes into a report, plus the
            // graph/constructions substrate whose structures those crates
            // consume.
            hash_container_crates: s(&[
                "core",
                "lab",
                "expansion",
                "graph",
                "constructions",
                "spokesman",
                "radio",
                "trace",
                "serve",
            ]),
            // The sanctioned clock lives in wx-trace; everything else —
            // including the paper experiments, whose text is report
            // bytes — must go through `wx_trace::Clock` or spans.
            timing_allowed: s(&["crates/trace/src/clock.rs"]),
            hot_path_modules: s(&[
                "crates/graph/src/scratch.rs",
                "crates/graph/src/neighborhood.rs",
                "crates/graph/src/disk.rs",
                "crates/graph/src/mmap.rs",
                "crates/radio/src/workspace.rs",
                "crates/radio/src/protocols/",
                "crates/radio/src/bitslice.rs",
            ]),
            hygiene_allowed: s(&["crates/lab/src/cli.rs", "crates/serve/src/cli.rs"]),
            constructor_names: s(&["new", "default", "build", "empty"]),
            panic_free_crates: s(&["lab", "core", "trace", "serve"]),
        }
    }
}

/// How one file is classified from its path alone.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// The crate directory name under `crates/` (e.g. `graph`).
    pub crate_name: String,
    /// `true` for integration-test / bench targets (`tests/`, `benches/`).
    pub is_test_target: bool,
    /// `true` for binary targets (`src/bin/`, `main.rs`, `examples/`).
    pub is_bin: bool,
}

/// Classifies a workspace-relative path (`crates/<name>/…`). Returns `None`
/// for paths outside `crates/`, which the analyzer does not scan.
pub fn classify(rel_path: &str) -> Option<FileClass> {
    let mut parts = rel_path.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    let crate_name = parts.next()?.to_string();
    let rest: Vec<&str> = parts.collect();
    if rest.is_empty() {
        return None;
    }
    let is_test_target = rest
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    let is_bin = rest.contains(&"bin") || rest.last() == Some(&"main.rs");
    Some(FileClass {
        crate_name,
        is_test_target,
        is_bin,
    })
}

/// `true` when `path` starts with any of the given prefixes.
pub fn matches_any_prefix(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_lib_test_bin() {
        let lib = classify("crates/graph/src/scratch.rs").unwrap();
        assert_eq!(lib.crate_name, "graph");
        assert!(!lib.is_test_target && !lib.is_bin);

        let test = classify("crates/graph/tests/properties.rs").unwrap();
        assert!(test.is_test_target);

        let bin = classify("crates/lab/src/bin/wx.rs").unwrap();
        assert!(bin.is_bin);

        let main = classify("crates/lab/src/main.rs").unwrap();
        assert!(main.is_bin);

        assert!(classify("shims/serde/src/lib.rs").is_none());
        assert!(classify("crates/graph").is_none());
    }

    #[test]
    fn workspace_config_names_real_modules() {
        let cfg = Config::workspace();
        assert!(matches_any_prefix(
            "crates/graph/src/scratch.rs",
            &cfg.hot_path_modules
        ));
        assert!(matches_any_prefix(
            "crates/radio/src/protocols/decay.rs",
            &cfg.hot_path_modules
        ));
        assert!(matches_any_prefix(
            "crates/radio/src/bitslice.rs",
            &cfg.hot_path_modules
        ));
        // the out-of-core layer serves neighborhood queries straight off a
        // mapping and streams conversions — both are allocation-audited
        assert!(matches_any_prefix(
            "crates/graph/src/mmap.rs",
            &cfg.hot_path_modules
        ));
        assert!(matches_any_prefix(
            "crates/graph/src/disk.rs",
            &cfg.hot_path_modules
        ));
        assert!(!matches_any_prefix(
            "crates/radio/src/simulator.rs",
            &cfg.hot_path_modules
        ));
        // the serving layer feeds report bytes straight to clients, so it
        // carries the determinism + panic-freedom contracts; its CLI file
        // is the presentation layer
        assert!(cfg.hash_container_crates.iter().any(|c| c == "serve"));
        assert!(cfg.panic_free_crates.iter().any(|c| c == "serve"));
        assert!(matches_any_prefix(
            "crates/serve/src/cli.rs",
            &cfg.hygiene_allowed
        ));
        assert!(!matches_any_prefix(
            "crates/serve/src/service.rs",
            &cfg.hygiene_allowed
        ));
    }
}

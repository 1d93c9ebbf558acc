//! Golden-file tests: each fixture under `tests/fixtures/` is analyzed
//! under a fixed synthetic workspace path and the rendered diagnostics
//! must match the committed `.expected` file byte-for-byte.
//!
//! To regenerate the goldens after an intentional rule change:
//!
//! ```text
//! WX_FIXTURE_BLESS=1 cargo test -p wx-analyze --test rules_fixtures
//! ```
//!
//! then review the diff like any other code change.

use wx_analyze::{analyze_source, Config};

/// Runs one fixture and compares (or blesses) its golden file.
fn check_fixture(name: &str, rel_path: &str, src: &str, expected: &str) {
    let cfg = Config::workspace();
    let diags = analyze_source(rel_path, src, &cfg);
    let mut rendered = diags
        .iter()
        .map(|d| d.render())
        .collect::<Vec<_>>()
        .join("\n");
    if !rendered.is_empty() {
        rendered.push('\n');
    }

    if std::env::var_os("WX_FIXTURE_BLESS").is_some() {
        let path = format!(
            "{}/tests/fixtures/{name}.expected",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }

    assert_eq!(
        rendered, expected,
        "fixture `{name}` diverged from its golden file; \
         run with WX_FIXTURE_BLESS=1 and review the diff if intentional"
    );
}

macro_rules! fixture_test {
    ($test_name:ident, $fixture:literal, $rel_path:literal) => {
        #[test]
        fn $test_name() {
            check_fixture(
                $fixture,
                $rel_path,
                include_str!(concat!("fixtures/", $fixture, ".rs")),
                include_str!(concat!("fixtures/", $fixture, ".expected")),
            );
        }
    };
}

fixture_test!(
    seed_discipline_fixture,
    "seed_discipline",
    "crates/graph/src/fixture.rs"
);
fixture_test!(
    determinism_fixture,
    "determinism",
    "crates/core/src/fixture.rs"
);
fixture_test!(
    panic_freedom_fixture,
    "panic_freedom",
    "crates/lab/src/fixture.rs"
);
fixture_test!(
    hot_path_alloc_fixture,
    "hot_path_alloc",
    "crates/graph/src/neighborhood.rs"
);
fixture_test!(
    hygiene_fixture,
    "hygiene",
    "crates/expansion/src/fixture.rs"
);
fixture_test!(
    suppression_fixture,
    "suppression",
    "crates/core/src/fixture.rs"
);

/// Panic-freedom outside the strict crates still reports (the baseline
/// ratchet, not the rule, is what tolerates those) — same fixture under
/// a non-strict crate path must produce identical findings.
#[test]
fn panic_freedom_reports_in_ratcheted_crates_too() {
    let src = include_str!("fixtures/panic_freedom.rs");
    let cfg = Config::workspace();
    let strict = analyze_source("crates/lab/src/fixture.rs", src, &cfg);
    let ratcheted = analyze_source("crates/graph/src/fixture.rs", src, &cfg);
    assert_eq!(strict.len(), ratcheted.len());
    for (a, b) in strict.iter().zip(&ratcheted) {
        assert_eq!(a.rule, b.rule);
        assert_eq!((a.line, a.col), (b.line, b.col));
    }
}

/// Files in bin targets are exempt from panic-freedom and hygiene but
/// not from determinism.
#[test]
fn bin_targets_keep_determinism_but_drop_panic_and_hygiene() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n\
               \x20   println!(\"{x:?}\");\n\
               \x20   let mut m = std::collections::HashMap::new();\n\
               \x20   m.insert(1u32, 2u32);\n\
               \x20   x.unwrap()\n\
               }\n";
    let cfg = Config::workspace();
    let diags = analyze_source("crates/lab/src/bin/wx.rs", src, &cfg);
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["determinism"]);
}

/// Test targets produce no diagnostics at all (and no unused-allow
/// noise for suppressions they contain).
#[test]
fn test_targets_are_fully_exempt() {
    let src = "// wx-allow(determinism): would be unused in lib code\n\
               pub fn f() -> usize {\n\
               \x20   let s: std::collections::HashSet<u32> = Default::default();\n\
               \x20   s.len()\n\
               }\n";
    let cfg = Config::workspace();
    let diags = analyze_source("crates/core/tests/fixture.rs", src, &cfg);
    assert!(diags.is_empty(), "got: {diags:?}");
}

/// `test-only-pub` is one pass over the whole workspace: an item named only
/// by `#[cfg(test)]` code, a `tests.rs` module, an integration test or a doc
/// comment is flagged; a use from `examples/` or a `pub use` re-export is
/// not.
#[test]
fn test_only_pub_flags_items_only_tests_and_docs_name() {
    let lib = "\
pub mod api;
/// Only this doc names [`doc_only`].
pub fn doc_only() {}
pub fn test_only() {}
pub const TESTS_RS_ONLY: u32 = 1;
pub fn example_used() {}
pub fn reexported() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::test_only();
    }
}
";
    let files: Vec<(String, String)> = [
        ("crates/demo/src/lib.rs", lib),
        ("crates/demo/src/api.rs", "pub use crate::reexported;\n"),
        (
            "crates/demo/src/tests.rs",
            "fn t() -> u32 {\n    crate::TESTS_RS_ONLY\n}\n",
        ),
        (
            "crates/demo/tests/it.rs",
            "fn it() {\n    demo::doc_only();\n}\n",
        ),
        (
            "examples/src/bin/demo.rs",
            "fn main() {\n    demo::example_used();\n}\n",
        ),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let flagged: Vec<String> = wx_analyze::rules::test_only_pub(&files)
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.file, d.line, d.col, d.rule))
        .collect();
    assert_eq!(
        flagged,
        [
            "crates/demo/src/lib.rs:3:8 test-only-pub",
            "crates/demo/src/lib.rs:4:8 test-only-pub",
            "crates/demo/src/lib.rs:5:11 test-only-pub",
        ]
    );
}

/// A `pub fn` is not kept alive by a same-named field access, field or
/// struct-literal key, or `let`/`mut`/`for` binding: an enum method with no
/// caller stays flagged while a catalog struct's same-named field is read
/// everywhere. A method call, also through a turbofish, still counts.
#[test]
fn test_only_pub_ignores_same_named_fields_keys_and_bindings() {
    let lib = "\
pub enum Kind { Fixed, Random }
impl Kind {
    pub fn randomized(self) -> bool {
        matches!(self, Kind::Random)
    }
    pub fn label(self) -> &'static str {
        \"kind\"
    }
    pub fn parse<T>(self) -> Option<T> {
        None
    }
}
pub struct Info {
    pub randomized: bool,
}
pub const CATALOG: [Info; 1] = [Info { randomized: true }];
pub fn random_count() -> usize {
    let random = CATALOG.iter().filter(|info| info.randomized).count();
    random + Kind::Fixed.label().len() + Kind::Random.parse::<usize>().unwrap_or(0)
}
pub fn bindings(flags: &[bool]) {
    let randomized = flags.len();
    let mut randomized = flags.is_empty();
    for randomized in flags {}
}
";
    let files: Vec<(String, String)> = [
        ("crates/demo/src/lib.rs", lib),
        (
            "examples/src/bin/demo.rs",
            "fn main() {\n    demo::random_count();\n    demo::bindings(&[]);\n}\n",
        ),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let flagged: Vec<String> = wx_analyze::rules::test_only_pub(&files)
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.file, d.line, d.col, d.rule))
        .collect();
    assert_eq!(flagged, ["crates/demo/src/lib.rs:3:12 test-only-pub"]);
}

/// A `fn` declared in a `pub trait` is an item: neither its declaration nor
/// an impl of it is a use, so a trait method that only tests call is flagged
/// and one that non-test code calls is not.
#[test]
fn test_only_pub_covers_pub_trait_methods() {
    let lib = "\
pub trait Solver {
    fn kind(&self) -> u32;
    fn solve(&self) -> u32;
    fn solve_twice(&self) -> u32 {
        2 * self.solve()
    }
}
pub struct Greedy;
impl Solver for Greedy {
    fn kind(&self) -> u32 {
        1
    }
    fn solve(&self) -> u32 {
        2
    }
}
pub fn run(solver: &dyn Solver) -> u32 {
    solver.solve()
}
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() {
        assert_eq!(Greedy.kind() + Greedy.solve_twice(), 5);
    }
}
";
    let files: Vec<(String, String)> = [
        ("crates/demo/src/lib.rs", lib),
        (
            "examples/src/bin/demo.rs",
            "fn main() {\n    demo::run(&demo::Greedy);\n}\n",
        ),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let flagged: Vec<String> = wx_analyze::rules::test_only_pub(&files)
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.file, d.line, d.col, d.rule))
        .collect();
    assert_eq!(
        flagged,
        [
            "crates/demo/src/lib.rs:2:8 test-only-pub",
            "crates/demo/src/lib.rs:4:8 test-only-pub",
        ]
    );
}

/// A local that a pattern binds keeps no same-named `pub fn` alive, in the
/// binding's scope: `let`, `for`, `if let`, `let … else`, `match` arms,
/// closure and `fn` parameters. Past the scope, a bare call counts again.
#[test]
fn test_only_pub_ignores_reads_of_bound_locals() {
    let lib = "\
pub struct Job {
    id: u64,
}
impl Job {
    pub fn key(&self) -> u64 {
        self.id
    }
}
pub fn first() -> u64 {
    1
}
pub fn second() -> u64 {
    2
}
pub fn third() -> u64 {
    3
}
pub fn fourth() -> u64 {
    4
}
pub fn fifth() -> u64 {
    5
}
pub fn width() -> u64 {
    6
}
pub fn serve(jobs: &[Job], fifth: u64) -> u64 {
    let mut total = fifth;
    for job in jobs {
        let key = job.id;
        total += key;
    }
    if let Some(first) = jobs.get(0).map(|j| j.id) {
        total += first;
    }
    match jobs.len() {
        0 => {}
        second => total += second as u64,
    }
    let Some(third) = jobs.last().map(|j| j.id) else {
        return total;
    };
    total += jobs.iter().map(|fourth| fourth.id).sum::<u64>();
    {
        let width = 3;
        total += width + third;
    }
    total + width()
}
";
    let files: Vec<(String, String)> = [
        ("crates/demo/src/lib.rs", lib),
        (
            "examples/src/bin/demo.rs",
            "fn main() {\n    demo::serve(&[], 0);\n}\n",
        ),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let flagged: Vec<String> = wx_analyze::rules::test_only_pub(&files)
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.file, d.line, d.col, d.rule))
        .collect();
    assert_eq!(
        flagged,
        [
            "crates/demo/src/lib.rs:5:12 test-only-pub",
            "crates/demo/src/lib.rs:9:8 test-only-pub",
            "crates/demo/src/lib.rs:12:8 test-only-pub",
            "crates/demo/src/lib.rs:15:8 test-only-pub",
            "crates/demo/src/lib.rs:18:8 test-only-pub",
            "crates/demo/src/lib.rs:21:8 test-only-pub",
        ]
    );
}

//! `wx-analyze` — the workspace invariant linter.
//!
//! The repo's load-bearing guarantees (byte-deterministic reports under any
//! parallelism, the `derive_seed` stream discipline, allocation-free Γ/radio
//! hot paths, panic-free library crates) were enforced by convention and
//! after-the-fact proptests. This crate machine-checks them on every PR: a
//! Rust [lexer] of its own feeds a [rule engine](rules) that
//! walks every workspace `.rs` file under `crates/` (plus one
//! workspace-wide pass that keeps the `pub` surface to what non-test code
//! calls) and emits structured diagnostics, with inline
//! `// wx-allow(rule-id): reason` suppressions and a committed
//! [baseline ratchet](baseline) so pre-existing violations stand while new
//! ones fail CI.
//!
//! See `RULES.md` for the rule catalog and the motivating bug behind each
//! rule, and the `wx-analyze` binary for the CLI (`--check`, `--bless`,
//! `--format json`).

#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use baseline::{Baseline, RatchetError};
pub use config::Config;
pub use diagnostics::Diagnostic;
pub use rules::analyze_source;

use std::path::{Path, PathBuf};

/// Analyzes every `.rs` file under `<root>/crates/`, in deterministic
/// (sorted-path) order, then runs the workspace-wide
/// [`test-only-pub`](rules::test_only_pub) pass, which also reads
/// `<root>/examples/` and `<root>/wxbench/src/` for uses. Returns the
/// combined sorted diagnostics.
///
/// IO failures surface as `Err` with the offending path in the message.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    let mut files = Vec::new();
    for dir in ["crates", "examples", "wxbench/src"] {
        let dir = root.join(dir);
        // `crates/` must exist; the two trees read only for uses may not
        if dir.is_dir() || dir.ends_with("crates") {
            collect_rs_files(&dir, &mut files)
                .map_err(|e| format!("walking {}: {e}", dir.display()))?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        sources.push((rel_path(root, &path), src));
    }
    let mut diags: Vec<Diagnostic> = sources
        .iter()
        .flat_map(|(rel, src)| analyze_source(rel, src, cfg))
        .collect();
    diags.extend(rules::test_only_pub(&sources));
    diagnostics::sort(&mut diags);
    Ok(diags)
}

/// The workspace-relative forward-slash path of `path` under `root`.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_is_forward_slashed() {
        let root = Path::new("/ws");
        let p = Path::new("/ws/crates/graph/src/lib.rs");
        assert_eq!(rel_path(root, p), "crates/graph/src/lib.rs");
    }
}

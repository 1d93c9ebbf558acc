//! Structured diagnostics and their human / JSON renderings.

use serde::Serialize;

/// One violation: where it is, which rule fired, and why. Its serde form is
/// the object `--format json` prints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Stable rule identifier (see `RULES.md`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation, including the offending token.
    pub message: String,
}

impl Diagnostic {
    /// The canonical single-line rendering: `file:line:col: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Sorts diagnostics into the canonical deterministic order:
/// (file, line, col, rule).
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_clickable() {
        let d = Diagnostic {
            rule: "hygiene",
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            message: "dbg! in library code".into(),
        };
        assert_eq!(
            d.render(),
            "crates/x/src/lib.rs:3:9: [hygiene] dbg! in library code"
        );
    }

    #[test]
    fn sort_orders_by_position() {
        let mk = |file: &str, line, col| Diagnostic {
            rule: "hygiene",
            file: file.into(),
            line,
            col,
            message: String::new(),
        };
        let mut v = vec![mk("b.rs", 1, 1), mk("a.rs", 9, 1), mk("a.rs", 2, 5)];
        sort(&mut v);
        assert_eq!(
            v.iter()
                .map(|d| (d.file.clone(), d.line))
                .collect::<Vec<_>>(),
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }
}

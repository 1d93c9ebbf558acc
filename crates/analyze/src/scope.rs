//! Lightweight structural scoping over the token stream.
//!
//! The rules need three pieces of context a flat token stream does not give
//! them directly:
//!
//! 1. **Test spans** — the line ranges of items annotated `#[cfg(test)]` /
//!    `#[test]`, or the whole file when it opens with `#![cfg(test)]` (most
//!    rules skip test code);
//! 2. **Function spans** — which `fn` body a line belongs to, so the
//!    hot-path allocation rule can exempt constructors and the seed rule can
//!    exempt the body of `derive_seed` itself;
//! 3. **`use` spans** — import lines, so naming `HashMap` in a `use` item is
//!    not flagged (only usage sites are).
//!
//! All three are computed by brace matching over the comment-free token
//! stream; the lexer has already removed strings and comments, so every
//! brace token is structural.

use crate::lexer::{Token, TokenKind};

/// The span of one `fn` item, with its name.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name (raw-ident prefix stripped: `r#new` → `new`).
    pub name: String,
    /// First line of the `fn` keyword.
    pub start: u32,
    /// Line of the closing brace of the body.
    pub end: u32,
}

/// Per-file structural scopes, queried by line.
#[derive(Debug, Default)]
pub struct FileScopes {
    test_spans: Vec<(u32, u32)>,
    fn_spans: Vec<FnSpan>,
    use_spans: Vec<(u32, u32)>,
}

impl FileScopes {
    /// `true` if `line` falls inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// The innermost `fn` whose body span contains `line`, if any.
    pub fn innermost_fn(&self, line: u32) -> Option<&FnSpan> {
        // Spans are recorded in source order; the innermost containing fn is
        // the one with the latest start.
        self.fn_spans
            .iter()
            .filter(|f| f.start <= line && line <= f.end)
            .max_by_key(|f| f.start)
    }

    /// `true` if any enclosing `fn` (not just the innermost) is named `name`.
    pub fn inside_fn_named(&self, line: u32, name: &str) -> bool {
        self.fn_spans
            .iter()
            .any(|f| f.start <= line && line <= f.end && f.name == name)
    }

    /// `true` if `line` is part of a `use …;` item.
    pub fn in_use(&self, line: u32) -> bool {
        self.use_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }
}

/// Computes the scopes for one file from its full token stream.
pub fn compute(tokens: &[Token], src: &str) -> FileScopes {
    // Work on the comment-free stream; trivia never affects structure.
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_trivia()).collect();
    let mut scopes = FileScopes::default();

    // A file that opens with an inner `#![cfg(test)]` is a module compiled
    // only under test: test code throughout.
    let text = |j: usize| code.get(j).map(|t| t.text(src));
    let mut i = 0usize;
    while text(i) == Some("#") && text(i + 1) == Some("!") {
        let Some((attr_is_test, after)) = scan_attribute(&code, src, i) else {
            break;
        };
        if attr_is_test && text(i + 3) == Some("cfg") {
            let end = code.last().map_or(0, |t| t.line);
            scopes.test_spans.push((code[i].line, end));
        }
        i = after;
    }

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        match t.kind {
            TokenKind::Punct if t.text(src) == "#" => {
                if let Some((attr_is_test, after)) = scan_attribute(&code, src, i) {
                    // An inner `#![…]` annotates its enclosing module (the
                    // file, handled above), not the next item.
                    if attr_is_test && text(i + 1) != Some("!") {
                        if let Some((start, end)) = item_body_span(&code, src, after) {
                            scopes.test_spans.push((t.line, end));
                            let _ = start;
                        }
                    }
                    i = after;
                    continue;
                }
            }
            TokenKind::Ident if t.text(src) == "fn" => {
                // Skip fn-pointer types: `fn(` has no name ident.
                if let Some(name_tok) = code.get(i + 1) {
                    if name_tok.kind == TokenKind::Ident {
                        let name = name_tok.text(src).trim_start_matches("r#").to_string();
                        if let Some((_, end)) = item_body_span(&code, src, i + 2) {
                            scopes.fn_spans.push(FnSpan {
                                name,
                                start: t.line,
                                end,
                            });
                        }
                    }
                }
            }
            TokenKind::Ident if t.text(src) == "use" => {
                // Statement-position `use` only; `use` cannot appear
                // elsewhere as an expression, so this is safe as-is.
                let start = t.line;
                let mut j = i + 1;
                while j < code.len() && code[j].text(src) != ";" {
                    j += 1;
                }
                let end = code.get(j).map(|t| t.line).unwrap_or(start);
                scopes.use_spans.push((start, end));
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    scopes
}

/// At `code[i] == "#"`: if this is an attribute, returns
/// `(mentions_test, index_after_closing_bracket)`. `mentions_test` is true
/// when the attribute's token list contains the ident `test` (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, …))]`, …).
fn scan_attribute(code: &[&Token], src: &str, i: usize) -> Option<(bool, usize)> {
    let mut j = i + 1;
    // Inner attributes `#![…]`.
    if code.get(j).map(|t| t.text(src)) == Some("!") {
        j += 1;
    }
    if code.get(j).map(|t| t.text(src)) != Some("[") {
        return None;
    }
    let mut depth = 0usize;
    let mut mentions_test = false;
    while j < code.len() {
        let txt = code[j].text(src);
        match txt {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some((mentions_test, j + 1));
                }
            }
            // `#[cfg(not(test))]` is *non*-test code: skip the not(…) group.
            "not"
                if code[j].kind == TokenKind::Ident
                    && code.get(j + 1).map(|t| t.text(src)) == Some("(") =>
            {
                let mut paren = 0i32;
                j += 1;
                while j < code.len() {
                    match code[j].text(src) {
                        "(" => paren += 1,
                        ")" => {
                            paren -= 1;
                            if paren == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            "test" if code[j].kind == TokenKind::Ident => mentions_test = true,
            _ => {}
        }
        j += 1;
    }
    None
}

/// From `code[from]`, scans forward (skipping any further attributes) for the
/// item's `{ … }` body and returns its `(start_line, end_line)`. Returns
/// `None` for brace-less items (`#[cfg(test)] use …;`, trait method decls).
fn item_body_span(code: &[&Token], src: &str, from: usize) -> Option<(u32, u32)> {
    let mut j = from;
    // Skip stacked attributes.
    while code.get(j).map(|t| t.text(src)) == Some("#") {
        let (_, after) = scan_attribute(code, src, j)?;
        j = after;
    }
    // Find the opening brace of the body, giving up at a top-level `;`.
    // Bracket/paren nesting (generics with defaults, argument lists) cannot
    // contain statement semicolons that end the item, but arrays in const
    // generics could — track () and [] nesting for safety.
    let mut paren = 0i32;
    while j < code.len() {
        let txt = code[j].text(src);
        match txt {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren == 0 => return None,
            "=" if paren == 0 => {
                // `#[cfg(test)] const X: … = …;` / `type T = …;`: the body
                // brace of an initializer is not an item body, but treating
                // the whole item as the span is correct for test-scoping.
                // Scan to the terminating `;` and span the item.
                let start_line = code.get(from).map(|t| t.line)?;
                let mut k = j;
                let mut depth = 0i32;
                while k < code.len() {
                    match code[k].text(src) {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth -= 1,
                        ";" if depth == 0 => return Some((start_line, code[k].line)),
                        _ => {}
                    }
                    k += 1;
                }
                return None;
            }
            "{" => {
                let start_line = code[j].line;
                let mut depth = 0i32;
                let mut k = j;
                while k < code.len() {
                    match code[k].text(src) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((start_line, code[k].line));
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                // Unbalanced braces: span to EOF so scoping fails closed.
                return Some((start_line, code.last().map(|t| t.line)?));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scopes_of(src: &str) -> FileScopes {
        compute(&lex(src), src)
    }

    #[test]
    fn cfg_test_mod_is_spanned() {
        let src = "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let s = scopes_of(src);
        assert!(!s.in_test(1));
        assert!(s.in_test(3));
        assert!(s.in_test(4));
        assert!(s.in_test(5));
    }

    #[test]
    fn test_fn_attribute_is_spanned() {
        let src = "#[test]\nfn a_test() {\n    body();\n}\nfn not_test() {}\n";
        let s = scopes_of(src);
        assert!(s.in_test(2));
        assert!(s.in_test(3));
        assert!(!s.in_test(5));
    }

    #[test]
    fn inner_cfg_test_makes_the_whole_file_test_code() {
        let src =
            "//! A test-only module.\n#![cfg(test)]\nuse x::y;\nfn helper() {}\npub fn run() {}\n";
        let s = scopes_of(src);
        assert!((2..=5).all(|line| s.in_test(line)));
        // `cfg_attr(test, …)` only mentions test: the file stays library code
        let src = "#![cfg_attr(test, allow(dead_code))]\nfn real() {}\n";
        assert!(!scopes_of(src).in_test(2));
    }

    #[test]
    fn braceless_cfg_test_item_spans_only_itself() {
        let src = "#[cfg(test)]\nuse std::collections::HashSet;\nfn real() {}\n";
        let s = scopes_of(src);
        // The `use` item has no braces; `real` must not be test-scoped.
        assert!(!s.in_test(3));
    }

    #[test]
    fn fn_spans_and_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        x();\n    }\n    y();\n}\n";
        let s = scopes_of(src);
        assert_eq!(s.innermost_fn(3).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(s.innermost_fn(5).map(|f| f.name.as_str()), Some("outer"));
        assert!(s.inside_fn_named(3, "outer"));
    }

    #[test]
    fn trait_decl_without_body_is_skipped() {
        let src = "trait T {\n    fn decl(&self) -> usize;\n    fn with_default(&self) -> usize {\n        1\n    }\n}\n";
        let s = scopes_of(src);
        assert_eq!(
            s.innermost_fn(4).map(|f| f.name.as_str()),
            Some("with_default")
        );
    }

    #[test]
    fn use_spans_cover_grouped_imports() {
        let src = "use std::collections::{\n    HashMap,\n    HashSet,\n};\nfn f() { let _: HashMap<u32, u32>; }\n";
        let s = scopes_of(src);
        assert!(s.in_use(1));
        assert!(s.in_use(2));
        assert!(s.in_use(3));
        assert!(s.in_use(4));
        assert!(!s.in_use(5));
    }

    #[test]
    fn where_clause_does_not_confuse_fn_span() {
        let src = "fn generic<T>(x: T) -> usize\nwhere\n    T: Clone,\n{\n    1\n}\n";
        let s = scopes_of(src);
        assert_eq!(s.innermost_fn(5).map(|f| f.name.as_str()), Some("generic"));
    }
}

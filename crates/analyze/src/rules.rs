//! The rule engine: token-stream matchers for the workspace invariants.
//!
//! Every rule walks the comment-free token stream of one file, consults the
//! structural scopes from [`crate::scope`], and emits [`Diagnostic`]s.
//! Inline suppressions (`// wx-allow(rule-id): reason`) are parsed from the
//! comment tokens and applied afterwards; malformed or unused suppressions
//! are themselves diagnostics, so the suppression surface can only shrink.

use crate::config::{classify, matches_any_prefix, Config, FileClass};
use crate::diagnostics::{self, Diagnostic};
use crate::lexer::{lex, Token, TokenKind};
use crate::scope::{self, FileScopes};
use std::collections::{BTreeMap, BTreeSet};

/// Rule: arithmetic on seed values outside `derive_seed`.
pub const SEED_DISCIPLINE: &str = "seed-discipline";
/// Rule: hash-container and wall-clock nondeterminism sources.
pub const DETERMINISM: &str = "determinism";
/// Rule: `unwrap`/`expect`/`panic!` family in library code.
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// Rule: allocation in the configured hot-path modules.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule: debug/print output in library code.
pub const HYGIENE: &str = "hygiene";
/// Workspace rule: a `pub` item that no non-test code names.
pub const TEST_ONLY_PUB: &str = "test-only-pub";
/// Meta rule: malformed `wx-allow` comment.
pub const BAD_ALLOW: &str = "bad-allow";
/// Meta rule: a `wx-allow` that suppresses nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// The rule ids a `wx-allow` may name (the meta rules are not suppressible).
const SUPPRESSIBLE: &[&str] = &[
    SEED_DISCIPLINE,
    DETERMINISM,
    PANIC_FREEDOM,
    HOT_PATH_ALLOC,
    HYGIENE,
];

/// Analyzes one file's source, returning its sorted diagnostics.
///
/// `rel_path` must be workspace-relative with forward slashes
/// (`crates/<name>/…`); paths outside `crates/` yield no diagnostics.
pub fn analyze_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let class = match classify(rel_path) {
        Some(c) => c,
        None => return Vec::new(),
    };
    if class.is_test_target {
        // Integration tests/benches are out of scope for every rule, and a
        // wx-allow there could only ever be unused — skip the file outright.
        return Vec::new();
    }
    let tokens = lex(src);
    let scopes = scope::compute(&tokens, src);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_trivia()).collect();

    let mut diags = Vec::new();
    let ctx = RuleCtx {
        path: rel_path,
        src,
        class: &class,
        scopes: &scopes,
        cfg,
        code: &code,
    };
    seed_discipline(&ctx, &mut diags);
    determinism(&ctx, &mut diags);
    panic_freedom(&ctx, &mut diags);
    hot_path_alloc(&ctx, &mut diags);
    hygiene(&ctx, &mut diags);

    let (mut suppressions, mut allow_diags) = parse_suppressions(rel_path, &tokens, src);
    diags.retain(|d| {
        !suppressions.iter_mut().any(|s| {
            let hit = s.target_line == d.line && s.rules.iter().any(|r| r == d.rule);
            if hit {
                s.used = true;
            }
            hit
        })
    });
    for s in &suppressions {
        if !s.used {
            allow_diags.push(Diagnostic {
                rule: UNUSED_ALLOW,
                file: rel_path.to_string(),
                line: s.line,
                col: s.col,
                message: format!(
                    "wx-allow({}) suppresses nothing on line {}; remove it",
                    s.rules.join(", "),
                    s.target_line
                ),
            });
        }
    }
    diags.extend(allow_diags);
    diagnostics::sort(&mut diags);
    diags
}

struct RuleCtx<'a> {
    path: &'a str,
    src: &'a str,
    class: &'a FileClass,
    scopes: &'a FileScopes,
    cfg: &'a Config,
    code: &'a [&'a Token],
}

impl RuleCtx<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        let t = self.code.get(i)?;
        (t.kind == TokenKind::Ident).then(|| t.text(self.src))
    }

    fn punct(&self, i: usize) -> Option<&str> {
        let t = self.code.get(i)?;
        (t.kind == TokenKind::Punct).then(|| t.text(self.src))
    }

    fn emit(&self, diags: &mut Vec<Diagnostic>, rule: &'static str, i: usize, message: String) {
        let t = self.code[i];
        diags.push(Diagnostic {
            rule,
            file: self.path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    }
}

/// **seed-discipline** — seeds may only be combined via `derive_seed`.
///
/// Flags an identifier containing `seed` adjacent to an arithmetic operator
/// (`seed + i`, `seed * 131`, `base - seed`, `seed ^= x`, and the
/// `wrapping_*` method forms). A sampler that derived trial seeds as
/// `1000 + fi*131 + t`, collapsing seed streams, is the motivating instance.
fn seed_discipline(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    const OPS: &[&str] = &[
        "+", "-", "*", "/", "%", "^", "+=", "-=", "*=", "/=", "%=", "^=",
    ];
    const WRAPPING: &[&str] = &[
        "wrapping_add",
        "wrapping_sub",
        "wrapping_mul",
        "checked_add",
        "checked_mul",
        "saturating_add",
        "saturating_mul",
    ];
    for i in 0..ctx.code.len() {
        let name = match ctx.ident(i) {
            Some(n) if n.to_ascii_lowercase().contains("seed") => n,
            _ => continue,
        };
        let line = ctx.code[i].line;
        if ctx.scopes.in_test(line) || ctx.scopes.inside_fn_named(line, "derive_seed") {
            continue;
        }
        // `derive_seed(`, `seed_from_u64(` … are calls, not arithmetic.
        let next = ctx.punct(i + 1);
        let next_is_op = next.map(|p| OPS.contains(&p)).unwrap_or(false);
        let prev = ctx.punct(i.wrapping_sub(1)).filter(|_| i > 0);
        let prev_is_op = match prev {
            Some(p) if OPS.contains(&p) => {
                if p == "-" || p == "*" {
                    // Binary only: `a - seed` yes, `-seed`/`*seed` (negation /
                    // deref / closure pattern) only when the token before the
                    // operator closes an operand.
                    i >= 2 && closes_operand(ctx, i - 2)
                } else {
                    true
                }
            }
            _ => false,
        };
        let wrapping_call = ctx.punct(i + 1) == Some(".")
            && ctx
                .ident(i + 2)
                .map(|m| WRAPPING.contains(&m))
                .unwrap_or(false);
        // Arithmetic on the *result* of a seed-returning call:
        // `base_seed(x) - 7`, `derive_seed(a, b) ^ c`. Look past the
        // call's balanced argument list for a trailing operator.
        let call_result_op = if next == Some("(") {
            match matching_close(ctx, i + 1) {
                Some(j) => ctx.punct(j + 1).filter(|p| OPS.contains(p)),
                None => None,
            }
        } else {
            None
        };
        if next_is_op || prev_is_op || wrapping_call || call_result_op.is_some() {
            let how = if wrapping_call {
                format!("`{name}.{}`", ctx.ident(i + 2).unwrap_or(""))
            } else if next_is_op {
                format!("`{name} {}`", next.unwrap_or(""))
            } else if let Some(op) = call_result_op {
                format!("`{name}(…) {op}`")
            } else {
                format!("`{} {name}`", prev.unwrap_or(""))
            };
            ctx.emit(
                diags,
                SEED_DISCIPLINE,
                i,
                format!(
                    "arithmetic on seed value {how}: derive child seeds with \
                     `derive_seed(parent, stream)` instead (ad-hoc offsets collide \
                     across streams)"
                ),
            );
        }
    }
}

/// Index of the `)` matching the `(` at code index `open` (`None` when
/// unbalanced to end of file).
fn matching_close(ctx: &RuleCtx<'_>, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in ctx.code.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text(ctx.src) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// `true` when the token at `i` can end an operand (so a following `-`/`*`
/// is a binary operator, not a prefix).
fn closes_operand(ctx: &RuleCtx<'_>, i: usize) -> bool {
    match ctx.code.get(i) {
        Some(t) => match t.kind {
            TokenKind::Ident | TokenKind::NumLit => true,
            TokenKind::Punct => matches!(t.text(ctx.src), ")" | "]"),
            _ => false,
        },
        None => false,
    }
}

/// **determinism** — no hash-ordered containers or ambient clocks/RNG where
/// bytes can reach a report.
fn determinism(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    let hash_scoped = ctx
        .cfg
        .hash_container_crates
        .iter()
        .any(|c| c == &ctx.class.crate_name);
    let timing_allowed = matches_any_prefix(ctx.path, &ctx.cfg.timing_allowed);
    let mut last_hash_line = 0u32;
    for i in 0..ctx.code.len() {
        let name = match ctx.ident(i) {
            Some(n) => n,
            None => continue,
        };
        let line = ctx.code[i].line;
        if ctx.scopes.in_test(line) {
            continue;
        }
        match name {
            "HashMap" | "HashSet" if hash_scoped => {
                if ctx.scopes.in_use(line) || line == last_hash_line {
                    continue;
                }
                last_hash_line = line;
                ctx.emit(
                    diags,
                    DETERMINISM,
                    i,
                    format!(
                        "`{name}` iteration order is nondeterministic and can leak into \
                         reports or RNG draw order: use BTreeMap/BTreeSet (or sort before \
                         iterating), or wx-allow with a proof the order never escapes"
                    ),
                );
            }
            "Instant"
                if ctx.punct(i + 1) == Some("::")
                    && ctx.ident(i + 2) == Some("now")
                    && !timing_allowed =>
            {
                ctx.emit(
                    diags,
                    DETERMINISM,
                    i,
                    "`Instant::now` outside `wx_trace::clock` breaks report \
                     reproducibility; use `wx_trace::Clock` or a `wx_trace::span` instead"
                        .to_string(),
                );
            }
            "SystemTime" if !timing_allowed => {
                ctx.emit(
                    diags,
                    DETERMINISM,
                    i,
                    "`SystemTime` outside `wx_trace::clock` breaks report reproducibility"
                        .to_string(),
                );
            }
            "thread_rng" => {
                ctx.emit(
                    diags,
                    DETERMINISM,
                    i,
                    "`thread_rng` is ambient nondeterminism: every RNG must come from \
                     `rng_from_seed`/`derive_seed` so trials are replayable"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
}

/// **panic-freedom** — library code propagates errors instead of panicking.
fn panic_freedom(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if ctx.class.is_bin {
        return; // binaries may exit loudly; the rule targets library paths
    }
    for i in 0..ctx.code.len() {
        let name = match ctx.ident(i) {
            Some(n) => n,
            None => continue,
        };
        let line = ctx.code[i].line;
        if ctx.scopes.in_test(line) {
            continue;
        }
        let method_call = |m: &str| {
            name == m
                && ctx.punct(i.wrapping_sub(1)).filter(|_| i > 0) == Some(".")
                && ctx.punct(i + 1) == Some("(")
        };
        let macro_call = |m: &str| name == m && ctx.punct(i + 1) == Some("!");
        let flagged = if method_call("unwrap") {
            Some("`.unwrap()` panics on the error path")
        } else if method_call("expect") {
            Some("`.expect(…)` panics on the error path")
        } else if macro_call("panic") {
            Some("`panic!` aborts the whole run")
        } else if macro_call("unreachable") {
            Some("`unreachable!` is a latent panic if the invariant drifts")
        } else if macro_call("todo") || macro_call("unimplemented") {
            Some("unfinished code path panics at runtime")
        } else {
            None
        };
        if let Some(why) = flagged {
            ctx.emit(
                diags,
                PANIC_FREEDOM,
                i,
                format!("{why}: return the crate error type instead"),
            );
        }
    }
}

/// **hot-path-alloc** — the configured allocation-free modules stay that way
/// outside constructors.
fn hot_path_alloc(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if !matches_any_prefix(ctx.path, &ctx.cfg.hot_path_modules) {
        return;
    }
    let is_ctor = |line: u32| match ctx.scopes.innermost_fn(line) {
        Some(f) => {
            ctx.cfg.constructor_names.iter().any(|n| n == &f.name)
                || f.name.starts_with("new_")
                || f.name.starts_with("with_")
                || f.name.starts_with("from_")
        }
        None => true, // item position (consts, statics): not a hot path
    };
    for i in 0..ctx.code.len() {
        let name = match ctx.ident(i) {
            Some(n) => n,
            None => continue,
        };
        let line = ctx.code[i].line;
        if ctx.scopes.in_test(line) || is_ctor(line) {
            continue;
        }
        let method_call = |m: &str| {
            name == m
                && ctx.punct(i.wrapping_sub(1)).filter(|_| i > 0) == Some(".")
                && ctx.punct(i + 1) == Some("(")
        };
        let assoc_call = |ty: &str, m: &str| {
            name == ty && ctx.punct(i + 1) == Some("::") && ctx.ident(i + 2) == Some(m)
        };
        let flagged = if assoc_call("Vec", "new") || assoc_call("Vec", "with_capacity") {
            Some("`Vec` allocation".to_string())
        } else if assoc_call("Box", "new") {
            Some("`Box::new` allocation".to_string())
        } else if assoc_call("String", "from") {
            Some("`String` allocation".to_string())
        } else if name == "vec" && ctx.punct(i + 1) == Some("!") {
            Some("`vec!` allocation".to_string())
        } else if name == "format" && ctx.punct(i + 1) == Some("!") {
            Some("`format!` allocation".to_string())
        } else if method_call("to_vec") || method_call("to_owned") || method_call("collect") {
            Some(format!("`.{name}()` allocation"))
        } else if method_call("clone") {
            Some("`.clone()` allocation".to_string())
        } else {
            None
        };
        if let Some(what) = flagged {
            ctx.emit(
                diags,
                HOT_PATH_ALLOC,
                i,
                format!(
                    "{what} in allocation-free hot-path module (outside a constructor): \
                     reuse the scratch/workspace buffers instead"
                ),
            );
        }
    }
}

/// **hygiene** — no stray debug output from library code.
fn hygiene(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if ctx.class.is_bin || matches_any_prefix(ctx.path, &ctx.cfg.hygiene_allowed) {
        return;
    }
    for i in 0..ctx.code.len() {
        let name = match ctx.ident(i) {
            Some(n) => n,
            None => continue,
        };
        if !matches!(name, "dbg" | "println" | "eprintln" | "print" | "eprint") {
            continue;
        }
        if ctx.punct(i + 1) != Some("!") {
            continue;
        }
        let line = ctx.code[i].line;
        if ctx.scopes.in_test(line) {
            continue;
        }
        ctx.emit(
            diags,
            HYGIENE,
            i,
            format!(
                "`{name}!` in library code: emit data through reports/errors, or move \
                 presentation into the CLI layer"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// test-only-pub: the one workspace-wide rule
// ---------------------------------------------------------------------------

/// One `pub` item definition found by [`test_only_pub`].
struct PubDef<'a> {
    file: usize,
    /// Code-token index of the name; the item spans `span.0..=span.1`.
    name_tok: usize,
    span: (usize, usize),
    keyword: &'a str,
    name: &'a str,
}

/// One lexed workspace file, as [`test_only_pub`] sees it.
struct LexedFile<'a> {
    path: &'a str,
    src: &'a str,
    tokens: Vec<Token>,
    scopes: FileScopes,
    /// Indices into `tokens` of the non-comment tokens.
    code: Vec<usize>,
    /// `crates/<name>/src/…` outside a test target: defines the API.
    is_lib: bool,
    /// Every token is test code (a `tests.rs` module file).
    all_test: bool,
}

impl<'a> LexedFile<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.tokens[self.code[i]].text(self.src)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.tokens[self.code[i]].kind == TokenKind::Ident
    }

    fn in_test(&self, i: usize) -> bool {
        self.all_test || self.scopes.in_test(self.tokens[self.code[i]].line)
    }
}

/// **test-only-pub** — a `pub fn|struct|enum|trait|type|const|static` in
/// `crates/*/src`, or a `fn` declared in a `pub trait` there, whose name no
/// non-test code names.
///
/// Unlike the per-file rules this is one pass over the whole workspace:
/// `files` holds `(workspace-relative path, source)` pairs. Names are
/// collected from the non-test tokens of `crates/*/src` (a `#[cfg(test)]`/
/// `#[test]` span, a `tests.rs` file or a file that opens with
/// `#![cfg(test)]` is test code), `examples/` and
/// `wxbench/src`; every other path (integration tests, shims) is ignored.
/// An item's own span, `impl` headers and `fn name` definitions (a trait's
/// declaration, any impl of it, an unrelated function) are not uses, and
/// comments (doc links included) are not tokens, so they are not uses
/// either. A `pub use` re-export is a use. For a `fn`, more same-named
/// shapes are not uses either: a field access (`.name` not followed by `(`
/// or `::<`), a field or struct-literal key (`name:`), a module (`mod name`)
/// or path segment (`name::` without a turbofish), and a local — a name a
/// pattern binds (`let`, `for`, a `match` arm, a closure or `fn` parameter)
/// or a read of it in that binding's scope. The match is otherwise by name,
/// so it undercounts on name collisions.
/// Not suppressible inline: its sites are baselined.
pub fn test_only_pub(files: &[(String, String)]) -> Vec<Diagnostic> {
    let lexed: Vec<LexedFile<'_>> = files
        .iter()
        .filter_map(|(path, src)| {
            let is_lib = classify(path).is_some_and(|c| !c.is_test_target)
                && path.split('/').nth(2) == Some("src");
            if !is_lib && !path.starts_with("examples/") && !path.starts_with("wxbench/src/") {
                return None;
            }
            let tokens = lex(src);
            let scopes = scope::compute(&tokens, src);
            let code = (0..tokens.len())
                .filter(|&i| !tokens[i].kind.is_trivia())
                .collect();
            Some(LexedFile {
                path,
                src,
                tokens,
                scopes,
                code,
                is_lib,
                all_test: path.ends_with("/tests.rs"),
            })
        })
        .collect();

    let mut defs = Vec::new();
    for (fi, f) in lexed.iter().enumerate() {
        if f.is_lib {
            pub_defs(fi, f, &mut defs);
        }
    }
    let def_names: BTreeSet<&str> = defs.iter().map(|d| d.name).collect();
    let def_toks: BTreeSet<(usize, usize)> = defs.iter().map(|d| (d.file, d.name_tok)).collect();

    // Every counted occurrence of a defined name: (file, code index, and
    // whether the shape rules out a function).
    let mut uses: BTreeMap<&str, Vec<(usize, usize, bool)>> = BTreeMap::new();
    for (fi, f) in lexed.iter().enumerate() {
        let mut header_until = None;
        for (i, is_local) in locals(f).into_iter().enumerate() {
            if !f.is_ident(i) {
                continue;
            }
            let text = f.text(i);
            if text == "impl" && is_item_impl(f, i) {
                header_until = (i..f.code.len()).find(|&j| f.text(j) == "{");
            }
            if header_until.is_some_and(|end| i < end)
                || !def_names.contains(text)
                || def_toks.contains(&(fi, i))
                || i > 0 && f.text(i - 1) == "fn"
                || f.in_test(i)
            {
                continue;
            }
            uses.entry(text)
                .or_default()
                .push((fi, i, is_local || not_a_fn_use(f, i)));
        }
    }

    let mut diags: Vec<Diagnostic> = defs
        .iter()
        .filter(|d| {
            !uses.get(d.name).is_some_and(|occ| {
                occ.iter().any(|&(fi, i, not_fn)| {
                    !(not_fn && d.keyword == "fn") && (fi != d.file || i < d.span.0 || i > d.span.1)
                })
            })
        })
        .map(|d| {
            let f = &lexed[d.file];
            let t = &f.tokens[f.code[d.name_tok]];
            Diagnostic {
                rule: TEST_ONLY_PUB,
                file: f.path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`pub {} {}` is named by no non-test code: delete it, move it \
                     under #[cfg(test)], or baseline it as a paper statement or test seam",
                    d.keyword, d.name
                ),
            }
        })
        .collect();
    diagnostics::sort(&mut diags);
    diags
}

/// `true` when the identifier at code index `i` is a field access
/// (`.name` not followed by `(` or `::<`), a field or struct-literal key
/// (`name:`), a module (`mod name`) or a path segment before `::` other
/// than a turbofish: shapes that cannot name a function.
fn not_a_fn_use(f: &LexedFile<'_>, i: usize) -> bool {
    let at = |j: usize| (j < f.code.len()).then(|| f.text(j));
    let prev = i.checked_sub(1).and_then(at);
    let next = at(i + 1);
    let turbofish = next == Some("::") && at(i + 2) == Some("<");
    let called = next == Some("(") || turbofish;
    prev == Some(".") && !called
        || next == Some(":")
        || prev == Some("mod")
        || next == Some("::") && !turbofish
}

/// `true` when the `impl` at code index `i` starts an item, not an
/// `impl Trait` type (`-> impl Fn()`, `x: impl Iterator`).
fn is_item_impl(f: &LexedFile<'_>, i: usize) -> bool {
    i == 0 || matches!(f.text(i - 1), "}" | ";" | "]" | "{" | "unsafe")
}

/// Collects the non-test `pub` item definitions of one library file, and
/// the `fn`s declared in each `pub trait`.
fn pub_defs<'a>(fi: usize, f: &LexedFile<'a>, defs: &mut Vec<PubDef<'a>>) {
    const KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];
    let n = f.code.len();
    for start in 0..n {
        // Plain `pub` only: `pub(crate)` is not public API.
        if f.text(start) != "pub" || !f.is_ident(start) || f.in_test(start) {
            continue;
        }
        let mut i = start + 1;
        while i < n && matches!(f.text(i), "unsafe" | "async" | "extern" | "mut")
            || i + 1 < n && f.text(i) == "const" && matches!(f.text(i + 1), "fn" | "unsafe")
            || i < n && f.tokens[f.code[i]].kind == TokenKind::StrLit
        {
            i += 1;
        }
        if i + 1 >= n || !KEYWORDS.contains(&f.text(i)) {
            continue;
        }
        let keyword = f.text(i);
        let mut name_tok = i + 1;
        if keyword == "static" && f.text(name_tok) == "mut" {
            name_tok += 1;
        }
        if name_tok >= n || !f.is_ident(name_tok) {
            continue;
        }
        let braced = matches!(keyword, "fn" | "struct" | "enum" | "trait");
        let end = item_end(f, name_tok + 1, braced);
        defs.push(PubDef {
            file: fi,
            name_tok,
            span: (start, end),
            keyword,
            name: f.text(name_tok).trim_start_matches("r#"),
        });
        if keyword == "trait" {
            let mut depth = 0i32;
            for j in name_tok + 1..end {
                match f.text(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "fn" if depth == 1 && f.is_ident(j + 1) && !f.in_test(j) => {
                        defs.push(PubDef {
                            file: fi,
                            name_tok: j + 1,
                            span: (j, item_end(f, j + 2, true)),
                            keyword: "fn",
                            name: f.text(j + 1).trim_start_matches("r#"),
                        });
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The code index where an item whose body starts at or after `from` ends:
/// its `;` or, for braced kinds, the `}` that closes its first top-level
/// brace.
fn item_end(f: &LexedFile<'_>, from: usize, braced: bool) -> usize {
    let mut depth = 0i32;
    for j in from..f.code.len() {
        match f.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 && braced && f.text(j) == "}" {
                    return j;
                }
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    f.code.len() - 1
}

/// Per code index, `true` for an identifier that is a local: a name bound
/// by a pattern, or a bare read of that name (not `.name`, `name::`,
/// `::name` or `name!`) inside the binding's scope. The patterns are those
/// of `let` (scope: the rest of the enclosing block), `if let`/`while let`
/// (the block they guard), `for` (the loop body), `match` arms (the arm),
/// closure parameters (the closure body) and `fn` parameters (the body).
fn locals(f: &LexedFile<'_>) -> Vec<bool> {
    let n = f.code.len();
    let text = |j: usize| if j < n { f.text(j) } else { "" };
    // `close[j]`/`opener[j]`: the closer/opener matching the bracket at
    // `j`; `open[j]`: the innermost opener enclosing `j`.
    let mut close = vec![n; n];
    let mut opener = vec![n; n];
    let mut open = vec![None; n];
    let mut stack = Vec::new();
    for j in 0..n {
        open[j] = stack.last().copied();
        match text(j) {
            "(" | "[" | "{" => stack.push(j),
            ")" | "]" | "}" => {
                if let Some(o) = stack.pop() {
                    close[o] = j;
                    opener[j] = o;
                }
            }
            _ => {}
        }
    }
    // The first index from `from` on, outside nested groups, whose token is
    // in `stops`, or the unmatched closer (or `n`) that ends the search.
    let find = |from: usize, stops: &[&str]| {
        let mut j = from;
        while j < n && !stops.contains(&text(j)) {
            match text(j) {
                "(" | "[" | "{" => j = close[j],
                ")" | "]" | "}" => return j,
                _ => {}
            }
            j += 1;
        }
        j
    };
    let block_end = |from: usize| {
        let b = find(from, &["{", ";"]);
        (text(b) == "{").then(|| close[b].min(n - 1))
    };

    let mut scopes: Vec<(&str, usize, usize)> = Vec::new();
    let mut bind = |from: usize, to: usize, scope: (usize, usize)| {
        for j in from..to {
            let t = text(j);
            let binds = f.is_ident(j)
                && t.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                && !matches!(t, "mut" | "ref" | "box" | "self" | "true" | "false" | "_")
                && !matches!(text(j.wrapping_sub(1)), "::" | "." | "$")
                && !matches!(text(j + 1), "::" | "(" | "{" | "!")
                && (text(j + 1) != ":" || j + 1 == to);
            if binds {
                scopes.push((t, scope.0, scope.1));
            }
        }
    };
    for i in 0..n {
        match text(i) {
            "let" => {
                let pat_end = find(i + 1, &["=", ":", ";"]);
                let scope_end = if matches!(text(i.wrapping_sub(1)), "if" | "while" | "&&") {
                    block_end(pat_end)
                } else {
                    Some(open[i].map_or(n - 1, |o| close[o].min(n - 1)))
                };
                if let Some(end) = scope_end {
                    bind(i + 1, pat_end, (i, end));
                }
            }
            "for" => {
                let in_tok = find(i + 1, &["in", "{", ";"]);
                if text(in_tok) == "in" {
                    if let Some(end) = block_end(in_tok) {
                        bind(i + 1, in_tok, (i, end));
                    }
                }
            }
            "=>" => {
                // Walk back over the pattern to the arm's start: the `,`
                // or opener before it, or the `}` of a previous block arm.
                let mut start = i;
                while start > 0 {
                    start -= 1;
                    match text(start) {
                        "," | "(" | "[" | "{" => break,
                        ")" | "]" | "}" if text(opener[start].wrapping_sub(1)) == "=>" => break,
                        ")" | "]" | "}" => start = opener[start],
                        "=>" | ";" => {
                            start = i;
                            break;
                        }
                        _ => {}
                    }
                }
                let end = if text(i + 1) == "{" {
                    close[i + 1]
                } else {
                    find(i + 1, &[","])
                };
                let guard = find(start + 1, &["if", "=>"]);
                bind(start + 1, guard, (start + 1, end.min(n - 1)));
            }
            "|" if matches!(
                text(i.wrapping_sub(1)),
                "(" | "," | "=" | "move" | "{" | ";" | "=>" | "return" | "["
            ) =>
            {
                let bar = find(i + 1, &["|"]);
                if text(bar) != "|" {
                    continue;
                }
                let end = match text(bar + 1) {
                    "->" => block_end(bar + 1),
                    "{" => Some(close[bar + 1]),
                    _ => Some(find(bar + 1, &[",", ";"]) - 1),
                };
                if let Some(end) = end {
                    params(f, i + 1, bar, &mut |from, to| bind(from, to, (i, end)));
                }
            }
            "fn" if f.is_ident(i + 1) => {
                let Some(paren) = fn_params(f, i + 2) else {
                    continue;
                };
                if let Some(end) = block_end(close[paren] + 1) {
                    params(f, paren + 1, close[paren], &mut |from, to| {
                        bind(from, to, (paren, end))
                    });
                }
            }
            _ => {}
        }
    }

    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (name, from, to) in scopes {
        by_name.entry(name).or_default().push((from, to));
    }
    (0..n)
        .map(|j| {
            f.is_ident(j)
                && !matches!(text(j.wrapping_sub(1)), "." | "::")
                && !matches!(text(j + 1), "::" | "!")
                && by_name
                    .get(text(j))
                    .is_some_and(|s| s.iter().any(|&(from, to)| from <= j && j <= to))
        })
        .collect()
}

/// Calls `each(from, to)` with the pattern range of every `pattern: Type`
/// parameter between code indices `from` and `to`.
fn params(f: &LexedFile<'_>, from: usize, to: usize, each: &mut dyn FnMut(usize, usize)) {
    // brackets, and angle brackets once inside a type
    let mut depth = 0i32;
    let mut piece = from;
    let mut colon = None;
    for j in from..=to {
        let t = if j < to { f.text(j) } else { "," };
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" if colon.is_some() => depth += 1,
            ">" if colon.is_some() => depth -= 1,
            ">>" if colon.is_some() => depth -= 2,
            ":" if depth == 0 && colon.is_none() => colon = Some(j),
            "," if depth == 0 => {
                each(piece, colon.unwrap_or(j));
                piece = j + 1;
                colon = None;
            }
            _ => {}
        }
    }
}

/// The `(` that opens the parameter list of a `fn` whose generics, if any,
/// start at code index `from`.
fn fn_params(f: &LexedFile<'_>, from: usize) -> Option<usize> {
    let mut angle = 0i32;
    for j in from..f.code.len() {
        match f.text(j) {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "(" if angle == 0 => return Some(j),
            _ if angle == 0 => return None,
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// wx-allow suppressions
// ---------------------------------------------------------------------------

struct Suppression {
    rules: Vec<String>,
    /// Line the suppression applies to (its own line, or the next code line
    /// for a standalone comment).
    target_line: u32,
    /// Where the comment itself sits (for unused-allow diagnostics).
    line: u32,
    col: u32,
    used: bool,
}

/// Parses every `wx-allow` comment, returning the valid suppressions and the
/// diagnostics for malformed ones.
fn parse_suppressions(
    rel_path: &str,
    tokens: &[Token],
    src: &str,
) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if !t.kind.is_trivia() {
            continue;
        }
        let body = t
            .text(src)
            .trim_start_matches("//")
            .trim_start_matches("/*")
            .trim_end_matches("*/")
            .trim();
        let Some(rest) = body.strip_prefix("wx-allow") else {
            continue;
        };
        // Prose that merely *mentions* wx-allow is not a directive: the
        // marker is only live when a `(` follows immediately.
        let Some(rest) = rest.strip_prefix('(') else {
            continue;
        };
        let bad = |msg: String| Diagnostic {
            rule: BAD_ALLOW,
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            message: msg,
        };
        let Some((ids, rest)) = rest.split_once(')') else {
            diags.push(bad("malformed wx-allow: missing `)`".into()));
            continue;
        };
        let rules: Vec<String> = ids
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            diags.push(bad("wx-allow names no rule id".into()));
            continue;
        }
        let unknown: Vec<&String> = rules
            .iter()
            .filter(|r| !SUPPRESSIBLE.contains(&r.as_str()))
            .collect();
        if let Some(u) = unknown.first() {
            diags.push(bad(format!(
                "wx-allow names unknown or unsuppressible rule `{u}` \
                 (see `wx-analyze --list-rules`)"
            )));
            continue;
        }
        let reason = rest.trim_start().strip_prefix(':').map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => {}
            _ => {
                diags.push(bad(
                    "wx-allow requires a reason: `wx-allow(rule-id): why this is sound`".into(),
                ));
                continue;
            }
        }
        // Standalone comment (nothing but trivia before it on its line)
        // targets the next code line; a trailing comment targets its own.
        let standalone = !tokens[..idx]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| !p.kind.is_trivia());
        let target_line = if standalone {
            tokens[idx + 1..]
                .iter()
                .find(|n| !n.kind.is_trivia())
                .map(|n| n.line)
                .unwrap_or(t.line)
        } else {
            t.line
        };
        sups.push(Suppression {
            rules,
            target_line,
            line: t.line,
            col: t.col,
            used: false,
        });
    }
    (sups, diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze_source(path, src, &Config::workspace())
    }

    #[test]
    fn seed_arithmetic_is_flagged_and_derive_seed_is_exempt() {
        let src = "pub fn derive_seed(parent: u64, stream: u64) -> u64 {\n\
                   \x20   parent.wrapping_add(stream)\n\
                   }\n\
                   pub fn bad(seed: u64, i: u64) -> u64 {\n\
                   \x20   seed + i\n\
                   }\n";
        let d = run("crates/graph/src/random.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, SEED_DISCIPLINE);
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn seed_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(seed: u64) -> u64 { seed + 1 }\n}\n";
        assert!(run("crates/graph/src/random.rs", src).is_empty());
    }

    #[test]
    fn trailing_wx_allow_suppresses_and_must_be_used() {
        let src = "fn f(seed: u64) -> u64 {\n\
                   \x20   seed + 1 // wx-allow(seed-discipline): proven disjoint streams\n\
                   }\n";
        assert!(run("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn standalone_wx_allow_targets_next_line() {
        let src = "fn f(seed: u64) -> u64 {\n\
                   \x20   // wx-allow(seed-discipline): proven disjoint streams\n\
                   \x20   seed + 1\n\
                   }\n";
        assert!(run("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wx_allow_without_reason_is_bad_allow() {
        let src = "fn f(seed: u64) -> u64 {\n    seed + 1 // wx-allow(seed-discipline)\n}\n";
        let d = run("crates/graph/src/lib.rs", src);
        assert!(d.iter().any(|d| d.rule == BAD_ALLOW), "{d:?}");
        // the violation itself still stands
        assert!(d.iter().any(|d| d.rule == SEED_DISCIPLINE));
    }

    #[test]
    fn unused_wx_allow_is_flagged() {
        let src = "fn f() {} // wx-allow(hygiene): nothing here\n";
        let d = run("crates/graph/src/lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNUSED_ALLOW);
    }

    #[test]
    fn hash_container_flagged_outside_use() {
        let src = "use std::collections::HashMap;\n\
                   fn f() -> Vec<u32> {\n\
                   \x20   let m: HashMap<u32, u32> = HashMap::default();\n\
                   \x20   m.keys().copied().collect()\n\
                   }\n";
        let d = run("crates/expansion/src/sampling.rs", src);
        // one per line (the two mentions on line 3 dedupe)
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, DETERMINISM);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn wall_clock_allowed_only_in_the_sanctioned_clock() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(run("crates/trace/src/clock.rs", src).is_empty());
        // no carve-out for the experiment harnesses: their text is report
        // bytes, so wall-clock may not reach it
        let d = run("crates/lab/src/experiments/e7.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, DETERMINISM);
        let d = run("crates/radio/src/simulator.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, DETERMINISM);
    }

    #[test]
    fn panic_freedom_spares_bins_and_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(run("crates/lab/src/runner.rs", src).len(), 1);
        assert!(run("crates/lab/src/bin/wx.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod t {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(run("crates/lab/src/runner.rs", test_src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(run("crates/lab/src/runner.rs", src).is_empty());
    }

    #[test]
    fn hot_path_allows_ctors_only() {
        let src = "impl S {\n\
                   \x20   pub fn new(n: usize) -> S {\n\
                   \x20       S { v: vec![0; n] }\n\
                   \x20   }\n\
                   \x20   pub fn step(&mut self) -> Vec<u32> {\n\
                   \x20       self.v.to_vec()\n\
                   \x20   }\n\
                   }\n";
        let d = run("crates/graph/src/scratch.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, HOT_PATH_ALLOC);
        assert_eq!(d[0].line, 6);
        // same file outside the hot-path list: clean
        assert!(run("crates/graph/src/csr.rs", src).is_empty());
    }

    #[test]
    fn hygiene_flags_prints_in_library_code() {
        let src = "fn f() { println!(\"x\"); dbg!(3); }\n";
        let d = run("crates/radio/src/simulator.rs", src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == HYGIENE));
        // the CLI layer is configured out
        assert!(run("crates/lab/src/cli.rs", src).is_empty());
        assert!(run("crates/lab/src/bin/wx.rs", src).is_empty());
    }

    #[test]
    fn test_targets_are_fully_exempt() {
        let src = "fn f(x: Option<u32>, seed: u64) { x.unwrap(); let _ = seed + 1; println!(); }\n";
        assert!(run("crates/graph/tests/properties.rs", src).is_empty());
    }
}

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
/// Meta rule: malformed `wx-allow` comment.
pub const BAD_ALLOW: &str = "bad-allow";
/// Meta rule: a `wx-allow` that suppresses nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Every rule id, in catalog order.
pub const ALL_RULES: &[&str] = &[
    SEED_DISCIPLINE,
    DETERMINISM,
    PANIC_FREEDOM,
    HOT_PATH_ALLOC,
    HYGIENE,
    BAD_ALLOW,
    UNUSED_ALLOW,
];

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
/// `wrapping_*` method forms). PR 4's sampler bug — `1000 + fi*131 + t`
/// collapsing seed streams — is the motivating instance.
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
                     `derive_seed(parent, stream)` instead (ad-hoc offsets collide, \
                     cf. the PR 4 sampler bug)"
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
        let d = run("crates/bench/src/experiments/e7.rs", src);
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

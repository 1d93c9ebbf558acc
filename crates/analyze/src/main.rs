//! The `wx-analyze` CLI.
//!
//! ```text
//! wx-analyze [--root PATH] [--baseline PATH] [--format human|json]
//!            [--check | --bless | --list-rules]
//! ```
//!
//! * default — print every current violation (ignoring the baseline);
//!   exit 1 if any.
//! * `--check` — compare against the committed baseline; exit 1 on any
//!   *new* violation, any *stale* baseline entry (forced ratchet-down),
//!   any `panic-freedom` entry for a panic-free crate, or any
//!   malformed/unused `wx-allow`.
//! * `--bless` — regenerate the baseline from the current violations;
//!   refused while a panic-free crate has a `panic-freedom` violation.
//! * `--list-rules` — print the rule catalog.

use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;
use wx_analyze::{analyze_workspace, Baseline, Config, Diagnostic};

const DEFAULT_BASELINE: &str = "analyze-baseline.json";

enum Mode {
    Report,
    Check,
    Bless,
    ListRules,
}

enum Format {
    Human,
    Json,
}

struct Args {
    root: PathBuf,
    baseline: PathBuf,
    mode: Mode,
    format: Format,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut mode = Mode::Report;
    let mut format = Format::Human;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => mode = Mode::Check,
            "--bless" => mode = Mode::Bless,
            "--list-rules" => mode = Mode::ListRules,
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => return Err(format!("--format must be human|json, got {other:?}")),
            },
            "--help" | "-h" => return Err(USAGE.trim_end().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let baseline = baseline.unwrap_or_else(|| root.join(DEFAULT_BASELINE));
    Ok(Args {
        root,
        baseline,
        mode,
        format,
    })
}

const USAGE: &str = "\
usage: wx-analyze [--root PATH] [--baseline PATH] [--format human|json]
                  [--check | --bless | --list-rules]
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("wx-analyze: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if let Mode::ListRules = args.mode {
        print_rule_catalog();
        return Ok(ExitCode::SUCCESS);
    }
    let cfg = Config::workspace();
    if !args.root.join("crates").is_dir() {
        return Err(format!(
            "{} has no crates/ directory — pass the workspace root via --root",
            args.root.display()
        ));
    }
    let diags = analyze_workspace(&args.root, &cfg)?;
    match args.mode {
        Mode::Report => {
            match args.format {
                Format::Human => {
                    for d in &diags {
                        println!("{}", d.render());
                    }
                    println!(
                        "wx-analyze: {} violation(s) across the workspace (baseline ignored)",
                        diags.len()
                    );
                }
                Format::Json => print_json_report(&diags, &[]),
            }
            Ok(exit_if(diags.is_empty()))
        }
        Mode::Bless => {
            let meta: Vec<&Diagnostic> = diags.iter().filter(|d| is_meta(d)).collect();
            if !meta.is_empty() {
                for d in &meta {
                    eprintln!("{}", d.render());
                }
                return Err(format!(
                    "{} malformed/unused wx-allow comment(s) — fix them before blessing",
                    meta.len()
                ));
            }
            let baseline = Baseline::from_diagnostics(&diags);
            let refused = baseline.refused(&cfg);
            if !refused.is_empty() {
                for e in &refused {
                    eprintln!("{}", e.render());
                }
                return Err(format!(
                    "{} file(s) of a panic-free crate panic — fix them before blessing",
                    refused.len()
                ));
            }
            std::fs::write(&args.baseline, baseline.to_json())
                .map_err(|e| format!("writing {}: {e}", args.baseline.display()))?;
            println!(
                "wx-analyze: blessed {} baselined violation(s) across {} (rule, file) pair(s) \
                 into {}",
                baseline.entries.values().sum::<u64>(),
                baseline.entries.len(),
                args.baseline.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        Mode::Check => {
            let text = std::fs::read_to_string(&args.baseline).map_err(|e| {
                format!(
                    "reading baseline {}: {e} (run `wx-analyze --bless` to create it)",
                    args.baseline.display()
                )
            })?;
            let baseline = Baseline::parse(&text)
                .map_err(|e| format!("parsing {}: {e}", args.baseline.display()))?;
            let mut ratchet = baseline.compare(&diags);
            ratchet.extend(baseline.refused(&cfg));
            let meta: Vec<&Diagnostic> = diags.iter().filter(|d| is_meta(d)).collect();
            let failing = !ratchet.is_empty() || !meta.is_empty();
            match args.format {
                Format::Human => {
                    for e in &ratchet {
                        println!("{}", e.render());
                    }
                    for d in &meta {
                        println!("{}", d.render());
                    }
                    // Show the concrete diagnostics behind every NEW entry so
                    // the offending file:line is one click away.
                    for e in &ratchet {
                        if let wx_analyze::RatchetError::New { rule, file, .. } = e {
                            for d in diags.iter().filter(|d| d.rule == *rule && &d.file == file) {
                                println!("  {}", d.render());
                            }
                        }
                    }
                    let baselined: u64 = baseline.entries.values().sum();
                    if failing {
                        println!("wx-analyze --check: FAILED");
                    } else {
                        println!(
                            "wx-analyze --check: OK ({} violation(s) currently baselined)",
                            baselined
                        );
                    }
                }
                Format::Json => {
                    let new_diags: Vec<Diagnostic> = diags
                        .iter()
                        .filter(|d| {
                            is_meta(d)
                                || ratchet.iter().any(|e| {
                                    matches!(e, wx_analyze::RatchetError::New { rule, file, .. }
                                        if d.rule == *rule && &d.file == file)
                                })
                        })
                        .cloned()
                        .collect();
                    print_json_report(&new_diags, &ratchet);
                }
            }
            Ok(exit_if(!failing))
        }
        Mode::ListRules => unreachable!("handled above"),
    }
}

fn is_meta(d: &Diagnostic) -> bool {
    d.rule == wx_analyze::rules::BAD_ALLOW || d.rule == wx_analyze::rules::UNUSED_ALLOW
}

fn exit_if(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--format json` document.
#[derive(Serialize)]
struct JsonReport {
    diagnostics: Vec<Diagnostic>,
    ratchet_errors: Vec<String>,
    total: usize,
}

fn print_json_report(diags: &[Diagnostic], ratchet: &[wx_analyze::RatchetError]) {
    let report = JsonReport {
        diagnostics: diags.to_vec(),
        ratchet_errors: ratchet.iter().map(|e| e.render()).collect(),
        total: diags.len(),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("wx-analyze: {e}"),
    }
}

fn print_rule_catalog() {
    println!("wx-analyze rule catalog (see crates/analyze/RULES.md):");
    println!();
    println!("  seed-discipline   arithmetic on seed values outside derive_seed");
    println!("  determinism       HashMap/HashSet in report-producing crates; Instant::now/");
    println!("                    SystemTime outside wx_trace::clock; thread_rng anywhere");
    println!("  panic-freedom     unwrap/expect/panic!/unreachable!/todo! in library code");
    println!("  hot-path-alloc    allocation in the allocation-free hot-path modules");
    println!("  hygiene           dbg!/println!/eprintln! in library code");
    println!("  test-only-pub     pub item in crates/*/src that no non-test code names");
    println!("                    (workspace pass; uses from examples/ and wxbench/src count)");
    println!("  bad-allow         malformed wx-allow comment (meta, not suppressible)");
    println!("  unused-allow      wx-allow that suppresses nothing (meta, not suppressible)");
    println!();
    println!("suppress with: // wx-allow(rule-id): reason   (reason mandatory)");
}

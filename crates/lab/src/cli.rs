//! The `wx` command-line interface.
//!
//! ```text
//! wx run <scenario.json> [--out PATH] [--sequential] [--trace PATH]
//! wx measure   --source SRC --notion ordinary|unique|wireless [--alpha F]
//!              [--exact-up-to N] [--fast] [--trials N] [--seed N] [--out PATH]
//! wx profile   --source SRC [--alpha F] [--exact-up-to N] [--fast]
//!              [--trace PATH] [--folded PATH] [...]
//! wx spokesman --source SRC --set-size N [--solvers a,b,c] [...]
//! wx radio     --source SRC --protocol NAME [--source-vertex V]
//!              [--max-rounds N] [...]
//! wx sweep     (--all | NAME...) [--quick] [--seed N] [--out PATH]
//! wx convert   <input.edges|.col> <output.wxg> [--chunk-capacity EDGES]
//! wx list
//! wx validate <report.json | trace.json>
//! ```
//!
//! `SRC` is either inline JSON (`'{"RandomRegular": {"n": 64, "d": 4}}'`) or
//! a graph file path (extension picks edge-list vs DIMACS vs mmap-served
//! `.wxg` — build the latter with `wx convert`). The ad-hoc
//! subcommands (`measure`/`profile`/`spokesman`/`radio`) are sugar: each
//! assembles a [`ScenarioSpec`] and feeds it to the same [`Runner`] that
//! `wx run` uses, so a flag combination can always be frozen into a JSON
//! file later.
//!
//! Reports go to `--out` as pretty JSON (stdout when absent); the human
//! summary table goes to stderr so stdout stays machine-readable. Exit
//! codes: 0 success, 1 runtime/sweep failure, 2 usage error.
//!
//! Observability: `--trace PATH` (on `wx run` and `wx profile`) records the
//! run through [`wx_core::trace`] and writes Chrome trace-event JSON that
//! Perfetto / `chrome://tracing` load directly; `wx profile` additionally
//! prints a wall-clock phase-time table and, with `--folded PATH`, emits
//! folded stacks for `flamegraph.pl`. Tracing never changes report bytes —
//! the deterministic `telemetry` section is always present.

use crate::error::{LabError, Result};
use crate::registry;
use crate::runner::{Runner, ScenarioReport};
use crate::source::GraphSource;
use crate::spec::{ScenarioSpec, Task};
use wx_core::expansion::engine::NotionKind;
use wx_core::radio::protocols::ProtocolKind;
use wx_core::spokesman::SolverKind;

/// Entry point used by the `wx` binary: parses `args` (without the program
/// name) and returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wx: {e}");
            match e {
                LabError::InvalidSpec(_) | LabError::Json { .. } => 2,
                _ => 1,
            }
        }
    }
}

fn dispatch(args: &[String]) -> Result<i32> {
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return Ok(2);
    };
    match command.as_str() {
        "run" => cmd_run(rest),
        "measure" | "profile" | "spokesman" | "radio" => cmd_adhoc(command, rest),
        "sweep" => cmd_sweep(rest),
        "convert" => cmd_convert(rest),
        "list" => cmd_list(),
        "validate" => cmd_validate(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(0)
        }
        other => Err(LabError::invalid(format!(
            "unknown command `{other}` (try `wx help`)"
        ))),
    }
}

/// The top-level help text.
pub fn usage() -> &'static str {
    "wx — declarative scenario lab for the wireless-expanders reproduction

USAGE:
  wx run <scenario.json> [--out PATH] [--sequential] [--trace PATH]
  wx measure   --source SRC --notion ordinary|unique|wireless [--alpha F]
               [--exact-up-to N] [--fast] [--trials N] [--seed N] [--out PATH]
  wx profile   --source SRC [--alpha F] [--exact-up-to N] [--fast]
               [--trace PATH] [--folded PATH] [...]
  wx spokesman --source SRC --set-size N [--solvers a,b,c] [...]
  wx radio     --source SRC --protocol NAME [--source-vertex V]
               [--max-rounds N] [...]
  wx sweep     (--all | NAME...) [--quick] [--seed N] [--out PATH]
  wx convert   <input.edges|.col> <output.wxg> [--chunk-capacity EDGES]
  wx list
  wx validate <report.json | trace.json>

SRC is inline JSON like '{\"RandomRegular\": {\"n\": 64, \"d\": 4}}' or a
graph file path (.edges/.txt = edge list, .col/.dimacs/.clq = DIMACS,
.wxg = out-of-core CSR image served through a read-only memory map).
`wx convert` builds a `.wxg` from a text graph file with a
bounded-memory external sort, so SNAP-scale corpora convert without
materializing in RAM (--chunk-capacity caps the in-memory run size, in
edges). `wx sweep --all` reproduces every registered paper experiment
(e1..e11) plus the demo scenarios; `wx list` shows everything available. `--trace PATH` writes a Chrome
trace-event JSON (load in Perfetto); `wx profile` prints a phase-time
table and `--folded PATH` emits folded stacks for flamegraphs. Tracing
never changes report bytes. `wx validate` checks reports and traces."
}

/// A tiny flag parser: consumes `--flag value` pairs and boolean flags from
/// an argument list, leaving positional arguments behind. Public so the
/// `wx-serve` front end parses its own subcommands with identical
/// semantics and error shapes.
pub struct Flags {
    rest: Vec<String>,
}

impl Flags {
    /// Wraps an argument list for flag extraction.
    pub fn new(args: &[String]) -> Flags {
        Flags {
            rest: args.to_vec(),
        }
    }

    /// Removes `--name <value>` and returns the value. A following token
    /// that is itself a `--flag` counts as a missing value, not a value, so
    /// `--out --sequential` errors instead of writing to `--sequential`.
    pub fn take_value(&mut self, name: &str) -> Result<Option<String>> {
        if let Some(i) = self.rest.iter().position(|a| a == name) {
            match self.rest.get(i + 1) {
                None => Err(LabError::invalid(format!("{name} needs a value"))),
                Some(next) if next.starts_with("--") => Err(LabError::invalid(format!(
                    "{name} needs a value, found flag `{next}`"
                ))),
                Some(_) => {
                    let value = self.rest.remove(i + 1);
                    self.rest.remove(i);
                    Ok(Some(value))
                }
            }
        } else {
            Ok(None)
        }
    }

    /// Removes `--name <value>` and parses it.
    pub fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>> {
        match self.take_value(name)? {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| LabError::invalid(format!("{name}: cannot parse `{raw}`"))),
        }
    }

    /// Removes a boolean `--name` flag.
    pub fn take_flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(i);
            true
        } else {
            false
        }
    }

    /// The remaining positional arguments; errors on leftover `--flags`.
    pub fn finish(self) -> Result<Vec<String>> {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(LabError::invalid(format!("unknown flag `{flag}`")));
        }
        Ok(self.rest)
    }

    /// Like [`Flags::finish`] but for commands that take no positionals:
    /// any leftover argument is an error rather than silently ignored.
    pub fn finish_no_positionals(self) -> Result<()> {
        let rest = self.finish()?;
        if let Some(arg) = rest.first() {
            return Err(LabError::invalid(format!(
                "unexpected argument `{arg}` (flags start with --)"
            )));
        }
        Ok(())
    }
}

/// Parses a `--source` value: inline JSON or a graph file path.
fn parse_source(raw: &str) -> Result<GraphSource> {
    if raw.trim_start().starts_with('{') {
        serde_json::from_str(raw).map_err(|e| LabError::json("inline --source", e))
    } else {
        Ok(GraphSource::from_file_path(raw))
    }
}

/// Shared report output: JSON to `--out` (or stdout), summary to stderr.
fn emit_report(report: &ScenarioReport, out: Option<&str>) -> Result<()> {
    let json = report.to_json();
    match out {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| LabError::Io(format!("writing {path}: {e}")))?;
            eprintln!("report written to {path}");
        }
        None => println!("{json}"),
    }
    eprintln!("{}", report.summary_table());
    Ok(())
}

/// Runs a spec with the tracer enabled for the whole run, then exports
/// the drained trace: Chrome trace-event JSON to `chrome_out`, folded
/// stacks to `folded_out`, and (for `wx profile`) a wall-clock
/// phase-time table to stderr. The report itself is unaffected —
/// tracing never changes report bytes.
fn run_traced(
    runner: &Runner,
    spec: &ScenarioSpec,
    chrome_out: Option<&str>,
    folded_out: Option<&str>,
    phase_times: bool,
) -> Result<ScenarioReport> {
    use wx_core::report::{fmt_f64, render_table, TableRow};
    let _session = wx_core::trace::exclusive();
    wx_core::trace::enable();
    let _ = wx_core::trace::take_trace();
    let run_result = runner.run(spec);
    wx_core::trace::disable();
    let trace = wx_core::trace::take_trace();
    let report = run_result?;
    if let Some(path) = chrome_out {
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| LabError::Io(format!("writing {path}: {e}")))?;
        eprintln!(
            "chrome trace written to {path} ({} spans, {} events; load in Perfetto)",
            trace.spans.len(),
            trace.events.len()
        );
    }
    if let Some(path) = folded_out {
        std::fs::write(path, trace.folded())
            .map_err(|e| LabError::Io(format!("writing {path}: {e}")))?;
        eprintln!("folded stacks written to {path} (feed to flamegraph.pl)");
    }
    if phase_times {
        let rows: Vec<TableRow> = trace
            .phase_table()
            .into_iter()
            .map(|(name, count, seconds)| {
                TableRow::new(name, vec![count.to_string(), fmt_f64(seconds)])
            })
            .collect();
        eprintln!(
            "{}",
            render_table(
                "phase times (wall-clock, merged across threads)",
                &["span", "count", "total_s"],
                &rows,
            )
        );
    }
    Ok(report)
}

fn cmd_run(args: &[String]) -> Result<i32> {
    let mut flags = Flags::new(args);
    let out = flags.take_value("--out")?;
    let trace_out = flags.take_value("--trace")?;
    let sequential = flags.take_flag("--sequential");
    let positional = flags.finish()?;
    let [path] = positional.as_slice() else {
        return Err(LabError::invalid(
            "usage: wx run <scenario.json> [--out PATH] [--trace PATH]",
        ));
    };
    let spec = ScenarioSpec::from_file(path)?;
    let runner = if sequential {
        Runner::new().sequential()
    } else {
        Runner::new()
    };
    let report = match trace_out.as_deref() {
        Some(trace_path) => run_traced(&runner, &spec, Some(trace_path), None, false)?,
        None => runner.run(&spec)?,
    };
    emit_report(&report, out.as_deref())?;
    Ok(0)
}

/// Assembles a spec from ad-hoc `wx measure|profile|spokesman|radio` flags
/// and runs it through the same runner `wx run` uses.
fn cmd_adhoc(command: &str, args: &[String]) -> Result<i32> {
    let mut flags = Flags::new(args);
    let source = parse_source(&flags.take_value("--source")?.ok_or_else(|| {
        LabError::invalid(format!("wx {command} requires --source (see `wx help`)"))
    })?)?;
    let trials = flags.take_parsed::<usize>("--trials")?.unwrap_or(1);
    let seed = flags.take_parsed::<u64>("--seed")?.unwrap_or(0);
    let out = flags.take_value("--out")?;
    let trace_out = flags.take_value("--trace")?;
    let sequential = flags.take_flag("--sequential");
    let name = flags
        .take_value("--name")?
        .unwrap_or_else(|| format!("adhoc-{command}"));

    let mut folded_out = None;
    let task = match command {
        "measure" => {
            let notion_raw = flags.take_value("--notion")?.ok_or_else(|| {
                LabError::invalid("wx measure requires --notion ordinary|unique|wireless")
            })?;
            let notion = NotionKind::parse(&notion_raw)
                .ok_or_else(|| LabError::invalid(format!("unknown notion `{notion_raw}`")))?;
            Task::Measure {
                notion,
                alpha: flags.take_parsed("--alpha")?,
                exact_up_to: flags.take_parsed("--exact-up-to")?,
                fast: flags.take_flag("--fast").then_some(true),
            }
        }
        "profile" => {
            folded_out = flags.take_value("--folded")?;
            Task::Profile {
                alpha: flags.take_parsed("--alpha")?,
                exact_up_to: flags.take_parsed("--exact-up-to")?,
                fast: flags.take_flag("--fast").then_some(true),
            }
        }
        "spokesman" => {
            let set_size = flags
                .take_parsed::<usize>("--set-size")?
                .ok_or_else(|| LabError::invalid("wx spokesman requires --set-size N"))?;
            let solvers = match flags.take_value("--solvers")? {
                None => None,
                Some(raw) => Some(
                    raw.split(',')
                        .map(|s| {
                            SolverKind::parse(s.trim())
                                .ok_or_else(|| LabError::invalid(format!("unknown solver `{s}`")))
                        })
                        .collect::<Result<Vec<_>>>()?,
                ),
            };
            Task::Spokesman { set_size, solvers }
        }
        "radio" => {
            let proto_raw = flags
                .take_value("--protocol")?
                .ok_or_else(|| LabError::invalid("wx radio requires --protocol NAME"))?;
            let protocol = ProtocolKind::parse(&proto_raw)
                .ok_or_else(|| LabError::invalid(format!("unknown protocol `{proto_raw}`")))?;
            Task::Radio {
                protocol,
                source_vertex: flags.take_parsed("--source-vertex")?,
                max_rounds: flags.take_parsed("--max-rounds")?,
            }
        }
        other => {
            return Err(LabError::invalid(format!(
                "unknown ad-hoc command `{other}` (expected measure|profile|spokesman|radio)"
            )))
        }
    };
    flags.finish_no_positionals()?;

    let spec = ScenarioSpec {
        name,
        description: format!("ad-hoc `wx {command}` invocation"),
        source,
        task,
        trials,
        seed,
    };
    let runner = if sequential {
        Runner::new().sequential()
    } else {
        Runner::new()
    };
    // `wx profile` always traces (it exists to show where time goes);
    // the other ad-hoc commands trace only when `--trace` asks for it.
    let report = if command == "profile" || trace_out.is_some() {
        run_traced(
            &runner,
            &spec,
            trace_out.as_deref(),
            folded_out.as_deref(),
            command == "profile",
        )?
    } else {
        runner.run(&spec)?
    };
    emit_report(&report, out.as_deref())?;
    Ok(0)
}

fn cmd_sweep(args: &[String]) -> Result<i32> {
    let mut flags = Flags::new(args);
    let all = flags.take_flag("--all");
    let quick = flags.take_flag("--quick");
    let seed = flags.take_parsed::<u64>("--seed")?.unwrap_or(0xE0);
    let out = flags.take_value("--out")?;
    let names = flags.finish()?;
    if all && !names.is_empty() {
        return Err(LabError::invalid(
            "pass either --all or explicit scenario names, not both",
        ));
    }
    if !all && names.is_empty() {
        return Err(LabError::invalid(
            "usage: wx sweep (--all | NAME...) — see `wx list` for names",
        ));
    }
    let selection = names;
    let report = registry::run_sweep(
        &selection,
        &Runner::new(),
        registry::SweepOptions { quick, seed },
    )?;

    for entry in &report.entries {
        eprintln!(
            "[{}] {:<22} {}",
            if entry.passed { "pass" } else { "FAIL" },
            entry.name,
            entry.error.as_deref().unwrap_or(entry.title.as_str()),
        );
    }
    eprintln!("{} passed, {} failed", report.passed, report.failed);

    let json = report.to_json();
    match out.as_deref() {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| LabError::Io(format!("writing {path}: {e}")))?;
            eprintln!("sweep report written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(if report.all_passed() { 0 } else { 1 })
}

/// `wx convert`: streams a text graph file into the `.wxg` on-disk CSR
/// format through the bounded-memory external-sort builder, printing the
/// conversion statistics. The output is ready for mmap-served scenarios
/// (`wx measure --source out.wxg`, or `{"EdgeListFile": {"path": ...,
/// "mmap": true}}` in a spec).
fn cmd_convert(args: &[String]) -> Result<i32> {
    let mut flags = Flags::new(args);
    let chunk = flags.take_parsed::<usize>("--chunk-capacity")?;
    let positional = flags.finish()?;
    let [input, output] = positional.as_slice() else {
        return Err(LabError::invalid(
            "usage: wx convert <input.edges|.col> <output.wxg> [--chunk-capacity EDGES]",
        ));
    };
    let mut options = wx_core::graph::ConvertOptions::default();
    if let Some(capacity) = chunk {
        options.chunk_capacity = capacity;
    }
    let stats = wx_core::graph::convert_to_wxg(input, output, &options)?;
    eprintln!(
        "wrote {output}: {} vertices, {} unique edges ({} input edge lines), \
         {} spill chunk(s), {} bytes",
        stats.vertices, stats.edges_unique, stats.edges_in, stats.spill_chunks, stats.bytes_written
    );
    Ok(0)
}

fn cmd_list() -> Result<i32> {
    println!("built-in scenarios (run with `wx sweep NAME` or `wx sweep --all`):");
    for entry in registry::builtins() {
        let kind = match entry.kind {
            registry::BuiltinKind::Scenario(_) => "scenario",
            registry::BuiltinKind::Paper(_) => "paper",
        };
        println!("  {:<22} [{kind}] {}", entry.name, entry.title);
    }
    println!("\ngraph families (usable as --source / scenario `source`):");
    for family in wx_core::constructions::families::CATALOG {
        println!(
            "  {:<16} ({:<14}) {}{}",
            family.name,
            family.params,
            family.summary,
            if family.randomized {
                " [randomized]"
            } else {
                ""
            }
        );
    }
    println!(
        "  {:<16} ({:<14}) graph loaded from an edge-list file",
        "EdgeListFile", "path"
    );
    println!(
        "  {:<16} ({:<14}) graph loaded from a DIMACS file",
        "DimacsFile", "path"
    );
    println!("\nview backends (zero-copy / implicit sources):");
    println!(
        "  {:<16} ({:<14}) out-of-core .wxg CSR image served through a \
         read-only memory map (build with `wx convert`; any *File source \
         with \"mmap\": true, or just pass a .wxg path)",
        "MmapGraph", "path, mmap"
    );
    println!(
        "  {:<16} ({:<14}) unmaterialized family backend: Hypercube(dim), \
         CyclePower(n, power), Torus(rows, cols)",
        "Implicit", "family"
    );
    println!(
        "  {:<16} ({:<14}) zero-copy induced subgraph of any base source \
         (seeded random subset or explicit vertex list)",
        "Induced", "base, size|vertices"
    );
    Ok(0)
}

fn cmd_validate(args: &[String]) -> Result<i32> {
    let [path] = args else {
        return Err(LabError::invalid(
            "usage: wx validate <report.json | trace.json>",
        ));
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| LabError::Io(format!("reading {path}: {e}")))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| LabError::json(path.clone(), e))?;
    if value.as_map().is_none() {
        return Err(LabError::json(
            path.clone(),
            "expected a top-level JSON object",
        ));
    }
    if !matches!(
        value.get("traceEvents"),
        None | Some(serde_json::Value::Null)
    ) {
        let spans = validate_chrome_trace(&value, path)?;
        println!("{path}: valid chrome trace ({spans} complete spans)");
        return Ok(0);
    }
    println!("{path}: valid JSON report");
    Ok(0)
}

/// Validates a Chrome trace-event file: `traceEvents` must be an array of
/// objects each carrying a string `ph`, a string `name`, and a numeric
/// `ts`, with at least one complete (`ph:"X"`) span. Returns the number
/// of complete spans.
fn validate_chrome_trace(value: &serde_json::Value, path: &str) -> Result<usize> {
    let events = match value.get("traceEvents") {
        Some(serde_json::Value::Seq(items)) => items,
        _ => {
            return Err(LabError::json(
                path.to_string(),
                "`traceEvents` must be an array",
            ))
        }
    };
    let mut spans = 0usize;
    for (i, event) in events.iter().enumerate() {
        if event.as_map().is_none() {
            return Err(LabError::json(
                path.to_string(),
                format!("traceEvents[{i}] is not an object"),
            ));
        }
        let ph = event.get("ph").and_then(|v| v.as_str()).ok_or_else(|| {
            LabError::json(
                path.to_string(),
                format!("traceEvents[{i}] lacks a string `ph`"),
            )
        })?;
        if event.get("name").and_then(|v| v.as_str()).is_none() {
            return Err(LabError::json(
                path.to_string(),
                format!("traceEvents[{i}] lacks a string `name`"),
            ));
        }
        if event.get("ts").and_then(|v| v.as_u64()).is_none() {
            return Err(LabError::json(
                path.to_string(),
                format!("traceEvents[{i}] lacks a numeric `ts`"),
            ));
        }
        if ph == "X" {
            spans += 1;
        }
    }
    if spans == 0 {
        return Err(LabError::json(
            path.to_string(),
            "chrome trace contains no complete (ph \"X\") spans",
        ));
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert_eq!(main_with_args(&strs(&["frobnicate"])), 2);
        assert_eq!(main_with_args(&[]), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(main_with_args(&strs(&["help"])), 0);
        assert_eq!(main_with_args(&strs(&["list"])), 0);
    }

    #[test]
    fn flags_parser_takes_values_and_rejects_leftovers() {
        let mut f = Flags::new(&strs(&["--seed", "7", "pos", "--quick"]));
        assert_eq!(f.take_parsed::<u64>("--seed").unwrap(), Some(7));
        assert!(f.take_flag("--quick"));
        assert!(!f.take_flag("--quick"));
        assert_eq!(f.finish().unwrap(), vec!["pos".to_string()]);

        let mut f = Flags::new(&strs(&["--seed"]));
        assert!(f.take_value("--seed").is_err());

        // a flag where a value belongs is a missing value, not a value
        let mut f = Flags::new(&strs(&["--out", "--sequential"]));
        let err = f.take_value("--out").unwrap_err();
        assert!(err.to_string().contains("--sequential"), "{err}");

        let f = Flags::new(&strs(&["--bogus"]));
        assert!(f.finish().is_err());

        // commands without positionals reject stray arguments
        let f = Flags::new(&strs(&["trials", "5"]));
        assert!(f.finish_no_positionals().is_err());
    }

    #[test]
    fn source_parses_inline_json_and_paths() {
        let inline = parse_source(r#"{"Hypercube": {"dim": 4}}"#).unwrap();
        assert_eq!(inline, GraphSource::Hypercube { dim: 4 });
        assert!(matches!(
            parse_source("graphs/karate.col").unwrap(),
            GraphSource::DimacsFile { .. }
        ));
        assert!(parse_source(r#"{"Hypercube": }"#).is_err());
    }

    #[test]
    fn measure_requires_its_flags() {
        assert_eq!(main_with_args(&strs(&["measure"])), 2);
        assert_eq!(
            main_with_args(&strs(&[
                "measure",
                "--source",
                r#"{"Hypercube": {"dim": 3}}"#
            ])),
            2
        );
    }

    #[test]
    fn end_to_end_measure_writes_a_valid_report() {
        let dir = std::env::temp_dir().join("wx-lab-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let code = main_with_args(&strs(&[
            "measure",
            "--source",
            r#"{"CompletePlus": {"k": 6}}"#,
            "--notion",
            "unique",
            "--trials",
            "2",
            "--seed",
            "5",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let code = main_with_args(&strs(&["validate", out.to_str().unwrap()]));
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"value\""), "{text}");
    }

    #[test]
    fn inline_implicit_and_induced_sources_work_end_to_end() {
        let dir = std::env::temp_dir().join("wx-lab-cli-implicit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("implicit.json");
        let code = main_with_args(&strs(&[
            "measure",
            "--source",
            r#"{"Implicit": {"family": {"CyclePower": {"n": 64, "power": 2}}}}"#,
            "--notion",
            "ordinary",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        assert_eq!(
            main_with_args(&strs(&["validate", out.to_str().unwrap()])),
            0
        );
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("implicit:cycle-power"), "{text}");

        let out = dir.join("induced.json");
        let code = main_with_args(&strs(&[
            "radio",
            "--source",
            r#"{"Induced": {"base": {"Hypercube": {"dim": 5}}, "size": 20}}"#,
            "--protocol",
            "decay",
            "--trials",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("induced:random(20)"), "{text}");

        // malformed implicit families are rejected as usage errors
        let code = main_with_args(&strs(&[
            "measure",
            "--source",
            r#"{"Implicit": {"family": {"CyclePower": {"n": 4, "power": 2}}}}"#,
            "--notion",
            "ordinary",
        ]));
        assert_eq!(code, 2);
    }

    #[test]
    fn end_to_end_run_from_scenario_file() {
        let dir = std::env::temp_dir().join("wx-lab-cli-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("scenario.json");
        std::fs::write(
            &spec_path,
            r#"{
                "name": "cli-e2e",
                "source": {"Grid": {"rows": 3, "cols": 3}},
                "task": {"Radio": {"protocol": "NaiveFlooding"}},
                "trials": 2,
                "seed": 1
            }"#,
        )
        .unwrap();
        let out = dir.join("report.json");
        let code = main_with_args(&strs(&[
            "run",
            spec_path.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        assert_eq!(
            main_with_args(&strs(&["validate", out.to_str().unwrap()])),
            0
        );
    }

    #[test]
    fn run_with_trace_writes_a_valid_chrome_trace_without_changing_the_report() {
        let dir = std::env::temp_dir().join("wx-lab-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("scenario.json");
        std::fs::write(
            &spec_path,
            r#"{
                "name": "cli-trace",
                "source": {"Grid": {"rows": 3, "cols": 3}},
                "task": {"Radio": {"protocol": "NaiveFlooding"}},
                "trials": 2,
                "seed": 1
            }"#,
        )
        .unwrap();
        let out_plain = dir.join("plain.json");
        let out_traced = dir.join("traced.json");
        let trace = dir.join("trace.json");
        assert_eq!(
            main_with_args(&strs(&[
                "run",
                spec_path.to_str().unwrap(),
                "--out",
                out_plain.to_str().unwrap(),
            ])),
            0
        );
        assert_eq!(
            main_with_args(&strs(&[
                "run",
                spec_path.to_str().unwrap(),
                "--out",
                out_traced.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ])),
            0
        );
        // tracing must never change report bytes
        let plain = std::fs::read_to_string(&out_plain).unwrap();
        let traced = std::fs::read_to_string(&out_traced).unwrap();
        assert_eq!(plain, traced, "--trace changed the report bytes");
        assert!(plain.contains("\"telemetry\""), "{plain}");
        // the trace file validates as a chrome trace and contains spans
        assert_eq!(
            main_with_args(&strs(&["validate", trace.to_str().unwrap()])),
            0
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.contains("\"ph\":\"X\""), "{text}");
        assert!(text.contains("lab.simulate"), "{text}");
    }

    #[test]
    fn profile_emits_folded_stacks() {
        let dir = std::env::temp_dir().join("wx-lab-cli-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let folded = dir.join("stacks.folded");
        let code = main_with_args(&strs(&[
            "profile",
            "--source",
            r#"{"CompletePlus": {"k": 6}}"#,
            "--fast",
            "--folded",
            folded.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(!stacks.trim().is_empty(), "folded output is empty");
        for line in stacks.lines() {
            let (path, micros) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty(), "{line}");
            micros
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("bad folded line: {line}"));
        }
        assert!(stacks.contains("lab.measure"), "{stacks}");
    }

    #[test]
    fn validate_rejects_span_free_or_malformed_traces() {
        let dir = std::env::temp_dir().join("wx-lab-cli-trace-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cases = [
            ("empty.json", r#"{"traceEvents": []}"#),
            ("noname.json", r#"{"traceEvents": [{"ph": "X", "ts": 1}]}"#),
            (
                "nots.json",
                r#"{"traceEvents": [{"ph": "X", "name": "a"}]}"#,
            ),
            ("notarray.json", r#"{"traceEvents": 5}"#),
            (
                "nospans.json",
                r#"{"traceEvents": [{"ph": "C", "name": "a", "ts": 1}]}"#,
            ),
        ];
        for (file, body) in cases {
            let path = dir.join(file);
            std::fs::write(&path, body).unwrap();
            assert_eq!(
                main_with_args(&strs(&["validate", path.to_str().unwrap()])),
                2,
                "{file} should fail trace validation"
            );
        }
    }

    #[test]
    fn validate_rejects_garbage() {
        let dir = std::env::temp_dir().join("wx-lab-cli-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        assert_eq!(
            main_with_args(&strs(&["validate", bad.to_str().unwrap()])),
            2
        );
        assert_ne!(
            main_with_args(&strs(&["validate", "/definitely/not/there.json"])),
            0
        );
    }

    #[test]
    fn adhoc_rejects_stray_positionals() {
        // `trials 5` (missing the --) must error, not silently run 1 trial
        let code = main_with_args(&strs(&[
            "measure",
            "--source",
            r#"{"Hypercube": {"dim": 3}}"#,
            "--notion",
            "ordinary",
            "trials",
            "5",
        ]));
        assert_eq!(code, 2);
    }

    #[test]
    fn convert_then_mmap_measure_matches_the_in_memory_path() {
        let dir = std::env::temp_dir().join("wx-lab-cli-convert-test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = GraphSource::Margulis { m: 4 }.build(0).unwrap();
        let edges = dir.join("g.edges");
        wx_core::graph::io::save_graph(&g, &edges).unwrap();
        let wxg = dir.join("g.wxg");

        // usage errors: missing positionals
        assert_eq!(main_with_args(&strs(&["convert"])), 2);
        // a tiny chunk capacity forces the external-sort spill path
        assert_eq!(
            main_with_args(&strs(&[
                "convert",
                edges.to_str().unwrap(),
                wxg.to_str().unwrap(),
                "--chunk-capacity",
                "8",
            ])),
            0
        );
        // the image it wrote is byte-identical to the in-memory writer's
        let mut direct = wxg.clone();
        direct.set_extension("direct.wxg");
        g.write_wxg(&direct).unwrap();
        assert_eq!(
            std::fs::read(&wxg).unwrap(),
            std::fs::read(&direct).unwrap()
        );

        // measure through the mmap backend and through the text loader:
        // identical reports except the source label and the backend's
        // resident-footprint telemetry (which is the point of the policy)
        let measure = |src: &std::path::Path, out: &std::path::Path| {
            let code = main_with_args(&strs(&[
                "measure",
                "--source",
                src.to_str().unwrap(),
                "--notion",
                "ordinary",
                "--trials",
                "2",
                "--seed",
                "5",
                "--name",
                "convert-e2e",
                "--out",
                out.to_str().unwrap(),
            ]));
            assert_eq!(code, 0);
            std::fs::read_to_string(out).unwrap()
        };
        let via_mmap = measure(&wxg, &dir.join("mmap.json"));
        let via_text = measure(&edges, &dir.join("text.json"));
        assert!(via_mmap.contains("wxg-mmap("), "{via_mmap}");
        let strip = |report: &str| -> String {
            report
                .lines()
                .filter(|l| !l.contains("\"source\"") && !l.contains("graph.memory_bytes"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&via_mmap), strip(&via_text));
        // both backends put their footprint into telemetry
        assert!(via_mmap.contains("graph.memory_bytes"), "{via_mmap}");
        assert!(via_text.contains("graph.memory_bytes"), "{via_text}");
        // and the mmap path is deterministic byte-for-byte
        let again = measure(&wxg, &dir.join("mmap2.json"));
        assert_eq!(via_mmap, again);

        // graph-layer convert failures surface as runtime errors (exit 1)
        assert_eq!(
            main_with_args(&strs(&[
                "convert",
                "/definitely/not/there.edges",
                wxg.to_str().unwrap(),
            ])),
            1
        );
    }

    #[test]
    fn sweep_requires_selection_and_reports_quick_entry() {
        assert_eq!(main_with_args(&strs(&["sweep"])), 2);
        // --all plus explicit names is ambiguous and refused
        assert_eq!(main_with_args(&strs(&["sweep", "--all", "e1"])), 2);
        let dir = std::env::temp_dir().join("wx-lab-cli-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("sweep.json");
        let code = main_with_args(&strs(&[
            "sweep",
            "c-plus-profile",
            "--quick",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"passed\": 1"), "{text}");
    }
}

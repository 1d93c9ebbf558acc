//! The wx benchmark: one command that builds `wx` from the checkout,
//! serves one workload through the real `wx serve --http` with a
//! closed-loop single-connection client, checks every response, and
//! prints the workload's metrics.
//!
//! ```text
//! cargo run --release --manifest-path wxbench/Cargo.toml -- \
//!     --workload solve|measure|broadcast|interactive --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` serves a shorter stream for the serving-layer figures and
//! replays it in-process, traced and untraced, for the per-layer figures
//! (see `replay`). Run from the repository root. The last line of
//! standard output is one JSON object; the human-readable summary goes to
//! standard error. Any failed check makes the exit code nonzero.

mod replay;
mod server;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;
use wx_lab::cache::{ArtifactCache, CacheConfig};
use wx_lab::spec::ScenarioSpec;

use replay::spans;
use server::{Exchange, Server};
use workload::Workload;

/// Server set-ups per end-to-end run; `setup_s` is their median. The
/// first starts the server the window is measured on. The window is cut
/// into this many equal parts, and each pause between two parts sets up
/// another server, so the samples are spread over the whole run rather
/// than over its first seconds, which on a shared host may all fall into
/// one fast or slow phase.
const SETUPS: usize = 10;
/// Requests the timed window must complete, so that p90 has ten samples
/// beyond it; the window runs past `--seconds` until it has them.
const MIN_REQUESTS: usize = 110;
/// The window never runs past this multiple of `--seconds`.
const MAX_WINDOW_FACTOR: f64 = 3.0;
/// Share of `--seconds` the traced run serves over HTTP; the traced and
/// untraced replays of the same requests take most of the rest.
const TRACE_SERVE_SHARE: f64 = 0.2;
/// Requests the traced run serves at least.
const TRACE_MIN_REQUESTS: usize = 20;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("goodput_per_s", "1/s"),
    ("cpu_per_req_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. `_s` figures are
/// per-request median self times over the requests where the layer ran;
/// counts are per-request means.
const PER_LAYER: [(&str, &str); 34] = [
    ("spokesman.partition_s", "s"),
    ("spokesman.degree_class_s", "s"),
    ("spokesman.portfolio_s", "s"),
    ("spokesman.random_decay_s", "s"),
    ("spokesman.greedy_min_degree_s", "s"),
    ("spokesman.chlamtac_weinstein_s", "s"),
    ("spokesman.flips", "count/req"),
    ("graph.bipartite_view_s", "s"),
    ("graph.reachable_s", "s"),
    ("graph.memory_bytes", "bytes/req"),
    ("constructions.build_s", "s"),
    ("constructions.builds", "count/req"),
    ("expansion.measure_s", "s"),
    ("expansion.candidate_pool_s", "s"),
    ("expansion.minimize_s", "s"),
    ("expansion.sets_evaluated", "count/req"),
    ("radio.lanes_s", "s"),
    ("radio.scalar_s", "s"),
    ("radio.rounds_simulated", "count/req"),
    ("radio.lane_occupancy", "ratio"),
    ("lab.parse_s", "s"),
    ("lab.spec_key_s", "s"),
    ("lab.run_ctx_s", "s"),
    ("lab.unattributed_s", "s"),
    ("lab.graph_hit_ratio", "ratio"),
    ("lab.solution_hit_ratio", "ratio"),
    ("lab.evictions", "count/req"),
    ("core.report_json_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.run_s", "s"),
    ("serve.transport_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replay_traced_s", "s"),
    ("trace.replay_untraced_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Request outcomes of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                false
            }
        }
    }
}

/// One served request.
struct Served {
    index: usize,
    /// The spec as sent.
    spec: String,
    exchange: Exchange,
}

/// A response counts as a success only if it is a 200 whose body parses
/// as a `ScenarioReport` of the spec's name and trial count.
fn check_response(spec: &ScenarioSpec, ex: &Exchange) -> Result<(), String> {
    if ex.status != 200 {
        let text = String::from_utf8_lossy(&ex.body);
        return Err(format!(
            "{}: HTTP {}: {}",
            spec.name,
            ex.status,
            text.trim()
        ));
    }
    let text = std::str::from_utf8(&ex.body).map_err(|_| "report is not UTF-8")?;
    let report: Value = serde_json::from_str(text).map_err(|e| format!("report: {e}"))?;
    for field in [
        "description",
        "source",
        "task",
        "seed",
        "metrics",
        "telemetry",
        "per_trial_truncated",
    ] {
        if report.get(field).is_none() {
            return Err(format!("{}: report has no {field}", spec.name));
        }
    }
    if report.get("name").and_then(Value::as_str) != Some(spec.name.as_str()) {
        return Err(format!("{}: report names another scenario", spec.name));
    }
    if report.get("trials").and_then(Value::as_u64) != Some(spec.trials as u64) {
        return Err(format!("{}: report has the wrong trial count", spec.name));
    }
    match report.get("per_trial") {
        Some(Value::Seq(records)) if records.len() == spec.trials.min(1024) => Ok(()),
        _ => Err(format!(
            "{}: report has the wrong per-trial records",
            spec.name
        )),
    }
}

fn post(addr: &str, spec: &ScenarioSpec) -> Result<(String, Exchange), String> {
    let body = serde_json::to_string(spec).map_err(|e| e.to_string())?;
    let ex = server::exchange(addr, "POST", "/run", body.as_bytes())?;
    Ok((body, ex))
}

/// Sends the untimed warm-up requests; any failure aborts the run.
fn warm_up(addr: &str, workload: Workload, seed: u64) -> Result<(), String> {
    for spec in workload.warmup(seed) {
        let (_, ex) = post(addr, &spec)?;
        check_response(&spec, &ex).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// Starts a server and sends the workload's warm-up: one `setup_s`
/// sample, pushed onto `setups`.
fn set_up(wx: &Path, args: &Args, setups: &mut Vec<f64>) -> Result<Server, String> {
    let start = Instant::now();
    let server = Server::spawn(wx)?;
    warm_up(&server.addr, args.workload, args.seed)?;
    setups.push(start.elapsed().as_secs_f64());
    Ok(server)
}

/// The closed loop: one connection, one request in flight, the next
/// request sent when the previous response is complete. Sends the
/// stream's requests from index `first` on while `go(seconds elapsed,
/// next index)` holds; returns the next index and the seconds it ran.
fn closed_loop(
    addr: &str,
    args: &Args,
    first: usize,
    go: impl Fn(f64, usize) -> bool,
    keep_all: bool,
    served: &mut Vec<Served>,
    tally: &mut Tally,
) -> (usize, f64) {
    let start = Instant::now();
    let mut index = first;
    while go(start.elapsed().as_secs_f64(), index) {
        let spec = args.workload.request(args.seed, index);
        match post(addr, &spec) {
            Ok((mut sent, mut exchange)) => {
                if tally.record(check_response(&spec, &exchange)) {
                    if !keep_all && !args.workload.check_sample().contains(&index) {
                        sent.clear();
                        exchange.body.clear();
                    }
                    served.push(Served {
                        index,
                        spec: sent,
                        exchange,
                    });
                }
            }
            Err(e) => {
                tally.record(Err(e));
            }
        }
        index += 1;
    }
    (index, start.elapsed().as_secs_f64())
}

/// Byte-compares the served reports of the workload's sample against
/// `wx run` of the same specs.
fn compare_with_batch(
    wx: &Path,
    work: &Path,
    args: &Args,
    served: &[Served],
    tally: &mut Tally,
) -> Result<(), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    for &index in args.workload.check_sample() {
        let Some(s) = served.iter().find(|s| s.index == index) else {
            tally.record(Err(format!("sample request {index} was not served")));
            continue;
        };
        let tag = format!("{}-{index}", args.workload.name());
        let result = server::batch_report(wx, work, &tag, &s.spec).and_then(|batch| {
            if batch == s.exchange.body {
                Ok(())
            } else {
                Err(format!("{tag}: served report differs from wx run"))
            }
        });
        tally.record(result);
    }
    Ok(())
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn with_units(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Metrics {
    table
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn end_to_end(args: &Args, wx: &Path, work: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let mut setups: Vec<f64> = Vec::with_capacity(SETUPS);
    let server = set_up(wx, args, &mut setups)?;
    let segment = args.seconds / SETUPS as f64;
    let max_window = args.seconds * MAX_WINDOW_FACTOR;
    let (mut served, mut next, mut window, mut cpu) = (Vec::new(), 0, 0.0, 0.0);
    for part in 1..=SETUPS {
        let last = part == SETUPS;
        let cpu_before = server.cpu_seconds()?;
        let so_far = window;
        let go = |elapsed: f64, index: usize| {
            let total = so_far + elapsed;
            if last {
                (total < args.seconds || index < MIN_REQUESTS) && total < max_window
            } else {
                elapsed < segment
            }
        };
        let (after, seconds) = closed_loop(&server.addr, args, next, go, false, &mut served, tally);
        cpu += server.cpu_seconds()? - cpu_before;
        window += seconds;
        next = after;
        if !last {
            // the window's server idles while another one is set up
            set_up(wx, args, &mut setups)?.stop();
        }
    }
    let rss = server.peak_rss_mib()?;
    server.stop();
    compare_with_batch(wx, work, args, &served, tally)?;

    if served.is_empty() {
        return Err("no request succeeded".into());
    }
    let latencies: Vec<f64> = served.iter().map(|s| s.exchange.seconds).collect();
    let n = latencies.len();
    let p50 = stats::percentile(&latencies, 0.5)
        .ok_or_else(|| format!("only {n} requests: too few for p50"))?;
    let p90 = stats::percentile(&latencies, 0.9)
        .ok_or_else(|| format!("only {n} requests: too few for p90"))?;
    let values = BTreeMap::from([
        ("setup_s", stats::median(&setups).unwrap_or(0.0)),
        ("latency_p50_s", p50),
        ("latency_p90_s", p90),
        ("goodput_per_s", n as f64 / window),
        ("cpu_per_req_s", cpu / n as f64),
        ("peak_rss_mb", rss),
    ]);
    eprintln!(
        "wxbench: {n} requests in a {window:.2} s window, {} set-ups",
        setups.len()
    );
    Ok(with_units(&END_TO_END, &values))
}

/// `/stats` cache counters as a name → value map.
fn cache_stats(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let ex = server::exchange(addr, "GET", "/stats", b"")?;
    let text = std::str::from_utf8(&ex.body).map_err(|_| "/stats is not UTF-8")?;
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("/stats: {e}"))?;
    let cache = doc
        .get("cache")
        .and_then(Value::as_map)
        .ok_or("/stats has no cache")?;
    Ok(cache
        .iter()
        .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
        .collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn cache_config() -> CacheConfig {
    CacheConfig {
        graph_budget_bytes: Some(server::GRAPH_CACHE_BYTES),
        solution_budget_bytes: Some(server::SOLUTION_CACHE_BYTES),
        persist_dir: None,
    }
}

/// Per-request layer times from one request's drained spans: the self
/// time of each span `wxbench.<layer>.<call>` of the benchmark's own
/// feeds `<layer>.<call>_s`. `lab.unattributed_s` is the part of the same
/// execution's `run_ctx` that the program's layer spans do not cover.
fn layer_times(trace: &[wx_trace::SpanRecord]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for t in replay::self_times(trace, replay::is_reported) {
        let metric = match t.name {
            spans::RUN_CTX => continue,
            spans::CANDIDATE_POOL | spans::MINIMIZE => {
                // the runner's own measurement inside run_ctx is not a
                // replayed call
                if t.parent != Some(spans::MEASURE) {
                    continue;
                }
                t.name.replace("engine.", "expansion.")
            }
            name => name.trim_start_matches("wxbench.").to_string(),
        };
        *out.entry(metric + "_s").or_default() += t.self_nanos as f64 * 1e-9;
    }
    let (run_ctx, covered) = replay::run_ctx_coverage(trace);
    out.insert("lab.run_ctx_s".into(), run_ctx as f64 * 1e-9);
    out.insert(
        "lab.unattributed_s".into(),
        (run_ctx - covered) as f64 * 1e-9,
    );
    out
}

/// The named layer metrics whose calls run inside the program's layer
/// spans ([`spans::PROGRAM_LAYERS`]): builds, measurement, solvers and
/// radio engines. The bipartite view and the reach BFS run outside them,
/// so their time is part of `lab.unattributed_s`.
fn in_program_layers(name: &str) -> bool {
    name.ends_with("_s")
        && ["constructions.", "expansion.", "spokesman.", "radio."]
            .iter()
            .any(|layer| name.starts_with(layer))
}

/// Largest share of the replay's total `run_ctx` time by which the named
/// layer times plus `lab.unattributed_s` may miss it before the run fails.
/// The replayed calls run right after `run_ctx` on warm caches, and the
/// program's layer spans hold some bookkeeping of their own (solution
/// certificates, cache inserts), so the two never agree exactly; a larger
/// miss means the replay no longer does the runner's work.
const ACCOUNTING_TOLERANCE: f64 = 0.15;

/// Checks that the named layers plus `lab.unattributed_s` account for
/// `lab.run_ctx_s`, summed over the replayed requests.
fn check_accounting(times: &[BTreeMap<String, f64>]) -> Result<(), String> {
    let total = |pick: &dyn Fn(&str) -> bool| -> f64 {
        times
            .iter()
            .flat_map(|t| t.iter())
            .filter(|(name, _)| pick(name))
            .map(|(_, v)| v)
            .sum()
    };
    let run_ctx = total(&|n| n == "lab.run_ctx_s");
    let named = total(&in_program_layers);
    let unattributed = total(&|n| n == "lab.unattributed_s");
    let miss = run_ctx - named - unattributed;
    let share = ratio(miss.abs(), run_ctx);
    let requests = times.len().max(1) as f64;
    eprintln!(
        "wxbench: mean run_ctx {:.6} s = named layers {:.6} s + unattributed {:.6} s + miss {:.6} s ({:.1}%)",
        run_ctx / requests,
        named / requests,
        unattributed / requests,
        miss / requests,
        100.0 * miss / run_ctx.max(f64::MIN_POSITIVE),
    );
    if share > ACCOUNTING_TOLERANCE {
        return Err(format!(
            "named layers plus lab.unattributed_s miss run_ctx by {:.1}% (tolerance {:.0}%)",
            100.0 * share,
            100.0 * ACCOUNTING_TOLERANCE
        ));
    }
    Ok(())
}

/// What the two in-process replays of a served stream produced.
struct Replays {
    traced_seconds: f64,
    untraced_seconds: f64,
    /// Per request: its layer times (from the traced pass) and counts.
    requests: Vec<(BTreeMap<String, f64>, replay::Replayed)>,
}

/// Replays `served` twice in-process, traced and untraced, each pass
/// against its own freshly warmed cache. The passes alternate request by
/// request, and which goes first alternates too, so drift over the run
/// does not bias `trace.overhead_ratio`.
fn replay_stream(args: &Args, served: &[Served], tally: &mut Tally) -> Result<Replays, String> {
    let warm_cache = || -> Result<ArtifactCache, String> {
        let cache = ArtifactCache::new(cache_config());
        for spec in args.workload.warmup(args.seed) {
            replay::execute(&cache, &spec).map_err(|e| format!("replay warm-up: {e}"))?;
        }
        Ok(cache)
    };
    let caches = [warm_cache()?, warm_cache()?];
    let mut out = Replays {
        traced_seconds: 0.0,
        untraced_seconds: 0.0,
        requests: Vec::with_capacity(served.len()),
    };
    for (i, s) in served.iter().enumerate() {
        let served_report = String::from_utf8_lossy(&s.exchange.body);
        for traced in [i % 2 == 0, i % 2 == 1] {
            if traced {
                wx_trace::enable();
            }
            let start = Instant::now();
            let result = replay::replay(&caches[usize::from(traced)], &s.spec, &served_report);
            let seconds = start.elapsed().as_secs_f64();
            wx_trace::disable();
            let trace = wx_trace::take_trace();
            match result {
                Ok(replayed) if traced => {
                    out.traced_seconds += seconds;
                    out.requests.push((layer_times(&trace.spans), replayed));
                    tally.record(Ok(()));
                }
                Ok(_) => {
                    out.untraced_seconds += seconds;
                    tally.record(Ok(()));
                }
                Err(e) => {
                    tally.record(Err(format!("replay of request {}: {e}", s.index)));
                }
            }
        }
    }
    Ok(out)
}

fn traced(args: &Args, wx: &Path, work: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let server = Server::spawn(wx)?;
    warm_up(&server.addr, args.workload, args.seed)?;
    let before = cache_stats(&server.addr)?;
    let serve_seconds = args.seconds * TRACE_SERVE_SHARE;
    let mut served = Vec::new();
    let go = |elapsed: f64, index: usize| {
        (elapsed < serve_seconds || index < TRACE_MIN_REQUESTS) && elapsed < args.seconds
    };
    closed_loop(&server.addr, args, 0, go, true, &mut served, tally);
    let after = cache_stats(&server.addr)?;
    server.stop();
    compare_with_batch(wx, work, args, &served, tally)?;
    if served.is_empty() {
        return Err("no request succeeded".into());
    }

    let delta = |k: &str| {
        (after.get(k).copied().unwrap_or(0)).saturating_sub(before.get(k).copied().unwrap_or(0))
            as f64
    };
    let requests = served.len() as f64;
    let header = |s: &Served, name: &str| s.exchange.header_u64(name).unwrap_or(0) as f64 * 1e-6;
    let queue: Vec<f64> = served.iter().map(|s| header(s, "x-wx-queue-us")).collect();
    let run: Vec<f64> = served.iter().map(|s| header(s, "x-wx-run-us")).collect();
    let transport: Vec<f64> = served
        .iter()
        .zip(queue.iter().zip(&run))
        .map(|(s, (q, r))| s.exchange.seconds - q - r)
        .collect();

    let replays = replay_stream(args, &served, tally)?;
    let (times, counts): (Vec<_>, Vec<_>) = replays.requests.into_iter().unzip();

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, unit) in &PER_LAYER {
        if unit != "s" || name.starts_with("serve.") || name.starts_with("trace.") {
            continue;
        }
        let present: Vec<f64> = times.iter().filter_map(|t| t.get(name).copied()).collect();
        values.insert(name, stats::median(&present).unwrap_or(0.0));
    }
    let per_request = |f: &dyn Fn(&replay::Replayed) -> u64| {
        stats::mean(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let telemetry = |c: &replay::Replayed, k: &str| c.telemetry.get(k).copied().unwrap_or(0);
    values.insert(
        "spokesman.flips",
        per_request(&|c| {
            telemetry(c, "spokesman.flips_accepted") + telemetry(c, "spokesman.flips_rejected")
        }),
    );
    values.insert(
        "graph.memory_bytes",
        per_request(&|c| telemetry(c, "graph.memory_bytes")),
    );
    values.insert("constructions.builds", per_request(&|c| c.builds));
    values.insert(
        "expansion.sets_evaluated",
        per_request(&|c| telemetry(c, "engine.sets_evaluated")),
    );
    values.insert(
        "radio.rounds_simulated",
        per_request(&|c| telemetry(c, "radio.rounds_simulated")),
    );
    let live: u64 = counts.iter().map(|c| c.lane_rounds.0).sum();
    let capacity: u64 = counts.iter().map(|c| c.lane_rounds.1).sum();
    values.insert("radio.lane_occupancy", ratio(live as f64, capacity as f64));
    values.insert(
        "lab.graph_hit_ratio",
        ratio(
            delta("graph_hits"),
            delta("graph_hits") + delta("graph_misses"),
        ),
    );
    values.insert(
        "lab.solution_hit_ratio",
        ratio(
            delta("solution_hits"),
            delta("solution_hits") + delta("solution_misses"),
        ),
    );
    values.insert(
        "lab.evictions",
        (delta("graph_evictions") + delta("solution_evictions")) / requests,
    );
    values.insert("serve.queue_s", stats::median(&queue).unwrap_or(0.0));
    values.insert("serve.run_s", stats::median(&run).unwrap_or(0.0));
    values.insert(
        "serve.transport_s",
        stats::median(&transport).unwrap_or(0.0),
    );
    values.insert(
        "trace.overhead_ratio",
        ratio(replays.traced_seconds, replays.untraced_seconds),
    );
    values.insert("trace.replay_traced_s", replays.traced_seconds);
    values.insert("trace.replay_untraced_s", replays.untraced_seconds);

    eprintln!(
        "wxbench: {} requests served, {} replayed",
        served.len(),
        times.len(),
    );
    tally.record(check_accounting(&times));
    Ok(with_units(&PER_LAYER, &values))
}

fn json_line(tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for &(name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

/// Set in the environment of the pinned re-run.
const PINNED: &str = "WXBENCH_PINNED_CPU";

/// Re-runs this benchmark under `taskset` on one CPU, so the client and
/// the server (which inherits the affinity) share it. In a closed loop
/// only one of them is runnable at a time, so this costs no parallelism;
/// it removes the cross-CPU wake-ups whose cost varies most from run to
/// run on a virtual machine. The bounds hold for pinned runs only, so
/// where pinning is unavailable the benchmark fails rather than run
/// unpinned.
fn rerun_pinned() -> Result<ExitCode, String> {
    let cpu = server::last_allowed_cpu()
        .ok_or("cannot pin: no Cpus_allowed_list in /proc/self/status")?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let status = std::process::Command::new("taskset")
        .arg("-c")
        .arg(&cpu)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED, format!("{cpu} of nproc {nproc}"))
        .status()
        .map_err(|e| format!("cannot pin: running taskset: {e}"))?;
    Ok(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    // The replay runs the library in this process; pin it like the server.
    std::env::set_var("RAYON_NUM_THREADS", server::RAYON_THREADS);
    let pinned = match std::env::var(PINNED) {
        Ok(pinned) => pinned,
        Err(_) => {
            server::build_wx()?;
            return rerun_pinned();
        }
    };
    let wx = server::wx_path();
    let work = server::target_dir().join("wxbench-work");
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, &wx, &work, &mut tally)?
    } else {
        end_to_end(&args, &wx, &work, &mut tally)?
    };

    eprintln!(
        "wxbench {} (seed {}, {} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    eprintln!(
        "  settings: wx serve --http, --workers {}, RAYON_NUM_THREADS={}, --graph-cache-bytes {}, \
         --solution-cache-bytes {}, closed loop, 1 connection, pinned to CPU {}",
        server::WORKERS,
        server::RAYON_THREADS,
        server::GRAPH_CACHE_BYTES,
        server::SOLUTION_CACHE_BYTES,
        pinned,
    );
    for &(name, unit, value) in &metrics {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    eprintln!(
        "  requests: {} attempted, {} succeeded, {} failed",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed
    );
    for e in &tally.errors {
        eprintln!("  failure: {e}");
    }
    println!("{}", json_line(&tally, &metrics)?);
    Ok(if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wxbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and their declaration in BENCHMARK.json must
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let field =
                            |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key}"),
            }
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}

//! The `wx` front end: the serving subcommands live here, everything
//! else is delegated verbatim to [`wx_lab::cli`].
//!
//! ```text
//! wx serve --stdin [--out-dir DIR] [serve options]
//! wx serve --http ADDR [serve options]
//! ```
//!
//! Serve options: `--workers N` (default 2), `--graph-cache-bytes N`,
//! `--solution-cache-bytes N`, `--persist DIR`. Each request's trials fan
//! out over `RAYON_NUM_THREADS` threads; `RAYON_NUM_THREADS=1` keeps each
//! request on its worker thread. Exit codes match the batch CLI: 0
//! success, 1 runtime failure (including any failed request in a
//! stdin-jsonl session), 2 usage error.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;

use wx_lab::cache::CacheConfig;
use wx_lab::cli::Flags;
use wx_lab::{LabError, Result};

use crate::http::HttpServer;
use crate::jsonl;
use crate::service::{ServeConfig, Service};

/// Entry point used by the `wx` binary: parses `args` (without the
/// program name) and returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        eprintln!();
        eprintln!("{}", wx_lab::cli::usage());
        return 2;
    };
    match command.as_str() {
        "serve" => wx_lab::cli::exit_code(cmd_serve(rest)),
        "help" | "--help" | "-h" => {
            println!("{}", wx_lab::cli::usage());
            println!();
            println!("{}", usage());
            0
        }
        _ => wx_lab::cli::main_with_args(args),
    }
}

/// The serving half of the help text (the batch half comes from
/// [`wx_lab::cli::usage`]).
pub fn usage() -> &'static str {
    "SERVING:
  wx serve --stdin [--out-dir DIR] [--workers N]
           [--graph-cache-bytes N] [--solution-cache-bytes N] [--persist DIR]
  wx serve --http ADDR [same options]

`wx serve --stdin` reads one request per line (a scenario spec, or
'{\"id\": N, \"spec\": {…}}'), executes on a bounded worker pool over a
content-addressed artifact cache, and answers one envelope line per
request in request order; the `report` field carries the exact bytes
`wx run` would print (also written raw to --out-dir/<id>.json).
Identical in-flight requests coalesce into one execution. `--http ADDR`
serves the same engine over HTTP/1.1: POST /run (body = spec, response
= report bytes, telemetry in X-Wx-* headers), GET /healthz, GET /stats.
`--persist DIR` writes solution artifacts to disk so a restarted server
warms from it; DIR is created if missing, and one that cannot be created
is an error. Each request's trials fan out over RAYON_NUM_THREADS threads
(default: all cores); RAYON_NUM_THREADS=1 keeps a request on its worker,
with the same report bytes."
}

fn parse_serve_config(flags: &mut Flags) -> Result<ServeConfig> {
    let mut config = ServeConfig::default();
    if let Some(workers) = flags.take_parsed::<usize>("--workers")? {
        if workers == 0 {
            return Err(LabError::invalid("--workers must be at least 1"));
        }
        config.workers = workers;
    }
    config.cache = CacheConfig {
        graph_budget_bytes: flags.take_parsed::<u64>("--graph-cache-bytes")?,
        solution_budget_bytes: flags.take_parsed::<u64>("--solution-cache-bytes")?,
        persist_dir: flags.take_value("--persist")?.map(PathBuf::from),
    };
    Ok(config)
}

/// Starts the service once every flag has been accepted. The cache writes
/// artifacts best-effort, so a persist directory it cannot use is refused
/// here rather than silently turn persistence off; creating it only now
/// leaves nothing behind after a usage error.
fn start(config: &ServeConfig) -> Result<Service> {
    if let Some(dir) = &config.cache.persist_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| LabError::Io(format!("creating {}: {e}", dir.display())))?;
    }
    Ok(Service::start(config))
}

/// Resolves `--http ADDR`; an address that names no socket is a usage
/// error.
fn resolve_http_addr(addr: &str) -> Result<Vec<SocketAddr>> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| LabError::invalid(format!("--http {addr}: {e}")))?
        .collect();
    if addrs.is_empty() {
        return Err(LabError::invalid(format!("--http {addr} names no address")));
    }
    Ok(addrs)
}

fn cmd_serve(args: &[String]) -> Result<i32> {
    let mut flags = Flags::new(args);
    let stdin_mode = flags.take_flag("--stdin");
    let http_addr = match flags.take_value("--http")? {
        Some(addr) => Some((resolve_http_addr(&addr)?, addr)),
        None => None,
    };
    let out_dir = flags.take_value("--out-dir")?.map(PathBuf::from);
    let config = parse_serve_config(&mut flags)?;
    flags.finish_no_positionals()?;
    match (stdin_mode, http_addr) {
        (true, Some(_)) => Err(LabError::invalid(
            "--stdin and --http are mutually exclusive",
        )),
        (false, None) => Err(LabError::invalid(
            "wx serve needs a transport: --stdin or --http ADDR",
        )),
        (true, None) => {
            let service = start(&config)?;
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let failures = jsonl::run_session(
                &service,
                &mut stdin.lock(),
                &mut stdout.lock(),
                out_dir.as_deref(),
            )?;
            let stats = service.stats();
            eprintln!(
                "wx serve: {} executed, {} coalesced, {} panicked, graph hits {}, solution hits {} ({} from disk)",
                stats.executed,
                stats.coalesced,
                stats.panics,
                stats.cache.graph_hits,
                stats.cache.solution_hits,
                stats.cache.solution_disk_hits,
            );
            service.stop();
            Ok(if failures > 0 { 1 } else { 0 })
        }
        (false, Some((addrs, addr))) => {
            if out_dir.is_some() {
                return Err(LabError::invalid("--out-dir only applies to --stdin"));
            }
            // bound before `start` creates the persist dir, so a taken
            // address leaves nothing behind either
            let listener = TcpListener::bind(&addrs[..])
                .map_err(|e| LabError::Io(format!("binding {addr}: {e}")))?;
            let server = HttpServer::new(listener, start(&config)?);
            eprintln!("wx serve: listening on http://{}", server.local_addr()?);
            server.serve_forever()?;
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_commands_fall_through_to_lab() {
        // the batch CLI owns the rejection, with its usage-error exit code
        let args = vec!["definitely-not-a-command".to_string()];
        assert_eq!(main_with_args(&args), 2);
        // `bench` is not a command: timing lives in the wxbench benchmark
        assert_eq!(main_with_args(&["bench".to_string()]), 2);
        let args: Vec<String> = ["bench", "--serve"].iter().map(|s| s.to_string()).collect();
        assert_eq!(main_with_args(&args), 2);
    }

    #[test]
    fn serve_needs_a_transport() {
        assert_eq!(main_with_args(&["serve".to_string()]), 2);
    }

    #[test]
    fn serve_rejects_both_transports() {
        let args: Vec<String> = ["serve", "--stdin", "--http", "127.0.0.1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(main_with_args(&args), 2);
    }

    #[test]
    fn serve_rejects_zero_workers() {
        let args: Vec<String> = ["serve", "--stdin", "--workers", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(main_with_args(&args), 2);
    }
}

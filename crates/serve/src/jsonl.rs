//! The stdin-jsonl protocol: one request per input line, one response
//! envelope per output line, responses in request order.
//!
//! # Request lines
//!
//! Each non-blank line is either a bare [`ScenarioSpec`] document or an
//! envelope `{"id": <u64>, "spec": {...}}`. Bare specs get the 1-based
//! line number as their id. Blank lines and lines starting with `#` are
//! skipped (so request files can carry comments).
//!
//! A line is read only up to 16 MiB, the cap an HTTP body has too. A
//! longer line, or one that is not UTF-8, answers an error envelope under
//! its line number; the rest of the line is discarded unbuffered and the
//! session goes on with the next line.
//!
//! # Response envelopes
//!
//! One compact-JSON line per request, in request order:
//!
//! ```json
//! {"id":1,"ok":true,"name":"...","coalesced":false,
//!  "queue_us":12,"run_us":3456,"cache":{...},"report":"<pretty JSON>"}
//! ```
//!
//! The `report` field holds the *exact* bytes `wx run` would print,
//! JSON-escaped into a string; `--out-dir DIR` additionally writes those
//! raw bytes to `DIR/<id>.json` so they can be compared with `cmp`.
//! Failures, of a job or of a line that never became one, produce
//! `{"id":N,"ok":false,"error":"..."}`. Everything
//! wall-clock-dependent stays in the envelope; the report bytes are
//! byte-deterministic.

use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::Arc;

use serde::Value;
use wx_lab::spec::ScenarioSpec;
use wx_lab::{CacheStats, LabError, Result};

use crate::service::{Job, Response, Service};
use crate::MAX_REQUEST_BYTES;

/// A parsed request line: the id it will answer under plus its spec.
#[derive(Clone, Debug)]
pub struct Request {
    /// Envelope id (explicit `"id"` field, else the 1-based line number).
    pub id: u64,
    /// The scenario to execute.
    pub spec: ScenarioSpec,
}

/// Parses one request line (see the module docs for the two shapes).
/// `line_no` is 1-based and doubles as the default id.
pub fn parse_request(line: &str, line_no: u64) -> Result<Request> {
    let context = format!("request line {line_no}");
    let value: Value = serde_json::from_str(line).map_err(|e| LabError::json(&context, e))?;
    let (id, spec_value) = match value.get("spec") {
        Some(spec) => {
            let id = match value.get("id") {
                Some(v) => v.as_u64().ok_or_else(|| {
                    LabError::json(&context, "\"id\" must be a non-negative integer")
                })?,
                None => line_no,
            };
            (id, spec.clone())
        }
        None => (line_no, value),
    };
    let spec: ScenarioSpec =
        serde::from_value(spec_value).map_err(|e| LabError::json(&context, e))?;
    spec.validate()?;
    Ok(Request { id, spec })
}

/// The envelope of a completed request.
#[derive(serde::Serialize)]
struct OkEnvelope {
    id: u64,
    ok: bool,
    name: String,
    coalesced: bool,
    queue_us: u64,
    run_us: u64,
    cache: CacheStats,
    report: String,
}

/// The envelope of a failed request, whether it failed to parse or to run.
#[derive(serde::Serialize)]
struct ErrorEnvelope {
    id: u64,
    ok: bool,
    error: String,
}

impl ErrorEnvelope {
    /// The compact JSON line answering request `id` with `error`.
    fn line(id: u64, error: String) -> String {
        serde_json::to_string(&ErrorEnvelope {
            id,
            ok: false,
            error,
        })
        .unwrap_or_default()
    }
}

/// Renders the response envelope for one completed request (compact
/// JSON, no trailing newline).
#[must_use]
pub fn envelope(id: u64, coalesced: bool, response: &Response) -> String {
    match &response.outcome {
        Ok(report) => serde_json::to_string(&OkEnvelope {
            id,
            ok: true,
            name: response.name.clone(),
            coalesced,
            queue_us: response.queue_us,
            run_us: response.run_us,
            cache: response.cache,
            report: report.clone(),
        })
        .unwrap_or_default(),
        Err(error) => ErrorEnvelope::line(id, error.clone()),
    }
}

enum Pending {
    Job {
        id: u64,
        coalesced: bool,
        job: Arc<Job>,
    },
    Failed {
        id: u64,
        error: LabError,
    },
}

/// Drives the full stdin-jsonl session: reads request lines from
/// `input`, submits them all (so identical back-to-back requests
/// coalesce), then writes one envelope per request to `output` in
/// request order. With `out_dir`, each successful report's raw bytes
/// also land in `out_dir/<id>.json`.
///
/// Returns the number of failed requests (parse failures count).
pub fn run_session(
    service: &Service,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    out_dir: Option<&Path>,
) -> Result<u64> {
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| LabError::Io(format!("creating {}: {e}", dir.display())))?;
    }
    let mut pending = Vec::new();
    let mut line = Vec::new();
    let mut line_no = 0u64;
    let read_error = |e: std::io::Error| LabError::Io(format!("reading request line: {e}"));
    loop {
        line.clear();
        // One byte past the cap tells an overlong line from one that fits.
        let read = Read::take(&mut *input, MAX_REQUEST_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(read_error)?;
        if read == 0 {
            break;
        }
        line_no += 1;
        let context = || format!("request line {line_no}");
        let content = line.strip_suffix(b"\n").unwrap_or(&line);
        if content.len() > MAX_REQUEST_BYTES {
            input.skip_until(b'\n').map_err(read_error)?;
            let error = LabError::json(
                context(),
                format!("longer than {} MiB", MAX_REQUEST_BYTES >> 20),
            );
            pending.push(Pending::Failed { id: line_no, error });
            continue;
        }
        let Ok(text) = std::str::from_utf8(content) else {
            let error = LabError::json(context(), "not UTF-8");
            pending.push(Pending::Failed { id: line_no, error });
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_request(trimmed, line_no) {
            Ok(request) => match service.submit(request.spec) {
                Ok((job, coalesced)) => pending.push(Pending::Job {
                    id: request.id,
                    coalesced,
                    job,
                }),
                Err(error) => pending.push(Pending::Failed {
                    id: request.id,
                    error,
                }),
            },
            Err(error) => pending.push(Pending::Failed { id: line_no, error }),
        }
    }
    let mut failures = 0u64;
    for entry in pending {
        let envelope_line = match entry {
            Pending::Job { id, coalesced, job } => {
                let response = service.wait(&job);
                if response.outcome.is_err() {
                    failures += 1;
                }
                if let (Some(dir), Ok(report)) = (out_dir, &response.outcome) {
                    let path = dir.join(format!("{id}.json"));
                    std::fs::write(&path, report)
                        .map_err(|e| LabError::Io(format!("writing {}: {e}", path.display())))?;
                }
                envelope(id, coalesced, &response)
            }
            Pending::Failed { id, error } => {
                failures += 1;
                ErrorEnvelope::line(id, error.to_string())
            }
        };
        writeln!(output, "{envelope_line}")
            .map_err(|e| LabError::Io(format!("writing response: {e}")))?;
    }
    output
        .flush()
        .map_err(|e| LabError::Io(format!("flushing responses: {e}")))?;
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(name: &str) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"source\":{{\"Hypercube\":{{\"dim\":3}}}},",
                "\"task\":{{\"Measure\":{{\"notion\":\"Wireless\",\"fast\":true}}}},",
                "\"trials\":1,\"seed\":7}}"
            ),
            name
        )
    }

    #[test]
    fn bare_spec_gets_line_number_id() {
        let request = parse_request(&spec_json("a"), 3).unwrap();
        assert_eq!(request.id, 3);
        assert_eq!(request.spec.name, "a");
    }

    #[test]
    fn envelope_wrapper_overrides_id() {
        let line = format!("{{\"id\": 42, \"spec\": {}}}", spec_json("b"));
        let request = parse_request(&line, 1).unwrap();
        assert_eq!(request.id, 42);
        assert_eq!(request.spec.name, "b");
    }

    fn response(outcome: std::result::Result<String, String>) -> Response {
        Response {
            name: "pin".to_string(),
            outcome,
            queue_us: 12,
            run_us: 3456,
            cache: wx_lab::CacheStats {
                graph_hits: 1,
                solution_misses: 2,
                ..wx_lab::CacheStats::default()
            },
        }
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        let ok = response(Ok("{\n  \"a\": \"q\\\"\"\n}\n".to_string()));
        assert_eq!(
            envelope(7, true, &ok),
            concat!(
                r#"{"id":7,"ok":true,"name":"pin","coalesced":true,"queue_us":12,"run_us":3456,"#,
                r#""cache":{"graph_hits":1,"graph_misses":0,"graph_coalesced":0,"graph_evictions":0,"#,
                r#""solution_hits":0,"solution_misses":2,"solution_disk_hits":0,"solution_evictions":0},"#,
                r#""report":"{\n  \"a\": \"q\\\"\"\n}\n"}"#
            )
        );
        let failed = response(Err("boom \"x\"".to_string()));
        assert_eq!(
            envelope(8, false, &failed),
            r#"{"id":8,"ok":false,"error":"boom \"x\""}"#
        );
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(parse_request("{not json", 1).is_err());
        assert!(parse_request("{\"id\": \"x\", \"spec\": {}}", 1).is_err());
    }
}

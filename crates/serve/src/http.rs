//! A minimal, dependency-free HTTP/1.1 front end for the service.
//!
//! Deliberately tiny: just enough of HTTP/1.1 to serve local tooling —
//! request line + headers + `Content-Length` body, no chunked encoding,
//! no keep-alive (every response closes the connection). Routes:
//!
//! | Route           | Behaviour                                          |
//! |-----------------|----------------------------------------------------|
//! | `POST /run`     | Body is a [`ScenarioSpec`]; replies 200 with the   |
//! |                 | exact `wx run` report bytes, or 400 with the error |
//! | `GET /healthz`  | `200 ok`                                           |
//! | `GET /stats`    | Cumulative service counters as JSON                |
//!
//! A body is read into a buffer that grows as its bytes arrive, never
//! allocated up front from the declared `Content-Length`; a connection that
//! closes before its body is complete ends with an I/O error and no answer.
//! A `Content-Length` that does not parse gets `400 Bad Request`, and one
//! over 16 MiB gets `413 Payload Too Large`, both answered from the head
//! without reading the body. After such an answer the server shuts down
//! its write side and reads and discards what the client still sends (at
//! most 64 MiB, for at most 2 s), so a client that is still sending its
//! body reads the whole answer instead of a connection reset.
//!
//! Serving telemetry rides in `X-Wx-*` response headers (queue/run
//! microseconds, coalesced flag, cache-hit deltas), keeping the body
//! byte-identical to the batch CLI across cache states.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use wx_lab::spec::ScenarioSpec;
use wx_lab::{LabError, Result};
use wx_trace::Clock;

use crate::service::Service;
use crate::MAX_REQUEST_BYTES;

/// Most bytes read and discarded after a rejection (see [`drain`]).
const DRAIN_MAX_BYTES: usize = 64 << 20;

/// Longest time spent reading and discarding after a rejection.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// A bound listener plus the service it fronts.
pub struct HttpServer {
    listener: TcpListener,
    service: Service,
}

/// What [`read_request`] made of a connection's bytes.
enum Request {
    /// The client closed the connection before sending a request line.
    Closed,
    /// A request whose body was read in full.
    Parsed {
        method: String,
        path: String,
        body: Vec<u8>,
    },
    /// A request answered from its head alone; its body is discarded.
    Rejected {
        status: &'static str,
        message: &'static [u8],
    },
}

fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line)? == 0 {
        return Ok(Request::Closed);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let Ok(length) = value.trim().parse() else {
                    return Ok(Request::Rejected {
                        status: "400 Bad Request",
                        message: b"invalid Content-Length\n",
                    });
                };
                content_length = length;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Ok(Request::Rejected {
            status: "413 Payload Too Large",
            message: b"request body exceeds 16 MiB\n",
        });
    }
    // The buffer grows as bytes arrive: a head alone pins no body memory.
    let mut body = Vec::new();
    reader
        .by_ref()
        .take(content_length as u64)
        .read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "request body shorter than its Content-Length",
        ));
    }
    Ok(Request::Parsed { method, path, body })
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn stats_body(service: &Service) -> Vec<u8> {
    let mut body = serde_json::to_string_pretty(&service.stats()).unwrap_or_default();
    body.push('\n');
    body.into_bytes()
}

/// Answers `400 Bad Request` with `error` as the plain-text body.
fn bad_request(
    stream: &mut TcpStream,
    headers: &[(String, String)],
    error: impl std::fmt::Display,
) -> std::io::Result<()> {
    let body = format!("{error}\n");
    write_response(
        stream,
        "400 Bad Request",
        "text/plain",
        headers,
        body.as_bytes(),
    )
}

fn handle_run(service: &Service, stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(body) else {
        return bad_request(stream, &[], "request body is not UTF-8");
    };
    let spec = match ScenarioSpec::from_json(text, "http request body") {
        Ok(spec) => spec,
        Err(error) => return bad_request(stream, &[], error),
    };
    let (response, coalesced) = match service.run(spec) {
        Ok(answer) => answer,
        Err(error) => return bad_request(stream, &[], error),
    };
    let headers = vec![
        ("X-Wx-Queue-Us".to_string(), response.queue_us.to_string()),
        ("X-Wx-Run-Us".to_string(), response.run_us.to_string()),
        ("X-Wx-Coalesced".to_string(), coalesced.to_string()),
        (
            "X-Wx-Graph-Hits".to_string(),
            response.cache.graph_hits.to_string(),
        ),
        (
            "X-Wx-Solution-Hits".to_string(),
            response.cache.solution_hits.to_string(),
        ),
    ];
    match &response.outcome {
        Ok(report) => write_response(
            stream,
            "200 OK",
            "application/json",
            &headers,
            report.as_bytes(),
        ),
        Err(error) => bad_request(stream, &headers, error),
    }
}

/// Ends a rejected connection without a reset: closing a socket whose
/// unread input still holds body bytes makes the kernel send RST, and the
/// client may lose the answer. So shut down the write side, which sends FIN
/// after the answer, and discard input until the client closes, up to
/// [`DRAIN_MAX_BYTES`] and [`DRAIN_DEADLINE`]. The answer is already
/// written, so an I/O error here just ends the drain.
fn drain(stream: &mut TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let clock = Clock::start();
    let mut buf = [0u8; 64 << 10];
    let mut drained = 0;
    while drained < DRAIN_MAX_BYTES {
        let left = DRAIN_DEADLINE.saturating_sub(clock.elapsed());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(read) => drained += read,
        }
    }
}

/// Serves one connection. An I/O error (a client that closes before its
/// body is complete, a reset) ends that connection only: it is reported
/// to stderr and the server goes on.
fn serve_connection(service: &Service, stream: &mut TcpStream) {
    if let Err(e) = handle_connection(service, stream) {
        // wx-allow(hygiene): a dead connection has nowhere else to report
        eprintln!("wx serve: connection error: {e}");
    }
}

fn handle_connection(service: &Service, stream: &mut TcpStream) -> std::io::Result<()> {
    let (method, path, body) = match read_request(stream)? {
        Request::Closed => return Ok(()),
        Request::Rejected { status, message } => {
            write_response(stream, status, "text/plain", &[], message)?;
            drain(stream);
            return Ok(());
        }
        Request::Parsed { method, path, body } => (method, path, body),
    };
    match (method.as_str(), path.as_str()) {
        ("POST", "/run") => handle_run(service, stream, &body),
        ("GET", "/healthz") => write_response(stream, "200 OK", "text/plain", &[], b"ok\n"),
        ("GET", "/stats") => write_response(
            stream,
            "200 OK",
            "application/json",
            &[],
            &stats_body(service),
        ),
        ("POST" | "GET", _) => {
            write_response(stream, "404 Not Found", "text/plain", &[], b"not found\n")
        }
        _ => write_response(
            stream,
            "405 Method Not Allowed",
            "text/plain",
            &[],
            b"method not allowed\n",
        ),
    }
}

impl HttpServer {
    /// Serves `service` on an already bound `listener`. Binding first lets
    /// the caller fail on a taken address before the service exists.
    pub fn new(listener: TcpListener, service: Service) -> HttpServer {
        HttpServer { listener, service }
    }

    /// The locally bound address (useful with port `0`).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| LabError::Io(format!("reading local addr: {e}")))
    }

    /// Accept loop: one thread per connection, forever (until the
    /// process exits). Per-connection I/O errors are reported to stderr
    /// and do not take the server down.
    pub fn serve_forever(&self) -> Result<()> {
        loop {
            let (mut stream, _peer) = self
                .listener
                .accept()
                .map_err(|e| LabError::Io(format!("accepting connection: {e}")))?;
            let service = self.service.clone();
            std::thread::spawn(move || serve_connection(&service, &mut stream));
        }
    }

    /// Handles exactly `n` connections on the calling thread, each as
    /// [`HttpServer::serve_forever`] does, then returns — the deterministic
    /// accept loop the integration tests drive.
    pub fn serve_n(&self, n: usize) -> Result<()> {
        for _ in 0..n {
            let (mut stream, _peer) = self
                .listener
                .accept()
                .map_err(|e| LabError::Io(format!("accepting connection: {e}")))?;
            serve_connection(&self.service, &mut stream);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    #[test]
    fn stats_bytes_are_pinned() {
        let service = Service::start(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let fresh = String::from_utf8(stats_body(&service)).unwrap();
        assert_eq!(
            fresh,
            r#"{
  "executed": 0,
  "coalesced": 0,
  "panics": 0,
  "cache": {
    "graph_hits": 0,
    "graph_misses": 0,
    "graph_coalesced": 0,
    "graph_evictions": 0,
    "solution_hits": 0,
    "solution_misses": 0,
    "solution_disk_hits": 0,
    "solution_evictions": 0
  }
}
"#
        );
        let spec = ScenarioSpec::from_json(
            r#"{"name":"stats","source":{"Hypercube":{"dim":3}},
                "task":{"Measure":{"notion":"Wireless","fast":true}},"trials":1,"seed":7}"#,
            "stats test",
        )
        .unwrap();
        let (response, _) = service.run(spec).unwrap();
        assert!(response.outcome.is_ok());
        service.stop();
        let after = String::from_utf8(stats_body(&service)).unwrap();
        assert_eq!(
            after,
            r#"{
  "executed": 1,
  "coalesced": 0,
  "panics": 0,
  "cache": {
    "graph_hits": 0,
    "graph_misses": 1,
    "graph_coalesced": 0,
    "graph_evictions": 0,
    "solution_hits": 0,
    "solution_misses": 0,
    "solution_disk_hits": 0,
    "solution_evictions": 0
  }
}
"#
        );
    }
}

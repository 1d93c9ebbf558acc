//! End-to-end tests for the scenario service: the serving determinism
//! contract (serve bytes == batch bytes, cold and warm, any worker
//! count), request coalescing, eviction-pressure determinism, the
//! stdin-jsonl session protocol, and the HTTP front end.

use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};

use wx_core::spokesman::SolverKind;
use wx_lab::runner::Runner;
use wx_lab::source::GraphSource;
use wx_lab::spec::{ScenarioSpec, Task};
use wx_lab::CacheConfig;
use wx_serve::jsonl;
use wx_serve::{HttpServer, ServeConfig, Service};

fn spokesman_spec(name: &str, n: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        description: String::new(),
        source: GraphSource::RandomRegular { n, d: 4 },
        task: Task::Spokesman {
            set_size: n / 4,
            solvers: Some(vec![SolverKind::GreedyMinDegree, SolverKind::Partition]),
        },
        trials: 3,
        seed,
    }
}

fn measure_spec(name: &str, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        description: String::new(),
        source: GraphSource::Hypercube { dim: 4 },
        task: Task::Measure {
            notion: wx_core::expansion::engine::NotionKind::Wireless,
            alpha: None,
            exact_up_to: None,
            fast: Some(true),
        },
        trials: 2,
        seed,
    }
}

fn report(service: &Service, spec: &ScenarioSpec) -> String {
    let (response, _) = service.run(spec.clone()).unwrap();
    response.outcome.clone().unwrap()
}

#[test]
fn serve_bytes_match_batch_cold_and_warm_across_worker_counts() {
    let spec = spokesman_spec("serve-vs-batch", 48, 11);
    let batch = Runner::new().run(&spec).unwrap().to_json();
    for workers in [1usize, 4] {
        let service = Service::start(&ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let cold = report(&service, &spec);
        let warm = report(&service, &spec);
        service.stop();
        assert_eq!(cold, batch, "cold serve bytes diverged (workers={workers})");
        assert_eq!(warm, batch, "warm serve bytes diverged (workers={workers})");
        let stats = service.stats().cache;
        assert!(stats.graph_hits > 0, "warm run should hit the graph cache");
        assert!(
            stats.solution_hits > 0,
            "warm run should hit the solution cache"
        );
    }
}

#[test]
fn identical_inflight_requests_coalesce_to_one_execution() {
    let spec = measure_spec("coalesce", 5);
    // No workers yet: all submissions happen while the first is
    // in-flight, making the coalescing deterministic.
    let service = Service::new(&ServeConfig::default());
    let jobs: Vec<_> = (0..6)
        .map(|_| service.submit(spec.clone()).unwrap())
        .collect();
    assert!(!jobs[0].1, "first submission cannot coalesce");
    assert!(
        jobs[1..].iter().all(|(_, coalesced)| *coalesced),
        "later identical submissions must coalesce"
    );
    service.start_workers(1);
    let reports: Vec<String> = jobs
        .iter()
        .map(|(job, _)| service.wait(job).outcome.clone().unwrap())
        .collect();
    service.stop();
    let stats = service.stats();
    assert_eq!(stats.executed, 1, "one execution serves all requests");
    assert_eq!(stats.coalesced, 5);
    assert!(reports.iter().all(|r| r == &reports[0]));
    assert_eq!(reports[0], Runner::new().run(&spec).unwrap().to_json());
}

#[test]
fn distinct_requests_do_not_coalesce() {
    let service = Service::new(&ServeConfig::default());
    let (_, c1) = service.submit(measure_spec("a", 5)).unwrap();
    let (_, c2) = service.submit(measure_spec("b", 5)).unwrap();
    let (_, c3) = service.submit(measure_spec("a", 6)).unwrap();
    assert!(!c1 && !c2 && !c3);
    service.start_workers(2);
    service.stop();
}

#[test]
fn eviction_pressure_does_not_change_report_bytes() {
    // Budgets far below one graph / one solution: every request evicts,
    // nothing is ever warm — bytes must not care.
    let spec = spokesman_spec("evict", 32, 3);
    let batch = Runner::new().run(&spec).unwrap().to_json();
    let service = Service::start(&ServeConfig {
        workers: 2,
        cache: CacheConfig {
            graph_budget_bytes: Some(64),
            solution_budget_bytes: Some(64),
            persist_dir: None,
        },
    });
    let first = report(&service, &spec);
    let second = report(&service, &spec);
    service.stop();
    assert_eq!(first, batch);
    assert_eq!(second, batch);
    let stats = service.stats().cache;
    assert!(
        stats.graph_evictions > 0 || stats.solution_evictions > 0,
        "tiny budgets should force evictions (got {stats:?})"
    );
}

#[test]
fn jsonl_session_answers_in_order_and_writes_raw_reports() {
    let spec_a = measure_spec("jsonl-a", 9);
    let spec_b = measure_spec("jsonl-b", 10);
    let batch_a = Runner::new().run(&spec_a).unwrap().to_json();
    let batch_b = Runner::new().run(&spec_b).unwrap().to_json();

    let input = format!(
        "# two identical requests, then a distinct one, then garbage\n\
         {{\"id\": 1, \"spec\": {}}}\n\
         {{\"id\": 2, \"spec\": {}}}\n\
         {{\"id\": 3, \"spec\": {}}}\n\
         not json at all\n",
        serde_json::to_string(&spec_a).unwrap(),
        serde_json::to_string(&spec_a).unwrap(),
        serde_json::to_string(&spec_b).unwrap(),
    );
    let out_dir = std::env::temp_dir().join("wx_serve_jsonl_test");
    let _ = std::fs::remove_dir_all(&out_dir);

    let service = Service::start(&ServeConfig::default());
    let mut output = Vec::new();
    let failures = jsonl::run_session(
        &service,
        &mut Cursor::new(input.into_bytes()),
        &mut output,
        Some(&out_dir),
    )
    .unwrap();
    service.stop();
    assert_eq!(failures, 1, "the garbage line fails, nothing else");

    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    for (line, id) in lines.iter().zip([1u64, 2, 3, 5]) {
        let envelope: serde::Value = serde_json::from_str(line).unwrap();
        assert_eq!(envelope.get("id").and_then(|v| v.as_u64()), Some(id));
    }
    let ok_of = |line: &str| {
        let envelope: serde::Value = serde_json::from_str(line).unwrap();
        envelope.get("ok").and_then(|v| v.as_bool()).unwrap()
    };
    assert!(ok_of(lines[0]) && ok_of(lines[1]) && ok_of(lines[2]));
    assert_eq!(
        lines[3],
        r#"{"id":5,"ok":false,"error":"JSON error in request line 5: invalid literal at byte 0"}"#
    );

    // Raw report files carry the exact batch bytes.
    let raw_1 = std::fs::read_to_string(out_dir.join("1.json")).unwrap();
    let raw_2 = std::fs::read_to_string(out_dir.join("2.json")).unwrap();
    let raw_3 = std::fs::read_to_string(out_dir.join("3.json")).unwrap();
    assert_eq!(raw_1, batch_a);
    assert_eq!(raw_2, batch_a);
    assert_eq!(raw_3, batch_b);
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn persist_dir_is_created_and_an_unusable_one_is_refused() {
    use std::process::{Command, Stdio};
    let wx = env!("CARGO_BIN_EXE_wx");
    let root = std::env::temp_dir().join("wx_serve_persist_test");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // A directory that does not exist yet is created and receives the
    // solution artifacts of a Spokesman request.
    let dir = root.join("fresh").join("persist");
    let mut child = Command::new(wx)
        .args(["serve", "--stdin", "--workers", "1", "--persist"])
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning wx");
    let request = serde_json::to_string(&spokesman_spec("persist", 48, 5)).unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(format!("{request}\n").as_bytes())
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let artifacts = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy().ends_with(".wxsol.json")
        })
        .count();
    assert!(artifacts > 0, "no .wxsol.json written to {}", dir.display());

    // A regular file where the directory should be fails the command, and
    // the error names the path.
    let file = root.join("not-a-dir");
    std::fs::write(&file, "x").unwrap();
    let output = Command::new(wx)
        .args(["serve", "--stdin", "--persist"])
        .arg(&file)
        .stdin(Stdio::null())
        .output()
        .expect("spawning wx");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(&file.display().to_string()), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_usage_error_leaves_no_persist_dir_behind() {
    let wx = env!("CARGO_BIN_EXE_wx");
    let root = std::env::temp_dir().join("wx_serve_persist_usage_test");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let dir = root.join("fresh");
    // a listener on an address `wx` then fails to bind: a runtime error
    // (exit 1), which must leave nothing behind either
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = listener.local_addr().unwrap().to_string();
    for (flags, code) in [
        (&[][..], 2),
        (&["--stdin", "--http", "127.0.0.1:0"], 2),
        (&["--stdin", "--graph-cache-bytes", "lots"], 2),
        (&["--stdin", "stray-positional"], 2),
        (&["--http", "not-an-addr"], 2),
        (&["--http", taken.as_str()], 1),
    ] {
        let output = std::process::Command::new(wx)
            .arg("serve")
            .args(flags)
            .arg("--persist")
            .arg(&dir)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawning wx");
        assert_eq!(output.status.code(), Some(code), "{flags:?}");
        assert!(!dir.exists(), "{flags:?} left {} behind", dir.display());
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn jsonl_rejects_an_oversized_exact_solve_and_serves_the_next_line() {
    // `Exact` on |S| = 30 used to trip the solver's MAX_LEFT assertion
    // inside a worker, which never answered; validation now rejects it.
    let mut oversized = spokesman_spec("jsonl-exact", 120, 3);
    oversized.task = Task::Spokesman {
        set_size: 30,
        solvers: Some(vec![SolverKind::Exact]),
    };
    let next = measure_spec("jsonl-after-exact", 4);
    // Between them, a line one byte over the 16 MiB cap and a line that is
    // not UTF-8: each answers an error envelope under its line number, and
    // the session goes on.
    let mut input = format!(
        "{{\"id\": 1, \"spec\": {}}}\n",
        serde_json::to_string(&oversized).unwrap()
    )
    .into_bytes();
    input.extend(std::iter::repeat_n(b'x', (16 << 20) + 1));
    input.extend_from_slice(b"\n\xff\n");
    input.extend_from_slice(
        format!(
            "{{\"id\": 4, \"spec\": {}}}\n",
            serde_json::to_string(&next).unwrap()
        )
        .as_bytes(),
    );
    let service = Service::start(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut output = Vec::new();
    let failures =
        jsonl::run_session(&service, &mut Cursor::new(input), &mut output, None).unwrap();
    service.stop();
    assert_eq!(failures, 3);

    let text = String::from_utf8(output).unwrap();
    let envelopes: Vec<serde::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    assert_eq!(envelopes.len(), 4);
    let rejected = &envelopes[0];
    assert_eq!(rejected.get("id").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(rejected.get("ok").and_then(|v| v.as_bool()), Some(false));
    let error = rejected.get("error").and_then(|v| v.as_str()).unwrap();
    assert!(error.contains("ExactSolver::MAX_LEFT"), "{error}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[1..3],
        [
            r#"{"id":2,"ok":false,"error":"JSON error in request line 2: longer than 16 MiB"}"#,
            r#"{"id":3,"ok":false,"error":"JSON error in request line 3: not UTF-8"}"#,
        ]
    );
    assert_eq!(envelopes[3].get("id").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(envelopes[3].get("ok").and_then(|v| v.as_bool()), Some(true));
    let batch = Runner::new().run(&next).unwrap().to_json();
    assert_eq!(
        envelopes[3].get("report").and_then(|v| v.as_str()),
        Some(batch.as_str())
    );
}

#[test]
fn jsonl_rejects_bad_source_parameters_and_bad_bytes_before_queueing() {
    let mut bad_grid = measure_spec("jsonl-bad-grid", 1);
    bad_grid.source = GraphSource::Grid { rows: 0, cols: 5 };
    let input = format!(
        "{{\"id\": 1, \"spec\": {}}}\nxyz\n",
        serde_json::to_string(&bad_grid).unwrap()
    );
    let service = Service::start(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut output = Vec::new();
    let failures = jsonl::run_session(
        &service,
        &mut Cursor::new(input.into_bytes()),
        &mut output,
        None,
    )
    .unwrap();
    assert_eq!(failures, 2);
    assert_eq!(service.stats().executed, 0, "nothing was queued");
    service.stop();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        [
            r#"{"id":1,"ok":false,"error":"invalid scenario: source: invalid parameter: grid dimensions must be positive"}"#,
            r#"{"id":2,"ok":false,"error":"JSON error in request line 2: unexpected `x` at byte 0"}"#,
        ]
    );
}

#[test]
fn http_round_trip_serves_batch_bytes_and_telemetry_headers() {
    let spec = measure_spec("http", 21);
    let batch = Runner::new().run(&spec).unwrap().to_json();

    let service = Service::start(&ServeConfig::default());
    let server = HttpServer::new(TcpListener::bind("127.0.0.1:0").unwrap(), service);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_n(4).unwrap());

    let request = |method: &str, path: &str, body: &str| -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, response_body) = raw.split_once("\r\n\r\n").unwrap();
        (head.to_string(), response_body.to_string())
    };

    let (head, body) = request("GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "healthz head: {head}");
    assert_eq!(body, "ok\n");

    let spec_json = serde_json::to_string(&spec).unwrap();
    let (head, body) = request("POST", "/run", &spec_json);
    assert!(head.starts_with("HTTP/1.1 200"), "run head: {head}");
    assert!(head.contains("X-Wx-Run-Us:"), "missing telemetry: {head}");
    assert!(head.contains("X-Wx-Coalesced: false"));
    assert_eq!(body, batch, "HTTP body must be the exact batch bytes");

    // Warm repeat: identical bytes again, now with cache hits.
    let (head, body) = request("POST", "/run", &spec_json);
    assert!(head.starts_with("HTTP/1.1 200"));
    assert_eq!(body, batch);

    let (head, body) = request("GET", "/stats", "");
    assert!(head.starts_with("HTTP/1.1 200"), "stats head: {head}");
    let stats: serde::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(stats.get("executed").and_then(|v| v.as_u64()), Some(2));

    handle.join().unwrap();
}

#[test]
fn http_rejects_bad_routes_and_bodies() {
    let service = Service::start(&ServeConfig::default());
    let server = HttpServer::new(TcpListener::bind("127.0.0.1:0").unwrap(), service);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_n(3).unwrap());

    let request = |payload: String| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(payload.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    };

    let raw = request("GET /nope HTTP/1.1\r\n\r\n".to_string());
    assert!(raw.starts_with("HTTP/1.1 404"), "got: {raw}");

    let raw = request("DELETE /run HTTP/1.1\r\n\r\n".to_string());
    assert!(raw.starts_with("HTTP/1.1 405"), "got: {raw}");

    let body = "{\"name\": \"broken\"}";
    let raw = request(format!(
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert!(raw.starts_with("HTTP/1.1 400"), "got: {raw}");

    handle.join().unwrap();
}

#[test]
fn http_answers_bad_content_lengths_from_the_head() {
    let service = Service::start(&ServeConfig::default());
    let server = HttpServer::new(TcpListener::bind("127.0.0.1:0").unwrap(), service);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_n(5).unwrap());

    // Heads only: a rejected request's body is never read.
    let request = |method: &str, content_length: &str| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} /healthz HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    };

    // An unparsable length used to read as 0, so this GET answered 200.
    for length in ["twelve", "-1", "99999999999999999999999"] {
        let raw = request("GET", length);
        assert!(raw.starts_with("HTTP/1.1 400"), "{length:?} got: {raw}");
        assert!(raw.ends_with("invalid Content-Length\n"), "got: {raw}");
    }

    // One byte over the 16 MiB cap: 413 without waiting for the body (an
    // oversized body used to be served as an empty one).
    let raw = request("POST", &((16 << 20) + 1).to_string());
    assert!(
        raw.starts_with("HTTP/1.1 413 Payload Too Large"),
        "got: {raw}"
    );

    // ... and the server keeps answering.
    let raw = request("GET", "0");
    assert!(raw.starts_with("HTTP/1.1 200"), "got: {raw}");

    handle.join().unwrap();
}

#[test]
fn http_413_reaches_a_client_that_is_still_sending() {
    let service = Service::start(&ServeConfig::default());
    let server = HttpServer::new(TcpListener::bind("127.0.0.1:0").unwrap(), service);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_n(1).unwrap());

    // The head claims more than the 16 MiB cap, and 1 MiB of body follows
    // it. The server used to close with that body unread, which reset the
    // connection under the answer.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        (16 << 20) + 1
    )
    .unwrap();
    stream.write_all(&vec![b'x'; 1 << 20]).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 413 Payload Too Large"),
        "got: {raw}"
    );
    assert!(raw.ends_with("request body exceeds 16 MiB\n"), "got: {raw}");
    drop(stream);

    handle.join().unwrap();
}

#[test]
fn http_short_body_ends_only_its_own_connection() {
    let service = Service::start(&ServeConfig::default());
    let server = HttpServer::new(TcpListener::bind("127.0.0.1:0").unwrap(), service);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_n(2).unwrap());

    // The head declares the 16 MiB cap, 10 bytes follow, and the client
    // stops sending: the body is never complete, so no 200 comes back.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n0123456789",
        16 << 20
    )
    .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    assert!(!raw.starts_with("HTTP/1.1 200"), "got: {raw}");
    drop(stream);

    // The next well-formed request is still answered.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "got: {raw}");
    assert!(raw.ends_with("ok\n"), "got: {raw}");

    handle.join().unwrap();
}

#[test]
fn wx_list_output_is_pinned() {
    // The registry's 16 entries in order, with kinds and titles, then the
    // source catalog: `wx list` is a user-facing surface, so its bytes are
    // pinned like report bytes.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wx"))
        .arg("list")
        .output()
        .expect("spawning wx");
    assert!(out.status.success(), "{out:?}");
    let expected = include_str!("golden/wx_list.stdout");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    assert_eq!(expected.lines().count(), 41);
}

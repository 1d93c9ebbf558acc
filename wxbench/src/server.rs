//! The server under test: building the `wx` binary from the checkout,
//! spawning `wx serve --http` with the pinned settings, a one-connection
//! HTTP/1.1 client, and the server's CPU and memory from `/proc`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Byte budget for resident built graphs: the `solve` stream overflows
/// it, every other workload's reused instances fit.
pub const GRAPH_CACHE_BYTES: u64 = 8 << 20;
/// Byte budget for resident spokesman solutions.
pub const SOLUTION_CACHE_BYTES: u64 = 2 << 20;
/// Server worker threads.
pub const WORKERS: usize = 1;
/// Rayon threads, in the server and in the in-process replay.
pub const RAYON_THREADS: &str = "1";

/// `sysconf(_SC_CLK_TCK)`, the unit of `/proc` CPU times: 100 on every
/// Linux ABI.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Longest a single request may take before the run is abandoned.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Where cargo puts build outputs: `CARGO_TARGET_DIR`, else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Where [`build_wx`] leaves the `wx` binary.
pub fn wx_path() -> PathBuf {
    target_dir().join("release").join("wx")
}

/// The highest CPU this process may run on (`Cpus_allowed_list`); the
/// lowest tends to take more of the machine's interrupts.
pub fn last_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit([',', '-']).next()?;
    last.parse::<usize>().ok().map(|cpu| cpu.to_string())
}

/// Builds the `wx` binary of the checkout in the working directory and
/// returns its path.
pub fn build_wx() -> Result<PathBuf, String> {
    if !Path::new("crates/serve/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/serve/Cargo.toml not found".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "wx-serve",
            "--bin",
            "wx",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of wx failed: {status}"));
    }
    Ok(wx_path())
}

/// A running `wx serve --http` process; killed and reaped on drop.
pub struct Server {
    child: Child,
    stderr_pump: Option<JoinHandle<()>>,
    /// The bound `host:port`.
    pub addr: String,
}

impl Server {
    /// Spawns the server with the pinned settings and blocks until it
    /// prints its `listening` line.
    pub fn spawn(wx: &Path) -> Result<Server, String> {
        let mut child = Command::new(wx)
            .args([
                "serve",
                "--http",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
                "--graph-cache-bytes",
                &GRAPH_CACHE_BYTES.to_string(),
                "--solution-cache-bytes",
                &SOLUTION_CACHE_BYTES.to_string(),
            ])
            .env("RAYON_NUM_THREADS", RAYON_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", wx.display()))?;
        let Some(stderr) = child.stderr.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stderr was not captured".into());
        };
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().split("listening on http://").nth(1) {
                break rest.to_string();
            }
        };
        // Keep draining the server's stderr so it can never block on a
        // full pipe; the pump ends when the process does.
        let stderr_pump = std::thread::spawn(move || {
            let mut sink = std::io::stderr();
            let _ = std::io::copy(&mut lines, &mut sink);
        });
        Ok(Server {
            child,
            stderr_pump: Some(stderr_pump),
            addr,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the server has used so far, counting
    /// its exited connection threads.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("reading /proc stat: {e}"))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let after = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_SECOND)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Stops the server and waits for it and its stderr pump to end.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(pump) = self.stderr_pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One HTTP exchange as the client saw it.
pub struct Exchange {
    /// Status code.
    pub status: u16,
    /// Response headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
    /// Connect to last response byte.
    pub seconds: f64,
}

impl Exchange {
    /// A header value parsed as a number.
    pub fn header_u64(&self, name: &str) -> Option<u64> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
    }
}

/// Sends one request on a fresh connection (the server closes every
/// connection after its response) and reads the whole response.
pub fn exchange(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Exchange, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("configuring socket: {e}"))?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream
        .write_all(&request)
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    parse_response(&raw, seconds)
}

fn parse_response(raw: &[u8], seconds: f64) -> Result<Exchange, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Exchange {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
        seconds,
    })
}

/// Runs `wx run SPEC --out OUT` and returns the report bytes it wrote.
pub fn batch_report(wx: &Path, work: &Path, tag: &str, spec_json: &str) -> Result<Vec<u8>, String> {
    let spec_path = work.join(format!("{tag}.spec.json"));
    let out_path = work.join(format!("{tag}.report.json"));
    std::fs::write(&spec_path, spec_json).map_err(|e| format!("writing spec: {e}"))?;
    let output = Command::new(wx)
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(&out_path)
        .env("RAYON_NUM_THREADS", RAYON_THREADS)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("running wx run: {e}"))?;
    if !output.success() {
        return Err(format!("wx run {tag} failed: {output}"));
    }
    let bytes = std::fs::read(&out_path).map_err(|e| format!("reading batch report: {e}"))?;
    let _ = std::fs::remove_file(&spec_path);
    let _ = std::fs::remove_file(&out_path);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_split_into_status_headers_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nX-Wx-Run-Us: 42\r\nContent-Length: 2\r\n\r\n{}";
        let ex = parse_response(raw, 0.5).unwrap();
        assert_eq!(ex.status, 200);
        assert_eq!(ex.header_u64("x-wx-run-us"), Some(42));
        assert_eq!(ex.body, b"{}");
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n", 0.0).is_err());
    }
}

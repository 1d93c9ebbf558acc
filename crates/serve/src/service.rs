//! The request loop: a bounded worker pool over a shared artifact cache,
//! with submission-time request coalescing.
//!
//! # Coalescing
//!
//! Requests are keyed by [`canon::spec_key`] — the content address of the
//! whole parsed spec. Submission consults the in-flight table
//! first: if an identical request is queued or executing, the new
//! submission *attaches* to it instead of enqueuing, so N identical
//! concurrent requests cost one execution and produce N identical
//! responses. The decision happens at submission (not at dequeue), which
//! makes the "N → 1" guarantee independent of worker timing. Completed
//! jobs leave the in-flight table; a later identical request re-executes
//! — against a warm cache, so it pays view-extraction, not solver time.
//!
//! # Determinism
//!
//! A job executes exactly the batch pipeline
//! ([`Runner::run_ctx`](wx_lab::runner::Runner::run_ctx)) with the
//! service's [`ArtifactCache`] attached; report bytes are the batch
//! path's bytes, regardless of worker count, queue order, or cache
//! state. Wall-clock serving telemetry (queue/run time, cache-hit
//! deltas) lives in the response *envelope*, never in the report — that
//! is what keeps the report byte-deterministic while still exposing
//! per-request metrics.
//!
//! # Panics
//!
//! A job that panics answers with an error response like any failed
//! request: the panic is caught around the job's execution, counted in
//! [`ServiceStats::panics`], and its key leaves the in-flight table, so neither
//! its waiters nor later identical requests hang on it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use wx_lab::cache::{ArtifactCache, CacheConfig, CacheStats, RunContext};
use wx_lab::canon;
use wx_lab::runner::Runner;
use wx_lab::spec::ScenarioSpec;
use wx_lab::Result;
use wx_trace::Clock;

/// Configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing requests ([`Service::start`] spawns them).
    pub workers: usize,
    /// Artifact-cache budgets and persistence.
    pub cache: CacheConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            cache: CacheConfig::default(),
        }
    }
}

/// What one request produced: the report (or error) plus the serving
/// telemetry for the response envelope.
#[derive(Debug)]
pub struct Response {
    /// The scenario name, echoed for envelope consumers.
    pub name: String,
    /// The report's exact pretty-JSON bytes, or the execution error.
    pub outcome: std::result::Result<String, String>,
    /// Microseconds between submission and execution start.
    pub queue_us: u64,
    /// Microseconds of execution.
    pub run_us: u64,
    /// Cache activity observed while this request executed (a delta of
    /// the service-wide stats; concurrent requests' activity can bleed
    /// into each other's deltas, the cumulative totals are exact).
    pub cache: CacheStats,
}

/// Cumulative service counters at one instant.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct ServiceStats {
    /// Requests actually executed (coalesced attachments excluded).
    pub executed: u64,
    /// Submissions that attached to an in-flight identical request.
    pub coalesced: u64,
    /// Executed requests that panicked (each answered with an error).
    pub panics: u64,
    /// Cumulative cache activity.
    pub cache: CacheStats,
}

/// One submitted request; identical in-flight submissions share one `Job`.
pub struct Job {
    key: u64,
    spec: ScenarioSpec,
    queued: Clock,
    state: Mutex<Option<Arc<Response>>>,
    done: Condvar,
}

struct ServiceInner {
    cache: ArtifactCache,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_ready: Condvar,
    inflight: Mutex<BTreeMap<u64, Arc<Job>>>,
    shutdown: AtomicBool,
    executed: AtomicU64,
    coalesced: AtomicU64,
    panics: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f`, turning a panic into `Err` carrying the panic message.
fn catch_panic<T>(f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    wx_lab::error::catch_panic(f)
        .map_err(|message| format!("internal error: the request panicked: {message}"))
}

impl ServiceInner {
    fn execute(&self, job: &Arc<Job>) {
        let queue_us = job.queued.elapsed().as_micros() as u64;
        let before = self.cache.stats();
        let run = Clock::start();
        let ctx = RunContext {
            graphs: Some(&self.cache),
            solutions: Some(&self.cache),
        };
        let outcome = catch_panic(|| {
            Runner::new()
                .run_ctx(&job.spec, &ctx)
                .map(|report| report.to_json())
                .map_err(|e| e.to_string())
        })
        .unwrap_or_else(|panic| {
            self.panics.fetch_add(1, Ordering::SeqCst);
            Err(panic)
        });
        let response = Arc::new(Response {
            name: job.spec.name.clone(),
            outcome,
            queue_us,
            run_us: run.elapsed().as_micros() as u64,
            cache: self.cache.stats().delta_since(&before),
        });
        self.executed.fetch_add(1, Ordering::SeqCst);
        // Leave the in-flight table *before* publishing, so a submission
        // racing with completion either attaches to this finished job or
        // opens a fresh one — never observes a key with no job.
        lock(&self.inflight).remove(&job.key);
        let mut slot = lock(&job.state);
        *slot = Some(response);
        job.done.notify_all();
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .queue_ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.execute(&job);
        }
    }
}

/// A running scenario service (cheaply cloneable handle).
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Creates a service with **no workers running** — submissions queue
    /// but nothing executes until [`Service::start_workers`]. The
    /// coalescing tests use this to make "N identical submissions → one
    /// execution" deterministic rather than timing-dependent.
    #[must_use]
    pub fn new(config: &ServeConfig) -> Service {
        Service {
            inner: Arc::new(ServiceInner {
                cache: ArtifactCache::new(config.cache.clone()),
                queue: Mutex::new(VecDeque::new()),
                queue_ready: Condvar::new(),
                inflight: Mutex::new(BTreeMap::new()),
                shutdown: AtomicBool::new(false),
                executed: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                panics: AtomicU64::new(0),
            }),
        }
    }

    /// [`Service::new`] plus `config.workers` started workers.
    #[must_use]
    pub fn start(config: &ServeConfig) -> Service {
        let service = Service::new(config);
        service.start_workers(config.workers);
        service
    }

    /// Spawns `n` worker threads draining the queue until
    /// [`Service::stop`].
    pub fn start_workers(&self, n: usize) {
        for _ in 0..n.max(1) {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || inner.worker_loop());
        }
    }

    /// Asks workers to exit once the queue drains. Queued jobs still
    /// execute; new submissions still enqueue (callers stop submitting
    /// before stopping).
    pub fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_ready.notify_all();
    }

    /// Submits a request. Returns the job plus whether it *coalesced*
    /// onto an identical in-flight request (true = no new execution was
    /// scheduled). The job key hashes the parsed spec, so field order
    /// and whitespace in the original JSON never split executions.
    pub fn submit(&self, spec: ScenarioSpec) -> Result<(Arc<Job>, bool)> {
        let key = canon::spec_key(&spec)?;
        let mut inflight = lock(&self.inner.inflight);
        if let Some(job) = inflight.get(&key) {
            self.inner.coalesced.fetch_add(1, Ordering::SeqCst);
            return Ok((Arc::clone(job), true));
        }
        let job = Arc::new(Job {
            key,
            spec,
            queued: Clock::start(),
            state: Mutex::new(None),
            done: Condvar::new(),
        });
        inflight.insert(key, Arc::clone(&job));
        drop(inflight);
        lock(&self.inner.queue).push_back(Arc::clone(&job));
        self.inner.queue_ready.notify_one();
        Ok((job, false))
    }

    /// Blocks until `job` completes and returns its response.
    #[must_use]
    pub fn wait(&self, job: &Job) -> Arc<Response> {
        let mut slot = lock(&job.state);
        loop {
            if let Some(response) = slot.as_ref() {
                return Arc::clone(response);
            }
            slot = job.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Submit-and-wait for in-process callers (HTTP handler, bench).
    pub fn run(&self, spec: ScenarioSpec) -> Result<(Arc<Response>, bool)> {
        let (job, coalesced) = self.submit(spec)?;
        Ok((self.wait(&job), coalesced))
    }

    /// A snapshot of the cumulative counters (what `GET /stats` serves).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            executed: self.inner.executed.load(Ordering::SeqCst),
            coalesced: self.inner.coalesced.load(Ordering::SeqCst),
            panics: self.inner.panics.load(Ordering::SeqCst),
            cache: self.inner.cache.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::catch_panic;

    #[test]
    fn catch_panic_turns_a_panic_into_an_error() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        let err = catch_panic(|| -> u32 { panic!("boom {}", 3) }).unwrap_err();
        assert!(err.contains("boom 3"), "{err}");
        let err = catch_panic(|| -> u32 { panic!("static message") }).unwrap_err();
        assert!(err.contains("static message"), "{err}");
    }
}

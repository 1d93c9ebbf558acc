//! Per-thread span/event ring buffers behind a global registry.
//!
//! Recording is designed for the hot path: one relaxed atomic load
//! when tracing is disabled, and no allocation once a thread's buffer
//! is warm — spans and events land in fixed-capacity rings that
//! overwrite their oldest entry on overflow (counting what they drop).
//! Alongside the rings each thread keeps *phase totals* — `(name,
//! count, total_nanos)` per span name — which are immune to ring
//! overflow and power `wx profile`'s phase-time table.

use crate::clock;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A completed span as drained by [`take_trace`](crate::take_trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, e.g. `"lab.trial"`.
    pub name: &'static str,
    /// Registration index of the recording thread.
    pub tid: u32,
    /// Nesting depth at record time (0 = top level on its thread).
    pub depth: u32,
    /// Start offset from the trace epoch, in nanoseconds.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
}

/// An instantaneous valued event (e.g. a best-so-far coverage point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Static event name, e.g. `"spokesman.coverage"`.
    pub name: &'static str,
    /// Registration index of the recording thread.
    pub tid: u32,
    /// Offset from the trace epoch, in nanoseconds.
    pub ts_nanos: u64,
    /// The value carried by the event.
    pub value: u64,
}

/// Aggregated wall-clock total for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Span name.
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Sum of their durations in nanoseconds.
    pub total_nanos: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Default per-thread ring capacity (spans and events each).
pub const DEFAULT_CAPACITY: usize = 32 * 1024;

struct BufferInner {
    spans: Vec<SpanRecord>,
    span_next: usize,
    events: Vec<EventRecord>,
    event_next: usize,
    dropped: u64,
    phases: Vec<PhaseTotal>,
    capacity: usize,
}

struct ThreadBuffer {
    tid: u32,
    inner: Mutex<BufferInner>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: OnceLock<Arc<ThreadBuffer>> = const { OnceLock::new() };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn local_buffer() -> Arc<ThreadBuffer> {
    LOCAL.with(|slot| {
        Arc::clone(slot.get_or_init(|| {
            let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            let capacity = CAPACITY.load(Ordering::Relaxed).max(1);
            let buf = Arc::new(ThreadBuffer {
                tid: reg.len() as u32,
                inner: Mutex::new(BufferInner {
                    spans: Vec::with_capacity(capacity.min(1024)),
                    span_next: 0,
                    events: Vec::new(),
                    event_next: 0,
                    dropped: 0,
                    phases: Vec::new(),
                    capacity,
                }),
            });
            reg.push(Arc::clone(&buf));
            buf
        }))
    })
}

/// Turns recording on. The trace epoch is pinned at the first call of
/// the process and never reset, so timestamps stay monotone across
/// enable/disable cycles.
pub fn enable() {
    let _ = EPOCH.get_or_init(clock::raw_now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-recorded data stays buffered until
/// drained.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `true` while spans and events are being recorded.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the ring capacity used by threads that have not yet recorded
/// anything. Existing per-thread buffers keep their capacity — tests
/// exercising overflow should set this, then record from a fresh
/// thread.
#[cfg(test)]
pub(crate) fn set_thread_buffer_capacity(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

fn epoch_nanos(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(clock::raw_now);
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// An RAII span: records `(name, depth, start, duration)` when
/// dropped, if tracing was enabled when it was created.
#[must_use = "a span measures the scope it is bound to; bind it to a named local"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span. One relaxed atomic load when tracing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    let start = if is_enabled() {
        DEPTH.with(|d| d.set(d.get().saturating_add(1)));
        Some(clock::raw_now())
    } else {
        None
    };
    SpanGuard { name, start }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_nanos = start.elapsed().as_nanos() as u64;
        let depth = DEPTH.with(|d| {
            let v = d.get().saturating_sub(1);
            d.set(v);
            v
        });
        let buf = local_buffer();
        let mut inner = buf.inner.lock().unwrap_or_else(|e| e.into_inner());
        let record = SpanRecord {
            name: self.name,
            tid: buf.tid,
            depth,
            start_nanos: epoch_nanos(start),
            dur_nanos,
        };
        if let Some(phase) = inner.phases.iter_mut().find(|p| p.name == self.name) {
            phase.count += 1;
            phase.total_nanos = phase.total_nanos.saturating_add(dur_nanos);
        } else {
            inner.phases.push(PhaseTotal {
                name: self.name,
                count: 1,
                total_nanos: dur_nanos,
            });
        }
        if inner.spans.len() < inner.capacity {
            inner.spans.push(record);
        } else {
            let slot = inner.span_next % inner.capacity;
            inner.spans[slot] = record;
            inner.span_next = slot + 1;
            inner.dropped += 1;
        }
    }
}

/// Records an instantaneous valued event (no-op while disabled).
pub fn event_value(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let ts_nanos = epoch_nanos(clock::raw_now());
    let buf = local_buffer();
    let mut inner = buf.inner.lock().unwrap_or_else(|e| e.into_inner());
    let record = EventRecord {
        name,
        tid: buf.tid,
        ts_nanos,
        value,
    };
    if inner.events.len() < inner.capacity {
        inner.events.push(record);
    } else {
        let slot = inner.event_next % inner.capacity;
        inner.events[slot] = record;
        inner.event_next = slot + 1;
        inner.dropped += 1;
    }
}

/// Everything drained from every thread's buffers.
#[derive(Debug, Default)]
pub struct Drained {
    /// All spans, sorted by start time then thread.
    pub spans: Vec<SpanRecord>,
    /// All events, sorted by timestamp then thread.
    pub events: Vec<EventRecord>,
    /// Phase totals merged across threads, sorted by name.
    pub phases: Vec<PhaseTotal>,
    /// Records lost to ring overflow (phase totals still include them).
    pub dropped: u64,
}

/// Drains and resets every registered thread buffer.
pub fn drain_all() -> Drained {
    let buffers: Vec<Arc<ThreadBuffer>> = registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    let mut out = Drained::default();
    for buf in buffers {
        let mut inner = buf.inner.lock().unwrap_or_else(|e| e.into_inner());
        out.spans.append(&mut inner.spans);
        out.events.append(&mut inner.events);
        inner.span_next = 0;
        inner.event_next = 0;
        out.dropped += inner.dropped;
        inner.dropped = 0;
        for phase in inner.phases.drain(..) {
            if let Some(merged) = out.phases.iter_mut().find(|p| p.name == phase.name) {
                merged.count += phase.count;
                merged.total_nanos = merged.total_nanos.saturating_add(phase.total_nanos);
            } else {
                out.phases.push(phase);
            }
        }
    }
    out.spans.sort_by_key(|s| (s.start_nanos, s.tid, s.depth));
    out.events.sort_by_key(|e| (e.ts_nanos, e.tid));
    out.phases.sort_by_key(|p| p.name);
    out
}

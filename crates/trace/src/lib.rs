//! wx-trace: dependency-free tracing, deterministic counters, and the
//! workspace's sanctioned wall-clock.
//!
//! The workspace has a hard rule (machine-checked by wx-analyze): no
//! ambient clock reads, because reports must be byte-identical across
//! runs, thread counts, and machines. That rule previously made all
//! observability impossible. This crate threads the needle by keeping
//! two strictly separated planes:
//!
//! * **Spans and events** ([`span`], [`event_value`]) are wall-clock
//!   and *never* reach a report. They are recorded into per-thread
//!   ring buffers only while [`enable`]d (one relaxed atomic load when
//!   disabled, no allocation once warm), drained with [`take_trace`],
//!   and exported as Chrome trace-event JSON
//!   ([`Trace::to_chrome_json`], loadable in Perfetto), a phase-time
//!   table ([`Trace::phase_table`]), or folded stacks for flamegraphs
//!   ([`Trace::folded`]).
//! * **Counters** ([`count`], [`CounterSet`]) tally scheduling-
//!   independent work — rounds simulated, candidate sets evaluated,
//!   local-search flips — into per-trial scopes ([`with_counters`]).
//!   They are always on, cost one thread-local lookup, and are what
//!   the lab runner folds into a `ScenarioReport`'s `telemetry`
//!   section. [`shield`] keeps them identical across thread counts by
//!   dropping counts from inside parallel fan-outs consistently.
//! * **The fan-out** ([`par_map`]) is the workspace's one data-parallel
//!   map over threads, kept here because the counter scopes depend on
//!   which thread runs each item.
//!
//! [`Clock`] is the only place the workspace may read wall-clock time
//! outside this crate's internals; the analyzer enforces that too.
//!
//! # Example
//!
//! ```
//! use wx_trace::{CounterId, count, with_counters};
//!
//! wx_trace::enable();
//! let (sum, counters) = with_counters(|| {
//!     let _span = wx_trace::span("example.sum");
//!     let mut sum = 0u64;
//!     for i in 0..100 {
//!         sum += i;
//!     }
//!     count(CounterId::SamplerDraws, 100);
//!     wx_trace::event_value("example.sum", sum);
//!     sum
//! });
//! wx_trace::disable();
//!
//! assert_eq!(sum, 4950);
//! assert_eq!(counters.get(CounterId::SamplerDraws), 100);
//! let trace = wx_trace::take_trace();
//! assert!(trace.phase_count("example.sum") >= 1);
//! let json = trace.to_chrome_json();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

pub mod clock;
mod counters;
mod export;
mod par;
mod ring;

pub use clock::Clock;
pub use counters::{count, shield, with_counters, CounterId, CounterSet, NUM_COUNTERS};
pub use export::Trace;
pub use par::par_map;
pub use ring::{
    disable, enable, event_value, is_enabled, span, EventRecord, PhaseTotal, SpanGuard, SpanRecord,
    DEFAULT_CAPACITY,
};

/// Drains every thread's buffers into a [`Trace`] and resets them.
///
/// Typically called once after a traced run; spans recorded by other
/// threads between [`enable`] and the drain are included. Phase totals
/// account for spans even when their ring entries were overwritten.
#[must_use]
pub fn take_trace() -> Trace {
    Trace::from(ring::drain_all())
}

/// Serializes whole traced sections against each other.
///
/// The tracer is process-global, so a component that [`enable`]s it,
/// records, and then drains with [`take_trace`] (the `--trace` CLI
/// path, `wx profile`, tests) must hold this lock for the full
/// window — otherwise a concurrent drain steals its spans mid-run.
/// Pure recording ([`span`], [`event_value`], [`count`]) never needs
/// the lock.
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::set_thread_buffer_capacity;

    /// Tests in this module share the process-global trace state, so
    /// they serialize on the session lock and drain before starting.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        exclusive()
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        disable();
        let _ = take_trace();
        {
            let _span = span("test.disabled");
            event_value("test.disabled", 1);
        }
        let trace = take_trace();
        assert!(!trace.spans.iter().any(|s| s.name == "test.disabled"));
        assert!(!trace.events.iter().any(|e| e.name == "test.disabled"));
    }

    #[test]
    fn span_nesting_records_depths_and_containment() {
        let _g = guard();
        let _ = take_trace();
        enable();
        {
            let _outer = span("test.outer");
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner2 = span("test.inner");
            }
        }
        disable();
        let trace = take_trace();
        let outer: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "test.outer")
            .collect();
        let inner: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "test.inner")
            .collect();
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 2);
        assert_eq!(outer[0].depth, 0);
        for s in &inner {
            assert_eq!(s.depth, 1);
            assert!(s.start_nanos >= outer[0].start_nanos);
            assert!(
                s.start_nanos + s.dur_nanos <= outer[0].start_nanos + outer[0].dur_nanos,
                "inner span must end within its parent"
            );
        }
        assert_eq!(trace.phase_count("test.inner"), 2);
        let nanos = |name: &str| -> u64 {
            let phase = trace.phases.iter().filter(|p| p.name == name);
            phase.map(|p| p.total_nanos).sum()
        };
        assert!(nanos("test.outer") >= nanos("test.inner"));

        let folded = trace.folded();
        assert!(folded.contains("test.outer;test.inner "));
        assert!(folded.lines().any(|l| l.starts_with("test.outer ")));
    }

    #[test]
    fn ring_overflow_keeps_capacity_and_counts_drops() {
        let _g = guard();
        let _ = take_trace();
        enable();
        set_thread_buffer_capacity(8);
        // A fresh thread picks up the small capacity (this test thread
        // may already own a default-size buffer).
        let handle = std::thread::spawn(|| {
            for _ in 0..20 {
                let _span = span("test.overflow");
                event_value("test.overflow", 1);
            }
        });
        handle.join().unwrap();
        set_thread_buffer_capacity(DEFAULT_CAPACITY);
        disable();
        let trace = take_trace();
        let kept = trace
            .spans
            .iter()
            .filter(|s| s.name == "test.overflow")
            .count();
        assert_eq!(kept, 8, "ring keeps exactly its capacity");
        assert_eq!(trace.dropped, 12 + 12, "12 spans and 12 events overwritten");
        assert_eq!(
            trace.phase_count("test.overflow"),
            20,
            "phase totals are overflow-immune"
        );
    }

    #[test]
    fn chrome_json_has_required_fields() {
        let _g = guard();
        let _ = take_trace();
        enable();
        {
            let _span = span("test.json");
            event_value("test.counter", 42);
        }
        disable();
        let json = take_trace().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"test.json\""));
        assert!(json.contains("\"ts\":"));
        assert!(json.contains("\"dur\":"));
        assert!(json.contains("\"args\":{\"value\":42}"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn timestamps_stay_monotone_across_enable_cycles() {
        let _g = guard();
        let _ = take_trace();
        enable();
        {
            let _span = span("test.cycle1");
        }
        disable();
        let first = take_trace();
        enable();
        {
            let _span = span("test.cycle2");
        }
        disable();
        let second = take_trace();
        let t1 = first
            .spans
            .iter()
            .find(|s| s.name == "test.cycle1")
            .map(|s| s.start_nanos)
            .unwrap();
        let t2 = second
            .spans
            .iter()
            .find(|s| s.name == "test.cycle2")
            .map(|s| s.start_nanos)
            .unwrap();
        assert!(t2 >= t1, "epoch is pinned once, not per enable()");
    }
}

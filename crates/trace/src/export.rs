//! Trace exporters: Chrome trace-event JSON, phase-time tables, and
//! folded stacks for flamegraphs. JSON is written by hand — this crate
//! is dependency-free.

use crate::ring::{Drained, EventRecord, PhaseTotal, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A drained trace, ready for export.
///
/// Produced by [`take_trace`](crate::take_trace); owns every span,
/// event, and merged phase total recorded since the previous drain.
#[derive(Debug, Default)]
pub struct Trace {
    /// Completed spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Valued events, sorted by timestamp.
    pub events: Vec<EventRecord>,
    /// Per-name wall-clock totals merged across threads, sorted by name.
    pub phases: Vec<PhaseTotal>,
    /// Span/event records lost to ring overflow (phase totals are
    /// overflow-immune and still account for them).
    pub dropped: u64,
}

impl From<Drained> for Trace {
    fn from(d: Drained) -> Trace {
        Trace {
            spans: d.spans,
            events: d.events,
            phases: d.phases,
            dropped: d.dropped,
        }
    }
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Trace {
    /// Number of spans recorded under `name` (including any whose ring
    /// entries were overwritten).
    #[must_use]
    pub fn phase_count(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.count)
            .sum()
    }

    /// Serializes to Chrome trace-event JSON: a top-level object with a
    /// `traceEvents` array of `ph:"X"` complete spans and `ph:"C"`
    /// counter events, loadable in Perfetto / `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * (self.spans.len() + self.events.len()));
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"ph\":\"X\",\"name\":\"");
            push_escaped(&mut out, s.name);
            let _ = write!(
                out,
                "\",\"cat\":\"wx\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                s.tid,
                s.start_nanos / 1_000,
                (s.dur_nanos / 1_000).max(1),
            );
        }
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"ph\":\"C\",\"name\":\"");
            push_escaped(&mut out, e.name);
            let _ = write!(
                out,
                "\",\"cat\":\"wx\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                e.tid,
                e.ts_nanos / 1_000,
                e.value,
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }

    /// The merged phase-time table as `(name, count, total_seconds)`
    /// rows sorted by name.
    #[must_use]
    pub fn phase_table(&self) -> Vec<(String, u64, f64)> {
        self.phases
            .iter()
            .map(|p| (p.name.to_string(), p.count, p.total_nanos as f64 * 1e-9))
            .collect()
    }

    /// Folded-stack output (`path;to;frame <self_micros>` lines, sorted
    /// by path) for `flamegraph.pl` / speedscope. Self time is each
    /// span's duration minus its recorded children's durations; stacks
    /// are reconstructed per thread from span depths, so a trace that
    /// overflowed its ring may attribute orphaned children to shorter
    /// paths.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            // (name, dur_nanos, children_nanos) — the live ancestor stack.
            let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
            let pop_one = |stack: &mut Vec<(&'static str, u64, u64)>,
                           folded: &mut BTreeMap<String, u64>| {
                if let Some((name, dur, children)) = stack.pop() {
                    let path = {
                        let mut path = String::new();
                        for (frame, _, _) in stack.iter() {
                            path.push_str(frame);
                            path.push(';');
                        }
                        path.push_str(name);
                        path
                    };
                    let self_nanos = dur.saturating_sub(children);
                    *folded.entry(path).or_insert(0) += self_nanos / 1_000;
                    if let Some(parent) = stack.last_mut() {
                        parent.2 = parent.2.saturating_add(dur);
                    }
                }
            };
            for s in self.spans.iter().filter(|s| s.tid == tid) {
                while stack.len() > s.depth as usize {
                    pop_one(&mut stack, &mut folded);
                }
                stack.push((s.name, s.dur_nanos, 0));
            }
            while !stack.is_empty() {
                pop_one(&mut stack, &mut folded);
            }
        }
        let mut out = String::new();
        for (path, micros) in folded {
            let _ = writeln!(out, "{path} {micros}");
        }
        out
    }
}

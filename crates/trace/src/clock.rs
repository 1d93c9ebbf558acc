//! The workspace's sole sanctioned wall-clock source.
//!
//! The wx-analyze determinism rule bans `Instant::now`/`SystemTime`
//! everywhere except this file: ambient clock reads that leak into
//! reports, sort keys, or RNG streams destroy byte-reproducibility.
//! Code that legitimately needs wall-clock — the benchmark, the
//! tracer's span timestamps, `wx profile` — goes through [`Clock`]
//! (a started stopwatch) or the crate-internal `raw_now`, and the
//! results are only ever used for timing fields that are understood
//! to vary run to run (`*_seconds`, trace files), never for anything
//! a deterministic report byte depends on.

use std::time::{Duration, Instant};

/// A started stopwatch. The only way to read wall-clock time in this
/// workspace.
///
/// ```
/// let clock = wx_trace::Clock::start();
/// let secs = clock.elapsed_seconds();
/// assert!(secs >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    /// Starts a stopwatch at the current instant.
    #[must_use]
    pub fn start() -> Clock {
        Clock {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Clock::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time elapsed since [`Clock::start`], in seconds.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Crate-internal raw instant read for span timestamps. Kept in this
/// file so the analyzer's single-file carve-out covers every
/// `Instant::now` in the workspace.
pub(crate) fn raw_now() -> Instant {
    Instant::now()
}

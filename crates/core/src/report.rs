//! Plain-text tables and JSON export for experiment reports.
//!
//! The paper experiments in `wx-lab` print the same kind of rows the
//! paper's statements describe (per-instance measured quantities next to the
//! theoretical references), and scenario reports print summary tables. This
//! module keeps that formatting in one place so every report is consistently
//! aligned and diffable.

use serde::{Deserialize, Serialize};

/// One row of a report table: a label plus a list of cell strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableRow {
    /// The row label (first column).
    pub label: String,
    /// The remaining cells.
    pub cells: Vec<String>,
}

impl TableRow {
    /// Builds a row from a label and anything displayable.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Self {
        TableRow {
            label: label.into(),
            cells,
        }
    }
}

/// Formats a floating-point cell with 3 decimals, using `-` for NaN/∞.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else if x.is_infinite() && x > 0.0 {
        "inf".to_string()
    } else {
        "-".to_string()
    }
}

/// Formats an optional round count.
pub fn fmt_opt(x: Option<usize>) -> String {
    match x {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

/// Renders a fixed-width text table with the given header and rows.
/// All columns are padded to their widest cell; the header is underlined.
pub fn render_table(title: &str, header: &[&str], rows: &[TableRow]) -> String {
    let ncols = header.len();
    // column widths
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        widths[0] = widths[0].max(row.label.len());
        for (i, cell) in row.cells.iter().enumerate() {
            let col = i + 1;
            if col < ncols {
                widths[col] = widths[col].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let mut head_line = String::new();
    for (i, h) in header.iter().enumerate() {
        head_line.push_str(&format!("{:<width$}  ", h, width = widths[i]));
    }
    out.push_str(head_line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        line.push_str(&format!("{:<width$}  ", row.label, width = widths[0]));
        for (i, cell) in row.cells.iter().enumerate() {
            let col = i + 1;
            if col < ncols {
                line.push_str(&format!("{:<width$}  ", cell, width = widths[col]));
            } else {
                line.push_str(cell);
                line.push_str("  ");
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Serializes any serializable record collection to pretty JSON (scenario
/// and sweep reports).
pub fn to_json_pretty<T: Serialize>(records: &T) -> String {
    // wx-allow(panic-freedom): report records are plain data; serialization cannot fail
    serde_json::to_string_pretty(records).expect("records serialize")
}

/// Aggregate statistics over a sample of measured values — the summary the
/// scenario lab attaches to every metric of a multi-trial run.
///
/// Construction via [`AggregateStats::from_samples`] ignores non-finite
/// samples (a trial that diverged contributes nothing rather than poisoning
/// the mean) and returns `None` when no finite sample remains, so a metrics
/// map simply omits keys that never produced a finite value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggregateStats {
    /// Number of finite samples aggregated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (midpoint average for even sample counts).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// 95th percentile (nearest-rank; equals `max` for small samples).
    pub p95: f64,
}

impl AggregateStats {
    /// Aggregates a sample slice, skipping NaN/±∞ entries. `None` when no
    /// finite sample remains.
    pub fn from_samples(samples: &[f64]) -> Option<AggregateStats> {
        let mut finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        // wx-allow(panic-freedom): the filter above guarantees finiteness, so partial_cmp is total here
        finite.sort_by(|a, b| a.partial_cmp(b).expect("finite values are ordered"));
        let count = finite.len();
        let mean = finite.iter().sum::<f64>() / count as f64;
        let (median, p95) = quantiles_of_sorted(&finite);
        Some(AggregateStats {
            count,
            mean,
            median,
            min: finite[0],
            max: finite[count - 1],
            p95,
        })
    }
}

/// Median (midpoint convention) and 95th percentile (nearest rank) of a
/// sorted, non-empty slice — the one quantile convention shared by
/// [`AggregateStats::from_samples`] and [`StatsAccumulator`], so the two
/// paths agree exactly whenever the accumulator still holds every sample.
fn quantiles_of_sorted(sorted: &[f64]) -> (f64, f64) {
    let count = sorted.len();
    let median = if count % 2 == 1 {
        sorted[count / 2]
    } else {
        (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
    };
    // nearest-rank percentile: the ⌈0.95·count⌉-th smallest sample
    let rank = ((0.95 * count as f64).ceil() as usize).clamp(1, count);
    (median, sorted[rank - 1])
}

/// Number of samples [`StatsAccumulator`] retains exactly before switching
/// to reservoir sampling for its quantile estimates.
pub const RESERVOIR_CAPACITY: usize = 1024;

/// Online aggregator producing [`AggregateStats`] without materializing the
/// sample stream — the memory-bounded path behind the scenario lab's
/// multi-trial aggregation.
///
/// Non-finite samples are skipped, matching
/// [`AggregateStats::from_samples`]. Count, min and max are exact for any
/// stream length; the mean is a running Welford mean (numerically stable,
/// equal to the batch mean up to floating-point rounding). Median and p95
/// are **exact** — identical to `from_samples` — while at most
/// [`RESERVOIR_CAPACITY`] finite samples have been pushed; beyond that they
/// are computed from a uniform reservoir sample of that capacity (expected
/// rank error `O(1/√capacity)`, i.e. ~3% of the sample range at the default
/// capacity). The reservoir's replacement choices come from a fixed
/// SplitMix64 stream, so aggregation is deterministic for a given push
/// order.
#[derive(Clone, Debug, Default)]
pub struct StatsAccumulator {
    count: usize,
    mean: f64,
    min: f64,
    max: f64,
    /// Exact sample buffer up to [`RESERVOIR_CAPACITY`], then a uniform
    /// reservoir over the whole stream.
    reservoir: Vec<f64>,
    /// Deterministic SplitMix64 state driving reservoir replacement.
    rng_state: u64,
}

impl StatsAccumulator {
    /// An empty accumulator.
    pub fn new() -> StatsAccumulator {
        StatsAccumulator {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            reservoir: Vec::new(),
            rng_state: 0x5157_4154_5321_ACC0,
        }
    }

    /// Number of finite samples pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one sample. NaN/±∞ are skipped (a diverged trial contributes
    /// nothing rather than poisoning the aggregate).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        // Welford's running mean.
        self.mean += (x - self.mean) / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if self.reservoir.len() < RESERVOIR_CAPACITY {
            self.reservoir.push(x);
        } else {
            // Algorithm R: replace a uniformly random slot with probability
            // capacity/count, via a deterministic SplitMix64 draw.
            let j = (self.next_u64() % self.count as u64) as usize;
            if j < RESERVOIR_CAPACITY {
                self.reservoir[j] = x;
            }
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 step (same finalizer as `wx_graph::random::derive_seed`).
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Closes the stream and produces the aggregate. `None` when no finite
    /// sample was pushed (mirroring [`AggregateStats::from_samples`]).
    pub fn finish(&self) -> Option<AggregateStats> {
        if self.count == 0 {
            return None;
        }
        let mut sorted = self.reservoir.clone();
        // wx-allow(panic-freedom): push() drops non-finite samples, so the reservoir is all-finite
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are ordered"));
        let (median, p95) = quantiles_of_sorted(&sorted);
        Some(AggregateStats {
            count: self.count,
            mean: self.mean,
            median,
            min: self.min,
            max: self.max,
            p95,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy as _;

    #[test]
    fn table_is_aligned_and_complete() {
        let rows = vec![
            TableRow::new("core-8", vec!["4.000".into(), "1.333".into()]),
            TableRow::new("hypercube-64", vec!["1.000".into(), "0.900".into()]),
        ];
        let table = render_table("E1", &["instance", "beta", "beta_w"], &rows);
        assert!(table.contains("## E1"));
        assert!(table.contains("instance"));
        assert!(table.contains("core-8"));
        assert!(table.contains("hypercube-64"));
        // the header and each row appear on separate lines
        assert_eq!(table.lines().count(), 2 + 2 + 1);
    }

    #[test]
    fn cell_formatters() {
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(f64::NAN), "-");
        assert_eq!(fmt_opt(Some(12)), "12");
        assert_eq!(fmt_opt(None), "-");
    }

    #[test]
    fn json_export_roundtrips() {
        #[derive(serde::Serialize)]
        struct Rec {
            name: &'static str,
            value: f64,
        }
        let json = to_json_pretty(&vec![Rec {
            name: "a",
            value: 1.0,
        }]);
        assert!(json.contains("\"name\": \"a\""));
    }

    #[test]
    fn aggregate_stats_basic() {
        let s = AggregateStats::from_samples(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p95, 4.0);

        let odd = AggregateStats::from_samples(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(odd.median, 3.0);
    }

    #[test]
    fn aggregate_stats_p95_nearest_rank() {
        // 100 samples 1..=100: ⌈0.95·100⌉ = 95 → the 95th smallest is 95.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = AggregateStats::from_samples(&samples).unwrap();
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.median, 50.5);
    }

    #[test]
    fn aggregate_stats_filters_non_finite() {
        let s =
            AggregateStats::from_samples(&[f64::NAN, 2.0, f64::INFINITY, 4.0, f64::NEG_INFINITY])
                .unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!(AggregateStats::from_samples(&[]).is_none());
        assert!(AggregateStats::from_samples(&[f64::NAN]).is_none());
    }

    #[test]
    fn aggregate_stats_serialize_round_trip() {
        let s = AggregateStats::from_samples(&[1.0, 2.0]).unwrap();
        let json = to_json_pretty(&s);
        let back: AggregateStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn rows_with_more_cells_than_header_do_not_panic() {
        let rows = vec![TableRow::new("x", vec!["1".into(), "2".into(), "3".into()])];
        let table = render_table("t", &["a", "b"], &rows);
        assert!(table.contains('3'));
    }

    #[test]
    fn accumulator_edge_cases() {
        // empty stream
        assert!(StatsAccumulator::new().finish().is_none());
        // all-non-finite stream
        let mut acc = StatsAccumulator::new();
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .iter()
            .for_each(|&x| acc.push(x));
        assert_eq!(acc.count(), 0);
        assert!(acc.finish().is_none());
        // single sample: every statistic collapses onto it
        let mut acc = StatsAccumulator::new();
        acc.push(3.25);
        let s = acc.finish().unwrap();
        assert_eq!(
            (s.count, s.mean, s.median, s.min, s.max, s.p95),
            (1, 3.25, 3.25, 3.25, 3.25, 3.25)
        );
    }

    #[test]
    fn accumulator_matches_batch_below_capacity() {
        // mixed stream with non-finite noise, well under the reservoir cap:
        // quantiles must be bit-identical to the batch path, mean within
        // float rounding
        let samples: Vec<f64> = (0..500)
            .map(|i| match i % 7 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => ((i * 37) % 101) as f64 - 50.0,
            })
            .collect();
        let mut acc = StatsAccumulator::new();
        samples.iter().for_each(|&x| acc.push(x));
        let online = acc.finish().unwrap();
        let batch = AggregateStats::from_samples(&samples).unwrap();
        assert_eq!(online.count, batch.count);
        assert_eq!(online.min, batch.min);
        assert_eq!(online.max, batch.max);
        assert_eq!(online.median, batch.median);
        assert_eq!(online.p95, batch.p95);
        assert!((online.mean - batch.mean).abs() <= 1e-9 * (1.0 + batch.mean.abs()));
    }

    #[test]
    fn accumulator_reservoir_is_deterministic_and_accurate_beyond_capacity() {
        // 50k samples of a known uniform ramp, far past the reservoir cap
        let n = 50_000usize;
        let samples: Vec<f64> = (0..n).map(|i| ((i * 337) % n) as f64).collect();
        let mut a = StatsAccumulator::new();
        let mut b = StatsAccumulator::new();
        samples.iter().for_each(|&x| a.push(x));
        samples.iter().for_each(|&x| b.push(x));
        let sa = a.finish().unwrap();
        let sb = b.finish().unwrap();
        // deterministic: two accumulators over the same stream agree exactly
        assert_eq!(sa, sb);
        // exact statistics are exact
        assert_eq!(sa.count, n);
        assert_eq!(sa.min, 0.0);
        assert_eq!(sa.max, (n - 1) as f64);
        assert!((sa.mean - (n - 1) as f64 / 2.0).abs() < 1e-6 * n as f64);
        // reservoir quantiles land within a few percent of the truth
        let range = (n - 1) as f64;
        assert!(
            (sa.median - 0.5 * range).abs() < 0.05 * range,
            "median {} vs true {}",
            sa.median,
            0.5 * range
        );
        assert!(
            (sa.p95 - 0.95 * range).abs() < 0.05 * range,
            "p95 {} vs true {}",
            sa.p95,
            0.95 * range
        );
    }

    proptest::proptest! {
        /// The documented contract: on any stream (non-finite noise included)
        /// short enough to fit the reservoir, the accumulator reproduces
        /// `AggregateStats::from_samples` — count/min/max/median/p95 exactly,
        /// mean within floating-point rounding of the batch mean.
        #[test]
        fn accumulator_matches_from_samples(
            samples in proptest::prop::collection::vec(
                (0u32..12, -1.0e6_f64..1.0e6).prop_map(|(tag, x)| match tag {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => x,
                }),
                0..300,
            )
        ) {
            let mut acc = StatsAccumulator::new();
            samples.iter().for_each(|&x| acc.push(x));
            let online = acc.finish();
            let batch = AggregateStats::from_samples(&samples);
            match (online, batch) {
                (None, None) => {}
                (Some(o), Some(b)) => {
                    proptest::prop_assert_eq!(o.count, b.count);
                    proptest::prop_assert_eq!(o.min, b.min);
                    proptest::prop_assert_eq!(o.max, b.max);
                    proptest::prop_assert_eq!(o.median, b.median);
                    proptest::prop_assert_eq!(o.p95, b.p95);
                    proptest::prop_assert!(
                        (o.mean - b.mean).abs() <= 1e-9 * (1.0 + b.mean.abs()),
                        "mean {} vs {}", o.mean, b.mean
                    );
                }
                (o, b) => proptest::prop_assert!(false, "one side empty: {o:?} vs {b:?}"),
            }
        }
    }
}

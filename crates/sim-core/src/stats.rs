//! Measurement primitives: counters, time aggregates and latency
//! histograms.
//!
//! [`Histogram`] is a log-bucketed (HDR-style) histogram with bounded
//! relative error, used for every latency distribution reported by the
//! benchmark harness (p50/p99 fault latencies, shootdown latencies,
//! request sojourn times).
//!
//! Every stat type supports **measurement windows**: `snapshot()` captures
//! a cheap start line and `delta(&snapshot)` returns only what was recorded
//! after it. Harnesses report windows instead of destructively resetting
//! stats, so a warmup phase can never pollute the measured figures and the
//! cumulative values stay available for debugging.

use std::cell::Cell;

/// A monotonically increasing event counter.
#[derive(Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating; wrapping a `u64` event count is a bug).
    pub fn add(&self, n: u64) {
        let v = self.0.get();
        debug_assert!(v.checked_add(n).is_some(), "Counter overflow: {v} + {n}");
        self.0.set(v.saturating_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.replace(0)
    }

    /// Captures the current value as a measurement-window start line.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            value: self.0.get(),
        }
    }

    /// Events recorded since `start` was captured.
    pub fn delta(&self, start: &CounterSnapshot) -> u64 {
        self.0.get().saturating_sub(start.value)
    }
}

/// Point-in-time value of a [`Counter`] (see [`Counter::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    value: u64,
}

/// Aggregate statistics over a stream of durations (count/sum/min/max).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeStat {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl TimeStat {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (saturating; wrapping the `u64` sum on a long
    /// sweep is a bug).
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        debug_assert!(
            self.sum.checked_add(v).is_some(),
            "TimeStat sum overflow: {} + {v}",
            self.sum
        );
        self.sum = self.sum.saturating_add(v);
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &TimeStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        debug_assert!(
            self.sum.checked_add(other.sum).is_some(),
            "TimeStat merge sum overflow"
        );
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Captures the current count/sum as a measurement-window start line.
    ///
    /// Min/max are stream properties that cannot be decomposed into
    /// windows, so the snapshot carries only the additive components.
    pub fn snapshot(&self) -> TimeStatSnapshot {
        TimeStatSnapshot {
            count: self.count,
            sum: self.sum,
        }
    }

    /// The samples recorded since `start` was captured (count/sum/mean).
    pub fn delta(&self, start: &TimeStatSnapshot) -> TimeStatDelta {
        TimeStatDelta {
            count: self.count.saturating_sub(start.count),
            sum: self.sum.saturating_sub(start.sum),
        }
    }
}

/// Point-in-time additive state of a [`TimeStat`] (see
/// [`TimeStat::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeStatSnapshot {
    count: u64,
    sum: u64,
}

/// The samples a [`TimeStat`] accumulated after a snapshot was taken.
///
/// Carries only the window-decomposable aggregates (count, sum, mean);
/// min/max of a window are not derivable from two cumulative states.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeStatDelta {
    count: u64,
    sum: u64,
}

impl TimeStatDelta {
    /// Samples recorded inside the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the window's samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of the window's samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 32
const GROUPS: usize = 64 - SUB_BUCKET_BITS as usize + 1;

/// A log-bucketed histogram of `u64` values with ~3% relative error.
///
/// Values below 32 are exact; larger values share a bucket with values of
/// the same magnitude (top 5 mantissa bits). Memory is a fixed ~15 KiB.
pub struct Histogram {
    buckets: Vec<Cell<u64>>,
    stat: std::cell::RefCell<TimeStat>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..GROUPS * SUB_BUCKETS).map(|_| Cell::new(0)).collect(),
            stat: std::cell::RefCell::new(TimeStat::new()),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let magnitude = 63 - v.leading_zeros(); // >= SUB_BUCKET_BITS
        let shift = magnitude - SUB_BUCKET_BITS;
        let group = (magnitude - SUB_BUCKET_BITS + 1) as usize;
        // `sub` lies in [32, 64); store its offset within the group.
        let sub = (v >> shift) as usize - SUB_BUCKETS;
        group * SUB_BUCKETS + sub
    }

    /// Representative (upper-bound) value of bucket `idx`.
    fn bucket_value(idx: usize) -> u64 {
        let group = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if group == 0 {
            sub
        } else {
            let shift = (group - 1) as u32;
            ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let bucket = &self.buckets[Self::index(v)];
        bucket.set(bucket.get() + 1);
        self.stat.borrow_mut().record(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.stat.borrow().count()
    }

    /// Arithmetic mean of the recorded samples (exact).
    pub fn mean(&self) -> f64 {
        self.stat.borrow().mean()
    }

    /// Exact maximum of the recorded samples.
    pub fn max(&self) -> u64 {
        self.stat.borrow().max()
    }

    /// Exact minimum of the recorded samples.
    pub fn min(&self) -> u64 {
        self.stat.borrow().min()
    }

    /// Sum of the recorded samples (exact).
    pub fn sum(&self) -> u64 {
        self.stat.borrow().sum()
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound; 0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.get();
            if seen >= rank {
                return Self::bucket_value(i).min(self.max());
            }
        }
        self.max()
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.set(a.get() + b.get());
        }
        self.stat.borrow_mut().merge(&other.stat.borrow());
    }

    /// Clears all samples.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.set(0);
        }
        *self.stat.borrow_mut() = TimeStat::new();
    }

    /// Captures the current bucket counts as a measurement-window start
    /// line. Costs one fixed-size copy (~15 KiB), taken once per run.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(Cell::get).collect(),
            stat: self.stat.borrow().snapshot(),
        }
    }

    /// The samples recorded since `start` was captured, as a queryable
    /// distribution (count/sum/mean/quantiles).
    ///
    /// Quantile upper bounds are clamped by the histogram's *cumulative*
    /// maximum: exact when the snapshot was empty, otherwise a documented
    /// upper-bound approximation (a window's true max is not recoverable
    /// from two cumulative states).
    pub fn delta(&self, start: &HistogramSnapshot) -> HistogramDelta {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                b.get()
                    .saturating_sub(start.buckets.get(i).copied().unwrap_or(0))
            })
            .collect();
        HistogramDelta {
            buckets,
            stat: self.stat.borrow().delta(&start.stat),
            max_hint: self.max(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]'s buckets (see
/// [`Histogram::snapshot`]). The default value is an empty start line, so
/// `delta(&HistogramSnapshot::default())` reproduces the cumulative
/// distribution.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Bucket counts at snapshot time; an empty vec means all-zero.
    buckets: Vec<u64>,
    stat: TimeStatSnapshot,
}

/// The samples a [`Histogram`] recorded after a snapshot was taken.
#[derive(Clone, Debug, Default)]
pub struct HistogramDelta {
    buckets: Vec<u64>,
    stat: TimeStatDelta,
    /// Cumulative maximum at window end; clamps quantile upper bounds
    /// (exact if the window started empty).
    max_hint: u64,
}

impl HistogramDelta {
    /// Samples recorded inside the window.
    pub fn count(&self) -> u64 {
        self.stat.count()
    }

    /// Sum of the window's samples (exact).
    pub fn sum(&self) -> u64 {
        self.stat.sum()
    }

    /// Arithmetic mean of the window's samples (exact; 0.0 if empty).
    pub fn mean(&self) -> f64 {
        self.stat.mean()
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound; 0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Histogram::bucket_value(i).min(self.max_hint);
            }
        }
        self.max_hint
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn timestat_aggregates() {
        let mut s = TimeStat::new();
        for v in [5, 1, 9] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 15);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 9);
        assert!((s.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn timestat_merge() {
        let mut a = TimeStat::new();
        a.record(10);
        let mut b = TimeStat::new();
        b.record(2);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 30);
        let mut empty = TimeStat::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn histogram_small_values_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 32.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.p50(), 15);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p99 = h.p99() as f64;
        assert!(
            (p99 - 99_000.0).abs() / 99_000.0 < 0.05,
            "p99 was {p99}, expected ~99000"
        );
        let p50 = h.p50() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05);
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn histogram_single_sample() {
        let h = Histogram::new();
        h.record(3_900);
        assert_eq!(h.p50(), h.p99());
        assert!(h.p99() <= 3_900);
        assert!(h.p99() as f64 > 3_900.0 * 0.95);
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let a = Histogram::new();
        let b = Histogram::new();
        let c = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
            c.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.p99(), c.p99());
        assert_eq!(a.max(), c.max());
    }

    #[test]
    fn histogram_index_monotonic() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            1 << 20,
            u64::MAX / 2,
        ] {
            let idx = Histogram::index(v);
            assert!(idx >= last, "index not monotonic at {v}");
            last = idx;
        }
    }

    #[test]
    fn counter_snapshot_delta() {
        let c = Counter::new();
        c.add(10);
        let start = c.snapshot();
        assert_eq!(c.delta(&start), 0, "empty window");
        c.add(7);
        c.inc();
        assert_eq!(c.delta(&start), 8);
        assert_eq!(c.get(), 18, "snapshotting never mutates");
        let empty = CounterSnapshot::default();
        assert_eq!(c.delta(&empty), c.get(), "empty start == cumulative");
    }

    #[test]
    fn timestat_snapshot_delta() {
        let mut s = TimeStat::new();
        s.record(1_000); // warmup sample
        let start = s.snapshot();
        s.record(10);
        s.record(30);
        let d = s.delta(&start);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 40);
        assert!((d.mean() - 20.0).abs() < 1e-9);
        // An empty start line reproduces the cumulative mean bit-for-bit.
        let d0 = s.delta(&TimeStatSnapshot::default());
        assert_eq!(d0.mean().to_bits(), s.mean().to_bits());
    }

    #[test]
    fn timestat_delta_across_merge() {
        // Snapshot, then merge another aggregate in: the delta must see
        // the merged samples as part of the window.
        let mut s = TimeStat::new();
        s.record(5);
        let start = s.snapshot();
        let mut other = TimeStat::new();
        other.record(100);
        other.record(200);
        s.merge(&other);
        s.record(60);
        let d = s.delta(&start);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 360);
        assert!((d.mean() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_snapshot_delta_excludes_warmup() {
        let h = Histogram::new();
        // Warmup: large samples that would dominate the quantiles.
        for _ in 0..1_000 {
            h.record(1_000_000);
        }
        let start = h.snapshot();
        // Window: small samples only.
        let w = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
            w.record(v);
        }
        let d = h.delta(&start);
        assert_eq!(d.count(), w.count());
        assert_eq!(d.sum(), w.sum());
        assert_eq!(d.mean().to_bits(), w.mean().to_bits());
        // Same buckets, so the same quantile values up to the max clamp —
        // the window contains no 1 M samples, so p50/p99 sit far below.
        assert_eq!(d.p50(), w.p50());
        assert_eq!(d.p99(), w.p99());
        assert!(d.p99() < 2_000, "warmup samples leaked into the window");
    }

    #[test]
    fn histogram_delta_from_empty_matches_cumulative() {
        let h = Histogram::new();
        for v in [3_900u64, 5_100, 12_000, 7] {
            h.record(v);
        }
        let d = h.delta(&HistogramSnapshot::default());
        assert_eq!(d.count(), h.count());
        assert_eq!(d.sum(), h.sum());
        assert_eq!(d.mean().to_bits(), h.mean().to_bits());
        assert_eq!(d.p50(), h.p50());
        assert_eq!(d.p99(), h.p99());
        assert_eq!(d.quantile(1.0), h.quantile(1.0));
    }

    #[test]
    fn histogram_delta_across_merge() {
        let h = Histogram::new();
        h.record(50);
        let start = h.snapshot();
        let other = Histogram::new();
        for v in [10u64, 20, 30] {
            other.record(v);
        }
        h.merge(&other);
        let d = h.delta(&start);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 60);
        assert_eq!(d.p50(), 20);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Counter overflow")]
    fn counter_overflow_asserts_in_debug() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.add(1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "TimeStat sum overflow")]
    fn timestat_overflow_asserts_in_debug() {
        let mut s = TimeStat::new();
        s.record(u64::MAX);
        s.record(1);
    }

    #[test]
    fn bucket_value_bounds_index() {
        for v in [0u64, 5, 31, 32, 100, 12345, 1 << 30] {
            let idx = Histogram::index(v);
            let upper = Histogram::bucket_value(idx);
            assert!(
                upper >= v || upper as f64 >= v as f64 * 0.96,
                "bucket upper {upper} not covering {v}"
            );
        }
    }
}

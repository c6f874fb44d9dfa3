//! Metrics registry: named log-scale histograms.
//!
//! Metric names are `&'static str` so recording never allocates. The
//! registry is snapshotted into a [`MetricsSnapshot`] — a plain serializable
//! value — at the end of a run; `RunReport` embeds that snapshot (adding the
//! run's counters and end-of-run gauges to it) so bench tables and
//! machine-readable dumps come from one source of truth.

use serde::{ser::JsonMap, Serialize};
use std::collections::BTreeMap;

/// Smallest binary exponent given its own bucket: values below 2^-32
/// (including 0 and all subnormals) land in the underflow bucket.
const MIN_EXP: i32 = -32;
/// Largest binary exponent given its own bucket: values of 2^63 and above
/// (including +∞) land in the overflow bucket.
const MAX_EXP: i32 = 63;
/// Bucket count: underflow + one per exponent in `[MIN_EXP, MAX_EXP]` +
/// overflow.
const BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize + 2;

/// A histogram over non-negative `f64` samples with fixed base-2 log-scale
/// buckets.
///
/// Bucket `i ∈ [1, 96]` holds samples in `[2^(i-1+MIN_EXP), 2^(i+MIN_EXP))`;
/// bucket 0 holds underflow (zero, subnormals, anything `< 2^MIN_EXP`, and —
/// defensively — negatives); the last bucket holds overflow (`≥ 2^63`,
/// including `+∞`). `NaN` samples are counted separately and excluded from
/// the distribution.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    nan_count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            nan_count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() {
            // Callers route NaN away before indexing; map defensively to 0.
            return 0;
        }
        if value < f64::MIN_POSITIVE {
            // Zero, negatives, and subnormals: underflow bucket. (Subnormal
            // magnitudes are below 2^-1022, far under 2^MIN_EXP anyway.)
            return 0;
        }
        if value.is_infinite() {
            return BUCKETS - 1;
        }
        // Normal positive value: IEEE-754 unbiased exponent via the bits,
        // exact at powers of two where `log2().floor()` can be off by a ULP.
        let exp = ((value.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        if exp < MIN_EXP {
            0
        } else if exp > MAX_EXP {
            BUCKETS - 1
        } else {
            (exp - MIN_EXP) as usize + 1
        }
    }

    /// Lower bound of bucket `i` (0 for the underflow bucket).
    pub fn bucket_lower_bound(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else if i >= BUCKETS - 1 {
            (MAX_EXP as f64).exp2()
        } else {
            ((i as i32 - 1 + MIN_EXP) as f64).exp2()
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Record `n` samples of the same `value`: the bucket is found once,
    /// and `sum` still adds `value` `n` times, so the result is bit for bit
    /// that of `n` calls to [`Histogram::observe`].
    pub fn observe_n(&mut self, value: f64, n: u64) {
        if value.is_nan() {
            self.nan_count += n;
            return;
        }
        self.counts[Self::bucket_index(value)] += n;
        self.count += n;
        for _ in 0..n {
            self.sum += value;
        }
        if n > 0 {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Number of non-NaN samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of NaN samples rejected.
    pub fn nan_count(&self) -> u64 {
        self.nan_count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile (`q ∈ [0, 1]`) from the bucket lower bounds.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return Self::bucket_lower_bound(i);
            }
        }
        Self::bucket_lower_bound(BUCKETS - 1)
    }

    /// Serializable snapshot (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            nan_count: self.nan_count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (Self::bucket_lower_bound(i), c))
                .collect(),
        }
    }
}

/// Serializable summary of a [`Histogram`].
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Number of NaN samples rejected.
    pub nan_count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Mean sample.
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// `(bucket lower bound, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(f64, u64)>,
}

impl Serialize for HistogramSnapshot {
    fn serialize_json(&self, out: &mut String) {
        let mut map = JsonMap::new(out);
        map.field("count", &self.count);
        if self.nan_count > 0 {
            map.field("nan_count", &self.nan_count);
        }
        map.field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean)
            .field("p50", &self.p50)
            .field("p99", &self.p99)
            .field("buckets", &self.buckets);
        map.end();
    }
}

/// Named histograms for one run.
#[derive(Default)]
pub struct MetricsRegistry {
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.observe_n(name, value, 1);
    }

    /// Record `n` samples of `value` into histogram `name`, as `n` calls
    /// to [`MetricsRegistry::observe`] would, with one lookup.
    pub fn observe_n(&mut self, name: &'static str, value: f64, n: u64) {
        if n > 0 {
            self.histograms.entry(name).or_default().observe_n(value, n);
        }
    }

    /// Histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Serializable snapshot of everything recorded (no counters or gauges
    /// yet: the run report adds those).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: self
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Frozen, serializable contents of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize_json(&self, out: &mut String) {
        let mut map = JsonMap::new(out);
        map.field("counters", &self.counters)
            .field("gauges", &self.gauges)
            .field("histograms", &self.histograms);
        map.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact_at_powers_of_two() {
        // 2^k must open bucket k, not close bucket k-1.
        for k in [-10i32, -1, 0, 1, 10, 40] {
            let v = (k as f64).exp2();
            let idx = Histogram::bucket_index(v);
            assert_eq!(
                Histogram::bucket_lower_bound(idx),
                v,
                "2^{k} must be its bucket's lower bound"
            );
            // Just below the boundary falls one bucket lower.
            let below = v * (1.0 - 1e-12);
            assert_eq!(Histogram::bucket_index(below), idx - 1);
        }
    }

    #[test]
    fn zero_goes_to_underflow_bucket() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-0.0);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn subnormals_go_to_underflow_bucket() {
        let mut h = Histogram::new();
        let sub = f64::MIN_POSITIVE / 4.0; // a subnormal
        assert!(sub > 0.0 && !sub.is_normal());
        h.observe(sub);
        assert_eq!(h.buckets()[0], 1);
        // Tiny but normal values below 2^-32 also underflow.
        h.observe((MIN_EXP as f64 - 1.0).exp2());
        assert_eq!(h.buckets()[0], 2);
    }

    #[test]
    fn infinity_goes_to_overflow_bucket() {
        let mut h = Histogram::new();
        h.observe(f64::INFINITY);
        h.observe(1e300);
        assert_eq!(h.buckets()[BUCKETS - 1], 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), f64::INFINITY);
    }

    #[test]
    fn nan_is_rejected_not_bucketed() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
        assert_eq!(h.nan_count(), 1);
        assert!(h.buckets().iter().all(|&c| c == 0));
    }

    #[test]
    fn negatives_go_to_underflow_bucket() {
        let mut h = Histogram::new();
        h.observe(-5.0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.min(), -5.0);
    }

    #[test]
    fn quantiles_use_bucket_lower_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(10.0); // bucket [8, 16)
        }
        h.observe(1e6);
        assert_eq!(h.quantile(0.5), 8.0);
        assert_eq!(
            h.quantile(1.0),
            Histogram::bucket_lower_bound(Histogram::bucket_index(1e6))
        );
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = MetricsRegistry::new();
        reg.observe("latency_ns", 1500.0);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["latency_ns"].count, 1);
        let json = serde::json::to_string(&snap);
        assert!(json.contains(r#""latency_ns""#));
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        // Sums that round differently when added one by one than at once.
        let values = [0.1, 1e-40, 3.0, 1e17 + 1.0, -2.5, f64::INFINITY, f64::NAN];
        let mut one_by_one = MetricsRegistry::new();
        let mut at_once = MetricsRegistry::new();
        for (i, &value) in values.iter().enumerate() {
            for n in [1, 0, 3, 7 + i as u64] {
                for _ in 0..n {
                    one_by_one.observe("x", value);
                }
                at_once.observe_n("x", value, n);
                let (a, b) = (
                    one_by_one.histogram("x").unwrap(),
                    at_once.histogram("x").unwrap(),
                );
                assert_eq!(a.sum().to_bits(), b.sum().to_bits(), "{value} x{n}");
                assert_eq!(a.min().to_bits(), b.min().to_bits());
                assert_eq!(a.max().to_bits(), b.max().to_bits());
                assert_eq!(a.count(), b.count());
                assert_eq!(a.nan_count(), b.nan_count());
                assert_eq!(a.buckets(), b.buckets());
            }
        }
        at_once.observe_n("never", 1.0, 0);
        assert!(
            at_once.histogram("never").is_none(),
            "no sample, no histogram"
        );
    }

    #[test]
    fn empty_snapshot_has_finite_min_max() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.count, 0);
    }
}

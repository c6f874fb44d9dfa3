//! Lightweight statistics primitives for the experiment harness.
//!
//! Two shapes (event counts live in the observability layer's metrics
//! registry):
//!
//! * [`TimeWeightedGauge`] — a quantity that varies over simulated time and
//!   whose *peak* and *time-average* matter (active memory, §4.4).
//! * [`Welford`] — streaming mean/variance/min/max for per-sample metrics
//!   (the accuracy probe's decision-time view errors).

use crate::time::SimTime;

/// A gauge sampled against simulated time, tracking current value, peak, and
/// the time integral (for time-averages).
#[derive(Clone, Debug)]
pub struct TimeWeightedGauge {
    value: f64,
    peak: f64,
    peak_at: SimTime,
    integral: f64,
    last_update: SimTime,
    start: SimTime,
}

impl Default for TimeWeightedGauge {
    fn default() -> Self {
        Self::new(SimTime::ZERO, 0.0)
    }
}

impl TimeWeightedGauge {
    /// Create a gauge with an initial value at `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeightedGauge {
            value: initial,
            peak: initial,
            peak_at: start,
            integral: 0.0,
            last_update: start,
            start,
        }
    }

    /// Set the gauge to `v` at time `now`. `now` must not precede the
    /// previous update (debug-asserted).
    pub fn set(&mut self, now: SimTime, v: f64) {
        debug_assert!(now >= self.last_update, "gauge time went backwards");
        let dt = now.since(self.last_update).as_secs_f64();
        self.integral += self.value * dt;
        self.last_update = now;
        self.value = v;
        if v > self.peak {
            self.peak = v;
            self.peak_at = now;
        }
    }

    /// Add `dv` (may be negative) at time `now`.
    pub fn add(&mut self, now: SimTime, dv: f64) {
        let v = self.value + dv;
        self.set(now, v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Highest value ever set.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time at which the peak was (first) reached.
    pub fn peak_at(&self) -> SimTime {
        self.peak_at
    }

    /// Time-average over `[start, now]`. Returns the current value if no time
    /// has elapsed.
    pub fn time_average(&self, now: SimTime) -> f64 {
        let total = now.since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.value;
        }
        let tail = now.since(self.last_update).as_secs_f64();
        (self.integral + self.value * tail) / total
    }
}

/// Streaming mean/variance/min/max (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean * self.n as f64
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn gauge_peak_and_average() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 0.0);
        g.set(SimTime(0) + SimDuration::from_secs(1), 10.0); // value 0 for 1s
        g.set(SimTime(0) + SimDuration::from_secs(3), 4.0); // value 10 for 2s
        let now = SimTime(0) + SimDuration::from_secs(4); // value 4 for 1s
        assert_eq!(g.peak(), 10.0);
        assert_eq!(g.peak_at(), SimTime(1_000_000_000));
        let avg = g.time_average(now);
        assert!((avg - (0.0 + 20.0 + 4.0) / 4.0).abs() < 1e-9, "avg={avg}");
    }

    #[test]
    fn gauge_add_tracks_running_value() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 5.0);
        g.add(SimTime(10), 3.0);
        g.add(SimTime(20), -6.0);
        assert_eq!(g.value(), 2.0);
        assert_eq!(g.peak(), 8.0);
    }

    #[test]
    fn gauge_zero_elapsed_average_is_value() {
        let g = TimeWeightedGauge::new(SimTime(5), 7.0);
        assert_eq!(g.time_average(SimTime(5)), 7.0);
    }

    #[test]
    fn welford_matches_reference() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert!((w.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::default();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::default();
        let mut b = Welford::default();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::default();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }
}

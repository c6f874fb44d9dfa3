//! Streaming statistics: [`Welford`] count/mean/max for per-sample metrics
//! (the accuracy probe's decision-time view errors). Event counts live in
//! the observability layer's metrics registry.

/// Streaming count/mean/max. The mean is Welford's running update, so it
/// is exact to rounding whatever the number of samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    max: f64,
}

impl Welford {
    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.max = if self.n == 0 { x } else { self.max.max(x) };
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_reference() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::default();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.max(), 0.0);
    }
}

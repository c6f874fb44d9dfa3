//! Simulated time.
//!
//! Time is kept in integer nanoseconds. Integer time gives a total order with
//! no rounding surprises, which is essential for reproducible event ordering:
//! the experiments in the paper (Tables 4–7) are sensitive to message arrival
//! order, so the simulator must be bit-deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant, where time arithmetic saturates.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run (lossy, for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is in
    /// the future (callers comparing clocks across processes may race).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `n` nanoseconds.
    #[inline]
    pub const fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// A duration of `n` microseconds.
    #[inline]
    pub const fn from_micros(n: u64) -> SimDuration {
        SimDuration(n * 1_000)
    }

    /// A duration of `n` milliseconds.
    #[inline]
    pub const fn from_millis(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000)
    }

    /// A duration of `n` seconds.
    #[inline]
    pub const fn from_secs(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000_000)
    }

    /// A duration of `s` seconds given as a float (rounded to nanoseconds,
    /// saturating at the representable range). Negative input clamps to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// Duration in nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in seconds (lossy, for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::ZERO + SimDuration::from_micros(3);
        assert_eq!(t.as_nanos(), 3_000);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(100);
        let b = SimTime(50);
        assert_eq!(a.since(b).as_nanos(), 50);
        assert_eq!(b.since(a).as_nanos(), 0);
    }

    #[test]
    fn from_secs_f64_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_negative_and_nan_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_saturates() {
        assert_eq!(SimDuration::from_secs_f64(1e30).as_nanos(), u64::MAX);
    }

    #[test]
    fn saturating_time_arithmetic() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(10) * 3;
        assert_eq!(d.as_nanos(), 30_000);
        assert_eq!((d / 3).as_nanos(), 10_000);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime(3), SimTime(1), SimTime(2)];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(2), SimTime(3)]);
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(format!("{}", SimTime(1_500_000_000)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "0.002000s");
    }
}

//! Wall-clock → simulated-time mapping for real-thread runs.
//!
//! The discrete-event backend stamps every
//! [`ProtocolEvent`](crate::ProtocolEvent) with simulated nanoseconds. The
//! threaded backend runs on the wall clock, compressed by a configurable `time_scale` (wall
//! seconds per simulated second). A [`WallClock`] performs that conversion so
//! both backends produce event logs in the *same* time base — the JSONL and
//! Chrome exporters, span renderers and latency analyses apply unchanged.

use loadex_sim::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// A shared time origin converting elapsed wall time into simulated time.
///
/// Cheap to copy; hand one clone to every thread of a run so all stamps share
/// the epoch.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
    /// Wall seconds per simulated second.
    scale: f64,
}

impl WallClock {
    /// A clock starting now, with the given wall-per-simulated-second scale.
    /// A scale of 0.01 means 10 wall milliseconds represent one simulated
    /// second. Must be positive and finite.
    pub fn starting_now(scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "bad time scale {scale}");
        WallClock {
            epoch: Instant::now(),
            scale,
        }
    }

    /// The wall instant that maps to simulated time zero.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The wall-per-simulated-second scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Current simulated time: elapsed wall time divided by the scale.
    pub fn now(&self) -> SimTime {
        self.to_sim_time(Instant::now())
    }

    /// Convert an absolute wall instant to simulated time (instants before
    /// the epoch clamp to zero).
    pub fn to_sim_time(&self, at: Instant) -> SimTime {
        let wall = at.saturating_duration_since(self.epoch);
        SimTime((wall.as_secs_f64() / self.scale * 1e9).round() as u64)
    }

    /// Convert a wall duration to a simulated duration.
    pub fn to_sim(&self, wall: Duration) -> SimDuration {
        SimDuration::from_secs_f64(wall.as_secs_f64() / self.scale)
    }

    /// Convert a simulated duration to the wall duration representing it.
    pub fn to_wall(&self, sim: SimDuration) -> Duration {
        Duration::from_secs_f64(sim.as_secs_f64() * self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_durations_both_ways() {
        let c = WallClock::starting_now(0.01);
        assert_eq!(
            c.to_sim(Duration::from_millis(10)),
            SimDuration::from_secs(1)
        );
        assert_eq!(
            c.to_wall(SimDuration::from_secs(2)),
            Duration::from_millis(20)
        );
    }

    #[test]
    fn now_advances_monotonically() {
        let c = WallClock::starting_now(1e-6);
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn instants_before_epoch_clamp_to_zero() {
        let origin = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let c = WallClock::starting_now(1.0);
        assert_eq!(c.to_sim_time(origin), SimTime(0));
    }

    #[test]
    fn shared_epoch_agrees_across_clones() {
        let c = WallClock::starting_now(0.5);
        let d = c;
        let at = Instant::now();
        assert_eq!(c.to_sim_time(at), d.to_sim_time(at));
    }

    #[test]
    #[should_panic(expected = "bad time scale")]
    fn zero_scale_is_rejected() {
        let _ = WallClock::starting_now(0.0);
    }
}

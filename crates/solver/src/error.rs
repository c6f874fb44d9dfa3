//! Typed failures of the experiment entry points.
//!
//! Historically `run_experiment` panicked on livelock/deadlock and invalid
//! configurations failed deep inside the engine. The redesigned API surfaces
//! both as values: [`ConfigError`] at construction/validation time
//! ([`SolverConfig::validate`](crate::config::SolverConfig::validate)), and
//! [`RunError`] from [`Runtime::run`](crate::run::Runtime::run).

use loadex_sim::ActorId;
use std::fmt;
use std::time::Duration;

/// An invalid [`SolverConfig`](crate::config::SolverConfig), detected at
/// construction instead of deep inside the engine.
#[derive(Clone, PartialEq, Debug)]
pub enum ConfigError {
    /// `nprocs` must be at least 1.
    ZeroProcs,
    /// `speed_flops` must be positive and finite.
    BadSpeed(f64),
    /// `speed_factors` must be empty or have one entry per process.
    SpeedFactorsLen {
        /// Expected length (`nprocs`).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// Every entry of `speed_factors` must be positive and finite.
    BadSpeedFactor {
        /// Offending process.
        proc: usize,
        /// Offending multiplier.
        value: f64,
    },
    /// An explicit threshold must have positive, finite work and memory
    /// components.
    BadThreshold {
        /// Offending work component.
        work: f64,
        /// Offending memory component.
        mem: f64,
    },
    /// Slave-share row bounds must satisfy `1 <= kmin_rows <= kmax_rows`.
    BadRowBounds {
        /// Configured minimum rows.
        kmin: u32,
        /// Configured maximum rows.
        kmax: u32,
    },
    /// Front-size classification bounds must satisfy
    /// `type2_min_front <= type3_min_front`.
    BadFrontBounds {
        /// Type 2 threshold.
        type2: u32,
        /// Type 3 threshold.
        type3: u32,
    },
    /// `mapping_alpha` must be positive and finite.
    BadMappingAlpha(f64),
    /// `mem_relax` must be positive and finite.
    BadMemRelax(f64),
    /// The accuracy probe's sampling period (`coherence_probe`) must be
    /// positive when set: a zero period would resample at the same instant
    /// forever.
    ZeroProbePeriod,
    /// The threaded backend's `time_scale` (wall seconds per simulated
    /// second) must be positive and finite.
    BadTimeScale(f64),
    /// The threaded backend's `wall_timeout` safety valve must be positive.
    BadWallTimeout,
    /// A timer-driven mechanism (periodic/gossip) needs a positive period.
    BadTimerPeriod,
    /// `gossip_fanout` must be at least 1.
    ZeroGossipFanout,
    /// Partial snapshots need at least one candidate process.
    ZeroSnapshotCandidates,
    /// A threaded run would start more OS threads than
    /// [`MAX_THREADS`](crate::config::MAX_THREADS).
    TooManyThreads {
        /// Workers plus comm threads the run would start.
        wanted: usize,
        /// The limit.
        allowed: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroProcs => write!(f, "nprocs must be >= 1"),
            ConfigError::BadSpeed(v) => {
                write!(f, "speed_flops must be positive and finite, got {v}")
            }
            ConfigError::SpeedFactorsLen { expected, got } => write!(
                f,
                "speed_factors must be empty or hold one entry per process \
                 (expected {expected}, got {got})"
            ),
            ConfigError::BadSpeedFactor { proc, value } => write!(
                f,
                "speed_factors[{proc}] must be positive and finite, got {value}"
            ),
            ConfigError::BadThreshold { work, mem } => write!(
                f,
                "threshold components must be positive and finite, got work={work} mem={mem}"
            ),
            ConfigError::BadRowBounds { kmin, kmax } => write!(
                f,
                "row bounds must satisfy 1 <= kmin_rows <= kmax_rows, got {kmin}..{kmax}"
            ),
            ConfigError::BadFrontBounds { type2, type3 } => write!(
                f,
                "front bounds must satisfy type2_min_front <= type3_min_front, \
                 got {type2} > {type3}"
            ),
            ConfigError::BadMappingAlpha(v) => {
                write!(f, "mapping_alpha must be positive and finite, got {v}")
            }
            ConfigError::BadMemRelax(v) => {
                write!(f, "mem_relax must be positive and finite, got {v}")
            }
            ConfigError::ZeroProbePeriod => {
                write!(f, "coherence_probe period must be positive when set")
            }
            ConfigError::BadTimeScale(v) => {
                write!(f, "time_scale must be positive and finite, got {v}")
            }
            ConfigError::BadWallTimeout => write!(f, "wall_timeout must be positive"),
            ConfigError::BadTimerPeriod => {
                write!(f, "periodic/gossip mechanisms need a positive timer period")
            }
            ConfigError::ZeroGossipFanout => write!(f, "gossip_fanout must be >= 1"),
            ConfigError::ZeroSnapshotCandidates => {
                write!(f, "snapshot_candidates must be >= 1 when set")
            }
            ConfigError::TooManyThreads { wanted, allowed } => write!(
                f,
                "the threaded backend would start {wanted} OS threads, \
                 more than the limit of {allowed}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A failed experiment run.
#[derive(Clone, PartialEq, Debug)]
pub enum RunError {
    /// The configuration was rejected before the run started.
    Config(ConfigError),
    /// Sim backend: the event-limit safety valve tripped — the protocol is
    /// cycling without making factorization progress.
    Livelock {
        /// Events executed before giving up.
        events: u64,
    },
    /// Sim backend: the calendar drained before the factorization completed —
    /// some process waits for a message that will never come.
    Deadlock {
        /// Engine state dump for post-mortem debugging.
        detail: String,
    },
    /// Threaded backend: the wall-clock safety valve expired before the
    /// factorization completed (the threaded analogue of both livelock and
    /// deadlock).
    WallTimeout {
        /// The configured limit.
        limit: Duration,
    },
    /// Threaded backend: a peer's endpoint disconnected while the
    /// factorization was still in progress.
    Disconnected {
        /// The process that observed the disconnect.
        proc: ActorId,
    },
    /// Threaded backend: a worker thread panicked.
    WorkerPanic {
        /// The process whose thread died.
        proc: ActorId,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Livelock { events } => {
                write!(f, "livelock: event limit exceeded after {events} events")
            }
            RunError::Deadlock { detail } => write!(
                f,
                "deadlock: calendar drained before factorization completed\n{detail}"
            ),
            RunError::WallTimeout { limit } => write!(
                f,
                "threaded run exceeded the wall-clock limit of {:.1}s",
                limit.as_secs_f64()
            ),
            RunError::Disconnected { proc } => {
                write!(f, "{proc} observed a peer disconnect mid-run")
            }
            RunError::WorkerPanic { proc } => write!(f, "worker thread of {proc} panicked"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ConfigError::SpeedFactorsLen {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        let r: RunError = e.into();
        assert!(matches!(r, RunError::Config(_)));
        assert!(r.to_string().contains("invalid configuration"));
        assert!(RunError::Livelock { events: 7 }.to_string().contains('7'));
        assert!(RunError::WallTimeout {
            limit: Duration::from_secs(3)
        }
        .to_string()
        .contains("3.0s"));
    }

    #[test]
    fn source_chains_config_errors() {
        use std::error::Error;
        let r = RunError::Config(ConfigError::ZeroProcs);
        assert!(r.source().is_some());
        assert!(RunError::Livelock { events: 1 }.source().is_none());
    }
}

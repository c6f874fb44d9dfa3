//! Experiment configuration.

use crate::error::ConfigError;
use loadex_core::{LeaderPolicy, MechKind, Threshold};
use loadex_net::NetworkModel;
use loadex_sim::SimDuration;
use std::time::Duration;

/// Which dynamic scheduling strategy drives slave/task selection (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// §4.2.1: slaves chosen for the best memory balance; task selection is
    /// memory-aware.
    MemoryBased,
    /// §4.2.2: slaves chosen for the best workload balance.
    WorkloadBased,
}

impl Strategy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::MemoryBased => "memory-based",
            Strategy::WorkloadBased => "workload-based",
        }
    }
}

/// How state messages are serviced (§4.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommMode {
    /// The paper's base model: a process cannot treat a message and compute
    /// simultaneously; messages are drained at task boundaries.
    MainLoop,
    /// The §4.5 threaded variant: a dedicated communication thread checks the
    /// state channel with the given period (the paper fixes 50 µs) and can
    /// pause the computation while a snapshot is in progress.
    CommThread {
        /// Polling period of the communication thread.
        period: SimDuration,
    },
}

impl CommMode {
    /// The paper's threaded configuration (50 µs poll period).
    pub fn threaded_default() -> CommMode {
        CommMode::CommThread {
            period: SimDuration::from_micros(50),
        }
    }
}

/// Parameters of the threaded execution backend (§4.5 on real OS threads).
///
/// Unlike [`CommMode`], whose period is *simulated* time inside the
/// discrete-event engine, these are genuine wall-clock quantities: the
/// backend runs one worker thread per process over
/// `loadex_net::thread::Endpoint`s and sleeps real microseconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ThreadedBackend {
    /// Spawn a dedicated communication thread per process that services the
    /// state channel concurrently with compute (§4.5). When `false`, state
    /// messages are only drained at task-chunk boundaries, like the paper's
    /// base single-threaded model.
    pub comm_thread: bool,
    /// Upper bound on the comm thread's state-channel servicing latency (the
    /// paper polls every 50 µs; our transport also wakes on arrival, so this
    /// bounds the check period rather than adding latency).
    pub poll_interval: Duration,
    /// Wall seconds slept per simulated second of compute. The workload's
    /// task durations are still the simulated flops/speed model — this
    /// scales them onto the wall clock so a multi-second simulated
    /// factorization finishes in a test-friendly fraction of a second.
    pub time_scale: f64,
    /// Safety valve: the run fails with
    /// [`RunError::WallTimeout`](crate::error::RunError) if the
    /// factorization has not completed within this wall time.
    pub wall_timeout: Duration,
}

impl ThreadedBackend {
    /// §4.5 defaults: comm thread on, 50 µs poll period, time compressed
    /// 50× (`time_scale` 0.02), 120 s safety valve.
    pub fn new() -> Self {
        ThreadedBackend {
            comm_thread: true,
            poll_interval: Duration::from_micros(50),
            time_scale: 0.02,
            wall_timeout: Duration::from_secs(120),
        }
    }

    /// Builder-style: disable the dedicated communication thread (the
    /// baseline the §4.5 comparison measures against).
    pub fn without_comm_thread(mut self) -> Self {
        self.comm_thread = false;
        self
    }

    /// Builder-style: set the comm thread's poll interval.
    pub fn with_poll_interval(mut self, p: Duration) -> Self {
        self.poll_interval = p;
        self
    }

    /// Builder-style: set the wall-per-simulated-second compression factor.
    pub fn with_time_scale(mut self, s: f64) -> Self {
        self.time_scale = s;
        self
    }

    /// Builder-style: set the wall-clock safety valve.
    pub fn with_wall_timeout(mut self, t: Duration) -> Self {
        self.wall_timeout = t;
        self
    }
}

impl Default for ThreadedBackend {
    fn default() -> Self {
        Self::new()
    }
}

/// Which execution backend carries out the run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum ExecBackend {
    /// The discrete-event simulator: deterministic, instantaneous, models
    /// network costs explicitly. The default.
    #[default]
    Sim,
    /// One OS thread per process over a real channel transport; the §4.5
    /// threaded variant runs an additional comm thread per process.
    Threaded(ThreadedBackend),
}

impl ExecBackend {
    /// Stable lowercase name (appears in
    /// [`RunReport::backend`](crate::report::RunReport::backend) and
    /// serialized reports).
    pub fn name(&self) -> &'static str {
        match self {
            ExecBackend::Sim => "sim",
            ExecBackend::Threaded(_) => "threaded",
        }
    }
}

/// Full configuration of a factorization run.
#[derive(Clone, PartialEq, Debug)]
pub struct SolverConfig {
    /// Number of processes.
    pub nprocs: usize,
    /// Which load-exchange mechanism to use.
    pub mechanism: MechKind,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// State-message servicing model.
    pub comm: CommMode,
    /// Broadcast thresholds of the maintained-view mechanisms. §2.3 advises
    /// “a threshold of the same order as the granularity of the tasks”; the
    /// harness derives it from the tree when `None`.
    pub threshold: Option<Threshold>,
    /// §2.3 `NoMoreMaster` optimisation.
    pub no_more_master: bool,
    /// Network cost model.
    pub network: NetworkModel,
    /// Per-process compute speed in flops/second.
    pub speed_flops: f64,
    /// Heterogeneous platform (§4's suggested extension): per-process speed
    /// multipliers applied on top of [`SolverConfig::speed_flops`]. Empty =
    /// homogeneous. Must have `nprocs` entries otherwise.
    pub speed_factors: Vec<f64>,
    /// Time to treat one state message in the main loop (single-threaded
    /// receive overhead; the threaded variant services them concurrently).
    pub state_msg_cost: SimDuration,
    /// Time to treat one application message (unpack, assemble).
    pub app_msg_cost: SimDuration,
    /// Minimum rows of a slave share (granularity floor: “there are
    /// granularity constraints on the sizes of the subtasks”, §4.2.2).
    pub kmin_rows: u32,
    /// Maximum rows of a slave share (internal communication buffer limit).
    pub kmax_rows: u32,
    /// Fronts at least this large (and with a splittable remainder) above
    /// the subtree layer become Type 2 parallel nodes.
    pub type2_min_front: u32,
    /// Root fronts at least this large become the 2D-cyclic Type 3 node.
    pub type3_min_front: u32,
    /// Proportional-mapping oversubscription: the subtree layer is deepened
    /// until no subtree exceeds `total_flops / (alpha · nprocs)`.
    pub mapping_alpha: f64,
    /// Memory-aware task selection relaxation: a ready task is skipped if it
    /// would push this process beyond `relax ×` the believed average memory
    /// (memory-based strategy only).
    pub mem_relax: f64,
    /// Compute interruption granularity: long tasks reach a message-handling
    /// boundary at least this often (collapsed subtree tasks and large
    /// fronts are processed panel-by-panel in MUMPS, so real task boundaries
    /// are frequent). `SimDuration::ZERO` disables chunking: a task then
    /// blocks messages until it fully completes.
    pub task_chunk: SimDuration,
    /// Instrumentation: the sampling period of the accuracy probe's time
    /// series ([`AccuracyReport::series`](loadex_obs::AccuracyReport)): every
    /// tick records the system-wide view error against the ground truth (the
    /// "coherence" the paper's mechanisms trade off against traffic). Only
    /// takes effect with [`SolverConfig::accuracy`] on the simulator backend;
    /// the probe's time-weighted and decision-time errors need no ticks.
    pub coherence_probe: Option<SimDuration>,
    /// Instrumentation: maintain a
    /// [`ViewAccuracyProbe`](loadex_obs::ViewAccuracyProbe) across the run —
    /// ground truth vs. every process's believed view, time-weighted view
    /// error/staleness integrals, and the master's view error and a
    /// decision-regret replay at every dynamic slave selection. Pure bookkeeping: enabling it changes no
    /// scheduling outcome. The result lands in
    /// [`RunReport::accuracy`](crate::report::RunReport::accuracy).
    pub accuracy: bool,
    /// Leader-election criterion for the snapshot mechanism (a §5
    /// perspective: the paper conjectures the criterion matters).
    pub leader_policy: LeaderPolicy,
    /// §5 extension: when set, snapshots are **partial** — each decision
    /// queries (and synchronizes) only this many candidate processes, chosen
    /// as the least loaded in the master's current view; slaves are then
    /// selected among those candidates only.
    pub snapshot_candidates: Option<usize>,
    /// Heartbeat period of the [`MechKind::Periodic`] extension mechanism.
    pub periodic_interval: SimDuration,
    /// Round period of the [`MechKind::Gossip`] extension mechanism.
    pub gossip_interval: SimDuration,
    /// Peers contacted per gossip round.
    pub gossip_fanout: usize,
    /// Which execution backend carries out the run: the discrete-event
    /// simulator or real OS threads.
    pub backend: ExecBackend,
}

impl SolverConfig {
    /// A baseline configuration for `nprocs` processes with the increments
    /// mechanism and the workload strategy (MUMPS ≥ 4.3 defaults).
    pub fn new(nprocs: usize) -> Self {
        SolverConfig {
            nprocs,
            mechanism: MechKind::Increments,
            strategy: Strategy::WorkloadBased,
            comm: CommMode::MainLoop,
            threshold: None,
            no_more_master: true,
            network: NetworkModel::ibm_sp_like(),
            speed_flops: 5.0e7,
            speed_factors: Vec::new(),
            state_msg_cost: SimDuration::from_micros(2),
            app_msg_cost: SimDuration::from_micros(5),
            kmin_rows: 150,
            kmax_rows: 4096,
            type2_min_front: 200,
            type3_min_front: 1000,
            mapping_alpha: 4.0,
            mem_relax: 1.6,
            task_chunk: SimDuration::from_millis(1500),
            coherence_probe: None,
            accuracy: false,
            leader_policy: LeaderPolicy::MinRank,
            snapshot_candidates: None,
            periodic_interval: SimDuration::from_millis(100),
            gossip_interval: SimDuration::from_millis(100),
            gossip_fanout: 2,
            backend: ExecBackend::Sim,
        }
    }

    /// Builder-style: set the mechanism.
    pub fn with_mechanism(mut self, m: MechKind) -> Self {
        self.mechanism = m;
        self
    }

    /// Builder-style: set the strategy.
    pub fn with_strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Builder-style: set the comm mode.
    pub fn with_comm(mut self, c: CommMode) -> Self {
        self.comm = c;
        self
    }

    /// Builder-style: set the execution backend.
    pub fn with_backend(mut self, b: ExecBackend) -> Self {
        self.backend = b;
        self
    }

    /// Builder-style: enable the view-accuracy probe (see
    /// [`SolverConfig::accuracy`]).
    pub fn with_accuracy(mut self, on: bool) -> Self {
        self.accuracy = on;
        self
    }

    /// Check every range invariant the engine and the backends rely on.
    /// [`Runtime::new`](crate::run::Runtime::new) calls this, so invalid
    /// configurations are rejected before a run starts rather than panicking
    /// mid-factorization.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nprocs == 0 {
            return Err(ConfigError::ZeroProcs);
        }
        if !(self.speed_flops.is_finite() && self.speed_flops > 0.0) {
            return Err(ConfigError::BadSpeed(self.speed_flops));
        }
        if !self.speed_factors.is_empty() && self.speed_factors.len() != self.nprocs {
            return Err(ConfigError::SpeedFactorsLen {
                expected: self.nprocs,
                got: self.speed_factors.len(),
            });
        }
        for (proc, &value) in self.speed_factors.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::BadSpeedFactor { proc, value });
            }
        }
        if let Some(t) = &self.threshold {
            let ok = |v: f64| v.is_finite() && v > 0.0;
            if !ok(t.work) || !ok(t.mem) {
                return Err(ConfigError::BadThreshold {
                    work: t.work,
                    mem: t.mem,
                });
            }
        }
        if self.kmin_rows == 0 || self.kmin_rows > self.kmax_rows {
            return Err(ConfigError::BadRowBounds {
                kmin: self.kmin_rows,
                kmax: self.kmax_rows,
            });
        }
        if self.type2_min_front > self.type3_min_front {
            return Err(ConfigError::BadFrontBounds {
                type2: self.type2_min_front,
                type3: self.type3_min_front,
            });
        }
        if !(self.mapping_alpha.is_finite() && self.mapping_alpha > 0.0) {
            return Err(ConfigError::BadMappingAlpha(self.mapping_alpha));
        }
        if !(self.mem_relax.is_finite() && self.mem_relax > 0.0) {
            return Err(ConfigError::BadMemRelax(self.mem_relax));
        }
        if let CommMode::CommThread { period } = self.comm {
            if period == SimDuration::ZERO {
                return Err(ConfigError::BadPollInterval);
            }
        }
        match self.mechanism {
            MechKind::Periodic if self.periodic_interval == SimDuration::ZERO => {
                return Err(ConfigError::BadTimerPeriod);
            }
            MechKind::Gossip => {
                if self.gossip_interval == SimDuration::ZERO {
                    return Err(ConfigError::BadTimerPeriod);
                }
                if self.gossip_fanout == 0 {
                    return Err(ConfigError::ZeroGossipFanout);
                }
            }
            _ => {}
        }
        if self.snapshot_candidates == Some(0) {
            return Err(ConfigError::ZeroSnapshotCandidates);
        }
        if let ExecBackend::Threaded(t) = &self.backend {
            if t.poll_interval.is_zero() {
                return Err(ConfigError::BadPollInterval);
            }
            if !(t.time_scale.is_finite() && t.time_scale > 0.0) {
                return Err(ConfigError::BadTimeScale(t.time_scale));
            }
            if t.wall_timeout.is_zero() {
                return Err(ConfigError::BadWallTimeout);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SolverConfig::new(32);
        assert_eq!(c.nprocs, 32);
        assert!(c.kmin_rows < c.kmax_rows);
        assert!(c.type2_min_front < c.type3_min_front);
        assert!(c.speed_flops > 0.0);
    }

    #[test]
    fn builders_chain() {
        let c = SolverConfig::new(8)
            .with_mechanism(MechKind::Snapshot)
            .with_strategy(Strategy::MemoryBased)
            .with_comm(CommMode::threaded_default())
            .with_backend(ExecBackend::Threaded(ThreadedBackend::new()));
        assert_eq!(c.mechanism, MechKind::Snapshot);
        assert_eq!(c.strategy, Strategy::MemoryBased);
        assert!(matches!(c.comm, CommMode::CommThread { .. }));
        assert_eq!(c.backend.name(), "threaded");
    }

    #[test]
    fn defaults_validate() {
        assert_eq!(SolverConfig::new(1).validate(), Ok(()));
        assert_eq!(
            SolverConfig::new(8)
                .with_backend(ExecBackend::Threaded(ThreadedBackend::new()))
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_catches_bad_ranges() {
        let mut c = SolverConfig::new(4);
        c.speed_flops = 0.0;
        assert!(matches!(c.validate(), Err(ConfigError::BadSpeed(_))));

        let mut c = SolverConfig::new(4);
        c.speed_factors = vec![1.0, 2.0];
        assert_eq!(
            c.validate(),
            Err(ConfigError::SpeedFactorsLen {
                expected: 4,
                got: 2
            })
        );

        let mut c = SolverConfig::new(4);
        c.speed_factors = vec![1.0, -0.5, 1.0, 1.0];
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadSpeedFactor { proc: 1, .. })
        ));

        let mut c = SolverConfig::new(4);
        c.threshold = Some(Threshold::new(0.0, 10.0));
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadThreshold { .. })
        ));

        let mut c = SolverConfig::new(4);
        c.kmin_rows = 500;
        c.kmax_rows = 100;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadRowBounds { .. })
        ));

        let mut c = SolverConfig::new(4);
        c.type2_min_front = 2000;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadFrontBounds { .. })
        ));

        let c = SolverConfig::new(4).with_comm(CommMode::CommThread {
            period: SimDuration::ZERO,
        });
        assert_eq!(c.validate(), Err(ConfigError::BadPollInterval));

        let mut c = SolverConfig::new(4);
        c.snapshot_candidates = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroSnapshotCandidates));

        let c = SolverConfig::new(4).with_backend(ExecBackend::Threaded(
            ThreadedBackend::new().with_time_scale(0.0),
        ));
        assert!(matches!(c.validate(), Err(ConfigError::BadTimeScale(_))));

        let c = SolverConfig::new(4).with_backend(ExecBackend::Threaded(
            ThreadedBackend::new().with_poll_interval(Duration::ZERO),
        ));
        assert_eq!(c.validate(), Err(ConfigError::BadPollInterval));
    }
}

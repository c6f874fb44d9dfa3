//! Run statistics: everything the paper's tables measure.
//!
//! [`RunReport`] (and its [`MetricsSnapshot`]) serialize to JSON through the
//! vendored `serde` shim, so the bench CLI can dump a machine-readable
//! successor to `tables_output.txt`.

use loadex_core::MechStats;
use loadex_obs::{AccuracyReport, MetricsSnapshot, ViewAccuracyProbe};
use loadex_sim::{SimDuration, SimTime};
use serde::{ser::JsonMap, Serialize};

/// Per-process statistics of one run.
#[derive(Clone, Debug, Default)]
pub struct ProcReport {
    /// Peak active memory in entries (Table 4 reports the max over
    /// processes, in millions of real entries).
    pub mem_peak_entries: f64,
    /// Active memory left at the end of the run (should be ~0: fronts freed,
    /// contribution blocks consumed; factors are not active memory).
    pub mem_final_entries: f64,
    /// State messages sent by this process's mechanism.
    pub state_msgs_sent: u64,
    /// State-message bytes sent.
    pub state_bytes_sent: u64,
    /// Dynamic decisions taken (Type 2 masters only).
    pub decisions: u64,
    /// Time spent computing tasks.
    pub busy: SimDuration,
    /// Time spent blocked in snapshot mode.
    pub blocked: SimDuration,
}

/// Aggregate report of one factorization run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Which execution backend produced the run (`"sim"` or `"threaded"`,
    /// the [`ExecBackend::name`](crate::config::ExecBackend::name)).
    pub backend: &'static str,
    /// Simulated factorization (makespan) time — Tables 5 and 7.
    pub factor_time: SimTime,
    /// Per-process details.
    pub procs: Vec<ProcReport>,
    /// Total dynamic decisions — Table 3.
    pub decisions: u64,
    /// Total state messages — Table 6.
    pub state_msgs: u64,
    /// Total state-message bytes.
    pub state_bytes: u64,
    /// Total application (task/data) messages.
    pub app_msgs: u64,
    /// Union of the intervals during which at least one snapshot was in
    /// flight (§4.5: "the total time spent to perform all the snapshot
    /// operations").
    pub snapshot_union_time: SimDuration,
    /// Maximum number of concurrently initiated snapshots (§4.5 reports "at
    /// most 5").
    pub snapshot_max_concurrent: u32,
    /// Snapshots initiated in total (including rebroadcasts).
    pub snapshots_started: u64,
    /// Frozen metrics registry of the run, the one counter registry:
    /// MechStats totals and the network's `net_*` message and byte counts
    /// as counters, plus the latency / snapshot-duration histograms when
    /// the run was observed (see
    /// [`SolverWorld::set_recorder`](crate::engine::SolverWorld::set_recorder)).
    pub metrics: MetricsSnapshot,
    /// View-accuracy report — ground-truth vs. believed views, staleness,
    /// decision-time error and decision regret (`None` unless
    /// [`SolverConfig::accuracy`](crate::config::SolverConfig::accuracy) was
    /// set).
    pub accuracy: Option<AccuracyReport>,
}

impl RunReport {
    /// Peak active memory over all processes, in raw entries (Table 4).
    pub fn mem_peak_entries(&self) -> f64 {
        self.procs
            .iter()
            .map(|p| p.mem_peak_entries)
            .fold(0.0, f64::max)
    }

    /// Peak active memory over all processes, in millions of entries — the
    /// exact unit of Table 4.
    pub fn mem_peak_millions(&self) -> f64 {
        self.mem_peak_entries() / 1e6
    }

    /// Average compute efficiency: busy time / makespan, averaged over
    /// processes.
    pub fn efficiency(&self) -> f64 {
        if self.factor_time == SimTime::ZERO || self.procs.is_empty() {
            return 0.0;
        }
        let total = self.factor_time.as_secs_f64() * self.procs.len() as f64;
        let busy: f64 = self.procs.iter().map(|p| p.busy.as_secs_f64()).sum();
        busy / total
    }

    /// Time in seconds (convenience for table printing).
    pub fn seconds(&self) -> f64 {
        self.factor_time.as_secs_f64()
    }
}

/// One process's contribution to a [`RunReport`].
pub(crate) struct ProcOutcome {
    pub(crate) mem_peak_entries: f64,
    pub(crate) mem_final_entries: f64,
    pub(crate) busy: SimDuration,
    pub(crate) blocked: SimDuration,
    pub(crate) stats: MechStats,
}

/// Messages and bytes the transport carried, per channel.
pub(crate) struct NetCounters {
    pub(crate) state_msgs: u64,
    pub(crate) state_bytes: u64,
    pub(crate) regular_msgs: u64,
    pub(crate) regular_bytes: u64,
}

/// Union of the intervals during which at least one snapshot was in flight,
/// and the peak number of concurrent snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SnapUnion {
    active: u32,
    from: SimTime,
    pub(crate) union: SimDuration,
    pub(crate) max: u32,
}

impl SnapUnion {
    pub(crate) fn begin(&mut self, now: SimTime) {
        if self.active == 0 {
            self.from = now;
        }
        self.active += 1;
        self.max = self.max.max(self.active);
    }

    pub(crate) fn end(&mut self, now: SimTime) {
        debug_assert!(self.active > 0, "snapshot end without a begin");
        self.active = self.active.saturating_sub(1);
        if self.active == 0 {
            self.union += now.since(self.from);
        }
    }

    /// Close a still-open interval at the end of the run.
    pub(crate) fn close(&mut self, now: SimTime) {
        if self.active > 0 {
            self.union += now.since(self.from);
            self.active = 0;
        }
    }
}

/// The run-wide results a backend hands to [`RunReport::build`].
pub(crate) struct RunTotals {
    pub(crate) backend: &'static str,
    pub(crate) factor_time: SimTime,
    pub(crate) net: NetCounters,
    pub(crate) app_msgs: u64,
    pub(crate) snapshots: SnapUnion,
    pub(crate) events_dropped: u64,
    /// The run's histograms.
    pub(crate) metrics: MetricsSnapshot,
    /// The accuracy probe, closed at the factorization time here.
    pub(crate) probe: Option<ViewAccuracyProbe>,
}

impl RunReport {
    /// Fold per-process outcomes and run totals into the report. The metrics
    /// snapshot carries everything the scalar fields summarize: the
    /// per-mechanism totals, the network counters and the histograms.
    pub(crate) fn build(outs: Vec<ProcOutcome>, run: RunTotals) -> RunReport {
        let procs: Vec<ProcReport> = outs
            .iter()
            .map(|o| ProcReport {
                mem_peak_entries: o.mem_peak_entries,
                mem_final_entries: o.mem_final_entries,
                state_msgs_sent: o.stats.msgs_sent,
                state_bytes_sent: o.stats.bytes_sent,
                decisions: o.stats.decisions,
                busy: o.busy,
                blocked: o.blocked,
            })
            .collect();
        let total = |f: fn(&MechStats) -> u64| outs.iter().map(|o| f(&o.stats)).sum::<u64>();
        let (decisions, state_msgs, state_bytes) = (
            total(|s| s.decisions),
            total(|s| s.msgs_sent),
            total(|s| s.bytes_sent),
        );
        let snapshots_started = total(|s| s.snapshots_started);
        let mut metrics = run.metrics;
        let folded = [
            ("net_state_msgs", run.net.state_msgs),
            ("net_regular_msgs", run.net.regular_msgs),
            ("net_state_bytes", run.net.state_bytes),
            ("net_regular_bytes", run.net.regular_bytes),
            ("state_msgs_sent", state_msgs),
            ("state_bytes_sent", state_bytes),
            ("state_msgs_received", total(|s| s.msgs_received)),
            ("decisions", decisions),
            ("snapshots_started", snapshots_started),
            ("snapshot_rebroadcasts", total(|s| s.snapshot_rebroadcasts)),
            ("delayed_answers", total(|s| s.delayed_answers)),
            ("app_msgs", run.app_msgs),
            ("events_dropped", run.events_dropped),
        ];
        for (name, v) in folded {
            metrics.counters.insert(name.to_string(), v);
        }
        let gauges = [
            (
                "mem_peak_entries",
                procs.iter().map(|p| p.mem_peak_entries).fold(0.0, f64::max),
            ),
            ("factor_time_s", run.factor_time.as_secs_f64()),
            ("snapshot_union_s", run.snapshots.union.as_secs_f64()),
            ("snapshot_max_concurrent", run.snapshots.max as f64),
        ];
        for (name, v) in gauges {
            metrics.gauges.insert(name.to_string(), v);
        }
        RunReport {
            backend: run.backend,
            factor_time: run.factor_time,
            decisions,
            state_msgs,
            state_bytes,
            app_msgs: run.app_msgs,
            snapshot_union_time: run.snapshots.union,
            snapshot_max_concurrent: run.snapshots.max,
            snapshots_started,
            procs,
            metrics,
            accuracy: run.probe.map(|mut probe| {
                probe.finish(run.factor_time);
                probe.report()
            }),
        }
    }
}

impl Serialize for ProcReport {
    fn serialize_json(&self, out: &mut String) {
        let mut m = JsonMap::new(out);
        m.field("mem_peak_entries", &self.mem_peak_entries)
            .field("mem_final_entries", &self.mem_final_entries)
            .field("state_msgs_sent", &self.state_msgs_sent)
            .field("state_bytes_sent", &self.state_bytes_sent)
            .field("decisions", &self.decisions)
            .field("busy_s", &self.busy.as_secs_f64())
            .field("blocked_s", &self.blocked.as_secs_f64());
        m.end();
    }
}

impl Serialize for RunReport {
    fn serialize_json(&self, out: &mut String) {
        let mut m = JsonMap::new(out);
        m.field("backend", &self.backend)
            .field("factor_time_s", &self.seconds())
            .field("decisions", &self.decisions)
            .field("state_msgs", &self.state_msgs)
            .field("state_bytes", &self.state_bytes)
            .field("app_msgs", &self.app_msgs)
            .field("snapshot_union_s", &self.snapshot_union_time.as_secs_f64())
            .field("snapshot_max_concurrent", &self.snapshot_max_concurrent)
            .field("snapshots_started", &self.snapshots_started)
            .field("mem_peak_entries", &self.mem_peak_entries())
            .field("efficiency", &self.efficiency())
            .field("procs", &self.procs)
            .field("metrics", &self.metrics)
            .field("accuracy", &self.accuracy);
        m.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_max_over_procs() {
        let r = RunReport {
            backend: "sim",
            factor_time: SimTime(2_000_000_000),
            procs: vec![
                ProcReport {
                    mem_peak_entries: 5e6,
                    busy: SimDuration::from_secs(1),
                    ..Default::default()
                },
                ProcReport {
                    mem_peak_entries: 7e6,
                    busy: SimDuration::from_secs(2),
                    ..Default::default()
                },
            ],
            decisions: 0,
            state_msgs: 0,
            state_bytes: 0,
            app_msgs: 0,
            snapshot_union_time: SimDuration::ZERO,
            snapshot_max_concurrent: 0,
            snapshots_started: 0,
            metrics: Default::default(),
            accuracy: None,
        };
        assert_eq!(r.mem_peak_entries(), 7e6);
        assert!((r.mem_peak_millions() - 7.0).abs() < 1e-9);
        assert!((r.efficiency() - 0.75).abs() < 1e-9);
        assert!((r.seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport {
            backend: "sim",
            factor_time: SimTime::ZERO,
            procs: vec![],
            decisions: 0,
            state_msgs: 0,
            state_bytes: 0,
            app_msgs: 0,
            snapshot_union_time: SimDuration::ZERO,
            snapshot_max_concurrent: 0,
            snapshots_started: 0,
            metrics: Default::default(),
            accuracy: None,
        };
        assert_eq!(r.efficiency(), 0.0);
        assert_eq!(r.mem_peak_entries(), 0.0);
    }
}

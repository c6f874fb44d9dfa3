//! View-accuracy probe: ground truth vs. believed load, over time.
//!
//! The paper compares its mechanisms by traffic and by qualitative view
//! "coherence". This module measures the quantity directly: a
//! [`ViewAccuracyProbe`] maintains the **ground-truth** load vector (what
//! each process's load really is) next to every process's **believed** view
//! of every peer, and integrates the difference over time. Three families of
//! numbers come out:
//!
//! * **view error** — `|believed − true|`, absolute and relative, per
//!   `(observer, subject)` pair, time-weighted so a briefly-wrong view counts
//!   less than a persistently-wrong one;
//! * **staleness** — the age of the freshest information an observer holds
//!   about a subject (time since the last belief refresh about that peer);
//! * **decision-time error** — `|believed − true|` over the deciding
//!   master's row at each dynamic decision: the error the schedulers
//!   actually consume;
//! * **decision regret** — fed in by the scheduler: how often a slave
//!   selection made on the believed view differs from the selection the
//!   ground-truth view would have produced, and by how much load.
//!
//! The probe is execution-backend agnostic: it works on plain rank indices
//! and `(work, mem)` pairs so both the discrete-event simulator and the
//! real-thread backend can drive it (the latter behind a mutex). All error
//! and staleness integrals are event-driven and exact for piecewise-constant
//! signals — every truth or belief change first settles the affected pairs
//! up to the change instant.

use loadex_sim::{SimTime, Welford};
use serde::{ser::JsonMap, Serialize};

/// Pair-state: accumulated error/staleness integrals for one
/// `(observer, subject)` pair live in the flat arrays of the probe; this
/// epsilon guards relative-error denominators.
const REL_EPS: f64 = 1e-12;

/// One instantaneous sample of the system-wide view accuracy (a time-series
/// point for `--accuracy-out` dumps).
#[derive(Clone, Copy, Debug)]
pub struct AccuracyPoint {
    /// Sample instant.
    pub t: SimTime,
    /// Mean absolute workload error over all observer/subject pairs.
    pub mean_abs_err_work: f64,
    /// Largest absolute workload error over all pairs at this instant.
    pub max_abs_err_work: f64,
    /// Mean absolute memory error over all pairs.
    pub mean_abs_err_mem: f64,
    /// Mean information age over all pairs, in seconds.
    pub mean_staleness_s: f64,
}

impl Serialize for AccuracyPoint {
    fn serialize_json(&self, out: &mut String) {
        let mut map = JsonMap::new(out);
        map.field("t", &self.t.as_nanos())
            .field("mean_abs_err_work", &self.mean_abs_err_work)
            .field("max_abs_err_work", &self.max_abs_err_work)
            .field("mean_abs_err_mem", &self.mean_abs_err_mem)
            .field("mean_staleness_s", &self.mean_staleness_s);
        map.end();
    }
}

/// Frozen summary statistics of a finished [`ViewAccuracyProbe`].
///
/// Every field is produced by both execution backends with the same meaning;
/// the cross-backend tests assert the serialized key set is identical.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AccuracySummary {
    /// Observed horizon in seconds (first to last settled instant).
    pub horizon_s: f64,
    /// Time-weighted mean absolute workload error (flops) over all pairs.
    pub mean_abs_err_work: f64,
    /// Largest absolute workload error seen at any instant.
    pub max_abs_err_work: f64,
    /// Time-weighted mean absolute memory error over all pairs.
    pub mean_abs_err_mem: f64,
    /// Largest absolute memory error seen at any instant.
    pub max_abs_err_mem: f64,
    /// Time-weighted mean relative workload error, where the relative error
    /// of a pair is `|b − t| / max(|b|, |t|)` (0 when both sides are 0), so
    /// it is bounded by 1.
    pub mean_rel_err_work: f64,
    /// Largest relative workload error seen.
    pub max_rel_err_work: f64,
    /// Time-weighted mean relative memory error.
    pub mean_rel_err_mem: f64,
    /// Largest relative memory error seen.
    pub max_rel_err_mem: f64,
    /// Time-weighted mean information age in seconds.
    pub mean_staleness_s: f64,
    /// Oldest information age reached by any pair, in seconds.
    pub max_staleness_s: f64,
    /// `(decision, peer)` samples behind the decision-time errors.
    pub decision_err_samples: u64,
    /// Mean absolute workload error of the deciding master's view at its
    /// decisions, over every peer.
    pub mean_decision_err_work: f64,
    /// Largest such workload error.
    pub max_decision_err_work: f64,
    /// Mean absolute memory error of the master's view at its decisions.
    pub mean_decision_err_mem: f64,
    /// Largest such memory error.
    pub max_decision_err_mem: f64,
    /// Dynamic decisions replayed against the ground truth.
    pub decisions: u64,
    /// Decisions whose believed-view selection differed from the
    /// ground-truth selection.
    pub regrets: u64,
    /// Mean ground-truth load gap (chosen minus ideal, per assigned row)
    /// over all decisions.
    pub mean_regret_gap: f64,
    /// Largest per-decision load gap.
    pub max_regret_gap: f64,
}

impl AccuracySummary {
    /// True if every floating-point field is finite (NaN/∞ would indicate an
    /// accounting bug).
    pub fn is_finite(&self) -> bool {
        [
            self.horizon_s,
            self.mean_abs_err_work,
            self.max_abs_err_work,
            self.mean_abs_err_mem,
            self.max_abs_err_mem,
            self.mean_rel_err_work,
            self.max_rel_err_work,
            self.mean_rel_err_mem,
            self.max_rel_err_mem,
            self.mean_staleness_s,
            self.max_staleness_s,
            self.mean_decision_err_work,
            self.max_decision_err_work,
            self.mean_decision_err_mem,
            self.max_decision_err_mem,
            self.mean_regret_gap,
            self.max_regret_gap,
        ]
        .iter()
        .all(|v| v.is_finite())
    }
}

impl Serialize for AccuracySummary {
    fn serialize_json(&self, out: &mut String) {
        let mut map = JsonMap::new(out);
        map.field("horizon_s", &self.horizon_s)
            .field("mean_abs_err_work", &self.mean_abs_err_work)
            .field("max_abs_err_work", &self.max_abs_err_work)
            .field("mean_abs_err_mem", &self.mean_abs_err_mem)
            .field("max_abs_err_mem", &self.max_abs_err_mem)
            .field("mean_rel_err_work", &self.mean_rel_err_work)
            .field("max_rel_err_work", &self.max_rel_err_work)
            .field("mean_rel_err_mem", &self.mean_rel_err_mem)
            .field("max_rel_err_mem", &self.max_rel_err_mem)
            .field("mean_staleness_s", &self.mean_staleness_s)
            .field("max_staleness_s", &self.max_staleness_s)
            .field("decision_err_samples", &self.decision_err_samples)
            .field("mean_decision_err_work", &self.mean_decision_err_work)
            .field("max_decision_err_work", &self.max_decision_err_work)
            .field("mean_decision_err_mem", &self.mean_decision_err_mem)
            .field("max_decision_err_mem", &self.max_decision_err_mem)
            .field("decisions", &self.decisions)
            .field("regrets", &self.regrets)
            .field("mean_regret_gap", &self.mean_regret_gap)
            .field("max_regret_gap", &self.max_regret_gap);
        map.end();
    }
}

/// A view-accuracy report: the summary plus the sampled time series.
#[derive(Clone, Debug, Default)]
pub struct AccuracyReport {
    /// Summary statistics over the whole run.
    pub summary: AccuracySummary,
    /// Instantaneous samples (one per probe tick; empty when no periodic
    /// probe was configured).
    pub series: Vec<AccuracyPoint>,
}

impl Serialize for AccuracyReport {
    fn serialize_json(&self, out: &mut String) {
        let mut map = JsonMap::new(out);
        map.field("summary", &self.summary)
            .field("series", &self.series);
        map.end();
    }
}

/// Maintains ground truth and per-process beliefs, integrating view error
/// and staleness over time. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct ViewAccuracyProbe {
    nprocs: usize,
    /// Ground-truth `(work, mem)` per process.
    truth: Vec<(f64, f64)>,
    /// `beliefs[p * nprocs + q]`: what `p` believes about `q`.
    beliefs: Vec<(f64, f64)>,
    /// Last instant (ns) up to which pair `(p, q)`'s error was integrated.
    pair_t: Vec<u64>,
    /// Last instant (ns) at which `p` refreshed its belief about `q`.
    info_t: Vec<u64>,
    start: u64,
    now: u64,
    int_abs_work: f64,
    int_abs_mem: f64,
    int_rel_work: f64,
    int_rel_mem: f64,
    max_abs_work: f64,
    max_abs_mem: f64,
    max_rel_work: f64,
    max_rel_mem: f64,
    /// Integral of information age over time, in seconds² (per pair, summed).
    int_stale_s2: f64,
    max_stale_s: f64,
    /// `|belief − truth|` over the master's row at each decision.
    decision_err_work: Welford,
    decision_err_mem: Welford,
    decisions: u64,
    regrets: u64,
    gap_sum: f64,
    gap_max: f64,
    series: Vec<AccuracyPoint>,
}

fn rel_err(believed: f64, truth: f64) -> f64 {
    let denom = believed.abs().max(truth.abs());
    if denom <= REL_EPS {
        0.0
    } else {
        // Clamped: loads are nonnegative, but mechanism views can transiently
        // dip below zero by a rounding hair, which would push the ratio past
        // its documented bound.
        ((believed - truth).abs() / denom).min(1.0)
    }
}

impl ViewAccuracyProbe {
    /// A probe for `nprocs` processes, all loads zero, clock at the origin.
    pub fn new(nprocs: usize) -> Self {
        let n2 = nprocs * nprocs;
        ViewAccuracyProbe {
            nprocs,
            truth: vec![(0.0, 0.0); nprocs],
            beliefs: vec![(0.0, 0.0); n2],
            pair_t: vec![0; n2],
            info_t: vec![0; n2],
            start: 0,
            now: 0,
            int_abs_work: 0.0,
            int_abs_mem: 0.0,
            int_rel_work: 0.0,
            int_rel_mem: 0.0,
            max_abs_work: 0.0,
            max_abs_mem: 0.0,
            max_rel_work: 0.0,
            max_rel_mem: 0.0,
            int_stale_s2: 0.0,
            max_stale_s: 0.0,
            decision_err_work: Welford::default(),
            decision_err_mem: Welford::default(),
            decisions: 0,
            regrets: 0,
            gap_sum: 0.0,
            gap_max: 0.0,
            series: Vec::new(),
        }
    }

    /// Number of processes tracked.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current ground-truth `(work, mem)` vector, indexed by rank.
    pub fn truth_vector(&self) -> &[(f64, f64)] {
        &self.truth
    }

    #[inline]
    fn idx(&self, p: usize, q: usize) -> usize {
        p * self.nprocs + q
    }

    /// Settle the error integral of pair `(p, q)` up to `t` with the current
    /// (about-to-change) values, then stamp the pair.
    fn settle_pair(&mut self, p: usize, q: usize, t: u64) {
        let i = self.idx(p, q);
        // Clocks across real threads may race; never integrate backwards.
        let dt = t.saturating_sub(self.pair_t[i]) as f64 * 1e-9;
        if dt > 0.0 {
            let (bw, bm) = self.beliefs[i];
            let (tw, tm) = self.truth[q];
            self.int_abs_work += (bw - tw).abs() * dt;
            self.int_abs_mem += (bm - tm).abs() * dt;
            self.int_rel_work += rel_err(bw, tw) * dt;
            self.int_rel_mem += rel_err(bm, tm) * dt;
            // Maxima are time-weighted too: an error must have persisted for
            // a positive duration to count (a belief corrected in the same
            // instant the truth changed was never actually wrong).
            self.max_abs_work = self.max_abs_work.max((bw - tw).abs());
            self.max_abs_mem = self.max_abs_mem.max((bm - tm).abs());
            self.max_rel_work = self.max_rel_work.max(rel_err(bw, tw));
            self.max_rel_mem = self.max_rel_mem.max(rel_err(bm, tm));
        }
        self.pair_t[i] = self.pair_t[i].max(t);
    }

    /// Settle the staleness integral of pair `(p, q)` up to `t` and refresh
    /// its information timestamp when `refresh` is set.
    fn settle_staleness(&mut self, p: usize, q: usize, t: u64, refresh: bool) {
        let i = self.idx(p, q);
        let age_s = t.saturating_sub(self.info_t[i]) as f64 * 1e-9;
        self.max_stale_s = self.max_stale_s.max(age_s);
        if refresh {
            // The age grew linearly from 0 since the last refresh; the
            // triangle closes here.
            self.int_stale_s2 += age_s * age_s * 0.5;
            self.info_t[i] = self.info_t[i].max(t);
        }
    }

    #[inline]
    fn touch(&mut self, t: u64) {
        self.now = self.now.max(t);
    }

    /// Record that the **true** load of process `q` is now `(work, mem)`.
    pub fn set_truth(&mut self, t: SimTime, q: usize, work: f64, mem: f64) {
        let t = t.as_nanos();
        self.touch(t);
        for p in 0..self.nprocs {
            if p != q {
                self.settle_pair(p, q, t);
            }
        }
        self.truth[q] = (work, mem);
    }

    /// Record that process `p` now **believes** process `q`'s load is
    /// `(work, mem)`. Refreshes `p`'s information age about `q`. Self-pairs
    /// (`p == q`) are ignored: a process's view of itself is not part of the
    /// accuracy question the paper poses.
    pub fn set_belief(&mut self, t: SimTime, p: usize, q: usize, work: f64, mem: f64) {
        if p == q {
            return;
        }
        let t = t.as_nanos();
        self.touch(t);
        self.settle_pair(p, q, t);
        self.settle_staleness(p, q, t, true);
        let i = self.idx(p, q);
        self.beliefs[i] = (work, mem);
    }

    /// Record one replayed dynamic decision of master `p`: the error of its
    /// view of every peer at this instant, whether the believed-view
    /// selection `mismatch`ed the ground-truth selection, and the
    /// ground-truth load `gap` (per assigned row) it cost. NaN gaps are
    /// recorded as mismatch-only.
    pub fn record_decision(&mut self, p: usize, mismatch: bool, gap: f64) {
        for q in (0..self.nprocs).filter(|&q| q != p) {
            let (bw, bm) = self.beliefs[self.idx(p, q)];
            let (tw, tm) = self.truth[q];
            self.decision_err_work.push((bw - tw).abs());
            self.decision_err_mem.push((bm - tm).abs());
        }
        self.decisions += 1;
        if mismatch {
            self.regrets += 1;
        }
        if gap.is_finite() {
            let gap = gap.max(0.0);
            self.gap_sum += gap;
            self.gap_max = self.gap_max.max(gap);
        }
    }

    /// Instantaneous system-wide accuracy at `t`, appended to the series.
    pub fn sample(&mut self, t: SimTime) {
        let tn = t.as_nanos();
        self.touch(tn);
        let mut sum_w = 0.0;
        let mut max_w = 0.0f64;
        let mut sum_m = 0.0;
        let mut sum_age = 0.0;
        let mut pairs = 0u64;
        for p in 0..self.nprocs {
            for q in 0..self.nprocs {
                if p == q {
                    continue;
                }
                self.settle_pair(p, q, tn);
                self.settle_staleness(p, q, tn, false);
                let i = self.idx(p, q);
                let (bw, bm) = self.beliefs[i];
                let (tw, tm) = self.truth[q];
                sum_w += (bw - tw).abs();
                max_w = max_w.max((bw - tw).abs());
                sum_m += (bm - tm).abs();
                sum_age += tn.saturating_sub(self.info_t[i]) as f64 * 1e-9;
                pairs += 1;
            }
        }
        let n = pairs.max(1) as f64;
        self.series.push(AccuracyPoint {
            t,
            mean_abs_err_work: sum_w / n,
            max_abs_err_work: max_w,
            mean_abs_err_mem: sum_m / n,
            mean_staleness_s: sum_age / n,
        });
    }

    /// Close every integral at `t` (typically the end of the run). Idempotent
    /// in the sense that later calls only extend the horizon.
    pub fn finish(&mut self, t: SimTime) {
        let tn = t.as_nanos();
        self.touch(tn);
        for p in 0..self.nprocs {
            for q in 0..self.nprocs {
                if p == q {
                    continue;
                }
                self.settle_pair(p, q, tn);
                // Close the open staleness triangle without refreshing the
                // info timestamp twice: refresh = true both settles and
                // resets, which is what we want at the horizon.
                self.settle_staleness(p, q, tn, true);
            }
        }
    }

    /// Summary statistics. Call [`ViewAccuracyProbe::finish`] first so the
    /// integrals cover the whole run.
    pub fn summary(&self) -> AccuracySummary {
        let horizon_s = self.now.saturating_sub(self.start) as f64 * 1e-9;
        let pairs = (self.nprocs * self.nprocs.saturating_sub(1)) as f64;
        let norm = horizon_s * pairs;
        let mean = |integral: f64| if norm > 0.0 { integral / norm } else { 0.0 };
        AccuracySummary {
            horizon_s,
            mean_abs_err_work: mean(self.int_abs_work),
            max_abs_err_work: self.max_abs_work,
            mean_abs_err_mem: mean(self.int_abs_mem),
            max_abs_err_mem: self.max_abs_mem,
            mean_rel_err_work: mean(self.int_rel_work),
            max_rel_err_work: self.max_rel_work,
            mean_rel_err_mem: mean(self.int_rel_mem),
            max_rel_err_mem: self.max_rel_mem,
            mean_staleness_s: mean(self.int_stale_s2),
            max_staleness_s: self.max_stale_s,
            decision_err_samples: self.decision_err_work.count(),
            mean_decision_err_work: self.decision_err_work.mean(),
            max_decision_err_work: self.decision_err_work.max(),
            mean_decision_err_mem: self.decision_err_mem.mean(),
            max_decision_err_mem: self.decision_err_mem.max(),
            decisions: self.decisions,
            regrets: self.regrets,
            mean_regret_gap: if self.decisions > 0 {
                self.gap_sum / self.decisions as f64
            } else {
                0.0
            },
            max_regret_gap: self.gap_max,
        }
    }

    /// The sampled time series so far.
    pub fn series(&self) -> &[AccuracyPoint] {
        &self.series
    }

    /// The full report: summary plus series.
    pub fn report(&self) -> AccuracyReport {
        AccuracyReport {
            summary: self.summary(),
            series: self.series.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime(n)
    }

    #[test]
    fn perfect_views_have_zero_error() {
        let mut p = ViewAccuracyProbe::new(2);
        p.set_truth(ns(0), 1, 10.0, 5.0);
        p.set_belief(ns(0), 0, 1, 10.0, 5.0);
        p.finish(ns(1_000_000_000));
        let s = p.summary();
        assert_eq!(s.mean_abs_err_work, 0.0);
        assert_eq!(s.max_abs_err_work, 0.0);
        assert!(s.is_finite());
    }

    #[test]
    fn error_is_time_weighted() {
        // Two processes: p0's belief about p1 is wrong by 10 work units for
        // the first half of a 2 s run, exact for the second half.
        let mut p = ViewAccuracyProbe::new(2);
        p.set_truth(ns(0), 1, 10.0, 0.0);
        p.set_belief(ns(1_000_000_000), 0, 1, 10.0, 0.0);
        p.finish(ns(2_000_000_000));
        let s = p.summary();
        // Pair (0,1) integrates 10 × 1 s = 10; pair (1,0) integrates 0.
        // Mean over 2 pairs × 2 s horizon = 10 / 4 = 2.5.
        assert!((s.mean_abs_err_work - 2.5).abs() < 1e-9, "{s:?}");
        assert_eq!(s.max_abs_err_work, 10.0);
        // Relative error was 1.0 (believed 0 vs true 10) half the time.
        assert_eq!(s.max_rel_err_work, 1.0);
    }

    #[test]
    fn staleness_integrates_triangles() {
        // One refresh at t=1 s, horizon 2 s: the pair (0,1) contributes
        // 1²/2 + 1²/2 = 1.0 s²; pair (1,0) never refreshed contributes
        // 2²/2 = 2.0 s². Mean age = 3.0 / (2 pairs × 2 s) = 0.75 s.
        let mut p = ViewAccuracyProbe::new(2);
        p.set_belief(ns(1_000_000_000), 0, 1, 0.0, 0.0);
        p.finish(ns(2_000_000_000));
        let s = p.summary();
        assert!((s.mean_staleness_s - 0.75).abs() < 1e-9, "{s:?}");
        assert!((s.max_staleness_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decisions_and_regret_accumulate() {
        let mut p = ViewAccuracyProbe::new(2);
        p.record_decision(0, false, 0.0);
        p.record_decision(0, true, 4.0);
        p.record_decision(1, true, 2.0);
        let s = p.summary();
        assert_eq!(s.decisions, 3);
        assert_eq!(s.regrets, 2);
        assert!((s.mean_regret_gap - 2.0).abs() < 1e-9);
        assert_eq!(s.max_regret_gap, 4.0);
    }

    #[test]
    fn decision_error_folds_the_masters_row() {
        // Three processes. Master 0 believes (5, 1) of P1 and (0, 0) of P2;
        // the truth is (2, 1) and (4, 3). P1's own wrong belief about P2 and
        // the self-pair (truth (9, 9) vs nothing) must not count.
        let mut p = ViewAccuracyProbe::new(3);
        p.set_truth(ns(0), 0, 9.0, 9.0);
        p.set_truth(ns(0), 1, 2.0, 1.0);
        p.set_truth(ns(0), 2, 4.0, 3.0);
        p.set_belief(ns(0), 0, 1, 5.0, 1.0);
        p.set_belief(ns(0), 1, 2, 100.0, 100.0);
        p.record_decision(0, false, 0.0);
        let s = p.summary();
        assert_eq!(s.decision_err_samples, 2);
        assert!((s.mean_decision_err_work - 3.5).abs() < 1e-12, "{s:?}");
        assert_eq!(s.max_decision_err_work, 4.0);
        assert!((s.mean_decision_err_mem - 1.5).abs() < 1e-12, "{s:?}");
        assert_eq!(s.max_decision_err_mem, 3.0);
        assert!(s.is_finite());
    }

    #[test]
    fn sample_produces_series_points() {
        let mut p = ViewAccuracyProbe::new(3);
        p.set_truth(ns(0), 2, 100.0, 50.0);
        p.sample(ns(500));
        p.set_belief(ns(1_000), 0, 2, 100.0, 50.0);
        p.sample(ns(2_000));
        assert_eq!(p.series().len(), 2);
        assert!(p.series()[0].mean_abs_err_work > 0.0);
        assert!(p.series()[1].mean_abs_err_work < p.series()[0].mean_abs_err_work);
    }

    #[test]
    fn non_monotone_clocks_never_integrate_backwards() {
        let mut p = ViewAccuracyProbe::new(2);
        p.set_belief(ns(1_000_000), 0, 1, 5.0, 0.0);
        // A racing thread reports an earlier instant: must not panic or
        // produce negative integrals.
        p.set_belief(ns(500_000), 0, 1, 6.0, 0.0);
        p.finish(ns(2_000_000));
        let s = p.summary();
        assert!(s.is_finite());
        assert!(s.mean_abs_err_work >= 0.0);
        assert!(s.mean_staleness_s >= 0.0);
    }

    #[test]
    fn single_process_degenerates_safely() {
        let mut p = ViewAccuracyProbe::new(1);
        p.set_truth(ns(0), 0, 1.0, 1.0);
        p.finish(ns(1_000));
        let s = p.summary();
        assert!(s.is_finite());
        assert_eq!(s.mean_abs_err_work, 0.0);
    }

    #[test]
    fn summary_serializes_all_keys() {
        let s = AccuracySummary::default();
        let json = s.to_json();
        for key in [
            "horizon_s",
            "mean_abs_err_work",
            "max_abs_err_work",
            "mean_rel_err_work",
            "mean_staleness_s",
            "decision_err_samples",
            "mean_decision_err_work",
            "max_decision_err_mem",
            "decisions",
            "regrets",
            "mean_regret_gap",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

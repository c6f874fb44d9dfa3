//! Dynamic scheduling: slave selection and task selection (§4.2).
//!
//! Both strategies distribute the `ncb = nfront − npiv` non-pivot rows of a
//! Type 2 front over dynamically chosen slaves by **irregular 1D row
//! blocking**: each slave receives a contiguous block of rows sized so that
//! the believed load (memory or workload) levels out — a water-filling
//! problem — subject to the granularity constraints `kmin ≤ rows ≤ kmax`.

use crate::config::{SolverConfig, Strategy};
use loadex_core::LoadTable;
use loadex_sim::ActorId;

/// One selected slave and its row share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Share {
    /// The slave process.
    pub slave: ActorId,
    /// Rows of the front assigned to it.
    pub rows: u32,
}

/// Exact water-filling: given ascending `levels`, a per-row cost `c > 0` and
/// `total` rows, return the fractional rows per candidate that minimise the
/// maximum of `level_i + x_i·c` subject to `Σx_i = total`, `x_i ≥ 0`.
fn water_fill(levels: &[f64], c: f64, total: f64) -> Vec<f64> {
    debug_assert!(levels.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(c > 0.0);
    let n = levels.len();
    if n == 0 || total <= 0.0 {
        return vec![0.0; n];
    }
    // Find the water level T: Σ_{level_i < T} (T − level_i)/c = total.
    // Try prefixes: with the first k candidates active,
    //   T = (total·c + Σ_{i<k} level_i) / k, valid if T ≥ level_{k−1} and
    //   (k == n or T ≤ level_k).
    let mut prefix = 0.0;
    let mut t = 0.0;
    let mut used = n;
    for k in 1..=n {
        prefix += levels[k - 1];
        let cand = (total * c + prefix) / k as f64;
        if cand >= levels[k - 1] && (k == n || cand <= levels[k]) {
            t = cand;
            used = k;
            break;
        }
    }
    if used == n && t == 0.0 {
        // Numerical fallback: all candidates active.
        t = (total * c + prefix) / n as f64;
    }
    (0..n)
        .map(|i| {
            if i < used {
                ((t - levels[i]) / c).max(0.0)
            } else {
                0.0
            }
        })
        .collect()
}

/// Select slaves for a Type 2 front.
///
/// * `view` — the believed loads of all processes (from the mechanism).
/// * `ncb_rows` — rows to distribute.
/// * `mem_per_row` — entries a slave allocates per received row.
/// * `work_per_row` — flops a slave performs per received row.
///
/// The memory-based strategy levels believed **memory**; the workload-based
/// strategy levels believed **workload** but refuses candidates whose
/// believed memory exceeds `mem_relax ×` the average (its "dynamically
/// estimated memory constraint", §4.2.2) unless no candidate qualifies.
///
/// `allowed` restricts the candidates to a subset (used with partial
/// snapshots, whose view is only fresh for the queried candidates); `None`
/// considers every other process.
pub fn select_slaves_among(
    cfg: &SolverConfig,
    view: &LoadTable,
    ncb_rows: u32,
    mem_per_row: f64,
    work_per_row: f64,
    allowed: Option<&[ActorId]>,
) -> Vec<Share> {
    let me = view.me();
    if ncb_rows == 0 || view.nprocs() < 2 {
        return Vec::new();
    }
    let permitted = |p: ActorId| allowed.is_none_or(|set| set.contains(&p));
    let mut cands: Vec<(ActorId, f64)> = match cfg.strategy {
        Strategy::MemoryBased => view
            .others()
            .filter(|(p, _)| permitted(*p))
            .map(|(p, l)| (p, l.mem))
            .collect(),
        Strategy::WorkloadBased => {
            let avg_mem = view.total().mem / view.nprocs() as f64;
            let cap = cfg.mem_relax * avg_mem.max(1.0);
            let ok: Vec<(ActorId, f64)> = view
                .others()
                .filter(|(p, _)| permitted(*p))
                .filter(|(_, l)| l.mem <= cap)
                .map(|(p, l)| (p, l.work))
                .collect();
            if ok.is_empty() {
                view.others()
                    .filter(|(p, _)| permitted(*p))
                    .map(|(p, l)| (p, l.work))
                    .collect()
            } else {
                ok
            }
        }
    };
    if cands.is_empty() {
        return Vec::new();
    }
    debug_assert!(cands.iter().all(|(p, _)| *p != me));
    // Deterministic order: by level, ties by rank.
    cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())));

    let per_row = match cfg.strategy {
        Strategy::MemoryBased => mem_per_row,
        Strategy::WorkloadBased => work_per_row,
    }
    .max(1e-12);
    let levels: Vec<f64> = cands.iter().map(|&(_, l)| l).collect();
    let ideal = water_fill(&levels, per_row, ncb_rows as f64);

    // Round under granularity constraints.
    let kmin = cfg.kmin_rows.min(ncb_rows).max(1);
    let kmax = cfg.kmax_rows.max(kmin);
    let mut shares: Vec<Share> = Vec::new();
    let mut remaining = ncb_rows;
    for (i, &(p, _)) in cands.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let want = ideal[i].round() as u32;
        if want == 0 && !shares.is_empty() {
            continue;
        }
        let rows = want.clamp(kmin, kmax).min(remaining);
        if rows == 0 {
            continue;
        }
        shares.push(Share { slave: p, rows });
        remaining -= rows;
    }
    // Top up to kmax in candidate order if rows remain.
    if remaining > 0 {
        for s in shares.iter_mut() {
            if remaining == 0 {
                break;
            }
            let room = kmax.saturating_sub(s.rows);
            let add = room.min(remaining);
            s.rows += add;
            remaining -= add;
        }
    }
    // Recruit unused candidates if still short.
    if remaining > 0 {
        for &(p, _) in &cands {
            if remaining == 0 {
                break;
            }
            if shares.iter().any(|s| s.slave == p) {
                continue;
            }
            let rows = remaining.min(kmax);
            shares.push(Share { slave: p, rows });
            remaining -= rows;
        }
    }
    // Last resort: everyone is at kmax — relax kmax on the emptiest.
    if remaining > 0 {
        if let Some(first) = shares.first_mut() {
            first.rows += remaining;
        } else {
            // No candidates at all (nprocs == 1 was excluded above, so this
            // cannot happen, but stay defensive).
            return Vec::new();
        }
    }
    debug_assert_eq!(shares.iter().map(|s| s.rows).sum::<u32>(), ncb_rows);
    shares
}

/// Outcome of replaying one dynamic slave selection against the ground
/// truth: did the believed view pick different slaves, and how much worse
/// (in the strategy's own metric) were the picks?
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RegretSample {
    /// The believed-view selection differs from the ground-truth selection.
    pub mismatch: bool,
    /// Rows-weighted mean true load level of the chosen slaves minus that of
    /// the ideal slaves, in the strategy's metric (flops for workload-based,
    /// entries for memory-based). Clamped at 0: a luckily-better pick is not
    /// negative regret.
    pub gap: f64,
}

/// Replay a slave selection against the **ground-truth** view and measure
/// the decision regret (what the paper's view staleness actually costs).
///
/// `chosen` is the selection the mechanism's believed view produced; the
/// ideal selection re-runs [`select_slaves_among`] with the same parameters
/// on `truth`. Deterministic tie-breaking on both sides makes `mismatch`
/// exact: identical views always produce identical selections.
pub fn selection_regret(
    cfg: &SolverConfig,
    truth: &LoadTable,
    chosen: &[Share],
    ncb_rows: u32,
    mem_per_row: f64,
    work_per_row: f64,
    allowed: Option<&[ActorId]>,
) -> RegretSample {
    let ideal = select_slaves_among(cfg, truth, ncb_rows, mem_per_row, work_per_row, allowed);
    let canon = |shares: &[Share]| {
        let mut v: Vec<Share> = shares.to_vec();
        v.sort_by_key(|s| s.slave.index());
        v
    };
    let mismatch = canon(chosen) != canon(&ideal);
    let level = |p: ActorId| {
        let l = truth.get(p);
        match cfg.strategy {
            Strategy::MemoryBased => l.mem,
            Strategy::WorkloadBased => l.work,
        }
    };
    let weighted = |shares: &[Share]| -> f64 {
        let rows: f64 = shares.iter().map(|s| f64::from(s.rows)).sum();
        if rows <= 0.0 {
            return 0.0;
        }
        shares
            .iter()
            .map(|s| level(s.slave) * f64::from(s.rows))
            .sum::<f64>()
            / rows
    };
    let gap = (weighted(chosen) - weighted(&ideal)).max(0.0);
    RegretSample { mismatch, gap }
}

/// Memory-aware task selection (§4.2.1): pick the next of `n` ready tasks.
///
/// `alloc(i)` is the extra active memory (entries) ready task `i` would
/// allocate when started; only the memory-based strategy calls it. Under
/// that strategy, a task whose allocation would push this process beyond
/// `mem_relax ×` the believed average memory is skipped when a smaller
/// candidate exists; ties favour FIFO order. Under the workload-based
/// strategy, plain FIFO. Returns the chosen index.
pub fn pick_task(
    cfg: &SolverConfig,
    view: &LoadTable,
    n: usize,
    alloc: impl Fn(usize) -> f64,
) -> Option<usize> {
    if n == 0 {
        return None;
    }
    match cfg.strategy {
        Strategy::WorkloadBased => Some(0),
        Strategy::MemoryBased => {
            let my_mem = view.my_load().mem;
            let avg = view.total().mem / view.nprocs() as f64;
            let cap = cfg.mem_relax * avg.max(1.0);
            // First task that fits, in FIFO order…
            if let Some(i) = (0..n).find(|&i| my_mem + alloc(i) <= cap) {
                return Some(i);
            }
            // …otherwise the smallest allocation (progress guarantee).
            (0..n)
                .map(|i| (i, alloc(i)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadex_core::Load;
    use loadex_core::MechKind;

    fn cfg(strategy: Strategy) -> SolverConfig {
        let mut c = SolverConfig::new(4).with_strategy(strategy);
        c.mechanism = MechKind::Increments;
        c.kmin_rows = 10;
        c.kmax_rows = 1000;
        c
    }

    fn view(loads: &[(f64, f64)]) -> LoadTable {
        let mut v = LoadTable::new(ActorId(0), loads.len());
        for (i, &(w, m)) in loads.iter().enumerate() {
            v.set(ActorId(i), Load::new(w, m));
        }
        v
    }

    #[test]
    fn water_fill_levels_out() {
        let x = water_fill(&[0.0, 10.0, 20.0], 1.0, 40.0);
        // Final levels: 0+x0, 10+x1, 20+x2 all equal 23.33…
        let t0 = 0.0 + x[0];
        let t1 = 10.0 + x[1];
        let t2 = 20.0 + x[2];
        assert!((t0 - t1).abs() < 1e-9 && (t1 - t2).abs() < 1e-9);
        assert!((x.iter().sum::<f64>() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_skips_overloaded() {
        let x = water_fill(&[0.0, 100.0], 1.0, 10.0);
        assert_eq!(x, vec![10.0, 0.0]);
    }

    #[test]
    fn water_fill_empty_and_zero() {
        assert!(water_fill(&[], 1.0, 10.0).is_empty());
        assert_eq!(water_fill(&[1.0, 2.0], 1.0, 0.0), vec![0.0, 0.0]);
    }

    #[test]
    fn memory_strategy_prefers_low_memory_procs() {
        let c = cfg(Strategy::MemoryBased);
        // P1 has low memory, P2 and P3 are loaded.
        let v = view(&[(0.0, 0.0), (5.0, 100.0), (5.0, 9000.0), (5.0, 9000.0)]);
        let shares = select_slaves_among(&c, &v, 100, 10.0, 50.0, None);
        assert_eq!(shares.iter().map(|s| s.rows).sum::<u32>(), 100);
        let p1 = shares
            .iter()
            .find(|s| s.slave == ActorId(1))
            .map(|s| s.rows)
            .unwrap_or(0);
        assert!(p1 >= 80, "P1 should take the bulk, got {p1}");
    }

    #[test]
    fn workload_strategy_prefers_idle_procs() {
        let c = cfg(Strategy::WorkloadBased);
        let v = view(&[(0.0, 0.0), (1e6, 0.0), (10.0, 0.0), (1e6, 0.0)]);
        let shares = select_slaves_among(&c, &v, 60, 10.0, 50.0, None);
        let p2 = shares
            .iter()
            .find(|s| s.slave == ActorId(2))
            .map(|s| s.rows)
            .unwrap_or(0);
        assert_eq!(p2, 60, "idle P2 takes everything under kmax");
    }

    #[test]
    fn workload_strategy_respects_memory_cap() {
        let mut c = cfg(Strategy::WorkloadBased);
        c.mem_relax = 1.2;
        // P1 is idle but memory-saturated; P2 busy but has room.
        let v = view(&[
            (0.0, 100.0),
            (0.0, 10_000.0),
            (500.0, 100.0),
            (400.0, 100.0),
        ]);
        let shares = select_slaves_among(&c, &v, 50, 10.0, 50.0, None);
        assert!(
            shares.iter().all(|s| s.slave != ActorId(1)),
            "memory-saturated P1 must be excluded: {shares:?}"
        );
    }

    #[test]
    fn granularity_floor_and_ceiling() {
        let mut c = cfg(Strategy::WorkloadBased);
        c.kmin_rows = 30;
        c.kmax_rows = 40;
        let v = view(&[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]);
        let shares = select_slaves_among(&c, &v, 100, 1.0, 1.0, None);
        assert_eq!(shares.iter().map(|s| s.rows).sum::<u32>(), 100);
        for s in &shares {
            assert!(s.rows >= 20 && s.rows <= 40, "share {s:?} out of bounds");
        }
        assert!(shares.len() >= 3);
    }

    #[test]
    fn all_rows_distributed_even_when_kmax_binds() {
        let mut c = cfg(Strategy::WorkloadBased);
        c.kmax_rows = 10; // 3 candidates × 10 = 30 < 100 rows
        let v = view(&[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]);
        let shares = select_slaves_among(&c, &v, 100, 1.0, 1.0, None);
        assert_eq!(shares.iter().map(|s| s.rows).sum::<u32>(), 100);
    }

    #[test]
    fn no_rows_no_slaves() {
        let c = cfg(Strategy::MemoryBased);
        let v = view(&[(0.0, 0.0), (0.0, 0.0)]);
        assert!(select_slaves_among(&c, &v, 0, 1.0, 1.0, None).is_empty());
    }

    #[test]
    fn master_never_selects_itself() {
        let c = cfg(Strategy::MemoryBased);
        let v = view(&[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]);
        let shares = select_slaves_among(&c, &v, 200, 1.0, 1.0, None);
        assert!(shares.iter().all(|s| s.slave != ActorId(0)));
    }

    #[test]
    fn regret_is_zero_when_views_agree() {
        let c = cfg(Strategy::WorkloadBased);
        let truth = view(&[(0.0, 0.0), (1e6, 0.0), (10.0, 0.0), (1e6, 0.0)]);
        let chosen = select_slaves_among(&c, &truth, 60, 10.0, 50.0, None);
        let r = selection_regret(&c, &truth, &chosen, 60, 10.0, 50.0, None);
        assert!(!r.mismatch);
        assert_eq!(r.gap, 0.0);
    }

    #[test]
    fn stale_view_incurs_regret() {
        let c = cfg(Strategy::WorkloadBased);
        // The believed view still thinks P2 is idle; in truth P2 got loaded
        // and P1 is now the idle one.
        let believed = view(&[(0.0, 0.0), (1e6, 0.0), (10.0, 0.0), (1e6, 0.0)]);
        let truth = view(&[(0.0, 0.0), (10.0, 0.0), (1e6, 0.0), (1e6, 0.0)]);
        let chosen = select_slaves_among(&c, &believed, 60, 10.0, 50.0, None);
        let r = selection_regret(&c, &truth, &chosen, 60, 10.0, 50.0, None);
        assert!(r.mismatch);
        assert!(r.gap > 0.0, "picked a truly-loaded slave: {r:?}");
    }

    #[test]
    fn regret_gap_never_negative() {
        let c = cfg(Strategy::WorkloadBased);
        let truth = view(&[(0.0, 0.0), (5.0, 0.0), (5.0, 0.0), (5.0, 0.0)]);
        // A hand-made "better than ideal" pick still reports gap 0.
        let chosen = [Share {
            slave: ActorId(1),
            rows: 60,
        }];
        let r = selection_regret(&c, &truth, &chosen, 60, 10.0, 50.0, None);
        assert!(r.gap >= 0.0);
    }

    #[test]
    fn pick_task_fifo_under_workload() {
        let c = cfg(Strategy::WorkloadBased);
        let v = view(&[(0.0, 0.0), (0.0, 0.0)]);
        let ready = [100.0, 1.0];
        assert_eq!(pick_task(&c, &v, ready.len(), |i| ready[i]), Some(0));
    }

    #[test]
    fn pick_task_memory_aware_skips_big_alloc() {
        let mut c = cfg(Strategy::MemoryBased);
        c.mem_relax = 1.0;
        // My memory 100, average (100+100)/2 = 100, cap 100: the 500-entry
        // task busts the cap, the 0-entry one fits.
        let v = view(&[(0.0, 100.0), (0.0, 100.0)]);
        let ready = [500.0, 0.0];
        assert_eq!(pick_task(&c, &v, ready.len(), |i| ready[i]), Some(1));
    }

    #[test]
    fn pick_task_falls_back_to_smallest() {
        let mut c = cfg(Strategy::MemoryBased);
        c.mem_relax = 0.1;
        let v = view(&[(0.0, 100.0), (0.0, 100.0)]);
        let ready = [500.0, 300.0];
        assert_eq!(pick_task(&c, &v, ready.len(), |i| ready[i]), Some(1));
    }

    #[test]
    fn pick_task_empty() {
        let c = cfg(Strategy::MemoryBased);
        let v = view(&[(0.0, 0.0)]);
        assert_eq!(pick_task(&c, &v, 0, |_| unreachable!()), None);
    }
}

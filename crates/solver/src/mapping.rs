//! The static phase (§4.1): subtree mapping, type classification, master
//! assignment.
//!
//! * **Leaf subtrees** are found by Geist–Ng proportional deepening: starting
//!   from the roots, the largest-cost subtree is replaced by its children
//!   until no subtree exceeds `total_flops / (α · nprocs)`; the resulting
//!   layer is bin-packed (LPT) onto the processes. A leaf subtree is "a set
//!   of tasks all assigned to the same processor".
//! * **Type 1** nodes (sequential, above the subtree layer) and the masters
//!   of **Type 2** nodes (1D-parallel) are mapped statically, "only aiming
//!   at balancing the memory of the corresponding factors".
//! * The largest root front becomes the **Type 3** 2D-cyclic node
//!   (ScaLAPACK in the paper) with no dynamic decision.

use crate::config::SolverConfig;
use loadex_sparse::AssemblyTree;

/// Classification of an assembly-tree node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeType {
    /// Interior node of a leaf subtree (collapsed into the subtree task).
    InSubtree,
    /// Root of a leaf subtree: the collapsed sequential task.
    SubtreeRoot,
    /// Sequential task above the subtree layer.
    Type1,
    /// 1D-parallel task: master + dynamically selected slaves. Every Type 2
    /// activation is one *dynamic decision* (Table 3 counts these).
    Type2,
    /// 2D block-cyclic root task, statically distributed, no decision.
    Type3,
}

/// The static mapping of a tree onto `nprocs` processes.
#[derive(Clone, Debug)]
pub struct TreePlan {
    /// Number of processes.
    pub nprocs: usize,
    /// Per-node classification.
    pub ntype: Vec<NodeType>,
    /// Per-node statically assigned process: subtree owner, Type 1 owner, or
    /// Type 2/3 master. Meaningless for `InSubtree` nodes (they inherit the
    /// subtree root's owner).
    pub owner: Vec<u32>,
    /// For every node, the subtree root it is collapsed into (self for the
    /// root; `None` above the layer).
    pub collapsed_into: Vec<Option<u32>>,
    /// Per-subtree-root: flops of the collapsed task.
    pub subtree_task_flops: Vec<f64>,
    /// Per-subtree-root: sequential active-memory peak of the collapsed task
    /// (entries).
    pub subtree_task_peak: Vec<f64>,
    /// Per-process initial workload (the statically known cost of its
    /// subtrees, §4.2.2).
    pub init_work: Vec<f64>,
    /// Number of Type 2 nodes = number of dynamic decisions (Table 3).
    pub n_decisions: usize,
    /// Per-process count of Type 2 masters (drives `NoMoreMaster`).
    pub masters_per_proc: Vec<u32>,
}

/// Thresholds controlling classification (subset of the solver config).
#[derive(Clone, Debug)]
pub struct MappingParams {
    /// Proportional-mapping oversubscription factor α.
    pub alpha: f64,
    /// Minimum front order for Type 2.
    pub type2_min_front: u32,
    /// Minimum CB rows for Type 2 (must be worth splitting).
    pub kmin_rows: u32,
    /// Minimum root front order for Type 3.
    pub type3_min_front: u32,
    /// Per-process speed factors for heterogeneous platforms (empty =
    /// homogeneous): static bin-packing weights costs by speed.
    pub speed_factors: Vec<f64>,
}

impl From<&SolverConfig> for MappingParams {
    /// The classification thresholds and speed factors of `cfg`.
    fn from(cfg: &SolverConfig) -> Self {
        MappingParams {
            alpha: cfg.mapping_alpha,
            type2_min_front: cfg.type2_min_front,
            kmin_rows: cfg.kmin_rows,
            type3_min_front: cfg.type3_min_front,
            speed_factors: cfg.speed_factors.clone(),
        }
    }
}

/// Subtree peak of active memory restricted to the nodes collapsed into
/// `root` (postorder walk of the sub-forest).
fn subtree_peak(tree: &AssemblyTree, root: usize) -> f64 {
    // Gather the subtree nodes in topological order (they are contiguous in
    // index? not necessarily — walk explicitly).
    let mut nodes = Vec::new();
    let mut stack = vec![root as u32];
    while let Some(v) = stack.pop() {
        nodes.push(v as usize);
        stack.extend_from_slice(&tree.nodes[v as usize].children);
    }
    nodes.sort_unstable(); // topological (children have smaller indices)
    let mut cb_stack = 0.0f64;
    let mut peak = 0.0f64;
    for &i in &nodes {
        let child_cb: f64 = tree.nodes[i]
            .children
            .iter()
            .map(|&c| tree.cb_entries(c as usize))
            .sum();
        peak = peak.max(cb_stack + tree.front_entries(i));
        cb_stack -= child_cb;
        cb_stack += tree.cb_entries(i);
    }
    peak
}

/// Longest-processing-time bin packing: assign `items` (index, cost) to the
/// bin that finishes earliest, where bin `b` processes cost at `speeds[b]`
/// (1.0 when `speeds` is empty). Returns per-item bin and bin loads.
fn lpt(
    items: &[(usize, f64)],
    nbins: usize,
    initial: Option<&[f64]>,
    speeds: &[f64],
) -> (Vec<u32>, Vec<f64>) {
    let speed = |b: usize| speeds.get(b).copied().unwrap_or(1.0);
    let mut loads = match initial {
        Some(v) => v.to_vec(),
        None => vec![0.0; nbins],
    };
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        items[b]
            .1
            .total_cmp(&items[a].1)
            .then(items[a].0.cmp(&items[b].0))
    });
    let mut assign = vec![0u32; items.len()];
    for idx in order {
        let bin = (0..nbins)
            .min_by(|&a, &b| {
                let fa = (loads[a] + items[idx].1) / speed(a);
                let fb = (loads[b] + items[idx].1) / speed(b);
                fa.total_cmp(&fb)
            })
            .unwrap();
        assign[idx] = bin as u32;
        loads[bin] += items[idx].1;
    }
    (assign, loads)
}

/// Build the static plan.
pub fn plan(tree: &AssemblyTree, nprocs: usize, params: MappingParams) -> TreePlan {
    let n = tree.len();
    assert!(nprocs >= 1);
    let sub_flops = tree.subtree_flops();
    let total: f64 = tree.roots.iter().map(|&r| sub_flops[r as usize]).sum();
    let limit = if total > 0.0 {
        total / (params.alpha * nprocs as f64)
    } else {
        0.0
    };

    // Geist–Ng deepening: replace the largest subtree by its children until
    // all fit under the limit (or are leaves).
    let mut layer: Vec<u32> = tree.roots.clone();
    loop {
        // Find the largest splittable subtree in the layer.
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in layer.iter().enumerate() {
            let f = sub_flops[v as usize];
            if f > limit
                && !tree.nodes[v as usize].children.is_empty()
                && best.is_none_or(|(_, bf)| f > bf)
            {
                best = Some((i, f));
            }
        }
        let Some((i, _)) = best else { break };
        let v = layer.swap_remove(i);
        layer.extend_from_slice(&tree.nodes[v as usize].children);
    }
    layer.sort_unstable();

    // Mark collapsed nodes.
    let mut collapsed_into: Vec<Option<u32>> = vec![None; n];
    for &r in &layer {
        let mut stack = vec![r];
        while let Some(v) = stack.pop() {
            collapsed_into[v as usize] = Some(r);
            stack.extend_from_slice(&tree.nodes[v as usize].children);
        }
    }

    // Classify.
    let mut ntype = vec![NodeType::InSubtree; n];
    for i in 0..n {
        match collapsed_into[i] {
            Some(r) if r as usize == i => ntype[i] = NodeType::SubtreeRoot,
            Some(_) => ntype[i] = NodeType::InSubtree,
            None => {
                let node = &tree.nodes[i];
                let is_root = node.parent.is_none();
                if is_root && node.nfront >= params.type3_min_front && nprocs > 1 {
                    ntype[i] = NodeType::Type3;
                } else if node.nfront >= params.type2_min_front
                    && node.ncb() >= params.kmin_rows
                    && nprocs > 1
                {
                    ntype[i] = NodeType::Type2;
                } else {
                    ntype[i] = NodeType::Type1;
                }
            }
        }
    }

    // Subtree task costs and LPT packing.
    let mut subtree_task_flops = vec![0.0; n];
    let mut subtree_task_peak = vec![0.0; n];
    let items: Vec<(usize, f64)> = layer
        .iter()
        .map(|&r| {
            let f = sub_flops[r as usize];
            subtree_task_flops[r as usize] = f;
            subtree_task_peak[r as usize] = subtree_peak(tree, r as usize);
            (r as usize, f)
        })
        .collect();
    let (sub_assign, init_work_bins) = lpt(&items, nprocs, None, &params.speed_factors);

    let mut owner = vec![0u32; n];
    for (k, &(node, _)) in items.iter().enumerate() {
        owner[node] = sub_assign[k];
    }

    // Master/owner assignment for upper nodes: LPT on factor entries, seeded
    // with each process's subtree factor entries so the *total* factor
    // memory balances (the paper's "balancing the memory of the
    // corresponding factors").
    let mut factor_seed = vec![0.0; nprocs];
    for &r in &layer {
        let mut stack = vec![r];
        let p = owner[r as usize] as usize;
        while let Some(v) = stack.pop() {
            factor_seed[p] += tree.factor_entries(v as usize);
            stack.extend_from_slice(&tree.nodes[v as usize].children);
        }
    }
    let upper: Vec<(usize, f64)> = (0..n)
        .filter(|&i| {
            matches!(
                ntype[i],
                NodeType::Type1 | NodeType::Type2 | NodeType::Type3
            )
        })
        .map(|i| (i, tree.factor_entries(i)))
        .collect();
    let (upper_assign, _) = lpt(&upper, nprocs, Some(&factor_seed), &params.speed_factors);
    for (k, &(node, _)) in upper.iter().enumerate() {
        owner[node] = upper_assign[k];
    }

    let mut masters_per_proc = vec![0u32; nprocs];
    let mut n_decisions = 0usize;
    for i in 0..n {
        if ntype[i] == NodeType::Type2 {
            n_decisions += 1;
            masters_per_proc[owner[i] as usize] += 1;
        }
    }

    TreePlan {
        nprocs,
        ntype,
        owner,
        collapsed_into,
        subtree_task_flops,
        subtree_task_peak,
        init_work: init_work_bins,
        n_decisions,
        masters_per_proc,
    }
}

impl TreePlan {
    /// Subtree-root node indices owned by process `p`, ascending.
    pub fn subtrees_of(&self, p: u32) -> Vec<u32> {
        (0..self.ntype.len())
            .filter(|&i| self.ntype[i] == NodeType::SubtreeRoot && self.owner[i] == p)
            .map(|i| i as u32)
            .collect()
    }

    /// All upper (non-collapsed) node indices, ascending.
    pub fn upper_nodes(&self) -> Vec<u32> {
        (0..self.ntype.len())
            .filter(|&i| {
                matches!(
                    self.ntype[i],
                    NodeType::Type1 | NodeType::Type2 | NodeType::Type3
                )
            })
            .map(|i| i as u32)
            .collect()
    }

    /// Structural sanity checks; panics on violation.
    pub fn validate(&self, tree: &AssemblyTree) -> &Self {
        assert_eq!(self.ntype.len(), tree.len());
        for i in 0..tree.len() {
            match self.ntype[i] {
                NodeType::InSubtree | NodeType::SubtreeRoot => {
                    let r = self.collapsed_into[i].expect("collapsed node without root");
                    assert_eq!(self.ntype[r as usize], NodeType::SubtreeRoot);
                    // A collapsed node's parent is either in the same subtree
                    // or the subtree root itself is the boundary.
                    if self.ntype[i] == NodeType::InSubtree {
                        let p = tree.nodes[i]
                            .parent
                            .expect("in-subtree node must have parent");
                        assert_eq!(self.collapsed_into[p as usize], Some(r));
                    }
                }
                NodeType::Type3 => {
                    assert!(tree.nodes[i].parent.is_none(), "Type 3 must be a root");
                }
                _ => {
                    assert!(self.collapsed_into[i].is_none());
                }
            }
            assert!((self.owner[i] as usize) < self.nprocs || self.ntype[i] == NodeType::InSubtree);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadex_sparse::models::by_name;
    use loadex_sparse::{AssemblyTree, Symmetry};

    fn params() -> MappingParams {
        MappingParams {
            alpha: 4.0,
            type2_min_front: 200,
            kmin_rows: 32,
            type3_min_front: 1000,
            speed_factors: Vec::new(),
        }
    }

    fn chain(n: usize, nfront: u32, npiv: u32) -> AssemblyTree {
        let specs: Vec<(Option<u32>, u32, u32)> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    (Some(i as u32 + 1), nfront, npiv)
                } else {
                    (None, nfront, nfront)
                }
            })
            .collect();
        AssemblyTree::from_parents(Symmetry::Unsymmetric, &specs)
    }

    #[test]
    fn single_proc_has_no_decisions() {
        let t = chain(10, 100, 40);
        let p = plan(&t, 1, params());
        p.validate(&t);
        assert_eq!(p.n_decisions, 0);
        // Everything is owned by the only process; the subtree layer may
        // still be deepened (α·P = 4 pieces) but all work stays local.
        assert!(!p.subtrees_of(0).is_empty());
        assert!(p.init_work[0] > 0.0 && p.init_work[0] <= t.total_flops() * (1.0 + 1e-9));
    }

    #[test]
    fn paper_model_plans_validate_on_all_proc_counts() {
        for name in ["BMWCRA_1", "GUPTA3", "TWOTONE"] {
            let t = by_name(name).unwrap().build_tree();
            for nprocs in [2, 8, 32] {
                let p = plan(&t, nprocs, params());
                p.validate(&t);
                // Every node classified, every subtree root owned by a real proc.
                for r in p.subtrees_of(0) {
                    assert_eq!(p.ntype[r as usize], NodeType::SubtreeRoot);
                }
            }
        }
    }

    #[test]
    fn decisions_increase_with_procs() {
        let t = by_name("BMWCRA_1").unwrap().build_tree();
        let d32 = plan(&t, 32, params()).n_decisions;
        let d64 = plan(&t, 64, params()).n_decisions;
        assert!(d64 >= d32, "d32={d32} d64={d64}");
        assert!(d32 > 0);
    }

    #[test]
    fn init_work_sums_to_subtree_total() {
        let t = by_name("XENON2").unwrap().build_tree();
        let p = plan(&t, 16, params());
        let from_bins: f64 = p.init_work.iter().sum();
        let from_tasks: f64 = p.subtree_task_flops.iter().sum();
        assert!((from_bins - from_tasks).abs() / from_tasks.max(1.0) < 1e-9);
    }

    #[test]
    fn lpt_balances_within_factor_two() {
        let t = by_name("MSDOOR").unwrap().build_tree();
        let p = plan(&t, 8, params());
        let max = p.init_work.iter().cloned().fold(0.0, f64::max);
        let avg = p.init_work.iter().sum::<f64>() / 8.0;
        assert!(max <= 2.5 * avg, "max={max:.3e} avg={avg:.3e}");
    }

    #[test]
    fn big_root_is_type3() {
        let t = by_name("GUPTA3").unwrap().build_tree();
        let p = plan(&t, 8, params());
        let root = t.roots[0] as usize;
        assert_eq!(p.ntype[root], NodeType::Type3);
    }

    #[test]
    fn masters_per_proc_totals_decisions() {
        let t = by_name("SHIP_003").unwrap().build_tree();
        let p = plan(&t, 16, params());
        let total: u32 = p.masters_per_proc.iter().sum();
        assert_eq!(total as usize, p.n_decisions);
    }

    #[test]
    fn collapsed_subtrees_are_connected() {
        let t = by_name("PRE2").unwrap().build_tree();
        let p = plan(&t, 8, params());
        p.validate(&t);
    }
}

//! The assembly tree and its cost model.
//!
//! Each node of the assembly tree is the partial factorization of a dense
//! *frontal matrix* of order `nfront`, eliminating `npiv` pivots and
//! producing a Schur complement (*contribution block*, CB) of order
//! `nfront − npiv` that is later assembled into the parent's front (§4.1).
//!
//! The flop and memory formulas below are the classical dense
//! partial-factorization counts used by multifrontal solvers; absolute
//! calibration does not matter for the reproduction (the paper's machine is
//! gone) but *relative* costs across the tree drive the schedulers, so the
//! cubic/quadratic structure must be right.

use std::sync::Arc;

/// Symmetry of the underlying problem (Tables 1–2 distinguish SYM/UNS).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Symmetry {
    /// Symmetric (LDLᵀ-like): half the flops/memory of LU.
    Symmetric,
    /// Unsymmetric (LU on a symmetrised pattern).
    Unsymmetric,
}

/// One node (front) of the assembly tree.
#[derive(Clone, Debug)]
pub struct FrontNode {
    /// Parent node index, `None` for roots
    /// ([`AssemblyTree::children`] lists the other direction).
    pub parent: Option<u32>,
    /// Order of the frontal matrix.
    pub nfront: u32,
    /// Pivots eliminated at this node (`npiv ≤ nfront`).
    pub npiv: u32,
}

impl FrontNode {
    /// Rows/columns remaining in the contribution block.
    pub fn ncb(&self) -> u32 {
        self.nfront - self.npiv
    }
}

/// The assembly tree: the multifrontal task graph.
///
/// The node array and the child index are immutable and shared, so a clone
/// copies pointers, not the tree: every run of one tree can own a handle.
#[derive(Clone, Debug)]
pub struct AssemblyTree {
    /// Nodes; children always have smaller indices than their parent
    /// (topological / postorder-compatible numbering).
    pub nodes: Arc<[FrontNode]>,
    /// Problem symmetry (halves the dense kernel costs).
    pub sym: Symmetry,
    /// Children of each node, and the roots, in CSR form.
    index: Arc<ChildIndex>,
}

impl AssemblyTree {
    /// Build from per-node `(parent, nfront, npiv)`; children lists and roots
    /// are derived. Panics if a parent index is not larger than the child's
    /// (the tree must be topologically numbered) or `npiv > nfront`.
    pub fn from_parents(sym: Symmetry, specs: &[(Option<u32>, u32, u32)]) -> Self {
        let nodes: Arc<[FrontNode]> = specs
            .iter()
            .enumerate()
            .map(|(i, &(parent, nfront, npiv))| {
                assert!(npiv <= nfront, "npiv {npiv} > nfront {nfront}");
                assert!(npiv >= 1, "empty front");
                if let Some(p) = parent {
                    assert!(
                        (p as usize) > i && (p as usize) < specs.len(),
                        "node {i}: parent {p} not topological"
                    );
                }
                FrontNode {
                    parent,
                    nfront,
                    npiv,
                }
            })
            .collect();
        let index = Arc::new(ChildIndex::new(specs.iter().map(|s| s.0)));
        AssemblyTree { nodes, sym, index }
    }

    /// Children of node `v`, in increasing index order.
    pub fn children(&self, v: usize) -> &[u32] {
        debug_assert!(v < self.len(), "node {v} out of range");
        self.index.children(v)
    }

    /// Root node indices, in increasing order.
    pub fn roots(&self) -> &[u32] {
        self.index.roots()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices in a postorder (children before parents). Because nodes are
    /// topologically numbered, `0..len` already satisfies this.
    pub fn topo_order(&self) -> impl Iterator<Item = usize> {
        0..self.nodes.len()
    }

    /// Flops of the partial factorization at node `i`.
    ///
    /// Eliminating `p` pivots from an `m × m` front costs
    /// `2/3·(m³ − (m−p)³)` flops for LU; half that for the symmetric case.
    pub fn flops(&self, i: usize) -> f64 {
        let n = &self.nodes[i];
        let m = n.nfront as f64;
        let c = n.ncb() as f64;
        let lu = 2.0 / 3.0 * (m * m * m - c * c * c);
        match self.sym {
            Symmetry::Unsymmetric => lu,
            Symmetry::Symmetric => lu / 2.0,
        }
    }

    /// Entries of the factors produced at node `i` (kept until the end).
    pub fn factor_entries(&self, i: usize) -> f64 {
        let n = &self.nodes[i];
        let m = n.nfront as f64;
        let c = n.ncb() as f64;
        let lu = m * m - c * c;
        match self.sym {
            Symmetry::Unsymmetric => lu,
            Symmetry::Symmetric => lu / 2.0,
        }
    }

    /// Entries of the contribution block of node `i` (stacked until the
    /// parent assembles it).
    pub fn cb_entries(&self, i: usize) -> f64 {
        let n = &self.nodes[i];
        let c = n.ncb() as f64;
        match self.sym {
            Symmetry::Unsymmetric => c * c,
            Symmetry::Symmetric => c * (c + 1.0) / 2.0,
        }
    }

    /// Entries of the full frontal matrix of node `i` (active while being
    /// factored).
    pub fn front_entries(&self, i: usize) -> f64 {
        let n = &self.nodes[i];
        let m = n.nfront as f64;
        match self.sym {
            Symmetry::Unsymmetric => m * m,
            Symmetry::Symmetric => m * (m + 1.0) / 2.0,
        }
    }

    /// Total flops over the tree.
    pub fn total_flops(&self) -> f64 {
        (0..self.len()).map(|i| self.flops(i)).sum()
    }

    /// Total factor entries over the tree.
    pub fn total_factor_entries(&self) -> f64 {
        (0..self.len()).map(|i| self.factor_entries(i)).sum()
    }

    /// Flops in the subtree rooted at each node (the quantity used by
    /// proportional mapping).
    pub fn subtree_flops(&self) -> Vec<f64> {
        let mut sub = vec![0.0; self.len()];
        for i in self.topo_order() {
            sub[i] += self.flops(i);
            if let Some(p) = self.nodes[i].parent {
                let v = sub[i];
                sub[p as usize] += v;
            }
        }
        sub
    }

    /// Depth of each node (roots at 0).
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.len()];
        for i in (0..self.len()).rev() {
            if let Some(p) = self.nodes[i].parent {
                depth[i] = depth[p as usize] + 1;
            }
        }
        depth
    }

    /// Height of the tree (max depth + 1); 0 for an empty tree.
    pub fn height(&self) -> u32 {
        self.depths().iter().copied().max().map_or(0, |d| d + 1)
    }

    /// Structural validation: parent/child symmetry, topological numbering,
    /// CB smaller than the parent's front (a contribution must fit).
    pub fn validate(&self) -> &Self {
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!((p as usize) > i, "node {i} numbered after parent");
                assert!(
                    self.children(p as usize).contains(&(i as u32)),
                    "child link missing for {i}"
                );
                assert!(
                    n.ncb() <= self.nodes[p as usize].nfront,
                    "CB of {i} larger than parent front"
                );
            } else {
                assert!(self.roots().contains(&(i as u32)), "root {i} not listed");
            }
            for &c in self.children(i) {
                assert_eq!(self.nodes[c as usize].parent, Some(i as u32));
            }
        }
        for &r in self.roots() {
            assert_eq!(
                self.nodes[r as usize].parent, None,
                "listed root {r} has a parent"
            );
        }
        self
    }
}

/// The children of every vertex of a forest, in CSR form: one offsets
/// array and one list, two allocations whatever the forest's size. Slot `n`
/// (one past the last vertex) is a virtual parent of every root. Each slot
/// lists its children in increasing index order.
#[derive(Debug)]
struct ChildIndex {
    /// Slot `s` lists `list[start[s]..start[s + 1]]`; `n + 2` entries.
    start: Vec<u32>,
    list: Vec<u32>,
}

impl ChildIndex {
    /// Index the forest given by each vertex's parent (`None` for a root).
    /// Every parent must be a vertex of the forest.
    fn new<I>(parent: I) -> Self
    where
        I: ExactSizeIterator<Item = Option<u32>> + Clone,
    {
        let n = parent.len();
        let slot = |p: Option<u32>| p.map_or(n, |p| p as usize);
        // Counting sort of the vertices by parent slot. It is stable, so
        // each slot receives its children in increasing index order.
        let mut start = vec![0u32; n + 2];
        for p in parent.clone() {
            start[slot(p) + 1] += 1;
        }
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut next = start.clone();
        let mut list = vec![0u32; n];
        for (v, p) in parent.enumerate() {
            let s = slot(p);
            list[next[s] as usize] = v as u32;
            next[s] += 1;
        }
        ChildIndex { start, list }
    }

    /// Children of vertex `v`, or the roots for `v = n`.
    fn children(&self, v: usize) -> &[u32] {
        &self.list[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The roots, in increasing index order.
    fn roots(&self) -> &[u32] {
        self.children(self.start.len() - 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small hand-built tree:
    ///        3 (root, nfront 6, npiv 6)
    ///       / \
    ///      2   1
    ///      |
    ///      0
    fn sample() -> AssemblyTree {
        AssemblyTree::from_parents(
            Symmetry::Unsymmetric,
            &[
                (Some(2), 4, 2), // 0
                (Some(3), 5, 3), // 1
                (Some(3), 4, 2), // 2
                (None, 6, 6),    // 3
            ],
        )
    }

    #[test]
    fn structure_and_validation() {
        let t = sample();
        t.validate();
        assert_eq!(t.roots(), [3]);
        assert_eq!(t.children(3), [1, 2]);
        assert_eq!(t.children(2), [0]);
        assert!(t.children(0).is_empty() && t.children(1).is_empty());
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn empty_tree() {
        let t = AssemblyTree::from_parents(Symmetry::Symmetric, &[]);
        t.validate();
        assert!(t.is_empty());
        assert!(t.roots().is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.total_flops(), 0.0);
    }

    #[test]
    fn clones_share_the_arrays() {
        let t = sample();
        let c = t.clone();
        assert!(std::ptr::eq(t.nodes.as_ptr(), c.nodes.as_ptr()));
        assert!(std::ptr::eq(t.children(3), c.children(3)));
    }

    #[test]
    fn flops_full_factorization() {
        // A root eliminating the whole front: 2/3 m³ for LU.
        let t = sample();
        let m = 6.0f64;
        assert!((t.flops(3) - 2.0 / 3.0 * m * m * m).abs() < 1e-9);
    }

    #[test]
    fn flops_partial_factorization_additivity() {
        // Eliminating p then (m−p) pivots must equal eliminating m at once.
        let whole = AssemblyTree::from_parents(Symmetry::Unsymmetric, &[(None, 10, 10)]);
        let split =
            AssemblyTree::from_parents(Symmetry::Unsymmetric, &[(Some(1), 10, 4), (None, 6, 6)]);
        let a = whole.total_flops();
        let b = split.total_flops();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn symmetric_is_half_of_unsymmetric() {
        let u = AssemblyTree::from_parents(Symmetry::Unsymmetric, &[(None, 8, 3)]);
        let s = AssemblyTree::from_parents(Symmetry::Symmetric, &[(None, 8, 3)]);
        assert!((u.flops(0) - 2.0 * s.flops(0)).abs() < 1e-9);
        assert!((u.factor_entries(0) - 2.0 * s.factor_entries(0)).abs() < 1e-9);
    }

    #[test]
    fn cb_and_factor_partition_the_front() {
        let t = sample();
        for i in 0..t.len() {
            let total = t.factor_entries(i) + t.cb_entries(i);
            match t.sym {
                Symmetry::Unsymmetric => assert!((total - t.front_entries(i)).abs() < 1e-9),
                Symmetry::Symmetric => {}
            }
        }
    }

    #[test]
    fn subtree_flops_root_is_total() {
        let t = sample();
        let sub = t.subtree_flops();
        assert!((sub[3] - t.total_flops()).abs() < 1e-9);
        assert!(sub[2] > t.flops(2), "includes child");
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn parent_must_come_after_child() {
        AssemblyTree::from_parents(Symmetry::Symmetric, &[(None, 4, 4), (Some(0), 3, 3)]);
    }

    #[test]
    #[should_panic(expected = "npiv")]
    fn npiv_bounded_by_nfront() {
        AssemblyTree::from_parents(Symmetry::Symmetric, &[(None, 3, 4)]);
    }

    #[test]
    fn depths_roots_zero() {
        let t = sample();
        assert_eq!(t.depths(), vec![2, 1, 1, 0]);
    }
}

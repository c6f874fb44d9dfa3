//! Elimination trees, postorders and column counts.
//!
//! The elimination tree of a (symmetrised) pattern drives everything in the
//! multifrontal method: it *is* the task dependency graph after supernode
//! amalgamation (§4.1 of the paper: "the tasks dependency graph is indeed a
//! tree"). We implement Liu's algorithm with path compression, a standard
//! DFS postorder, and exact column counts of the Cholesky factor via
//! row-subtree traversal (O(|L|) time, O(n) space).

use crate::pattern::SparsePattern;

/// Parent of each vertex in the elimination tree (`None` for roots), for the
/// elimination order `0..n` of the *given* pattern (apply
/// [`SparsePattern::permute`] first to use a fill-reducing order).
pub fn elimination_tree(p: &SparsePattern) -> Vec<Option<u32>> {
    let n = p.n();
    let mut parent: Vec<Option<u32>> = vec![None; n];
    let mut ancestor: Vec<Option<u32>> = vec![None; n];
    for i in 0..n {
        for &k in p.neighbors(i) {
            let k = k as usize;
            if k >= i {
                continue;
            }
            // Walk from k to the root of its current subtree, compressing
            // paths to i.
            let mut r = k;
            loop {
                match ancestor[r] {
                    Some(a) if a as usize == i => break,
                    Some(a) => {
                        ancestor[r] = Some(i as u32);
                        r = a as usize;
                    }
                    None => {
                        ancestor[r] = Some(i as u32);
                        parent[r] = Some(i as u32);
                        break;
                    }
                }
            }
        }
    }
    parent
}

/// The children of every vertex of a forest, in CSR form: one offsets
/// array and one list, two allocations whatever the forest's size. Slot `n`
/// (one past the last vertex) is a virtual parent of every root. Each slot
/// lists its children in increasing index order.
#[derive(Debug)]
pub(crate) struct ChildIndex {
    /// Slot `s` lists `list[start[s]..start[s + 1]]`; `n + 2` entries.
    start: Vec<u32>,
    list: Vec<u32>,
}

impl ChildIndex {
    /// Index the forest given by each vertex's parent (`None` for a root).
    /// Every parent must be a vertex of the forest.
    pub(crate) fn new<I>(parent: I) -> Self
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
    pub(crate) fn children(&self, v: usize) -> &[u32] {
        &self.list[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The roots, in increasing index order.
    pub(crate) fn roots(&self) -> &[u32] {
        self.children(self.start.len() - 2)
    }
}

/// Iterative DFS postorder of the forest. Roots and children are visited in
/// ascending index order, so the postorder is deterministic.
pub fn postorder(parent: &[Option<u32>]) -> Vec<u32> {
    let n = parent.len();
    let index = ChildIndex::new(parent.iter().copied());
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for &r in index.roots() {
        stack.push((r, 0));
        while let Some((v, ci)) = stack.last_mut() {
            let children = index.children(*v as usize);
            if *ci < children.len() {
                let c = children[*ci];
                *ci += 1;
                stack.push((c, 0));
            } else {
                post.push(*v);
                stack.pop();
            }
        }
    }
    post
}

/// Column counts of the Cholesky factor `L` (diagonal included), computed by
/// traversing the row subtrees. Work is proportional to `|L|`.
pub fn column_counts(p: &SparsePattern, parent: &[Option<u32>]) -> Vec<u64> {
    let n = p.n();
    let mut count = vec![1u64; n]; // diagonal
                                   // Sentinel scheme: mark[j] stores the last row i whose subtree visited j.
    let mut mark: Vec<u32> = vec![u32::MAX; n];
    for i in 0..n {
        mark[i] = i as u32;
        for &k in p.neighbors(i) {
            let k = k as usize;
            if k >= i {
                continue;
            }
            // Row i of L has nonzeros along the path k → … → i in the etree.
            let mut j = k;
            while mark[j] != i as u32 {
                count[j] += 1;
                mark[j] = i as u32;
                j = match parent[j] {
                    Some(pj) => pj as usize,
                    // a_ik ≠ 0 with k < i guarantees i is an ancestor of k,
                    // so the walk must find a marked vertex before a root.
                    None => unreachable!("etree inconsistency: row {i} escaped at {j}"),
                };
            }
        }
    }
    count
}

/// Total factor nonzeros `|L|` = sum of column counts.
pub fn factor_nnz(counts: &[u64]) -> u64 {
    counts.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::order::{identity, nested_dissection, NdOptions};

    /// Reference symbolic Cholesky on a dense boolean matrix (small n only).
    fn dense_symbolic(p: &SparsePattern) -> (Vec<Option<u32>>, Vec<u64>) {
        let n = p.n();
        let mut a = vec![vec![false; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = true;
            for &j in p.neighbors(i) {
                row[j as usize] = true;
            }
        }
        // Fill: L pattern by column-wise elimination.
        for k in 0..n {
            // Eliminating k connects every pair of its later neighbours.
            let below: Vec<usize> = (k + 1..n).filter(|&i| a[i][k]).collect();
            for &i in &below {
                for &j in &below {
                    a[i][j] = true;
                }
            }
        }
        // Column counts of L = entries at or below diagonal.
        let counts = (0..n)
            .map(|j| (j..n).filter(|&i| a[i][j]).count() as u64)
            .collect();
        // Parent: first off-diagonal nonzero in column j of L.
        let parent = (0..n)
            .map(|j| (j + 1..n).find(|&i| a[i][j]).map(|i| i as u32))
            .collect();
        (parent, counts)
    }

    #[test]
    fn etree_of_path_is_a_path() {
        let p = gen::grid2d(5, 1);
        let parent = elimination_tree(&p);
        assert_eq!(parent, vec![Some(1), Some(2), Some(3), Some(4), None]);
    }

    #[test]
    fn etree_matches_dense_reference_on_grids() {
        for pat in [gen::grid2d(4, 4), gen::grid2d(5, 3), gen::grid3d(3, 3, 2)] {
            let (ref_parent, ref_counts) = dense_symbolic(&pat);
            let parent = elimination_tree(&pat);
            assert_eq!(parent, ref_parent);
            let counts = column_counts(&pat, &parent);
            assert_eq!(counts, ref_counts);
        }
    }

    #[test]
    fn etree_matches_dense_reference_after_nd() {
        let pat = gen::grid2d(6, 6);
        let perm = nested_dissection(&pat, NdOptions { leaf_size: 4 });
        let q = pat.permute(&perm);
        let (ref_parent, ref_counts) = dense_symbolic(&q);
        let parent = elimination_tree(&q);
        assert_eq!(parent, ref_parent);
        assert_eq!(column_counts(&q, &parent), ref_counts);
    }

    #[test]
    fn postorder_visits_children_before_parents() {
        let p = gen::grid2d(8, 8);
        let parent = elimination_tree(&p);
        let post = postorder(&parent);
        assert_eq!(post.len(), 64);
        let mut pos = vec![0usize; 64];
        for (idx, &v) in post.iter().enumerate() {
            pos[v as usize] = idx;
        }
        for v in 0..64 {
            if let Some(pv) = parent[v] {
                assert!(pos[v] < pos[pv as usize], "child after parent");
            }
        }
    }

    #[test]
    fn postorder_handles_forest() {
        let p = crate::pattern::SparsePattern::from_edges(4, &[(0, 1), (2, 3)]);
        let parent = elimination_tree(&p);
        let post = postorder(&parent);
        assert_eq!(post.len(), 4);
    }

    #[test]
    fn nd_reduces_fill_versus_identity_on_grids() {
        let pat = gen::grid2d(20, 20);
        let id_counts = column_counts(&pat, &elimination_tree(&pat));
        let perm = nested_dissection(&pat, NdOptions { leaf_size: 8 });
        let q = pat.permute(&perm);
        let nd_counts = column_counts(&q, &elimination_tree(&q));
        let id_nnz = factor_nnz(&id_counts);
        let nd_nnz = factor_nnz(&nd_counts);
        assert!(
            nd_nnz < id_nnz,
            "nested dissection should reduce fill: nd={nd_nnz} id={id_nnz}"
        );
        let _ = identity(1);
    }

    #[test]
    fn column_counts_last_column_is_one() {
        let p = gen::grid2d(4, 4);
        let parent = elimination_tree(&p);
        let counts = column_counts(&p, &parent);
        assert_eq!(counts[15], 1, "last column is just its diagonal");
        assert!(counts.iter().all(|&c| c >= 1));
    }
}

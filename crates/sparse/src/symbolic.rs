//! Symbolic analysis: supernodes, amalgamation, assembly tree construction.
//!
//! Pipeline (the "analysis phase" of a multifrontal solver):
//!
//! 1. permute the pattern by a fill-reducing order;
//! 2. elimination tree + postorder relabeling (supernodes become contiguous);
//! 3. exact column counts of `L`;
//! 4. fundamental supernode detection (`parent[j] = j+1`, counts chain,
//!    only child);
//! 5. relaxed amalgamation: absorb small children into their parents, the
//!    standard trick to obtain fronts large enough for BLAS-3 kernels — and,
//!    for this paper, the knob that controls task granularity;
//! 6. emit the [`AssemblyTree`].
//!
//! Amalgamation approximates the merged front as
//! `nfront(parent) + npiv(child)`: the child's border is assumed contained
//! in the parent's columns. Exact for chains of fundamental supernodes,
//! an upper bound otherwise — adequate for a simulated factorization.

use crate::etree::{column_counts, elimination_tree, postorder};
use crate::order;
use crate::pattern::SparsePattern;
use crate::tree::{AssemblyTree, Symmetry};

/// Options for the symbolic analysis.
#[derive(Clone, Copy, Debug)]
pub struct SymbolicOptions {
    /// Children with at most this many pivots are amalgamated into their
    /// parent (0 disables amalgamation).
    pub amalg_pivots: u32,
    /// Problem symmetry recorded in the resulting tree.
    pub sym: Symmetry,
}

impl Default for SymbolicOptions {
    fn default() -> Self {
        SymbolicOptions {
            amalg_pivots: 16,
            sym: Symmetry::Symmetric,
        }
    }
}

/// Result of the analysis: the assembly tree plus diagnostics.
#[derive(Clone, Debug)]
pub struct SymbolicAnalysis {
    /// The multifrontal task graph.
    pub tree: AssemblyTree,
    /// Factor nonzeros `|L|` before amalgamation.
    pub factor_nnz: u64,
    /// Number of fundamental supernodes before amalgamation.
    pub n_supernodes: usize,
}

/// Run the full analysis on a permuted pattern (the permutation must already
/// be applied; see [`analyze_with_ordering`]).
pub fn analyze(p: &SparsePattern, opts: SymbolicOptions) -> SymbolicAnalysis {
    let n = p.n();
    if n == 0 {
        return SymbolicAnalysis {
            tree: AssemblyTree::from_parents(opts.sym, &[]),
            factor_nnz: 0,
            n_supernodes: 0,
        };
    }
    // Postorder relabeling so supernode columns are contiguous.
    let parent0 = elimination_tree(p);
    let post = postorder(&parent0);
    let p2 = p.permute(&post);
    let parent = elimination_tree(&p2);
    let counts = column_counts(&p2, &parent);
    let mut nchildren = vec![0u32; n];
    for &p in parent.iter().flatten() {
        nchildren[p as usize] += 1;
    }

    // Fundamental supernodes: maximal chains j, j+1, … with parent[j] = j+1,
    // counts[j+1] = counts[j] − 1 and j+1 having exactly one child.
    let mut sup_first = Vec::new(); // first column of each supernode
    let mut sup_npiv: Vec<u32> = Vec::new();
    {
        let mut j = 0usize;
        while j < n {
            let first = j;
            while j + 1 < n
                && parent[j] == Some(j as u32 + 1)
                && counts[j + 1] == counts[j] - 1
                && nchildren[j + 1] == 1
            {
                j += 1;
            }
            sup_first.push(first as u32);
            sup_npiv.push((j - first + 1) as u32);
            j += 1;
        }
    }
    let nsup = sup_first.len();
    // Column → supernode map.
    let mut col_sup = vec![0u32; n];
    for (s, &f) in sup_first.iter().enumerate() {
        for c in f..f + sup_npiv[s] {
            col_sup[c as usize] = s as u32;
        }
    }
    // Supernode tree: parent of the last column maps to the parent supernode.
    let mut sup_parent: Vec<Option<u32>> = vec![None; nsup];
    let mut sup_nfront: Vec<u32> = vec![0; nsup];
    let mut sup_npiv_m = sup_npiv.clone();
    for s in 0..nsup {
        let first = sup_first[s] as usize;
        let last = first + sup_npiv[s] as usize - 1;
        sup_nfront[s] = counts[first] as u32;
        sup_parent[s] = parent[last].map(|pc| col_sup[pc as usize]);
        debug_assert!(sup_parent[s].is_none_or(|ps| ps as usize > s));
    }

    // Relaxed amalgamation, children-first (supernodes are topologically
    // numbered by first column).
    let mut merged_into: Vec<Option<u32>> = vec![None; nsup];
    if opts.amalg_pivots > 0 {
        // Children-first pass: the criterion sees the child's *cumulative*
        // pivot count (its own plus anything already absorbed into it), so
        // long chains of tiny supernodes stop merging once they grow big.
        for s in 0..nsup {
            if let Some(ps) = sup_parent[s] {
                if sup_npiv_m[s] <= opts.amalg_pivots {
                    merged_into[s] = Some(ps);
                    sup_npiv_m[ps as usize] += sup_npiv_m[s];
                }
            }
        }
        // The kept parent's front grows by every pivot absorbed from its
        // merged descendants (their borders are assumed contained).
        let mut grow = vec![0u32; nsup];
        for s in 0..nsup {
            if let Some(t) = merged_into[s] {
                grow[t as usize] += sup_npiv[s] + grow[s];
            }
        }
        for s in 0..nsup {
            if merged_into[s].is_none() {
                sup_nfront[s] += grow[s];
            }
        }
        // Recompute cumulative pivots from scratch for the kept nodes.
        sup_npiv_m = sup_npiv.clone();
        for s in 0..nsup {
            if let Some(t) = merged_into[s] {
                sup_npiv_m[t as usize] += sup_npiv_m[s];
            }
        }
    }

    // Resolve the representative (kept ancestor) of each supernode.
    let resolve = |mut s: usize, merged: &[Option<u32>]| -> usize {
        while let Some(t) = merged[s] {
            s = t as usize;
        }
        s
    };

    // Emit kept supernodes in index order (still topological).
    let mut keep_index = vec![u32::MAX; nsup];
    let mut specs: Vec<(Option<u32>, u32, u32)> = Vec::new();
    for s in 0..nsup {
        if merged_into[s].is_some() {
            continue;
        }
        keep_index[s] = specs.len() as u32;
        let par = sup_parent[s].map(|ps| resolve(ps as usize, &merged_into));
        specs.push((
            par.map(|p| p as u32), // patched below once indices are known
            sup_nfront[s].max(sup_npiv_m[s]),
            sup_npiv_m[s],
        ));
    }
    // Patch parent indices from supernode ids to kept ids.
    let mut k = 0usize;
    for s in 0..nsup {
        if merged_into[s].is_some() {
            continue;
        }
        if let Some(ps) = sup_parent[s] {
            let rep = resolve(ps as usize, &merged_into);
            specs[k].0 = Some(keep_index[rep]);
        }
        k += 1;
    }

    let tree = AssemblyTree::from_parents(opts.sym, &specs);
    tree.validate();
    SymbolicAnalysis {
        factor_nnz: counts.iter().sum(),
        n_supernodes: nsup,
        tree,
    }
}

/// Which ordering to apply before the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// Natural order.
    Identity,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// BFS-separator nested dissection (the METIS stand-in).
    NestedDissection,
}

/// Order the pattern, then analyze.
pub fn analyze_with_ordering(
    p: &SparsePattern,
    ordering: Ordering,
    opts: SymbolicOptions,
) -> SymbolicAnalysis {
    let perm = match ordering {
        Ordering::Identity => order::identity(p.n()),
        Ordering::Rcm => order::rcm(p),
        Ordering::NestedDissection => order::nested_dissection(p, order::NdOptions::default()),
    };
    let q = p.permute(&perm);
    analyze(&q, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn pivots_are_conserved() {
        for amalg in [0, 4, 32] {
            let p = gen::grid2d(12, 12);
            let a = analyze_with_ordering(
                &p,
                Ordering::NestedDissection,
                SymbolicOptions {
                    amalg_pivots: amalg,
                    sym: Symmetry::Symmetric,
                },
            );
            assert_eq!(a.tree.total_pivots(), 144, "amalg={amalg}");
            a.tree.validate();
        }
    }

    #[test]
    fn amalgamation_shrinks_tree() {
        let p = gen::grid2d(16, 16);
        let a0 = analyze_with_ordering(
            &p,
            Ordering::NestedDissection,
            SymbolicOptions {
                amalg_pivots: 0,
                sym: Symmetry::Symmetric,
            },
        );
        let a1 = analyze_with_ordering(
            &p,
            Ordering::NestedDissection,
            SymbolicOptions {
                amalg_pivots: 8,
                sym: Symmetry::Symmetric,
            },
        );
        assert!(a1.tree.len() < a0.tree.len());
        assert_eq!(a0.tree.total_pivots(), a1.tree.total_pivots());
    }

    #[test]
    fn dense_block_is_single_supernode() {
        // A clique: one front factorizing everything.
        let mut edges = vec![];
        for i in 0..8u32 {
            for j in i + 1..8 {
                edges.push((i, j));
            }
        }
        let p = SparsePattern::from_edges(8, &edges);
        let a = analyze(
            &p,
            SymbolicOptions {
                amalg_pivots: 0,
                sym: Symmetry::Symmetric,
            },
        );
        assert_eq!(a.tree.len(), 1);
        assert_eq!(a.tree.nodes[0].nfront, 8);
        assert_eq!(a.tree.nodes[0].npiv, 8);
    }

    #[test]
    fn path_graph_amalgamates_to_few_nodes() {
        let p = gen::grid2d(64, 1);
        let a = analyze(
            &p,
            SymbolicOptions {
                amalg_pivots: 16,
                sym: Symmetry::Symmetric,
            },
        );
        assert!(a.tree.len() <= 8, "got {} nodes", a.tree.len());
        assert_eq!(a.tree.total_pivots(), 64);
    }

    #[test]
    fn root_front_matches_top_separator_scale() {
        // For a k×k grid under ND, the top separator has ~k vertices, so the
        // root front should be O(k), not O(k²).
        let k = 24;
        let p = gen::grid2d(k, k);
        let a = analyze_with_ordering(
            &p,
            Ordering::NestedDissection,
            SymbolicOptions {
                amalg_pivots: 0,
                sym: Symmetry::Symmetric,
            },
        );
        let root = a.tree.roots()[0] as usize;
        let nf = a.tree.nodes[root].nfront as usize;
        assert!(nf >= k / 2 && nf <= 4 * k, "root front {nf} for k={k}");
    }

    #[test]
    fn factor_nnz_reported() {
        let p = gen::grid2d(8, 8);
        let a = analyze(&p, SymbolicOptions::default());
        assert!(a.factor_nnz >= 64, "at least the diagonal");
        assert!(a.n_supernodes >= a.tree.len());
    }

    #[test]
    fn empty_pattern() {
        let p = SparsePattern::from_edges(0, &[]);
        let a = analyze(&p, SymbolicOptions::default());
        assert!(a.tree.is_empty());
    }

    #[test]
    fn flops_grow_superlinearly_in_grid_size() {
        let f = |k: usize| {
            analyze_with_ordering(
                &gen::grid2d(k, k),
                Ordering::NestedDissection,
                SymbolicOptions::default(),
            )
            .tree
            .total_flops()
        };
        let f8 = f(8);
        let f16 = f(16);
        // n grows 4×; flops for 2D ND grow ≈ n^1.5 ≈ 8×. Allow slack.
        assert!(f16 > 4.0 * f8, "f8={f8} f16={f16}");
    }
}

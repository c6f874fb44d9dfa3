//! Property tests for the sparse substrate: elimination trees and column
//! counts against a dense symbolic reference, ordering validity, and
//! analysis invariants, on random graphs.

use loadex_sparse::etree::{column_counts, elimination_tree, postorder};
use loadex_sparse::order::{self, is_permutation};
use loadex_sparse::pattern::SparsePattern;
use loadex_sparse::symbolic::{analyze, SymbolicOptions};
use loadex_sparse::{AssemblyTree, Symmetry};
use proptest::prelude::*;

/// Dense boolean symbolic Cholesky: reference parent + column counts.
fn dense_reference(p: &SparsePattern) -> (Vec<Option<u32>>, Vec<u64>) {
    let n = p.n();
    let mut a = vec![vec![false; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = true;
        for &j in p.neighbors(i) {
            row[j as usize] = true;
        }
    }
    for k in 0..n {
        // Eliminating k connects every pair of its later neighbours.
        let below: Vec<usize> = (k + 1..n).filter(|&i| a[i][k]).collect();
        for &i in &below {
            for &j in &below {
                a[i][j] = true;
            }
        }
    }
    let counts = (0..n)
        .map(|j| (j..n).filter(|&i| a[i][j]).count() as u64)
        .collect();
    let parent = (0..n)
        .map(|j| (j + 1..n).find(|&i| a[i][j]).map(|i| i as u32))
        .collect();
    (parent, counts)
}

fn random_pattern(n: usize, edges: &[(u32, u32)]) -> SparsePattern {
    let filtered: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(a, b)| (a % n as u32, b % n as u32))
        .filter(|&(a, b)| a != b)
        .collect();
    SparsePattern::from_edges(n, &filtered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Liu's elimination tree and the row-subtree column counts agree with
    /// the dense boolean reference on arbitrary graphs.
    #[test]
    fn etree_and_counts_match_dense_reference(
        n in 2usize..28,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..80),
    ) {
        let p = random_pattern(n, &edges);
        let (ref_parent, ref_counts) = dense_reference(&p);
        let parent = elimination_tree(&p);
        prop_assert_eq!(&parent, &ref_parent);
        prop_assert_eq!(column_counts(&p, &parent), ref_counts);
    }

    /// Postorder visits every vertex once, children before parents.
    #[test]
    fn postorder_is_valid(
        n in 1usize..40,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..120),
    ) {
        let p = random_pattern(n, &edges);
        let parent = elimination_tree(&p);
        let post = postorder(&parent);
        prop_assert_eq!(post.len(), n);
        let mut pos = vec![usize::MAX; n];
        for (k, &v) in post.iter().enumerate() {
            prop_assert_eq!(pos[v as usize], usize::MAX, "duplicate visit");
            pos[v as usize] = k;
        }
        for v in 0..n {
            if let Some(pv) = parent[v] {
                prop_assert!(pos[v] < pos[pv as usize]);
            }
        }
    }

    /// For a random topologically numbered forest, `children(v)` lists
    /// exactly the nodes whose parent is `v`, in increasing order, `roots`
    /// lists the parentless nodes, and `validate` accepts the tree.
    #[test]
    fn children_match_the_parent_array(
        picks in prop::collection::vec((any::<bool>(), any::<u32>()), 1..60),
    ) {
        let n = picks.len();
        let specs: Vec<(Option<u32>, u32, u32)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(linked, r))| {
                let above = n - 1 - i;
                let parent = (linked && above > 0).then(|| (i + 1 + r as usize % above) as u32);
                (parent, 4, 2)
            })
            .collect();
        let tree = AssemblyTree::from_parents(Symmetry::Unsymmetric, &specs);
        tree.validate();
        for v in 0..n as u32 {
            let want: Vec<u32> = (0..n as u32)
                .filter(|&c| specs[c as usize].0 == Some(v))
                .collect();
            prop_assert_eq!(tree.children(v as usize), &want[..]);
        }
        let roots: Vec<u32> = (0..n as u32)
            .filter(|&v| specs[v as usize].0.is_none())
            .collect();
        prop_assert_eq!(tree.roots(), &roots[..]);
    }

    /// Both orderings always produce permutations, on any graph.
    #[test]
    fn orderings_are_permutations(
        n in 1usize..60,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..150),
    ) {
        let p = random_pattern(n, &edges);
        prop_assert!(is_permutation(&order::rcm(&p), n));
        let nd = order::nested_dissection(&p, order::NdOptions { leaf_size: 8 });
        prop_assert!(is_permutation(&nd, n));
    }

    /// The full analysis conserves pivots (= matrix order) and produces a
    /// structurally valid tree, with or without amalgamation.
    #[test]
    fn analysis_conserves_pivots(
        n in 1usize..40,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        amalg in 0u32..20,
        sym_pick in 0usize..2,
    ) {
        let p = random_pattern(n, &edges);
        let sym = if sym_pick == 0 { Symmetry::Symmetric } else { Symmetry::Unsymmetric };
        let a = analyze(&p, SymbolicOptions { amalg_pivots: amalg, sym });
        a.tree.validate();
        prop_assert_eq!(a.tree.total_pivots(), n as u64);
        prop_assert!(a.n_supernodes >= a.tree.len());
        // Factor nonzeros at least n (the diagonal), at most dense.
        prop_assert!(a.factor_nnz >= n as u64);
        prop_assert!(a.factor_nnz <= (n * (n + 1) / 2) as u64);
    }

    /// Permuting a pattern preserves its size invariants.
    #[test]
    fn permute_preserves_structure(
        n in 1usize..40,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..120,),
        seed in any::<u64>(),
    ) {
        use loadex_sim::SimRng;
        let p = random_pattern(n, &edges);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = SimRng::seed_from_u64(seed);
        rng.shuffle(&mut perm);
        let q = p.permute(&perm);
        q.validate();
        prop_assert_eq!(q.n(), p.n());
        prop_assert_eq!(q.nnz_offdiag(), p.nnz_offdiag());
        prop_assert_eq!(q.components().1, p.components().1);
    }
}

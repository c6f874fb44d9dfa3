//! Property tests for the sparse substrate: elimination trees and column
//! counts against a dense symbolic reference, ordering validity, and
//! analysis invariants, on random graphs.

use loadex_sparse::etree::{column_counts, elimination_tree, postorder};
use loadex_sparse::order::{self, is_permutation};
use loadex_sparse::pattern::SparsePattern;
use loadex_sparse::symbolic::{analyze, SymbolicOptions};
use loadex_sparse::Symmetry;
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

/// Dense reference Cholesky (returns None if not SPD).
fn dense_cholesky(a: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = a.len();
    let mut l = vec![vec![0.0; n]; n];
    for j in 0..n {
        let d = l[j][..j].iter().fold(a[j][j], |d, x| d - x * x);
        if d <= 0.0 {
            return None;
        }
        l[j][j] = d.sqrt();
        for i in j + 1..n {
            let s = l[i][..j]
                .iter()
                .zip(&l[j][..j])
                .fold(a[i][j], |s, (x, y)| s - x * y);
            l[i][j] = s / l[j][j];
        }
    }
    Some(l)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse up-looking Cholesky matches the dense reference on random
    /// diagonally-dominant SPD matrices, and its structure matches the
    /// symbolic prediction.
    #[test]
    fn sparse_cholesky_matches_dense(
        n in 2usize..20,
        edges in prop::collection::vec((any::<u32>(), any::<u32>(), -2.0f64..2.0), 0..60),
    ) {
        use loadex_sparse::matrix::SymCsc;
        use loadex_sparse::chol::cholesky;
        // Build a diagonally dominant symmetric matrix.
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        let mut dom = vec![1.0f64; n];
        for &(a, b, v) in &edges {
            let (i, j) = ((a % n as u32), (b % n as u32));
            if i == j {
                continue;
            }
            trips.push((i.max(j), i.min(j), v));
            dom[i as usize] += v.abs();
            dom[j as usize] += v.abs();
        }
        for (i, &d) in dom.iter().enumerate() {
            trips.push((i as u32, i as u32, d));
        }
        let a = SymCsc::from_triplets(n, &trips);
        let f = cholesky(&a).expect("diagonally dominant must factor");

        // Dense reference.
        let mut dense = vec![vec![0.0; n]; n];
        let entries = (0..n).flat_map(|j| {
            a.col_rows(j)
                .iter()
                .zip(a.col_values(j))
                .map(move |(&r, &v)| (r as usize, j, v))
        });
        for (r, j, v) in entries {
            dense[r][j] = v;
            dense[j][r] = v;
        }
        let lref = dense_cholesky(&dense).expect("reference must factor");
        for (j, (rows, vals)) in (0..n).map(|j| (j, f.col(j))) {
            for (&i, &v) in rows.iter().zip(vals) {
                let want = lref[i as usize][j];
                prop_assert!(
                    (v - want).abs() < 1e-8 * (1.0 + v.abs()),
                    "L[{i}][{j}] = {v}, reference {want}"
                );
            }
        }
        // Structure == prediction.
        let pattern = a.pattern();
        let parent = elimination_tree(&pattern);
        prop_assert_eq!(f.col_counts(), column_counts(&pattern, &parent));

        // Solve round-trip.
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
        let b = a.matvec(&xs);
        let x = f.solve(&b);
        for i in 0..n {
            prop_assert!((x[i] - xs[i]).abs() < 1e-7, "x[{i}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multifrontal and simplicial factorizations solve identically on
    /// random diagonally-dominant matrices, with and without amalgamation.
    #[test]
    fn multifrontal_solve_matches_simplicial(
        n in 2usize..24,
        edges in prop::collection::vec((any::<u32>(), any::<u32>(), -2.0f64..2.0), 0..70),
        amalg in 0u32..8,
    ) {
        use loadex_sparse::matrix::SymCsc;
        use loadex_sparse::chol::cholesky;
        use loadex_sparse::multifrontal::{mf_analyze, mf_factorize, MfOptions};
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        let mut dom = vec![1.0f64; n];
        for &(a, b, v) in &edges {
            let (i, j) = ((a % n as u32), (b % n as u32));
            if i == j {
                continue;
            }
            trips.push((i.max(j), i.min(j), v));
            dom[i as usize] += v.abs();
            dom[j as usize] += v.abs();
        }
        for (i, &d) in dom.iter().enumerate() {
            trips.push((i as u32, i as u32, d));
        }
        let a = SymCsc::from_triplets(n, &trips);
        let sym = mf_analyze(&a.pattern(), MfOptions { amalg_pivots: amalg });
        prop_assert_eq!(sym.tree.total_pivots(), n as u64);
        let f_mf = mf_factorize(&sym, &a).expect("dd must factor");
        let f_sp = cholesky(&a).expect("dd must factor");
        let xs: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.61).sin()).collect();
        let b = a.matvec(&xs);
        let x1 = f_mf.solve(&b);
        let x2 = f_sp.solve(&b);
        for i in 0..n {
            prop_assert!((x1[i] - xs[i]).abs() < 1e-7, "mf x[{i}]");
            prop_assert!((x1[i] - x2[i]).abs() < 1e-7, "mf vs simplicial x[{i}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse LU (no pivoting) solves random diagonally-dominant
    /// *unsymmetric* systems to high accuracy.
    #[test]
    fn sparse_lu_solves_random_dominant_systems(
        n in 2usize..20,
        edges in prop::collection::vec((any::<u32>(), any::<u32>(), -2.0f64..2.0), 0..60),
    ) {
        use loadex_sparse::lu::{lu, GenCsc};
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        let mut dom = vec![1.0f64; n];
        for &(a, b, v) in &edges {
            let (i, j) = ((a % n as u32), (b % n as u32));
            if i == j {
                continue;
            }
            trips.push((i, j, v)); // genuinely unsymmetric values
            dom[i as usize] += v.abs();
        }
        for (i, &d) in dom.iter().enumerate() {
            trips.push((i as u32, i as u32, d + 0.5));
        }
        let a = GenCsc::from_triplets(n, &trips);
        let f = lu(&a).expect("row-dominant must factor without pivoting");
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.47).cos() * 2.0).collect();
        let b = a.matvec(&xs);
        let x = f.solve(&b);
        for i in 0..n {
            prop_assert!((x[i] - xs[i]).abs() < 1e-7, "x[{i}]: {} vs {}", x[i], xs[i]);
        }
    }
}

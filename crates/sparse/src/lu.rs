//! Numeric sparse LU factorization on a symmetrized pattern.
//!
//! Half of the paper's test matrices are unsymmetric (Tables 1–2, type
//! UNS); MUMPS handles them by working on the symmetrized pattern
//! `A + Aᵀ` — structurally symmetric, numerically unsymmetric — which lets
//! the whole elimination-tree machinery apply unchanged. This module does
//! the same: an up-looking `A = L·U` factorization (no pivoting — the
//! caller is responsible for diagonal dominance or an adequate ordering,
//! exactly the "numerically stable" regime the multifrontal simulation
//! models).
//!
//! Because the pattern is symmetric, `struct(Uᵀ) = struct(L)`: the factor
//! stores `L` (unit diagonal implied) by columns and `U`'s strict upper
//! part *in the same index structure* (entry `(t, j)` of `L` pairs with
//! entry `(j, t)` of `U`), plus the `U` diagonal. The symbolic prediction
//! of [`crate::etree::column_counts`] applies verbatim to both factors.

use crate::etree::{column_counts, elimination_tree};
use crate::pattern::SparsePattern;

/// A general (unsymmetric) sparse matrix in CSC form with a structurally
/// symmetric pattern (missing transposes become explicit zeros).
#[derive(Clone, Debug)]
pub struct GenCsc {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl GenCsc {
    /// Build from `(row, col, value)` triplets; the pattern is symmetrized
    /// (structural zeros added where `(c, r)` is absent) and duplicates sum.
    pub fn from_triplets(n: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut entries: Vec<(u32, u32, f64)> = Vec::with_capacity(triplets.len() * 2);
        for &(r, c, v) in triplets {
            assert!((r as usize) < n && (c as usize) < n, "triplet out of range");
            entries.push((r, c, v));
            entries.push((c, r, 0.0));
        }
        entries.sort_by_key(|&(r, c, _)| (c, r));
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &entries {
            if last == Some((r, c)) {
                *values.last_mut().unwrap() += v;
                continue;
            }
            last = Some((r, c));
            row_idx.push(r);
            values.push(v);
            col_ptr[c as usize + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        GenCsc {
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries (including symmetrization zeros).
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Rows of column `j`, ascending.
    pub fn col_rows(&self, j: usize) -> &[u32] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Values of column `j`.
    pub fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Entry `(i, j)` (zero when absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.col_rows(j).binary_search(&(i as u32)) {
            Ok(pos) => self.col_values(j)[pos],
            Err(_) => 0.0,
        }
    }

    /// The (symmetric) adjacency pattern.
    pub fn pattern(&self) -> SparsePattern {
        let mut edges = Vec::with_capacity(self.nnz());
        for j in 0..self.n {
            for &r in self.col_rows(j) {
                if r as usize != j {
                    edges.push((r, j as u32));
                }
            }
        }
        SparsePattern::from_edges(self.n, &edges)
    }

    /// `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (j, &xj) in x.iter().enumerate() {
            for (&r, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                y[r as usize] += v * xj;
            }
        }
        y
    }
}

/// LU factorization failure.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LuError {
    /// A zero (or denormal) pivot was met at the given column.
    ZeroPivot(usize),
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::ZeroPivot(j) => write!(f, "zero pivot at column {j}"),
        }
    }
}

impl std::error::Error for LuError {}

/// LU factors with shared structure: column `j`'s strictly-lower entries
/// hold both `L[t][j]` and `U[j][t]` (same `(t, j)` slot), diagonal of `U`
/// separate, diagonal of `L` implicitly 1.
#[derive(Clone, Debug)]
pub struct LuFactor {
    n: usize,
    ptr: Vec<usize>,
    rows: Vec<u32>,
    l_vals: Vec<f64>,
    ut_vals: Vec<f64>,
    udiag: Vec<f64>,
}

/// Factor `a` (structurally symmetric) without pivoting.
pub fn lu(a: &GenCsc) -> Result<LuFactor, LuError> {
    let n = a.n();
    let pattern = a.pattern();
    let parent = elimination_tree(&pattern);
    let counts = column_counts(&pattern, &parent);

    let mut ptr = vec![0usize; n + 1];
    for j in 0..n {
        ptr[j + 1] = ptr[j] + (counts[j] as usize - 1); // strictly lower
    }
    let nnz = ptr[n];
    let mut rows = vec![0u32; nnz];
    let mut l_vals = vec![0.0f64; nnz];
    let mut ut_vals = vec![0.0f64; nnz];
    let mut fill: Vec<usize> = ptr[..n].to_vec();
    let mut udiag = vec![0.0f64; n];

    let mut xl = vec![0.0f64; n]; // row k of L
    let mut xu = vec![0.0f64; n]; // column k of U
    let mut mark = vec![u32::MAX; n];
    let mut reach: Vec<u32> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();

    for k in 0..n {
        // Reach of step k in the etree (structure of L row k == U column k).
        reach.clear();
        mark[k] = k as u32;
        for &jj in pattern.neighbors(k) {
            let mut t = jj as usize;
            if t >= k {
                continue;
            }
            stack.clear();
            while mark[t] != k as u32 {
                stack.push(t as u32);
                mark[t] = k as u32;
                match parent[t] {
                    Some(p) if (p as usize) < k => t = p as usize,
                    _ => break,
                }
            }
            while let Some(v) = stack.pop() {
                reach.push(v);
            }
        }
        reach.sort_unstable();

        // Scatter A's row k (→ xl) and column k (→ xu).
        for &jv in &reach {
            xl[jv as usize] = 0.0;
            xu[jv as usize] = 0.0;
        }
        let mut akk = 0.0;
        for (&i, &v) in a.col_rows(k).iter().zip(a.col_values(k)) {
            let i = i as usize;
            if i == k {
                akk = v;
            } else if i < k {
                xu[i] = v; // A[i][k]
            }
        }
        for &jj in pattern.neighbors(k) {
            let j = jj as usize;
            if j < k {
                xl[j] = a.get(k, j); // A[k][j]
            }
        }

        // Two coupled sparse triangular solves, columns in ascending order.
        let mut ukk = akk;
        for &jv in &reach {
            let j = jv as usize;
            let lkj = xl[j] / udiag[j]; // L[k][j] final
            let ukj = xu[j]; // U[j][k] final (all t < j already applied)
            xl[j] = lkj;
            xu[j] = ukj;
            // Push updates into later columns of the reach (and nothing
            // else: stored rows t satisfy j < t < k only for reach members).
            for idx in ptr[j]..fill[j] {
                let t = rows[idx] as usize;
                if t < k {
                    xu[t] -= l_vals[idx] * ukj; // L[t][j] · U[j][k]
                    xl[t] -= ut_vals[idx] * lkj; // U[j][t] · L[k][j]
                }
            }
            ukk -= lkj * ukj;
        }
        if !ukk.is_normal() {
            return Err(LuError::ZeroPivot(k));
        }
        udiag[k] = ukk;

        // Store row k of L and column k of U into the shared structure.
        for &jv in &reach {
            let j = jv as usize;
            rows[fill[j]] = k as u32;
            l_vals[fill[j]] = xl[j];
            ut_vals[fill[j]] = xu[j];
            fill[j] += 1;
        }
    }
    debug_assert_eq!(fill, ptr[1..].to_vec());

    Ok(LuFactor {
        n,
        ptr,
        rows,
        l_vals,
        ut_vals,
        udiag,
    })
}

impl LuFactor {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzeros of `L` strictly-lower + `U` (upper including diagonal).
    pub fn nnz(&self) -> usize {
        2 * self.rows.len() + self.n
    }

    /// Solve `A·x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let mut x = b.to_vec();
        // Forward: L·y = b, unit diagonal, L stored by columns.
        for j in 0..self.n {
            let yj = x[j];
            if yj != 0.0 {
                for idx in self.ptr[j]..self.ptr[j + 1] {
                    x[self.rows[idx] as usize] -= self.l_vals[idx] * yj;
                }
            }
        }
        // Backward: U·x = y. Row j of U's strict upper part is stored at the
        // same slots as column j of L (`ut_vals`).
        for j in (0..self.n).rev() {
            let mut s = x[j];
            for idx in self.ptr[j]..self.ptr[j + 1] {
                s -= self.ut_vals[idx] * x[self.rows[idx] as usize];
            }
            x[j] = s / self.udiag[j];
        }
        x
    }

    /// `U`'s diagonal (pivots), for diagnostics.
    pub fn pivots(&self) -> &[f64] {
        &self.udiag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_2x2_by_hand() {
        // A = [[2, 1], [4, 5]]; b = [3, 9] → x = [1, 1].
        let a = GenCsc::from_triplets(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 4.0), (1, 1, 5.0)]);
        let f = lu(&a).unwrap();
        assert!((f.pivots()[0] - 2.0).abs() < 1e-12);
        assert!((f.pivots()[1] - 3.0).abs() < 1e-12);
        let x = f.solve(&[3.0, 9.0]);
        assert!(
            (x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12,
            "{x:?}"
        );
    }

    #[test]
    fn unsymmetric_convection_diffusion_solves() {
        let k = 9;
        let n = k * k;
        let id = |x: usize, y: usize| (y * k + x) as u32;
        let mut t = Vec::new();
        for y in 0..k {
            for x in 0..k {
                t.push((id(x, y), id(x, y), 5.0));
                if x + 1 < k {
                    t.push((id(x + 1, y), id(x, y), -1.3)); // downwind
                    t.push((id(x, y), id(x + 1, y), -0.7)); // upwind
                }
                if y + 1 < k {
                    t.push((id(x, y + 1), id(x, y), -1.2));
                    t.push((id(x, y), id(x, y + 1), -0.8));
                }
            }
        }
        let a = GenCsc::from_triplets(n, &t);
        let f = lu(&a).unwrap();
        let xs: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b = a.matvec(&xs);
        let x = f.solve(&b);
        let err: f64 = x
            .iter()
            .zip(&xs)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "max err {err}");
    }

    #[test]
    fn lu_matches_dense_reference() {
        let a = GenCsc::from_triplets(
            4,
            &[
                (0, 0, 4.0),
                (1, 0, -1.0),
                (0, 1, -2.0),
                (1, 1, 5.0),
                (2, 1, -1.5),
                (1, 2, -0.5),
                (2, 2, 6.0),
                (3, 2, -2.0),
                (2, 3, -1.0),
                (3, 3, 4.5),
            ],
        );
        let f = lu(&a).unwrap();
        // Dense LU without pivoting.
        let n = 4;
        let mut d = vec![vec![0.0; n]; n];
        let entries = (0..n).flat_map(|j| {
            a.col_rows(j)
                .iter()
                .zip(a.col_values(j))
                .map(move |(&r, &v)| (r as usize, j, v))
        });
        for (r, j, v) in entries {
            d[r][j] = v;
        }
        for kcol in 0..n {
            let (top, below) = d.split_at_mut(kcol + 1);
            let pivot = &top[kcol];
            for row in below {
                let m = row[kcol] / pivot[kcol];
                row[kcol] = m;
                for (x, &p) in row[kcol + 1..].iter_mut().zip(&pivot[kcol + 1..]) {
                    *x -= m * p;
                }
            }
        }
        for (j, &p) in f.pivots().iter().enumerate() {
            assert!((p - d[j][j]).abs() < 1e-10, "pivot {j}: {p} vs {}", d[j][j]);
        }
        for probe in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| ((i + probe) % 3) as f64 + 1.0).collect();
            let x = f.solve(&b);
            let mut y = b.clone();
            for i in 0..n {
                for j in 0..i {
                    y[i] -= d[i][j] * y[j];
                }
            }
            for i in (0..n).rev() {
                for j in i + 1..n {
                    y[i] -= d[i][j] * y[j];
                }
                y[i] /= d[i][i];
            }
            for i in 0..n {
                assert!((x[i] - y[i]).abs() < 1e-10, "probe {probe} x[{i}]");
            }
        }
    }

    #[test]
    fn zero_pivot_detected() {
        let a = GenCsc::from_triplets(2, &[(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(lu(&a), Err(LuError::ZeroPivot(0))));
    }

    #[test]
    fn symmetric_input_matches_cholesky_solution() {
        use crate::chol::cholesky;
        use crate::matrix::spd_grid2d;
        let s = spd_grid2d(7, 6, 0.2);
        let n = s.n();
        let mut t = Vec::new();
        for j in 0..n {
            for (&r, &v) in s.col_rows(j).iter().zip(s.col_values(j)) {
                t.push((r, j as u32, v));
                if r as usize != j {
                    t.push((j as u32, r, v));
                }
            }
        }
        let a = GenCsc::from_triplets(n, &t);
        let flu = lu(&a).unwrap();
        let fch = cholesky(&s).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x1 = flu.solve(&b);
        let x2 = fch.solve(&b);
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < 1e-9, "x[{i}]");
        }
    }

    #[test]
    fn structure_matches_symbolic_prediction() {
        let k = 8;
        let n = k * k;
        let id = |x: usize, y: usize| (y * k + x) as u32;
        let mut t = Vec::new();
        for y in 0..k {
            for x in 0..k {
                t.push((id(x, y), id(x, y), 6.0));
                if x + 1 < k {
                    t.push((id(x + 1, y), id(x, y), -1.5));
                }
                if y + 1 < k {
                    t.push((id(x, y), id(x, y + 1), -0.5));
                }
            }
        }
        let a = GenCsc::from_triplets(n, &t);
        let f = lu(&a).unwrap();
        let pattern = a.pattern();
        let parent = elimination_tree(&pattern);
        let counts = column_counts(&pattern, &parent);
        let predicted: usize = counts.iter().map(|&c| c as usize).sum();
        // nnz(L strictly lower) + nnz(U upper incl. diag) = 2·(Σcounts − n) + n.
        assert_eq!(f.nnz(), 2 * (predicted - n) + n);
    }
}

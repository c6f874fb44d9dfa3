//! Value-carrying sparse matrices (compressed sparse column, lower
//! triangle) for the numeric factorization.
//!
//! The simulation experiments only need patterns, but a solver library that
//! cannot solve anything would be a strange artifact; [`crate::chol`] runs a
//! real Cholesky on these matrices and doubles as a cross-validation of the
//! symbolic machinery (predicted factor structure == computed one).

use crate::pattern::SparsePattern;

/// A symmetric matrix stored as its lower triangle in CSC form
/// (diagonal included, rows sorted within each column).
#[derive(Clone, Debug)]
pub struct SymCsc {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SymCsc {
    /// Build from `(row, col, value)` triplets of the **lower** triangle
    /// (entries with `row < col` are mirrored; duplicates are summed).
    pub fn from_triplets(n: usize, triplets: &[(u32, u32, f64)]) -> Self {
        // Normalise to lower triangle and sort by (col, row).
        let mut entries: Vec<(u32, u32, f64)> = triplets
            .iter()
            .map(|&(r, c, v)| if r >= c { (r, c, v) } else { (c, r, v) })
            .collect();
        entries.sort_by_key(|&(r, c, _)| (c, r));
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx: Vec<u32> = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &entries {
            assert!((r as usize) < n && (c as usize) < n, "triplet out of range");
            if last == Some((r, c)) {
                *values.last_mut().unwrap() += v; // duplicate: sum
                continue;
            }
            last = Some((r, c));
            row_idx.push(r);
            values.push(v);
            col_ptr[c as usize + 1] += 1;
        }
        // Prefix-sum the per-column counts.
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        SymCsc {
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

    /// Stored (lower-triangle) nonzeros.
    pub fn nnz_lower(&self) -> usize {
        self.row_idx.len()
    }

    /// Row indices of column `j` (lower triangle, ascending; first is the
    /// diagonal when present).
    pub fn col_rows(&self, j: usize) -> &[u32] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Values of column `j`, parallel to [`SymCsc::col_rows`].
    pub fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// The adjacency pattern (off-diagonal), for the symbolic machinery.
    pub fn pattern(&self) -> SparsePattern {
        let mut edges = Vec::with_capacity(self.nnz_lower());
        for j in 0..self.n {
            for &r in self.col_rows(j) {
                if r as usize != j {
                    edges.push((r, j as u32));
                }
            }
        }
        SparsePattern::from_edges(self.n, &edges)
    }

    /// Symmetric mat-vec: `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for j in 0..self.n {
            for (&r, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                let r = r as usize;
                y[r] += v * x[j];
                if r != j {
                    y[j] += v * x[r];
                }
            }
        }
        y
    }

    /// Apply a symmetric permutation: entry `(i, j)` moves to
    /// `(inv[i], inv[j])` where `perm[k]` is the old index of new index `k`.
    pub fn permute(&self, perm: &[u32]) -> SymCsc {
        assert_eq!(perm.len(), self.n);
        let mut inv = vec![0u32; self.n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        let mut triplets = Vec::with_capacity(self.nnz_lower());
        for j in 0..self.n {
            for (&r, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                triplets.push((inv[r as usize], inv[j], v));
            }
        }
        SymCsc::from_triplets(self.n, &triplets)
    }
}

/// SPD finite-difference Laplacian (+ diagonal shift) on a 2D grid.
pub fn spd_grid2d(nx: usize, ny: usize, shift: f64) -> SymCsc {
    let n = nx * ny;
    let id = |x: usize, y: usize| (y * nx + x) as u32;
    let mut t = Vec::with_capacity(3 * n);
    for y in 0..ny {
        for x in 0..nx {
            t.push((id(x, y), id(x, y), 4.0 + shift));
            if x + 1 < nx {
                t.push((id(x + 1, y), id(x, y), -1.0));
            }
            if y + 1 < ny {
                t.push((id(x, y + 1), id(x, y), -1.0));
            }
        }
    }
    SymCsc::from_triplets(n, &t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_build_sorted_lower_csc() {
        // 2x2: [[2, -1], [-1, 2]] given in mixed upper/lower order.
        let a = SymCsc::from_triplets(2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 1, 2.0)]);
        assert_eq!(a.col_rows(0), &[0, 1]);
        assert_eq!(a.col_values(0), &[2.0, -1.0]);
        assert_eq!(a.col_rows(1), &[1]);
        assert_eq!(a.nnz_lower(), 3);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = spd_grid2d(3, 2, 0.5);
        let x: Vec<f64> = (0..6).map(|i| (i + 1) as f64).collect();
        let y = a.matvec(&x);
        // Dense reference.
        let n = 6;
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
        for i in 0..n {
            let want: f64 = (0..n).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - want).abs() < 1e-12, "row {i}: {} vs {want}", y[i]);
        }
    }

    #[test]
    fn pattern_matches_generator() {
        let a = spd_grid2d(4, 4, 0.0);
        let p = a.pattern();
        p.validate();
        assert_eq!(p.n(), 16);
        assert_eq!(p.degree(5), 4, "interior grid point");
    }

    #[test]
    fn permute_preserves_spectrum_probe() {
        // x'Ax is invariant under symmetric permutation (probe with one x).
        let a = spd_grid2d(4, 3, 1.0);
        let perm: Vec<u32> = vec![5, 3, 0, 1, 2, 4, 7, 6, 11, 10, 9, 8];
        let b = a.permute(&perm);
        let x: Vec<f64> = (0..12).map(|i| ((i * 7 + 3) % 5) as f64).collect();
        // x under the same permutation.
        let mut px = vec![0.0; 12];
        for (new, &old) in perm.iter().enumerate() {
            px[new] = x[old as usize];
        }
        let xax: f64 = a.matvec(&x).iter().zip(&x).map(|(y, x)| y * x).sum();
        let pxbpx: f64 = b.matvec(&px).iter().zip(&px).map(|(y, x)| y * x).sum();
        assert!((xax - pxbpx).abs() < 1e-9);
    }
}

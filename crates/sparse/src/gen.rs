//! Problem generators.
//!
//! The PARASOL and Tim Davis matrices used in the paper are not bundled;
//! these generators produce structurally comparable problems: 2D/3D finite
//! difference grids (the dominant structure of the paper's mechanical and
//! wave-propagation problems) and random patterns.

use crate::pattern::SparsePattern;
use loadex_sim::SimRng;

/// 5-point Laplacian on an `nx × ny` grid (order `nx*ny`).
pub fn grid2d(nx: usize, ny: usize) -> SparsePattern {
    assert!(nx >= 1 && ny >= 1);
    let id = |x: usize, y: usize| (y * nx + x) as u32;
    let mut edges = Vec::with_capacity(2 * nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < ny {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    SparsePattern::from_edges(nx * ny, &edges)
}

/// 7-point Laplacian on an `nx × ny × nz` grid (order `nx*ny*nz`).
pub fn grid3d(nx: usize, ny: usize, nz: usize) -> SparsePattern {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let id = |x: usize, y: usize, z: usize| ((z * ny + y) * nx + x) as u32;
    let mut edges = Vec::with_capacity(3 * nx * ny * nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((id(x, y, z), id(x + 1, y, z)));
                }
                if y + 1 < ny {
                    edges.push((id(x, y, z), id(x, y + 1, z)));
                }
                if z + 1 < nz {
                    edges.push((id(x, y, z), id(x, y, z + 1)));
                }
            }
        }
    }
    SparsePattern::from_edges(nx * ny * nz, &edges)
}

/// Random pattern with roughly `avg_degree` neighbours per vertex, plus a
/// Hamiltonian path so the graph is connected.
pub fn random(n: usize, avg_degree: usize, rng: &mut SimRng) -> SparsePattern {
    let mut edges = Vec::with_capacity(n * (avg_degree / 2 + 1));
    for i in 1..n {
        edges.push((i as u32 - 1, i as u32));
    }
    let extra = n.saturating_mul(avg_degree.saturating_sub(2)) / 2;
    for _ in 0..extra {
        let i = rng.next_below(n as u64) as u32;
        let j = rng.next_below(n as u64) as u32;
        if i != j {
            edges.push((i, j));
        }
    }
    SparsePattern::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_structure() {
        let p = grid2d(3, 3);
        p.validate();
        assert_eq!(p.n(), 9);
        // Corner has 2 neighbours, centre has 4.
        assert_eq!(p.degree(0), 2);
        assert_eq!(p.degree(4), 4);
        // 2*3*2 = 12 edges → 24 off-diagonal entries.
        assert_eq!(p.nnz_offdiag(), 24);
        assert_eq!(p.components().1, 1);
    }

    #[test]
    fn grid3d_structure() {
        let p = grid3d(3, 3, 3);
        p.validate();
        assert_eq!(p.n(), 27);
        assert_eq!(p.degree(13), 6, "centre of a 3×3×3 grid");
        assert_eq!(p.components().1, 1);
    }

    #[test]
    fn degenerate_grids() {
        assert_eq!(grid2d(1, 1).n(), 1);
        assert_eq!(grid2d(5, 1).nnz_offdiag(), 8, "a path");
        assert_eq!(grid3d(1, 1, 4).nnz_offdiag(), 6);
    }

    #[test]
    fn random_is_connected_and_reproducible() {
        let mut r1 = SimRng::seed_from_u64(5);
        let mut r2 = SimRng::seed_from_u64(5);
        let a = random(100, 6, &mut r1);
        let b = random(100, 6, &mut r2);
        a.validate();
        assert_eq!(a.components().1, 1);
        assert_eq!(a.nnz_offdiag(), b.nnz_offdiag());
        let target = 100 * 6;
        let got = a.nnz_offdiag();
        assert!(got > target / 2 && got < target * 2, "degree off: {got}");
    }
}

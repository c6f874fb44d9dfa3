//! Fill-reducing orderings.
//!
//! The paper reorders with METIS (§4.3). We provide a self-contained
//! BFS-separator **nested dissection** with the same qualitative effect — a
//! balanced elimination tree whose separators become the large fronts near
//! the root — plus **reverse Cuthill–McKee** (band reduction) and the
//! identity ordering for comparison.
//!
//! An ordering is returned as a permutation `perm` where `perm[k]` is the
//! original index of the vertex eliminated `k`-th.

use crate::pattern::SparsePattern;
use std::collections::VecDeque;

/// Identity ordering (natural elimination order).
pub fn identity(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// BFS levels from `start`, restricted to `mask` (vertices with
/// `mask[v] == tag`). Returns (levels, visited order, last visited).
fn bfs_levels(
    p: &SparsePattern,
    start: usize,
    mask: &[u32],
    tag: u32,
    level: &mut [u32],
) -> (Vec<u32>, usize) {
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    level[start] = 0;
    q.push_back(start as u32);
    let mut last = start;
    while let Some(v) = q.pop_front() {
        order.push(v);
        last = v as usize;
        for &w in p.neighbors(v as usize) {
            let w = w as usize;
            if mask[w] == tag && level[w] == u32::MAX {
                level[w] = level[v as usize] + 1;
                q.push_back(w as u32);
            }
        }
    }
    (order, last)
}

/// Find a pseudo-peripheral vertex of the component of `start` (one BFS
/// sweep to a farthest vertex). `scratch` is the level array; the visited
/// entries are reset before returning.
fn pseudo_peripheral(
    p: &SparsePattern,
    start: usize,
    mask: &[u32],
    tag: u32,
    scratch: &mut [u32],
) -> usize {
    let (order, far) = bfs_levels(p, start, mask, tag, scratch);
    for v in order {
        scratch[v as usize] = u32::MAX;
    }
    far
}

/// Reverse Cuthill–McKee ordering.
pub fn rcm(p: &SparsePattern) -> Vec<u32> {
    let n = p.n();
    let mut perm = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mask = vec![0u32; n];
    let mut level = vec![u32::MAX; n];
    for s in 0..n {
        if visited[s] {
            continue;
        }
        let start = pseudo_peripheral(p, s, &mask, 0, &mut level);
        // CM: BFS from start, neighbours in increasing-degree order.
        let mut q = VecDeque::new();
        let comp_start = perm.len();
        visited[start] = true;
        q.push_back(start as u32);
        while let Some(v) = q.pop_front() {
            perm.push(v);
            let mut nbrs: Vec<u32> = p
                .neighbors(v as usize)
                .iter()
                .copied()
                .filter(|&w| !visited[w as usize])
                .collect();
            nbrs.sort_by_key(|&w| p.degree(w as usize));
            for w in nbrs {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    q.push_back(w);
                }
            }
        }
        perm[comp_start..].reverse();
    }
    perm
}

/// Nested dissection options.
#[derive(Clone, Copy, Debug)]
pub struct NdOptions {
    /// Parts smaller than this are ordered directly (leaf case).
    pub leaf_size: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions { leaf_size: 64 }
    }
}

/// BFS-separator nested dissection.
pub fn nested_dissection(p: &SparsePattern, opts: NdOptions) -> Vec<u32> {
    let n = p.n();
    // part[v]: which pending part the vertex belongs to (tag).
    let mut part = vec![0u32; n];
    let mut perm = vec![u32::MAX; n];
    // Order positions are assigned from the END (separators last).
    let mut next_pos = n;
    let mut level = vec![u32::MAX; n];

    // Work stack of (tag, representative vertex list).
    let mut stack: Vec<(u32, Vec<u32>)> = Vec::new();
    // Split initial components.
    let (comp, ncomp) = p.components();
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
    for v in 0..n {
        groups[comp[v] as usize].push(v as u32);
    }
    let mut next_tag = 1u32;
    for g in groups {
        let tag = next_tag;
        next_tag += 1;
        for &v in &g {
            part[v as usize] = tag;
        }
        stack.push((tag, g));
    }

    while let Some((tag, verts)) = stack.pop() {
        if verts.len() <= opts.leaf_size {
            // Leaf: order by RCM-like local BFS (cheap: just keep BFS order
            // reversed for a modest profile reduction).
            for v in &verts {
                level[*v as usize] = u32::MAX;
            }
            let (order, _) = bfs_levels(p, verts[0] as usize, &part, tag, &mut level);
            // Some vertices may be unreachable if the part got disconnected
            // by separator removal; order them too.
            let mut placed = vec![];
            placed.extend(order.iter().rev().copied());
            for &v in &verts {
                if level[v as usize] == u32::MAX {
                    placed.push(v);
                }
            }
            for v in placed {
                next_pos -= 1;
                perm[next_pos] = v;
                part[v as usize] = 0; // consumed
            }
            continue;
        }

        // Bisect: BFS from a pseudo-peripheral vertex, split at median level.
        for &v in &verts {
            level[v as usize] = u32::MAX;
        }
        let start = {
            // one BFS to find a far vertex, then BFS from it
            let (_, far) = bfs_levels(p, verts[0] as usize, &part, tag, &mut level);
            for &v in &verts {
                level[v as usize] = u32::MAX;
            }
            far
        };
        let (order, _) = bfs_levels(p, start, &part, tag, &mut level);

        // Vertices unreachable from start (disconnected part): treat as side A.
        let reachable = order.len();
        if reachable < verts.len() {
            // Split simply into reachable/unreachable.
            let tag_a = next_tag;
            let tag_b = next_tag + 1;
            next_tag += 2;
            let mut a = Vec::new();
            let mut b = Vec::new();
            for &v in &verts {
                if level[v as usize] == u32::MAX {
                    part[v as usize] = tag_b;
                    b.push(v);
                } else {
                    part[v as usize] = tag_a;
                    a.push(v);
                }
            }
            stack.push((tag_a, a));
            stack.push((tag_b, b));
            continue;
        }

        // Median level split.
        let half = order[..reachable / 2].to_vec();
        let cut_level = level[*half.last().unwrap() as usize];
        // Separator: vertices at `cut_level + 1` adjacent to level ≤ cut_level.
        let tag_a = next_tag;
        let tag_b = next_tag + 1;
        next_tag += 2;
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut sep = Vec::new();
        for &v in &order {
            let lv = level[v as usize];
            if lv <= cut_level {
                part[v as usize] = tag_a;
                a.push(v);
            } else if lv == cut_level + 1
                && p.neighbors(v as usize)
                    .iter()
                    .any(|&w| part[w as usize] == tag || level[w as usize] <= cut_level)
            {
                // Candidate separator: adjacent to side A.
                let touches_a = p
                    .neighbors(v as usize)
                    .iter()
                    .any(|&w| level[w as usize] <= cut_level && level[w as usize] != u32::MAX);
                if touches_a {
                    sep.push(v);
                } else {
                    part[v as usize] = tag_b;
                    b.push(v);
                }
            } else {
                part[v as usize] = tag_b;
                b.push(v);
            }
        }
        // Separator vertices take the highest remaining positions.
        for &v in sep.iter().rev() {
            next_pos -= 1;
            perm[next_pos] = v;
            part[v as usize] = 0;
        }
        if a.is_empty() || b.is_empty() {
            // Degenerate cut (e.g. star graphs): fall back to ordering the
            // remainder directly to guarantee progress.
            let rest: Vec<u32> = a.into_iter().chain(b).collect();
            for &v in rest.iter().rev() {
                next_pos -= 1;
                perm[next_pos] = v;
                part[v as usize] = 0;
            }
            continue;
        }
        for &v in &a {
            part[v as usize] = tag_a;
        }
        for &v in &b {
            part[v as usize] = tag_b;
        }
        stack.push((tag_a, a));
        stack.push((tag_b, b));
    }
    debug_assert_eq!(next_pos, 0);
    perm
}

/// Validate that `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[u32], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in perm {
        if v as usize >= n || seen[v as usize] {
            return false;
        }
        seen[v as usize] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn identity_is_permutation() {
        assert!(is_permutation(&identity(10), 10));
    }

    #[test]
    fn rcm_is_permutation_and_reduces_band() {
        // A grid numbered by rows already has a small band; shuffle it badly
        // first via a permutation, then check RCM restores a small band.
        let p = gen::grid2d(10, 10);
        let perm = rcm(&p);
        assert!(is_permutation(&perm, 100));
        // Compute the bandwidth after RCM.
        let q = p.permute(&perm);
        let mut band = 0usize;
        for i in 0..q.n() {
            for &j in q.neighbors(i) {
                band = band.max((j as usize).abs_diff(i));
            }
        }
        assert!(band <= 15, "RCM bandwidth too large: {band}");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let p = SparsePattern::from_edges(6, &[(0, 1), (3, 4)]);
        let perm = rcm(&p);
        assert!(is_permutation(&perm, 6));
    }

    #[test]
    fn nd_is_permutation_on_grids() {
        for (nx, ny) in [(4, 4), (13, 7), (30, 30)] {
            let p = gen::grid2d(nx, ny);
            let perm = nested_dissection(&p, NdOptions { leaf_size: 8 });
            assert!(is_permutation(&perm, nx * ny), "grid {nx}x{ny}");
        }
    }

    #[test]
    fn nd_handles_disconnected_and_tiny_graphs() {
        let p = SparsePattern::from_edges(5, &[(0, 1), (2, 3)]);
        let perm = nested_dissection(&p, NdOptions::default());
        assert!(is_permutation(&perm, 5));
        let single = gen::grid2d(1, 1);
        assert!(is_permutation(
            &nested_dissection(&single, NdOptions::default()),
            1
        ));
    }

    #[test]
    fn nd_separators_ordered_last() {
        // On a path graph the first bisection separator is near the middle
        // and must be eliminated last.
        let p = gen::grid2d(64, 1);
        let perm = nested_dissection(&p, NdOptions { leaf_size: 4 });
        assert!(is_permutation(&perm, 64));
        let last = perm[63] as i64;
        assert!(
            (last - 32).abs() <= 8,
            "last eliminated = {last}, expected near middle"
        );
    }

    #[test]
    fn nd_star_graph_degenerate_cut() {
        // Star: centre connected to all leaves. BFS levels: {centre}, {leaves};
        // the cut is degenerate but ND must still terminate correctly.
        let edges: Vec<(u32, u32)> = (1..50).map(|i| (0u32, i as u32)).collect();
        let p = SparsePattern::from_edges(50, &edges);
        let perm = nested_dissection(&p, NdOptions { leaf_size: 4 });
        assert!(is_permutation(&perm, 50));
    }
}

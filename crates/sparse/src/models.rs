//! Calibrated models of the paper's test problems (Tables 1 and 2).
//!
//! The original matrices (PARASOL collection, Tim Davis collection, private
//! CEA/Simula problems) are not redistributable. The
//! mechanisms under study only see a matrix through its **assembly tree** —
//! shape, front sizes, costs — so each paper problem is modeled as a
//! deterministic synthetic assembly tree calibrated to:
//!
//! * the published order / nonzeros / symmetry (Tables 1–2),
//! * front-size magnitudes consistent with the published active-memory peaks
//!   (Table 4, millions of real entries),
//! * enough tree depth/width that the number of dynamic decisions scales
//!   with the processor count like Table 3.
//!
//! Trees are generated by [`TreeShape::build`]: a top-down recursive
//! construction with deterministic per-model jitter. The same builder
//! makes test trees of any size: `depth_cap`, `branch` and `decay` set the
//! height and width.

use crate::tree::{AssemblyTree, Symmetry};
use loadex_sim::SimRng;

/// Which table of the paper the problem belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProblemSet {
    /// Table 1: the eight problems used for the memory study (Table 4).
    Small,
    /// Table 2: the three large problems used for the time study
    /// (Tables 5–7).
    Large,
}

/// Shape parameters of a synthetic assembly tree.
#[derive(Clone, Copy, Debug)]
pub struct TreeShape {
    /// Front order at the root.
    pub root_front: u32,
    /// Geometric decay of front sizes from parent to child.
    pub decay: f64,
    /// Children per node (jittered ±1).
    pub branch: u32,
    /// Fraction of the front eliminated at each non-root node.
    pub npiv_frac: f64,
    /// Fronts at or below this order become leaves.
    pub leaf_front: u32,
    /// Maximum depth.
    pub depth_cap: u32,
    /// Multiplicative jitter half-range on child fronts (0.0 = regular tree).
    pub jitter: f64,
}

impl TreeShape {
    /// Build the assembly tree, deterministically from `seed`.
    pub fn build(&self, sym: Symmetry, seed: u64) -> AssemblyTree {
        let mut rng = SimRng::seed_from_u64(seed);
        // Top-down construction into parent-indexed records, then reversed
        // so children precede parents (topological numbering).
        struct Rec {
            parent: Option<u32>,
            nfront: u32,
            npiv: u32,
        }
        let mut recs: Vec<Rec> = Vec::new();
        // Root eliminates its whole front (the 2D ScaLAPACK Type 3 node).
        recs.push(Rec {
            parent: None,
            nfront: self.root_front,
            npiv: self.root_front,
        });
        let mut frontier: Vec<(u32, u32, u32)> = vec![(0, self.root_front, 0)]; // (idx, front, depth)
        while let Some((idx, front, depth)) = frontier.pop() {
            if depth >= self.depth_cap {
                continue;
            }
            let child_base = (front as f64) * self.decay;
            if child_base < 2.0 {
                continue;
            }
            let nb = {
                let b = self.branch as i64 + rng.range_inclusive(0, 2) as i64 - 1;
                b.max(1) as u32
            };
            for _ in 0..nb {
                let jit = 1.0 + self.jitter * (2.0 * rng.next_f64() - 1.0);
                let cf = ((child_base * jit).round() as u32).max(2);
                let leaf = cf <= self.leaf_front || depth + 1 >= self.depth_cap;
                // Non-root nodes eliminate a fraction; leaves a larger one
                // (they have no children contributing rows).
                let frac = if leaf {
                    (self.npiv_frac * 1.8).min(0.95)
                } else {
                    self.npiv_frac
                };
                let npiv = ((cf as f64 * frac).round() as u32).clamp(1, cf);
                let me = recs.len() as u32;
                recs.push(Rec {
                    parent: Some(idx),
                    nfront: cf,
                    npiv,
                });
                if !leaf {
                    frontier.push((me, cf, depth + 1));
                }
            }
        }
        // Reverse numbering: node k becomes n-1-k so children (created
        // after parents) get smaller indices.
        let n = recs.len() as u32;
        let specs: Vec<(Option<u32>, u32, u32)> = recs
            .iter()
            .rev()
            .map(|r| (r.parent.map(|p| n - 1 - p), r.nfront, r.npiv))
            .collect();
        AssemblyTree::from_parents(sym, &specs)
    }
}

/// One modeled test problem.
#[derive(Clone, Copy, Debug)]
pub struct MatrixModel {
    /// Matrix name as in the paper.
    pub name: &'static str,
    /// Order (Tables 1–2).
    pub order: u64,
    /// Nonzeros (Tables 1–2).
    pub nnz: u64,
    /// SYM / UNS.
    pub sym: Symmetry,
    /// Source / description as in the paper.
    pub description: &'static str,
    /// Which problem set it belongs to.
    pub set: ProblemSet,
    /// Synthetic tree shape.
    pub shape: TreeShape,
}

impl MatrixModel {
    /// Build the model's assembly tree (deterministic).
    pub fn build_tree(&self) -> AssemblyTree {
        // Seed from the name so each model gets stable, distinct jitter.
        let seed = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        self.shape.build(self.sym, seed)
    }
}

const fn shape(
    root_front: u32,
    decay: f64,
    branch: u32,
    npiv_frac: f64,
    leaf_front: u32,
    depth_cap: u32,
) -> TreeShape {
    TreeShape {
        root_front,
        decay,
        branch,
        npiv_frac,
        leaf_front,
        depth_cap,
        jitter: 0.25,
    }
}

/// The eleven test problems of Tables 1 and 2.
pub fn paper_matrices() -> Vec<MatrixModel> {
    use ProblemSet::{Large, Small};
    use Symmetry::{Symmetric as Sym, Unsymmetric as Uns};
    vec![
        MatrixModel {
            name: "BMWCRA_1",
            order: 148_770,
            nnz: 5_396_386,
            sym: Sym,
            description: "Automotive crankshaft model (PARASOL)",
            set: Small,
            shape: shape(2200, 0.74, 2, 0.34, 64, 12),
        },
        MatrixModel {
            name: "GUPTA3",
            order: 16_783,
            nnz: 4_670_105,
            sym: Sym,
            description: "Linear programming matrix A*A' (Tim Davis)",
            set: Small,
            shape: shape(3600, 0.30, 7, 0.52, 400, 3),
        },
        MatrixModel {
            name: "MSDOOR",
            order: 415_863,
            nnz: 10_328_399,
            sym: Sym,
            description: "Medium size door (PARASOL)",
            set: Small,
            shape: shape(1400, 0.68, 2, 0.34, 56, 12),
        },
        MatrixModel {
            name: "SHIP_003",
            order: 121_728,
            nnz: 4_103_881,
            sym: Sym,
            description: "Ship structure (PARASOL)",
            set: Small,
            shape: shape(2700, 0.74, 2, 0.30, 60, 13),
        },
        MatrixModel {
            name: "PRE2",
            order: 659_033,
            nnz: 5_959_282,
            sym: Uns,
            description: "AT&T, harmonic balance method (Tim Davis)",
            set: Small,
            shape: shape(2600, 0.78, 2, 0.40, 56, 12),
        },
        MatrixModel {
            name: "TWOTONE",
            order: 120_750,
            nnz: 1_224_224,
            sym: Uns,
            description: "AT&T, harmonic balance method (Tim Davis)",
            set: Small,
            shape: shape(1250, 0.60, 4, 0.46, 80, 5),
        },
        MatrixModel {
            name: "ULTRASOUND3",
            order: 185_193,
            nnz: 11_390_625,
            sym: Uns,
            description: "3D ultrasound wave propagation (X. Cai, Simula)",
            set: Small,
            shape: shape(2900, 0.73, 2, 0.34, 64, 12),
        },
        MatrixModel {
            name: "XENON2",
            order: 157_464,
            nnz: 3_866_688,
            sym: Uns,
            description: "Complex zeolite, sodalite crystals (Tim Davis)",
            set: Small,
            shape: shape(1700, 0.74, 2, 0.40, 60, 10),
        },
        MatrixModel {
            name: "AUDIKW_1",
            order: 943_695,
            nnz: 39_297_771,
            sym: Sym,
            description: "Automotive crankshaft model, large (PARASOL)",
            set: Large,
            shape: shape(3700, 0.75, 2, 0.32, 72, 14),
        },
        MatrixModel {
            name: "CONV3D64",
            order: 836_550,
            nnz: 12_548_250,
            sym: Uns,
            description: "CEA-CESTA, generated with AQUILON",
            set: Large,
            shape: shape(4300, 0.77, 2, 0.30, 72, 14),
        },
        MatrixModel {
            name: "ULTRASOUND80",
            order: 531_441,
            nnz: 33_076_161,
            sym: Uns,
            description: "3D ultrasound propagation, large (M. Sosonkina)",
            set: Large,
            shape: shape(3400, 0.78, 2, 0.33, 64, 13),
        },
    ]
}

/// Look a model up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<MatrixModel> {
    paper_matrices()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_models_match_tables_1_and_2() {
        let ms = paper_matrices();
        assert_eq!(ms.len(), 11);
        assert_eq!(ms.iter().filter(|m| m.set == ProblemSet::Small).count(), 8);
        assert_eq!(ms.iter().filter(|m| m.set == ProblemSet::Large).count(), 3);
        let audi = by_name("audikw_1").unwrap();
        assert_eq!(audi.order, 943_695);
        assert_eq!(audi.sym, Symmetry::Symmetric);
    }

    #[test]
    fn trees_build_and_validate() {
        for m in paper_matrices() {
            let t = m.build_tree();
            t.validate();
            assert!(t.len() > 10, "{}: tree too small ({})", m.name, t.len());
            assert!(t.len() < 1_000_000, "{}: tree too big", m.name);
            let root = t.roots()[0] as usize;
            assert_eq!(
                t.nodes[root].npiv, t.nodes[root].nfront,
                "{}: root fully eliminated",
                m.name
            );
        }
    }

    #[test]
    fn trees_are_deterministic() {
        let m = by_name("BMWCRA_1").unwrap();
        let a = m.build_tree();
        let b = m.build_tree();
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.nodes[i].nfront, b.nodes[i].nfront);
            assert_eq!(a.nodes[i].npiv, b.nodes[i].npiv);
        }
    }

    #[test]
    fn distinct_models_have_distinct_trees() {
        let a = by_name("BMWCRA_1").unwrap().build_tree();
        let b = by_name("SHIP_003").unwrap().build_tree();
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn gupta3_is_shallow_and_top_heavy() {
        let g = by_name("GUPTA3").unwrap().build_tree();
        assert!(g.height() <= 5, "height {}", g.height());
        let root = g.roots()[0] as usize;
        assert!(g.nodes[root].nfront >= 3000);
    }

    #[test]
    fn large_set_has_more_flops_than_small_set() {
        let audi = by_name("AUDIKW_1").unwrap().build_tree().total_flops();
        let msdoor = by_name("MSDOOR").unwrap().build_tree().total_flops();
        assert!(audi > 3.0 * msdoor, "audi={audi:.3e} msdoor={msdoor:.3e}");
    }
}

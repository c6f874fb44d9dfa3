//! Calibration guards: the synthetic models must keep reproducing the
//! paper's Table 3 within tolerance, so future edits to the tree shapes or
//! the classification cannot silently drift away from the reproduction.

use loadex_bench::config_for;
use loadex_solver::mapping::{self, MappingParams};
use loadex_sparse::models::paper_matrices;

fn params(np: usize) -> MappingParams {
    MappingParams::from(&config_for(np))
}

fn decisions(name: &str, np: usize) -> usize {
    let m = paper_matrices()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap();
    mapping::plan(&m.build_tree(), np, params(np)).n_decisions
}

#[test]
fn gupta3_reproduces_table3_exactly() {
    assert_eq!(decisions("GUPTA3", 32), 8);
    assert_eq!(decisions("GUPTA3", 64), 8);
}

#[test]
fn decision_counts_within_tolerance_of_table3() {
    // (matrix, procs, paper value). Tolerance ±45% — the models are
    // calibrated, not fitted.
    let cases = [
        ("BMWCRA_1", 32, 41),
        ("MSDOOR", 32, 38),
        ("SHIP_003", 32, 70),
        ("PRE2", 32, 92),
        ("ULTRASOUND3", 32, 49),
        ("XENON2", 32, 50),
        ("AUDIKW_1", 64, 119),
        ("CONV3D64", 64, 169),
        ("ULTRASOUND80", 64, 122),
    ];
    for (name, np, paper) in cases {
        let got = decisions(name, np) as f64;
        let ratio = got / paper as f64;
        assert!(
            (0.55..=1.45).contains(&ratio),
            "{name}@{np}: {got} vs paper {paper} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn decision_counts_grow_with_processors() {
    for name in ["BMWCRA_1", "SHIP_003", "AUDIKW_1", "CONV3D64"] {
        let d32 = decisions(name, 32);
        let d128 = decisions(name, 128);
        assert!(d128 > d32, "{name}: {d32} !< {d128}");
    }
}

#[test]
fn paper_reference_values_are_self_consistent() {
    // Every matrix in the large set has Table 5/6/7 references at 64 & 128.
    for m in loadex_bench::large_set() {
        for np in [64usize, 128] {
            assert!(loadex_bench::paper_lookup_t5(m.name, np).is_some());
            assert!(loadex_bench::paper_lookup_t6(m.name, np).is_some());
            assert!(loadex_bench::paper_lookup_t7(m.name, np).is_some());
        }
    }
}

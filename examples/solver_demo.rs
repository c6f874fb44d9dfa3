//! End-to-end demo on a *real* sparse problem (no calibrated models): build a
//! 3D grid matrix, compare orderings, then run the full factorization
//! simulation under every mechanism × strategy × communication mode.
//!
//! ```text
//! cargo run --release --example solver_demo [grid-size] [nprocs]
//! ```

use loadex::core::MechKind;
use loadex::solver::{run, CommMode, SolverConfig, Strategy};
use loadex::sparse::etree::{column_counts, elimination_tree, factor_nnz};
use loadex::sparse::order;
use loadex::sparse::symbolic::{analyze_with_ordering, Ordering, SymbolicOptions};
use loadex::sparse::{gen, Symmetry};

fn main() {
    let mut args = std::env::args().skip(1);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let nprocs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    let pattern = gen::grid3d(k, k, k);
    println!(
        "problem: {k}^3 grid, n = {}, nnz = {}\n",
        pattern.n(),
        pattern.nnz_full()
    );

    // Ordering quality: fill with identity vs RCM vs nested dissection.
    println!("ordering quality (|L| in nonzeros):");
    for (name, perm) in [
        ("identity", order::identity(pattern.n())),
        ("rcm", order::rcm(&pattern)),
        (
            "nested dissection",
            order::nested_dissection(&pattern, order::NdOptions::default()),
        ),
    ] {
        let q = pattern.permute(&perm);
        let parent = elimination_tree(&q);
        let nnz = factor_nnz(&column_counts(&q, &parent));
        println!("  {name:<18} {nnz:>12}");
    }

    let tree = analyze_with_ordering(
        &pattern,
        Ordering::NestedDissection,
        SymbolicOptions {
            amalg_pivots: 16,
            sym: Symmetry::Symmetric,
        },
    )
    .tree;
    println!(
        "\nassembly tree: {} fronts, {:.2e} flops, sequential memory peak {:.2}M entries\n",
        tree.len(),
        tree.total_flops(),
        tree.sequential_peak_memory() / 1e6
    );

    println!(
        "{:<12} {:<14} {:<10} {:>9} {:>11} {:>9} {:>8}",
        "mechanism", "strategy", "comm", "time (s)", "state msgs", "mem (M)", "eff"
    );
    for mech in MechKind::ALL {
        for strat in [Strategy::MemoryBased, Strategy::WorkloadBased] {
            for (comm_name, comm) in [
                ("main-loop", CommMode::MainLoop),
                ("threaded", CommMode::CommThread),
            ] {
                let mut cfg = SolverConfig::new(nprocs)
                    .with_mechanism(mech)
                    .with_strategy(strat)
                    .with_comm(comm);
                cfg.type2_min_front = 100;
                cfg.type3_min_front = 400;
                cfg.kmin_rows = 16;
                let r = run(&tree, &cfg).unwrap();
                println!(
                    "{:<12} {:<14} {:<10} {:>9.4} {:>11} {:>9.3} {:>7.0}%",
                    mech.name(),
                    strat.name(),
                    comm_name,
                    r.seconds(),
                    r.state_msgs,
                    r.mem_peak_millions(),
                    r.efficiency() * 100.0
                );
            }
        }
    }
}

//! End-to-end fuzz of the simulated solver: random problems × random
//! configurations must complete, conserve memory, and satisfy the engine's
//! structural invariants under every mechanism.

use loadex::core::MechKind;
use loadex::sim::SimDuration;
use loadex::solver::{run, CommMode, SolverConfig, Strategy};
use loadex::sparse::symbolic::{analyze_with_ordering, Ordering, SymbolicOptions};
use loadex::sparse::{gen, Symmetry};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_configuration_completes_cleanly(
        k in 8usize..22,
        nprocs in 1usize..8,
        mech_pick in 0usize..5,
        strat_pick in 0usize..2,
        threaded in any::<bool>(),
        chunk_us in prop::option::of(50u64..5_000),
        amalg in 1u32..16,
        partial in prop::option::of(2usize..5),
    ) {
        let tree = analyze_with_ordering(
            &gen::grid2d(k, k),
            Ordering::NestedDissection,
            SymbolicOptions { amalg_pivots: amalg, sym: Symmetry::Symmetric },
        )
        .tree;
        let mech = MechKind::EXTENDED[mech_pick];
        let mut cfg = SolverConfig::new(nprocs)
            .with_mechanism(mech)
            .with_strategy(if strat_pick == 0 {
                Strategy::MemoryBased
            } else {
                Strategy::WorkloadBased
            });
        if threaded {
            cfg = cfg.with_comm(CommMode::CommThread);
        }
        if let Some(us) = chunk_us {
            cfg.task_chunk = SimDuration::from_micros(us);
        }
        cfg.snapshot_candidates = partial;
        cfg.type2_min_front = 16;
        cfg.type3_min_front = 64;
        cfg.kmin_rows = 4;
        // Fast dissemination for the timer-driven extension mechanisms so
        // tiny simulated runs still see traffic.
        cfg.periodic_interval = SimDuration::from_micros(200);
        cfg.gossip_interval = SimDuration::from_micros(200);

        let r = run(&tree, &cfg).unwrap();
        prop_assert!(r.factor_time.as_nanos() > 0);
        prop_assert!(r.efficiency() > 0.0 && r.efficiency() <= 1.0 + 1e-9);
        for (p, proc) in r.procs.iter().enumerate() {
            prop_assert!(
                proc.mem_final_entries.abs() < 1e-6,
                "P{p} leaked {} entries (mech {mech})",
                proc.mem_final_entries
            );
        }
        if nprocs == 1 {
            prop_assert_eq!(r.state_msgs, 0);
        }
        // Determinism under the exact same configuration.
        let r2 = run(&tree, &cfg).unwrap();
        prop_assert_eq!(r.factor_time, r2.factor_time);
        prop_assert_eq!(r.state_msgs, r2.state_msgs);
    }
}

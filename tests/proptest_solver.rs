//! End-to-end fuzz of the simulated solver: random tree shapes × random
//! configurations must complete, conserve memory, and satisfy the engine's
//! structural invariants under every mechanism.

use loadex::core::MechKind;
use loadex::sim::SimDuration;
use loadex::solver::{run, CommMode, SolverConfig, Strategy};
use loadex::sparse::models::TreeShape;
use loadex::sparse::Symmetry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_configuration_completes_cleanly(
        root_front in 24u32..160,
        decay in 0.4f64..0.85,
        branch in 1u32..4,
        npiv_frac in 0.2f64..0.7,
        leaf_front in 4u32..24,
        depth_cap in 1u32..16,
        jitter in 0.0f64..0.5,
        symmetric in any::<bool>(),
        seed in any::<u64>(),
        nprocs in 1usize..8,
        mech_pick in 0usize..5,
        strat_pick in 0usize..2,
        threaded in any::<bool>(),
        chunk_us in prop::option::of(50u64..5_000),
        partial in prop::option::of(2usize..5),
    ) {
        let shape = TreeShape { root_front, decay, branch, npiv_frac, leaf_front, depth_cap, jitter };
        let sym = if symmetric { Symmetry::Symmetric } else { Symmetry::Unsymmetric };
        let tree = shape.build(sym, seed);
        // Deep and bushy together would make trees of 10⁵ fronts or more.
        prop_assume!(tree.len() <= 2_000);
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

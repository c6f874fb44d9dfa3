//! Quickstart: compare the three load-exchange mechanisms on one problem.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the assembly tree of the paper's TWOTONE model (Table 1), then
//! runs the simulated asynchronous multifrontal factorization on 16
//! processes under each of the paper's mechanisms, printing the quantities
//! the paper studies.

use loadex::core::MechKind;
use loadex::solver::{run, SolverConfig, Strategy};
use loadex::sparse::models::by_name;

fn main() {
    // 1. A problem: the calibrated assembly tree of TWOTONE.
    let model = by_name("TWOTONE").expect("a paper model");
    println!(
        "problem: {} ({}), n = {}, nnz = {}",
        model.name, model.description, model.order, model.nnz
    );
    let tree = &model.build_tree();
    println!(
        "assembly tree: {} fronts, height {}, {:.2e} flops\n",
        tree.len(),
        tree.height(),
        tree.total_flops()
    );

    // 2. Factorize under each mechanism.
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}",
        "mechanism", "time (s)", "state msgs", "mem peak (M)", "decisions"
    );
    for mech in MechKind::EXTENDED {
        let cfg = SolverConfig::new(16)
            .with_mechanism(mech)
            .with_strategy(Strategy::WorkloadBased);
        let report = run(tree, &cfg).unwrap();
        println!(
            "{:<12} {:>10.4} {:>12} {:>12.3} {:>10}",
            mech.name(),
            report.seconds(),
            report.state_msgs,
            report.mem_peak_millions(),
            report.decisions
        );
    }
    println!("\nExpected shape (the paper's conclusion): the snapshot mechanism");
    println!("exchanges far fewer messages but takes longer; increments is the");
    println!("practical default (MUMPS >= 4.3). The last two rows are this");
    println!("crate's extensions: a time-driven heartbeat and epidemic gossip.");
}

//! The assembly tree the integration tests run on.

use loadex::sparse::{models, AssemblyTree};

/// The calibrated tree of the paper's TWOTONE model (Table 1), the one
/// `tests/golden/` records: 964 fronts, the fewest of any paper model with
/// dynamic decisions at four processes.
pub fn twotone() -> AssemblyTree {
    models::by_name("TWOTONE")
        .expect("TWOTONE is a paper model")
        .build_tree()
}

//! Property test of the assembly tree's CSR child index against the parent
//! array it is built from.

use loadex_sparse::{AssemblyTree, Symmetry};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For a random topologically numbered forest, `children(v)` lists
    /// exactly the nodes whose parent is `v`, in increasing order, `roots`
    /// lists the parentless nodes, and `validate` accepts the tree.
    #[test]
    fn children_match_the_parent_array(
        picks in prop::collection::vec((any::<bool>(), any::<u32>()), 1..60),
    ) {
        let n = picks.len();
        let specs: Vec<(Option<u32>, u32, u32)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(linked, r))| {
                let above = n - 1 - i;
                let parent = (linked && above > 0).then(|| (i + 1 + r as usize % above) as u32);
                (parent, 4, 2)
            })
            .collect();
        let tree = AssemblyTree::from_parents(Symmetry::Unsymmetric, &specs);
        tree.validate();
        for v in 0..n as u32 {
            let want: Vec<u32> = (0..n as u32)
                .filter(|&c| specs[c as usize].0 == Some(v))
                .collect();
            prop_assert_eq!(tree.children(v as usize), &want[..]);
        }
        let roots: Vec<u32> = (0..n as u32)
            .filter(|&v| specs[v as usize].0.is_none())
            .collect();
        prop_assert_eq!(tree.roots(), &roots[..]);
    }
}

//! Figure 2 of the paper: how a multifrontal assembly tree is distributed
//! over four processors — leaf subtrees, sequential Type 1 nodes, 1D-parallel
//! Type 2 nodes (master + dynamic slaves) and the 2D-cyclic Type 3 root.
//!
//! ```text
//! cargo run --example tree_distribution
//! ```

use loadex::solver::mapping::{plan, MappingParams, NodeType};
use loadex::solver::SolverConfig;
use loadex::sparse::models::by_name;

fn main() {
    let nprocs = 4;
    let tree = by_name("TWOTONE").expect("a paper model").build_tree();
    // The mapping `tables --figure 2` draws: the default configuration with
    // Type 2 fronts from order 300 up.
    let mut cfg = SolverConfig::new(nprocs);
    cfg.type2_min_front = 300;
    let p = plan(&tree, nprocs, MappingParams::from(&cfg));
    p.validate(&tree);

    println!(
        "TWOTONE -> assembly tree with {} fronts on {} processors\n",
        tree.len(),
        nprocs
    );

    // Render the upper tree as an indented outline rooted at each root.
    fn render(
        tree: &loadex::sparse::AssemblyTree,
        p: &loadex::solver::TreePlan,
        v: usize,
        depth: usize,
    ) {
        let pad = "  ".repeat(depth);
        let node = &tree.nodes[v];
        match p.ntype[v] {
            NodeType::Type3 => println!(
                "{pad}[{v}] Type 3  front={} (2D cyclic over all processors)",
                node.nfront
            ),
            NodeType::Type2 => println!(
                "{pad}[{v}] Type 2  front={} npiv={} master=P{} (slaves chosen dynamically)",
                node.nfront, node.npiv, p.owner[v]
            ),
            NodeType::Type1 => println!(
                "{pad}[{v}] Type 1  front={} on P{}",
                node.nfront, p.owner[v]
            ),
            NodeType::SubtreeRoot => {
                println!(
                    "{pad}[{v}] SUBTREE ({} fronts, {:.1e} flops) on P{}",
                    subtree_size(tree, v),
                    p.subtree_task_flops[v],
                    p.owner[v]
                );
                return; // collapsed: do not descend
            }
            NodeType::InSubtree => return,
        }
        for &c in tree.children(v).iter().rev() {
            render(tree, p, c as usize, depth + 1);
        }
    }

    fn subtree_size(tree: &loadex::sparse::AssemblyTree, root: usize) -> usize {
        let mut n = 0;
        let mut stack = vec![root as u32];
        while let Some(v) = stack.pop() {
            n += 1;
            stack.extend_from_slice(tree.children(v as usize));
        }
        n
    }

    for &r in tree.roots() {
        render(&tree, &p, r as usize, 0);
    }

    println!("\nsummary:");
    println!("  dynamic decisions (Type 2 nodes): {}", p.n_decisions);
    for q in 0..nprocs {
        let subtrees = p.subtrees_of(q as u32).len();
        let masters = p.masters_per_proc[q];
        println!(
            "  P{q}: {subtrees} leaf subtree(s), master of {masters} Type 2 node(s), initial load {:.2e} flops",
            p.init_work[q]
        );
    }
}

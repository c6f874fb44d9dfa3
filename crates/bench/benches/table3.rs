//! Table 3 bench: static classification / decision counting across the
//! paper's problem set and processor counts.

use criterion::{criterion_group, criterion_main, Criterion};
use loadex_bench::config_for;
use loadex_solver::mapping::{self, MappingParams};
use loadex_sparse::models::paper_matrices;

fn params(np: usize) -> MappingParams {
    MappingParams::from(&config_for(np))
}

fn bench(c: &mut Criterion) {
    let trees: Vec<_> = paper_matrices().iter().map(|m| m.build_tree()).collect();
    c.bench_function("table3/classify_all_matrices_3_proc_counts", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for t in &trees {
                for np in [32usize, 64, 128] {
                    total += mapping::plan(t, np, params(np)).n_decisions;
                }
            }
            total
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

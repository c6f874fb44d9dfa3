//! Regenerate the paper's tables and figures.
//!
//! ```text
//! tables --all            # every deterministic table and figure (~2 s)
//! tables --table 3        # one table
//! tables --figure 1       # one figure
//! tables --ablations      # NoMoreMaster / latency / threshold ablations
//! tables --accuracy       # just the accuracy-vs-message-cost table
//! tables --threaded       # the §4.5 real-thread backend table (wall clock)
//! tables --quick          # everything at reduced processor counts (smoke test);
//!                         # combined with a selection, that selection only
//! ```
//!
//! Every table but `--threaded` comes from the deterministic simulator, so
//! `tables --all` reproduces `tables_output.txt` byte for byte. The §4.5
//! table runs real OS threads and sleeps through virtualized compute: its
//! numbers vary from run to run, and it is printed only when asked for.

use loadex_bench as bench;
use loadex_solver::ThreadedBackend;
use std::ops::RangeInclusive;

/// Parse the number after `flag` (one of `valid`), or report it and exit
/// with status 2.
fn select(flag: &str, value: Option<&String>, valid: RangeInclusive<u32>) -> u32 {
    let Some(value) = value else {
        eprintln!("missing value after {flag}");
        std::process::exit(2);
    };
    match value.parse() {
        Ok(n) if valid.contains(&n) => n,
        _ => {
            eprintln!(
                "invalid value {value:?} for {flag}: expected {}-{}",
                valid.start(),
                valid.end()
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which_table: Option<u32> = None;
    let mut which_figure: Option<u32> = None;
    let mut all = false;
    let mut quick = false;
    let mut ablations = false;
    let mut accuracy = false;
    let mut threaded = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--quick" => quick = true,
            "--ablations" => ablations = true,
            "--accuracy" => accuracy = true,
            "--threaded" => threaded = true,
            "--table" => which_table = Some(select(a, it.next(), 1..=7)),
            "--figure" => which_figure = Some(select(a, it.next(), 1..=2)),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: tables [--all] [--quick] [--ablations] [--accuracy] [--threaded] [--table N] [--figure N]"
                );
                std::process::exit(2);
            }
        }
    }
    // No selection means everything (at the reduced counts under `--quick`).
    let selected =
        which_table.is_some() || which_figure.is_some() || ablations || accuracy || threaded;
    all |= !selected;
    let (p_small, p_large): (Vec<usize>, Vec<usize>) = if quick {
        (vec![8], vec![16])
    } else {
        (vec![32, 64], vec![64, 128])
    };

    let small = bench::small_set();
    let large = bench::large_set();

    let want = |n: u32| all || which_table == Some(n);
    if want(1) || want(2) {
        println!("{}", bench::table1_2().render());
    }
    if want(3) {
        println!("{}", bench::table3().render());
    }
    if want(4) {
        for &np in &p_small {
            println!("{}", bench::table4(np, &small).render());
        }
    }
    if want(5) {
        for &np in &p_large {
            println!("{}", bench::table5(np, &large).render());
        }
    }
    if want(6) {
        for &np in &p_large {
            println!("{}", bench::table6(np, &large).render());
        }
    }
    if want(7) {
        for &np in &p_large {
            println!("{}", bench::table7(np, &large).render());
        }
    }
    let wantf = |n: u32| all || which_figure == Some(n);
    if wantf(1) {
        println!("== Figure 1: naive-mechanism coherence problem ==");
        println!("{}", bench::figure1());
    }
    if wantf(2) {
        println!("{}", bench::figure2().render());
    }
    if accuracy && !(ablations || all) {
        let np = if quick { 16 } else { 64 };
        println!("{}", bench::accuracy_vs_cost(np, &large[0]).render());
    }
    if ablations || all {
        let np = if quick { 16 } else { 64 };
        println!("{}", bench::ablation_nomaster(np, &large).render());
        println!("{}", bench::ablation_latency(np, &large[..1]).render());
        println!("{}", bench::ablation_threshold(np, &large[0]).render());
        println!("{}", bench::ablation_coherence(np, &large[0]).render());
        println!("{}", bench::accuracy_vs_cost(np, &large[0]).render());
        println!("{}", bench::ablation_leader(np, &large[0]).render());
        println!(
            "{}",
            bench::ablation_partial_snapshot(np, &large[0]).render()
        );
        println!("{}", bench::extended_comparison(np, &large[0]).render());
        println!("{}", bench::ablation_chunk(np, &large[2]).render());
        println!("{}", bench::ablation_scalability(&large[2]).render());
        println!("{}", bench::ablation_heterogeneous(np, &large[2]).render());
    }
    if threaded {
        // Real threads: 8 processes at any size — this one spawns 2 OS
        // threads per process. `--quick` compresses wall time 20× further,
        // for a smoke test only: the comm thread's fixed poll period then
        // costs 20× more simulated time.
        let mut backend = ThreadedBackend::new();
        if quick {
            backend = backend.with_time_scale(backend.time_scale / 20.0);
        }
        println!(
            "{}",
            bench::threaded_backend_comparison(8, &large[0], backend).render()
        );
    }
}

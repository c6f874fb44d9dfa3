//! Visualize what the snapshot mechanism costs: an ASCII Gantt chart of
//! every process's activity (busy / snapshot-blocked / idle) under the
//! increments and the snapshot mechanisms on the same problem, derived from
//! the typed protocol-event stream of the observability layer.
//!
//! ```text
//! cargo run --release --example gantt [nprocs] [trace.json]
//! ```
//!
//! With a second argument, the snapshot-mechanism run is also exported as a
//! Chrome `trace_event` file — open it in `chrome://tracing` or
//! <https://ui.perfetto.dev> to zoom into individual tasks, snapshot
//! intervals, and decision markers.

use loadex::core::MechKind;
use loadex::obs::span::{render_gantt, spans_from_events};
use loadex::obs::{chrome, Recorder};
use loadex::solver::{run_observed, SolverConfig};
use loadex::sparse::models::by_name;
use std::fs::File;
use std::io::{BufWriter, Write};

fn main() {
    let nprocs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(12);
    let trace_path = std::env::args().nth(2);
    let tree = by_name("TWOTONE").unwrap().build_tree();
    for mech in [MechKind::Increments, MechKind::Snapshot] {
        let cfg = SolverConfig::new(nprocs).with_mechanism(mech);
        let rec = Recorder::enabled();
        let r = run_observed(&tree, &cfg, rec.clone()).unwrap();
        let events = rec.take();
        println!(
            "== {} — {:.2} s, {} decisions, {} state messages, {} events ==",
            mech.name(),
            r.seconds(),
            r.decisions,
            r.state_msgs,
            events.len()
        );
        let spans = spans_from_events(&events, nprocs, r.factor_time);
        println!("{}", render_gantt(&spans, r.factor_time, 100));
        if mech == MechKind::Snapshot {
            println!(
                "snapshot union time {:.2} s, max {} concurrent\n",
                r.snapshot_union_time.as_secs_f64(),
                r.snapshot_max_concurrent
            );
            if let Some(path) = &trace_path {
                let written = File::create(path).and_then(|f| {
                    let mut w = BufWriter::new(f);
                    chrome::write_to(&events, &mut w)?;
                    w.flush()
                });
                match written {
                    Ok(()) => println!("wrote Chrome trace to {path} (open in chrome://tracing)"),
                    Err(e) => eprintln!("cannot write {path}: {e}"),
                }
            }
        }
    }
    println!("The 'S' bands are the §3 synchronization cost: during every");
    println!("snapshot all processes sit in the receive loop (Table 5's gap).");
}

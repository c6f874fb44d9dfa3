//! Run a single factorization experiment with explicit knobs.
//!
//! ```text
//! run --matrix AUDIKW_1 --procs 64 --mech snapshot --strategy workload \
//!     [--backend {sim|threaded}] [--comm-thread {on|off}] \
//!     [--time-scale X] [--wall-timeout-s N] \
//!     [--partial K] [--no-nomaster] [--chunk-ms N] \
//!     [--latency-us N] [--probe] \
//!     [--trace-out FILE] [--metrics-out FILE] [--events-out FILE] \
//!     [--accuracy-out FILE] [--audit]
//! ```
//!
//! `--backend threaded` executes on real OS threads (one per process) instead
//! of the discrete-event simulator; `--time-scale` and `--wall-timeout-s`
//! tune it. `--comm-thread on|off` sets the one §4.5 switch,
//! `CommMode::CommThread`, which both backends read: the sim swaps its
//! single-threaded main loop for a *modeled* comm thread, the threaded
//! backend starts a real comm thread per process. Either polls the state
//! channel every 50 µs. It defaults to `off` on the sim and `on` on the
//! threaded backend.
//!
//! The three `--*-out` flags attach the observability layer and write,
//! respectively, a Chrome `trace_event` JSON (open in `chrome://tracing` or
//! <https://ui.perfetto.dev>), the full run report + metrics registry as
//! JSON, and the raw protocol-event stream as JSONL.
//!
//! `--probe` attaches the view-accuracy probe (ground-truth vs. believed
//! views, decision-time error, staleness, decision regret), sampling its
//! time series every 500 ms of simulated time, and prints its summary;
//! `--accuracy-out` does the same and also writes the report as JSON.
//! `--audit` records the protocol-event stream and checks it against the
//! strict protocol invariants (`loadex_obs::ProtocolAuditor`); any
//! violation is printed and fails the run with a non-zero exit status, as
//! does a stream the recorder had to truncate (the audit would check an
//! incomplete history).

use loadex_bench::config_for;
use loadex_core::MechKind;
use loadex_obs::{chrome, jsonl, ProtocolAuditor, Recorder};
use loadex_sim::SimDuration;
use loadex_solver::{run_observed, CommMode, ExecBackend, Strategy, ThreadedBackend};
use loadex_sparse::models::by_name;
use serde::Serialize;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::str::FromStr;
use std::time::Duration;

/// Parse the value of a numeric flag, or report it and exit with status 2.
fn num<T: FromStr>(flag: &str, value: &str) -> T
where
    T::Err: std::fmt::Display,
{
    value.parse().unwrap_or_else(|e| {
        eprintln!("invalid value {value:?} for {flag}: {e}");
        std::process::exit(2);
    })
}

/// Write one output file through a buffered writer, or report the failure
/// and exit with status 1.
fn write_file(path: &str, what: &str, render: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
    let result = File::create(path).and_then(|f| {
        let mut w = BufWriter::new(f);
        render(&mut w)?;
        w.flush()
    });
    if let Err(e) = result {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {what} to {path}");
}

fn main() {
    let mut matrix = "TWOTONE".to_string();
    let mut procs = 16usize;
    let mut mech = MechKind::Increments;
    let mut strategy = Strategy::WorkloadBased;
    let mut backend_threaded = false;
    let mut comm_thread: Option<bool> = None;
    let mut time_scale: Option<f64> = None;
    let mut wall_timeout_s: Option<u64> = None;
    let mut partial: Option<usize> = None;
    let mut nomaster = true;
    let mut chunk_ms: Option<u64> = None;
    let mut latency_us: Option<u64> = None;
    let mut probe = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut accuracy_out: Option<String> = None;
    let mut audit = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value after {a}");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--matrix" => matrix = next(),
            "--procs" => procs = num(a, &next()),
            "--mech" => {
                mech = match next().as_str() {
                    "naive" => MechKind::Naive,
                    "increments" => MechKind::Increments,
                    "snapshot" => MechKind::Snapshot,
                    "periodic" => MechKind::Periodic,
                    "gossip" => MechKind::Gossip,
                    other => {
                        eprintln!("unknown mechanism {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--strategy" => {
                strategy = match next().as_str() {
                    "memory" => Strategy::MemoryBased,
                    "workload" => Strategy::WorkloadBased,
                    other => {
                        eprintln!("unknown strategy {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--backend" => match next().as_str() {
                "sim" => backend_threaded = false,
                "threaded" => backend_threaded = true,
                other => {
                    eprintln!("unknown backend {other} (sim|threaded)");
                    std::process::exit(2);
                }
            },
            "--comm-thread" => {
                comm_thread = Some(match next().as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("invalid value {other:?} for --comm-thread (on|off)");
                        std::process::exit(2);
                    }
                })
            }
            "--time-scale" => time_scale = Some(num(a, &next())),
            "--wall-timeout-s" => wall_timeout_s = Some(num(a, &next())),
            "--partial" => partial = Some(num(a, &next())),
            "--no-nomaster" => nomaster = false,
            "--chunk-ms" => chunk_ms = Some(num(a, &next())),
            "--latency-us" => latency_us = Some(num(a, &next())),
            "--probe" => probe = true,
            "--trace-out" => trace_out = Some(next()),
            "--metrics-out" => metrics_out = Some(next()),
            "--events-out" => events_out = Some(next()),
            "--accuracy-out" => accuracy_out = Some(next()),
            "--audit" => audit = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: run --matrix NAME --procs N --mech {{naive|increments|snapshot|periodic|gossip}} \
                     --strategy {{memory|workload}} [--backend {{sim|threaded}}] \
                     [--comm-thread {{on|off}}] [--time-scale X] [--wall-timeout-s N] \
                     [--partial K] [--no-nomaster] \
                     [--chunk-ms N] [--latency-us N] [--probe] \
                     [--trace-out FILE] [--metrics-out FILE] [--events-out FILE] \
                     [--accuracy-out FILE] [--audit]\n\n\
                     --comm-thread sets the one comm-thread switch (CommMode) that both \
                     backends read: a modeled thread on the sim, a real one per process on \
                     threaded, polling the state channel every 50 us. Default: off on the \
                     sim, on on threaded."
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let Some(model) = by_name(&matrix) else {
        eprintln!("unknown matrix {matrix}; known:");
        for m in loadex_sparse::paper_matrices() {
            eprintln!("  {}", m.name);
        }
        std::process::exit(2);
    };

    // The comm thread is on by default on real threads, off on the sim.
    let comm_thread = comm_thread.unwrap_or(backend_threaded);
    let mut cfg = config_for(procs)
        .with_mechanism(mech)
        .with_strategy(strategy);
    if comm_thread {
        cfg = cfg.with_comm(CommMode::CommThread);
    }
    if backend_threaded {
        let mut t = ThreadedBackend::new();
        if let Some(s) = time_scale {
            t = t.with_time_scale(s);
        }
        if let Some(s) = wall_timeout_s {
            t = t.with_wall_timeout(Duration::from_secs(s));
        }
        cfg = cfg.with_backend(ExecBackend::Threaded(t));
    }
    cfg.snapshot_candidates = partial;
    cfg.no_more_master = nomaster;
    if let Some(ms) = chunk_ms {
        cfg.task_chunk = SimDuration::from_millis(ms);
    }
    if let Some(us) = latency_us {
        cfg.network.latency = SimDuration::from_micros(us);
    }
    if probe || accuracy_out.is_some() {
        cfg = cfg.with_accuracy(true);
        cfg.coherence_probe = Some(SimDuration::from_millis(500));
    }

    let tree = model.build_tree();
    eprintln!(
        "running {} on {procs} procs: {} / {}{}{}{}",
        model.name,
        mech.name(),
        strategy.name(),
        if backend_threaded {
            " / threaded backend"
        } else {
            ""
        },
        if comm_thread {
            " / comm thread"
        } else {
            " / main loop"
        },
        partial
            .map(|k| format!(" / partial({k})"))
            .unwrap_or_default(),
    );
    // Attach the observability layer only when some output asks for events;
    // a disabled recorder keeps the run on the zero-cost path.
    let observe = trace_out.is_some() || metrics_out.is_some() || events_out.is_some() || audit;
    let rec = if observe {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let r = match run_observed(&tree, &cfg, rec.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };

    let events = if observe { rec.take() } else { Vec::new() };
    if rec.dropped() > 0 {
        eprintln!(
            "warning: event log overflowed, {} oldest events dropped",
            rec.dropped()
        );
    }
    if let Some(path) = &trace_out {
        write_file(path, "Chrome trace", |w| chrome::write_to(&events, w));
    }
    if let Some(path) = &events_out {
        write_file(path, "event JSONL", |w| jsonl::write_to(&events, w));
    }
    if let Some(path) = &metrics_out {
        write_file(path, "run metrics", |w| w.write_all(r.to_json().as_bytes()));
    }
    if let Some(path) = &accuracy_out {
        let acc = r.accuracy.as_ref().expect("accuracy was enabled");
        write_file(path, "accuracy report", |w| {
            w.write_all(acc.to_json().as_bytes())
        });
    }
    let audit_failed = if audit && rec.dropped() > 0 {
        eprintln!(
            "audit: stream truncated, {} events dropped; not auditing an incomplete stream \
             (record fewer events: a smaller --procs or matrix)",
            rec.dropped()
        );
        true
    } else if audit {
        let report = ProtocolAuditor::strict().audit(&events);
        if report.is_clean() {
            eprintln!("audit: {} events, 0 violations (strict)", report.events);
            false
        } else {
            for v in &report.violations {
                eprintln!("audit violation: {v}");
            }
            eprintln!(
                "audit: {} events, {} violations (strict)",
                report.events,
                report.violations.len()
            );
            true
        }
    } else {
        false
    };

    println!("backend            : {}", r.backend);
    println!("factorization time : {:.2} s", r.seconds());
    println!("dynamic decisions  : {}", r.decisions);
    println!("state messages     : {}", r.state_msgs);
    println!("state bytes        : {}", r.state_bytes);
    println!("app messages       : {}", r.app_msgs);
    println!(
        "memory peak        : {:.3} M entries",
        r.mem_peak_millions()
    );
    println!("efficiency         : {:.1} %", r.efficiency() * 100.0);
    if mech == MechKind::Snapshot {
        println!(
            "snapshot time      : {:.2} s (union)",
            r.snapshot_union_time.as_secs_f64()
        );
        println!("snapshot concur.   : {}", r.snapshot_max_concurrent);
        println!("snapshots started  : {}", r.snapshots_started);
    }
    if let Some(acc) = &r.accuracy {
        let s = &acc.summary;
        println!(
            "view error (time)  : mean {:.3e} / max {:.3e} work units",
            s.mean_abs_err_work, s.max_abs_err_work
        );
        println!(
            "view error (decis.): mean {:.3e} / max {:.3e} work units",
            s.mean_decision_err_work, s.max_decision_err_work
        );
        println!(
            "staleness          : mean {:.3} s / max {:.3} s",
            s.mean_staleness_s, s.max_staleness_s
        );
        println!(
            "decision regret    : {} / {} decisions, gap mean {:.3e} / max {:.3e}",
            s.regrets, s.decisions, s.mean_regret_gap, s.max_regret_gap
        );
    }
    if audit_failed {
        std::process::exit(1);
    }
}

//! The four workloads, their timed sections, and their output checks.

use crate::reference::{self, Fingerprint};
use crate::{probes, traced, Outcome, Values};
use loadex_bench as bench;
use loadex_core::MechKind;
use loadex_obs::{chrome, jsonl, ProtocolAuditor, Recorder};
use loadex_sim::SimRng;
use loadex_solver::engine::Ev;
use loadex_solver::{CommMode, RunReport, Runtime, SolverConfig, Strategy};
use loadex_sparse::models::{by_name, paper_matrices, MatrixModel};
use loadex_sparse::AssemblyTree;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up builds its trees at least `SETUP_PASSES` times and for at least
/// `SETUP_TIME` before the first timed pass, then for `SETUP_SLICE` after
/// each one, and reports the fastest pass. Spreading the passes over the run
/// gives it more chances to meet a quiet spell on the host.
const SETUP_PASSES: usize = 5;
const SETUP_TIME: Duration = Duration::from_millis(500);
const SETUP_SLICE: Duration = Duration::from_millis(200);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperTables,
    IncrP512,
    SnapP1024,
    ObservedP128,
}

/// `Full` is the benchmark; `Tiny` runs every code path on small inputs
/// for the self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Tiny,
}

/// One solver run of a single-run workload.
#[derive(Clone, Copy, Debug)]
struct Run {
    matrix: &'static str,
    nprocs: usize,
    mech: MechKind,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::IncrP512,
        Workload::SnapP1024,
        Workload::ObservedP128,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper-tables",
            Workload::IncrP512 => "incr-p512",
            Workload::SnapP1024 => "snap-p1024",
            Workload::ObservedP128 => "observed-p128",
        }
    }

    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperTables => {
                "the 90 short solver runs at P=32-128 behind tables --table 3..7: per-run fixed \
                 costs (tree build, plan, world set-up) and the serial row loop weigh most"
            }
            Workload::IncrP512 => {
                "one CONV3D64 increments run at P=512 (10.4M state msgs): broadcast fan-out, \
                 TaskDone and State handlers and the event calendar dominate"
            }
            Workload::SnapP1024 => {
                "one CONV3D64 snapshot run at P=1024: State handling on the snapshot path \
                 dominates, no delta fan-out; O(P^2) world set-up"
            }
            Workload::ObservedP128 => {
                "CONV3D64 at P=128, increments then snapshot, with recorder and accuracy probe \
                 on, strict audit and JSONL/Chrome export: the observability layer"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn runs(self, scale: Scale) -> Vec<Run> {
        let (matrix, small) = match scale {
            Scale::Full => ("CONV3D64", None),
            Scale::Tiny => ("TWOTONE", Some(8)),
        };
        let run = |nprocs: usize, mech| Run {
            matrix,
            nprocs: small.unwrap_or(nprocs),
            mech,
        };
        match self {
            Workload::PaperTables => Vec::new(),
            Workload::IncrP512 => vec![run(512, MechKind::Increments)],
            Workload::SnapP1024 => vec![run(1024, MechKind::Snapshot)],
            Workload::ObservedP128 => {
                vec![run(128, MechKind::Increments), run(128, MechKind::Snapshot)]
            }
        }
    }

    /// The matrices whose assembly trees set-up builds.
    fn models(self, scale: Scale) -> Vec<MatrixModel> {
        match self {
            Workload::PaperTables => paper_matrices(),
            _ => {
                let mut names: Vec<&str> = self.runs(scale).iter().map(|r| r.matrix).collect();
                names.dedup();
                names
                    .into_iter()
                    .map(|n| by_name(n).expect("a paper matrix"))
                    .collect()
            }
        }
    }

    /// Process count of the unit-cost probes: the workload's largest.
    fn unit_nprocs(self, scale: Scale) -> usize {
        match (self, scale) {
            (_, Scale::Tiny) => 8,
            (Workload::PaperTables, _) => 128,
            _ => self.runs(scale).iter().map(|r| r.nprocs).max().unwrap_or(8),
        }
    }
}

fn observed(w: Workload) -> bool {
    w == Workload::ObservedP128
}

fn config(run: &Run, observed: bool) -> SolverConfig {
    SolverConfig::new(run.nprocs)
        .with_mechanism(run.mech)
        .with_accuracy(observed)
}

fn label(run: &Run) -> String {
    format!("{} P={} {}", run.matrix, run.nprocs, run.mech)
}

fn seconds(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Build every tree of `models` at least `min_passes` times and for at
/// least `time`, adding each pass's seconds to `passes`; return the trees.
fn setup(
    models: &[MatrixModel],
    min_passes: usize,
    time: Duration,
    passes: &mut Vec<f64>,
) -> Vec<AssemblyTree> {
    let mut trees = Vec::new();
    let begin = Instant::now();
    for pass in 0.. {
        if pass >= min_passes && begin.elapsed() >= time {
            break;
        }
        let start = Instant::now();
        trees = models.iter().map(|m| m.build_tree()).collect();
        passes.push(seconds(start.elapsed()));
    }
    trees
}

fn tree_for<'a>(
    models: &[MatrixModel],
    trees: &'a [AssemblyTree],
    matrix: &str,
) -> &'a AssemblyTree {
    let i = models
        .iter()
        .position(|m| m.name == matrix)
        .expect("set-up built this matrix");
    &trees[i]
}

fn check_fingerprint(outcome: &mut Outcome, run: &Run, report: &RunReport) {
    let got = Fingerprint::of(report);
    match reference::fingerprint(run.matrix, run.nprocs, run.mech) {
        Some(want) => outcome.check(got == want, || {
            format!(
                "{}: fingerprint {got} differs from reference {want}",
                label(run)
            )
        }),
        None => outcome.check(false, || {
            format!("{}: no reference fingerprint", label(run))
        }),
    }
}

// ----- paper-tables ----------------------------------------------------------

/// One section of the `tables --table 3..7` printout.
struct TableCall {
    table: usize,
    make: Box<dyn Fn() -> bench::Table>,
}

fn table_calls(scale: Scale) -> Vec<TableCall> {
    let (p_small, p_large): (&[usize], &[usize]) = match scale {
        Scale::Full => (&[32, 64], &[64, 128]),
        Scale::Tiny => (&[8], &[16]),
    };
    let mut calls = vec![TableCall {
        table: 3,
        make: Box::new(bench::table3),
    }];
    for &np in p_small {
        calls.push(TableCall {
            table: 4,
            make: Box::new(move || bench::table4(np, &bench::small_set())),
        });
    }
    type TableFn = fn(usize, &[MatrixModel]) -> bench::Table;
    for (table, f) in [
        (5, bench::table5 as TableFn),
        (6, bench::table6),
        (7, bench::table7),
    ] {
        for &np in p_large {
            calls.push(TableCall {
                table,
                make: Box::new(move || f(np, &bench::large_set())),
            });
        }
    }
    calls
}

/// One solver run a Table 4–7 function makes, and the cell of the reference
/// printout its report must reproduce. The check ties this copy of the
/// tables' configurations to the tables themselves: a configuration that
/// drifts from what the table ran prints a different cell.
struct TableRun {
    matrix: &'static str,
    cfg: SolverConfig,
    table: usize,
    column: &'static str,
    cell: fn(&RunReport) -> String,
}

fn mem_cell(r: &RunReport) -> String {
    bench::table::f(r.mem_peak_millions())
}

fn time_cell(r: &RunReport) -> String {
    bench::table::f(r.seconds())
}

fn msgs_cell(r: &RunReport) -> String {
    r.state_msgs.to_string()
}

fn union_cell(r: &RunReport) -> String {
    bench::table::f(r.snapshot_union_time.as_secs_f64())
}

/// Every solver run the Table 4–7 functions make, in their order.
fn table_runs(scale: Scale) -> Vec<TableRun> {
    let (p_small, p_large): (&[usize], &[usize]) = match scale {
        Scale::Full => (&[32, 64], &[64, 128]),
        Scale::Tiny => (&[8], &[16]),
    };
    let mut out = Vec::new();
    let mut push = |matrix, cfg, table, column, cell| {
        out.push(TableRun {
            matrix,
            cfg,
            table,
            column,
            cell,
        })
    };
    let columns = [
        (MechKind::Increments, "incr"),
        (MechKind::Snapshot, "snap"),
        (MechKind::Naive, "naive"),
    ];
    for &np in p_small {
        for m in bench::small_set() {
            for (mech, column) in columns {
                let cfg = bench::config_for(np)
                    .with_mechanism(mech)
                    .with_strategy(Strategy::MemoryBased);
                push(m.name, cfg, 4, column, mem_cell as fn(&RunReport) -> String);
            }
        }
    }
    // Tables 5 and 6 each run the same pair of configurations.
    for (table, cell) in [(5, time_cell as fn(&RunReport) -> String), (6, msgs_cell)] {
        for &np in p_large {
            for m in bench::large_set() {
                for &(mech, column) in &columns[..2] {
                    push(
                        m.name,
                        bench::config_for(np).with_mechanism(mech),
                        table,
                        column,
                        cell,
                    );
                }
            }
        }
    }
    for &np in p_large {
        for m in bench::large_set() {
            for &(mech, column) in &columns[..2] {
                let cfg = bench::config_for(np)
                    .with_mechanism(mech)
                    .with_comm(CommMode::threaded_default());
                push(m.name, cfg, 7, column, time_cell);
            }
            let cfg = bench::config_for(np).with_mechanism(MechKind::Snapshot);
            push(m.name, cfg, 7, "snpT.1thr", union_cell);
        }
    }
    out
}

fn tables_reference(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => reference::TABLES_FULL,
        Scale::Tiny => reference::TABLES_TINY,
    }
}

/// Render every table section in a seed-chosen order, check each against
/// the reference, and return each section's table number and time, in
/// printout order.
fn tables_pass(scale: Scale, rng: &mut SimRng, outcome: &mut Outcome) -> Vec<(usize, Duration)> {
    let calls = table_calls(scale);
    let want = reference::sections(tables_reference(scale));
    assert_eq!(
        want.len(),
        calls.len(),
        "one reference section per table call"
    );
    let mut order: Vec<usize> = (0..calls.len()).collect();
    rng.shuffle(&mut order);
    let mut got: Vec<Option<String>> = vec![None; calls.len()];
    let mut times = vec![(0, Duration::ZERO); calls.len()];
    for i in order {
        let start = Instant::now();
        got[i] = catch_unwind(AssertUnwindSafe(|| (calls[i].make)().render())).ok();
        times[i] = (calls[i].table, start.elapsed());
    }
    for (i, want) in want.iter().enumerate() {
        let printed = got[i].as_ref().map(|s| format!("{s}\n"));
        outcome.check(printed.as_deref() == Some(*want), || {
            format!(
                "table {} section {i} differs from the reference:\n{}",
                calls[i].table,
                printed.as_deref().unwrap_or("(panicked)\n")
            )
        });
    }
    times
}

// ----- single runs and the observed pipeline -----------------------------------

/// Byte-counting `Write` sink: exporters run in full, nothing touches disk.
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Host time and output sizes of the observability layer.
#[derive(Default)]
struct ObsTotals {
    /// `run_observed` plus draining the recorder.
    run: Duration,
    events: u64,
    dropped: u64,
    audit: Duration,
    violations: u64,
    jsonl: Duration,
    jsonl_bytes: u64,
    chrome: Duration,
    chrome_bytes: u64,
}

fn plain_run(
    tree: &AssemblyTree,
    cfg: SolverConfig,
    recorder: Recorder,
) -> Result<RunReport, String> {
    Runtime::new(cfg)
        .map_err(|e| e.to_string())?
        .run_observed(tree, recorder)
        .map_err(|e| e.to_string())
}

/// An observed run: record, audit strictly, export JSONL and Chrome trace.
fn observed_run(
    tree: &AssemblyTree,
    run: &Run,
    outcome: &mut Outcome,
    obs: &mut ObsTotals,
) -> Option<RunReport> {
    let recorder = Recorder::enabled();
    let start = Instant::now();
    let result = plain_run(tree, config(run, true), recorder.clone());
    let dropped = recorder.dropped();
    let events = recorder.take();
    obs.run += start.elapsed();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            outcome.check(false, || format!("{}: {e}", label(run)));
            return None;
        }
    };
    obs.events += events.len() as u64;
    obs.dropped += dropped;

    let start = Instant::now();
    let audit = ProtocolAuditor::strict().audit(&events);
    obs.audit += start.elapsed();
    obs.violations += audit.violations.len() as u64;

    let mut sink = ByteCount(0);
    let start = Instant::now();
    let jsonl_ok = jsonl::write_to(&events, &mut sink).is_ok();
    obs.jsonl += start.elapsed();
    obs.jsonl_bytes += sink.0;

    let mut sink = ByteCount(0);
    let start = Instant::now();
    let chrome_ok = chrome::write_to(&events, &mut sink).is_ok();
    obs.chrome += start.elapsed();
    obs.chrome_bytes += sink.0;

    outcome.check(dropped == 0, || {
        format!("{}: recorder dropped {dropped} events", label(run))
    });
    outcome.check(jsonl_ok && chrome_ok, || {
        format!("{}: export failed", label(run))
    });
    // The snapshot run's strict audit reports known false overlaps; they
    // are counted in `obs.audit_violations`, not failed.
    if run.mech == MechKind::Increments {
        outcome.check(audit.is_clean(), || {
            format!("{}: strict audit found {:?}", label(run), audit.violations)
        });
    }
    check_fingerprint(outcome, run, &report);
    Some(report)
}

/// The timed section of a single-run workload: the time of each run, in
/// the workload's order.
fn solver_pass(
    w: Workload,
    runs: &[Run],
    models: &[MatrixModel],
    trees: &[AssemblyTree],
    outcome: &mut Outcome,
) -> Vec<Duration> {
    let mut times = vec![Duration::ZERO; runs.len()];
    for (i, run) in runs.iter().enumerate() {
        let tree = tree_for(models, trees, run.matrix);
        let start = Instant::now();
        if observed(w) {
            observed_run(tree, run, outcome, &mut ObsTotals::default());
        } else {
            match plain_run(tree, config(run, false), Recorder::disabled()) {
                Ok(report) => check_fingerprint(outcome, run, &report),
                Err(e) => outcome.check(false, || format!("{}: {e}", label(run))),
            }
        }
        times[i] = start.elapsed();
    }
    times
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether one more pass, as long as the mean pass so far, ends within
/// `budget` of `begin`. The first pass always runs.
fn another_fits(begin: Instant, passes: usize, budget: Duration) -> bool {
    if passes == 0 {
        return true;
    }
    let spent = begin.elapsed();
    spent + spent / passes as u32 <= budget
}

/// Tracing off: repeat the timed section for `budget` and report the
/// end-to-end metrics: the sum of each unit's fastest time, the fastest
/// set-up pass, and the process's peak resident set.
pub fn end_to_end(w: Workload, scale: Scale, seed: u64, budget: Duration) -> (Outcome, Values) {
    let mut outcome = Outcome::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let models = w.models(scale);
    let mut setup_passes = Vec::new();
    let trees = setup(&models, SETUP_PASSES, SETUP_TIME, &mut setup_passes);
    let mut runs = w.runs(scale);
    rng.shuffle(&mut runs);
    // A pass is a sequence of units (table sections or solver runs); `best`
    // holds each unit's fastest time so far.
    let mut best: Vec<f64> = Vec::new();
    let mut walls = Vec::new();
    let begin = Instant::now();
    while another_fits(begin, walls.len(), budget) {
        let units: Vec<f64> = match w {
            Workload::PaperTables => tables_pass(scale, &mut rng, &mut outcome)
                .into_iter()
                .map(|(_, d)| seconds(d))
                .collect(),
            _ => solver_pass(w, &runs, &models, &trees, &mut outcome)
                .into_iter()
                .map(seconds)
                .collect(),
        };
        walls.push(units.iter().sum::<f64>());
        if best.is_empty() {
            best = units;
        } else {
            best.iter_mut().zip(units).for_each(|(b, u)| *b = b.min(u));
        }
        setup(&models, 1, SETUP_SLICE, &mut setup_passes);
    }
    // Interference from other work on the host only ever adds time, and it
    // comes in spells of seconds, so each unit's fastest pass is the
    // steadiest estimate of its own cost; the same holds for set-up.
    let wall = best.iter().sum::<f64>();
    eprintln!(
        "perfbench: {}: {} passes, sum of fastest units {wall:.4} s, median pass {:.4} s",
        w.name(),
        walls.len(),
        crate::median(&mut walls)
    );
    let mut values = Values::new();
    values.insert("wall_s", wall);
    values.insert("setup_s", fastest(&setup_passes));
    values.insert("peak_rss_mb", peak_rss_mb());
    (outcome, values)
}

// ----- traced pass --------------------------------------------------------------

/// Tracing on: repeat the traced bundle for `budget` and report the median
/// of every per-layer metric.
pub fn per_layer(w: Workload, scale: Scale, seed: u64, budget: Duration) -> (Outcome, Values) {
    let mut outcome = Outcome::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut reps: Vec<Values> = Vec::new();
    let begin = Instant::now();
    while another_fits(begin, reps.len(), budget) {
        reps.push(traced_rep(w, scale, &mut rng, &mut outcome));
    }
    let mut values = Values::new();
    for &name in reps[0].keys() {
        let mut xs: Vec<f64> = reps.iter().map(|r| r[name]).collect();
        values.insert(name, crate::median(&mut xs));
    }
    (outcome, values)
}

fn traced_rep(w: Workload, scale: Scale, rng: &mut SimRng, outcome: &mut Outcome) -> Values {
    let mut v = Values::new();
    let models = w.models(scale);
    let start = Instant::now();
    let trees: Vec<AssemblyTree> = models.iter().map(|m| m.build_tree()).collect();
    v.insert("sparse.build_tree_s", seconds(start.elapsed()));

    let mut per_table = [Duration::ZERO; 5];
    if w == Workload::PaperTables {
        for (table, d) in tables_pass(scale, rng, outcome) {
            per_table[table - 3] += d;
        }
    }
    for (i, name) in [
        "bench.table3_s",
        "bench.table4_s",
        "bench.table5_s",
        "bench.table6_s",
        "bench.table7_s",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, seconds(per_table[i]));
    }

    // Every solver run of the workload, untraced then traced. For the
    // observed workload the untraced run is the full observed pipeline.
    let mut split = traced::Split::default();
    let mut obs = ObsTotals::default();
    let mut untraced = Duration::ZERO;
    let mut sim_s = 0.0;
    let mut counts = [0u64; 5];
    // What each run's report is checked against: a table cell of the
    // reference printout, or a recorded fingerprint.
    enum Check {
        Cell {
            table: usize,
            column: &'static str,
            cell: fn(&RunReport) -> String,
        },
        Fingerprint(Run),
    }
    let jobs: Vec<(&str, SolverConfig, Check)> = if w == Workload::PaperTables {
        table_runs(scale)
            .into_iter()
            .map(|t| {
                let check = Check::Cell {
                    table: t.table,
                    column: t.column,
                    cell: t.cell,
                };
                (t.matrix, t.cfg, check)
            })
            .collect()
    } else {
        w.runs(scale)
            .into_iter()
            .map(|r| (r.matrix, config(&r, observed(w)), Check::Fingerprint(r)))
            .collect()
    };
    v.insert(
        "bench.runs",
        if w == Workload::PaperTables {
            jobs.len() as f64
        } else {
            0.0
        },
    );
    for (matrix, cfg, check) in &jobs {
        let tree = tree_for(&models, &trees, matrix);
        let what = || format!("{matrix} P={} {}", cfg.nprocs, cfg.mechanism);
        let start = Instant::now();
        let plain = match check {
            Check::Fingerprint(run) if observed(w) => {
                observed_run(tree, run, outcome, &mut obs).ok_or(())
            }
            _ => plain_run(tree, cfg.clone(), Recorder::disabled())
                .map_err(|e| outcome.check(false, || format!("{}: {e}", what()))),
        };
        untraced += start.elapsed();
        let recorder = if observed(w) {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let traced = match traced::run(tree, cfg, recorder, &mut split) {
            Ok(r) => r,
            Err(e) => {
                outcome.check(false, || format!("{} traced: {e}", what()));
                continue;
            }
        };
        let Ok(plain) = plain else { continue };
        let (a, b) = (Fingerprint::of(&plain), Fingerprint::of(&traced));
        outcome.check(a == b, || format!("{}: traced {b} != untraced {a}", what()));
        match check {
            // The observed pipeline checked its fingerprint already.
            Check::Fingerprint(_) if observed(w) => {}
            Check::Fingerprint(run) => check_fingerprint(outcome, run, &plain),
            Check::Cell {
                table,
                column,
                cell,
            } => {
                let got = cell(&plain);
                let want =
                    reference::cell(tables_reference(scale), *table, cfg.nprocs, matrix, column);
                outcome.check(want == Some(got.as_str()), || {
                    format!(
                        "{}: Table {table} column {column} reads {got}, reference {want:?}",
                        what()
                    )
                });
            }
        }
        sim_s += traced.seconds();
        for (c, x) in counts.iter_mut().zip([
            traced.state_msgs,
            traced.state_bytes,
            traced.app_msgs,
            traced.decisions,
            traced.snapshots_started,
        ]) {
            *c += x;
        }
    }

    v.insert("mapping.plan_s", seconds(split.plan));
    v.insert("engine.world_new_s", seconds(split.world_new));
    v.insert("engine.report_s", seconds(split.report));
    v.insert("sim.loop_s", seconds(split.loop_wall));
    v.insert("sim.loop_self_s", seconds(split.loop_self()));
    v.insert("sim.ev_bytes", std::mem::size_of::<Ev>() as f64);
    v.insert("sim.events", split.events.iter().sum::<u64>() as f64);
    for (k, name) in [
        "sim.events.kick",
        "sim.events.state",
        "sim.events.app",
        "sim.events.task_done",
        "sim.events.poll",
        "sim.events.probe",
        "sim.events.mech_timer",
    ]
    .into_iter()
    .enumerate()
    {
        debug_assert!(name.ends_with(traced::KINDS[k]));
        v.insert(name, split.events[k] as f64);
    }
    for (k, name) in [
        "engine.kick_self_s",
        "engine.state_self_s",
        "engine.app_self_s",
        "engine.task_done_self_s",
        "engine.poll_self_s",
        "engine.probe_self_s",
        "engine.mech_timer_self_s",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, seconds(split.handle[k]));
    }
    v.insert(
        "engine.state_ns",
        ratio(split.handle[1].as_nanos() as f64, split.events[1] as f64),
    );

    let untraced_s = seconds(untraced);
    v.insert("solver.run_s", untraced_s);
    v.insert("solver.sim_s_per_wall_s", ratio(sim_s, untraced_s));
    for (i, name) in [
        "solver.state_msgs",
        "solver.state_bytes",
        "solver.app_msgs",
        "solver.decisions",
        "solver.snapshots_started",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, counts[i] as f64);
    }
    v.insert(
        "solver.ns_per_state_msg",
        ratio(untraced_s * 1e9, counts[0] as f64),
    );

    let (record_overhead, accuracy_overhead) = if observed(w) {
        obs_overheads(w, scale, &models, &trees, outcome)
    } else {
        (0.0, 0.0)
    };
    v.insert("obs.record_overhead_s", record_overhead);
    v.insert("obs.accuracy_overhead_s", accuracy_overhead);
    v.insert("obs.events", obs.events as f64);
    v.insert("obs.events_dropped", obs.dropped as f64);
    v.insert("obs.jsonl_s", seconds(obs.jsonl));
    v.insert("obs.jsonl_bytes", obs.jsonl_bytes as f64);
    v.insert("obs.chrome_s", seconds(obs.chrome));
    v.insert("obs.chrome_bytes", obs.chrome_bytes as f64);
    v.insert("obs.audit_s", seconds(obs.audit));
    v.insert("obs.audit_violations", obs.violations as f64);

    let p = w.unit_nprocs(scale);
    v.insert(
        "net.broadcast_ns_per_dest",
        probes::broadcast_ns_per_dest(p, rng),
    );
    v.insert("core.update_delta_ns", probes::update_delta_ns(p, rng));
    v.insert("core.local_change_ns", probes::local_change_ns(p, rng));
    v.insert("core.snapshot_round_us", probes::snapshot_round_us(p));
    v
}

/// Host seconds the recorder and the accuracy probe add to the observed
/// runs: the observed run minus the same configuration with the recorder
/// off, and minus it with the probe off, summed over the workload's runs.
fn obs_overheads(
    w: Workload,
    scale: Scale,
    models: &[MatrixModel],
    trees: &[AssemblyTree],
    outcome: &mut Outcome,
) -> (f64, f64) {
    let mut record = 0.0;
    let mut accuracy = 0.0;
    for run in w.runs(scale) {
        let tree = tree_for(models, trees, run.matrix);
        let mut time = |cfg: SolverConfig, recorder: Recorder| {
            let start = Instant::now();
            let result = plain_run(tree, cfg, recorder.clone());
            let t = seconds(start.elapsed());
            drop(recorder.take());
            if let Err(e) = result {
                outcome.check(false, || format!("{}: {e}", label(&run)));
            }
            t
        };
        let full = time(config(&run, true), Recorder::enabled());
        let no_recorder = time(config(&run, true), Recorder::disabled());
        let no_probe = time(config(&run, false), Recorder::enabled());
        record += full - no_recorder;
        accuracy += full - no_probe;
    }
    (record, accuracy)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Print the fingerprint of every single run at both scales, in the format
/// of `reference/fingerprints.txt`.
pub fn print_fingerprints() {
    let mut seen = Vec::new();
    for (w, scale) in Workload::ALL
        .into_iter()
        .flat_map(|w| [(w, Scale::Full), (w, Scale::Tiny)])
    {
        for run in w.runs(scale) {
            let key = (run.matrix, run.nprocs, run.mech);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let tree = by_name(run.matrix).expect("a paper matrix").build_tree();
            match plain_run(&tree, config(&run, false), Recorder::disabled()) {
                Ok(r) => println!(
                    "{} {} {} {}",
                    run.matrix,
                    run.nprocs,
                    run.mech,
                    Fingerprint::of(&r)
                ),
                Err(e) => eprintln!("{}: {e}", label(&run)),
            }
        }
    }
}

//! Reference outputs the benchmark checks every run against.
//!
//! The simulator is deterministic, so references compare exactly: a change
//! that only makes the program faster must leave all of them untouched.

use loadex_core::MechKind;
use loadex_solver::RunReport;
use std::fmt;

/// The Table 3–7 sections of `tables_output.txt`, as `tables --table N`
/// prints them at the paper's processor counts.
pub const TABLES_FULL: &str = include_str!("../reference/tables_3_7.txt");

/// The same sections as `tables --quick --table N` prints them.
pub const TABLES_TINY: &str = include_str!("../reference/tables_quick.txt");

/// Recorded run fingerprints, one line per `(matrix, nprocs, mechanism)`.
const FINGERPRINTS: &str = include_str!("../reference/fingerprints.txt");

/// The simulated outputs of one run that a pure speed-up must not move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fingerprint {
    pub factor_time_ns: u64,
    pub state_msgs: u64,
    pub state_bytes: u64,
    pub app_msgs: u64,
    pub decisions: u64,
    pub snapshots_started: u64,
    pub snapshot_union_ns: u64,
    pub mem_peak_entries: f64,
}

impl Fingerprint {
    pub fn of(r: &RunReport) -> Self {
        Fingerprint {
            factor_time_ns: r.factor_time.as_nanos(),
            state_msgs: r.state_msgs,
            state_bytes: r.state_bytes,
            app_msgs: r.app_msgs,
            decisions: r.decisions,
            snapshots_started: r.snapshots_started,
            snapshot_union_ns: r.snapshot_union_time.as_nanos(),
            mem_peak_entries: r.mem_peak_entries(),
        }
    }

    fn parse(fields: &[&str]) -> Option<Self> {
        let get = |key: &str| {
            fields
                .iter()
                .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        };
        let int = |key: &str| get(key)?.parse::<u64>().ok();
        Some(Fingerprint {
            factor_time_ns: int("factor_time_ns")?,
            state_msgs: int("state_msgs")?,
            state_bytes: int("state_bytes")?,
            app_msgs: int("app_msgs")?,
            decisions: int("decisions")?,
            snapshots_started: int("snapshots_started")?,
            snapshot_union_ns: int("snapshot_union_ns")?,
            mem_peak_entries: get("mem_peak_entries")?.parse().ok()?,
        })
    }
}

impl fmt::Display for Fingerprint {
    /// `f64` displays as its shortest exact round-trip form, so a printed
    /// fingerprint parses back to an equal one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "factor_time_ns={} state_msgs={} state_bytes={} app_msgs={} decisions={} \
             snapshots_started={} snapshot_union_ns={} mem_peak_entries={}",
            self.factor_time_ns,
            self.state_msgs,
            self.state_bytes,
            self.app_msgs,
            self.decisions,
            self.snapshots_started,
            self.snapshot_union_ns,
            self.mem_peak_entries
        )
    }
}

/// The recorded fingerprint of `matrix` on `nprocs` processes under `mech`
/// with the default configuration otherwise.
pub fn fingerprint(matrix: &str, nprocs: usize, mech: MechKind) -> Option<Fingerprint> {
    FINGERPRINTS.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [m, p, k, rest @ ..]
                if *m == matrix && p.parse() == Ok(nprocs) && *k == mech.name() =>
            {
                Fingerprint::parse(rest)
            }
            _ => None,
        }
    })
}

/// The cell in row `matrix`, column `column` of the Table `table` section
/// for `nprocs` processes of a `tables` printout.
pub fn cell<'a>(
    text: &'a str,
    table: usize,
    nprocs: usize,
    matrix: &str,
    column: &str,
) -> Option<&'a str> {
    let title = format!("== Table {table}:");
    let procs = format!(" {nprocs} procs ==");
    let section = sections(text).into_iter().find(|s| {
        s.lines()
            .next()
            .is_some_and(|t| t.starts_with(&title) && t.ends_with(&procs))
    })?;
    let mut lines = section.lines().skip(1);
    let index = lines.next()?.split_whitespace().position(|c| c == column)?;
    lines
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&matrix))?
        .get(index)
        .copied()
}

/// Split a `tables` printout into its sections, each starting at a `== `
/// title line and running up to the next one (trailing blank line included).
pub fn sections(text: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = text
        .match_indices("== ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .collect();
    starts.push(text.len());
    starts.windows(2).map(|w| &text[w[0]..w[1]]).collect()
}

//! Per-process activity spans reconstructed from the event stream.
//!
//! The solver emits [`ProtocolEvent::TaskStart`]/[`TaskEnd`] and
//! [`Blocked`]/[`Resumed`] events; this module folds them into
//! Busy/Blocked/Idle [`Span`]s per process — the §4.5 timeline view — and
//! renders them either as an ASCII Gantt chart or (via [`crate::chrome`])
//! as a Chrome trace.
//!
//! [`TaskEnd`]: ProtocolEvent::TaskEnd
//! [`Blocked`]: ProtocolEvent::Blocked
//! [`Resumed`]: ProtocolEvent::Resumed

use crate::event::{EventRecord, ProtocolEvent};
use loadex_sim::SimTime;

/// What a process is doing during a span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanState {
    /// Waiting for messages or work.
    Idle,
    /// Computing a task.
    Busy,
    /// Blocked in the exchange protocol (snapshot serialization).
    Blocked,
}

impl SpanState {
    /// Chrome/Gantt display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanState::Idle => "Idle",
            SpanState::Busy => "Busy",
            SpanState::Blocked => "Blocked",
        }
    }
}

/// A half-open interval `[start, end)` of constant activity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// What the process did during the span.
    pub state: SpanState,
}

/// Fold an event stream into per-process activity spans.
///
/// Protocol blocking wins over task execution (a process paused mid-task by
/// a snapshot shows Blocked, as in the engine's own accounting); a process
/// with an open task is Busy; otherwise Idle. Zero-length spans are
/// suppressed; adjacent same-state spans are merged.
pub fn spans_from_events(
    events: &[EventRecord],
    nprocs: usize,
    horizon: SimTime,
) -> Vec<Vec<Span>> {
    struct ProcState {
        spans: Vec<Span>,
        since: SimTime,
        task_depth: u32,
        blocked: bool,
    }

    impl ProcState {
        fn state(&self) -> SpanState {
            if self.blocked {
                SpanState::Blocked
            } else if self.task_depth > 0 {
                SpanState::Busy
            } else {
                SpanState::Idle
            }
        }

        fn transition(&mut self, now: SimTime, apply: impl FnOnce(&mut Self)) {
            let before = self.state();
            apply(self);
            let after = self.state();
            if before != after {
                push_span(&mut self.spans, self.since, now, before);
                self.since = now;
            }
        }
    }

    fn push_span(spans: &mut Vec<Span>, start: SimTime, end: SimTime, state: SpanState) {
        if end <= start {
            return;
        }
        if let Some(last) = spans.last_mut() {
            if last.state == state && last.end == start {
                last.end = end;
                return;
            }
        }
        spans.push(Span { start, end, state });
    }

    let mut procs: Vec<ProcState> = (0..nprocs)
        .map(|_| ProcState {
            spans: Vec::new(),
            since: SimTime::ZERO,
            task_depth: 0,
            blocked: false,
        })
        .collect();

    for rec in events {
        let Some(p) = procs.get_mut(rec.actor().index()) else {
            continue;
        };
        let time = rec.time();
        match rec.event() {
            ProtocolEvent::TaskStart { .. } => {
                p.transition(time, |p| p.task_depth += 1);
            }
            ProtocolEvent::TaskEnd { .. } => {
                p.transition(time, |p| p.task_depth = p.task_depth.saturating_sub(1));
            }
            ProtocolEvent::Blocked => {
                p.transition(time, |p| p.blocked = true);
            }
            ProtocolEvent::Resumed => {
                p.transition(time, |p| p.blocked = false);
            }
            _ => {}
        }
    }

    procs
        .into_iter()
        .map(|mut p| {
            let state = p.state();
            let since = p.since;
            push_span(&mut p.spans, since, horizon, state);
            p.spans
        })
        .collect()
}

/// Render per-process spans as an ASCII Gantt chart of `width` columns:
/// `#` busy, `S` blocked, `.` idle. Each column shows the state at its
/// midpoint instant.
pub fn render_gantt(procs: &[Vec<Span>], horizon: SimTime, width: usize) -> String {
    let total = horizon.as_nanos().max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "gantt: {} procs over {} ('#'=busy 'S'=snapshot-blocked '.'=idle)\n",
        procs.len(),
        horizon
    ));
    for (rank, spans) in procs.iter().enumerate() {
        let mut line = vec!['.'; width];
        for (b, c) in line.iter_mut().enumerate() {
            let t = SimTime(total * (2 * b as u64 + 1) / (2 * width as u64));
            let state = spans
                .iter()
                .find(|s| s.start <= t && t < s.end)
                .map_or(SpanState::Idle, |s| s.state);
            *c = match state {
                SpanState::Idle => '.',
                SpanState::Busy => '#',
                SpanState::Blocked => 'S',
            };
        }
        out.push_str(&format!("P{rank:<3} {}\n", line.iter().collect::<String>()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskKind;
    use loadex_sim::ActorId;

    fn rec(t: u64, p: usize, event: ProtocolEvent) -> EventRecord {
        EventRecord::new(SimTime(t), ActorId(p), event)
    }

    #[test]
    fn task_events_become_busy_spans() {
        let events = vec![
            rec(
                10,
                0,
                ProtocolEvent::TaskStart {
                    node: 1,
                    kind: TaskKind::Type2Master,
                },
            ),
            rec(30, 0, ProtocolEvent::TaskEnd { node: 1 }),
        ];
        let spans = spans_from_events(&events, 1, SimTime(50));
        assert_eq!(
            spans[0],
            vec![
                Span {
                    start: SimTime(0),
                    end: SimTime(10),
                    state: SpanState::Idle
                },
                Span {
                    start: SimTime(10),
                    end: SimTime(30),
                    state: SpanState::Busy
                },
                Span {
                    start: SimTime(30),
                    end: SimTime(50),
                    state: SpanState::Idle
                },
            ]
        );
    }

    #[test]
    fn blocking_overrides_busy() {
        let events = vec![
            rec(
                0,
                0,
                ProtocolEvent::TaskStart {
                    node: 1,
                    kind: TaskKind::Type2Master,
                },
            ),
            rec(10, 0, ProtocolEvent::Blocked),
            rec(20, 0, ProtocolEvent::Resumed),
            rec(40, 0, ProtocolEvent::TaskEnd { node: 1 }),
        ];
        let spans = spans_from_events(&events, 1, SimTime(40));
        assert_eq!(
            spans[0]
                .iter()
                .map(|s| (s.state, s.end.as_nanos() - s.start.as_nanos()))
                .collect::<Vec<_>>(),
            vec![
                (SpanState::Busy, 10),
                (SpanState::Blocked, 10),
                (SpanState::Busy, 20),
            ]
        );
    }

    #[test]
    fn other_events_do_not_open_spans() {
        let events = vec![rec(5, 0, ProtocolEvent::SnapshotStart { req: 1 })];
        let spans = spans_from_events(&events, 1, SimTime(10));
        assert_eq!(spans[0].len(), 1);
        assert_eq!(spans[0][0].state, SpanState::Idle);
    }

    #[test]
    fn gantt_renders_expected_glyphs() {
        let spans = vec![vec![
            Span {
                start: SimTime(0),
                end: SimTime(50),
                state: SpanState::Busy,
            },
            Span {
                start: SimTime(50),
                end: SimTime(100),
                state: SpanState::Blocked,
            },
        ]];
        let g = render_gantt(&spans, SimTime(100), 10);
        assert!(g.contains("P0   #####SSSSS"), "got:\n{g}");
    }
}

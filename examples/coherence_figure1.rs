//! Figure 1 of the paper: why the naive mechanism takes incoherent
//! decisions, and how the increment mechanism's reservation broadcast
//! (`MasterToAll`) fixes it.
//!
//! ```text
//! cargo run --example coherence_figure1
//! ```
//!
//! Sequence of the figure: P2 starts a costly task at `t1`; P0 performs a
//! slave selection at `t2` choosing P2; P1 performs another at `t3 < t4`
//! (the end of P2's task). Under the naive mechanism P1 cannot know about
//! P0's choice — P2 itself has not even received the work yet — so P1 piles
//! more work onto P2.

use loadex::core::{
    ChangeOrigin, IncrementMechanism, Load, Mechanism, NaiveMechanism, Outbox, StateMsg, Threshold,
};
use loadex::sim::ActorId;

fn main() {
    let n = 3;
    let thr = Threshold::new(1.0, 1.0);
    let (p0, p1, p2) = (ActorId(0), ActorId(1), ActorId(2));
    let mut out = Outbox::new();

    println!("--- naive mechanism (Algorithm 2) ---");
    let mut naive_p0 = NaiveMechanism::new(p0, n, thr);
    let naive_p1 = NaiveMechanism::new(p1, n, thr);
    // t1: P2 starts a costly task (it will not reach a receive point
    // before t4). t2: P0 selects P2 as slave for 100 units.
    naive_p0.complete_decision(&[(p2, Load::work(100.0))], &mut out);
    assert!(out.is_empty(), "naive sends no reservation broadcast");
    println!("t2: P0 -> P2: 100 units. Messages emitted by P0's mechanism: 0");
    // t3: P1 takes its own decision using its view.
    println!(
        "t3: P1's view of P2 = {} work units -> P1 selects P2 again (Figure 1's problem)",
        naive_p1.view().get(p2).work
    );

    println!("\n--- increment mechanism (Algorithm 3) ---");
    let mut inc_p0 = IncrementMechanism::new(p0, n, thr);
    let mut inc_p1 = IncrementMechanism::new(p1, n, thr);
    let mut inc_p2 = IncrementMechanism::new(p2, n, thr);
    // t2: P0's decision emits a MasterToAll reservation.
    inc_p0.complete_decision(&[(p2, Load::work(100.0))], &mut out);
    let reservations: Vec<StateMsg> = out.drain().map(|m| m.msg).collect();
    println!("t2: P0 -> all: {:?}", reservations[0].kind().name());
    // ... which P1 and P2 receive (P2 can receive it at its next receive
    // point; even if it is still busy, P1 already knows).
    for m in &reservations {
        inc_p1.on_state_msg(p0, m.clone(), &mut out);
        inc_p2.on_state_msg(p0, m.clone(), &mut out);
    }
    println!(
        "t3: P1's view of P2 = {} work units -> P1 avoids P2",
        inc_p1.view().get(p2).work
    );
    // t4: P2 finally processes the task message. Algorithm 3 line (1): the
    // positive slave delta is NOT re-applied or re-broadcast.
    inc_p2.on_local_change(Load::work(100.0), ChangeOrigin::SlaveTask, &mut out);
    println!(
        "t4: P2 processes the task; its own load is still {} (no double count), {} message(s) sent",
        inc_p2.view().my_load().work,
        out.len()
    );
    assert_eq!(inc_p1.view().get(p2).work, 100.0);
    assert_eq!(inc_p2.view().my_load().work, 100.0);
}

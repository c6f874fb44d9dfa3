//! The distributed load view.
//!
//! Every process keeps a [`LoadTable`]: its belief about the load of every
//! process in the system (including itself, which is always exact). The
//! quality of this view is precisely what the paper's three mechanisms trade
//! off against message traffic and synchronisation.

use crate::load::Load;
use loadex_sim::ActorId;

/// One process's view of the whole system's load.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadTable {
    me: ActorId,
    loads: Vec<Load>,
}

impl LoadTable {
    /// A zeroed view for `nprocs` processes as seen from `me`.
    pub fn new(me: ActorId, nprocs: usize) -> Self {
        assert!(me.index() < nprocs, "rank out of range");
        LoadTable {
            me,
            loads: vec![Load::ZERO; nprocs],
        }
    }

    /// The owning process.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.loads.len()
    }

    /// Believed load of process `p`.
    pub fn get(&self, p: ActorId) -> Load {
        self.loads[p.index()]
    }

    /// The owner's own (exact) load.
    pub fn my_load(&self) -> Load {
        self.loads[self.me.index()]
    }

    /// Overwrite the believed load of `p`.
    pub fn set(&mut self, p: ActorId, load: Load) {
        self.loads[p.index()] = load;
    }

    /// Add `delta` to the believed load of `p`.
    pub fn add(&mut self, p: ActorId, delta: Load) {
        self.loads[p.index()] += delta;
    }

    /// Iterate `(rank, believed load)` in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (ActorId, Load)> + '_ {
        self.loads.iter().enumerate().map(|(i, &l)| (ActorId(i), l))
    }

    /// Ranks other than the owner, in rank order (candidate slaves).
    pub fn others(&self) -> impl Iterator<Item = (ActorId, Load)> + '_ {
        let me = self.me;
        self.iter().filter(move |(p, _)| *p != me)
    }

    /// Total believed load over all processes.
    pub fn total(&self) -> Load {
        self.loads.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_add() {
        let mut t = LoadTable::new(ActorId(0), 3);
        t.set(ActorId(1), Load::new(5.0, 1.0));
        t.add(ActorId(1), Load::new(-2.0, 1.0));
        assert_eq!(t.get(ActorId(1)), Load::new(3.0, 2.0));
        assert_eq!(t.get(ActorId(2)), Load::ZERO);
    }

    #[test]
    fn others_excludes_owner() {
        let t = LoadTable::new(ActorId(1), 3);
        let ranks: Vec<usize> = t.others().map(|(p, _)| p.index()).collect();
        assert_eq!(ranks, vec![0, 2]);
    }

    #[test]
    fn total_sums_everyone() {
        let mut t = LoadTable::new(ActorId(0), 2);
        t.set(ActorId(0), Load::new(1.0, 2.0));
        t.set(ActorId(1), Load::new(3.0, 4.0));
        assert_eq!(t.total(), Load::new(4.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn owner_must_be_in_range() {
        LoadTable::new(ActorId(5), 3);
    }
}

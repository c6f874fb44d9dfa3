//! Who a calendar entry is for.
//!
//! A broadcast to the `P−1` other processes is one calendar entry, and its
//! destination set travels with it by value or by reference, never as a
//! fresh list: the all-but-sender range is two numbers, and a [`RankSet`]
//! (say, the peers that still want a mechanism's updates) is shared with
//! every entry it addresses through an [`Arc`]. Only an arbitrary order (a
//! gossip round's rotating peers, or the part of a fan-out that a FIFO link
//! holds back) needs a list.

use crate::engine::ActorId;
use crate::rankset::RankSet;
use std::sync::Arc;

/// The actors an event is delivered to, in delivery order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dests {
    /// A single actor.
    One(ActorId),
    /// Every actor of `0..n` except `except`, in index order.
    AllBut {
        /// Number of actors.
        n: usize,
        /// The one left out (the sender of a broadcast), below `n`.
        except: ActorId,
    },
    /// The members of a shared set, in index order.
    Set(Arc<RankSet>),
    /// These actors, in this order.
    List(Box<[ActorId]>),
}

impl Dests {
    /// Number of destinations.
    pub fn len(&self) -> usize {
        match self {
            Dests::One(_) => 1,
            Dests::AllBut { n, .. } => n - 1,
            Dests::Set(set) => set.len(),
            Dests::List(list) => list.len(),
        }
    }

    /// Whether there is no destination.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `actor` is one of the destinations. `actor` must be below
    /// the size of a [`Dests::Set`]'s set.
    #[inline]
    pub fn contains(&self, actor: ActorId) -> bool {
        match self {
            Dests::One(one) => *one == actor,
            Dests::AllBut { n, except } => actor != *except && actor.index() < *n,
            Dests::Set(set) => set.contains(actor),
            Dests::List(list) => list.contains(&actor),
        }
    }

    /// The destinations, in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = ActorId> + '_ {
        // Destinations taken (a range or list), or words loaded (a set).
        let mut index = 0;
        // The members of the last word loaded not yet taken (a set).
        let mut bits = 0u64;
        std::iter::from_fn(move || match self {
            Dests::One(actor) => {
                index += 1;
                (index == 1).then_some(*actor)
            }
            Dests::AllBut { n, except } => {
                let r = index + usize::from(index >= except.index());
                index += 1;
                (r < *n).then_some(ActorId(r))
            }
            Dests::Set(set) => {
                while bits == 0 {
                    bits = *set.words().get(index)?;
                    index += 1;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(ActorId((index - 1) * 64 + bit))
            }
            Dests::List(list) => {
                index += 1;
                list.get(index - 1).copied()
            }
        })
    }
}

impl From<Vec<ActorId>> for Dests {
    fn from(list: Vec<ActorId>) -> Self {
        Dests::List(list.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 7] = [1, 2, 63, 64, 65, 130, 1024];

    /// Every rank but `me`, as a list: the reference order.
    fn others(n: usize, me: usize) -> Vec<ActorId> {
        (0..n).filter(|&q| q != me).map(ActorId).collect()
    }

    #[test]
    fn all_but_range_lists_every_other_rank_in_order() {
        for n in SIZES {
            for me in [0, n / 2, n.saturating_sub(2), n - 1] {
                let expected = others(n, me);
                let range = Dests::AllBut {
                    n,
                    except: ActorId(me),
                };
                assert_eq!(range.iter().collect::<Vec<_>>(), expected, "P={n} me={me}");
                assert_eq!(range.len(), expected.len());
                let set = Dests::Set(Arc::new(RankSet::all_but(n, ActorId(me))));
                assert_eq!(set.iter().collect::<Vec<_>>(), expected, "P={n} me={me}");
                assert_eq!(set.len(), expected.len());
            }
        }
    }

    #[test]
    fn contains_agrees_with_iteration() {
        for n in SIZES {
            let me = ActorId(n / 2);
            let mut set = RankSet::new(n);
            for r in (0..n).step_by(3) {
                set.insert(ActorId(r));
            }
            let list: Vec<ActorId> = [n - 1, 0, n / 3].map(ActorId).to_vec();
            for dests in [
                Dests::One(me),
                Dests::AllBut { n, except: me },
                Dests::Set(Arc::new(set.clone())),
                list.into(),
            ] {
                let members: Vec<ActorId> = dests.iter().collect();
                for r in (0..n).map(ActorId) {
                    assert_eq!(dests.contains(r), members.contains(&r), "{dests:?} {r}");
                }
            }
        }
    }

    #[test]
    fn set_visits_members_across_word_boundaries() {
        for n in SIZES {
            let mut set = RankSet::new(n);
            let members: Vec<usize> = [0, 1, 62, 63, 64, 65, 127, 128, 129, n - 1]
                .into_iter()
                .filter(|&r| r < n)
                .collect();
            for &r in &members {
                set.insert(ActorId(r));
            }
            let mut expected: Vec<ActorId> = members.iter().map(|&r| ActorId(r)).collect();
            expected.sort();
            expected.dedup();
            let dests = Dests::Set(Arc::new(set));
            assert_eq!(dests.iter().collect::<Vec<_>>(), expected, "P={n}");
        }
    }
}

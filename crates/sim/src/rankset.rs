//! A set of actor ranks as a fixed-size bitset with a count.
//!
//! The snapshot mechanism asks the same few questions of its sets of ranks
//! on every state message: is `p` in it, how many are in it, and which is
//! the smallest or largest. One bit per rank answers the first in one word
//! operation, the kept count answers the second without a scan, and the
//! ends are found by scanning words (16 for P = 1024) rather than ranks.
//!
//! A set is also a fan-out destination ([`crate::Dests::Set`]): the naive
//! and increments mechanisms keep their interested peers in one, shared by
//! reference with every message in flight, and members are visited in rank
//! order.

use crate::engine::ActorId;

/// A set of ranks below a capacity fixed at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankSet {
    words: Box<[u64]>,
    len: usize,
}

/// Word index and bit mask of rank `r`.
#[inline]
fn slot(r: ActorId) -> (usize, u64) {
    (r.index() / 64, 1 << (r.index() % 64))
}

impl RankSet {
    /// An empty set able to hold ranks `0..nprocs` (rounded up to a whole
    /// 64-rank word). Operations on a rank past that word panic.
    pub fn new(nprocs: usize) -> Self {
        RankSet {
            words: vec![0; nprocs.div_ceil(64)].into_boxed_slice(),
            len: 0,
        }
    }

    /// The set of every rank of `0..nprocs` except `me`.
    pub fn all_but(nprocs: usize, me: ActorId) -> Self {
        let mut s = RankSet::new(nprocs);
        s.fill_all_but(nprocs, me);
        s
    }

    /// Make this set every rank of `0..nprocs` except `me` (`nprocs` within
    /// the capacity).
    pub fn fill_all_but(&mut self, nprocs: usize, me: ActorId) {
        for (i, w) in self.words.iter_mut().enumerate() {
            let below = nprocs.saturating_sub(i * 64).min(64);
            *w = if below == 64 { !0 } else { (1 << below) - 1 };
        }
        self.len = nprocs;
        self.remove(me);
    }

    /// Remove every rank.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Add `r`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, r: ActorId) -> bool {
        // Copy the word out rather than test and set it through one `&mut`:
        // rustc 1.95.0 at `-O` compiled that form so that `len` never grew
        // (`ends_cross_word_boundaries` failed in release builds only).
        let (w, bit) = slot(r);
        let old = self.words[w];
        self.words[w] = old | bit;
        let absent = old & bit == 0;
        self.len += absent as usize;
        absent
    }

    /// Remove `r`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, r: ActorId) -> bool {
        let (w, bit) = slot(r);
        let old = self.words[w];
        self.words[w] = old & !bit;
        let present = old & bit != 0;
        self.len -= present as usize;
        present
    }

    /// Whether `r` is in the set.
    #[inline]
    pub fn contains(&self, r: ActorId) -> bool {
        let (w, bit) = slot(r);
        self.words[w] & bit != 0
    }

    /// Number of ranks in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The smallest rank in the set.
    pub fn first(&self) -> Option<ActorId> {
        let (i, &w) = self.words.iter().enumerate().find(|(_, &w)| w != 0)?;
        Some(ActorId(i * 64 + w.trailing_zeros() as usize))
    }

    /// The largest rank in the set.
    pub fn last(&self) -> Option<ActorId> {
        let (i, &w) = self.words.iter().enumerate().rfind(|(_, &w)| w != 0)?;
        Some(ActorId(i * 64 + 63 - w.leading_zeros() as usize))
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The set's words: rank `r` is bit `r % 64` of word `r / 64`.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The ranks in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = ActorId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(ActorId(i * 64 + bit))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn ends_cross_word_boundaries() {
        let mut s = RankSet::new(130);
        assert_eq!((s.first(), s.last()), (None, None));
        for r in [129, 64, 63, 0, 127] {
            assert!(s.insert(ActorId(r)));
        }
        assert!(!s.insert(ActorId(64)), "second insert is a no-op");
        assert_eq!(s.len(), 5);
        assert_eq!(
            (s.first(), s.last()),
            (Some(ActorId(0)), Some(ActorId(129)))
        );
        assert!(s.remove(ActorId(0)) && s.remove(ActorId(129)));
        assert!(!s.remove(ActorId(129)), "second remove is a no-op");
        assert_eq!(
            (s.first(), s.last()),
            (Some(ActorId(63)), Some(ActorId(127)))
        );
        let ranks: Vec<usize> = s.iter().map(ActorId::index).collect();
        assert_eq!(ranks, vec![63, 64, 127]);
    }

    /// One random operation on both the set and a `BTreeSet` model.
    fn step(s: &mut RankSet, model: &mut BTreeSet<ActorId>, op: u64, r: ActorId) {
        match op {
            0 => assert_eq!(s.insert(r), model.insert(r)),
            1 => assert_eq!(s.remove(r), model.remove(&r)),
            _ => assert_eq!(s.contains(r), model.contains(&r)),
        }
    }

    proptest! {
        /// Every query agrees with a `BTreeSet` after every step of a random
        /// insert/remove/contains sequence, at sizes on both sides of a word.
        #[test]
        fn rank_set_matches_an_ordered_set_model(
            ops in prop::collection::vec((0u64..3, any::<u64>()), 1..300),
        ) {
            for nprocs in [1, 63, 64, 65, 130, 1024] {
                let mut s = RankSet::new(nprocs);
                let mut model = BTreeSet::new();
                for &(op, r) in &ops {
                    // Half the ranks come from the ends and word edges, where
                    // the bit arithmetic can go wrong.
                    let edges = [0, 63, 64, 127, 128, nprocs - 1];
                    let r = if r % 2 == 0 {
                        edges[(r / 2 % 6) as usize]
                    } else {
                        (r / 2) as usize
                    } % nprocs;
                    step(&mut s, &mut model, op, ActorId(r));
                    prop_assert_eq!(s.len(), model.len());
                    prop_assert_eq!(s.first(), model.first().copied());
                    prop_assert_eq!(s.last(), model.last().copied());
                }
                let listed: Vec<ActorId> = s.iter().collect();
                let expected: Vec<ActorId> = model.iter().copied().collect();
                prop_assert_eq!(listed, expected);
            }
        }
    }
}

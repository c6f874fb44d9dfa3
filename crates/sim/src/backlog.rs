//! Messages that wait for busy readers, buffered once per fan-out.
//!
//! An actor that is busy when a message reaches it keeps the message until
//! it is free to read it. When one message fans out to many busy actors, a
//! copy in each actor's mailbox costs a write per copy and memory that grows
//! with the number of actors. A [`Backlog`] buffers a fan-out once instead:
//! one entry holds the message, its destinations and a count of the copies
//! still unread, in one queue shared by every reader and indexed
//! absolutely. Each reader keeps, beside its busy flag, its count of unread
//! messages and the index of the first entry it may still have to read, and
//! walks the shared entries from there, reading those addressed to it. The
//! front entries, once every copy has been read, are dropped.
//!
//! A message sent to one actor goes to that reader's own small mailbox,
//! stamped with the shared queue's end index when it arrived, and the two
//! are merged on that stamp: every reader reads its messages in exactly the
//! order they reached it, as from a FIFO mailbox of its own.
//!
//! The rule that makes a fan-out entry's destinations enough to tell its
//! readers: **from the entry a reader's count last rose from zero at, every
//! later entry that addresses the reader was buffered by it.** That holds
//! when a reader that has unread messages is busy whenever a message is
//! offered to it, and when an entry names only the actors that were offered
//! its copies (see [`Backlog::close_fanout`]).

use crate::dests::Dests;
use crate::engine::ActorId;
use crate::rankset::RankSet;
use std::collections::VecDeque;
use std::sync::Arc;

/// A shared backlog of buffered messages; see the [module docs](self).
#[derive(Debug)]
pub struct Backlog<M> {
    /// Fan-out entries from absolute index `base` on, oldest first; the
    /// front one always has an unread copy.
    entries: VecDeque<Entry<M>>,
    /// Absolute index of `entries[0]`.
    base: usize,
    /// Per reader: busy flag, unread count and read position.
    readers: Vec<Reader>,
    /// Per reader: single deliveries, each with the end index of `entries`
    /// when it arrived.
    singles: Vec<VecDeque<(usize, M)>>,
    /// Copies of the fan-out in progress buffered so far.
    pending: u32,
}

#[derive(Debug)]
struct Entry<M> {
    msg: M,
    /// Who was offered a copy; see [`Backlog::close_fanout`].
    dests: Dests,
    /// Copies still to be read.
    unread: u32,
}

#[derive(Clone, Copy, Debug)]
struct Reader {
    busy: bool,
    /// Messages buffered and not yet read, single ones included.
    unread: u32,
    /// Absolute index of the first entry the reader may still have to read.
    next: usize,
    /// The stamp of the reader's oldest single delivery; `usize::MAX` when
    /// there is none.
    single_at: usize,
}

impl<M: Clone> Backlog<M> {
    /// An empty backlog for actors `0..readers`, none of them busy.
    pub fn new(readers: usize) -> Self {
        let reader = Reader {
            busy: false,
            unread: 0,
            next: 0,
            single_at: usize::MAX,
        };
        Backlog {
            entries: VecDeque::new(),
            base: 0,
            readers: vec![reader; readers],
            singles: (0..readers).map(|_| VecDeque::new()).collect(),
            pending: 0,
        }
    }

    /// Make `r` buffer what reaches it from now on, or not. A reader that
    /// has unread messages must be busy whenever a message is offered to it.
    #[inline]
    pub fn set_busy(&mut self, r: ActorId, busy: bool) {
        self.readers[r.index()].busy = busy;
    }

    /// Number of messages buffered for `r` and not yet read.
    #[inline]
    pub fn unread(&self, r: ActorId) -> usize {
        self.readers[r.index()].unread as usize
    }

    /// Number of fan-out entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fan-out entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The absolute index the next fan-out entry gets.
    #[inline]
    fn end(&self) -> usize {
        self.base + self.entries.len()
    }

    /// Count one more unread message for a busy `r`, at index `at` if it is
    /// its first; returns the new count.
    #[inline]
    fn count(reader: &mut Reader, at: usize) -> u32 {
        if reader.unread == 0 {
            reader.next = at;
        }
        reader.unread += 1;
        reader.unread
    }

    /// Offer `r` its copy of the fan-out being delivered. A busy reader
    /// buffers it, and the new unread count is returned (1: its first); any
    /// other gets `None` and should treat the message at once. End the
    /// fan-out with [`Backlog::close_fanout`].
    #[inline]
    pub fn offer(&mut self, r: ActorId) -> Option<u32> {
        let at = self.end();
        let reader = &mut self.readers[r.index()];
        if !reader.busy {
            debug_assert_eq!(reader.unread, 0, "{r} is idle with unread messages");
            return None;
        }
        self.pending += 1;
        Some(Self::count(reader, at))
    }

    /// End the fan-out whose copies [`Backlog::offer`] handed out since the
    /// last close: if any reader buffered one, `entry` gives the message and
    /// its destinations, and it is kept once for all of them. The
    /// destinations must be every actor offered a copy since the last close
    /// (buffered or not) and no other, each once.
    pub fn close_fanout(&mut self, entry: impl FnOnce() -> (M, Dests)) {
        if self.pending == 0 {
            return;
        }
        let (msg, dests) = entry();
        // Every reader that walks past the entry asks whether it is among
        // the destinations: a set answers in one word, a list only by a
        // scan.
        let dests = match dests {
            Dests::List(list) => {
                let mut set = RankSet::new(self.readers.len());
                for &r in list.iter() {
                    set.insert(r);
                }
                Dests::Set(Arc::new(set))
            }
            dests => dests,
        };
        self.entries.push_back(Entry {
            msg,
            dests,
            unread: std::mem::take(&mut self.pending),
        });
    }

    /// Deliver one message to `r` alone. A busy reader buffers `msg()` and
    /// the new unread count is returned; any other gets `None` and should
    /// treat the message at once.
    #[inline]
    pub fn offer_single(&mut self, r: ActorId, msg: impl FnOnce() -> M) -> Option<u32> {
        let at = self.end();
        let reader = &mut self.readers[r.index()];
        if !reader.busy {
            debug_assert_eq!(reader.unread, 0, "{r} is idle with unread messages");
            return None;
        }
        let singles = &mut self.singles[r.index()];
        if singles.is_empty() {
            reader.single_at = at;
        }
        singles.push_back((at, msg()));
        Some(Self::count(reader, at))
    }

    /// Take `r`'s oldest unread message, in the order its messages reached
    /// it.
    #[inline]
    pub fn pop(&mut self, r: ActorId) -> Option<M> {
        if self.readers[r.index()].unread == 0 {
            return None;
        }
        Some(self.take(r))
    }

    /// [`Backlog::pop`] for a reader with an unread message.
    fn take(&mut self, r: ActorId) -> M {
        let reader = &mut self.readers[r.index()];
        reader.unread -= 1;
        let mut i = reader.next.max(self.base);
        loop {
            if reader.single_at <= i {
                reader.next = i;
                let singles = &mut self.singles[r.index()];
                let (_, msg) = singles.pop_front().expect("a single is pending");
                reader.single_at = singles.front().map_or(usize::MAX, |&(at, _)| at);
                return msg;
            }
            let entry = &mut self.entries[i - self.base];
            i += 1;
            if !entry.dests.contains(r) {
                continue;
            }
            reader.next = i;
            entry.unread -= 1;
            if entry.unread > 0 || i - 1 > self.base {
                return entry.msg.clone();
            }
            // The front entry's last copy: hand over the message itself.
            let front = self.entries.pop_front().expect("the front entry");
            self.base += 1;
            while self.entries.front().is_some_and(|e| e.unread == 0) {
                self.entries.pop_front();
                self.base += 1;
            }
            return front.msg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: usize) -> Backlog<u32> {
        let mut b = Backlog::new(n);
        for r in 0..n {
            b.set_busy(ActorId(r), true);
        }
        b
    }

    #[test]
    fn readers_merge_fanouts_and_singles_in_arrival_order() {
        let mut b = busy(3);
        assert_eq!(b.offer_single(ActorId(1), || 10), Some(1));
        for r in 0..3 {
            b.offer(ActorId(r));
        }
        b.close_fanout(|| {
            (
                20,
                Dests::AllBut {
                    n: 4,
                    except: ActorId(3),
                },
            )
        });
        assert_eq!(b.offer_single(ActorId(1), || 30), Some(3));
        assert_eq!(b.len(), 1);
        assert_eq!(b.pop(ActorId(1)), Some(10));
        assert_eq!(b.pop(ActorId(0)), Some(20));
        assert_eq!(b.pop(ActorId(1)), Some(20));
        assert_eq!(b.pop(ActorId(1)), Some(30));
        assert_eq!(b.pop(ActorId(1)), None);
        assert_eq!(b.unread(ActorId(2)), 1);
        assert_eq!(b.pop(ActorId(2)), Some(20));
        assert!(b.is_empty());
    }

    #[test]
    fn an_idle_reader_is_not_counted_and_skips_the_entry() {
        let mut b = busy(3);
        b.set_busy(ActorId(1), false);
        assert_eq!(b.offer(ActorId(0)), Some(1));
        assert_eq!(b.offer(ActorId(1)), None);
        b.close_fanout(|| (7, Dests::List([0, 1].map(ActorId).into())));
        // Reader 1 turns busy later: the earlier entry is not its own.
        b.set_busy(ActorId(1), true);
        b.offer(ActorId(1));
        b.close_fanout(|| (8, Dests::One(ActorId(1))));
        assert_eq!(b.pop(ActorId(1)), Some(8));
        assert_eq!(b.len(), 2, "reader 0 has not read the first");
        assert_eq!(b.pop(ActorId(0)), Some(7));
        assert!(b.is_empty());
    }

    #[test]
    fn a_fanout_nobody_buffered_keeps_no_entry() {
        let mut b = Backlog::<u32>::new(2);
        assert_eq!(b.offer(ActorId(0)), None);
        b.close_fanout(|| unreachable!("nothing was buffered"));
        assert!(b.is_empty());
    }
}

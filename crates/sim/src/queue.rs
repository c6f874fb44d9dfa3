//! The event calendar: FIFO buckets of same-instant events, ordered by time.
//!
//! Events pushed for the same instant pop in push order (**stable FIFO
//! tie-breaking**), so every run is reproducible. Rather than tag each event
//! with a sequence number and sort on `(time, seq)`, the calendar keeps one
//! FIFO bucket per pending instant: a min-heap of the distinct instants
//! orders the buckets, and a hash index finds an instant's bucket on push.
//!
//! The earliest instant's bucket sits apart as the *front*: a pop takes from
//! it and a push at its instant (an event scheduled "now") appends to it,
//! with neither touching the heap or the index. When the front drains, the
//! next pop makes the heap's earliest instant the front. Most pushes land on
//! an instant that is already pending (97% of them in a CONV3D64 snapshot
//! run at P = 1024, where about 700 events wait at about 190 instants), so
//! the heap is paid once per instant rather than once per event.
//!
//! A push to a new instant takes a drained bucket from a pool rather than
//! allocating, while the pool has one. The pool is bounded (256 buckets, each
//! kept only if it never grew past 16 events), so a burst at one instant
//! does not pin its memory for the rest of the run; such a burst allocates
//! as its bucket grows.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::{BinaryHeap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;

/// Most drained buckets kept for reuse.
const SPARE_BUCKETS: usize = 256;
/// Largest capacity (in events) of a drained bucket kept for reuse.
const SPARE_CAPACITY: usize = 16;

/// Hash of a [`SimTime`] key: one folded 64×64→128-bit multiply of its
/// nanoseconds, so that keys differing only in high bits (times that are
/// multiples of a microsecond) still spread over the table.
#[derive(Default)]
struct TimeHasher(u64);

impl Hasher for TimeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministic event calendar.
pub struct EventQueue<E> {
    /// The events pending at `front_time`, in push order (possibly none).
    front: VecDeque<E>,
    /// The front's instant: earlier than every instant in `times`.
    front_time: SimTime,
    /// Every later pending instant, earliest on top; each has one bucket.
    times: BinaryHeap<Reverse<SimTime>>,
    /// The events pending at each instant of `times`, in push order; no
    /// bucket here is empty.
    buckets: HashMap<SimTime, VecDeque<E>, BuildHasherDefault<TimeHasher>>,
    /// Drained buckets kept for reuse.
    spares: Vec<VecDeque<E>>,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        EventQueue {
            front: VecDeque::new(),
            front_time: SimTime::ZERO,
            times: BinaryHeap::new(),
            buckets: HashMap::default(),
            spares: Vec::new(),
            len: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.len += 1;
        if time == self.front_time {
            self.front.push_back(event);
            return;
        }
        if time < self.front_time {
            // Earlier than anything pending. The simulator never does this
            // (it clamps every event to "now", the front's instant), but any
            // caller may: the new instant becomes the front, and the old
            // front, if it holds events, goes back among the later buckets.
            if !self.front.is_empty() {
                let spare = self.spares.pop().unwrap_or_default();
                let front = mem::replace(&mut self.front, spare);
                self.times.push(Reverse(self.front_time));
                self.buckets.insert(self.front_time, front);
            }
            self.front_time = time;
            self.front.push_back(event);
            return;
        }
        match self.buckets.entry(time) {
            Entry::Occupied(mut bucket) => bucket.get_mut().push_back(event),
            Entry::Vacant(slot) => {
                self.times.push(Reverse(time));
                let mut bucket = self.spares.pop().unwrap_or_default();
                bucket.push_back(event);
                slot.insert(bucket);
            }
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            let Reverse(time) = self.times.pop()?;
            let next = self
                .buckets
                .remove(&time)
                .expect("every pending instant has a bucket");
            let drained = mem::replace(&mut self.front, next);
            self.recycle(drained);
            self.front_time = time;
        }
        let event = self.front.pop_front().expect("the front was just filled");
        self.len -= 1;
        Some((self.front_time, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keep a drained bucket for reuse if it is small and the pool has room.
    fn recycle(&mut self, bucket: VecDeque<E>) {
        debug_assert!(bucket.is_empty());
        if bucket.capacity() <= SPARE_CAPACITY && self.spares.len() < SPARE_BUCKETS {
            self.spares.push(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_breaking_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(10), 2);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        q.push(SimTime(10), 3);
        // 2 was scheduled before 3.
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
        assert_eq!(q.pop(), Some((SimTime(10), 3)));
    }

    #[test]
    fn earlier_push_goes_ahead_of_the_front() {
        let mut q = EventQueue::new();
        q.push(SimTime(20), "b1");
        q.push(SimTime(20), "b2");
        q.push(SimTime(30), "c");
        assert_eq!(q.pop(), Some((SimTime(20), "b1")));
        // The front (20, holding b2) goes back behind the earlier instant.
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b3");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b2")));
        assert_eq!(q.pop(), Some((SimTime(20), "b3")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn spare_buckets_are_bounded_in_number_and_size() {
        let mut q = EventQueue::new();
        for t in 0..1000 {
            q.push(SimTime(t), t);
        }
        while q.pop().is_some() {}
        assert_eq!(q.spares.len(), SPARE_BUCKETS);
        // A bucket grown past the size bound is dropped, not kept.
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for t in 6..9 {
            q.push(SimTime(t), 0);
        }
        while q.pop().is_some() {}
        // Kept: the first (unused) front and the buckets of 6 and 7; the
        // bucket of 8 is the front.
        assert_eq!(q.spares.len(), 3);
        assert!(q.spares.iter().all(|b| b.capacity() <= SPARE_CAPACITY));
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ());
        q.push(SimTime(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}

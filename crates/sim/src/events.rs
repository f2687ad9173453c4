//! A minimal discrete-event queue.
//!
//! Used for periodic background work in the cluster layer: leader
//! heartbeats, idle-memory monitoring, re-replication scans. Events at the
//! same instant pop in scheduling order (FIFO), which keeps simulations
//! deterministic.

use crate::time::SimInstant;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A time-ordered queue of events of type `T`.
///
/// # Examples
///
/// ```
/// use dmem_sim::{EventQueue, SimInstant};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimInstant::from_nanos(20), "heartbeat");
/// q.schedule(SimInstant::from_nanos(10), "scan");
/// let due = q.pop_due(SimInstant::from_nanos(15));
/// assert_eq!(due, vec![(SimInstant::from_nanos(10), "scan")]);
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Clone)]
struct Entry<T> {
    at: SimInstant,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at virtual time `at`.
    pub fn schedule(&mut self, at: SimInstant, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, payload }));
    }

    /// Removes and returns all events due at or before `now`, in time
    /// order (FIFO among ties).
    pub fn pop_due(&mut self, now: SimInstant) -> Vec<(SimInstant, T)> {
        let mut due = Vec::new();
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.at > now {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
            due.push((entry.at, entry.payload));
        }
        due
    }

    /// Removes and returns the single earliest event strictly before
    /// `end`, if any — the epoch-window variant of [`pop_due`]
    /// (exclusive bound, one event at a time so handlers can schedule
    /// further events inside the same window and still see them pop in
    /// time order).
    ///
    /// [`pop_due`]: EventQueue::pop_due
    pub fn pop_before(&mut self, end: SimInstant) -> Option<(SimInstant, T)> {
        let Reverse(head) = self.heap.peek()?;
        if head.at >= end {
            return None;
        }
        let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
        Some((entry.at, entry.payload))
    }

    /// The time of the next scheduled event, if any.
    pub fn next_at(&self) -> Option<SimInstant> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// The time of the next scheduled event and its rank among the events
    /// of that time: the value [`scheduled`](EventQueue::scheduled) had
    /// when it was queued.
    pub fn next_key(&self) -> Option<(SimInstant, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.seq))
    }

    /// How many events were ever scheduled. Every event queued so far
    /// ranks below this and every later one at or above it, so a caller
    /// merging a second, time-ordered source into the pops can place it
    /// between the two.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_at", &self.next_at())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimInstant::from_nanos(30), 3);
        q.schedule(SimInstant::from_nanos(10), 1);
        q.schedule(SimInstant::from_nanos(20), 2);
        let due: Vec<i32> = q
            .pop_due(SimInstant::from_nanos(100))
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        assert_eq!(due, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimInstant::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let due: Vec<i32> = q.pop_due(t).into_iter().map(|(_, p)| p).collect();
        assert_eq!(due, (0..10).collect::<Vec<_>>());
    }

    /// What a merge of a second source into the pops relies on: events
    /// queued before a `scheduled()` mark rank below it, later ones do not.
    #[test]
    fn rank_splits_a_tie_at_the_mark() {
        let mut q = EventQueue::new();
        let t = SimInstant::from_nanos(5);
        q.schedule(t, "before");
        let mark = q.scheduled();
        q.schedule(t, "after");
        assert_eq!(q.next_key(), Some((t, 0)));
        assert!(q.next_key().unwrap().1 < mark);
        assert_eq!(q.pop_before(SimInstant::from_nanos(6)), Some((t, "before")));
        assert!(q.next_key().unwrap().1 >= mark);
    }

    #[test]
    fn future_events_stay() {
        let mut q = EventQueue::new();
        q.schedule(SimInstant::from_nanos(50), "later");
        assert!(q.pop_due(SimInstant::from_nanos(49)).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_at(), Some(SimInstant::from_nanos(50)));
    }

    #[test]
    fn pop_before_is_exclusive_and_single() {
        let mut q = EventQueue::new();
        q.schedule(SimInstant::from_nanos(10), "a");
        q.schedule(SimInstant::from_nanos(10), "b");
        q.schedule(SimInstant::from_nanos(20), "c");
        // Exclusive bound: an event at exactly `end` stays queued.
        assert_eq!(q.pop_before(SimInstant::from_nanos(10)), None);
        assert_eq!(q.pop_before(SimInstant::from_nanos(11)), Some((SimInstant::from_nanos(10), "a")));
        assert_eq!(q.pop_before(SimInstant::from_nanos(11)), Some((SimInstant::from_nanos(10), "b")));
        assert_eq!(q.pop_before(SimInstant::from_nanos(11)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
        assert!(q.pop_due(SimInstant::from_nanos(1)).is_empty());
    }

    proptest! {
        #[test]
        fn prop_pop_due_is_sorted(times in proptest::collection::vec(0u64..1000, 1..50)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimInstant::from_nanos(t), i);
            }
            let due = q.pop_due(SimInstant::from_nanos(2000));
            prop_assert_eq!(due.len(), times.len());
            for w in due.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
            }
        }

        #[test]
        fn prop_partition_respects_now(times in proptest::collection::vec(0u64..1000, 1..50), now in 0u64..1000) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimInstant::from_nanos(t), t);
            }
            let now_i = SimInstant::from_nanos(now);
            let due = q.pop_due(now_i);
            prop_assert!(due.iter().all(|(at, _)| *at <= now_i));
            prop_assert_eq!(due.len() + q.len(), times.len());
        }
    }
}

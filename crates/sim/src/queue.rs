//! A stable (FIFO-on-tie) discrete-event queue backed by one sorted
//! vector of the pending events.
//!
//! Determinism is a core requirement of the simulator: the same seed must
//! produce the same trace, byte for byte. Events scheduled for the same
//! instant therefore pop in the order they were pushed — every entry
//! carries a monotonically increasing sequence number and ties are broken
//! by it.
//!
//! ## Structure and complexity
//!
//! The queue holds only *live* events (pushed, not yet popped or
//! cancelled) in one `Vec`, sorted by descending `(deadline, sequence)`,
//! so the next event to deliver is always the last element. With `n` the
//! number of pending events:
//!
//! * `push` — **O(n)**: a binary search for the insertion point plus the
//!   shift of the entries after it (the kernel's pushes are mostly near
//!   deadlines, which land near the end and shift little).
//! * `cancel` — **O(n)**: a linear search by sequence number and an eager
//!   removal, so there are no tombstones to skip later.
//! * `pop`/`peek_time` — **O(1)**: `Vec::pop` and `last()`.
//!
//! The simulated kernel never holds more than about ten pending events (a
//! slice timer per CPU plus the in-flight phase and wake-up events). At
//! that depth the short contiguous array outruns the binary-heap oracle
//! below (the `queue_micro` rows of `BENCH_monte_carlo.json`). Deep
//! backlogs stay correct — a test pins delivery order at 4,096 pending
//! events — but are not a performance goal.
//!
//! A binary-heap implementation of the same API is retained as
//! [`oracle::HeapEventQueue`] (under `cfg(test)` or the `queue-oracle`
//! feature) and the two are exercised against each other by a
//! differential property test below.

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// One pending event.
struct Entry<E> {
    at: u64,
    seq: u64,
    payload: E,
}

/// A deterministic min-priority queue of timed events.
///
/// Events with equal timestamps are returned in insertion order.
/// Cancelling an event that already fired (or was already cancelled) is a
/// reliable no-op rather than a bookkeeping hazard: the queue holds only
/// pending events, so a stale [`EventId`] simply matches nothing. See the
/// [module docs](self) for the layout and the per-operation costs.
///
/// # Examples
///
/// ```
/// use tocttou_sim::queue::EventQueue;
/// use tocttou_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// let first = q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-2");
/// q.cancel(first);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-2")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Pending events sorted by descending `(at, seq)`: the earliest
    /// deadline (lowest sequence number on ties) is last.
    entries: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns a handle that can be
    /// passed to [`cancel`](Self::cancel).
    pub fn push(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = at.as_nanos();
        // `seq` exceeds every pending sequence number, so the new entry
        // goes after every later deadline and before every entry at the
        // same instant (those were pushed earlier and must pop first).
        let i = self.entries.partition_point(|e| e.at > at);
        self.entries.insert(i, Entry { at, seq, payload });
        EventId(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (and is now guaranteed
    /// never to be returned by [`pop`](Self::pop)); `false` if it had
    /// already fired or been cancelled — in which case nothing changes.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.entries.iter().position(|e| e.seq == id.0) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.entries
            .pop()
            .map(|e| (SimTime::from_nanos(e.at), e.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.entries.last().map(|e| SimTime::from_nanos(e.at))
    }

    /// Removes every pending event and resets the sequence counter,
    /// retaining allocated capacity.
    ///
    /// Monte-Carlo round pools reuse one queue across many simulated
    /// rounds; after `clear` the queue is observably identical to a fresh
    /// one (same FIFO-on-tie numbering from zero), so pooled rounds stay
    /// bit-identical to rounds run on a new queue.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A frozen copy of an [`EventQueue`]'s pending events and sequence
/// counter, produced by [`EventQueue::snapshot`] and consumed by
/// [`EventQueue::restore`].
///
/// The snapshot is *behavioral*, not structural: it records the live
/// `(deadline, sequence, payload)` triples plus the sequence counter,
/// which together determine every future observable of the queue —
/// delivery order (FIFO on ties via the sequence numbers), the ids the
/// next pushes will hand out, and the fact that ids consumed before the
/// snapshot stay dead (they are not among the captured entries, so
/// cancelling them after a restore still reports `false`). The entries
/// carry no order: [`EventQueue::restore`] sorts them.
#[derive(Debug, Clone)]
pub struct QueueSnapshot<E> {
    /// Live entries as `(at, seq, payload)`, in no particular order.
    entries: Vec<(u64, u64, E)>,
    /// Sequence counter at snapshot time; every captured `seq` is below it.
    next_seq: u64,
}

impl<E> QueueSnapshot<E> {
    /// Number of pending events captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the snapshot holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<E: Clone> EventQueue<E> {
    /// Captures every pending event and the sequence counter. Cost is
    /// O(pending); the queue is not mutated.
    pub fn snapshot(&self) -> QueueSnapshot<E> {
        QueueSnapshot {
            entries: self
                .entries
                .iter()
                .map(|e| (e.at, e.seq, e.payload.clone()))
                .collect(),
            next_seq: self.next_seq,
        }
    }

    /// Resets the queue to the state captured by `snap`, retaining
    /// allocated capacity.
    ///
    /// After a restore the queue is observably identical to the queue the
    /// snapshot was taken from: same delivery order, same ids from future
    /// pushes, and ids that were already consumed before the snapshot
    /// remain dead (cancelling one reports `false`). Cost is
    /// O(s log s) in the snapshot size `s`, independent of how much
    /// history the queue accumulated since.
    pub fn restore(&mut self, snap: &QueueSnapshot<E>) {
        self.entries.clear();
        self.next_seq = snap.next_seq;
        self.entries
            .extend(snap.entries.iter().map(|&(at, seq, ref payload)| {
                debug_assert!(seq < snap.next_seq);
                Entry {
                    at,
                    seq,
                    payload: payload.clone(),
                }
            }));
        // Sequence numbers are unique, so the unstable sort is exact.
        self.entries
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.entries.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

/// A binary-heap implementation of the [`EventQueue`] API, kept as a
/// differential oracle.
///
/// It shares no ordering code with [`EventQueue`] — tie-breaking lives in
/// the heap's `Ord` impl, cancellation in a liveness bitmap — so property
/// tests (and the queue micro-benchmark) can compare the two structures
/// operation for operation. Compiled only for tests or under the
/// `queue-oracle` feature — production code always uses [`EventQueue`].
#[cfg(any(test, feature = "queue-oracle"))]
pub mod oracle {
    use super::{EventId, QueueSnapshot};
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct HeapEntry<E> {
        at: SimTime,
        seq: u64,
        id: EventId,
        payload: E,
    }

    impl<E> PartialEq for HeapEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for HeapEntry<E> {}
    impl<E> PartialOrd for HeapEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for HeapEntry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest (then
            // lowest-sequence) entry is the maximum.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Binary-heap reference implementation of the [`EventQueue`] API.
    ///
    /// [`EventQueue`]: super::EventQueue
    pub struct HeapEventQueue<E> {
        heap: BinaryHeap<HeapEntry<E>>,
        next_seq: u64,
        live_bits: Vec<u64>,
        live_count: usize,
    }

    impl<E> Default for HeapEventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapEventQueue<E> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                live_bits: Vec::new(),
                live_count: 0,
            }
        }

        fn is_live(&self, id: EventId) -> bool {
            let (word, bit) = (id.0 / 64, id.0 % 64);
            self.live_bits
                .get(word as usize)
                .is_some_and(|w| w & (1 << bit) != 0)
        }

        fn take_live(&mut self, id: EventId) -> bool {
            let (word, bit) = (id.0 / 64, id.0 % 64);
            match self.live_bits.get_mut(word as usize) {
                Some(w) if *w & (1 << bit) != 0 => {
                    *w &= !(1 << bit);
                    self.live_count -= 1;
                    true
                }
                _ => false,
            }
        }

        /// Schedules `payload` to fire at `at`.
        pub fn push(&mut self, at: SimTime, payload: E) -> EventId {
            let seq = self.next_seq;
            self.next_seq += 1;
            let id = EventId(seq);
            self.heap.push(HeapEntry {
                at,
                seq,
                id,
                payload,
            });
            let (word, bit) = (seq / 64, seq % 64);
            if word as usize >= self.live_bits.len() {
                self.live_bits.resize(word as usize + 1, 0);
            }
            self.live_bits[word as usize] |= 1 << bit;
            self.live_count += 1;
            id
        }

        /// Cancels a previously scheduled event.
        pub fn cancel(&mut self, id: EventId) -> bool {
            self.take_live(id)
        }

        /// Removes and returns the earliest pending event.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(entry) = self.heap.pop() {
                if self.take_live(entry.id) {
                    return Some((entry.at, entry.payload));
                }
            }
            None
        }

        /// The timestamp of the earliest pending event.
        pub fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(top) = self.heap.peek() {
                if self.is_live(top.id) {
                    return Some(top.at);
                }
                self.heap.pop();
            }
            None
        }

        /// Removes every pending event and resets the sequence counter.
        pub fn clear(&mut self) {
            self.heap.clear();
            self.live_bits.fill(0);
            self.live_count = 0;
            self.next_seq = 0;
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.live_count
        }

        /// True if no events are pending.
        pub fn is_empty(&self) -> bool {
            self.live_count == 0
        }
    }

    impl<E: Clone> HeapEventQueue<E> {
        /// Captures every pending event and the sequence counter,
        /// mirroring [`EventQueue::snapshot`](super::EventQueue::snapshot).
        pub fn snapshot(&self) -> QueueSnapshot<E> {
            let mut entries = Vec::with_capacity(self.live_count);
            for e in self.heap.iter() {
                if self.is_live(e.id) {
                    entries.push((e.at.as_nanos(), e.seq, e.payload.clone()));
                }
            }
            QueueSnapshot {
                entries,
                next_seq: self.next_seq,
            }
        }

        /// Resets the queue to the captured state, mirroring
        /// [`EventQueue::restore`](super::EventQueue::restore).
        pub fn restore(&mut self, snap: &QueueSnapshot<E>) {
            self.clear();
            self.next_seq = snap.next_seq;
            let words = (snap.next_seq as usize).div_ceil(64);
            if self.live_bits.len() < words {
                self.live_bits.resize(words, 0);
            }
            for &(at, seq, ref payload) in &snap.entries {
                let (word, bit) = (seq / 64, seq % 64);
                self.live_bits[word as usize] |= 1 << bit;
                self.heap.push(HeapEntry {
                    at: SimTime::from_nanos(at),
                    seq,
                    id: EventId(seq),
                    payload: payload.clone(),
                });
            }
            self.live_count = snap.entries.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_delivery_is_noop_and_keeps_len_consistent() {
        // Regression: cancelling an id that already popped must not disturb
        // the pending count.
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(2), 'b');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        assert!(!q.cancel(a), "already delivered");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(9), 'z');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 'a');
        q.push(t(5), 'b');
        assert_eq!(q.pop(), Some((t(5), 'b')));
        q.push(t(7), 'c');
        q.push(t(10), 'd');
        assert_eq!(q.pop(), Some((t(7), 'c')));
        assert_eq!(
            q.pop(),
            Some((t(10), 'a')),
            "earlier-pushed same-time first"
        );
        assert_eq!(q.pop(), Some((t(10), 'd')));
    }

    #[test]
    fn clear_restores_fresh_queue_semantics() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(2), 'b');
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(a), "pre-clear handles are dead");
        // Sequence numbering restarts, so tie-breaking matches a new queue.
        q.push(t(5), 'x');
        let fresh = q.push(t(5), 'y');
        assert_eq!(fresh, EventId(1), "seq counter restarted");
        assert_eq!(q.pop(), Some((t(5), 'x')));
        assert_eq!(q.pop(), Some((t(5), 'y')));
    }

    #[test]
    fn cancel_then_push_reuses_nothing() {
        // Ids are never reused, so a stale handle can't cancel a new event.
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.cancel(a);
        let b = q.push(t(1), 'b');
        assert_ne!(a, b);
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((t(1), 'b')));
    }

    #[test]
    fn push_before_an_already_delivered_instant_still_pops_first() {
        // The kernel never rewinds time, but the API allows it: an event
        // pushed earlier than one already delivered must still pop first.
        let mut q = EventQueue::new();
        q.push(t(1_000_000), 'z');
        assert_eq!(q.pop(), Some((t(1_000_000), 'z')));
        q.push(t(2_000_000), 'b');
        q.push(t(5), 'a'); // far behind the last delivery
        q.push(t(7), 'c');
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop(), Some((t(5), 'a')));
        assert_eq!(q.pop(), Some((t(7), 'c')));
        assert_eq!(q.pop(), Some((t(2_000_000), 'b')));
        assert!(q.pop().is_none());
    }

    #[test]
    fn sparse_far_apart_deadlines_deliver_in_order() {
        // Deadlines spread from nanoseconds to half the time range,
        // including a duplicate instant that must come back FIFO.
        let mut q = EventQueue::new();
        let times = [
            3u64,
            64,
            65,
            4_095,
            4_096,
            262_143,
            262_145,
            100_000_000,
            100_000_000,
            u64::MAX / 2,
        ];
        for (i, &at) in times.iter().enumerate() {
            q.push(t(at), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..times.len()).collect();
        sorted.sort();
        for (at, i) in sorted {
            assert_eq!(q.pop(), Some((t(at), i)), "deadline {at}");
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_pushed_after_a_peek_keeps_fifo() {
        // An event far in the future is peeked at, then a second event
        // for the same instant is pushed. The earlier (lower-seq) push
        // must still deliver first.
        let mut q = EventQueue::new();
        q.push(t(100_000), 'e');
        q.push(t(10), 'x');
        assert_eq!(q.pop(), Some((t(10), 'x')));
        assert_eq!(q.peek_time(), Some(t(100_000)));
        q.push(t(100_000), 'l'); // same instant, later seq
        assert_eq!(q.pop(), Some((t(100_000), 'e')), "lower seq first");
        assert_eq!(q.pop(), Some((t(100_000), 'l')));
    }

    #[test]
    fn peek_then_cancel_then_pop_skips_the_peeked_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(50), 'a');
        q.push(t(60), 'b');
        assert_eq!(q.peek_time(), Some(t(50)));
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(60), 'b')));
    }

    #[test]
    fn deep_backlog_with_interleaved_cancels_delivers_in_order() {
        // 4,096 pending events over a narrow time range (many ties), with
        // every third push cancelled as the backlog builds, then a
        // snapshot/restore round trip at full depth.
        let mut x = 0x5EEDu64;
        let mut lcg = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        // Every live event as `(at, seq)`; the payload is the seq too.
        let mut q = EventQueue::new();
        let mut live = Vec::new();
        let mut seq = 0u64;
        while q.len() < 4_096 {
            let at = lcg() % 2_000;
            live.push((at, q.push(t(at), seq)));
            if seq % 3 == 2 {
                let (_, id) = live.remove(live.len() / 2);
                assert!(q.cancel(id));
            }
            seq += 1;
        }
        let mut expected: Vec<(u64, u64)> = live.iter().map(|&(at, id)| (at, id.0)).collect();
        expected.sort();
        let expected: Vec<(SimTime, u64)> =
            expected.into_iter().map(|(at, s)| (t(at), s)).collect();

        let snap = q.snapshot();
        assert_eq!(snap.len(), 4_096);
        for _ in 0..2 {
            let mut drained = Vec::with_capacity(expected.len());
            while let Some(ev) = q.pop() {
                drained.push(ev);
            }
            assert_eq!(drained, expected);
            q.restore(&snap);
        }
    }

    #[test]
    fn snapshot_restore_replays_delivery_order_exactly() {
        let mut q = EventQueue::new();
        for i in 0..40u64 {
            q.push(t(1_000 + i * 64), i);
        }
        q.push(t(2_000_000), 99);
        assert_eq!(q.pop(), Some((t(1_000), 0)));
        q.push(t(500), 77); // earlier than the last delivery
        let snap = q.snapshot();
        assert_eq!(snap.len(), q.len());
        assert!(!snap.is_empty());

        // Drain the original for the reference order, then restore and
        // re-drain: the orders must match element for element.
        let mut reference = Vec::new();
        while let Some(ev) = q.pop() {
            reference.push(ev);
        }
        q.restore(&snap);
        assert_eq!(q.len(), snap.len());
        let mut replay = Vec::new();
        while let Some(ev) = q.pop() {
            replay.push(ev);
        }
        assert_eq!(replay, reference);
    }

    #[test]
    fn restore_preserves_seq_counter_and_dead_ids() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        let b = q.push(t(2), 'b');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        q.cancel(b);
        let snap = q.snapshot(); // empty, but next_seq is 2
        assert!(snap.is_empty());
        q.push(t(3), 'c');
        q.restore(&snap);
        assert!(q.is_empty());
        assert!(!q.cancel(a), "pre-snapshot consumed ids stay dead");
        assert!(!q.cancel(b), "pre-snapshot cancelled ids stay dead");
        let c = q.push(t(5), 'x');
        assert_eq!(c, EventId(2), "seq counter resumes at snapshot value");
    }

    #[test]
    fn snapshot_excludes_cancelled_and_survives_multiple_restores() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        let dead = q.push(t(20), 2);
        q.push(t(30), 3);
        q.cancel(dead);
        let snap = q.snapshot();
        assert_eq!(snap.len(), 2);
        for _ in 0..3 {
            q.restore(&snap);
            assert_eq!(q.pop(), Some((t(10), 1)));
            assert_eq!(q.pop(), Some((t(30), 3)));
            assert_eq!(q.pop(), None);
        }
    }

    mod differential {
        use super::super::oracle::HeapEventQueue;
        use super::*;
        use proptest::prelude::*;

        /// One queue operation in a random interleaving.
        #[derive(Debug, Clone)]
        enum Op {
            /// Push at a deadline anywhere in a 5 ms horizon.
            Push(u64),
            /// Cancel the n-th id handed out so far (mod count).
            Cancel(usize),
            Pop,
            Peek,
            Clear,
            /// Capture both queues' state.
            Snapshot,
            /// Rewind both queues to the last snapshot (no-op if none).
            Restore,
            /// Rewind each queue to the *other* implementation's last
            /// snapshot: the two hold their entries in different orders,
            /// so this checks that `restore` does not depend on order.
            RestoreCrossed,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            // Repeated arms approximate weights (the vendored `prop_oneof!`
            // has no weight syntax): pushes and pops dominate, clears rare.
            prop_oneof![
                (0u64..5_000_000).prop_map(Op::Push),
                (0u64..5_000_000).prop_map(Op::Push),
                (0u64..5_000_000).prop_map(Op::Push),
                (0u64..5_000_000).prop_map(Op::Push),
                (0u64..5_000_000).prop_map(Op::Push),
                (0usize..64).prop_map(Op::Cancel),
                (0usize..64).prop_map(Op::Cancel),
                Just(Op::Pop),
                Just(Op::Pop),
                Just(Op::Pop),
                Just(Op::Peek),
                Just(Op::Peek),
                Just(Op::Clear),
                Just(Op::Snapshot),
                Just(Op::Restore),
                Just(Op::RestoreCrossed),
            ]
        }

        /// Last snapshot of both queues plus the id vectors valid at
        /// snapshot time (post-snapshot ids are dead after restore,
        /// exactly like post-clear handles).
        type SavedState = (
            QueueSnapshot<u64>,
            QueueSnapshot<u64>,
            Vec<EventId>,
            Vec<EventId>,
        );

        proptest! {
            /// The sorted-vector queue and the heap oracle agree on every
            /// observable of every operation, for arbitrary interleavings
            /// of pushes, cancels, pops, peeks, clears and restores
            /// (including restores from each other's snapshots).
            #[test]
            fn queue_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                let mut queue = EventQueue::new();
                let mut heap = HeapEventQueue::new();
                let mut queue_ids = Vec::new();
                let mut heap_ids = Vec::new();
                let mut saved: Option<SavedState> = None;
                for op in ops {
                    match op {
                        Op::Push(at) => {
                            let q = queue.push(t(at), at);
                            let h = heap.push(t(at), at);
                            prop_assert_eq!(q, h, "ids must agree");
                            queue_ids.push(q);
                            heap_ids.push(h);
                        }
                        Op::Cancel(n) => {
                            if !queue_ids.is_empty() {
                                let i = n % queue_ids.len();
                                prop_assert_eq!(
                                    queue.cancel(queue_ids[i]),
                                    heap.cancel(heap_ids[i])
                                );
                            }
                        }
                        Op::Pop => prop_assert_eq!(queue.pop(), heap.pop()),
                        Op::Peek => prop_assert_eq!(queue.peek_time(), heap.peek_time()),
                        Op::Clear => {
                            queue.clear();
                            heap.clear();
                            queue_ids.clear();
                            heap_ids.clear();
                        }
                        Op::Snapshot => {
                            let (q, h) = (queue.snapshot(), heap.snapshot());
                            prop_assert_eq!(q.len(), h.len());
                            prop_assert_eq!(q.len(), queue.len());
                            saved = Some((q, h, queue_ids.clone(), heap_ids.clone()));
                        }
                        Op::Restore => {
                            if let Some((q, h, qids, hids)) = &saved {
                                queue.restore(q);
                                heap.restore(h);
                                queue_ids = qids.clone();
                                heap_ids = hids.clone();
                            }
                        }
                        Op::RestoreCrossed => {
                            if let Some((q, h, qids, hids)) = &saved {
                                queue.restore(h);
                                heap.restore(q);
                                queue_ids = hids.clone();
                                heap_ids = qids.clone();
                            }
                        }
                    }
                    prop_assert_eq!(queue.len(), heap.len());
                    prop_assert_eq!(queue.is_empty(), heap.is_empty());
                }
                // Drain both to the end: full delivery order must agree.
                loop {
                    let (q, h) = (queue.pop(), heap.pop());
                    prop_assert_eq!(&q, &h);
                    if q.is_none() {
                        break;
                    }
                }
            }
        }
    }
}

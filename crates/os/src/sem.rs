//! FIFO kernel semaphores.
//!
//! Linux 2.6 serializes directory-entry mutations with the parent inode's
//! `i_sem`, a FIFO-queued semaphore. Queue *order* is the heart of the
//! paper's gedit analysis: "if the attacker's unlink is invoked before
//! gedit's chmod … chmod as well as the following chown will be delayed" —
//! whoever enqueues first wins, so the model must preserve strict FIFO
//! hand-off.

use crate::ids::{Pid, SemId};
use std::collections::VecDeque;
use tocttou_sim::time::{SimDuration, SimTime};

#[derive(Debug, Clone, Default)]
struct SemState {
    holder: Option<Pid>,
    /// When the current holder acquired (directly or by hand-off): the
    /// one clock behind every reported hold time.
    hold_since: SimTime,
    waiters: VecDeque<Pid>,
}

/// The kernel's semaphore table, indexed by [`SemId`].
///
/// Semaphores are created lazily on first touch; ids come from the VFS
/// (one per inode).
#[derive(Debug, Default)]
pub struct SemTable {
    sems: Vec<SemState>,
}

impl Clone for SemTable {
    fn clone(&self) -> Self {
        SemTable {
            sems: self.sems.clone(),
        }
    }

    /// Keeps this table's slots and wait-queue buffers (the round-pool
    /// restore path): slots past `source`'s length stay as idle slots,
    /// which answer every query like missing ones (see
    /// [`reset`](Self::reset)).
    fn clone_from(&mut self, source: &Self) {
        self.reset();
        if self.sems.len() < source.sems.len() {
            self.sems.resize_with(source.sems.len(), SemState::default);
        }
        for (s, src) in self.sems.iter_mut().zip(&source.sems) {
            s.holder = src.holder;
            s.hold_since = src.hold_since;
            s.waiters.extend(&src.waiters);
        }
    }
}

impl SemTable {
    /// An empty table.
    pub fn new() -> Self {
        SemTable::default()
    }

    fn ensure(&mut self, sem: SemId) -> &mut SemState {
        if sem.index() >= self.sems.len() {
            self.sems.resize_with(sem.index() + 1, SemState::default);
        }
        &mut self.sems[sem.index()]
    }

    /// Whether the semaphore is currently held.
    pub fn is_held(&self, sem: SemId) -> bool {
        self.sems
            .get(sem.index())
            .is_some_and(|s| s.holder.is_some())
    }

    /// The current holder, if any.
    pub fn holder(&self, sem: SemId) -> Option<Pid> {
        self.sems.get(sem.index()).and_then(|s| s.holder)
    }

    /// Number of queued waiters.
    pub fn waiter_count(&self, sem: SemId) -> usize {
        self.sems.get(sem.index()).map_or(0, |s| s.waiters.len())
    }

    /// Attempts to acquire at `now`; on contention the caller is appended
    /// to the FIFO wait queue. Returns `true` if acquired immediately.
    ///
    /// # Panics
    ///
    /// Panics if `pid` already holds or already waits on the semaphore
    /// (recursive acquisition is a kernel bug, not a runtime condition).
    pub fn acquire_or_enqueue(&mut self, sem: SemId, pid: Pid, now: SimTime) -> bool {
        let state = self.ensure(sem);
        assert_ne!(state.holder, Some(pid), "{pid} re-acquiring {sem}");
        assert!(
            !state.waiters.contains(&pid),
            "{pid} already waiting on {sem}"
        );
        if state.holder.is_none() {
            state.holder = Some(pid);
            state.hold_since = now;
            true
        } else {
            state.waiters.push_back(pid);
            false
        }
    }

    /// Releases the semaphore at `now` and hands it to the next FIFO
    /// waiter. Returns how long `pid` held it and the new holder, whom the
    /// scheduler must wake. The hand-off is immediate: the waiter becomes
    /// the holder at release time (no barging).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not the current holder.
    pub fn release(&mut self, sem: SemId, pid: Pid, now: SimTime) -> (SimDuration, Option<Pid>) {
        let state = self.ensure(sem);
        assert_eq!(state.holder, Some(pid), "{pid} releasing un-held {sem}");
        let held = now.saturating_since(state.hold_since);
        state.holder = state.waiters.pop_front();
        state.hold_since = now;
        (held, state.holder)
    }

    /// Removes a waiter (e.g. a process killed while blocked).
    ///
    /// Returns `true` if the pid was queued.
    pub fn cancel_wait(&mut self, sem: SemId, pid: Pid) -> bool {
        let state = self.ensure(sem);
        let before = state.waiters.len();
        state.waiters.retain(|&w| w != pid);
        state.waiters.len() != before
    }

    /// Releases every semaphore and empties all wait queues, retaining
    /// allocated capacity.
    ///
    /// A reset table is observably identical to a fresh one (slots are
    /// created lazily and an idle slot answers every query like a missing
    /// one), so round pools can recycle tables without affecting
    /// determinism.
    pub fn reset(&mut self) {
        for s in &mut self.sems {
            s.holder = None;
            s.waiters.clear();
        }
    }

    /// All semaphores currently held by `pid` (used to assert clean exits).
    pub fn held_by(&self, pid: Pid) -> Vec<SemId> {
        self.sems
            .iter()
            .enumerate()
            .filter(|(_, s)| s.holder == Some(pid))
            .map(|(i, _)| SemId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn reset_behaves_like_fresh_table() {
        let mut t = SemTable::new();
        assert!(t.acquire_or_enqueue(SemId(2), Pid(1), T0));
        assert!(!t.acquire_or_enqueue(SemId(2), Pid(2), T0));
        t.reset();
        assert!(!t.is_held(SemId(2)));
        assert_eq!(t.waiter_count(SemId(2)), 0);
        assert!(t.held_by(Pid(1)).is_empty());
        assert!(t.acquire_or_enqueue(SemId(2), Pid(3), T0), "slot reusable");
    }

    #[test]
    fn clone_from_behaves_like_clone_and_keeps_buffers() {
        let mut source = SemTable::new();
        assert!(source.acquire_or_enqueue(SemId(1), Pid(1), T0));
        assert!(!source.acquire_or_enqueue(SemId(1), Pid(2), T0));
        let mut pooled = SemTable::new();
        for pid in 1..=4 {
            pooled.acquire_or_enqueue(SemId(5), Pid(pid), T0);
        }
        let (slots, queue) = (pooled.sems.capacity(), pooled.sems[5].waiters.capacity());
        pooled.clone_from(&source);
        assert_eq!(pooled.sems.capacity(), slots, "slot buffer kept");
        assert_eq!(
            pooled.sems[5].waiters.capacity(),
            queue,
            "queue buffer kept"
        );
        for sem in (0..8).map(SemId) {
            assert_eq!(pooled.holder(sem), source.holder(sem));
            assert_eq!(pooled.waiter_count(sem), source.waiter_count(sem));
        }
        assert!(
            pooled.held_by(Pid(4)).is_empty(),
            "longer pooled table idle"
        );
        assert_eq!(pooled.release(SemId(1), Pid(1), T0).1, Some(Pid(2)));
    }

    #[test]
    fn uncontended_acquire() {
        let mut t = SemTable::new();
        assert!(t.acquire_or_enqueue(SemId(0), Pid(1), T0));
        assert!(t.is_held(SemId(0)));
        assert_eq!(t.holder(SemId(0)), Some(Pid(1)));
        assert_eq!(t.release(SemId(0), Pid(1), T0).1, None);
        assert!(!t.is_held(SemId(0)));
    }

    #[test]
    fn fifo_handoff_order() {
        let mut t = SemTable::new();
        assert!(t.acquire_or_enqueue(SemId(3), Pid(1), T0));
        assert!(!t.acquire_or_enqueue(SemId(3), Pid(2), T0));
        assert!(!t.acquire_or_enqueue(SemId(3), Pid(3), T0));
        assert_eq!(t.waiter_count(SemId(3)), 2);
        // Strict FIFO: 2 before 3.
        assert_eq!(t.release(SemId(3), Pid(1), T0).1, Some(Pid(2)));
        assert_eq!(t.holder(SemId(3)), Some(Pid(2)));
        assert_eq!(t.release(SemId(3), Pid(2), T0).1, Some(Pid(3)));
        assert_eq!(t.release(SemId(3), Pid(3), T0).1, None);
    }

    #[test]
    fn hold_times_run_from_acquire_or_hand_off() {
        let us = SimTime::from_micros;
        let mut t = SemTable::new();
        assert!(t.acquire_or_enqueue(SemId(1), Pid(1), us(10)));
        assert!(!t.acquire_or_enqueue(SemId(1), Pid(2), us(12)));
        let (held, next) = t.release(SemId(1), Pid(1), us(25));
        assert_eq!((held, next), (SimDuration::from_micros(15), Some(Pid(2))));
        let (held, next) = t.release(SemId(1), Pid(2), us(31));
        assert_eq!((held, next), (SimDuration::from_micros(6), None));
    }

    #[test]
    fn independent_semaphores() {
        let mut t = SemTable::new();
        assert!(t.acquire_or_enqueue(SemId(0), Pid(1), T0));
        assert!(
            t.acquire_or_enqueue(SemId(1), Pid(2), T0),
            "different sem is free"
        );
    }

    #[test]
    fn cancel_wait_removes_waiter() {
        let mut t = SemTable::new();
        t.acquire_or_enqueue(SemId(0), Pid(1), T0);
        t.acquire_or_enqueue(SemId(0), Pid(2), T0);
        t.acquire_or_enqueue(SemId(0), Pid(3), T0);
        assert!(t.cancel_wait(SemId(0), Pid(2)));
        assert!(!t.cancel_wait(SemId(0), Pid(2)), "already removed");
        assert_eq!(t.release(SemId(0), Pid(1), T0).1, Some(Pid(3)));
    }

    #[test]
    fn held_by_lists_holdings() {
        let mut t = SemTable::new();
        t.acquire_or_enqueue(SemId(0), Pid(9), T0);
        t.acquire_or_enqueue(SemId(2), Pid(9), T0);
        t.acquire_or_enqueue(SemId(1), Pid(4), T0);
        assert_eq!(t.held_by(Pid(9)), vec![SemId(0), SemId(2)]);
        assert_eq!(t.held_by(Pid(4)), vec![SemId(1)]);
        assert!(t.held_by(Pid(5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "re-acquiring")]
    fn recursive_acquire_panics() {
        let mut t = SemTable::new();
        t.acquire_or_enqueue(SemId(0), Pid(1), T0);
        t.acquire_or_enqueue(SemId(0), Pid(1), T0);
    }

    #[test]
    #[should_panic(expected = "releasing un-held")]
    fn foreign_release_panics() {
        let mut t = SemTable::new();
        t.acquire_or_enqueue(SemId(0), Pid(1), T0);
        t.release(SemId(0), Pid(2), T0);
    }
}

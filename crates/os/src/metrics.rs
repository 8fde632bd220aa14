//! Kernel observability: scheduler counters and latency histograms.
//!
//! The paper's argument runs through measured kernel internals — how long a
//! victim's check-to-use window stays open, how often the attacker blocks
//! on a per-inode `i_sem`, how the scheduler places wakeups on idle CPUs.
//! This module makes those internals first-class: a [`KernelMetrics`]
//! instance lives inside every [`Kernel`](crate::kernel::Kernel) and reads
//! the same kernel events as the trace (scheduler, semaphore, trap, VFS
//! commit and syscall facts) through one gated `observe` call per event.
//! Every latency it records is an interval the kernel has already closed:
//! run-queue delay, semaphore wait and hold, syscall duration. The
//! accumulator keeps no clock of its own. Nothing in the hot path
//! allocates: counters are plain `u64`s, histograms are `Copy` arrays, and
//! per-semaphore slots live in a `Vec` that a pooled kernel retains across
//! rounds.
//!
//! At the end of a round, [`KernelMetrics::accumulate_into`] folds the
//! accumulator into a running [`MetricsSnapshot`] (or
//! [`snapshot`](KernelMetrics::snapshot) produces a standalone one). The
//! merge is pure integer accumulation over key-sorted histograms —
//! commutative and associative, so the Monte-Carlo engine combines
//! per-worker aggregates into a bit-identical result at any `--jobs`
//! value, and in the steady state the per-round fold allocates nothing.
//!
//! Metrics default **on** (see [`MachineSpec::metrics`]); the bench strips
//! them with [`MachineSpec::without_metrics`] to measure overhead against a
//! ≤5% budget.
//!
//! [`MachineSpec::metrics`]: crate::machine::MachineSpec::metrics
//! [`MachineSpec::without_metrics`]: crate::machine::MachineSpec::without_metrics

use crate::event::{KernelEvent, OsEvent};
use crate::ids::SemId;
use crate::process::SyscallName;
use serde::{DeError, Deserialize, Serialize, Value};
use tocttou_sim::metrics::LatencyHistogram;
use tocttou_sim::time::SimTime;

/// Monotonic scheduler/kernel event counters for one kernel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedCounters {
    /// Dispatches of a process onto a CPU.
    pub context_switches: u64,
    /// Dispatches onto a different CPU than the process last ran on.
    pub cpu_migrations: u64,
    /// Wakeups placed directly on an idle CPU (the multiprocessor
    /// mechanism behind the paper's Section 6 findings).
    pub idle_wakes: u64,
    /// Time-slice preemptions that moved a running process back to the
    /// ready queue.
    pub preemptions: u64,
    /// Page-fault trap phases executed (cold libc wrapper pages).
    pub traps: u64,
    /// VFS commit steps executed on behalf of syscalls.
    pub vfs_ops: u64,
    /// Syscalls denied by the EDGI defense.
    pub edgi_denials: u64,
}

impl SchedCounters {
    fn merge(&mut self, other: &SchedCounters) {
        self.context_switches += other.context_switches;
        self.cpu_migrations += other.cpu_migrations;
        self.idle_wakes += other.idle_wakes;
        self.preemptions += other.preemptions;
        self.traps += other.traps;
        self.vfs_ops += other.vfs_ops;
        self.edgi_denials += other.edgi_denials;
    }
}

/// Index of the run-queue-delay histogram in the [`MetricId`] key space,
/// right after the per-syscall block.
const RUN_QUEUE_KEY: u32 = SyscallName::ALL.len() as u32;
/// First key of the per-semaphore block (wait/hold interleaved).
const FIRST_SEM_KEY: u32 = RUN_QUEUE_KEY + 1;

/// A dense, totally ordered key identifying one latency histogram in a
/// [`MetricsSnapshot`].
///
/// Layout: syscalls occupy `0..15` (by [`SyscallName::index`]), the
/// run-queue delay histogram is next, then each semaphore contributes a
/// wait/hold pair. The total order is what makes snapshot merging a simple
/// sorted-list walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(u32);

impl MetricId {
    /// The run-queue (dispatch) delay histogram.
    pub const RUN_QUEUE: MetricId = MetricId(RUN_QUEUE_KEY);

    /// The duration histogram for one syscall name.
    #[inline]
    pub const fn syscall(name: SyscallName) -> MetricId {
        MetricId(name.index() as u32)
    }

    /// The wait-time histogram of one semaphore.
    #[inline]
    pub const fn sem_wait(sem: SemId) -> MetricId {
        MetricId(FIRST_SEM_KEY + 2 * sem.0)
    }

    /// The hold-time histogram of one semaphore.
    #[inline]
    pub const fn sem_hold(sem: SemId) -> MetricId {
        MetricId(FIRST_SEM_KEY + 2 * sem.0 + 1)
    }

    /// The syscall this key refers to, if it is a syscall histogram.
    pub fn as_syscall(self) -> Option<SyscallName> {
        SyscallName::ALL.get(self.0 as usize).copied()
    }

    /// The `(semaphore, is_hold)` pair, if this is a semaphore histogram.
    pub fn as_sem(self) -> Option<(SemId, bool)> {
        let rel = self.0.checked_sub(FIRST_SEM_KEY)?;
        Some((SemId(rel / 2), rel % 2 == 1))
    }

    /// A stable human-readable label (`"syscall/stat"`, `"run_queue"`,
    /// `"sem/3/wait"`), used by the JSONL export.
    pub fn label(self) -> String {
        if let Some(name) = self.as_syscall() {
            format!("syscall/{name}")
        } else if self == MetricId::RUN_QUEUE {
            "run_queue".to_owned()
        } else {
            let (sem, hold) = self.as_sem().expect("key space is exhaustive");
            format!("sem/{}/{}", sem.0, if hold { "hold" } else { "wait" })
        }
    }

    /// Parses a [`label`](Self::label) back into its key — the inverse the
    /// campaign store relies on when reloading persisted snapshots.
    pub fn parse_label(label: &str) -> Option<MetricId> {
        if let Some(name) = label.strip_prefix("syscall/") {
            return SyscallName::ALL
                .iter()
                .find(|s| s.to_string() == name)
                .map(|&s| MetricId::syscall(s));
        }
        if label == "run_queue" {
            return Some(MetricId::RUN_QUEUE);
        }
        let rest = label.strip_prefix("sem/")?;
        let (num, side) = rest.split_once('/')?;
        let sem = SemId(num.parse().ok()?);
        match side {
            "wait" => Some(MetricId::sem_wait(sem)),
            "hold" => Some(MetricId::sem_hold(sem)),
            _ => None,
        }
    }
}

/// Per-semaphore histogram slot inside [`KernelMetrics`].
#[derive(Debug, Clone, Copy)]
struct SemSlot {
    wait: LatencyHistogram,
    hold: LatencyHistogram,
}

impl SemSlot {
    const EMPTY: SemSlot = SemSlot {
        wait: LatencyHistogram::new(),
        hold: LatencyHistogram::new(),
    };
}

/// The live, kernel-resident metrics accumulator.
///
/// Its one input is gated on `enabled`: a kernel built from
/// [`without_metrics`](crate::machine::MachineSpec::without_metrics) pays
/// one predictable branch per event and nothing else.
#[derive(Debug, Clone)]
pub struct KernelMetrics {
    enabled: bool,
    /// Survive [`reset`](Self::reset): accumulate across pooled rounds
    /// instead of starting each round at zero (see
    /// [`KernelPool::retain_metrics`](crate::kernel::KernelPool::retain_metrics)).
    retain: bool,
    counters: SchedCounters,
    syscalls: [LatencyHistogram; SyscallName::ALL.len()],
    run_queue: LatencyHistogram,
    /// Indexed by [`SemId::index`]; grown lazily, capacity retained by the
    /// kernel pool across rounds.
    sems: Vec<SemSlot>,
}

impl Default for KernelMetrics {
    fn default() -> Self {
        Self::new(true)
    }
}

impl KernelMetrics {
    /// A fresh accumulator.
    pub fn new(enabled: bool) -> Self {
        KernelMetrics {
            enabled,
            retain: false,
            counters: SchedCounters::default(),
            syscalls: [LatencyHistogram::new(); SyscallName::ALL.len()],
            run_queue: LatencyHistogram::new(),
            sems: Vec::new(),
        }
    }

    /// Clears all state for reuse by a pooled kernel, keeping the
    /// per-semaphore `Vec`'s capacity.
    ///
    /// A retaining accumulator (see
    /// [`KernelPool::retain_metrics`](crate::kernel::KernelPool::retain_metrics))
    /// keeps its data: everything here is a pure integer sum, so
    /// accumulating N rounds in place is bit-identical to snapshotting and
    /// merging each round — and costs nothing per round.
    pub(crate) fn reset(&mut self, enabled: bool) {
        self.enabled = enabled;
        if self.retain {
            return;
        }
        self.counters = SchedCounters::default();
        self.syscalls = [LatencyHistogram::new(); SyscallName::ALL.len()];
        self.run_queue = LatencyHistogram::new();
        self.sems.clear();
    }

    /// Clears accumulated data even when the accumulator is retaining.
    ///
    /// Sweep work items share one pool across grid points; between items
    /// the accumulated metrics are snapshotted and then wiped here so the
    /// next point starts from zero, exactly like a fresh pool.
    pub(crate) fn clear_data(&mut self) {
        self.counters = SchedCounters::default();
        self.syscalls = [LatencyHistogram::new(); SyscallName::ALL.len()];
        self.run_queue = LatencyHistogram::new();
        self.sems.clear();
    }

    /// Makes [`reset`](Self::reset) keep accumulated data (pooled batch
    /// loops accumulate across rounds and snapshot once at the end).
    pub(crate) fn set_retain(&mut self, retain: bool) {
        self.retain = retain;
    }

    /// Whether the accumulator is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The scheduler counters.
    #[inline]
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    /// The duration histogram for one syscall.
    pub fn syscall_hist(&self, name: SyscallName) -> &LatencyHistogram {
        &self.syscalls[name.index()]
    }

    /// The run-queue (ready-to-dispatch) delay histogram.
    pub fn run_queue_hist(&self) -> &LatencyHistogram {
        &self.run_queue
    }

    /// The wait-time histogram for a semaphore, if it has been touched.
    pub fn sem_wait_hist(&self, sem: SemId) -> Option<&LatencyHistogram> {
        self.sems.get(sem.index()).map(|s| &s.wait)
    }

    /// The hold-time histogram for a semaphore, if it has been touched.
    pub fn sem_hold_hist(&self, sem: SemId) -> Option<&LatencyHistogram> {
        self.sems.get(sem.index()).map(|s| &s.hold)
    }

    #[inline]
    fn sem_slot(&mut self, sem: SemId) -> &mut SemSlot {
        let idx = sem.index();
        if idx >= self.sems.len() {
            self.sems.resize(idx + 1, SemSlot::EMPTY);
        }
        &mut self.sems[idx]
    }

    /// Folds one kernel fact into the counters and histograms.
    #[inline(always)]
    pub(crate) fn observe(&mut self, now: SimTime, ev: &KernelEvent<'_>) {
        if !self.enabled {
            return;
        }
        let c = &mut self.counters;
        match *ev {
            KernelEvent::Dispatch {
                migrated, queued, ..
            } => {
                c.context_switches += 1;
                c.cpu_migrations += u64::from(migrated);
                self.run_queue.record(queued);
            }
            KernelEvent::IdleWake => c.idle_wakes += 1,
            KernelEvent::Os(OsEvent::Preempt { .. }) => c.preemptions += 1,
            // Counts trap-phase starts; like the trace, a preempted trap
            // phase counts again on resume.
            KernelEvent::Os(OsEvent::Trap { .. }) => c.traps += 1,
            KernelEvent::Os(OsEvent::Commit { .. }) => c.vfs_ops += 1,
            KernelEvent::Os(OsEvent::DefenseDenied { .. }) => c.edgi_denials += 1,
            KernelEvent::SyscallExit { call, entered, .. } => {
                self.syscalls[call.index()].record(now.saturating_since(entered));
            }
            KernelEvent::SemHandoff { sem, waited, .. } => self.sem_slot(sem).wait.record(waited),
            KernelEvent::SemRelease { sem, held, .. } => self.sem_slot(sem).hold.record(held),
            _ => {}
        }
    }

    /// Condenses the accumulator into a mergeable, key-sorted snapshot.
    ///
    /// Only non-empty histograms are kept, so a typical round costs one
    /// small `Vec` allocation.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.accumulate_into(&mut snap);
        snap
    }

    /// Folds the live accumulator straight into `acc`, skipping the
    /// intermediate snapshot.
    ///
    /// This is the Monte-Carlo engine's per-round fast path: in the steady
    /// state (same scenario, so the same metric keys every round) it
    /// allocates nothing — every histogram merges in place through one
    /// monotone cursor walk over `acc`'s key-sorted list.
    pub fn accumulate_into(&self, acc: &mut MetricsSnapshot) {
        acc.counters.merge(&self.counters);
        let mut cursor = 0usize;
        let mut fold = |key: MetricId, h: &LatencyHistogram| {
            while cursor < acc.hists.len() && acc.hists[cursor].0 < key {
                cursor += 1;
            }
            if cursor < acc.hists.len() && acc.hists[cursor].0 == key {
                acc.hists[cursor].1.merge(h);
            } else {
                acc.hists.insert(cursor, (key, *h));
            }
            cursor += 1;
        };
        for name in SyscallName::ALL {
            let h = &self.syscalls[name.index()];
            if !h.is_empty() {
                fold(MetricId::syscall(name), h);
            }
        }
        if !self.run_queue.is_empty() {
            fold(MetricId::RUN_QUEUE, &self.run_queue);
        }
        for (i, slot) in self.sems.iter().enumerate() {
            let sem = SemId(i as u32);
            if !slot.wait.is_empty() {
                fold(MetricId::sem_wait(sem), &slot.wait);
            }
            if !slot.hold.is_empty() {
                fold(MetricId::sem_hold(sem), &slot.hold);
            }
        }
    }
}

/// A condensed, mergeable copy of one kernel run's metrics.
///
/// `hists` is sorted by [`MetricId`] and holds only non-empty histograms;
/// [`merge`](Self::merge) is a sorted-list union with integer accumulation,
/// so folding snapshots is order-independent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Summed scheduler counters.
    pub counters: SchedCounters,
    /// Key-sorted non-empty histograms.
    pub hists: Vec<(MetricId, LatencyHistogram)>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self` (commutative and associative).
    ///
    /// Runs in place: in the steady state where `other`'s keys are already
    /// present (every round of one scenario touches the same metrics) this
    /// allocates nothing — one monotone cursor walk, histogram merges into
    /// existing slots, and an insertion only when a genuinely new key shows
    /// up.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.counters.merge(&other.counters);
        let mut cursor = 0usize;
        for &(key, ref hist) in &other.hists {
            while cursor < self.hists.len() && self.hists[cursor].0 < key {
                cursor += 1;
            }
            if cursor < self.hists.len() && self.hists[cursor].0 == key {
                self.hists[cursor].1.merge(hist);
            } else {
                self.hists.insert(cursor, (key, *hist));
            }
            cursor += 1;
        }
    }

    /// Looks up one histogram by key.
    pub fn hist(&self, id: MetricId) -> Option<&LatencyHistogram> {
        self.hists
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|i| &self.hists[i].1)
    }

    /// Total number of latency samples across all histograms.
    pub fn total_samples(&self) -> u64 {
        self.hists.iter().map(|(_, h)| h.count()).sum()
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize_value(&self) -> Value {
        let hists = self
            .hists
            .iter()
            .map(|(id, h)| {
                let mut fields = vec![("key".to_owned(), Value::Str(id.label()))];
                match h.serialize_value() {
                    Value::Object(inner) => fields.extend(inner),
                    other => fields.push(("hist".to_owned(), other)),
                }
                Value::Object(fields)
            })
            .collect();
        Value::Object(vec![
            ("counters".into(), self.counters.serialize_value()),
            ("hists".into(), Value::Array(hists)),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    /// Rebuilds a snapshot from its serialized form. Histogram keys are
    /// recovered from their labels via [`MetricId::parse_label`] and the
    /// list is re-sorted, so `deserialize(serialize(s)) == s` exactly and
    /// [`merge`](MetricsSnapshot::merge) works on reloaded snapshots.
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let counters = SchedCounters::deserialize_value(
            value
                .get("counters")
                .ok_or_else(|| DeError::msg("snapshot missing field `counters`"))?,
        )?;
        let entries = match value.get("hists") {
            Some(Value::Array(items)) => items,
            Some(_) => return Err(DeError::msg("snapshot `hists` must be an array")),
            None => return Err(DeError::msg("snapshot missing field `hists`")),
        };
        let mut hists = Vec::with_capacity(entries.len());
        for entry in entries {
            let label = match entry.get("key") {
                Some(Value::Str(s)) => s,
                _ => return Err(DeError::msg("histogram entry missing string `key`")),
            };
            let id = MetricId::parse_label(label)
                .ok_or_else(|| DeError::msg(format!("unknown metric label {label:?}")))?;
            // The histogram fields sit flattened beside "key" in the same
            // object, so the entry itself deserializes as a histogram.
            hists.push((id, LatencyHistogram::deserialize_value(entry)?));
        }
        hists.sort_by_key(|&(id, _)| id);
        Ok(MetricsSnapshot { counters, hists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CpuId, Pid};
    use tocttou_sim::time::SimDuration;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn dispatch(migrated: bool, queued: SimDuration) -> KernelEvent<'static> {
        KernelEvent::Dispatch {
            pid: Pid(0),
            cpu: CpuId(0),
            migrated,
            queued,
        }
    }

    fn wait(sem: SemId, waited: SimDuration) -> KernelEvent<'static> {
        KernelEvent::SemHandoff {
            pid: Pid(0),
            sem,
            waited,
        }
    }

    fn hold(sem: SemId, held: SimDuration) -> KernelEvent<'static> {
        KernelEvent::SemRelease {
            pid: Pid(0),
            sem,
            held,
        }
    }

    /// Feeds `evs` at time zero, plus one `call` of `latency`.
    fn feed(m: &mut KernelMetrics, call: SyscallName, latency: SimDuration, evs: &[KernelEvent]) {
        for ev in evs {
            m.observe(SimTime::ZERO, ev);
        }
        let exit = KernelEvent::SyscallExit {
            pid: Pid(0),
            call,
            ok: true,
            entered: SimTime::from_micros(100),
        };
        m.observe(SimTime::from_micros(100) + latency, &exit);
    }

    #[test]
    fn metric_id_key_space_round_trips() {
        for name in SyscallName::ALL {
            let id = MetricId::syscall(name);
            assert_eq!(id.as_syscall(), Some(name));
            assert_eq!(id.as_sem(), None);
            assert_eq!(id.label(), format!("syscall/{name}"));
        }
        assert_eq!(MetricId::RUN_QUEUE.as_syscall(), None);
        assert_eq!(MetricId::RUN_QUEUE.label(), "run_queue");
        let w = MetricId::sem_wait(SemId(3));
        let h = MetricId::sem_hold(SemId(3));
        assert!(MetricId::RUN_QUEUE < w && w < h && h < MetricId::sem_wait(SemId(4)));
        assert_eq!(w.as_sem(), Some((SemId(3), false)));
        assert_eq!(h.as_sem(), Some((SemId(3), true)));
        assert_eq!(w.label(), "sem/3/wait");
        assert_eq!(h.label(), "sem/3/hold");
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut m = KernelMetrics::new(false);
        let evs = [
            dispatch(true, us(5)),
            KernelEvent::IdleWake,
            hold(SemId(0), us(9)),
        ];
        feed(&mut m, SyscallName::Stat, us(4), &evs);
        let snap = m.snapshot();
        assert_eq!(snap.counters, SchedCounters::default());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn snapshot_is_key_sorted_and_skips_empty() {
        let mut m = KernelMetrics::new(true);
        let evs = [hold(SemId(2), us(7)), dispatch(false, us(0))];
        feed(&mut m, SyscallName::Unlink, us(30), &evs);
        let snap = m.snapshot();
        let keys: Vec<_> = snap.hists.iter().map(|&(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 3, "only touched histograms appear");
        assert_eq!(snap.hist(MetricId::sem_hold(SemId(2))).unwrap().count(), 1);
        assert_eq!(snap.hist(MetricId::sem_wait(SemId(2))), None);
        assert_eq!(snap.total_samples(), 3);
    }

    #[test]
    fn merge_is_order_independent_across_disjoint_and_shared_keys() {
        let mut a = KernelMetrics::new(true);
        feed(&mut a, SyscallName::Stat, us(4), &[dispatch(true, us(1))]);
        let mut b = KernelMetrics::new(true);
        let preempt = KernelEvent::Os(OsEvent::Preempt {
            pid: Pid(0),
            cpu: CpuId(0),
        });
        feed(
            &mut b,
            SyscallName::Stat,
            us(8),
            &[wait(SemId(0), us(12)), preempt],
        );

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters.context_switches, 1);
        assert_eq!(ab.counters.preemptions, 1);
        assert_eq!(
            ab.hist(MetricId::syscall(SyscallName::Stat))
                .unwrap()
                .count(),
            2
        );
        assert_eq!(ab.hist(MetricId::sem_wait(SemId(0))).unwrap().count(), 1);
    }

    #[test]
    fn labels_parse_back_to_their_keys() {
        for name in SyscallName::ALL {
            let id = MetricId::syscall(name);
            assert_eq!(MetricId::parse_label(&id.label()), Some(id));
        }
        assert_eq!(
            MetricId::parse_label("run_queue"),
            Some(MetricId::RUN_QUEUE)
        );
        for sem in [SemId(0), SemId(7)] {
            for id in [MetricId::sem_wait(sem), MetricId::sem_hold(sem)] {
                assert_eq!(MetricId::parse_label(&id.label()), Some(id));
            }
        }
        assert_eq!(MetricId::parse_label("syscall/bogus"), None);
        assert_eq!(MetricId::parse_label("sem/x/wait"), None);
        assert_eq!(MetricId::parse_label("sem/1/held"), None);
        assert_eq!(MetricId::parse_label(""), None);
    }

    #[test]
    fn snapshot_serde_round_trip_is_exact() {
        let mut m = KernelMetrics::new(true);
        let evs = [
            dispatch(true, us(1)),
            wait(SemId(2), us(12)),
            hold(SemId(2), us(9)),
            KernelEvent::Os(OsEvent::Preempt {
                pid: Pid(0),
                cpu: CpuId(0),
            }),
            KernelEvent::Os(OsEvent::Trap {
                pid: Pid(0),
                dur: us(3),
            }),
        ];
        feed(&mut m, SyscallName::Stat, us(4), &evs);
        let snap = m.snapshot();
        let back = MetricsSnapshot::deserialize_value(&snap.serialize_value()).unwrap();
        assert_eq!(back, snap);
        let empty =
            MetricsSnapshot::deserialize_value(&MetricsSnapshot::default().serialize_value())
                .unwrap();
        assert_eq!(empty, MetricsSnapshot::default());
    }

    #[test]
    fn hold_time_spans_acquire_to_release() {
        let mut m = KernelMetrics::new(true);
        let mut sems = crate::sem::SemTable::new();
        assert!(sems.acquire_or_enqueue(SemId(1), Pid(3), SimTime::from_micros(10)));
        let (held, _) = sems.release(SemId(1), Pid(3), SimTime::from_micros(25));
        m.observe(SimTime::from_micros(25), &hold(SemId(1), held));
        let h = m.sem_hold_hist(SemId(1)).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_ns(), 15_000);
        assert!(m.sem_wait_hist(SemId(1)).unwrap().is_empty());
    }

    #[test]
    fn syscall_latency_runs_from_entry_to_exit() {
        let mut m = KernelMetrics::new(true);
        feed(&mut m, SyscallName::Rename, us(42), &[]);
        let h = m.syscall_hist(SyscallName::Rename);
        assert_eq!((h.count(), h.sum_ns()), (1, 42_000));
    }
}

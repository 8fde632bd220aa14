//! The simulated kernel: event loop, multiprocessor scheduler, semaphore
//! hand-off, background activity and syscall execution.
//!
//! One [`Kernel`] is one machine running one experiment round. It is
//! deterministic: machine spec + seed + spawned workloads fully determine
//! the trace.
//!
//! ## Scheduling model
//!
//! Round-robin with a fixed time slice over a single global ready queue,
//! with **wake-to-idle-CPU** placement: a process that becomes runnable is
//! dispatched immediately onto an idle CPU when one exists — this is the
//! multiprocessor property the paper exploits ("the attacker can run on a
//! different processor than the victim"). On a uniprocessor the attacker
//! only runs when the victim is suspended, exactly as Section 3.2 assumes.
//!
//! Background kernel activity (soft IRQs, timers) arrives per-CPU as a
//! Poisson process and *pauses* the user process on that CPU without a
//! context switch, mirroring interrupt semantics.

use crate::defense::{DefensePolicy, DefenseState};
use crate::detect::{fs_call_of, DetectionEvent};
use crate::error::OsError;
use crate::event::{KernelEvent, OsEvent};
use crate::forensics::{ForensicsSnapshot, WindowForensics, WindowForensicsMut};
use crate::ids::{CpuId, Gid, Ino, Pid, Uid};
use crate::machine::MachineSpec;
use crate::metrics::KernelMetrics;
use crate::process::{
    Action, LogicCtx, PendingSyscall, ProcBuffers, ProcState, Process, ProcessLogic, RetVal,
    SyscallResult,
};
use crate::sem::SemTable;
use crate::syscall::{compile, CommitStep, CostTable, CpuKind, Phase};
use crate::vfs::{InodeMeta, StatBuf, Vfs};
use crate::window::{CommitClass, FsCommit, RaceWindows};
use std::collections::VecDeque;
use std::sync::Arc;
use tocttou_core::taxonomy::FsCall;
use tocttou_sim::queue::{EventId, EventQueue, QueueSnapshot};
use tocttou_sim::rng::SimRng;
use tocttou_sim::time::{SimDuration, SimTime};
use tocttou_sim::trace::Trace;

/// Maximum zero-time steps a single process may take within one event before
/// the kernel declares it stuck (a logic bug, e.g. an infinite `Marker`
/// loop).
const MAX_ZERO_TIME_STEPS: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    PhaseEnd { pid: Pid },
    SliceExpire { cpu: CpuId },
    TimedWake { pid: Pid },
    BgArrive { cpu: CpuId },
    BgEnd { cpu: CpuId },
}

#[derive(Debug, Clone, Default)]
struct Cpu {
    running: Option<Pid>,
    bg_active: bool,
    slice_event: Option<EventId>,
    /// When the armed slice event fires (valid while `slice_event` is set).
    slice_deadline: SimTime,
}

/// What a handler needs to run a process's next CPU phase in place instead
/// of queueing its `PhaseEnd`: [`Kernel::run_until`]'s stop predicate and
/// time limit, and whether the predicate turned true on the way.
struct InPlace<'s> {
    stop: &'s mut dyn FnMut(&Kernel) -> bool,
    max_time: SimTime,
    stopped: bool,
}

/// Why [`Kernel::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The stop predicate became true.
    StopConditionMet,
    /// Simulated time reached the limit.
    TimedOut,
    /// No events remained (all processes exited or blocked forever).
    Quiescent,
}

/// Reusable kernel buffers for Monte-Carlo round pools.
///
/// One machine per round means one set of heap structures per round —
/// event queue, trace buffer, process and ready vectors, semaphore and
/// filesystem tables. A pool keeps those allocations alive between rounds:
/// [`Kernel::with_pool`] boots a machine on recycled buffers and
/// [`Kernel::recycle`] tears it back down into the pool. Every buffer is
/// restored to an observably-fresh state on reuse (sequence counters
/// restart, tables empty), so pooled rounds are bit-identical to rounds on
/// a brand-new kernel.
#[derive(Default)]
pub struct KernelPool {
    queue: EventQueue<Event>,
    trace: Trace<OsEvent>,
    procs: Vec<Process>,
    cpus: Vec<Cpu>,
    ready: VecDeque<Pid>,
    sems: SemTable,
    vfs: Vfs,
    metrics: KernelMetrics,
    race: RaceWindows,
    /// Per-process containers harvested from the previous round's
    /// processes, handed back out by `spawn`.
    spare: Vec<ProcBuffers>,
}

/// A warm-boot checkpoint: the machine frozen at the **divergence point**,
/// i.e. after everything seed-independent (boot, defense policy, template
/// filesystem) and before the first event whose timing draws from the
/// per-round RNG (background arming, process spawning).
///
/// Produced by [`Kernel::checkpoint`] on a [`Kernel::boot_unarmed`]
/// machine; consumed any number of times by [`Checkpoint::boot`]. The
/// filesystem is captured through the VFS's structural-sharing
/// copy-on-write representation, so both taking and restoring a checkpoint
/// cost O(inode count) reference bumps, not a deep copy — and the
/// checkpoint is `Send + Sync`, so parallel Monte-Carlo workers share one
/// immutable checkpoint across threads.
#[derive(Clone)]
pub struct Checkpoint {
    spec: MachineSpec,
    cost_table: CostTable,
    now: SimTime,
    queue: QueueSnapshot<Event>,
    cpus: Vec<Cpu>,
    ready: VecDeque<Pid>,
    sems: SemTable,
    vfs: Vfs,
    live: usize,
    events_processed: u64,
    defense: DefenseState,
}

impl Checkpoint {
    /// Boots a machine from this checkpoint on the buffers of `pool`, then
    /// arms background activity with a fresh RNG seeded from `seed`.
    ///
    /// The result is byte-identical to [`Kernel::with_pool`] with the same
    /// `seed` followed by the same pre-spawn setup the checkpointed kernel
    /// received: the restored queue is empty with its sequence counter at
    /// zero, so the background arrival events drawn here get the exact
    /// sequence numbers (and therefore tie-breaking order) of a cold boot.
    ///
    /// Per-round state that rides in the pool — event queue, traces,
    /// observer windows, metrics accumulators — is reset explicitly here;
    /// the restored machine takes that state *only* from the checkpoint,
    /// never from whatever round previously used the pool. A checkpoint is
    /// taken before any process runs, so its observers are always in their
    /// boot-reset state and get the same reset as [`Kernel::boot_unarmed`].
    pub fn boot(&self, seed: u64, mut pool: KernelPool) -> Kernel {
        pool.queue.restore(&self.queue);
        pool.reset_round_state(&self.spec);
        pool.ready.clone_from(&self.ready);
        pool.sems.clone_from(&self.sems);
        pool.cpus.clone_from(&self.cpus);
        pool.vfs.clone_from(&self.vfs);
        pool.race.defense = self.defense;
        let mut kernel = Kernel {
            cpus: pool.cpus,
            spec: self.spec.clone(),
            cost_table: self.cost_table,
            now: self.now,
            queue: pool.queue,
            rng: SimRng::seed_from_u64(seed),
            procs: pool.procs,
            ready: pool.ready,
            sems: pool.sems,
            vfs: pool.vfs,
            trace: pool.trace,
            live: self.live,
            events_processed: self.events_processed,
            metrics: pool.metrics,
            race: pool.race,
            spare: pool.spare,
            bg_armed: false,
            stat_memo: None,
        };
        kernel.arm_background();
        kernel
    }

    /// The machine spec the checkpointed kernel was booted from.
    pub fn machine(&self) -> &MachineSpec {
        &self.spec
    }
}

impl KernelPool {
    /// An empty pool; buffers grow on first use and are then retained.
    pub fn new() -> Self {
        KernelPool::default()
    }

    /// Makes the pooled observability accumulators — [`KernelMetrics`] and
    /// [`WindowForensics`] — accumulate **across rounds** instead of
    /// restarting at zero on each [`Kernel::with_pool`].
    ///
    /// Both merges are pure integer sums (plus a min-fold), so N rounds
    /// accumulated in place are bit-identical to N per-round snapshots
    /// merged — this just skips the per-round fold. Batch drivers read the
    /// totals off the retired pool with [`metrics`](Self::metrics) /
    /// [`forensics`](Self::forensics) when the loop ends. The exception to
    /// the pool's "observably fresh on reuse" rule, and deliberately so.
    pub fn retain_metrics(mut self) -> Self {
        self.metrics.set_retain(true);
        self.race.forensics.set_retain(true);
        self
    }

    /// Resets every per-round buffer a boot does not restore from a
    /// checkpoint: traces, process table, metrics and the observers.
    fn reset_round_state(&mut self, spec: &MachineSpec) {
        self.trace.reset();
        self.trace.enable();
        for p in self.procs.drain(..) {
            self.spare.push(p.into_buffers());
        }
        self.metrics.reset(spec.metrics);
        self.race.reset(spec);
    }

    /// The pooled metrics accumulator (the across-rounds total when
    /// [`retain_metrics`](Self::retain_metrics) is active).
    pub fn metrics(&self) -> &KernelMetrics {
        &self.metrics
    }

    /// The pooled window-forensics accumulator (the across-rounds total
    /// when [`retain_metrics`](Self::retain_metrics) is active).
    pub fn forensics(&self) -> WindowForensics<'_> {
        self.race.forensics_view()
    }

    /// Snapshots the accumulated metrics and clears them — even under
    /// [`retain_metrics`](Self::retain_metrics) — so the pool can roll
    /// straight into the next batch from zero.
    ///
    /// The sweep engine's shared worker pools use this at work-item
    /// boundaries: each `(grid point, round block)` item drains its own
    /// metrics total, keeping per-point folds bit-identical to a dedicated
    /// per-point pool while never tearing the pool itself down.
    pub fn drain_metrics(&mut self) -> crate::metrics::MetricsSnapshot {
        let snap = self.metrics.snapshot();
        self.metrics.clear_data();
        snap
    }

    /// Snapshots the accumulated window forensics and clears them — even
    /// under [`retain_metrics`](Self::retain_metrics) — so the pool can
    /// roll straight into the next batch from zero. The forensics
    /// counterpart of [`drain_metrics`](Self::drain_metrics), drained at
    /// the same work-item boundaries.
    pub fn drain_forensics(&mut self) -> ForensicsSnapshot {
        self.race.drain_forensics()
    }
}

/// The simulated machine kernel.
pub struct Kernel {
    spec: MachineSpec,
    /// The fixed syscall costs of `spec`, computed once at boot.
    cost_table: CostTable,
    now: SimTime,
    queue: EventQueue<Event>,
    rng: SimRng,
    procs: Vec<Process>,
    cpus: Vec<Cpu>,
    ready: VecDeque<Pid>,
    sems: SemTable,
    vfs: Vfs,
    trace: Trace<OsEvent>,
    live: usize,
    events_processed: u64,
    metrics: KernelMetrics,
    /// The shared check→use window table and the three observers reading
    /// it: EDGI defense, race detector and window forensics.
    race: RaceWindows,
    spare: Vec<ProcBuffers>,
    /// Whether the per-CPU background arrival events have been armed.
    /// Arming draws from the per-round RNG, so it marks the divergence
    /// point: a [`Checkpoint`] may only be taken while this is `false`.
    bg_armed: bool,
    /// The last `stat`/`lstat` resolution (see [`StatMemo`]). Lives only
    /// inside one round: neither the pool nor a checkpoint carries it.
    stat_memo: Option<StatMemo>,
}

/// A one-entry memo of the inode a `stat` sample resolved to.
///
/// An attacker's checking loop samples the same path, through the same
/// `Arc`, thousands of times per round while its binding does not change.
/// A sample whose path is that `Arc` (pointer-equal; the memo's own clone
/// keeps the address from being reused) with the same `follow` skips the
/// path walk. Only the resolution is memoised: the `StatBuf` is always
/// built from the inode's current metadata, so `chmod`, `chown` and
/// appends show through. Every commit that can change a name binding
/// clears the memo, and so does [`Kernel::vfs_mut`].
struct StatMemo {
    path: Arc<str>,
    follow: bool,
    ino: Result<Ino, OsError>,
}

impl Kernel {
    /// Boots a machine from `spec` with the given RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub fn new(spec: MachineSpec, seed: u64) -> Self {
        Self::with_pool(spec, seed, KernelPool::new())
    }

    /// Boots a machine from `spec` on the buffers of `pool`, consuming it.
    ///
    /// Behaves exactly like [`Kernel::new`] — the pool only donates
    /// allocations. Pair with [`Kernel::recycle`] to run many rounds on
    /// one set of buffers.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub fn with_pool(spec: MachineSpec, seed: u64, pool: KernelPool) -> Self {
        let mut kernel = Self::boot_unarmed(spec, seed, pool);
        kernel.arm_background();
        kernel
    }

    /// Boots a machine whose background activity has **not** been armed
    /// yet, i.e. before the first per-round RNG draw. This is the state a
    /// warm-boot [`Checkpoint`] is taken in: everything seed-independent
    /// (boot, defense policy, filesystem template) can be staged on such a
    /// kernel and snapshotted, and [`Checkpoint::boot`] later replays the
    /// arming with the real round seed.
    ///
    /// The RNG is seeded but untouched; a kernel used only to produce a
    /// checkpoint can pass any seed here.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub fn boot_unarmed(spec: MachineSpec, seed: u64, mut pool: KernelPool) -> Self {
        spec.validate().expect("machine spec must be valid");
        pool.queue.clear();
        pool.reset_round_state(&spec);
        pool.ready.clear();
        pool.sems.reset();
        pool.cpus.clear();
        pool.cpus.resize_with(spec.cpus, Cpu::default);
        pool.vfs.reset();
        Kernel {
            cpus: pool.cpus,
            cost_table: CostTable::new(&spec.costs, spec.speed_factor),
            spec,
            now: SimTime::ZERO,
            queue: pool.queue,
            rng: SimRng::seed_from_u64(seed),
            procs: pool.procs,
            ready: pool.ready,
            sems: pool.sems,
            vfs: pool.vfs,
            trace: pool.trace,
            live: 0,
            events_processed: 0,
            metrics: pool.metrics,
            race: pool.race,
            spare: pool.spare,
            bg_armed: false,
            stat_memo: None,
        }
    }

    /// Arms the per-CPU background arrival events, drawing one exponential
    /// inter-arrival sample per CPU from the kernel RNG. The first
    /// RNG-dependent events of a round; everything before this call is
    /// seed-independent.
    fn arm_background(&mut self) {
        debug_assert!(!self.bg_armed, "background activity armed twice");
        self.bg_armed = true;
        if self.spec.background.is_active() {
            for c in 0..self.cpus.len() {
                let delay = self.sample_bg_interarrival();
                self.queue.push(
                    self.now + delay,
                    Event::BgArrive {
                        cpu: CpuId(c as u16),
                    },
                );
            }
        }
    }

    /// Tears the kernel down into its reusable buffers.
    pub fn recycle(self) -> KernelPool {
        KernelPool {
            queue: self.queue,
            trace: self.trace,
            procs: self.procs,
            cpus: self.cpus,
            ready: self.ready,
            sems: self.sems,
            vfs: self.vfs,
            metrics: self.metrics,
            race: self.race,
            spare: self.spare,
        }
    }

    /// Captures the machine at the divergence point: the full deterministic
    /// prefix — booted scheduler, per-CPU state, semaphore tables, defense
    /// policy and the copy-on-write filesystem — frozen just before the
    /// first per-round RNG draw. [`Checkpoint::boot`] restores it in
    /// O(changed state) and re-runs only the seed-dependent part, producing
    /// a machine byte-identical to a cold [`Kernel::with_pool`] boot given
    /// the same subsequent setup.
    ///
    /// # Panics
    ///
    /// Panics if background activity has already been armed or a process
    /// has been spawned — both consume the per-round RNG, so the machine is
    /// past the divergence point and no longer seed-independent. (Process
    /// logic is also deliberately not cloneable.)
    pub fn checkpoint(&self) -> Checkpoint {
        assert!(
            !self.bg_armed,
            "checkpoint must be taken before background activity is armed \
             (boot via Kernel::boot_unarmed)"
        );
        assert!(
            self.procs.is_empty(),
            "checkpoint must be taken before any process is spawned"
        );
        Checkpoint {
            spec: self.spec.clone(),
            cost_table: self.cost_table,
            now: self.now,
            queue: self.queue.snapshot(),
            cpus: self.cpus.clone(),
            ready: self.ready.clone(),
            sems: self.sems.clone(),
            vfs: self.vfs.clone(),
            live: self.live,
            events_processed: self.events_processed,
            defense: self.race.defense,
        }
    }

    /// Disables tracing (for Monte-Carlo runs where only the outcome
    /// matters). Must be called before spawning for a fully silent run.
    /// The detection trace is unaffected: the detector stays armed (and
    /// its events recorded) even in silent runs, so detector verdicts are
    /// available on every Monte-Carlo round.
    pub fn disable_trace(&mut self) {
        self.trace.disable();
    }

    fn sample_bg_interarrival(&mut self) -> SimDuration {
        let mean = self.spec.background.mean_interarrival_us;
        SimDuration::from_micros_f64(tocttou_sim::dist::sample_exponential_us(
            &mut self.rng,
            mean,
        ))
    }

    /// The filesystem (for setup and outcome inspection).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Mutable filesystem access (experiment setup).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        self.stat_memo = None;
        &mut self.vfs
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace<OsEvent> {
        &self.trace
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine profile.
    pub fn machine(&self) -> &MachineSpec {
        &self.spec
    }

    /// Scheduler state of a process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was never spawned.
    pub fn state_of(&self, pid: Pid) -> ProcState {
        self.procs[pid.index()].state
    }

    /// Number of not-yet-exited processes.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Total kernel events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The semaphore table (read-only, for assertions).
    pub fn sems(&self) -> &SemTable {
        &self.sems
    }

    /// Activates a TOCTTOU defense policy (must be set before the attack
    /// window; typically right after boot).
    pub fn set_defense(&mut self, policy: DefensePolicy) {
        self.race.defense = DefenseState::new(policy);
    }

    /// The defense state (for inspecting denial counts).
    pub fn defense(&self) -> &DefenseState {
        &self.race.defense
    }

    /// The typed detection trace: every TOCTTOU race the passive detector
    /// observed this round, in commit order. See [`crate::detect`].
    pub fn detections(&self) -> &Trace<DetectionEvent> {
        &self.race.detections
    }

    /// The observability layer: scheduler counters and latency histograms
    /// accumulated since boot. See [`crate::metrics`].
    pub fn metrics(&self) -> &KernelMetrics {
        &self.metrics
    }

    /// The window-forensics layer: exact check-to-use window intervals and
    /// per-strike miss distances. See [`crate::forensics`].
    pub fn forensics(&self) -> WindowForensics<'_> {
        self.race.forensics_view()
    }

    /// Mutable forensics access, for exhibits that
    /// [`flush`](WindowForensicsMut::flush) the round's leftovers into the
    /// event log after a run completes.
    pub fn forensics_mut(&mut self) -> WindowForensicsMut<'_> {
        self.race.forensics_view_mut()
    }

    /// Creates a process owned by `uid:gid` running `logic`.
    ///
    /// `pretouch_libc` controls the page-fault model: a long-running program
    /// (the victim editors) has all libc wrapper pages mapped; a freshly
    /// exec'ed attacker does not (attacker v1 pays the trap at its first
    /// `unlink` — Section 6.2.1).
    ///
    /// The process and its trace events share `name` by reference count,
    /// so a caller that spawns one name every round passes a clone of one
    /// `Arc<str>` and the spawn copies no string.
    pub fn spawn(
        &mut self,
        name: impl Into<Arc<str>>,
        uid: Uid,
        gid: Gid,
        pretouch_libc: bool,
        logic: Box<dyn ProcessLogic>,
    ) -> Pid {
        let pid = Pid(self.procs.len() as u32);
        let name = name.into();
        self.observe(KernelEvent::Spawn { pid, name: &name });
        let buffers = self.spare.pop().unwrap_or_default();
        let proc_ = Process::new(pid, name, uid, gid, logic, pretouch_libc, buffers);
        self.procs.push(proc_);
        self.live += 1;
        self.make_ready(pid);
        pid
    }

    /// Runs until `stop` is true, time passes `max_time`, or the event queue
    /// drains.
    ///
    /// `stop` is checked once before every event, and once more before the
    /// run returns. That holds whether the event goes through the queue or
    /// is a phase end run in place (see `advance`): each check sees the
    /// state the queued path would show, so a predicate cannot tell the two
    /// apart.
    pub fn run_until<F: FnMut(&Kernel) -> bool>(
        &mut self,
        mut stop: F,
        max_time: SimTime,
    ) -> RunOutcome {
        loop {
            if stop(self) {
                return RunOutcome::StopConditionMet;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::Quiescent,
                Some(t) if t > max_time => {
                    self.now = max_time;
                    return RunOutcome::TimedOut;
                }
                Some(_) => {}
            }
            let (t, ev) = self.queue.pop().expect("peeked event exists");
            debug_assert!(t >= self.now, "time must be monotone");
            self.now = t;
            self.events_processed += 1;
            let mut in_place = InPlace {
                stop: &mut stop,
                max_time,
                stopped: false,
            };
            self.handle(ev, &mut in_place);
            if in_place.stopped {
                return RunOutcome::StopConditionMet;
            }
        }
    }

    /// Runs until the given process exits (or `max_time`).
    pub fn run_until_exit(&mut self, pid: Pid, max_time: SimTime) -> RunOutcome {
        self.run_until(|k| k.state_of(pid) == ProcState::Exited, max_time)
    }

    /// Runs until all of `pids` have exited (or `max_time`).
    pub fn run_until_all_exit(&mut self, pids: &[Pid], max_time: SimTime) -> RunOutcome {
        let pids = pids.to_vec();
        self.run_until(
            move |k| pids.iter().all(|&p| k.state_of(p) == ProcState::Exited),
            max_time,
        )
    }

    /// Handles one event. The `PhaseEnd` handler and the resume in
    /// `on_bg_end` end by advancing a process, so they hand `in_place` on
    /// and that process's next CPU phases may run in place.
    fn handle(&mut self, ev: Event, in_place: &mut InPlace<'_>) {
        match ev {
            Event::PhaseEnd { pid } => {
                let p = &mut self.procs[pid.index()];
                debug_assert!(matches!(p.state, ProcState::Running(_)));
                p.phase_event = None;
                let done = p.phases.pop_front();
                debug_assert!(matches!(done, Some(Phase::Cpu { .. })));
                self.advance(pid, Some(in_place));
            }
            Event::SliceExpire { cpu } => self.on_slice_expire(cpu),
            Event::TimedWake { pid } => {
                debug_assert_eq!(self.procs[pid.index()].state, ProcState::BlockedTimed);
                self.observe(KernelEvent::Os(OsEvent::Wake { pid }));
                self.make_ready(pid);
            }
            Event::BgArrive { cpu } => self.on_bg_arrive(cpu),
            Event::BgEnd { cpu } => self.on_bg_end(cpu, in_place),
        }
    }

    /// The kernel's one observer entry point: hands `ev` to the metrics
    /// and the trace (as an owned [`OsEvent`], built only while the trace
    /// is enabled). Each observer checks its own gate once.
    ///
    /// Forced inline, with the metrics' own `observe`, so that at each
    /// call site every `match` folds to the one arm its event can take; a
    /// plain `#[inline]` left vi-smp-batch rounds/s a few percent lower.
    #[inline(always)]
    fn observe(&mut self, ev: KernelEvent<'_>) {
        self.metrics.observe(self.now, &ev);
        if self.trace.is_enabled() {
            if let Some(traced) = ev.into_trace() {
                self.trace.record(self.now, traced);
            }
        }
    }

    // ---- scheduling -----------------------------------------------------

    fn idle_cpu(&self) -> Option<CpuId> {
        self.cpus
            .iter()
            .position(|c| c.running.is_none() && !c.bg_active)
            .map(|i| CpuId(i as u16))
    }

    fn make_ready(&mut self, pid: Pid) {
        self.procs[pid.index()].ready_since = self.now;
        if let Some(cpu) = self.idle_cpu() {
            self.observe(KernelEvent::IdleWake);
            self.dispatch(pid, cpu);
        } else {
            self.procs[pid.index()].state = ProcState::Ready;
            self.ready.push_back(pid);
        }
    }

    fn dispatch(&mut self, pid: Pid, cpu: CpuId) {
        debug_assert!(self.cpus[cpu.index()].running.is_none());
        let p = &mut self.procs[pid.index()];
        let migrated = p.last_cpu.is_some_and(|prev| prev != cpu);
        let queued = self.now.saturating_since(p.ready_since);
        p.last_cpu = Some(cpu);
        p.state = ProcState::Running(cpu);
        p.slice_remaining = self.spec.timeslice;
        self.cpus[cpu.index()].running = Some(pid);
        self.observe(KernelEvent::Dispatch {
            pid,
            cpu,
            migrated,
            queued,
        });
        self.arm_slice(cpu, self.now + self.spec.timeslice);
        self.advance(pid, None);
    }

    /// Schedules `cpu`'s slice expiry at `deadline`.
    fn arm_slice(&mut self, cpu: CpuId, deadline: SimTime) {
        let ev = self.queue.push(deadline, Event::SliceExpire { cpu });
        let c = &mut self.cpus[cpu.index()];
        c.slice_event = Some(ev);
        c.slice_deadline = deadline;
    }

    fn on_slice_expire(&mut self, cpu: CpuId) {
        let c = &mut self.cpus[cpu.index()];
        c.slice_event = None;
        let Some(pid) = c.running else {
            return; // raced with a block; nothing to do
        };
        if self.ready.is_empty() {
            // Nobody waiting: renew the slice without a context switch.
            self.arm_slice(cpu, self.now + self.spec.timeslice);
            return;
        }
        // Preempt: charge the elapsed part of the current CPU phase.
        self.pause_current_phase(pid);
        self.observe(KernelEvent::Os(OsEvent::Preempt { pid, cpu }));
        self.procs[pid.index()].state = ProcState::Ready;
        self.procs[pid.index()].ready_since = self.now;
        self.ready.push_back(pid);
        self.cpus[cpu.index()].running = None;
        let next = self.ready.pop_front().expect("checked non-empty");
        self.dispatch(next, cpu);
    }

    /// Cancels the pending PhaseEnd and shrinks the front CPU phase by the
    /// time already consumed.
    fn pause_current_phase(&mut self, pid: Pid) {
        let p = &mut self.procs[pid.index()];
        if let Some(ev) = p.phase_event.take() {
            self.queue.cancel(ev);
            let elapsed = self.now.saturating_since(p.phase_started);
            if let Some(Phase::Cpu { dur, .. }) = p.phases.front_mut() {
                *dur = dur.saturating_sub(elapsed);
            }
        }
    }

    fn on_bg_arrive(&mut self, cpu: CpuId) {
        let duration = self.spec.background.duration.sample(&mut self.rng);
        let end_at = self.now + duration;
        self.observe(KernelEvent::Os(OsEvent::BgStart { cpu }));
        let c = &mut self.cpus[cpu.index()];
        debug_assert!(!c.bg_active, "bg arrivals never overlap");
        c.bg_active = true;
        let slice_deadline = c.slice_deadline;
        if let Some(ev) = c.slice_event.take() {
            self.queue.cancel(ev);
        }
        if let Some(pid) = c.running {
            // Pause the user process in place (interrupt semantics). The
            // remaining slice budget is preserved across the burst —
            // interrupts do not grant a fresh time slice.
            self.pause_current_phase(pid);
            self.procs[pid.index()].state = ProcState::PausedByBg(cpu);
            self.procs[pid.index()].slice_remaining = slice_deadline.saturating_since(self.now);
        }
        self.queue.push(end_at, Event::BgEnd { cpu });
        // Next arrival strictly after this burst ends.
        let next = end_at + self.sample_bg_interarrival();
        self.queue.push(next, Event::BgArrive { cpu });
    }

    fn on_bg_end(&mut self, cpu: CpuId, in_place: &mut InPlace<'_>) {
        self.observe(KernelEvent::Os(OsEvent::BgEnd { cpu }));
        self.cpus[cpu.index()].bg_active = false;
        let resumed = self.cpus[cpu.index()].running;
        if let Some(pid) = resumed {
            debug_assert_eq!(self.procs[pid.index()].state, ProcState::PausedByBg(cpu));
            self.procs[pid.index()].state = ProcState::Running(cpu);
            // Resume with the slice budget left when the burst arrived.
            self.arm_slice(cpu, self.now + self.procs[pid.index()].slice_remaining);
            self.advance(pid, Some(in_place));
        } else if let Some(next) = self.ready.pop_front() {
            self.dispatch(next, cpu);
        }
    }

    // ---- process execution ----------------------------------------------

    /// Drives `pid` (which must be Running) through zero-time phases until
    /// it either starts a timed phase, blocks, or exits.
    ///
    /// With `in_place` (only from a handler whose last act this is), a CPU
    /// phase whose end would be the very next event runs in place instead
    /// of through the queue: see `try_in_place`.
    fn advance(&mut self, pid: Pid, mut in_place: Option<&mut InPlace<'_>>) {
        // A peeked `Cpu` phase stays queued (its end pops it); every
        // other phase is popped and owned here, so commit steps move out of
        // the deque instead of being cloned — they carry path strings, and
        // this loop runs for every event of every round.
        enum Front {
            Exhausted,
            StartCpu(SimDuration, CpuKind),
            Own(Phase),
        }
        // Steps since time last moved forward.
        let mut zero_time_steps = 0;
        while zero_time_steps < MAX_ZERO_TIME_STEPS {
            zero_time_steps += 1;
            debug_assert!(matches!(
                self.procs[pid.index()].state,
                ProcState::Running(_)
            ));
            let front = {
                let phases = &mut self.procs[pid.index()].phases;
                match phases.front() {
                    None => Front::Exhausted,
                    Some(&Phase::Cpu { dur, kind }) => Front::StartCpu(dur, kind),
                    Some(_) => Front::Own(phases.pop_front().expect("front exists")),
                }
            };
            match front {
                Front::Exhausted => {
                    if !self.finish_action_and_fetch_next(pid) {
                        return; // exited
                    }
                }
                Front::StartCpu(dur, kind) => {
                    if kind == CpuKind::Trap {
                        self.observe(KernelEvent::Os(OsEvent::Trap { pid, dur }));
                    }
                    if let Some(ctx) = in_place.as_deref_mut() {
                        if self.try_in_place(pid, self.now + dur, ctx) {
                            if dur > SimDuration::ZERO {
                                zero_time_steps = 0;
                            }
                            continue;
                        }
                    }
                    let p = &mut self.procs[pid.index()];
                    p.phase_started = self.now;
                    let ev = self.queue.push(self.now + dur, Event::PhaseEnd { pid });
                    p.phase_event = Some(ev);
                    return;
                }
                Front::Own(Phase::Cpu { .. }) => unreachable!("cpu phases are peeked"),
                Front::Own(Phase::Acquire(sem)) => {
                    if self.sems.acquire_or_enqueue(sem, pid, self.now) {
                        self.observe(KernelEvent::Os(OsEvent::SemAcquire { pid, sem }));
                        // continue with next phase
                    } else {
                        self.observe(KernelEvent::Os(OsEvent::SemEnqueue { pid, sem }));
                        self.procs[pid.index()].sem_wait_since = self.now;
                        self.procs[pid.index()].state = ProcState::BlockedSem(sem);
                        self.release_cpu(pid);
                        return;
                    }
                }
                Front::Own(Phase::Release(sem)) => {
                    let (held, next) = self.sems.release(sem, pid, self.now);
                    self.observe(KernelEvent::SemRelease { pid, sem, held });
                    if let Some(next_holder) = next {
                        let waited = self
                            .now
                            .saturating_since(self.procs[next_holder.index()].sem_wait_since);
                        self.observe(KernelEvent::SemHandoff {
                            pid: next_holder,
                            sem,
                            waited,
                        });
                        debug_assert_eq!(
                            self.procs[next_holder.index()].state,
                            ProcState::BlockedSem(sem)
                        );
                        self.make_ready(next_holder);
                    }
                }
                Front::Own(Phase::Commit(step)) => {
                    self.execute_commit(pid, step);
                }
                Front::Own(Phase::Blocked(dur)) => {
                    self.observe(KernelEvent::Os(OsEvent::BlockTimed { pid }));
                    self.procs[pid.index()].state = ProcState::BlockedTimed;
                    self.queue.push(self.now + dur, Event::TimedWake { pid });
                    self.release_cpu(pid);
                    return;
                }
            }
        }
        panic!("{pid} took {MAX_ZERO_TIME_STEPS} zero-time steps: runaway logic");
    }

    /// Runs `pid`'s front CPU phase, ending at `end`, in place when its
    /// `PhaseEnd` would be the next event `run_until` pops, and reports
    /// whether it did.
    ///
    /// That holds when `end` is strictly before the queue head (a tie pops
    /// the earlier-pushed event first), is within `max_time`, and the stop
    /// predicate, checked here as `run_until` would check it before that
    /// pop, is false. Then time moves to `end`, the event is counted, and
    /// the phase is popped, exactly as the queued path would. The phase
    /// can no longer be paused, so it needs no `phase_event`. Debug builds
    /// push the event and check that it pops next.
    fn try_in_place(&mut self, pid: Pid, end: SimTime, ctx: &mut InPlace<'_>) -> bool {
        if end > ctx.max_time || self.queue.peek_time().is_some_and(|head| head <= end) {
            return false;
        }
        if (ctx.stop)(self) {
            ctx.stopped = true;
            return false;
        }
        if cfg!(debug_assertions) {
            let ev = Event::PhaseEnd { pid };
            self.queue.push(end, ev);
            assert_eq!(
                self.queue.pop(),
                Some((end, ev)),
                "in-place event pops next"
            );
        }
        self.now = end;
        self.events_processed += 1;
        let p = &mut self.procs[pid.index()];
        debug_assert!(p.phase_event.is_none());
        let done = p.phases.pop_front();
        debug_assert!(matches!(done, Some(Phase::Cpu { .. })));
        true
    }

    /// Takes the CPU `pid` is running on away from it (the process has
    /// already blocked or exited): cancels the slice, and dispatches the
    /// next ready process unless background work holds the CPU.
    fn release_cpu(&mut self, pid: Pid) {
        let cpu = self
            .cpus
            .iter()
            .position(|c| c.running == Some(pid))
            .expect("released process was running");
        let cpu = CpuId(cpu as u16);
        if let Some(ev) = self.cpus[cpu.index()].slice_event.take() {
            self.queue.cancel(ev);
        }
        self.cpus[cpu.index()].running = None;
        if !self.cpus[cpu.index()].bg_active {
            if let Some(next) = self.ready.pop_front() {
                self.dispatch(next, cpu);
            }
        }
    }

    /// Completes the in-flight action (if a syscall, records its exit) and
    /// fetches the next action from the logic. Returns `false` if the
    /// process exited.
    fn finish_action_and_fetch_next(&mut self, pid: Pid) -> bool {
        // Close out a completed syscall.
        if let Some(pending) = self.procs[pid.index()].pending.take() {
            let ret = pending.ret.unwrap_or(Ok(RetVal::Unit));
            self.observe(KernelEvent::SyscallExit {
                pid,
                call: pending.name,
                ok: ret.is_ok(),
                entered: pending.entered,
            });
            self.procs[pid.index()].last_result = Some(SyscallResult {
                call: pending.name,
                ret,
            });
        }
        let ctx = LogicCtx { now: self.now, pid };
        let last = self.procs[pid.index()].last_result.take();
        // Split borrow: move the logic out while we call into it so the
        // process table stays borrowable (the logic never touches the
        // kernel directly).
        let mut logic = std::mem::replace(
            &mut self.procs[pid.index()].logic,
            Box::new(|_: &LogicCtx, _: Option<&SyscallResult>| Action::Exit),
        );
        let action = logic.next_action(&ctx, last.as_ref());
        self.procs[pid.index()].logic = logic;

        match action {
            Action::Compute(dur) => {
                let phases = &mut self.procs[pid.index()].phases;
                phases.clear();
                phases.push_back(Phase::Cpu {
                    dur,
                    kind: CpuKind::User,
                });
                true
            }
            Action::Syscall(req) => {
                self.observe(KernelEvent::SyscallEnter {
                    pid,
                    call: req.name(),
                    path: req.primary_path(),
                });
                // Compile into the process's own phase buffer, reusing its
                // allocation across syscalls.
                let mut phases = std::mem::take(&mut self.procs[pid.index()].phases);
                let name = compile(
                    req,
                    &mut self.procs[pid.index()],
                    &self.vfs,
                    &self.sems,
                    &self.spec.costs,
                    &self.cost_table,
                    &mut phases,
                );
                let p = &mut self.procs[pid.index()];
                p.pending = Some(PendingSyscall {
                    name,
                    ret: None,
                    entered: self.now,
                });
                p.phases = phases;
                true
            }
            Action::Marker(label) => {
                self.observe(KernelEvent::Os(OsEvent::Marker { pid, label }));
                self.procs[pid.index()].phases.clear();
                true
            }
            Action::Exit => {
                let held = self.sems.held_by(pid);
                assert!(held.is_empty(), "{pid} exited holding semaphores {held:?}");
                self.observe(KernelEvent::Os(OsEvent::Exit { pid }));
                self.race.forget_process(pid);
                self.procs[pid.index()].state = ProcState::Exited;
                self.live -= 1;
                self.release_cpu(pid);
                false
            }
        }
    }

    // ---- commits ---------------------------------------------------------

    fn set_ret(&mut self, pid: Pid, ret: Result<RetVal, OsError>) {
        let failed = ret.is_err();
        if let Some(pending) = self.procs[pid.index()].pending.as_mut() {
            let call = pending.name;
            pending.ret = Some(ret);
            self.observe(KernelEvent::Os(OsEvent::Commit { pid, call }));
        }
        if failed {
            // Short-circuit the rest of the syscall, but keep semaphore
            // releases so held locks are always dropped.
            let p = &mut self.procs[pid.index()];
            p.phases.retain(|ph| matches!(ph, Phase::Release(_)));
        }
    }

    /// Reports one classified filesystem commit to the shared window table
    /// and its observers.
    fn fs_commit(&mut self, pid: Pid, path: &Arc<str>, call: FsCall, class: CommitClass) {
        let c = FsCommit {
            pid,
            path,
            call,
            class,
        };
        self.race.commit(c, self.now);
    }

    /// EDGI: denies the in-flight use of `path` if its window was
    /// interposed since the check, reporting the blocked use first.
    /// Returns whether the use was denied.
    fn edgi_deny(&mut self, pid: Pid, path: &Arc<str>, call: FsCall) -> bool {
        if !self.race.edgi_denies(pid, path) {
            return false;
        }
        self.fs_commit(pid, path, call, CommitClass::Use { denied: true });
        if let Some(pending) = self.procs[pid.index()].pending.as_ref() {
            let call = pending.name;
            self.observe(KernelEvent::Os(OsEvent::DefenseDenied { pid, call }));
        }
        self.set_ret(pid, Err(OsError::Eacces));
        true
    }

    /// `stat` (`follow`) or `lstat` of `path`, resolving through the
    /// one-entry [`StatMemo`]. Debug builds check every sample against the
    /// uncached [`Vfs::stat`] / [`Vfs::lstat`].
    fn stat_sample(&mut self, path: &Arc<str>, follow: bool) -> Result<StatBuf, OsError> {
        let ino = match &self.stat_memo {
            Some(m) if m.follow == follow && Arc::ptr_eq(&m.path, path) => m.ino,
            _ => {
                let ino = self.vfs.stat_target(path, follow);
                self.stat_memo = Some(StatMemo {
                    path: Arc::clone(path),
                    follow,
                    ino,
                });
                ino
            }
        };
        let r = ino.and_then(|ino| self.vfs.stat_of(ino, follow));
        debug_assert_eq!(
            r,
            if follow {
                self.vfs.stat(path)
            } else {
                self.vfs.lstat(path)
            },
            "memoised stat of {path} diverged from the uncached walk"
        );
        r
    }

    fn execute_commit(&mut self, pid: Pid, step: CommitStep) {
        use CommitClass::{Check, Mutation, Use};
        if step.rebinds() {
            self.stat_memo = None;
        }
        let (uid, gid) = {
            let p = &self.procs[pid.index()];
            (p.uid, p.gid)
        };
        let meta = InodeMeta {
            uid,
            gid,
            mode: 0o644,
        };
        match step {
            CommitStep::StatSample { path, follow } => {
                let r = self.stat_sample(&path, follow);
                // stat/lstat/access compile to the same sample; recover the
                // taxonomy call from the syscall in flight.
                let check = self.procs[pid.index()]
                    .pending
                    .as_ref()
                    .and_then(|p| fs_call_of(p.name))
                    .unwrap_or(FsCall::Stat);
                self.fs_commit(pid, &path, check, Check);
                self.set_ret(pid, r.map(RetVal::Stat));
            }
            CommitStep::CreateFile { path } => {
                let r = self.vfs.create_file(&path, meta).map(|ino| {
                    self.fs_commit(pid, &path, FsCall::Creat, Mutation);
                    self.fs_commit(pid, &path, FsCall::Creat, Check);
                    RetVal::Fd(self.procs[pid.index()].alloc_fd(ino))
                });
                self.set_ret(pid, r);
            }
            CommitStep::OpenExisting { path } => {
                if self.edgi_deny(pid, &path, FsCall::Open) {
                    return;
                }
                let r = self.vfs.open_existing(&path).map(|ino| {
                    // The use consumes the window before the open re-checks it.
                    self.fs_commit(pid, &path, FsCall::Open, Use { denied: false });
                    self.fs_commit(pid, &path, FsCall::Open, Check);
                    RetVal::Fd(self.procs[pid.index()].alloc_fd(ino))
                });
                self.set_ret(pid, r);
            }
            CommitStep::Append { fd, bytes } => {
                let r = match self.procs[pid.index()].fds.get(&fd).copied() {
                    Some(ino) => self.vfs.append(ino, bytes).map(RetVal::Size),
                    None => Err(OsError::Ebadf),
                };
                self.set_ret(pid, r);
            }
            CommitStep::CloseFd { fd } => {
                let r = if self.procs[pid.index()].fds.remove(&fd).is_some() {
                    Ok(RetVal::Unit)
                } else {
                    Err(OsError::Ebadf)
                };
                self.set_ret(pid, r);
            }
            CommitStep::UnlinkDetach { path } => {
                match self.vfs.unlink_detach(&path) {
                    Ok((_ino, size)) => {
                        self.fs_commit(pid, &path, FsCall::Unlink, Mutation);
                        // Truncation tail goes after the Release that is now
                        // at the queue front.
                        let tail = self
                            .spec
                            .costs
                            .truncate_cost(size)
                            .mul_f64(self.spec.speed_factor);
                        let p = &mut self.procs[pid.index()];
                        debug_assert!(matches!(p.phases.front(), Some(Phase::Release(_))));
                        let insert_at = 1.min(p.phases.len());
                        p.phases.insert(
                            insert_at,
                            Phase::Cpu {
                                dur: tail,
                                kind: CpuKind::Kernel,
                            },
                        );
                        self.set_ret(pid, Ok(RetVal::Unit));
                    }
                    Err(e) => self.set_ret(pid, Err(e)),
                }
            }
            CommitStep::SymlinkCreate { target, linkpath } => {
                let r = self.vfs.symlink(target, &linkpath, (uid, gid)).map(|_| {
                    self.fs_commit(pid, &linkpath, FsCall::Symlink, Mutation);
                    RetVal::Unit
                });
                self.set_ret(pid, r);
            }
            CommitStep::LinkCreate { existing, linkpath } => {
                let r = self.vfs.link(&existing, &linkpath).map(|_ino| {
                    self.fs_commit(pid, &linkpath, FsCall::Link, Mutation);
                    RetVal::Unit
                });
                self.set_ret(pid, r);
            }
            CommitStep::RenameCommit { from, to } => {
                let r = self.vfs.rename(&from, &to).map(|_| {
                    self.fs_commit(pid, &from, FsCall::Rename, Mutation);
                    self.fs_commit(pid, &to, FsCall::Rename, Mutation);
                    self.fs_commit(pid, &to, FsCall::Rename, Check);
                    RetVal::Unit
                });
                self.set_ret(pid, r);
            }
            CommitStep::Chmod { path, mode } => {
                if self.edgi_deny(pid, &path, FsCall::Chmod) {
                    return;
                }
                let r = self.vfs.chmod(&path, mode).map(|_| RetVal::Unit);
                if r.is_ok() {
                    self.fs_commit(pid, &path, FsCall::Chmod, Use { denied: false });
                }
                self.set_ret(pid, r);
            }
            CommitStep::Chown { path, uid, gid } => {
                if self.edgi_deny(pid, &path, FsCall::Chown) {
                    return;
                }
                let r = self.vfs.chown(&path, uid, gid).map(|_| RetVal::Unit);
                if r.is_ok() {
                    self.fs_commit(pid, &path, FsCall::Chown, Use { denied: false });
                }
                self.set_ret(pid, r);
            }
            CommitStep::Mkdir { path } => {
                let r = self.vfs.mkdir(&path, meta).map(|_| RetVal::Unit);
                self.set_ret(pid, r);
            }
            CommitStep::Readlink { path } => {
                let r = self.vfs.readlink(&path).map(RetVal::Path);
                self.set_ret(pid, r);
            }
            CommitStep::Nop => self.set_ret(pid, Ok(RetVal::Unit)),
            CommitStep::Fail(e) => self.set_ret(pid, Err(e)),
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("machine", &self.spec.name)
            .field("now", &self.now)
            .field("live", &self.live)
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

//! The scenario compiler: declarative syscall-trace specs for victims and
//! attackers, lowered onto the existing [`Scenario`] machinery.
//!
//! Every process a [`Scenario`] runs is written here, as **data**: a
//! [`ScenarioSpec`] lists the victim's syscall trace ([`Step`]s — sampled
//! think time, jittered compute gaps, guarded calls, chunked write loops
//! with an optional per-chunk I/O stall, a close), the attacker programs
//! ([`AttackerProfile`] — a detect, timer or shared-flag trigger, a strike
//! trace and an optional rehearsal on a decoy), the expected taxonomy
//! pair, the extra filesystem state, and the ground-truth success
//! predicate. Every call is the kernel's own [`SyscallRequest`], which
//! the interpreters issue as written; only the write loop and the close
//! fill in the descriptor the last `open`/`creat` returned.
//! [`ScenarioSpec::compile`] lowers the spec into a [`Scenario`]
//! whose victim and attackers are interpreted step machines ([`DslVictim`],
//! [`DslAttacker`]); everything downstream (Monte-Carlo engine,
//! checkpointing, sweeps, detector ground truth) runs them unchanged.
//!
//! The [`library`] module holds the paper's programs — vi and gedit's
//! save sequences, attackers v1 and v2, the hardlink swap and the
//! pipelined pair — and mass-produces victims across the taxonomy: ~20
//! lines of spec per new victim. It also holds step lists that run
//! outside any [`Scenario`], on a kernel the caller builds by hand
//! ([`DslVictim::new`]): rpm's install, whose database flush sleeps
//! inside its window ([`SyscallRequest::Sleep`]), sendmail's mailbox
//! delivery, and a check→window→use victim for every runnable taxonomy
//! pair.
//! `tests/golden/scenarios.txt` pins the paper's scenarios, and
//! `tests/golden/victims.txt` those three victims, to the outputs of the
//! hand-written state machines the step lists replaced (trace,
//! detections, `McOutcome`, final files).

use crate::scenario::{Layout, Scenario};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tocttou_core::taxonomy::TocttouPair;
use tocttou_os::defense::DefensePolicy;
use tocttou_os::detect::fs_call_of;
use tocttou_os::ids::Fd;
use tocttou_os::machine::MachineSpec;
use tocttou_os::process::{Action, LogicCtx, ProcessLogic, SyscallRequest, SyscallResult};
use tocttou_os::vfs::{InodeMeta, StatBuf, Vfs};
use tocttou_sim::dist::{sample_standard_normal, DurationDist};
use tocttou_sim::rng::SimRng;
use tocttou_sim::time::SimDuration;

/// A guard evaluated on a call's result; failing the guard makes the
/// victim abort its trace (exit without issuing the remaining steps).
///
/// This models the defensive check real victims perform — sendmail's
/// "abort if lstat shows a symlink", a cron job's "only touch files the
/// user owns" — and is what makes the ground truth exact: an attacker who
/// strikes *before* the check is seen by the check itself, so the victim
/// backs off and the round counts as neither a success nor a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No guard: proceed regardless of the result.
    Any,
    /// Proceed only if the (followed) stat result reports this owner uid.
    UidIs(u32),
    /// Proceed only if the stat result exists and is neither a symlink
    /// nor a directory (meaningful after [`SyscallRequest::Lstat`]:
    /// sendmail's check that the mailbox is a plain file).
    NotSymlink,
    /// Proceed only if the call succeeded.
    Succeeds,
}

impl Expect {
    fn holds(self, last: Option<&SyscallResult>) -> bool {
        match self {
            Expect::Any => true,
            Expect::UidIs(uid) => last
                .and_then(|r| r.stat())
                .is_some_and(|st| st.uid.0 == uid),
            Expect::NotSymlink => last
                .and_then(|r| r.stat())
                .is_some_and(|st| !st.is_symlink && !st.is_dir),
            Expect::Succeeds => last.is_some_and(|r| r.is_ok()),
        }
    }
}

/// One step of a victim's declarative trace.
#[derive(Debug, Clone)]
pub enum Step {
    /// Sampled user-space computation (the editing prologue); draws once
    /// from the distribution. A leading `Think(DurationDist::Uniform)` is
    /// the victim's laxity window (see [`CompiledVictim::laxity_window_ns`]).
    Think(DurationDist),
    /// Fixed compute gap with Gaussian jitter: no RNG draw when
    /// `jitter_us <= 0`, one standard-normal draw otherwise.
    Gap {
        /// Base duration.
        base: SimDuration,
        /// Jitter stdev in microseconds.
        jitter_us: f64,
    },
    /// A syscall, optionally guarded by an [`Expect`] on its result. The
    /// kernel's own request, issued as written: descriptor calls go
    /// through [`Step::WriteLoop`] and [`Step::Close`], which fill in the
    /// tracked fd.
    Call {
        /// The call.
        call: SyscallRequest,
        /// Guard on the result; `Expect::Any` for unguarded calls.
        expect: Expect,
    },
    /// A chunked write loop through the tracked fd (vi/gedit's buffer
    /// flush): `bytes` total in `chunk`-sized calls.
    WriteLoop {
        /// Total bytes.
        bytes: u64,
        /// Per-call granularity.
        chunk: u64,
        /// Slow-storage model (the paper's Section 1 enhancement: "using
        /// slow storage devices (e.g. floppy disks)"): after every chunk
        /// the victim blocks on device I/O for this long. `None` =
        /// page-cache-only writes, the paper's main experiments.
        stall: Option<SimDuration>,
    },
    /// `close(fd)` of the tracked fd.
    Close,
}

impl Step {
    /// An unguarded call step.
    pub fn call(call: SyscallRequest) -> Step {
        Step::Call {
            call,
            expect: Expect::Any,
        }
    }

    /// A guarded call step.
    pub fn guarded(call: SyscallRequest, expect: Expect) -> Step {
        Step::Call { call, expect }
    }

    /// A jittered gap of `us` microseconds.
    pub fn gap_us(us: u64, jitter_us: f64) -> Step {
        Step::Gap {
            base: SimDuration::from_micros(us),
            jitter_us,
        }
    }

    /// A page-cache write loop (no I/O stall).
    pub fn write(bytes: u64, chunk: u64) -> Step {
        Step::WriteLoop {
            bytes,
            chunk,
            stall: None,
        }
    }
}

/// The jitter formula of every sampled gap, victim and attacker alike.
fn jittered(base: SimDuration, jitter_us: f64, rng: &mut SimRng) -> SimDuration {
    if jitter_us <= 0.0 {
        return base;
    }
    let us = base.as_micros_f64() + jitter_us * sample_standard_normal(rng);
    SimDuration::from_micros_f64(us)
}

/// How a compiled attacker decides when to strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Spin on `stat(watch)` until it reports a root-owned regular file —
    /// the paper's detection loop (Figures 2 and 4). Use when the
    /// victim's check has an observable effect on the watched path (a
    /// root `creat`, a rename into place).
    RootOwned,
    /// No detection loop: wait `start_delay`, one jittered `check_gap`,
    /// then strike blind. Use against stat-style checks that leave no
    /// observable trace; round-to-round spread comes from the victim's
    /// sampled prologue.
    Timer,
    /// Poll the round's shared flag every `loop_gap` from the moment the
    /// process is spawned (`start_delay` and `check_gap` are unused),
    /// strike once another attacker raises it ([`AttackerProfile::raises_flag`]),
    /// and retry a refused strike call after one more `loop_gap` — the
    /// second thread of Section 7's pipelined attacker, whose `symlink`
    /// fails with `EEXIST` until the first thread's `unlink` detaches the
    /// name.
    Flag,
}

/// A compiled attacker: trigger plus strike trace.
#[derive(Debug, Clone)]
pub struct AttackerProfile {
    /// Process name (shows up in traces, which share this `Arc`).
    pub name: Arc<str>,
    /// Spawn with warm libc pages? (`false` reproduces the paper's v1
    /// page-fault behaviour.)
    pub pretouch: bool,
    /// The path the detection loop stats ([`Trigger::RootOwned`]).
    pub watch: Arc<str>,
    /// When to strike.
    pub trigger: Trigger,
    /// The strike: issued back-to-back once triggered.
    pub strike: Arc<[SyscallRequest]>,
    /// Calls issued against a decoy whenever the detection `stat` comes
    /// back negative, between a jittered `check_gap` and the `loop_gap`
    /// (Figure 9's attacker v2: its `unlink`/`symlink` pages fault in on
    /// the decoy, outside the window). `None` for every other attacker.
    pub rehearsal: Option<Arc<[SyscallRequest]>>,
    /// Raise the round's shared flag on detection, before the check gap,
    /// for a [`Trigger::Flag`] partner to strike concurrently.
    pub raises_flag: bool,
    /// Delay before the first iteration (round-start stagger).
    pub start_delay: SimDuration,
    /// Non-detecting-`stat` → next-`stat` computation (the flag-polling
    /// period of a [`Trigger::Flag`] attacker).
    pub loop_gap: SimDuration,
    /// Detecting-`stat` → strike computation.
    pub check_gap: SimDuration,
    /// Gaussian jitter (stdev, µs) on each sampled gap.
    pub jitter_us: f64,
}

impl AttackerProfile {
    /// The classic symlink-swap strike: `unlink(target)` then
    /// `symlink(privileged, target)`.
    pub fn symlink_strike(target: &Arc<str>, privileged: &Arc<str>) -> Arc<[SyscallRequest]> {
        Arc::from(vec![
            SyscallRequest::Unlink {
                path: target.clone(),
            },
            SyscallRequest::Symlink {
                target: privileged.clone(),
                linkpath: target.clone(),
            },
        ])
    }

    /// The hardlink-swap strike: `unlink(target)` then
    /// `link(privileged, target)`.
    pub fn hardlink_strike(target: &Arc<str>, privileged: &Arc<str>) -> Arc<[SyscallRequest]> {
        Arc::from(vec![
            SyscallRequest::Unlink {
                path: target.clone(),
            },
            SyscallRequest::Link {
                existing: privileged.clone(),
                linkpath: target.clone(),
            },
        ])
    }
}

/// Ground-truth success predicate, evaluated on the final VFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuccessRule {
    /// The privileged file ended up owned by the attacker (the paper's
    /// criterion for `chown`-use attacks).
    AttackerOwnsPrivileged,
    /// The privileged file carries this mode (for `chmod`-use attacks:
    /// the victim's chmod landed on the privileged inode).
    PrivilegedModeIs(u32),
    /// The privileged file grew to at least this many bytes (for
    /// `open`-use attacks: the victim's writes went through a descriptor
    /// resolved to the privileged inode).
    PrivilegedGrewBy(u64),
}

impl SuccessRule {
    /// Evaluates the predicate against the end-of-round filesystem.
    pub fn eval(self, vfs: &Vfs, layout: &Layout) -> bool {
        self.holds(&vfs.stat(&layout.passwd).expect("passwd exists"), layout)
    }

    /// Evaluates the predicate on the followed `stat` of the privileged
    /// file, wherever that `stat` came from: the simulated filesystem
    /// ([`SuccessRule::eval`]) or the host's.
    pub fn holds(self, passwd: &StatBuf, layout: &Layout) -> bool {
        match self {
            SuccessRule::AttackerOwnsPrivileged => passwd.uid == layout.attacker.0,
            SuccessRule::PrivilegedModeIs(mode) => passwd.mode == mode,
            SuccessRule::PrivilegedGrewBy(bytes) => passwd.size >= bytes,
        }
    }
}

/// An extra filesystem entry a spec needs beyond the standard [`Layout`]
/// (spool files, package trees, …). Created by `populate_doc` *after* the
/// document so the sweep engine's base-image fork invariant holds.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Absolute path.
    pub path: String,
    /// Owned by the attacker (`true`) or root (`false`).
    pub attacker_owned: bool,
    /// Mode bits.
    pub mode: u32,
    /// File (with size) or directory.
    pub node: ExtraNode,
}

/// What an extra [`FileSpec`] entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtraNode {
    /// A regular file of the given size.
    File {
        /// Initial size in bytes.
        size: u64,
    },
    /// A directory.
    Dir,
}

impl FileSpec {
    /// An attacker-owned regular file.
    pub fn user_file(path: impl Into<String>, size: u64) -> FileSpec {
        FileSpec {
            path: path.into(),
            attacker_owned: true,
            mode: 0o644,
            node: ExtraNode::File { size },
        }
    }

    /// An attacker-owned directory.
    pub fn user_dir(path: impl Into<String>) -> FileSpec {
        FileSpec {
            path: path.into(),
            attacker_owned: true,
            mode: 0o755,
            node: ExtraNode::Dir,
        }
    }
}

/// A declarative scenario: victim trace, attackers, filesystem, taxonomy
/// pair and ground truth — everything [`ScenarioSpec::compile`] needs to
/// produce a runnable [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports).
    pub name: String,
    /// Machine profile.
    pub machine: MachineSpec,
    /// Filesystem layout.
    pub layout: Layout,
    /// The `<check, use>` pair this scenario exercises (the pair the
    /// detector is expected to report).
    pub pair: TocttouPair,
    /// Victim process name.
    pub victim_name: String,
    /// The victim's trace.
    pub steps: Vec<Step>,
    /// Pre-existing document size (the layout's `doc`).
    pub doc_size: u64,
    /// Extra filesystem entries beyond the standard layout.
    pub extra_files: Vec<FileSpec>,
    /// The attackers (one per process; more than one models interference).
    pub attackers: Vec<AttackerProfile>,
    /// Ground-truth success predicate.
    pub success: SuccessRule,
    /// Wall-clock cap per round.
    pub max_round: SimDuration,
}

impl ScenarioSpec {
    /// Lowers the spec into a [`Scenario`] running interpreted step
    /// machines. Compilation is pure data shuffling — deterministic, no
    /// RNG — so compiling twice yields behaviourally identical scenarios.
    pub fn compile(self) -> Scenario {
        Scenario {
            name: self.name,
            machine: self.machine,
            victim: CompiledVictim {
                name: self.victim_name.into(),
                steps: self.steps.into(),
                doc_size: self.doc_size,
                pair: self.pair,
                extra_files: self.extra_files.into(),
                success: self.success,
            },
            attacker: self.attackers.into_iter().map(Arc::new).collect(),
            layout: self.layout,
            max_round: self.max_round,
            defense: DefensePolicy::Off,
        }
    }
}

/// A compiled victim: the victim half of a [`Scenario`]. Cheap to clone
/// (the trace is shared).
#[derive(Debug, Clone)]
pub struct CompiledVictim {
    /// Process name (shared with the trace's `Spawn` events).
    pub name: Arc<str>,
    /// The trace.
    pub steps: Arc<[Step]>,
    /// Pre-existing document size.
    pub doc_size: u64,
    /// Declared taxonomy pair.
    pub pair: TocttouPair,
    /// Extra filesystem entries.
    pub extra_files: Arc<[FileSpec]>,
    /// Ground-truth predicate.
    pub success: SuccessRule,
}

/// The ground-truth race window a compiled victim's trace declares: which
/// step performs the taxonomy pair's check, which performs its use, and
/// the name both act on. Derived statically from the [`Step`] list — no
/// simulation — so the forensics pipeline can be validated against what
/// the workload *intends*, not just what the kernel observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAnnotation {
    /// The `<check, use>` pair the window realizes.
    pub pair: TocttouPair,
    /// The name both calls act on.
    pub path: Arc<str>,
    /// Index (into the victim's steps) of the check call.
    pub check_step: usize,
    /// Index of the first matching use call after the check.
    pub use_step: usize,
}

impl CompiledVictim {
    /// Locates the declared pair's check→use window in the trace: the
    /// first call whose taxonomy call is `pair.use_call()` that is preceded
    /// by a `pair.check()` call on the same path; the *last* such
    /// check wins, mirroring the kernel rule that a re-check refreshes
    /// the window. `None` when the trace never realizes its declared pair
    /// (a spec bug worth surfacing; the conformance tests assert every
    /// library entry is `Some`).
    pub fn window_annotation(&self) -> Option<WindowAnnotation> {
        let calls = self.steps.iter().enumerate().filter_map(|(i, s)| match s {
            Step::Call { call, .. } => Some((i, call)),
            _ => None,
        });
        // Last check step seen per path, in trace order.
        let mut checks: Vec<(usize, &Arc<str>)> = Vec::new();
        for (i, call) in calls {
            let fs_call = fs_call_of(call.name());
            if (self.pair.check() != self.pair.use_call() || checks.is_empty())
                && fs_call == Some(self.pair.check())
            {
                if let Some(path) = call.primary_path() {
                    match checks.iter_mut().find(|(_, p)| p.as_ref() == path.as_ref()) {
                        Some(slot) => slot.0 = i,
                        None => checks.push((i, path)),
                    }
                    continue;
                }
            }
            if fs_call == Some(self.pair.use_call()) {
                if let Some(path) = call.primary_path() {
                    if let Some(&(check_step, p)) =
                        checks.iter().find(|(_, p)| p.as_ref() == path.as_ref())
                    {
                        return Some(WindowAnnotation {
                            pair: self.pair,
                            path: p.clone(),
                            check_step,
                            use_step: i,
                        });
                    }
                }
            }
        }
        None
    }

    /// The victim's *laxity window*: the inclusive integer-nanosecond
    /// bounds of its first step, when that step is a
    /// `Think(DurationDist::Uniform)` prologue.
    pub fn laxity_window_ns(&self) -> Option<(u64, u64)> {
        match self.steps.first() {
            Some(Step::Think(DurationDist::Uniform(lo, hi))) => {
                Some((lo.as_nanos(), hi.as_nanos()))
            }
            _ => None,
        }
    }

    /// Replaces the first step with `step` on a fresh copy of the trace
    /// (clones sharing the old trace keep it).
    pub fn set_first_step(&mut self, step: Step) {
        let mut steps = self.steps.to_vec();
        steps[0] = step;
        self.steps = steps.into();
    }

    /// Creates the interpreter for one round.
    pub fn logic(&self, seed: u64) -> DslVictim {
        DslVictim::new(self.steps.clone(), seed)
    }
}

/// The victim-trace interpreter: walks the [`Step`] list, tracking the
/// last returned fd and evaluating guards.
#[derive(Debug)]
pub struct DslVictim {
    steps: Arc<[Step]>,
    pc: usize,
    written: u64,
    /// The last chunk of a stalling [`Step::WriteLoop`] still owes its
    /// I/O stall.
    stall_due: bool,
    fd: Option<Fd>,
    pending: Expect,
    aborted: bool,
    rng: SimRng,
}

impl DslVictim {
    /// Creates the interpreter over `steps`; `seed` drives its sampled
    /// think times and gap jitter. This is how a victim runs on a kernel
    /// built by hand, outside any [`Scenario`].
    pub fn new(steps: Arc<[Step]>, seed: u64) -> Self {
        DslVictim {
            steps,
            pc: 0,
            written: 0,
            stall_due: false,
            fd: None,
            pending: Expect::Any,
            aborted: false,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Whether a failed [`Expect`] guard ended the trace early.
    pub fn aborted(&self) -> bool {
        self.aborted
    }
}

impl ProcessLogic for DslVictim {
    fn next_action(&mut self, _ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
        if let Some(fd) = last.and_then(|r| r.fd()) {
            self.fd = Some(fd);
        }
        let guard = std::mem::replace(&mut self.pending, Expect::Any);
        if !guard.holds(last) {
            // The defensive check failed: back off without touching
            // anything else (no use call, no success).
            self.aborted = true;
        }
        if self.aborted {
            return Action::Exit;
        }
        loop {
            let Some(step) = self.steps.get(self.pc) else {
                return Action::Exit;
            };
            match step {
                Step::Think(dist) => {
                    self.pc += 1;
                    return Action::Compute(dist.sample(&mut self.rng));
                }
                Step::Gap { base, jitter_us } => {
                    self.pc += 1;
                    let g = jittered(*base, *jitter_us, &mut self.rng);
                    return Action::Compute(g);
                }
                Step::Call { call, expect } => {
                    self.pc += 1;
                    self.pending = *expect;
                    return Action::Syscall(call.clone());
                }
                Step::WriteLoop {
                    bytes,
                    chunk,
                    stall,
                } => {
                    if let Some(duration) = stall.filter(|_| std::mem::take(&mut self.stall_due)) {
                        return Action::Syscall(SyscallRequest::Sleep { duration });
                    }
                    if self.written >= *bytes {
                        self.written = 0;
                        self.pc += 1;
                        continue;
                    }
                    let remaining = *bytes - self.written;
                    let n = remaining.min((*chunk).max(1));
                    self.written += n;
                    self.stall_due = stall.is_some();
                    return Action::Syscall(SyscallRequest::Write {
                        fd: self.fd.expect("write loop needs a prior open/creat"),
                        bytes: n,
                    });
                }
                Step::Close => {
                    self.pc += 1;
                    return Action::Syscall(SyscallRequest::Close {
                        fd: self.fd.expect("close needs a prior open/creat"),
                    });
                }
            }
        }
    }
}

/// The round's shared flag between a [`AttackerProfile::raises_flag`]
/// attacker and its [`Trigger::Flag`] partner. Atomic, so the pair can
/// also run on two host threads: the raise is a `Release` store and the
/// poll an `Acquire` load.
pub type AttackFlag = Arc<AtomicBool>;

/// The paper's window test: the followed `stat` reports a root-owned
/// regular file.
fn detected(last: Option<&SyscallResult>) -> bool {
    last.and_then(|r| r.stat())
        .is_some_and(|st| st.uid.0 == 0 && st.gid.0 == 0 && !st.is_symlink)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtkState {
    Start,
    Stat,
    Decide,
    TimerGap,
    Rehearse(usize),
    Poll,
    Strike(usize),
    Retry(usize),
}

/// The compiled-attacker interpreter: trigger loop (with its rehearsal),
/// then the strike trace, then exit.
#[derive(Debug)]
pub struct DslAttacker {
    prof: Arc<AttackerProfile>,
    flag: Option<AttackFlag>,
    state: AtkState,
    rng: SimRng,
}

impl DslAttacker {
    /// Creates the attacker; `seed` drives its loop-timing jitter.
    pub fn new(prof: Arc<AttackerProfile>, seed: u64) -> Self {
        let state = match prof.trigger {
            Trigger::Flag => AtkState::Poll,
            Trigger::RootOwned | Trigger::Timer => AtkState::Start,
        };
        DslAttacker {
            prof,
            flag: None,
            state,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Attaches the round's shared flag (required by
    /// [`AttackerProfile::raises_flag`] and [`Trigger::Flag`] attackers).
    pub fn with_flag(mut self, flag: AttackFlag) -> Self {
        self.flag = Some(flag);
        self
    }

    fn gap(&mut self, base: SimDuration) -> Action {
        Action::Compute(jittered(base, self.prof.jitter_us, &mut self.rng))
    }

    fn fire(&mut self, i: usize) -> Action {
        match self.prof.strike.get(i) {
            Some(call) => {
                self.state = AtkState::Strike(i + 1);
                Action::Syscall(call.clone())
            }
            None => Action::Exit,
        }
    }

    fn flag(&self) -> &AttackFlag {
        self.flag
            .as_ref()
            .expect("flag attackers are spawned with the round's flag")
    }
}

impl ProcessLogic for DslAttacker {
    fn next_action(&mut self, _ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
        match self.state {
            AtkState::Start => {
                self.state = match self.prof.trigger {
                    Trigger::Timer => AtkState::TimerGap,
                    Trigger::RootOwned | Trigger::Flag => AtkState::Stat,
                };
                Action::Compute(self.prof.start_delay)
            }
            AtkState::Stat => {
                self.state = AtkState::Decide;
                Action::Syscall(SyscallRequest::Stat {
                    path: self.prof.watch.clone(),
                })
            }
            AtkState::Decide => {
                if detected(last) {
                    if self.prof.raises_flag {
                        self.flag().store(true, Ordering::Release);
                    }
                    self.state = AtkState::Strike(0);
                    self.gap(self.prof.check_gap)
                } else if self.prof.rehearsal.is_some() {
                    self.state = AtkState::Rehearse(0);
                    self.gap(self.prof.check_gap)
                } else {
                    self.state = AtkState::Stat;
                    self.gap(self.prof.loop_gap)
                }
            }
            AtkState::Rehearse(i) => match self.prof.rehearsal.as_deref().and_then(|r| r.get(i)) {
                Some(call) => {
                    self.state = AtkState::Rehearse(i + 1);
                    Action::Syscall(call.clone())
                }
                None => {
                    self.state = AtkState::Stat;
                    self.gap(self.prof.loop_gap)
                }
            },
            AtkState::TimerGap => {
                self.state = AtkState::Strike(0);
                self.gap(self.prof.check_gap)
            }
            AtkState::Poll => {
                if self.flag().load(Ordering::Acquire) {
                    self.fire(0)
                } else {
                    self.gap(self.prof.loop_gap)
                }
            }
            AtkState::Strike(i) => {
                if self.prof.trigger == Trigger::Flag && i > 0 && !last.is_some_and(|r| r.is_ok()) {
                    // Raced ahead of the partner's call (EEXIST): retry.
                    self.state = AtkState::Retry(i - 1);
                    return self.gap(self.prof.loop_gap);
                }
                self.fire(i)
            }
            AtkState::Retry(i) => self.fire(i),
        }
    }
}

/// Populates a compiled victim's extra filesystem entries (called by the
/// scenario build paths after the document is created).
pub(crate) fn populate_extras(victim: &CompiledVictim, layout: &Layout, vfs: &mut Vfs) {
    use tocttou_os::ids::{Gid, Uid};
    for f in victim.extra_files.iter() {
        let (uid, gid) = if f.attacker_owned {
            layout.attacker
        } else {
            (Uid::ROOT, Gid::ROOT)
        };
        let meta = InodeMeta {
            uid,
            gid,
            mode: f.mode,
        };
        match f.node {
            ExtraNode::Dir => {
                vfs.mkdir(&f.path, meta).expect("extra dir");
            }
            ExtraNode::File { size } => {
                let ino = vfs.create_file(&f.path, meta).expect("extra file");
                vfs.append(ino, size).expect("extra file content");
            }
        }
    }
}

pub mod library;

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_core::taxonomy::FsCall;
    use tocttou_os::ids::{Gid, Uid};

    #[test]
    fn compile_produces_a_runnable_scenario() {
        let s = library::tmp_logrotate(4096).compile();
        let r = s.run_round(7);
        assert!(r.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn compile_is_deterministic() {
        for seed in [1u64, 99, 4242] {
            let a = library::maildrop(2048).compile().run_round(seed);
            let b = library::maildrop(2048).compile().run_round(seed);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn guard_aborts_on_failed_check() {
        // A victim whose guard expects a root-owned file, stat'ing an
        // attacker-owned one: it must abort before the chown.
        let layout = Layout::default();
        let doc: Arc<str> = layout.doc.as_str().into();
        let spec = ScenarioSpec {
            name: "guard-abort".into(),
            machine: MachineSpec::smp_xeon(),
            layout: layout.clone(),
            pair: TocttouPair::new(FsCall::Stat, FsCall::Chown).unwrap(),
            victim_name: "guarded".into(),
            steps: vec![
                Step::guarded(SyscallRequest::Stat { path: doc.clone() }, Expect::UidIs(0)),
                Step::gap_us(10, 0.0),
                Step::call(SyscallRequest::Chown {
                    path: doc.clone(),
                    uid: Uid::ROOT,
                    gid: Gid::ROOT,
                }),
            ],
            doc_size: 64,
            extra_files: vec![],
            attackers: vec![],
            success: SuccessRule::AttackerOwnsPrivileged,
            max_round: SimDuration::from_secs(1),
        };
        let scenario = spec.compile();
        let (r, handles) = scenario.run_traced(3);
        assert!(r.victim_exited, "abort still exits cleanly");
        // The doc is attacker-owned, so the guard failed and the chown
        // never ran: the doc still belongs to the attacker.
        let st = handles.kernel.vfs().stat(&scenario.layout.doc).unwrap();
        assert_eq!(st.uid, Uid(1000), "guard stopped the trace");
    }

    #[test]
    fn call_specs_map_to_taxonomy_calls_and_paths() {
        let p: Arc<str> = "/tmp/x".into();
        let q: Arc<str> = "/tmp/y".into();
        let fs_call = |call: &SyscallRequest| fs_call_of(call.name());
        assert_eq!(
            fs_call(&SyscallRequest::Stat { path: p.clone() }),
            Some(FsCall::Stat)
        );
        assert_eq!(
            fs_call(&SyscallRequest::OpenCreate { path: p.clone() }),
            Some(FsCall::Creat)
        );
        assert_eq!(
            fs_call(&SyscallRequest::Write {
                fd: Fd(3),
                bytes: 1
            }),
            None
        );
        assert_eq!(SyscallRequest::Close { fd: Fd(3) }.primary_path(), None);
        let rename = SyscallRequest::Rename {
            from: p.clone(),
            to: q.clone(),
        };
        assert_eq!(fs_call(&rename), Some(FsCall::Rename));
        assert_eq!(
            rename.primary_path().map(Arc::as_ref),
            Some("/tmp/y"),
            "rename windows key on the destination name"
        );
        let link = SyscallRequest::Symlink {
            target: p.clone(),
            linkpath: q.clone(),
        };
        assert_eq!(link.primary_path().map(Arc::as_ref), Some("/tmp/y"));
    }

    #[test]
    fn every_library_victim_annotates_its_declared_window() {
        for (pair, scenario) in library::taxonomy_library(None) {
            let victim = &scenario.victim;
            let ann = victim.window_annotation().unwrap_or_else(|| {
                panic!(
                    "{}: trace never realizes its declared pair {pair}",
                    scenario.name
                )
            });
            assert_eq!(ann.pair, victim.pair, "{}", scenario.name);
            assert!(
                ann.check_step < ann.use_step,
                "{}: check must precede use",
                scenario.name
            );
        }
    }

    #[test]
    fn library_pairs_are_distinct_and_at_least_eight() {
        let mut pairs: Vec<String> = library::taxonomy_library(None)
            .iter()
            .map(|(pair, _)| format!("{pair}"))
            .collect();
        pairs.sort();
        pairs.dedup();
        assert!(
            pairs.len() >= 8,
            "library must span >= 8 distinct pairs, got {pairs:?}"
        );
    }
}

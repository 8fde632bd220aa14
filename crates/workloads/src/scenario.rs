//! Named experiment scenarios: machine + victim + attacker + filesystem
//! layout, matching the paper's evaluation sections.
//!
//! A [`Scenario`] is a *template*; each Monte-Carlo round instantiates a
//! fresh kernel from it with a round-specific seed via [`Scenario::build`],
//! runs it, and reads the outcome ([`Scenario::run_round`]).

use crate::dsl::{
    self, library, AttackFlag, AttackerProfile, CompiledVictim, DslAttacker, FileSpec, Step,
    Trigger,
};
use std::sync::Arc;
use tocttou_os::defense::DefensePolicy;
use tocttou_os::ids::{Gid, Pid, Uid};
use tocttou_os::kernel::{Checkpoint, Kernel, KernelPool};
use tocttou_os::machine::MachineSpec;
use tocttou_os::process::SyscallRequest;
use tocttou_os::vfs::{InodeMeta, Vfs};
use tocttou_sim::dist::DurationDist;
use tocttou_sim::rng::SimRng;
use tocttou_sim::time::{SimDuration, SimTime};

/// Canonical filesystem layout for the attack experiments.
#[derive(Debug, Clone)]
pub struct Layout {
    /// The privileged file the attacker wants (`/etc/passwd`).
    pub passwd: String,
    /// The user's home directory.
    pub home: String,
    /// The document the root editor saves.
    pub doc: String,
    /// The editor's backup name.
    pub backup: String,
    /// gedit's scratch file.
    pub temp: String,
    /// The attacker's private directory (for v2's dummy).
    pub attack_dir: String,
    /// v2's dummy path.
    pub dummy: String,
    /// The attacker's uid/gid.
    pub attacker: (Uid, Gid),
}

impl Default for Layout {
    fn default() -> Self {
        Layout {
            passwd: "/etc/passwd".into(),
            home: "/home/user".into(),
            doc: "/home/user/doc.txt".into(),
            backup: "/home/user/doc.txt~".into(),
            temp: "/home/user/.goutputstream".into(),
            attack_dir: "/home/user/.attack".into(),
            dummy: "/home/user/.attack/dummy".into(),
            attacker: (Uid(1000), Gid(1000)),
        }
    }
}

/// A complete, named experiment configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name, used in reports.
    pub name: String,
    /// Machine profile.
    pub machine: MachineSpec,
    /// Victim program.
    pub victim: CompiledVictim,
    /// Attacker programs, one process each (more than one models
    /// interference or a multi-threaded attacker).
    pub attacker: Vec<Arc<AttackerProfile>>,
    /// Filesystem layout.
    pub layout: Layout,
    /// Wall-clock cap per round.
    pub max_round: SimDuration,
    /// Kernel TOCTTOU defense policy (default: off, like the paper's
    /// kernels).
    pub defense: DefensePolicy,
}

/// A built round, ready to run (or already run).
pub struct RoundHandles {
    /// The machine.
    pub kernel: Kernel,
    /// The victim's pid.
    pub victim: Pid,
    /// Attacker pids (two for the pipelined attacker).
    pub attackers: AttackerPids,
}

/// A round's attacker pids, read as a `[Pid]` slice (`attackers[0]`,
/// `attackers.iter()`).
///
/// The attackers are spawned one after another, so their pids are
/// consecutive: a round of up to four holds them inline and allocates
/// nothing, and only a larger set spills to the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackerPids(PidRepr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum PidRepr {
    Inline { pids: [Pid; 4], len: usize },
    Spilled(Vec<Pid>),
}

impl AttackerPids {
    /// The `len` pids from `first` on.
    fn consecutive(first: Pid, len: usize) -> Self {
        let pid = |i: usize| Pid(first.0 + i as u32);
        AttackerPids(if len <= 4 {
            PidRepr::Inline {
                pids: std::array::from_fn(pid),
                len,
            }
        } else {
            PidRepr::Spilled((0..len).map(pid).collect())
        })
    }
}

impl std::ops::Deref for AttackerPids {
    type Target = [Pid];

    fn deref(&self) -> &[Pid] {
        match &self.0 {
            PidRepr::Inline { pids, len } => &pids[..*len],
            PidRepr::Spilled(pids) => pids,
        }
    }
}

/// The outcome of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundResult {
    /// True iff the privileged file ended up owned by the attacker — the
    /// paper's success criterion.
    pub success: bool,
    /// Whether the victim completed its save within the round cap.
    pub victim_exited: bool,
    /// Simulated time consumed.
    pub elapsed: SimDuration,
}

impl Scenario {
    /// Instantiates a kernel for one round. `seed` drives every stochastic
    /// element (background activity, victim prologue). Tracing is enabled
    /// iff `traced`.
    pub fn build(&self, seed: u64, traced: bool) -> RoundHandles {
        let mut root_rng = SimRng::seed_from_u64(seed);
        let mut kernel = Kernel::new(self.machine.clone(), root_rng.next_u64());
        kernel.set_defense(self.defense);
        if !traced {
            kernel.disable_trace();
        }
        self.populate_base_fs(kernel.vfs_mut());
        self.populate_doc(kernel.vfs_mut());
        self.spawn_workloads(kernel, &mut root_rng)
    }

    /// Builds the scenario's initial filesystem image — the standard
    /// layout plus the pre-existing document — as a standalone [`Vfs`].
    ///
    /// Populating this image costs a dozen path resolutions; Monte-Carlo
    /// drivers build it **once** per batch and hand it to
    /// [`Scenario::build_pooled`], which clones it into each round instead
    /// of re-resolving. The clone is state-identical to in-place
    /// population (same inode and semaphore numbering), so rounds built
    /// either way behave bit-identically.
    pub fn template_vfs(&self) -> Vfs {
        let mut vfs = Vfs::new();
        self.populate_base_fs(&mut vfs);
        self.warm_scenario_paths(&mut vfs);
        self.populate_doc(&mut vfs);
        vfs.freeze();
        vfs
    }

    /// Builds only the standard filesystem layout — everything in
    /// [`template_vfs`](Self::template_vfs) *except* the pre-existing
    /// document.
    ///
    /// The base layout depends only on [`Layout`] and the attacker's
    /// identity, not on any swept parameter (file size, detection period,
    /// CPU count, attacker variant), so one base image can be shared by an
    /// entire parameter grid and forked per point with
    /// [`template_vfs_from_base`](Self::template_vfs_from_base).
    pub fn base_vfs(&self) -> Vfs {
        let mut vfs = Vfs::new();
        self.populate_base_fs(&mut vfs);
        self.warm_scenario_paths(&mut vfs);
        vfs.freeze();
        vfs
    }

    /// Pre-interns every [`Layout`] path into the image's name tables so
    /// rounds forked from it resolve them without string hashing. Warming
    /// order is fixed (it assigns interned name ids), and the warm set
    /// depends only on the layout — never on swept parameters — so a
    /// warmed base image stays shareable across a whole sweep grid.
    fn warm_scenario_paths(&self, vfs: &mut Vfs) {
        for path in [
            &self.layout.passwd,
            &self.layout.home,
            &self.layout.doc,
            &self.layout.backup,
            &self.layout.temp,
            &self.layout.attack_dir,
            &self.layout.dummy,
        ] {
            vfs.warm_path(path);
        }
    }

    /// Snapshot/forks a per-point template from a shared `base` image
    /// (built by [`base_vfs`](Self::base_vfs)): clones the base and adds
    /// this scenario's document on top.
    ///
    /// The document is the *last* inode the full build creates, so the
    /// fork reproduces [`template_vfs`](Self::template_vfs) exactly —
    /// same inode and semaphore numbering — as long as `base` came from a
    /// scenario with the same [`Layout`] and attacker identity. The sweep
    /// engine leans on this to skip the base-layout path resolutions at
    /// every grid point; `fork_matches_full_template_build` and the
    /// cross-seed fork-equivalence test pin the guarantee down.
    pub fn template_vfs_from_base(&self, base: &Vfs) -> Vfs {
        let mut vfs = base.clone();
        self.populate_doc(&mut vfs);
        vfs.freeze();
        vfs
    }

    /// Instantiates one round from a prebuilt filesystem `template` on the
    /// recycled buffers of `pool` — the fast path for Monte-Carlo batches.
    ///
    /// Equivalent to [`Scenario::build`] (the template stands in for the
    /// standard population, the pool only donates allocations); pair with
    /// [`Kernel::recycle`] to thread one pool through many rounds.
    pub fn build_pooled(
        &self,
        seed: u64,
        traced: bool,
        template: &Vfs,
        pool: KernelPool,
    ) -> RoundHandles {
        let mut root_rng = SimRng::seed_from_u64(seed);
        let mut kernel = Kernel::with_pool(self.machine.clone(), root_rng.next_u64(), pool);
        kernel.set_defense(self.defense);
        if !traced {
            kernel.disable_trace();
        }
        kernel.vfs_mut().clone_from(template);
        self.spawn_workloads(kernel, &mut root_rng)
    }

    /// Captures this scenario's **warm-boot checkpoint**: the machine
    /// simulated once up to the divergence point — booted, defense policy
    /// installed, filesystem `template` mounted — and frozen right before
    /// the first per-round RNG draw (background arming / process spawning).
    ///
    /// Monte-Carlo drivers take the checkpoint once per batch and resume
    /// every round from it with
    /// [`build_from_checkpoint`](Self::build_from_checkpoint), skipping the
    /// seed-independent prefix. The checkpoint is `Send + Sync`, so one
    /// instance serves all parallel workers.
    pub fn round_checkpoint(&self, template: &Vfs) -> Checkpoint {
        // The seed is irrelevant: nothing before the checkpoint draws from
        // the RNG, and `Checkpoint::boot` reseeds wholesale.
        let mut kernel = Kernel::boot_unarmed(self.machine.clone(), 0, KernelPool::new());
        kernel.set_defense(self.defense);
        kernel.vfs_mut().clone_from(template);
        kernel.checkpoint()
    }

    /// Instantiates one round by restoring the warm checkpoint `ck` onto
    /// the recycled buffers of `pool` — the warm-boot fast path.
    ///
    /// Byte-identical to [`Scenario::build_pooled`] with the same `seed`
    /// and the template the checkpoint was taken from: the root RNG seed
    /// schedule, kernel event sequence numbers and pid assignment are all
    /// reproduced exactly.
    pub fn build_from_checkpoint(
        &self,
        ck: &Checkpoint,
        seed: u64,
        traced: bool,
        pool: KernelPool,
    ) -> RoundHandles {
        let mut root_rng = SimRng::seed_from_u64(seed);
        let mut kernel = ck.boot(root_rng.next_u64(), pool);
        if !traced {
            kernel.disable_trace();
        }
        self.spawn_workloads(kernel, &mut root_rng)
    }

    /// Spawns the victim and attacker processes into a prepared kernel
    /// (common tail of every build path; process ordering fixes pids and
    /// therefore determinism).
    fn spawn_workloads(&self, mut kernel: Kernel, root_rng: &mut SimRng) -> RoundHandles {
        let victim_seed = root_rng.next_u64();
        let victim = kernel.spawn(
            Arc::clone(&self.victim.name),
            Uid::ROOT,
            Gid::ROOT,
            true, // long-running privileged program: libc fully mapped
            Box::new(self.victim.logic(victim_seed)),
        );

        let (auid, agid) = self.layout.attacker;
        let attacker_seed = root_rng.next_u64();
        // One flag per round, for attackers that pipeline through it.
        let flag = self
            .attacker
            .iter()
            .any(|p| p.raises_flag || p.trigger == Trigger::Flag)
            .then(AttackFlag::default);
        let first = Pid(victim.0 + 1);
        for (i, prof) in self.attacker.iter().enumerate() {
            // The first attacker takes the schedule slot every scenario
            // draws; each further attacker draws one more seed.
            let seed = if i == 0 {
                attacker_seed
            } else {
                root_rng.next_u64()
            };
            let mut logic = DslAttacker::new(Arc::clone(prof), seed);
            if let Some(flag) = &flag {
                logic = logic.with_flag(Arc::clone(flag));
            }
            let pid = kernel.spawn(
                Arc::clone(&prof.name),
                auid,
                agid,
                prof.pretouch,
                Box::new(logic),
            );
            debug_assert_eq!(pid.0, first.0 + i as u32, "attacker pids are consecutive");
        }

        RoundHandles {
            kernel,
            victim,
            attackers: AttackerPids::consecutive(first, self.attacker.len()),
        }
    }

    fn populate_base_fs(&self, vfs: &mut Vfs) {
        let root = InodeMeta {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            mode: 0o755,
        };
        let (auid, agid) = self.layout.attacker;
        let user = InodeMeta {
            uid: auid,
            gid: agid,
            mode: 0o755,
        };
        vfs.mkdir("/etc", root).expect("layout: /etc");
        vfs.create_file(&self.layout.passwd, root)
            .expect("layout: passwd");
        vfs.mkdir("/home", root).expect("layout: /home");
        vfs.mkdir(&self.layout.home, user).expect("layout: home");
        vfs.mkdir(&self.layout.attack_dir, user)
            .expect("layout: attack dir");
        // A document below the home directory (a maze's chain) gets its
        // missing ancestors, shallowest first, owned by the attacker. The
        // probes are read-only, so a layout with nothing missing is
        // untouched.
        for (end, _) in self.layout.doc.match_indices('/').skip(1) {
            let dir = &self.layout.doc[..end];
            if vfs.lstat(dir).is_err() {
                vfs.mkdir(dir, user).expect("layout: doc ancestor");
            }
        }
    }

    fn populate_doc(&self, vfs: &mut Vfs) {
        let (auid, agid) = self.layout.attacker;
        // The document exists and belongs to the attacker before the save.
        let doc_meta = InodeMeta {
            uid: auid,
            gid: agid,
            mode: 0o644,
        };
        let ino = vfs
            .create_file(&self.layout.doc, doc_meta)
            .expect("layout: doc");
        vfs.append(ino, self.victim.doc_size)
            .expect("layout: doc content");
        // Some scenarios need extra state (spool files, package trees).
        // Created after the doc so the base-image fork invariant (doc is
        // the tail of population) still holds.
        dsl::populate_extras(&self.victim, &self.layout, vfs);
    }

    /// Runs one untraced round and reports the outcome.
    pub fn run_round(&self, seed: u64) -> RoundResult {
        let mut handles = self.build(seed, false);
        self.finish_round(&mut handles)
    }

    /// Runs one traced round; returns the outcome and the kernel (whose
    /// trace backs event analysis and timelines).
    pub fn run_traced(&self, seed: u64) -> (RoundResult, RoundHandles) {
        let mut handles = self.build(seed, true);
        let result = self.finish_round(&mut handles);
        (result, handles)
    }

    /// Runs one untraced round on recycled buffers, returning the outcome
    /// and the pool for the next round. Behaves exactly like
    /// [`Scenario::run_round`], only faster in a loop.
    pub fn run_round_pooled(
        &self,
        seed: u64,
        template: &Vfs,
        pool: KernelPool,
    ) -> (RoundResult, KernelPool) {
        let mut handles = self.build_pooled(seed, false, template, pool);
        let result = self.finish_round(&mut handles);
        (result, handles.kernel.recycle())
    }

    /// Runs a built round to completion (victim exit plus a grace period
    /// for in-flight attacker calls) and reads the outcome. Public so
    /// rounds built by hand ([`Scenario::build`]) can reuse the standard
    /// round protocol.
    pub fn finish_round(&self, handles: &mut RoundHandles) -> RoundResult {
        let deadline = SimTime::ZERO + self.max_round;
        let outcome = handles.kernel.run_until_exit(handles.victim, deadline);
        // Give the attacker a short grace period to finish in-flight calls
        // (so traces contain complete timelines).
        let victim_exited = outcome == tocttou_os::kernel::RunOutcome::StopConditionMet;
        if victim_exited {
            let grace = handles.kernel.now() + SimDuration::from_millis(2);
            let attackers = &handles.attackers;
            handles.kernel.run_until(
                |k| {
                    attackers
                        .iter()
                        .all(|&p| k.state_of(p) == tocttou_os::process::ProcState::Exited)
                },
                grace.min(deadline),
            );
        }
        // The victim's ground-truth predicate (ownership transfer, mode
        // clobber, privileged-file growth).
        let success = self.victim.success.eval(handles.kernel.vfs(), &self.layout);
        RoundResult {
            success,
            victim_exited,
            elapsed: handles.kernel.now().saturating_since(SimTime::ZERO),
        }
    }

    // ---- laxity stratification -------------------------------------------

    /// The victim's *laxity window*: the inclusive integer-nanosecond bounds
    /// of its first step, when that step is a `Think(DurationDist::Uniform)`
    /// prologue ([`CompiledVictim::laxity_window_ns`]).
    ///
    /// The uniprocessor scenarios draw the save's slice phase from
    /// `Uniform(0, timeslice)` — exactly the laxity term of the paper's
    /// Formula (1). A rare-event estimator stratifies over this axis; any
    /// other first step (constant or Gaussian think time, a gap, a call)
    /// returns `None` and the estimator falls back to a single stratum.
    pub fn laxity_window_ns(&self) -> Option<(u64, u64)> {
        self.victim.laxity_window_ns()
    }

    /// Conditions the scenario on its prologue phase landing in
    /// `[lo_n, hi_n]` nanoseconds (inclusive): a clone whose prologue is the
    /// restricted uniform, tagged with a `#lax[lo,hi]` name suffix so
    /// content-addressed stores key each stratum separately.
    ///
    /// Because the prologue samples a *discrete* uniform over inclusive
    /// nanosecond bounds, replacing the bounds with a sub-range is the exact
    /// conditional law — no acceptance-rejection, no approximation — so
    /// stratum estimates recombine unbiasedly under width weights
    /// `(hi_n − lo_n + 1) / (hi − lo + 1)`.
    ///
    /// Returns `None` when the scenario has no laxity window or the
    /// requested range is not a sub-range of it.
    pub fn restrict_laxity(&self, lo_n: u64, hi_n: u64) -> Option<Scenario> {
        let (lo, hi) = self.laxity_window_ns()?;
        if lo_n < lo || hi_n > hi || lo_n > hi_n {
            return None;
        }
        let dist =
            DurationDist::Uniform(SimDuration::from_nanos(lo_n), SimDuration::from_nanos(hi_n));
        let mut restricted = self.clone();
        restricted.victim.set_first_step(Step::Think(dist));
        restricted.name = format!("{}#lax[{lo_n},{hi_n}]", self.name);
        Some(restricted)
    }

    /// An equal scenario that shares no allocation with `self`: every
    /// `Arc` name, path, trace and strike is freshly allocated.
    ///
    /// Rounds clone the scenario's path `Arc`s into every syscall they
    /// issue and its process names into every spawn, so threads running
    /// one shared scenario contend on its reference counts; each executor
    /// worker runs on its own copy instead. Aliasing carries over (two
    /// handles to one `Arc` become two handles to one new `Arc`), so the
    /// kernel's pointer-equality fast path for paths hits exactly as
    /// often, and rounds are byte-identical.
    pub fn detached(&self) -> Scenario {
        let Scenario {
            name,
            machine,
            victim,
            attacker,
            layout,
            max_round,
            defense,
        } = self;
        let mut d = Detach::default();
        let victim = d.compiled(victim);
        let attacker = attacker.iter().map(|p| Arc::new(d.profile(p))).collect();
        Scenario {
            name: name.clone(),
            machine: machine.clone(),
            victim,
            attacker,
            layout: layout.clone(),
            max_round: *max_round,
            defense: *defense,
        }
    }

    // ---- named paper scenarios -------------------------------------------
    //
    // Each is its `dsl::library` spec, compiled.

    /// Section 4.1 / Figure 6: vi on the uniprocessor
    /// ([`library::vi_uniprocessor_spec`]).
    pub fn vi_uniprocessor(file_size: u64) -> Scenario {
        library::vi_uniprocessor_spec(file_size).compile()
    }

    /// Section 5 / Figure 7 / Table 1: vi on the 2-way SMP
    /// ([`library::vi_smp_spec`]).
    pub fn vi_smp(file_size: u64) -> Scenario {
        library::vi_smp_spec(file_size).compile()
    }

    /// Section 4.2: gedit on the uniprocessor, the no-success baseline
    /// ([`library::gedit_uniprocessor_spec`]).
    pub fn gedit_uniprocessor(file_size: u64) -> Scenario {
        library::gedit_uniprocessor_spec(file_size).compile()
    }

    /// Section 6.1 / Table 2: gedit on the 2-way SMP
    /// ([`library::gedit_smp_spec`]).
    pub fn gedit_smp(file_size: u64) -> Scenario {
        library::gedit_smp_spec(file_size).compile()
    }

    /// Section 6.2.1 / Figure 8: gedit on the multi-core with attacker v1
    /// ([`library::gedit_multicore_v1_spec`]).
    pub fn gedit_multicore_v1(file_size: u64) -> Scenario {
        library::gedit_multicore_v1_spec(file_size).compile()
    }

    /// Section 6.2.2 / Figures 9–10: gedit on the multi-core with attacker
    /// v2 ([`library::gedit_multicore_v2_spec`]).
    pub fn gedit_multicore_v2(file_size: u64) -> Scenario {
        library::gedit_multicore_v2_spec(file_size).compile()
    }

    /// Section 7 / Figure 11: the pipelined two-thread attacker against a
    /// vi save on the multi-core ([`library::pipelined_attack_spec`]).
    pub fn pipelined_attack(file_size: u64) -> Scenario {
        library::pipelined_attack_spec(file_size).compile()
    }

    /// The hardlink-swap attack on vi on the 2-way SMP
    /// ([`library::hardlink_vi_smp_spec`]).
    pub fn hardlink_vi_smp(file_size: u64) -> Scenario {
        library::hardlink_vi_smp_spec(file_size).compile()
    }

    /// Returns the scenario with the given kernel defense policy — the
    /// Section 8 counterfactual ("what if the kernel guarded check-use
    /// invariants?").
    pub fn with_defense(mut self, policy: DefensePolicy) -> Scenario {
        self.defense = policy;
        if policy != DefensePolicy::Off {
            self.name = format!("{}+edgi", self.name);
        }
        self
    }

    /// The same attack as [`Self::pipelined_attack`] but with the normal
    /// sequential attacker, for the Figure 11 comparison
    /// ([`library::sequential_attack_spec`]).
    pub fn sequential_attack(file_size: u64) -> Scenario {
        library::sequential_attack_spec(file_size).compile()
    }
}

/// One fresh copy per original allocation: a second handle to an
/// already-copied buffer gets a handle to the same copy.
struct Fresh<T: ?Sized>(Vec<(*const (), Arc<T>)>);

impl<T: ?Sized> Default for Fresh<T> {
    fn default() -> Self {
        Fresh(Vec::new())
    }
}

impl<T: ?Sized> Fresh<T> {
    fn get(&mut self, orig: &Arc<T>, copy: impl FnOnce(&T) -> Arc<T>) -> Arc<T> {
        let key = Arc::as_ptr(orig).cast::<()>();
        if let Some((_, c)) = self.0.iter().find(|(k, _)| *k == key) {
            return Arc::clone(c);
        }
        let c = copy(orig);
        self.0.push((key, Arc::clone(&c)));
        c
    }
}

/// The fresh allocations of one [`Scenario::detached`] call. Every
/// victim and profile is destructured without `..`, so a new shared field
/// fails to compile here instead of staying shared.
#[derive(Default)]
struct Detach {
    strs: Fresh<str>,
    steps: Fresh<[Step]>,
    call_lists: Fresh<[SyscallRequest]>,
    files: Fresh<[FileSpec]>,
}

impl Detach {
    fn str(&mut self, s: &Arc<str>) -> Arc<str> {
        self.strs.get(s, |s| Arc::from(s))
    }

    fn calls(&mut self, calls: &Arc<[SyscallRequest]>) -> Arc<[SyscallRequest]> {
        self.call_lists.get(calls, |calls| {
            calls
                .iter()
                .map(|c| detach_call(&mut self.strs, c))
                .collect()
        })
    }

    fn compiled(&mut self, cfg: &CompiledVictim) -> CompiledVictim {
        let CompiledVictim {
            name,
            steps,
            doc_size,
            pair,
            extra_files,
            success,
        } = cfg;
        CompiledVictim {
            name: self.str(name),
            steps: self.steps.get(steps, |steps| {
                steps
                    .iter()
                    .map(|s| detach_step(&mut self.strs, s))
                    .collect()
            }),
            doc_size: *doc_size,
            pair: *pair,
            extra_files: self.files.get(extra_files, |f| Arc::from(f)),
            success: *success,
        }
    }

    fn profile(&mut self, prof: &AttackerProfile) -> AttackerProfile {
        let AttackerProfile {
            name,
            pretouch,
            watch,
            trigger,
            strike,
            rehearsal,
            raises_flag,
            start_delay,
            loop_gap,
            check_gap,
            jitter_us,
        } = prof;
        AttackerProfile {
            name: self.str(name),
            pretouch: *pretouch,
            watch: self.str(watch),
            trigger: *trigger,
            strike: self.calls(strike),
            rehearsal: rehearsal.as_ref().map(|r| self.calls(r)),
            raises_flag: *raises_flag,
            start_delay: *start_delay,
            loop_gap: *loop_gap,
            check_gap: *check_gap,
            jitter_us: *jitter_us,
        }
    }
}

fn detach_step(strs: &mut Fresh<str>, step: &Step) -> Step {
    match step {
        Step::Think(dist) => Step::Think(dist.clone()),
        Step::Gap { base, jitter_us } => Step::Gap {
            base: *base,
            jitter_us: *jitter_us,
        },
        Step::Call { call, expect } => Step::Call {
            call: detach_call(strs, call),
            expect: *expect,
        },
        Step::WriteLoop {
            bytes,
            chunk,
            stall,
        } => Step::WriteLoop {
            bytes: *bytes,
            chunk: *chunk,
            stall: *stall,
        },
        Step::Close => Step::Close,
    }
}

fn detach_call(strs: &mut Fresh<str>, call: &SyscallRequest) -> SyscallRequest {
    use SyscallRequest as R;
    let mut s = |p: &Arc<str>| strs.get(p, |p| Arc::from(p));
    match call {
        R::Stat { path } => R::Stat { path: s(path) },
        R::Lstat { path } => R::Lstat { path: s(path) },
        R::Access { path } => R::Access { path: s(path) },
        R::Readlink { path } => R::Readlink { path: s(path) },
        R::Open { path } => R::Open { path: s(path) },
        R::OpenCreate { path } => R::OpenCreate { path: s(path) },
        R::Unlink { path } => R::Unlink { path: s(path) },
        R::Mkdir { path } => R::Mkdir { path: s(path) },
        R::Rename { from, to } => R::Rename {
            from: s(from),
            to: s(to),
        },
        R::Symlink { target, linkpath } => R::Symlink {
            target: s(target),
            linkpath: s(linkpath),
        },
        R::Link { existing, linkpath } => R::Link {
            existing: s(existing),
            linkpath: s(linkpath),
        },
        R::Chmod { path, mode } => R::Chmod {
            path: s(path),
            mode: *mode,
        },
        R::Chown { path, uid, gid } => R::Chown {
            path: s(path),
            uid: *uid,
            gid: *gid,
        },
        // No path to copy.
        R::Write { .. } | R::Close { .. } | R::Sleep { .. } => call.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_and_round_runs() {
        for scenario in [
            Scenario::vi_smp(20 * 1024),
            Scenario::gedit_smp(2048),
            Scenario::gedit_multicore_v1(2048),
            Scenario::gedit_multicore_v2(2048),
        ] {
            let r = scenario.run_round(1);
            assert!(r.victim_exited, "{}: victim must finish", scenario.name);
            assert!(r.elapsed > SimDuration::ZERO);
        }
    }

    #[test]
    fn vi_smp_succeeds_reliably() {
        let scenario = Scenario::vi_smp(100 * 1024);
        let successes = (0..20)
            .filter(|&i| scenario.run_round(1000 + i).success)
            .count();
        assert!(successes >= 19, "vi SMP ~100%: got {successes}/20");
    }

    #[test]
    fn hardlink_vi_smp_succeeds_reliably() {
        // The hardlink swap exploits the same window as the symlink swap,
        // so on the SMP it should land with comparable reliability — and
        // when it does, /etc/passwd itself must carry the extra name.
        let scenario = Scenario::hardlink_vi_smp(100 * 1024);
        let mut successes = 0;
        for i in 0..20 {
            let (r, handles) = scenario.run_traced(1000 + i);
            if r.success {
                successes += 1;
                let pw = handles.kernel.vfs().stat(&scenario.layout.passwd).unwrap();
                let doc = handles.kernel.vfs().stat(&scenario.layout.doc).unwrap();
                assert_eq!(doc.ino, pw.ino, "doc name aliases the passwd inode");
                assert!(pw.nlink >= 2, "hardlink bumped the link count");
                assert!(!doc.is_symlink, "no symlink involved");
            }
        }
        assert!(successes >= 19, "hardlink vi SMP ~100%: got {successes}/20");
    }

    #[test]
    fn vi_uniprocessor_rarely_succeeds_small_file() {
        let scenario = Scenario::vi_uniprocessor(100 * 1024);
        let successes = (0..30)
            .filter(|&i| scenario.run_round(2000 + i).success)
            .count();
        // ~1.7 % expected; 30 rounds should see at most a couple.
        assert!(successes <= 3, "uniprocessor vi ~2%: got {successes}/30");
    }

    #[test]
    fn laxity_window_and_restriction() {
        let s = Scenario::vi_uniprocessor(2048);
        let (lo, hi) = s.laxity_window_ns().expect("uniform prologue");
        assert_eq!((lo, hi), (0, 100_000_000), "one 100 ms timeslice");
        assert!(Scenario::gedit_uniprocessor(2048)
            .laxity_window_ns()
            .is_some());

        // An SMP scenario keeps vi's default 200 µs prologue — still uniform.
        assert_eq!(
            Scenario::vi_smp(2048).laxity_window_ns(),
            Some((0, 200_000))
        );

        let sub = s.restrict_laxity(10, 20).expect("sub-range");
        assert_eq!(sub.laxity_window_ns(), Some((10, 20)));
        assert_eq!(sub.name, "vi-uniprocessor-2048B#lax[10,20]");
        // The full range round-trips; out-of-range / inverted are refused.
        assert_eq!(
            s.restrict_laxity(lo, hi).unwrap().laxity_window_ns(),
            Some((lo, hi))
        );
        assert!(s.restrict_laxity(0, hi + 1).is_none());
        assert!(s.restrict_laxity(20, 10).is_none());

        // Restriction is exact conditioning: a restricted round's prologue
        // draw lands inside the sub-range, and the rest of the round is the
        // ordinary engine (it still runs to completion).
        let r = sub.run_round(7);
        assert!(r.victim_exited);

        // Constant-prologue scenarios have no laxity axis.
        let mut flat = Scenario::vi_uniprocessor(2048);
        flat.victim
            .set_first_step(Step::Think(DurationDist::const_us(5.0)));
        assert_eq!(flat.laxity_window_ns(), None);
        assert!(flat.restrict_laxity(0, 1).is_none());
    }

    #[test]
    fn library_scenarios_report_and_restrict_their_laxity_window() {
        // The rule has no flag: any victim whose first step is a uniform
        // think time has a laxity window, DSL library victims included.
        let (_, s) = dsl::library::taxonomy_library(None).swap_remove(0);
        assert_eq!(s.laxity_window_ns(), Some((0, 200_000)), "{}", s.name);
        let sub = s.restrict_laxity(150_000, 200_000).expect("sub-range");
        assert_eq!(sub.laxity_window_ns(), Some((150_000, 200_000)));
        assert_eq!(sub.name, format!("{}#lax[150000,200000]", s.name));
        assert_eq!(
            format!("{:?}", &sub.victim.steps[1..]),
            format!("{:?}", &s.victim.steps[1..]),
            "only the prologue changes"
        );
        assert!(sub.run_round(3).victim_exited);
        assert!(s.restrict_laxity(0, 200_001).is_none());
        // A victim that opens with anything else has no window.
        let mut gap_first = s.clone();
        gap_first.victim.set_first_step(Step::gap_us(100, 0.0));
        assert_eq!(gap_first.laxity_window_ns(), None);
    }

    #[test]
    fn restricted_strata_recombine_to_the_full_law() {
        // Stratifying the discrete uniform is exact: sampling the stratum
        // scenario conditions the phase on the sub-range, so the stratum
        // success indicator has exactly the conditional rate. Spot-check
        // that the hot band found by phase scanning really is hot and a
        // dead band really is dead.
        let s = Scenario::vi_uniprocessor(2048);
        let hot = s.restrict_laxity(99_218_750, 100_000_000).unwrap();
        let hot_hits = (0..40).filter(|&i| hot.run_round(500 + i).success).count();
        assert!(hot_hits >= 3, "hot stratum ~20%: got {hot_hits}/40");
        let dead = s.restrict_laxity(0, 50_000_000).unwrap();
        let dead_hits = (0..40).filter(|&i| dead.run_round(500 + i).success).count();
        assert_eq!(dead_hits, 0, "first half of the slice cannot land");
    }

    #[test]
    fn gedit_uniprocessor_never_succeeds() {
        let scenario = Scenario::gedit_uniprocessor(2048);
        let successes = (0..30)
            .filter(|&i| scenario.run_round(3000 + i).success)
            .count();
        assert_eq!(successes, 0, "gedit uniprocessor must be 0%");
    }

    #[test]
    fn gedit_smp_succeeds_often() {
        let scenario = Scenario::gedit_smp(2048);
        let successes = (0..40)
            .filter(|&i| scenario.run_round(4000 + i).success)
            .count();
        // Paper: ~83 %. Accept a generous band for 40 rounds.
        assert!(
            (24..=40).contains(&successes),
            "gedit SMP ~83%: got {successes}/40"
        );
    }

    #[test]
    fn gedit_multicore_v1_fails_v2_succeeds_sometimes() {
        let v1 = Scenario::gedit_multicore_v1(2048);
        let v1_successes = (0..30).filter(|&i| v1.run_round(5000 + i).success).count();
        assert!(v1_successes <= 1, "v1 multicore ~0%: got {v1_successes}/30");

        let v2 = Scenario::gedit_multicore_v2(2048);
        let v2_successes = (0..30).filter(|&i| v2.run_round(6000 + i).success).count();
        assert!(
            v2_successes >= 4,
            "v2 multicore 'many successes': got {v2_successes}/30"
        );
    }

    #[test]
    fn traced_round_produces_events() {
        let (r, handles) = Scenario::gedit_smp(2048).run_traced(7);
        assert!(r.victim_exited);
        assert!(handles.kernel.trace().len() > 20);
    }

    #[test]
    fn deterministic_rounds() {
        let s = Scenario::gedit_smp(2048);
        assert_eq!(s.run_round(42), s.run_round(42));
        let v = Scenario::vi_smp(1);
        assert_eq!(v.run_round(43), v.run_round(43));
    }

    #[test]
    fn pooled_rounds_match_plain_rounds_exactly() {
        // The fast path (template VFS + recycled kernel buffers) must be
        // observably identical to building every round from scratch —
        // the parallel Monte-Carlo engine's correctness rests on this.
        for scenario in [Scenario::vi_smp(1), Scenario::gedit_smp(2048)] {
            let template = scenario.template_vfs();
            let mut pool = KernelPool::new();
            for seed in 0..12 {
                let plain = scenario.run_round(seed);
                let (pooled, returned) = scenario.run_round_pooled(seed, &template, pool);
                pool = returned;
                assert_eq!(plain, pooled, "{} seed {seed}", scenario.name);
            }
        }
    }

    #[test]
    fn template_vfs_matches_populated_kernel() {
        let scenario = Scenario::gedit_smp(2048);
        let template = scenario.template_vfs();
        // Same entries, same inode numbering as the in-kernel population.
        let handles = scenario.build(5, false);
        for path in [
            &scenario.layout.passwd,
            &scenario.layout.home,
            &scenario.layout.doc,
            &scenario.layout.attack_dir,
        ] {
            let a = template.stat(path).expect("template entry");
            let b = handles.kernel.vfs().stat(path).expect("kernel entry");
            assert_eq!(a.ino, b.ino, "{path}");
            assert_eq!(a.uid, b.uid, "{path}");
        }
    }

    #[test]
    fn fork_matches_full_template_build() {
        // One shared base image must fork into templates state-identical
        // to full per-scenario builds — across families, file sizes, and
        // attacker variants (everything a sweep grid varies).
        let scenarios = [
            Scenario::vi_smp(100 * 1024),
            Scenario::vi_smp(1),
            Scenario::vi_uniprocessor(40 * 1024),
            Scenario::gedit_smp(2048),
            Scenario::gedit_multicore_v1(2048),
            Scenario::gedit_multicore_v2(2048),
            Scenario::pipelined_attack(512),
            Scenario::hardlink_vi_smp(100 * 1024),
        ];
        let base = scenarios[0].base_vfs();
        for scenario in &scenarios {
            assert_eq!(
                base,
                scenario.base_vfs(),
                "{}: base image must not depend on swept parameters",
                scenario.name
            );
            assert_eq!(
                scenario.template_vfs_from_base(&base),
                scenario.template_vfs(),
                "{}: forked template diverged from full build",
                scenario.name
            );
        }
    }
}

#[cfg(test)]
mod detach_tests {
    use super::*;
    use crate::dsl::library;

    /// Every `Scenario::*` constructor, every attacker kind and every
    /// DSL library entry.
    fn every_scenario() -> Vec<Scenario> {
        let mut all = vec![
            Scenario::vi_uniprocessor(2048),
            Scenario::vi_uniprocessor(2048)
                .restrict_laxity(90_000_000, 100_000_000)
                .unwrap(),
            Scenario::vi_smp(2048),
            Scenario::vi_smp(2048).with_defense(DefensePolicy::Edgi),
            Scenario::gedit_uniprocessor(2048),
            Scenario::gedit_smp(2048),
            Scenario::gedit_multicore_v1(2048),
            Scenario::gedit_multicore_v2(2048),
            Scenario::pipelined_attack(512),
            Scenario::sequential_attack(512),
            Scenario::hardlink_vi_smp(2048),
        ];
        all.extend(library::taxonomy_library(None).into_iter().map(|(_, s)| s));
        all
    }

    fn ptr<T: ?Sized>(a: &Arc<T>) -> *const () {
        Arc::as_ptr(a).cast()
    }

    fn call_arcs(call: &SyscallRequest, out: &mut Vec<*const ()>) {
        use SyscallRequest as R;
        match call {
            R::Stat { path: p }
            | R::Lstat { path: p }
            | R::Access { path: p }
            | R::Readlink { path: p }
            | R::Open { path: p }
            | R::OpenCreate { path: p }
            | R::Unlink { path: p }
            | R::Mkdir { path: p }
            | R::Chmod { path: p, .. }
            | R::Chown { path: p, .. } => out.push(ptr(p)),
            R::Rename { from: a, to: b }
            | R::Symlink {
                target: a,
                linkpath: b,
            }
            | R::Link {
                existing: a,
                linkpath: b,
            } => out.extend([ptr(a), ptr(b)]),
            R::Write { .. } | R::Close { .. } | R::Sleep { .. } => {}
        }
    }

    /// Every `Arc` allocation a scenario holds, in a fixed walk order.
    fn arcs(s: &Scenario) -> Vec<*const ()> {
        let mut out = Vec::new();
        let c = &s.victim;
        out.extend([ptr(&c.name), ptr(&c.steps), ptr(&c.extra_files)]);
        for step in c.steps.iter() {
            if let Step::Call { call, .. } = step {
                call_arcs(call, &mut out);
            }
        }
        for p in &s.attacker {
            out.extend([ptr(p), ptr(&p.name), ptr(&p.watch), ptr(&p.strike)]);
            out.extend(p.rehearsal.as_ref().map(ptr));
            for call in p
                .strike
                .iter()
                .chain(p.rehearsal.iter().flat_map(|r| r.iter()))
            {
                call_arcs(call, &mut out);
            }
        }
        out
    }

    #[test]
    fn attacker_pids_read_as_a_slice_inline_or_spilled() {
        for len in [0, 1, 4, 5, 9] {
            let pids = AttackerPids::consecutive(Pid(3), len);
            let want: Vec<Pid> = (3..3 + len as u32).map(Pid).collect();
            assert_eq!(&*pids, &want[..], "{len}");
            assert_eq!(matches!(pids.0, PidRepr::Inline { .. }), len <= 4, "{len}");
        }
        let crowd = library::vi_crowd(2048).compile();
        let h = crowd.build(1, false);
        assert_eq!(h.attackers.len(), crowd.attacker.len());
        assert_eq!(h.attackers[0], Pid(h.victim.0 + 1));
    }

    #[test]
    fn detached_copies_are_equal_and_share_nothing() {
        let mut aliased = 0;
        for orig in every_scenario() {
            let copy = orig.detached();
            let name = &orig.name;
            assert_eq!(format!("{orig:?}"), format!("{copy:?}"), "{name}");
            for seed in 0..5 {
                assert_eq!(
                    orig.run_round(seed),
                    copy.run_round(seed),
                    "{name} seed {seed}"
                );
            }
            let (a, b) = (arcs(&orig), arcs(&copy));
            assert_eq!(a.len(), b.len(), "{name}");
            assert!(
                b.iter().all(|p| !a.contains(p)),
                "{name}: copy shares an Arc"
            );
            for i in 0..a.len() {
                for j in 0..i {
                    assert_eq!(
                        a[i] == a[j],
                        b[i] == b[j],
                        "{name}: aliasing of {j} and {i}"
                    );
                    aliased += usize::from(a[i] == a[j]);
                }
            }
        }
        assert!(aliased > 0, "some scenario shares an Arc between fields");
    }
}

#[cfg(test)]
mod defense_tests {
    use super::*;
    use tocttou_os::defense::DefensePolicy;

    #[test]
    fn edgi_defense_stops_every_attack() {
        // The Section 8 counterfactual: with check-use invariants guarded,
        // none of the paper's attacks gives away the privileged file.
        for scenario in [
            Scenario::vi_smp(100 * 1024).with_defense(DefensePolicy::Edgi),
            Scenario::vi_smp(1).with_defense(DefensePolicy::Edgi),
            Scenario::gedit_smp(2048).with_defense(DefensePolicy::Edgi),
            Scenario::gedit_multicore_v2(2048).with_defense(DefensePolicy::Edgi),
        ] {
            for seed in 0..15 {
                let r = scenario.run_round(seed);
                assert!(
                    !r.success,
                    "{} seed {seed}: defense must hold",
                    scenario.name
                );
            }
        }
    }

    #[test]
    fn defense_denies_instead_of_chowning() {
        // When the attack would have landed, the victim's chown is denied
        // (EACCES) and the denial is visible in the defense stats.
        let scenario = Scenario::vi_smp(100 * 1024).with_defense(DefensePolicy::Edgi);
        let mut denied = 0;
        for seed in 0..10 {
            let (r, handles) = scenario.run_traced(seed);
            assert!(!r.success);
            denied += handles.kernel.defense().denials();
        }
        assert!(denied >= 8, "most rounds should trip the guard: {denied}");
    }

    #[test]
    fn defense_does_not_break_benign_saves() {
        // Without an attacker interfering, the guarded save completes and
        // ownership is restored normally (no false positives).
        let mut scenario = Scenario::vi_smp(50 * 1024).with_defense(DefensePolicy::Edgi);
        scenario.attacker.clear();
        let mut handles = scenario.build(3, false);
        let r = scenario.finish_round(&mut handles);
        assert!(r.victim_exited && !r.success);
        assert_eq!(
            handles.kernel.vfs().stat(&scenario.layout.doc).unwrap().uid,
            scenario.layout.attacker.0,
            "benign save restored ownership"
        );
        assert_eq!(handles.kernel.defense().denials(), 0, "no false positives");
    }
}

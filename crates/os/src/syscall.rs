//! The phase-structured system-call engine.
//!
//! Each syscall is compiled, at entry, into a sequence of [`Phase`]s:
//! preemptible CPU time, FIFO semaphore acquire/release, instantaneous VFS
//! commits, and timed blocking. The decomposition is what lets the simulator
//! reproduce the paper's microsecond event analyses:
//!
//! * `rename` holds the directory semaphore for its whole duration but
//!   **installs the new name partway through** — the attacker's lock-free
//!   `stat` can see it "somewhere within the execution of rename";
//! * `unlink` detaches the directory entry early, releases the semaphore,
//!   and only then pays the truncation tail — the Section 7 pipelined
//!   attacker overlaps `symlink` with that tail;
//! * a first call through an unmapped libc wrapper page inserts a 6 µs trap
//!   (page fault) ahead of the syscall — the difference between attacker
//!   programs v1 and v2 (Section 6.2).
//!
//! The [`Phase::Commit`] steps are also the observation points for both the
//! EDGI defense ([`crate::defense`]) and the passive race detector
//! ([`crate::detect`]): a commit is the instant a syscall's namespace
//! effect becomes visible, so hooking commits gives both subsystems the
//! exact serialization order the simulated VFS itself saw.
//!
//! Compiling is on the path of every simulated syscall, so it re-derives
//! nothing that cannot change between calls. The fixed costs are
//! precomputed once per machine into a `CostTable` (built at boot and
//! carried by warm-boot checkpoints); only the byte-size and path-depth
//! costs are computed per call. The request's paths move into the commit
//! steps instead of being cloned.

use crate::costs::CostModel;
use crate::error::OsError;
use crate::ids::{Fd, Gid, SemId, Uid};
use crate::process::{LibcPage, Process, SyscallName, SyscallRequest};
use crate::sem::SemTable;
use crate::vfs::Vfs;
use std::collections::VecDeque;
use std::sync::Arc;
use tocttou_sim::time::SimDuration;

/// What kind of CPU time a [`Phase::Cpu`] burns (for tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuKind {
    /// User-space computation (from [`Action::Compute`](crate::process::Action::Compute)).
    User,
    /// In-kernel work charged to the syscall.
    Kernel,
    /// A page-fault trap (libc wrapper first touch).
    Trap,
}

/// One step of an in-flight action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Burn CPU; preemptible and resumable.
    Cpu {
        /// Remaining duration.
        dur: SimDuration,
        /// What the time is charged to.
        kind: CpuKind,
    },
    /// Acquire a FIFO semaphore (blocks if held).
    Acquire(SemId),
    /// Release a held semaphore.
    Release(SemId),
    /// Instantaneously perform a VFS operation / record a result.
    Commit(CommitStep),
    /// Block without consuming CPU for the duration (I/O, sleep).
    Blocked(SimDuration),
}

/// The instantaneous VFS mutations / observations a syscall performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitStep {
    /// Sample `stat`/`lstat` results (mid-call: the sample point).
    StatSample {
        /// Path to sample.
        path: Arc<str>,
        /// Follow a final symlink?
        follow: bool,
    },
    /// Create/truncate a regular file and allocate an fd (owner = caller).
    CreateFile {
        /// Path to create.
        path: Arc<str>,
    },
    /// Open an existing file and allocate an fd.
    OpenExisting {
        /// Path to open.
        path: Arc<str>,
    },
    /// Append bytes through an fd.
    Append {
        /// Descriptor.
        fd: Fd,
        /// Byte count.
        bytes: u64,
    },
    /// Close an fd.
    CloseFd {
        /// Descriptor.
        fd: Fd,
    },
    /// Detach a directory entry (first half of unlink). On success the
    /// kernel inserts the truncation-tail CPU phase after the following
    /// `Release`.
    UnlinkDetach {
        /// Path to unlink.
        path: Arc<str>,
    },
    /// Create a symlink.
    SymlinkCreate {
        /// Target stored in the link.
        target: Arc<str>,
        /// Name to bind.
        linkpath: Arc<str>,
    },
    /// Create a hard link: bind `linkpath` to the inode `existing` names
    /// and bump its link count.
    LinkCreate {
        /// Existing name of the inode.
        existing: Arc<str>,
        /// Name to bind.
        linkpath: Arc<str>,
    },
    /// Install the new name of a rename **while still holding the
    /// semaphore** (the mid-rename visibility point).
    RenameCommit {
        /// Source name.
        from: Arc<str>,
        /// Destination name.
        to: Arc<str>,
    },
    /// Apply chmod.
    Chmod {
        /// Path (symlinks followed).
        path: Arc<str>,
        /// New mode.
        mode: u32,
    },
    /// Apply chown.
    Chown {
        /// Path (symlinks followed).
        path: Arc<str>,
        /// New owner.
        uid: Uid,
        /// New group.
        gid: Gid,
    },
    /// Create a directory.
    Mkdir {
        /// Path to create.
        path: Arc<str>,
    },
    /// Read a symlink target.
    Readlink {
        /// Symlink path.
        path: Arc<str>,
    },
    /// Record success with no VFS effect (sleep).
    Nop,
    /// Record a failure discovered at compile time (e.g. missing parent
    /// directory).
    Fail(OsError),
}

impl CommitStep {
    /// Whether the step can change what a name resolves to: it creates,
    /// removes or moves a directory entry.
    pub(crate) fn rebinds(&self) -> bool {
        matches!(
            self,
            CommitStep::CreateFile { .. }
                | CommitStep::UnlinkDetach { .. }
                | CommitStep::SymlinkCreate { .. }
                | CommitStep::LinkCreate { .. }
                | CommitStep::RenameCommit { .. }
                | CommitStep::Mkdir { .. }
        )
    }
}

/// Every fixed phase duration [`compile`] charges, computed once per
/// machine from its [`CostModel`] and `speed_factor`.
///
/// Each entry is `SimDuration::from_micros_f64(cost_us * speed)`, the
/// charge itself, computed once per machine instead of once per call. The
/// costs that depend on the call stay per call: `write` and the unlink
/// truncation tail scale with bytes, and the maze cost with the path's
/// depth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CostTable {
    speed: f64,
    entry: SimDuration,
    /// `stat` CPU before and after the sample point, indexed by whether the
    /// directory semaphore was held at entry.
    stat_head: [SimDuration; 2],
    stat_tail: [SimDuration; 2],
    open_create: SimDuration,
    open_existing: SimDuration,
    close: SimDuration,
    unlink_detach: SimDuration,
    symlink: SimDuration,
    link: SimDuration,
    rename_visible: SimDuration,
    rename_tail: SimDuration,
    chmod: SimDuration,
    chown: SimDuration,
    mkdir: SimDuration,
    readlink: SimDuration,
    trap: SimDuration,
    /// The resolve walk a `chmod`/`chown` of a missing name still pays.
    enoent_resolve: SimDuration,
}

impl CostTable {
    /// The table for a machine with cost model `costs` and speed factor
    /// `speed`.
    pub(crate) fn new(costs: &CostModel, speed: f64) -> Self {
        let scaled = |cost_us: f64| us(cost_us, speed);
        let stat = |contended: bool| {
            let total = costs.stat_total_us(contended);
            let tail = costs.stat_sample_tail_us.min(total);
            (scaled(total - tail), scaled(tail))
        };
        let (free_head, free_tail) = stat(false);
        let (held_head, held_tail) = stat(true);
        let rename_visible = costs.rename_us * costs.rename_visible_frac;
        CostTable {
            speed,
            entry: scaled(costs.syscall_entry_us),
            stat_head: [free_head, held_head],
            stat_tail: [free_tail, held_tail],
            open_create: scaled(costs.open_create_us),
            open_existing: scaled(costs.open_existing_us),
            close: scaled(costs.close_us),
            unlink_detach: scaled(costs.unlink_detach_us),
            symlink: scaled(costs.symlink_us),
            link: scaled(costs.link_us),
            rename_visible: scaled(rename_visible),
            rename_tail: scaled(costs.rename_us - rename_visible),
            chmod: scaled(costs.chmod_us),
            chown: scaled(costs.chown_us),
            mkdir: scaled(costs.mkdir_us),
            readlink: scaled(costs.readlink_us),
            trap: scaled(costs.trap_us),
            enoent_resolve: scaled(costs.stat_resolve_us),
        }
    }
}

fn us(costs_us: f64, speed: f64) -> SimDuration {
    SimDuration::from_micros_f64(costs_us * speed)
}

fn kernel_cpu(dur: SimDuration) -> Phase {
    Phase::Cpu {
        dur,
        kind: CpuKind::Kernel,
    }
}

/// Compiles `req` into phases for `proc_`, inserting a page-fault trap if
/// the wrapper page is unmapped (and mapping it). The phases are written
/// into `phases` (cleared first) so the kernel can reuse one deque per
/// process instead of allocating per syscall; the syscall's trace name is
/// returned. The request's paths move into the commit steps.
///
/// `table` holds the machine's fixed costs; `costs` supplies the per-call
/// ones (write size, maze depth), scaled by the table's speed factor. The
/// semaphore targets are resolved against the current VFS state
/// (dcache-style lookup); a missing parent directory compiles to an
/// immediate failure.
pub(crate) fn compile(
    req: SyscallRequest,
    proc_: &mut Process,
    vfs: &Vfs,
    sems: &SemTable,
    costs: &CostModel,
    table: &CostTable,
    phases: &mut VecDeque<Phase>,
) -> SyscallName {
    let name = req.name();
    phases.clear();

    // Page-fault trap for a cold libc wrapper page (Section 6.2.1).
    if let Some(page) = LibcPage::for_call(name) {
        if !proc_.mapped_pages.contains(&page) {
            proc_.mapped_pages.insert(page);
            phases.push_back(Phase::Cpu {
                dur: table.trap,
                kind: CpuKind::Trap,
            });
        }
    }

    // Path resolution work scales with the path's depth when the maze cost
    // is enabled (long-pathname victim slowdown, Section 1's enhancement).
    // With no per-component cost the count cannot change the charge
    // (`x + 0.0 == x`), so stock machines take the table's entry cost.
    let entry = if costs.resolve_per_component_us != 0.0 {
        let components = req
            .primary_path()
            .map(|p| p.split('/').filter(|c| !c.is_empty()).count())
            .unwrap_or(0);
        us(
            costs.syscall_entry_us + costs.maze_cost_us(components),
            table.speed,
        )
    } else {
        table.entry
    };
    phases.push_back(kernel_cpu(entry));

    // Helper: resolve the directory semaphore or fail the whole call.
    let dir_sem = |path: &str, phases: &mut VecDeque<Phase>| -> Option<SemId> {
        match vfs.dir_sem_of(path) {
            Ok(sem) => Some(sem),
            Err(e) => {
                phases.push_back(Phase::Commit(CommitStep::Fail(e)));
                None
            }
        }
    };

    let follow = !matches!(req, SyscallRequest::Lstat { .. });
    match req {
        SyscallRequest::Stat { path }
        | SyscallRequest::Lstat { path }
        | SyscallRequest::Access { path } => {
            // Lock-free read; inflated when the directory semaphore is held
            // at entry (dentry contention — Section 6.2.2, multi-core only
            // via the machine's contention factor). A factor of 1.0 makes
            // the probe moot (`x * 1.0 == x`), so it is skipped.
            let contended = costs.stat_contention_factor != 1.0
                && vfs
                    .dir_sem_of(&path)
                    .map(|sem| sems.is_held(sem))
                    .unwrap_or(false);
            let held = usize::from(contended);
            phases.push_back(kernel_cpu(table.stat_head[held]));
            phases.push_back(Phase::Commit(CommitStep::StatSample { path, follow }));
            phases.push_back(kernel_cpu(table.stat_tail[held]));
        }
        SyscallRequest::OpenCreate { path } => {
            if let Some(sem) = dir_sem(&path, phases) {
                phases.push_back(Phase::Acquire(sem));
                // The new entry becomes visible at the end of the create work
                // (commit), then the semaphore is released.
                phases.push_back(kernel_cpu(table.open_create));
                phases.push_back(Phase::Commit(CommitStep::CreateFile { path }));
                phases.push_back(Phase::Release(sem));
            }
        }
        SyscallRequest::Open { path } => {
            phases.push_back(kernel_cpu(table.open_existing));
            phases.push_back(Phase::Commit(CommitStep::OpenExisting { path }));
        }
        SyscallRequest::Write { fd, bytes } => {
            phases.push_back(kernel_cpu(costs.write_cost(bytes).mul_f64(table.speed)));
            phases.push_back(Phase::Commit(CommitStep::Append { fd, bytes }));
        }
        SyscallRequest::Close { fd } => {
            phases.push_back(kernel_cpu(table.close));
            phases.push_back(Phase::Commit(CommitStep::CloseFd { fd }));
        }
        SyscallRequest::Unlink { path } => {
            // vfs_unlink locks the parent directory (entry detach) and the
            // target inode (truncation). Resolution happens at entry, like
            // the kernel's dcache lookup. Lock order: directory first, then
            // inode — chmod/chown never take the directory semaphore, so no
            // cycle is possible.
            match (vfs.dir_sem_of(&path), vfs.file_sem_of(&path, false)) {
                (Ok(dir), Ok(file)) => {
                    phases.push_back(Phase::Acquire(dir));
                    phases.push_back(Phase::Acquire(file));
                    phases.push_back(kernel_cpu(table.unlink_detach));
                    phases.push_back(Phase::Commit(CommitStep::UnlinkDetach { path }));
                    // The directory is free as soon as the entry is gone —
                    // this is what lets the pipelined attacker's symlink in —
                    // but the inode stays locked through the truncation tail,
                    // which the commit handler inserts between the releases.
                    phases.push_back(Phase::Release(dir));
                    phases.push_back(Phase::Release(file));
                }
                (Err(e), _) | (_, Err(e)) => {
                    phases.push_back(Phase::Commit(CommitStep::Fail(e)));
                }
            }
        }
        SyscallRequest::Symlink { target, linkpath } => {
            if let Some(sem) = dir_sem(&linkpath, phases) {
                phases.push_back(Phase::Acquire(sem));
                phases.push_back(kernel_cpu(table.symlink));
                phases.push_back(Phase::Commit(CommitStep::SymlinkCreate {
                    target,
                    linkpath,
                }));
                phases.push_back(Phase::Release(sem));
            }
        }
        SyscallRequest::Link { existing, linkpath } => {
            // vfs_link locks the destination directory (entry insert) and
            // the source inode (nlink bump) — same order as unlink:
            // directory first, then inode.
            match (vfs.dir_sem_of(&linkpath), vfs.file_sem_of(&existing, false)) {
                (Ok(dir), Ok(file)) => {
                    phases.push_back(Phase::Acquire(dir));
                    phases.push_back(Phase::Acquire(file));
                    phases.push_back(kernel_cpu(table.link));
                    phases.push_back(Phase::Commit(CommitStep::LinkCreate { existing, linkpath }));
                    phases.push_back(Phase::Release(dir));
                    phases.push_back(Phase::Release(file));
                }
                (Err(e), _) | (_, Err(e)) => {
                    phases.push_back(Phase::Commit(CommitStep::Fail(e)));
                }
            }
        }
        SyscallRequest::Rename { from, to } => {
            match (vfs.dir_sem_of(&from), vfs.dir_sem_of(&to)) {
                (Ok(a), Ok(b)) => {
                    // Acquire in id order (deadlock avoidance), dedupe.
                    let mut locks = [a, b];
                    locks.sort();
                    phases.push_back(Phase::Acquire(locks[0]));
                    if locks[1] != locks[0] {
                        phases.push_back(Phase::Acquire(locks[1]));
                    }
                    phases.push_back(kernel_cpu(table.rename_visible));
                    // The new name is installed *here*, semaphore still held.
                    phases.push_back(Phase::Commit(CommitStep::RenameCommit { from, to }));
                    phases.push_back(kernel_cpu(table.rename_tail));
                    if locks[1] != locks[0] {
                        phases.push_back(Phase::Release(locks[1]));
                    }
                    phases.push_back(Phase::Release(locks[0]));
                }
                (Err(e), _) | (_, Err(e)) => {
                    phases.push_back(Phase::Commit(CommitStep::Fail(e)));
                }
            }
        }
        SyscallRequest::Chmod { path, mode } => {
            // notify_change semantics: resolve at entry (follows symlinks),
            // lock the resolved inode's semaphore, do the work, apply *by
            // path* at the end — the application re-resolves, which is the
            // syscall-internal TOCTTOU the cascade exploits. When the entry
            // lookup finds no name, the walk still costs resolve time and
            // the outcome is decided at its end (the name may have appeared
            // meanwhile — dcache walk semantics), without taking a lock.
            match vfs.file_sem_of(&path, true) {
                Ok(sem) => {
                    phases.push_back(Phase::Acquire(sem));
                    phases.push_back(kernel_cpu(table.chmod));
                    phases.push_back(Phase::Commit(CommitStep::Chmod { path, mode }));
                    phases.push_back(Phase::Release(sem));
                }
                Err(OsError::Enoent) => {
                    phases.push_back(kernel_cpu(table.enoent_resolve));
                    phases.push_back(Phase::Commit(CommitStep::Chmod { path, mode }));
                }
                Err(e) => phases.push_back(Phase::Commit(CommitStep::Fail(e))),
            }
        }
        SyscallRequest::Chown { path, uid, gid } => match vfs.file_sem_of(&path, true) {
            Ok(sem) => {
                phases.push_back(Phase::Acquire(sem));
                phases.push_back(kernel_cpu(table.chown));
                phases.push_back(Phase::Commit(CommitStep::Chown { path, uid, gid }));
                phases.push_back(Phase::Release(sem));
            }
            Err(OsError::Enoent) => {
                phases.push_back(kernel_cpu(table.enoent_resolve));
                phases.push_back(Phase::Commit(CommitStep::Chown { path, uid, gid }));
            }
            Err(e) => phases.push_back(Phase::Commit(CommitStep::Fail(e))),
        },
        SyscallRequest::Mkdir { path } => {
            if let Some(sem) = dir_sem(&path, phases) {
                phases.push_back(Phase::Acquire(sem));
                phases.push_back(kernel_cpu(table.mkdir));
                phases.push_back(Phase::Commit(CommitStep::Mkdir { path }));
                phases.push_back(Phase::Release(sem));
            }
        }
        SyscallRequest::Readlink { path } => {
            phases.push_back(kernel_cpu(table.readlink));
            phases.push_back(Phase::Commit(CommitStep::Readlink { path }));
        }
        SyscallRequest::Sleep { duration } => {
            phases.push_back(Phase::Blocked(duration));
            phases.push_back(Phase::Commit(CommitStep::Nop));
        }
    }

    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Pid;
    use crate::process::{Action, LogicCtx, SyscallResult};
    use crate::vfs::InodeMeta;
    use tocttou_sim::time::SimTime;

    fn test_proc(pretouch: bool) -> Process {
        Process::new(
            Pid(1),
            "t".into(),
            Uid(0),
            Gid(0),
            Box::new(|_: &LogicCtx, _: Option<&SyscallResult>| Action::Exit),
            pretouch,
            crate::process::ProcBuffers::default(),
        )
    }

    fn test_vfs() -> Vfs {
        let mut vfs = Vfs::new();
        let meta = InodeMeta {
            uid: Uid(0),
            gid: Gid(0),
            mode: 0o755,
        };
        vfs.mkdir("/d", meta).unwrap();
        vfs.create_file("/d/f", meta).unwrap();
        vfs
    }

    /// The pre-reuse return shape, reconstructed so the tests below can
    /// keep asserting on an owned phase list.
    struct CompiledSyscall {
        #[allow(dead_code)]
        name: SyscallName,
        phases: VecDeque<Phase>,
    }

    /// Shadows `super::compile` with the old 6-argument signature: the
    /// request is borrowed and the cost table built per call.
    fn compile(
        req: &SyscallRequest,
        proc_: &mut Process,
        vfs: &Vfs,
        sems: &SemTable,
        costs: &CostModel,
        speed: f64,
    ) -> CompiledSyscall {
        let mut phases = VecDeque::new();
        let table = CostTable::new(costs, speed);
        let name = super::compile(req.clone(), proc_, vfs, sems, costs, &table, &mut phases);
        CompiledSyscall { name, phases }
    }

    fn cpu_total_us(c: &CompiledSyscall) -> f64 {
        c.phases
            .iter()
            .map(|p| match p {
                Phase::Cpu { dur, .. } => dur.as_micros_f64(),
                _ => 0.0,
            })
            .sum()
    }

    /// Every CPU phase `compile` emits equals the cost model's figure times
    /// the machine's speed, `SimDuration::from_micros_f64(cost_us * speed)`,
    /// computed here from the `CostModel` fields alone: on every stock
    /// machine, with the stat's directory free and held (the multi-core
    /// spec inflates the held one), and on a maze machine whose entry cost
    /// grows with the path. `write` is the one byte-size charge compile
    /// emits; it scales its duration instead.
    #[test]
    fn compiled_durations_match_the_cost_model() {
        use crate::machine::MachineSpec;
        let mut maze = MachineSpec::multicore_pentium_d();
        maze.costs.resolve_per_component_us = 0.7;
        maze.speed_factor = 1.3;
        let vfs = test_vfs();
        let mut held = SemTable::new();
        held.acquire_or_enqueue(vfs.dir_sem_of("/d/f").unwrap(), Pid(99), SimTime::ZERO);
        let path = |p: &str| -> Arc<str> { p.into() };
        for spec in [
            MachineSpec::uniprocessor(),
            MachineSpec::smp_xeon(),
            MachineSpec::multicore_pentium_d(),
            maze,
        ] {
            let c = &spec.costs;
            let speed = spec.speed_factor;
            let us = |cost_us: f64| SimDuration::from_micros_f64(cost_us * speed);
            let stat = |factor: f64| {
                let total = (c.stat_resolve_us + c.stat_finish_us) * factor;
                let tail = c.stat_sample_tail_us.min(total);
                vec![us(total - tail), us(tail)]
            };
            let visible = c.rename_us * c.rename_visible_frac;
            let write =
                SimDuration::from_micros_f64(c.write_base_us + c.write_per_kb_us * 5000.0 / 1024.0)
                    .mul_f64(speed);
            // (request, directory semaphore held at entry, body phases).
            let cases = vec![
                (
                    SyscallRequest::Stat { path: path("/d/f") },
                    false,
                    stat(1.0),
                ),
                (
                    SyscallRequest::Lstat { path: path("/d/f") },
                    false,
                    stat(1.0),
                ),
                (
                    SyscallRequest::Access { path: path("/d/f") },
                    false,
                    stat(1.0),
                ),
                (
                    SyscallRequest::Stat { path: path("/d/f") },
                    true,
                    stat(c.stat_contention_factor),
                ),
                (
                    SyscallRequest::OpenCreate { path: path("/d/n") },
                    false,
                    vec![us(c.open_create_us)],
                ),
                (
                    SyscallRequest::Open { path: path("/d/f") },
                    false,
                    vec![us(c.open_existing_us)],
                ),
                (
                    SyscallRequest::Write {
                        fd: Fd(3),
                        bytes: 5000,
                    },
                    false,
                    vec![write],
                ),
                (
                    SyscallRequest::Close { fd: Fd(3) },
                    false,
                    vec![us(c.close_us)],
                ),
                (
                    SyscallRequest::Unlink { path: path("/d/f") },
                    false,
                    vec![us(c.unlink_detach_us)],
                ),
                (
                    SyscallRequest::Symlink {
                        target: path("/x"),
                        linkpath: path("/d/l"),
                    },
                    false,
                    vec![us(c.symlink_us)],
                ),
                (
                    SyscallRequest::Link {
                        existing: path("/d/f"),
                        linkpath: path("/d/h"),
                    },
                    false,
                    vec![us(c.link_us)],
                ),
                (
                    SyscallRequest::Rename {
                        from: path("/d/f"),
                        to: path("/d/g"),
                    },
                    false,
                    vec![us(visible), us(c.rename_us - visible)],
                ),
                (
                    SyscallRequest::Chmod {
                        path: path("/d/f"),
                        mode: 0o600,
                    },
                    false,
                    vec![us(c.chmod_us)],
                ),
                (
                    SyscallRequest::Chmod {
                        path: path("/d/gone"),
                        mode: 0o600,
                    },
                    false,
                    vec![us(c.stat_resolve_us)],
                ),
                (
                    SyscallRequest::Chown {
                        path: path("/d/f"),
                        uid: Uid(1),
                        gid: Gid(1),
                    },
                    false,
                    vec![us(c.chown_us)],
                ),
                (
                    SyscallRequest::Chown {
                        path: path("/d/gone"),
                        uid: Uid(1),
                        gid: Gid(1),
                    },
                    false,
                    vec![us(c.stat_resolve_us)],
                ),
                (
                    SyscallRequest::Mkdir { path: path("/d/s") },
                    false,
                    vec![us(c.mkdir_us)],
                ),
                (
                    SyscallRequest::Readlink { path: path("/d/f") },
                    false,
                    vec![us(c.readlink_us)],
                ),
                (
                    SyscallRequest::Sleep {
                        duration: SimDuration::from_micros(50),
                    },
                    false,
                    vec![],
                ),
            ];
            for (req, contended, body) in cases {
                // Every path above has two components; fd and sleep calls
                // name none.
                let components = if req.primary_path().is_some() {
                    2.0
                } else {
                    0.0
                };
                let entry = us(c.syscall_entry_us + c.resolve_per_component_us * components);
                // A cold process pays the wrapper-page trap on every call
                // that has a wrapper page.
                let mut want = Vec::new();
                if LibcPage::for_call(req.name()).is_some() {
                    want.push(us(c.trap_us));
                }
                want.push(entry);
                want.extend(body);
                let sems = if contended { &held } else { &SemTable::new() };
                let got: Vec<SimDuration> =
                    compile(&req, &mut test_proc(false), &vfs, sems, c, speed)
                        .phases
                        .iter()
                        .filter_map(|ph| match ph {
                            Phase::Cpu { dur, .. } => Some(*dur),
                            _ => None,
                        })
                        .collect();
                assert_eq!(got, want, "{} {req:?} contended={contended}", spec.name);
            }
        }
    }

    #[test]
    fn cold_page_inserts_trap_once() {
        let mut p = test_proc(false);
        let vfs = test_vfs();
        let sems = SemTable::new();
        let costs = CostModel::default();
        let req = SyscallRequest::Unlink {
            path: "/d/f".into(),
        };
        let first = compile(&req, &mut p, &vfs, &sems, &costs, 1.0);
        assert!(
            matches!(
                first.phases.front(),
                Some(Phase::Cpu {
                    kind: CpuKind::Trap,
                    ..
                })
            ),
            "first unlink must trap"
        );
        let second = compile(&req, &mut p, &vfs, &sems, &costs, 1.0);
        assert!(
            !second.phases.iter().any(|ph| matches!(
                ph,
                Phase::Cpu {
                    kind: CpuKind::Trap,
                    ..
                }
            )),
            "page now mapped"
        );
    }

    #[test]
    fn unlink_warms_symlink_shared_page() {
        let mut p = test_proc(false);
        let vfs = test_vfs();
        let sems = SemTable::new();
        let costs = CostModel::default();
        compile(
            &SyscallRequest::Unlink {
                path: "/d/f".into(),
            },
            &mut p,
            &vfs,
            &sems,
            &costs,
            1.0,
        );
        let sym = compile(
            &SyscallRequest::Symlink {
                target: "/x".into(),
                linkpath: "/d/l".into(),
            },
            &mut p,
            &vfs,
            &sems,
            &costs,
            1.0,
        );
        assert!(!sym.phases.iter().any(|ph| matches!(
            ph,
            Phase::Cpu {
                kind: CpuKind::Trap,
                ..
            }
        )));
    }

    #[test]
    fn pretouched_process_never_traps() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let sems = SemTable::new();
        let costs = CostModel::default();
        for req in [
            SyscallRequest::Stat {
                path: "/d/f".into(),
            },
            SyscallRequest::Unlink {
                path: "/d/f".into(),
            },
            SyscallRequest::Rename {
                from: "/d/f".into(),
                to: "/d/g".into(),
            },
        ] {
            let c = compile(&req, &mut p, &vfs, &sems, &costs, 1.0);
            assert!(!c.phases.iter().any(|ph| matches!(
                ph,
                Phase::Cpu {
                    kind: CpuKind::Trap,
                    ..
                }
            )));
        }
    }

    #[test]
    fn stat_inflates_under_contention() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let costs = CostModel {
            stat_contention_factor: 6.5,
            ..CostModel::default()
        };
        let req = SyscallRequest::Stat {
            path: "/d/f".into(),
        };

        let free = compile(&req, &mut p, &vfs, &SemTable::new(), &costs, 1.0);
        let mut sems = SemTable::new();
        let dsem = vfs.dir_sem_of("/d/f").unwrap();
        sems.acquire_or_enqueue(dsem, Pid(99), SimTime::ZERO);
        let contended = compile(&req, &mut p, &vfs, &sems, &costs, 1.0);
        let free_us = cpu_total_us(&free);
        let cont_us = cpu_total_us(&contended);
        assert!((free_us - 4.5).abs() < 0.01, "free stat {free_us}");
        assert!((cont_us - 26.5).abs() < 0.01, "contended stat {cont_us}");
    }

    #[test]
    fn maze_cost_charges_per_path_component() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let sems = SemTable::new();
        let maze = CostModel {
            resolve_per_component_us: 2.0,
            ..CostModel::default()
        };
        let stock = CostModel::default();
        for (path, components) in [("/d", 1.0), ("/d/f", 2.0), ("//d//f/", 2.0)] {
            let req = SyscallRequest::Stat { path: path.into() };
            let slow = cpu_total_us(&compile(&req, &mut p, &vfs, &sems, &maze, 1.0));
            let fast = cpu_total_us(&compile(&req, &mut p, &vfs, &sems, &stock, 1.0));
            assert!(
                (slow - fast - 2.0 * components).abs() < 1e-9,
                "{path}: maze {slow} vs stock {fast}"
            );
        }
    }

    #[test]
    fn stock_stat_ignores_a_held_directory_semaphore() {
        // With the default contention factor of 1.0 a held directory
        // semaphore cannot change the charge, so the phases must match the
        // uncontended compile exactly.
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let costs = CostModel::default();
        assert_eq!(costs.stat_contention_factor, 1.0);
        let mut held = SemTable::new();
        held.acquire_or_enqueue(vfs.dir_sem_of("/d/f").unwrap(), Pid(99), SimTime::ZERO);
        for req in [
            SyscallRequest::Stat {
                path: "/d/f".into(),
            },
            SyscallRequest::Lstat {
                path: "/d/f".into(),
            },
            SyscallRequest::Access {
                path: "/d/f".into(),
            },
        ] {
            let free = compile(&req, &mut p, &vfs, &SemTable::new(), &costs, 1.0);
            let contended = compile(&req, &mut p, &vfs, &held, &costs, 1.0);
            assert_eq!(free.phases, contended.phases, "{req:?}");
        }
    }

    #[test]
    fn rename_installs_name_before_release() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let c = compile(
            &SyscallRequest::Rename {
                from: "/d/f".into(),
                to: "/d/g".into(),
            },
            &mut p,
            &vfs,
            &SemTable::new(),
            &CostModel::default(),
            1.0,
        );
        let commit_idx = c
            .phases
            .iter()
            .position(|ph| matches!(ph, Phase::Commit(CommitStep::RenameCommit { .. })))
            .expect("has commit");
        let release_idx = c
            .phases
            .iter()
            .position(|ph| matches!(ph, Phase::Release(_)))
            .expect("has release");
        assert!(commit_idx < release_idx, "name visible while sem held");
        // Both CPU segments around the commit exist (visible + tail).
        assert!(matches!(c.phases[commit_idx - 1], Phase::Cpu { .. }));
        assert!(matches!(c.phases[commit_idx + 1], Phase::Cpu { .. }));
    }

    #[test]
    fn rename_same_dir_takes_one_lock() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let c = compile(
            &SyscallRequest::Rename {
                from: "/d/f".into(),
                to: "/d/g".into(),
            },
            &mut p,
            &vfs,
            &SemTable::new(),
            &CostModel::default(),
            1.0,
        );
        let acquires = c
            .phases
            .iter()
            .filter(|ph| matches!(ph, Phase::Acquire(_)))
            .count();
        assert_eq!(acquires, 1);
    }

    #[test]
    fn rename_cross_dir_takes_ordered_locks() {
        let mut p = test_proc(true);
        let mut vfs = test_vfs();
        let meta = InodeMeta {
            uid: Uid(0),
            gid: Gid(0),
            mode: 0o755,
        };
        vfs.mkdir("/e", meta).unwrap();
        let c = compile(
            &SyscallRequest::Rename {
                from: "/d/f".into(),
                to: "/e/f".into(),
            },
            &mut p,
            &vfs,
            &SemTable::new(),
            &CostModel::default(),
            1.0,
        );
        let locks: Vec<SemId> = c
            .phases
            .iter()
            .filter_map(|ph| match ph {
                Phase::Acquire(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(locks.len(), 2);
        assert!(locks[0] < locks[1], "sorted acquisition order");
        let releases = c
            .phases
            .iter()
            .filter(|ph| matches!(ph, Phase::Release(_)))
            .count();
        assert_eq!(releases, 2);
    }

    #[test]
    fn missing_parent_compiles_to_failure() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let c = compile(
            &SyscallRequest::Unlink {
                path: "/nope/f".into(),
            },
            &mut p,
            &vfs,
            &SemTable::new(),
            &CostModel::default(),
            1.0,
        );
        assert!(c
            .phases
            .iter()
            .any(|ph| matches!(ph, Phase::Commit(CommitStep::Fail(OsError::Enoent)))));
        assert!(!c.phases.iter().any(|ph| matches!(ph, Phase::Acquire(_))));
    }

    #[test]
    fn speed_factor_scales_costs() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let costs = CostModel::default();
        let req = SyscallRequest::Stat {
            path: "/d/f".into(),
        };
        let ref_speed = compile(&req, &mut p, &vfs, &SemTable::new(), &costs, 1.0);
        let smp = compile(&req, &mut p, &vfs, &SemTable::new(), &costs, 2.0);
        assert!((cpu_total_us(&smp) - 2.0 * cpu_total_us(&ref_speed)).abs() < 1e-9);
    }

    #[test]
    fn write_cost_proportional_to_bytes() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let costs = CostModel::default();
        let small = compile(
            &SyscallRequest::Write {
                fd: Fd(3),
                bytes: 1024,
            },
            &mut p,
            &vfs,
            &SemTable::new(),
            &costs,
            1.0,
        );
        let big = compile(
            &SyscallRequest::Write {
                fd: Fd(3),
                bytes: 1024 * 100,
            },
            &mut p,
            &vfs,
            &SemTable::new(),
            &costs,
            1.0,
        );
        assert!(cpu_total_us(&big) > 50.0 * cpu_total_us(&small));
    }

    #[test]
    fn sleep_blocks_without_cpu() {
        let mut p = test_proc(true);
        let vfs = test_vfs();
        let c = compile(
            &SyscallRequest::Sleep {
                duration: SimDuration::from_micros(50),
            },
            &mut p,
            &vfs,
            &SemTable::new(),
            &CostModel::default(),
            1.0,
        );
        assert!(c
            .phases
            .iter()
            .any(|ph| matches!(ph, Phase::Blocked(d) if d.as_micros_f64() == 50.0)));
    }
}

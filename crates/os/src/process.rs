//! Processes and the program-logic interface.
//!
//! A simulated process is driven by a [`ProcessLogic`] — a small state
//! machine that, each time the previous action completes, is asked for the
//! next [`Action`]: compute for a while, issue a system call, emit a trace
//! marker, or exit. Victim programs (vi, gedit) and attacker programs are
//! `ProcessLogic` implementations in the `tocttou-workloads` crate.

use crate::error::OsError;
use crate::ids::{CpuId, Fd, Gid, Ino, Pid, SemId, Uid};
use crate::syscall::Phase;
use crate::vfs::StatBuf;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use tocttou_sim::time::{SimDuration, SimTime};

/// Read-only context handed to [`ProcessLogic::next_action`].
#[derive(Debug, Clone, Copy)]
pub struct LogicCtx {
    /// Current simulated time.
    pub now: SimTime,
    /// The process's pid.
    pub pid: Pid,
}

/// What a process asks the kernel to do next.
#[derive(Debug, Clone)]
pub enum Action {
    /// Burn CPU for the given duration (user-space computation). The
    /// duration is *absolute* (not scaled by machine speed): workload
    /// scenarios specify machine-specific values directly.
    Compute(SimDuration),
    /// Issue a system call.
    Syscall(SyscallRequest),
    /// Emit a labelled trace marker (zero simulated time).
    Marker(&'static str),
    /// Terminate the process.
    Exit,
}

/// A system-call request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallRequest {
    /// `stat(path)` — follows symlinks.
    Stat {
        /// Path to stat.
        path: Arc<str>,
    },
    /// `lstat(path)` — does not follow a final symlink.
    Lstat {
        /// Path to lstat.
        path: Arc<str>,
    },
    /// `access(path, mode)` — permission probe; follows symlinks. The
    /// classic sendmail-era check call.
    Access {
        /// Path to probe.
        path: Arc<str>,
    },
    /// `open(path, O_CREAT|O_WRONLY|O_TRUNC)` — creates or truncates.
    OpenCreate {
        /// Path to create.
        path: Arc<str>,
    },
    /// `open(path, O_RDWR)` of an existing file.
    Open {
        /// Path to open.
        path: Arc<str>,
    },
    /// `write(fd, …)` of `bytes` bytes.
    Write {
        /// Open descriptor.
        fd: Fd,
        /// Bytes to append.
        bytes: u64,
    },
    /// `close(fd)`.
    Close {
        /// Descriptor to close.
        fd: Fd,
    },
    /// `unlink(path)`.
    Unlink {
        /// Path to unlink.
        path: Arc<str>,
    },
    /// `symlink(target, linkpath)`.
    Symlink {
        /// Link target contents.
        target: Arc<str>,
        /// Where to create the link.
        linkpath: Arc<str>,
    },
    /// `rename(from, to)`.
    Rename {
        /// Source name.
        from: Arc<str>,
        /// Destination name.
        to: Arc<str>,
    },
    /// `chmod(path, mode)` — follows symlinks.
    Chmod {
        /// Path whose mode to change.
        path: Arc<str>,
        /// New permission bits.
        mode: u32,
    },
    /// `chown(path, uid, gid)` — follows symlinks.
    Chown {
        /// Path whose owner to change.
        path: Arc<str>,
        /// New owner.
        uid: Uid,
        /// New group.
        gid: Gid,
    },
    /// `mkdir(path)`.
    Mkdir {
        /// Directory to create.
        path: Arc<str>,
    },
    /// `readlink(path)`.
    Readlink {
        /// Symlink to read.
        path: Arc<str>,
    },
    /// `nanosleep(duration)` — blocks without consuming CPU.
    Sleep {
        /// How long to sleep.
        duration: SimDuration,
    },
    /// `link(existing, linkpath)` — hard link; neither path follows a
    /// final symlink.
    Link {
        /// Existing name of the inode to link.
        existing: Arc<str>,
        /// Where to create the new name.
        linkpath: Arc<str>,
    },
}

impl SyscallRequest {
    /// The syscall's name, for tracing.
    pub fn name(&self) -> SyscallName {
        match self {
            SyscallRequest::Stat { .. } => SyscallName::Stat,
            SyscallRequest::Lstat { .. } => SyscallName::Lstat,
            SyscallRequest::Access { .. } => SyscallName::Access,
            SyscallRequest::OpenCreate { .. } => SyscallName::OpenCreate,
            SyscallRequest::Open { .. } => SyscallName::Open,
            SyscallRequest::Write { .. } => SyscallName::Write,
            SyscallRequest::Close { .. } => SyscallName::Close,
            SyscallRequest::Unlink { .. } => SyscallName::Unlink,
            SyscallRequest::Symlink { .. } => SyscallName::Symlink,
            SyscallRequest::Rename { .. } => SyscallName::Rename,
            SyscallRequest::Chmod { .. } => SyscallName::Chmod,
            SyscallRequest::Chown { .. } => SyscallName::Chown,
            SyscallRequest::Mkdir { .. } => SyscallName::Mkdir,
            SyscallRequest::Readlink { .. } => SyscallName::Readlink,
            SyscallRequest::Sleep { .. } => SyscallName::Sleep,
            SyscallRequest::Link { .. } => SyscallName::Link,
        }
    }

    /// The primary path argument, if any: the name the kernel's race
    /// machinery keys the call on — the single path argument, the
    /// *destination* of a `rename`, and the bound name of a
    /// `symlink`/`link`. `None` for descriptor calls and `Sleep`.
    pub fn primary_path(&self) -> Option<&Arc<str>> {
        match self {
            SyscallRequest::Stat { path }
            | SyscallRequest::Lstat { path }
            | SyscallRequest::Access { path }
            | SyscallRequest::OpenCreate { path }
            | SyscallRequest::Open { path }
            | SyscallRequest::Unlink { path }
            | SyscallRequest::Chmod { path, .. }
            | SyscallRequest::Chown { path, .. }
            | SyscallRequest::Mkdir { path }
            | SyscallRequest::Readlink { path } => Some(path),
            SyscallRequest::Symlink { linkpath, .. } | SyscallRequest::Link { linkpath, .. } => {
                Some(linkpath)
            }
            SyscallRequest::Rename { to, .. } => Some(to),
            SyscallRequest::Write { .. }
            | SyscallRequest::Close { .. }
            | SyscallRequest::Sleep { .. } => None,
        }
    }
}

/// Names of the simulated system calls (for tracing and analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the syscall names themselves
pub enum SyscallName {
    Stat,
    Lstat,
    Access,
    OpenCreate,
    Open,
    Write,
    Close,
    Unlink,
    Symlink,
    Rename,
    Chmod,
    Chown,
    Mkdir,
    Readlink,
    Sleep,
    Link,
}

impl SyscallName {
    /// Every syscall name, in declaration order. `ALL[name.index()]` is the
    /// identity — the metrics layer uses this to key fixed-size per-syscall
    /// histogram arrays.
    pub const ALL: [SyscallName; 16] = [
        SyscallName::Stat,
        SyscallName::Lstat,
        SyscallName::Access,
        SyscallName::OpenCreate,
        SyscallName::Open,
        SyscallName::Write,
        SyscallName::Close,
        SyscallName::Unlink,
        SyscallName::Symlink,
        SyscallName::Rename,
        SyscallName::Chmod,
        SyscallName::Chown,
        SyscallName::Mkdir,
        SyscallName::Readlink,
        SyscallName::Sleep,
        SyscallName::Link,
    ];

    /// Dense index of this name in [`SyscallName::ALL`].
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for SyscallName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SyscallName::Stat => "stat",
            SyscallName::Lstat => "lstat",
            SyscallName::Access => "access",
            SyscallName::OpenCreate => "creat",
            SyscallName::Open => "open",
            SyscallName::Write => "write",
            SyscallName::Close => "close",
            SyscallName::Unlink => "unlink",
            SyscallName::Symlink => "symlink",
            SyscallName::Rename => "rename",
            SyscallName::Chmod => "chmod",
            SyscallName::Chown => "chown",
            SyscallName::Mkdir => "mkdir",
            SyscallName::Readlink => "readlink",
            SyscallName::Sleep => "nanosleep",
            SyscallName::Link => "link",
        };
        f.write_str(s)
    }
}

/// A completed system call's return value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetVal {
    /// Success with no payload.
    Unit,
    /// A new file descriptor.
    Fd(Fd),
    /// Stat results.
    Stat(StatBuf),
    /// A byte count (write).
    Size(u64),
    /// A path (readlink).
    Path(String),
}

/// The result of the most recent action, handed back to the logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallResult {
    /// Which call completed.
    pub call: SyscallName,
    /// Its outcome.
    pub ret: Result<RetVal, OsError>,
}

impl SyscallResult {
    /// Convenience: the stat buffer, if this was a successful stat/lstat.
    pub fn stat(&self) -> Option<&StatBuf> {
        match &self.ret {
            Ok(RetVal::Stat(st)) => Some(st),
            _ => None,
        }
    }

    /// Convenience: the fd, if this was a successful open.
    pub fn fd(&self) -> Option<Fd> {
        match &self.ret {
            Ok(RetVal::Fd(fd)) => Some(*fd),
            _ => None,
        }
    }

    /// Whether the call succeeded.
    pub fn is_ok(&self) -> bool {
        self.ret.is_ok()
    }
}

/// A program driving a simulated process.
///
/// The kernel calls [`next_action`](Self::next_action) whenever the previous
/// action has fully completed; `last` carries the result of the previous
/// syscall (or `None` after `Compute`/`Marker`/at start).
pub trait ProcessLogic {
    /// Decide the next action.
    fn next_action(&mut self, ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action;
}

impl<F> ProcessLogic for F
where
    F: FnMut(&LogicCtx, Option<&SyscallResult>) -> Action,
{
    fn next_action(&mut self, ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
        self(ctx, last)
    }
}

/// Scheduler-visible process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// In the ready queue.
    Ready,
    /// Running on the given CPU.
    Running(CpuId),
    /// On a CPU but paused by background kernel activity.
    PausedByBg(CpuId),
    /// Blocked in a semaphore wait queue.
    BlockedSem(SemId),
    /// Blocked on a timed wait (I/O or sleep).
    BlockedTimed,
    /// Terminated.
    Exited,
}

/// libc wrapper pages, for the page-fault (trap) model of Section 6.2.1.
///
/// `unlink` and `symlink` share a page — the paper notes "symlink although
/// it seems to be on the same page as unlink" — so pre-touching `unlink`
/// also warms `symlink`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibcPage {
    /// The page holding the `stat`/`lstat` wrappers.
    StatPage,
    /// The page holding `unlink` *and* `symlink`.
    UnlinkSymlinkPage,
    /// The page holding `open`/`creat`/`close`.
    OpenPage,
    /// The page holding `read`/`write`.
    WritePage,
    /// The page holding `rename`/`chmod`/`chown`/`mkdir`/`readlink`.
    MetadataPage,
}

impl LibcPage {
    /// The page a given syscall's wrapper lives on.
    pub fn for_call(name: SyscallName) -> Option<LibcPage> {
        match name {
            SyscallName::Stat | SyscallName::Lstat | SyscallName::Access => {
                Some(LibcPage::StatPage)
            }
            SyscallName::Unlink | SyscallName::Symlink | SyscallName::Link => {
                Some(LibcPage::UnlinkSymlinkPage)
            }
            SyscallName::OpenCreate | SyscallName::Open | SyscallName::Close => {
                Some(LibcPage::OpenPage)
            }
            SyscallName::Write => Some(LibcPage::WritePage),
            SyscallName::Rename
            | SyscallName::Chmod
            | SyscallName::Chown
            | SyscallName::Mkdir
            | SyscallName::Readlink => Some(LibcPage::MetadataPage),
            SyscallName::Sleep => None,
        }
    }

    /// Every page (for pre-touched processes).
    pub const ALL: [LibcPage; 5] = [
        LibcPage::StatPage,
        LibcPage::UnlinkSymlinkPage,
        LibcPage::OpenPage,
        LibcPage::WritePage,
        LibcPage::MetadataPage,
    ];
}

/// A tiny set of [`LibcPage`]s stored as a bitmask.
///
/// Syscall compilation consults the mapped-page set once per call; with
/// only five pages a `u8` beats a `HashSet` (no hashing, no heap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageSet(u8);

impl PageSet {
    pub(crate) fn empty() -> Self {
        PageSet(0)
    }

    pub(crate) fn all() -> Self {
        let mut s = PageSet(0);
        for p in LibcPage::ALL {
            s.insert(p);
        }
        s
    }

    pub(crate) fn contains(&self, page: &LibcPage) -> bool {
        self.0 & (1 << (*page as u8)) != 0
    }

    pub(crate) fn insert(&mut self, page: LibcPage) {
        self.0 |= 1 << (page as u8);
    }
}

/// A simulated process (kernel-internal bookkeeping).
pub(crate) struct Process {
    pub(crate) pid: Pid,
    /// Display name, shared with the spawner's (and the trace's) copy.
    pub(crate) name: Arc<str>,
    pub(crate) uid: Uid,
    pub(crate) gid: Gid,
    pub(crate) logic: Box<dyn ProcessLogic>,
    pub(crate) state: ProcState,
    /// Remaining phases of the in-flight action.
    pub(crate) phases: VecDeque<Phase>,
    /// Pending event id for the active Cpu phase, if running.
    pub(crate) phase_event: Option<tocttou_sim::queue::EventId>,
    /// When the active Cpu phase started (to compute remaining on preempt).
    pub(crate) phase_started: SimTime,
    /// The in-flight syscall, if any.
    pub(crate) pending: Option<PendingSyscall>,
    /// Result of the last completed syscall, consumed by the next
    /// `next_action` call.
    pub(crate) last_result: Option<SyscallResult>,
    /// Open file descriptors.
    pub(crate) fds: HashMap<Fd, Ino>,
    pub(crate) next_fd: u32,
    /// Mapped libc wrapper pages (page-fault model), as a bitmask indexed
    /// by [`LibcPage`] discriminant — checked on every syscall compile, so
    /// it avoids hashing.
    pub(crate) mapped_pages: PageSet,
    /// Remaining time slice when preempted/paused.
    pub(crate) slice_remaining: SimDuration,
    /// The CPU this process last ran on (to detect migrations).
    pub(crate) last_cpu: Option<CpuId>,
    /// When this process last became runnable (start of its run-queue
    /// delay).
    pub(crate) ready_since: SimTime,
    /// When this process last blocked on a semaphore (start of its wait).
    pub(crate) sem_wait_since: SimTime,
}

/// Kernel-side record of an in-flight syscall.
pub(crate) struct PendingSyscall {
    pub(crate) name: SyscallName,
    pub(crate) ret: Option<Result<RetVal, OsError>>,
    /// When the call entered the kernel (start of its latency).
    pub(crate) entered: SimTime,
}

/// Recycled per-process containers, harvested when a pooled kernel is
/// rebooted and donated back to the next round's spawns. Everything is
/// cleared before reuse, so a process built on spare buffers is
/// indistinguishable from one built on fresh ones — only the allocations
/// are shared. The name needs no buffer: a process holds its spawner's
/// `Arc<str>`.
#[derive(Debug, Default)]
pub(crate) struct ProcBuffers {
    pub(crate) phases: VecDeque<Phase>,
    pub(crate) fds: HashMap<Fd, Ino>,
}

impl Process {
    pub(crate) fn new(
        pid: Pid,
        name: Arc<str>,
        uid: Uid,
        gid: Gid,
        logic: Box<dyn ProcessLogic>,
        pretouch_libc: bool,
        mut buffers: ProcBuffers,
    ) -> Self {
        let mapped_pages = if pretouch_libc {
            PageSet::all()
        } else {
            PageSet::empty()
        };
        buffers.phases.clear();
        buffers.fds.clear();
        Process {
            pid,
            name,
            uid,
            gid,
            logic,
            state: ProcState::Ready,
            phases: buffers.phases,
            phase_event: None,
            phase_started: SimTime::ZERO,
            pending: None,
            last_result: None,
            fds: buffers.fds,
            next_fd: 3, // 0..2 are the conventional std streams
            mapped_pages,
            slice_remaining: SimDuration::ZERO,
            last_cpu: None,
            ready_since: SimTime::ZERO,
            sem_wait_since: SimTime::ZERO,
        }
    }

    /// Tears this process down into its reusable containers.
    pub(crate) fn into_buffers(self) -> ProcBuffers {
        ProcBuffers {
            phases: self.phases,
            fds: self.fds,
        }
    }

    /// Allocates a descriptor for `ino`.
    pub(crate) fn alloc_fd(&mut self, ino: Ino) -> Fd {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(fd, ino);
        fd
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("uid", &self.uid)
            .field("state", &self.state)
            .field("phases", &self.phases.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_names_and_paths() {
        let r = SyscallRequest::Chown {
            path: "/etc/passwd".into(),
            uid: Uid(1000),
            gid: Gid(1000),
        };
        assert_eq!(r.name(), SyscallName::Chown);
        assert_eq!(r.primary_path().map(Arc::as_ref), Some("/etc/passwd"));
        let w = SyscallRequest::Write {
            fd: Fd(3),
            bytes: 10,
        };
        assert_eq!(w.primary_path(), None);
        let s = SyscallRequest::Symlink {
            target: "/etc/passwd".into(),
            linkpath: "/home/u/f".into(),
        };
        assert_eq!(s.primary_path().map(Arc::as_ref), Some("/home/u/f"));
    }

    #[test]
    fn unlink_and_symlink_share_a_page() {
        assert_eq!(
            LibcPage::for_call(SyscallName::Unlink),
            LibcPage::for_call(SyscallName::Symlink)
        );
        assert_ne!(
            LibcPage::for_call(SyscallName::Unlink),
            LibcPage::for_call(SyscallName::Stat)
        );
        assert_eq!(LibcPage::for_call(SyscallName::Sleep), None);
    }

    #[test]
    fn result_accessors() {
        let ok = SyscallResult {
            call: SyscallName::Open,
            ret: Ok(RetVal::Fd(Fd(5))),
        };
        assert_eq!(ok.fd(), Some(Fd(5)));
        assert!(ok.is_ok());
        assert!(ok.stat().is_none());
        let err = SyscallResult {
            call: SyscallName::Stat,
            ret: Err(OsError::Enoent),
        };
        assert!(!err.is_ok());
        assert!(err.stat().is_none());
    }

    #[test]
    fn closures_implement_logic() {
        let mut calls = 0;
        {
            let mut logic = |_ctx: &LogicCtx, _last: Option<&SyscallResult>| {
                calls += 1;
                Action::Exit
            };
            let ctx = LogicCtx {
                now: SimTime::ZERO,
                pid: Pid(1),
            };
            let action = logic.next_action(&ctx, None);
            assert!(matches!(action, Action::Exit));
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn fd_allocation_is_monotonic() {
        let mut p = Process::new(
            Pid(1),
            "t".into(),
            Uid(0),
            Gid(0),
            Box::new(|_: &LogicCtx, _: Option<&SyscallResult>| Action::Exit),
            true,
            ProcBuffers::default(),
        );
        let a = p.alloc_fd(Ino(1));
        let b = p.alloc_fd(Ino(2));
        assert!(b.0 > a.0);
        assert_eq!(a, Fd(3), "std streams reserved");
        assert!(p.mapped_pages.contains(&LibcPage::StatPage), "pretouched");
    }
}

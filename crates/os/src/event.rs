//! Kernel events — the raw material of the paper-style event analysis.
//!
//! The [`Kernel`](crate::kernel::Kernel) reports every scheduler,
//! semaphore and syscall fact once, as a borrowed `KernelEvent`, to its one
//! observer entry point, `Kernel::observe`. That call fans the fact out to
//! the trace (as an [`OsEvent`], built only while the trace is enabled)
//! and the metrics. A trace event's strings are the kernel's own: a
//! syscall's path is its request's `Arc<str>` and a process name the one
//! its spawner handed over, shared by reference count, so recording an
//! event allocates nothing. Causal spans are derived from the trace
//! afterwards ([`crate::spans`]).

use crate::ids::{CpuId, Pid, SemId};
use crate::process::SyscallName;
use std::sync::Arc;
use tocttou_sim::time::{SimDuration, SimTime};

/// One kernel-level event, recorded with a timestamp in the kernel's
/// [`Trace`](tocttou_sim::trace::Trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsEvent {
    /// A process was created.
    Spawn {
        /// New process.
        pid: Pid,
        /// Its display name (shared with the spawner's).
        name: Arc<str>,
    },
    /// A process entered a system call.
    SyscallEnter {
        /// Caller.
        pid: Pid,
        /// Which call.
        call: SyscallName,
        /// Primary path argument, if any (shared with the request's).
        path: Option<Arc<str>>,
    },
    /// A system call returned.
    SyscallExit {
        /// Caller.
        pid: Pid,
        /// Which call.
        call: SyscallName,
        /// Whether it succeeded.
        ok: bool,
    },
    /// The instantaneous VFS effect of a call took place (e.g. the rename's
    /// name installation, the unlink's detach).
    Commit {
        /// Caller.
        pid: Pid,
        /// Which call committed.
        call: SyscallName,
    },
    /// A process joined a semaphore's FIFO wait queue.
    SemEnqueue {
        /// Waiter.
        pid: Pid,
        /// Contended semaphore.
        sem: SemId,
    },
    /// A process acquired a semaphore.
    SemAcquire {
        /// New holder.
        pid: Pid,
        /// Semaphore.
        sem: SemId,
    },
    /// A process released a semaphore.
    SemRelease {
        /// Old holder.
        pid: Pid,
        /// Semaphore.
        sem: SemId,
    },
    /// A page-fault trap started (libc wrapper first touch).
    Trap {
        /// Faulting process.
        pid: Pid,
        /// Duration of the fault handling.
        dur: tocttou_sim::time::SimDuration,
    },
    /// A process was placed on a CPU.
    Dispatch {
        /// Process.
        pid: Pid,
        /// CPU.
        cpu: CpuId,
    },
    /// A process was descheduled (time slice expiry).
    Preempt {
        /// Process.
        pid: Pid,
        /// CPU it left.
        cpu: CpuId,
    },
    /// A process blocked on a timed wait.
    BlockTimed {
        /// Process.
        pid: Pid,
    },
    /// A blocked process became runnable again.
    Wake {
        /// Process.
        pid: Pid,
    },
    /// Background kernel activity began on a CPU.
    BgStart {
        /// CPU.
        cpu: CpuId,
    },
    /// Background kernel activity ended on a CPU.
    BgEnd {
        /// CPU.
        cpu: CpuId,
    },
    /// The EDGI defense denied a use call whose guarded invariant was
    /// violated.
    DefenseDenied {
        /// The process whose call was denied.
        pid: Pid,
        /// The denied call.
        call: SyscallName,
    },
    /// A workload-emitted marker.
    Marker {
        /// Emitting process.
        pid: Pid,
        /// Label.
        label: &'static str,
    },
    /// A process exited.
    Exit {
        /// Process.
        pid: Pid,
    },
}

impl OsEvent {
    /// The pid this event concerns, if any.
    pub fn pid(&self) -> Option<Pid> {
        match self {
            OsEvent::Spawn { pid, .. }
            | OsEvent::SyscallEnter { pid, .. }
            | OsEvent::SyscallExit { pid, .. }
            | OsEvent::Commit { pid, .. }
            | OsEvent::SemEnqueue { pid, .. }
            | OsEvent::SemAcquire { pid, .. }
            | OsEvent::SemRelease { pid, .. }
            | OsEvent::Trap { pid, .. }
            | OsEvent::Dispatch { pid, .. }
            | OsEvent::Preempt { pid, .. }
            | OsEvent::BlockTimed { pid }
            | OsEvent::Wake { pid }
            | OsEvent::DefenseDenied { pid, .. }
            | OsEvent::Marker { pid, .. }
            | OsEvent::Exit { pid } => Some(*pid),
            OsEvent::BgStart { .. } | OsEvent::BgEnd { .. } => None,
        }
    }
}

/// One kernel fact as it happens, borrowed from the kernel's own state.
///
/// A fact whose trace event holds no string travels as that event
/// ([`Os`](KernelEvent::Os)). The other variants carry borrowed strings,
/// whose reference count the trace takes only while it is enabled, or the
/// intervals the kernel's clocks have already closed (`entered`,
/// `waited`, `held`, `queued`), which the trace leaves out, so no
/// observer keeps an interval start of its own.
#[derive(Debug)]
pub(crate) enum KernelEvent<'a> {
    /// A fact told in full by its string-free trace event.
    Os(OsEvent),
    Spawn {
        pid: Pid,
        name: &'a Arc<str>,
    },
    SyscallEnter {
        pid: Pid,
        call: SyscallName,
        path: Option<&'a Arc<str>>,
    },
    /// The call `pid` entered at `entered` returned.
    SyscallExit {
        pid: Pid,
        call: SyscallName,
        ok: bool,
        entered: SimTime,
    },
    /// A release handed the semaphore to `pid`, which waited `waited`
    /// (traced as a [`OsEvent::SemAcquire`]).
    SemHandoff {
        pid: Pid,
        sem: SemId,
        waited: SimDuration,
    },
    /// `pid` released a semaphore it held for `held`.
    SemRelease {
        pid: Pid,
        sem: SemId,
        held: SimDuration,
    },
    /// A process was placed on a CPU after `queued` in the ready state.
    Dispatch {
        pid: Pid,
        cpu: CpuId,
        migrated: bool,
        queued: SimDuration,
    },
    /// A process became runnable while a CPU was idle (untraced).
    IdleWake,
}

impl KernelEvent<'_> {
    /// The trace record of this fact, if the trace shows it.
    #[inline(always)]
    pub(crate) fn into_trace(self) -> Option<OsEvent> {
        Some(match self {
            KernelEvent::Os(ev) => ev,
            KernelEvent::Spawn { pid, name } => OsEvent::Spawn {
                pid,
                name: Arc::clone(name),
            },
            KernelEvent::SyscallEnter { pid, call, path } => OsEvent::SyscallEnter {
                pid,
                call,
                path: path.cloned(),
            },
            KernelEvent::SyscallExit { pid, call, ok, .. } => {
                OsEvent::SyscallExit { pid, call, ok }
            }
            KernelEvent::SemHandoff { pid, sem, .. } => OsEvent::SemAcquire { pid, sem },
            KernelEvent::SemRelease { pid, sem, .. } => OsEvent::SemRelease { pid, sem },
            KernelEvent::Dispatch { pid, cpu, .. } => OsEvent::Dispatch { pid, cpu },
            KernelEvent::IdleWake => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_extraction() {
        assert_eq!(
            OsEvent::Trap {
                pid: Pid(4),
                dur: tocttou_sim::time::SimDuration::from_micros(6)
            }
            .pid(),
            Some(Pid(4))
        );
        assert_eq!(OsEvent::BgStart { cpu: CpuId(0) }.pid(), None);
        assert_eq!(
            OsEvent::SyscallEnter {
                pid: Pid(7),
                call: SyscallName::Stat,
                path: Some("/x".into())
            }
            .pid(),
            Some(Pid(7))
        );
    }
}

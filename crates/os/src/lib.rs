//! # tocttou-os — a deterministic multiprocessor Unix simulator
//!
//! The experimental substrate for reproducing *"Multiprocessors May Reduce
//! System Dependability under File-Based Race Condition Attacks"* (Wei & Pu,
//! DSN 2007). It models exactly the mechanisms the paper's event analyses
//! identify as deciding TOCTTOU races:
//!
//! * a **multiprocessor scheduler** (round-robin time slices, global ready
//!   queue, wake-to-idle-CPU placement) — [`kernel`];
//! * **FIFO kernel semaphores** per inode/directory — [`sem`];
//! * a **VFS** with directories, symlinks and Unix resolution semantics —
//!   [`vfs`];
//! * a **phase-structured syscall engine** where `rename` installs names
//!   mid-call, `unlink` splits into detach + truncate, and cold libc pages
//!   cost a page-fault trap — [`syscall`];
//! * **Poisson background kernel activity** that pauses user processes —
//!   part of [`machine`];
//! * a **passive, always-on TOCTTOU race detector** watching check/use
//!   windows at syscall commit points — [`detect`];
//! * an **observability layer** of scheduler counters and latency
//!   histograms (syscall duration, semaphore wait/hold, run-queue delay)
//!   fed from the same commit points — [`metrics`];
//! * **race-window forensics**: exact check-to-use window intervals per
//!   `(pid, path)` and signed per-strike miss distances, folded into
//!   order-independent near-miss histograms — [`forensics`];
//! * **causal spans**: process / syscall / semaphore / run-queue / window
//!   intervals derived after a round from its trace and forensics event
//!   log — [`spans`];
//! * a **structured trace** of every scheduling/semaphore/syscall event for
//!   paper-style microsecond timelines — [`event`].
//!
//! Workload programs implement [`ProcessLogic`] and are spawned into a
//! [`Kernel`] built from a [`MachineSpec`] profile (`uniprocessor()`,
//! `smp_xeon()`, `multicore_pentium_d()`).
//!
//! # Examples
//!
//! ```
//! use tocttou_os::prelude::*;
//! use tocttou_sim::time::SimTime;
//!
//! // Boot the SMP profile and run a tiny program that creates a file.
//! let mut kernel = Kernel::new(MachineSpec::smp_xeon().quiet(), 42);
//! kernel
//!     .vfs_mut()
//!     .mkdir("/tmp", InodeMeta { uid: Uid::ROOT, gid: Gid::ROOT, mode: 0o777 })
//!     .unwrap();
//!
//! let mut done = false;
//! let pid = kernel.spawn(
//!     "toucher",
//!     Uid::ROOT,
//!     Gid::ROOT,
//!     true,
//!     Box::new(move |_ctx: &LogicCtx, _last: Option<&SyscallResult>| {
//!         if done {
//!             Action::Exit
//!         } else {
//!             done = true;
//!             Action::Syscall(SyscallRequest::OpenCreate { path: "/tmp/f".into() })
//!         }
//!     }),
//! );
//! kernel.run_until_exit(pid, SimTime::from_millis(10));
//! assert!(kernel.vfs().stat("/tmp/f").is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod defense;
pub mod detect;
pub mod error;
pub mod event;
pub mod forensics;
pub mod ids;
pub mod kernel;
pub mod machine;
pub mod metrics;
pub mod process;
pub mod sem;
pub mod spans;
pub mod syscall;
pub mod vfs;
mod window;

pub use costs::CostModel;
pub use defense::{DefensePolicy, DefenseState};
pub use detect::DetectionEvent;
pub use error::OsError;
pub use event::OsEvent;
pub use forensics::{
    ForensicsSnapshot, RoundMilestones, StrikeOutcome, StrikeRecord, WindowForensics,
    WindowForensicsMut, WindowRecord,
};
pub use ids::{CpuId, Fd, Gid, Ino, Pid, SemId, Uid};
pub use kernel::{Checkpoint, Kernel, KernelPool, RunOutcome};
pub use machine::{BackgroundSpec, MachineSpec};
pub use metrics::{KernelMetrics, MetricId, MetricsSnapshot, SchedCounters};
pub use process::{
    Action, LogicCtx, ProcState, ProcessLogic, RetVal, SyscallName, SyscallRequest, SyscallResult,
};
pub use spans::{Span, SpanId, SpanKind, Spans};
pub use vfs::{InodeMeta, StatBuf, SymlinkPolicy, Vfs};

/// Convenience re-exports for workload authors.
pub mod prelude {
    pub use crate::error::OsError;
    pub use crate::event::OsEvent;
    pub use crate::forensics::{ForensicsSnapshot, StrikeRecord, WindowForensics, WindowRecord};
    pub use crate::ids::{CpuId, Fd, Gid, Ino, Pid, SemId, Uid};
    pub use crate::kernel::{Checkpoint, Kernel, KernelPool, RunOutcome};
    pub use crate::machine::{BackgroundSpec, MachineSpec};
    pub use crate::metrics::{KernelMetrics, MetricId, MetricsSnapshot, SchedCounters};
    pub use crate::process::{
        Action, LogicCtx, ProcState, ProcessLogic, RetVal, SyscallName, SyscallRequest,
        SyscallResult,
    };
    pub use crate::vfs::{InodeMeta, StatBuf, Vfs};
}

#[cfg(test)]
mod kernel_tests;

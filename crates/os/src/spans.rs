//! The kernel-side span tracker: opens and closes causal spans.
//!
//! [`SpanRing`](tocttou_sim::span::SpanRing) stores completed intervals;
//! this module turns kernel events into them. It reads the same events as
//! the trace and the metrics, and every interval arrives closed by the
//! kernel's own clocks (lifetime, syscall, run-queue delay, semaphore wait
//! and hold), so the tracker keeps only what it alone owns: the span ids —
//! which id is a process's lifetime, and which syscall span is currently
//! executing for a pid (so semaphore waits and holds can hang off it). The
//! causal hierarchy is:
//!
//! ```text
//! process ─┬─ syscall ─┬─ sem_wait
//!          │           └─ sem_hold
//!          ├─ run_queue
//!          └─ window (check-syscall span is the parent)
//! ```
//!
//! Spans are **off by default** ([`MachineSpec::spans`]): the tracker's one
//! input is gated on the ring's enabled switch, so Monte-Carlo rounds pay
//! one predictable branch per event. Exhibits arm them with
//! [`MachineSpec::with_spans`] and read the ring (plus the forensics event
//! log) to draw timelines and Perfetto tracks.
//!
//! [`MachineSpec::spans`]: crate::machine::MachineSpec::spans
//! [`MachineSpec::with_spans`]: crate::machine::MachineSpec::with_spans

use crate::event::KernelEvent;
use crate::ids::Pid;
use tocttou_sim::span::{Span, SpanId, SpanKind, SpanRing};
use tocttou_sim::time::{SimDuration, SimTime};

/// Spans retained per round when armed; old spans are evicted (and
/// counted) beyond this, mirroring the kernel's bounded event trace.
pub const SPAN_RING_CAPACITY: usize = 65_536;

/// A stable 64-bit FNV-1a hash of a pathname — the `aux` payload of
/// [`SpanKind::Window`] spans (spans carry no strings).
pub fn path_hash(path: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The span ids a process has open: its lifetime and its executing
/// syscall.
#[derive(Debug, Clone, Copy)]
struct ProcCtx {
    life: SpanId,
    syscall: SpanId,
}

impl ProcCtx {
    const EMPTY: ProcCtx = ProcCtx {
        life: SpanId::NONE,
        syscall: SpanId::NONE,
    };
}

/// `end` minus `dur`: the start of an interval the kernel closed at `end`.
fn start_of(end: SimTime, dur: SimDuration) -> SimTime {
    SimTime::from_nanos(end.as_nanos().saturating_sub(dur.as_nanos()))
}

/// The live, kernel-resident span tracker.
#[derive(Debug, Clone)]
pub struct SpanTracker {
    ring: SpanRing,
    procs: Vec<ProcCtx>,
}

impl Default for SpanTracker {
    fn default() -> Self {
        Self::new(false)
    }
}

impl SpanTracker {
    /// A fresh tracker; disabled trackers allocate and record nothing.
    pub fn new(enabled: bool) -> Self {
        SpanTracker {
            ring: if enabled {
                SpanRing::bounded(SPAN_RING_CAPACITY)
            } else {
                SpanRing::disabled()
            },
            procs: Vec::new(),
        }
    }

    /// Whether the tracker is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_enabled()
    }

    /// The completed-span ring.
    pub fn ring(&self) -> &SpanRing {
        &self.ring
    }

    /// Rearms the tracker for a fresh round: the ring restarts (ids at 0,
    /// zero drops) and every open span id is dropped, so pooled reuse can
    /// never leak a prior round's spans or parents.
    pub(crate) fn reset(&mut self, enabled: bool) {
        self.ring.reset();
        if enabled {
            self.ring.enable();
        } else {
            self.ring.disable();
        }
        self.procs.clear();
    }

    /// The span of the syscall `pid` is currently executing, or
    /// [`SpanId::NONE`] — the causal parent for semaphore and window spans.
    #[inline]
    pub fn current_syscall(&self, pid: Pid) -> SpanId {
        self.procs
            .get(pid.index())
            .map_or(SpanId::NONE, |c| c.syscall)
    }

    #[inline]
    fn proc_ctx(&mut self, pid: Pid) -> &mut ProcCtx {
        let idx = pid.index();
        if idx >= self.procs.len() {
            self.procs.resize(idx + 1, ProcCtx::EMPTY);
        }
        &mut self.procs[idx]
    }

    /// Turns one kernel fact into span bookkeeping: a spawn or syscall
    /// entry allocates the span's id, and the closing event records the
    /// interval the kernel timed.
    #[inline(always)]
    pub(crate) fn observe(&mut self, now: SimTime, ev: &KernelEvent<'_>) {
        if !self.ring.is_enabled() {
            return;
        }
        match *ev {
            KernelEvent::Spawn { pid, .. } => {
                let life = self.ring.alloc();
                self.proc_ctx(pid).life = life;
            }
            KernelEvent::Exit { pid, spawned } => {
                let ctx = std::mem::replace(self.proc_ctx(pid), ProcCtx::EMPTY);
                if !ctx.life.is_none() {
                    self.ring.push(Span {
                        id: ctx.life,
                        parent: SpanId::NONE,
                        kind: SpanKind::Process,
                        pid: pid.0,
                        aux: 0,
                        start: spawned,
                        end: now,
                    });
                }
            }
            KernelEvent::SyscallEnter { pid, .. } => {
                let id = self.ring.alloc();
                self.proc_ctx(pid).syscall = id;
            }
            // `aux` is the syscall table index.
            KernelEvent::SyscallExit {
                pid, call, entered, ..
            } => {
                let ctx = self.proc_ctx(pid);
                let (id, parent) = (ctx.syscall, ctx.life);
                ctx.syscall = SpanId::NONE;
                if !id.is_none() {
                    self.ring.push(Span {
                        id,
                        parent,
                        kind: SpanKind::Syscall,
                        pid: pid.0,
                        aux: call.index() as u64,
                        start: entered,
                        end: now,
                    });
                }
            }
            // `aux` is the CPU dispatched onto.
            KernelEvent::Dispatch {
                pid, cpu, queued, ..
            } => {
                let parent = self.proc_ctx(pid).life;
                let start = start_of(now, queued);
                let aux = u64::from(cpu.0);
                self.ring
                    .record(SpanKind::RunQueue, pid.0, aux, parent, start, now);
            }
            // Semaphore spans hang off the syscall that blocked or held;
            // `aux` is the semaphore id.
            KernelEvent::SemHandoff { pid, sem, waited } => {
                let parent = self.current_syscall(pid);
                let start = start_of(now, waited);
                let aux = u64::from(sem.0);
                self.ring
                    .record(SpanKind::SemWait, pid.0, aux, parent, start, now);
            }
            KernelEvent::SemRelease { pid, sem, held } => {
                let parent = self.current_syscall(pid);
                let start = start_of(now, held);
                let aux = u64::from(sem.0);
                self.ring
                    .record(SpanKind::SemHold, pid.0, aux, parent, start, now);
            }
            // The attack window hangs off the syscall whose commit opened
            // it; `aux` is a stable path hash.
            KernelEvent::Window { owner, path, close } => {
                self.ring.record(
                    SpanKind::Window,
                    owner.0,
                    path_hash(path),
                    close.check_span,
                    close.t_check,
                    close.t_use,
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OsEvent;
    use crate::forensics::WindowClose;
    use crate::ids::{CpuId, SemId};
    use crate::process::SyscallName;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// Feeds `evs` in order, each at its time (in µs).
    fn feed(tr: &mut SpanTracker, evs: &[(u64, KernelEvent)]) {
        for (at, ev) in evs {
            tr.observe(t(*at), ev);
        }
    }

    fn spawn(pid: Pid) -> KernelEvent<'static> {
        KernelEvent::Spawn { pid, name: "p" }
    }

    fn exit(pid: Pid, spawned: u64) -> KernelEvent<'static> {
        KernelEvent::Exit {
            pid,
            spawned: t(spawned),
        }
    }

    fn enter(pid: Pid, call: SyscallName) -> KernelEvent<'static> {
        KernelEvent::SyscallEnter {
            pid,
            call,
            path: None,
        }
    }

    fn leave(pid: Pid, call: SyscallName, entered: u64) -> KernelEvent<'static> {
        KernelEvent::SyscallExit {
            pid,
            call,
            ok: true,
            entered: t(entered),
        }
    }

    #[test]
    fn disabled_tracker_records_nothing() {
        let mut tr = SpanTracker::new(false);
        let p = Pid(0);
        let evs = [
            (0, spawn(p)),
            (1, enter(p, SyscallName::Stat)),
            (2, leave(p, SyscallName::Stat, 1)),
            (3, exit(p, 0)),
        ];
        feed(&mut tr, &evs);
        assert!(tr.ring().is_empty());
        assert_eq!(tr.current_syscall(Pid(0)), SpanId::NONE);
    }

    #[test]
    fn spans_nest_process_syscall_sem() {
        let mut tr = SpanTracker::new(true);
        let (p, sem, call) = (Pid(2), SemId(1), SyscallName::Rename);
        let evs = [
            (0, spawn(p)),
            (10, enter(p, call)),
            (12, KernelEvent::Os(OsEvent::SemEnqueue { pid: p, sem })),
            (
                18,
                KernelEvent::SemHandoff {
                    pid: p,
                    sem,
                    waited: us(6),
                },
            ),
            (
                25,
                KernelEvent::SemRelease {
                    pid: p,
                    sem,
                    held: us(7),
                },
            ),
            (30, leave(p, call, 10)),
            (40, exit(p, 0)),
        ];
        feed(&mut tr, &evs);

        let spans: Vec<Span> = tr.ring().iter().copied().collect();
        assert_eq!(spans.len(), 4);
        let wait = spans.iter().find(|s| s.kind == SpanKind::SemWait).unwrap();
        let hold = spans.iter().find(|s| s.kind == SpanKind::SemHold).unwrap();
        let call_span = spans.iter().find(|s| s.kind == SpanKind::Syscall).unwrap();
        let life = spans.iter().find(|s| s.kind == SpanKind::Process).unwrap();
        assert_eq!(wait.parent, call_span.id);
        assert_eq!(hold.parent, call_span.id);
        assert_eq!(call_span.parent, life.id);
        assert!(life.parent.is_none());
        assert_eq!(call_span.aux, call.index() as u64);
        assert_eq!((call_span.start, call_span.end), (t(10), t(30)));
        assert_eq!((wait.start, wait.end), (t(12), t(18)));
        assert_eq!((hold.start, hold.end), (t(18), t(25)));
        assert_eq!((life.start, life.end), (t(0), t(40)));
    }

    #[test]
    fn run_queue_span_reconstructs_its_start() {
        let mut tr = SpanTracker::new(true);
        let dispatch = KernelEvent::Dispatch {
            pid: Pid(1),
            cpu: CpuId(3),
            migrated: false,
            queued: us(4),
        };
        feed(&mut tr, &[(0, spawn(Pid(1))), (10, dispatch)]);
        let span = tr.ring().iter().next().unwrap();
        assert_eq!(span.kind, SpanKind::RunQueue);
        assert_eq!((span.start, span.end), (t(6), t(10)));
        assert_eq!(span.aux, 3, "aux carries the CPU");
    }

    #[test]
    fn window_span_hangs_off_the_check_syscall() {
        let mut tr = SpanTracker::new(true);
        let p = Pid(0);
        let evs = [(0, spawn(p)), (5, enter(p, SyscallName::Stat))];
        feed(&mut tr, &evs);
        let check_span = tr.current_syscall(p);
        let close = WindowClose {
            t_check: t(9),
            t_use: t(30),
            check_span,
        };
        let window = KernelEvent::Window {
            owner: p,
            path: "/etc/passwd",
            close,
        };
        feed(
            &mut tr,
            &[(9, leave(p, SyscallName::Stat, 5)), (30, window)],
        );
        let win = tr
            .ring()
            .iter()
            .find(|s| s.kind == SpanKind::Window)
            .unwrap();
        assert_eq!(win.parent, check_span);
        assert_eq!(win.aux, path_hash("/etc/passwd"));
        assert_eq!((win.start, win.end), (t(9), t(30)));
    }

    #[test]
    fn reset_restarts_ids_and_forgets_open_intervals() {
        let mut tr = SpanTracker::new(true);
        let p = Pid(0);
        feed(&mut tr, &[(0, spawn(p)), (1, enter(p, SyscallName::Open))]);
        tr.reset(true);
        assert!(tr.ring().is_empty());
        assert_eq!(tr.current_syscall(p), SpanId::NONE);
        feed(&mut tr, &[(100, spawn(p)), (110, exit(p, 100))]);
        let life = tr.ring().iter().next().unwrap();
        assert_eq!(life.id, SpanId(0), "ids restart after reset");
    }

    #[test]
    fn path_hash_is_stable() {
        assert_eq!(path_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(path_hash("/etc/passwd"), path_hash("/etc/passwd"));
        assert_ne!(path_hash("/etc/passwd"), path_hash("/etc/passwd~"));
    }
}

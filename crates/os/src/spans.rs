//! Causal spans, derived from a round's kernel trace and its forensics
//! window log.
//!
//! Where the trace records *instants* (a syscall entered, a semaphore was
//! released), a [`Span`] records an *interval* with a causal parent:
//!
//! ```text
//! process ─┬─ syscall ─┬─ sem_wait
//!          │           └─ sem_hold
//!          ├─ run_queue
//!          └─ window (check-syscall span is the parent)
//! ```
//!
//! Every interval is read off the trace's own instants after the round, as
//! the timeline renderer reads its bars, so the kernel keeps one recorder:
//! [`derive()`] pairs each opening event with its close. Only the attack
//! windows come from elsewhere: the forensics event log
//! ([`MachineSpec::event_log`]) knows which check a use consumed, which the
//! trace does not say. Exporters call [`derive()`] on an event-log-armed
//! round.
//!
//! [`MachineSpec::event_log`]: crate::machine::MachineSpec::event_log

use crate::event::OsEvent;
use crate::forensics::WindowRecord;
use crate::ids::SemId;
use tocttou_sim::time::SimTime;
use tocttou_sim::trace::Trace;

/// What interval a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// A process lifetime: spawn → exit. `aux` is unused (0).
    Process,
    /// One syscall execution: entry → exit. `aux` is the syscall's
    /// [`SyscallName::index`](crate::process::SyscallName::index).
    Syscall,
    /// A contended `i_sem` wait: enqueue → hand-off. `aux` is the
    /// semaphore id.
    SemWait,
    /// An `i_sem` hold: acquire → release. `aux` is the semaphore id.
    SemHold,
    /// Run-queue delay: became ready → dispatched. `aux` is the CPU the
    /// process was dispatched onto.
    RunQueue,
    /// An attack window: check commit → use commit on one `(pid, path)`.
    /// `aux` is [`path_hash`] of the path.
    Window,
}

impl SpanKind {
    /// A stable lowercase label (used by exporters).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Process => "process",
            SpanKind::Syscall => "syscall",
            SpanKind::SemWait => "sem_wait",
            SpanKind::SemHold => "sem_hold",
            SpanKind::RunQueue => "run_queue",
            SpanKind::Window => "window",
        }
    }
}

/// A span identifier, unique within one [`derive()`] call.
///
/// Ids are allocated when a parent interval *opens*, so children carry
/// their parent's id even though the parent closes after them (a process
/// span completes after every syscall span it contains).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The "no parent" sentinel.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// True for the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// One completed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The causally enclosing span, or [`SpanId::NONE`].
    pub parent: SpanId,
    /// What the interval covers.
    pub kind: SpanKind,
    /// The process the interval belongs to (the window's owner for
    /// [`SpanKind::Window`]).
    pub pid: u32,
    /// Kind-specific payload (see [`SpanKind`]).
    pub aux: u64,
    /// When the interval opened.
    pub start: SimTime,
    /// When the interval closed.
    pub end: SimTime,
}

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

/// The causal spans of one round, in the order they closed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spans {
    /// Completed spans in close order; ids follow open order.
    pub spans: Vec<Span>,
    /// How much of the input was lost: trace records its capacity bound
    /// evicted, plus logged windows whose use is not in the trace. Spans
    /// that opened or closed in lost records are missing, so a nonzero
    /// count marks the set incomplete.
    pub dropped: u64,
}

/// What [`derive()`] tracks per process between its trace events.
#[derive(Debug, Clone, Default)]
struct Open {
    life: Option<(SpanId, SimTime)>,
    syscall: Option<(SpanId, SimTime)>,
    /// The last ready point, until the dispatch that ends it.
    ready: Option<SimTime>,
    /// When the process joined a semaphore queue, until the hand-off.
    sem_wait: Option<SimTime>,
    /// Each commit's time and the syscall it committed in: where a
    /// window's check finds its parent.
    commits: Vec<(SimTime, SpanId)>,
}

/// Derives the causal spans of one round from its kernel trace and its
/// forensics window log ([`WindowForensics::window_log`]).
///
/// Ids are allocated in event order: at `Spawn` and `SyscallEnter` for the
/// spans children hang off, and at the closing event for every other kind.
///
/// * A process span runs from `Spawn` to `Exit`.
/// * A syscall span runs from `SyscallEnter` to `SyscallExit`; `aux` is the
///   call's [`SyscallName::index`], its parent the process span.
/// * A run-queue span runs from the last ready point (`Spawn`, `Wake`,
///   `Preempt`, or a `SemAcquire` that ends a `SemEnqueue`) to `Dispatch`;
///   `aux` is the CPU.
/// * A semaphore wait runs from `SemEnqueue` to `SemAcquire` and a hold
///   from `SemAcquire` to `SemRelease`; `aux` is the semaphore, the parent
///   the process's open syscall.
/// * A window comes from the log. Its parent is the syscall in which the
///   owner's `Commit` at `t_check` landed; its id is allocated just before
///   the owner's first `DefenseDenied` or `Commit` at `t_use`, because the
///   use closes the window before the kernel traces its commit; `aux` is
///   [`path_hash`] of the path. A process's commits at one instant (only a
///   machine with zero syscall costs makes them) resolve to the last at
///   `t_check` and the first at `t_use`.
///
/// [`WindowForensics::window_log`]: crate::forensics::WindowForensics::window_log
/// [`SyscallName::index`]: crate::process::SyscallName::index
pub fn derive(trace: &Trace<OsEvent>, windows: &[WindowRecord]) -> Spans {
    let mut out = Spans {
        spans: Vec::new(),
        dropped: trace.dropped(),
    };
    let mut next_id = 0;
    let mut alloc = || {
        let id = SpanId(next_id);
        next_id += 1;
        id
    };
    let mut procs: Vec<Open> = Vec::new();
    let mut holds: Vec<(SemId, SimTime)> = Vec::new();
    let mut windows = windows.iter().peekable();
    for r in trace {
        let now = r.at;
        while windows.next_if(|w| w.t_use < now).is_some() {
            out.dropped += 1;
        }
        let Some(pid) = r.event.pid() else { continue };
        if procs.len() <= pid.index() {
            procs.resize_with(pid.index() + 1, Open::default);
        }
        let p = &mut procs[pid.index()];
        let parent = |o: Option<(SpanId, SimTime)>| o.map_or(SpanId::NONE, |(id, _)| id);
        let mut push = |id, parent, kind, aux, start| {
            out.spans.push(Span {
                id,
                parent,
                kind,
                pid: pid.0,
                aux,
                start,
                end: now,
            })
        };
        match r.event {
            OsEvent::Spawn { .. } => {
                p.life = Some((alloc(), now));
                p.ready = Some(now);
            }
            OsEvent::Exit { .. } => {
                if let Some((id, start)) = p.life {
                    push(id, SpanId::NONE, SpanKind::Process, 0, start);
                }
                *p = Open::default();
            }
            OsEvent::SyscallEnter { .. } => p.syscall = Some((alloc(), now)),
            OsEvent::SyscallExit { call, .. } => {
                if let Some((id, start)) = p.syscall.take() {
                    push(
                        id,
                        parent(p.life),
                        SpanKind::Syscall,
                        call.index() as u64,
                        start,
                    );
                }
            }
            OsEvent::Wake { .. } | OsEvent::Preempt { .. } => p.ready = Some(now),
            OsEvent::Dispatch { cpu, .. } => {
                if let Some(start) = p.ready.take() {
                    let aux = u64::from(cpu.0);
                    push(alloc(), parent(p.life), SpanKind::RunQueue, aux, start);
                }
            }
            OsEvent::SemEnqueue { .. } => p.sem_wait = Some(now),
            OsEvent::SemAcquire { sem, .. } => {
                holds.push((sem, now));
                if let Some(start) = p.sem_wait.take() {
                    let aux = u64::from(sem.0);
                    push(alloc(), parent(p.syscall), SpanKind::SemWait, aux, start);
                    p.ready = Some(now);
                }
            }
            OsEvent::SemRelease { sem, .. } => {
                if let Some(i) = holds.iter().position(|&(s, _)| s == sem) {
                    let (_, start) = holds.swap_remove(i);
                    let aux = u64::from(sem.0);
                    push(alloc(), parent(p.syscall), SpanKind::SemHold, aux, start);
                }
            }
            OsEvent::DefenseDenied { .. } | OsEvent::Commit { .. } => {
                if let Some(w) = windows.next_if(|w| w.owner == pid && w.t_use == now) {
                    let check = p.commits.iter().rev().find(|&&(t, _)| t == w.t_check);
                    let aux = path_hash(&w.path);
                    let parent = check.map_or(SpanId::NONE, |&(_, id)| id);
                    push(alloc(), parent, SpanKind::Window, aux, w.t_check);
                }
                if matches!(r.event, OsEvent::Commit { .. }) {
                    p.commits.push((now, parent(p.syscall)));
                }
            }
            _ => {}
        }
    }
    out.dropped += windows.count() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CpuId, Pid};
    use crate::process::SyscallName;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    /// A trace of `evs`, each at its time (in µs).
    fn trace(evs: Vec<(u64, OsEvent)>) -> Trace<OsEvent> {
        let mut tr = Trace::unbounded();
        for (at, ev) in evs {
            tr.record(t(at), ev);
        }
        tr
    }

    fn spawn(pid: Pid) -> OsEvent {
        OsEvent::Spawn {
            pid,
            name: "p".into(),
        }
    }

    fn enter(pid: Pid, call: SyscallName) -> OsEvent {
        OsEvent::SyscallEnter {
            pid,
            call,
            path: None,
        }
    }

    fn leave(pid: Pid, call: SyscallName) -> OsEvent {
        OsEvent::SyscallExit {
            pid,
            call,
            ok: true,
        }
    }

    fn find(spans: &Spans, kind: SpanKind) -> Span {
        *spans.spans.iter().find(|s| s.kind == kind).unwrap()
    }

    #[test]
    fn spans_nest_process_syscall_sem() {
        let (p, sem, call) = (Pid(2), SemId(1), SyscallName::Rename);
        let spans = derive(
            &trace(vec![
                (0, spawn(p)),
                (10, enter(p, call)),
                (12, OsEvent::SemEnqueue { pid: p, sem }),
                (18, OsEvent::SemAcquire { pid: p, sem }),
                (25, OsEvent::SemRelease { pid: p, sem }),
                (30, leave(p, call)),
                (40, OsEvent::Exit { pid: p }),
            ]),
            &[],
        );
        assert_eq!(spans.spans.len(), 4);
        assert_eq!(spans.dropped, 0);
        let wait = find(&spans, SpanKind::SemWait);
        let hold = find(&spans, SpanKind::SemHold);
        let call_span = find(&spans, SpanKind::Syscall);
        let life = find(&spans, SpanKind::Process);
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
    fn run_queue_span_starts_at_the_last_ready_point() {
        let p = Pid(1);
        let spans = derive(
            &trace(vec![
                (0, spawn(p)),
                (
                    2,
                    OsEvent::Dispatch {
                        pid: p,
                        cpu: CpuId(0),
                    },
                ),
                (
                    6,
                    OsEvent::Preempt {
                        pid: p,
                        cpu: CpuId(0),
                    },
                ),
                (
                    10,
                    OsEvent::Dispatch {
                        pid: p,
                        cpu: CpuId(3),
                    },
                ),
            ]),
            &[],
        );
        let starts: Vec<_> = spans
            .spans
            .iter()
            .map(|s| (s.start, s.end, s.aux))
            .collect();
        assert_eq!(
            starts,
            vec![(t(0), t(2), 0), (t(6), t(10), 3)],
            "aux carries the CPU"
        );
        assert!(spans.spans.iter().all(|s| s.kind == SpanKind::RunQueue));
    }

    #[test]
    fn window_span_hangs_off_the_check_syscall() {
        let p = Pid(0);
        let commit = |call| OsEvent::Commit { pid: p, call };
        let window = WindowRecord {
            owner: p,
            path: "/etc/passwd".into(),
            t_check: t(9),
            t_use: t(30),
        };
        let spans = derive(
            &trace(vec![
                (0, spawn(p)),
                (5, enter(p, SyscallName::Stat)),
                (9, commit(SyscallName::Stat)),
                (9, leave(p, SyscallName::Stat)),
                (20, enter(p, SyscallName::Chmod)),
                (30, commit(SyscallName::Chmod)),
                (31, leave(p, SyscallName::Chmod)),
            ]),
            &[window],
        );
        let stat = spans.spans[0];
        let win = find(&spans, SpanKind::Window);
        assert_eq!((stat.kind, stat.id), (SpanKind::Syscall, SpanId(1)));
        assert_eq!(win.parent, stat.id);
        assert_eq!(win.id, SpanId(3), "allocated after the chmod entry");
        assert_eq!(win.aux, path_hash("/etc/passwd"));
        assert_eq!((win.start, win.end), (t(9), t(30)));
        assert_eq!(spans.dropped, 0);
    }

    #[test]
    fn every_derivation_numbers_ids_from_zero() {
        let p = Pid(0);
        let later = trace(vec![(100, spawn(p)), (110, OsEvent::Exit { pid: p })]);
        for _ in 0..2 {
            let spans = derive(&later, &[]);
            assert_eq!(spans.spans[0].id, SpanId(0), "ids restart per derivation");
        }
    }

    #[test]
    fn a_truncated_trace_reports_drops() {
        let p = Pid(0);
        let mut tr = Trace::bounded(2);
        for (at, ev) in [
            (0, spawn(p)),
            (1, enter(p, SyscallName::Open)),
            (2, leave(p, SyscallName::Open)),
            (3, OsEvent::Exit { pid: p }),
        ] {
            tr.record(t(at), ev);
        }
        let spans = derive(&tr, &[]);
        assert!(
            spans.spans.is_empty(),
            "both spans opened in evicted records"
        );
        assert_eq!(spans.dropped, 2);
        let window = WindowRecord {
            owner: p,
            path: "/x".into(),
            t_check: t(0),
            t_use: t(1),
        };
        assert_eq!(
            derive(&tr, &[window]).dropped,
            3,
            "an unplaced window counts"
        );
    }

    #[test]
    fn path_hash_is_stable() {
        assert_eq!(path_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(path_hash("/etc/passwd"), path_hash("/etc/passwd"));
        assert_ne!(path_hash("/etc/passwd"), path_hash("/etc/passwd~"));
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(SpanKind::Window.label(), "window");
        assert_eq!(SpanKind::SemWait.label(), "sem_wait");
    }
}

//! Behavioural tests for the kernel: scheduling, semaphore hand-off,
//! preemption, background activity and an end-to-end miniature TOCTTOU race.

use crate::ids::{Gid, Pid, Uid};
use crate::kernel::{Kernel, RunOutcome};
use crate::machine::{BackgroundSpec, MachineSpec};
use crate::process::{
    Action, LogicCtx, ProcState, RetVal, SyscallName, SyscallRequest, SyscallResult,
};
use crate::vfs::InodeMeta;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use tocttou_sim::dist::DurationDist;
use tocttou_sim::time::{SimDuration, SimTime};

fn root_meta() -> InodeMeta {
    InodeMeta {
        uid: Uid::ROOT,
        gid: Gid::ROOT,
        mode: 0o755,
    }
}

fn quiet_kernel(spec: MachineSpec) -> Kernel {
    let mut k = Kernel::new(spec.quiet(), 7);
    k.vfs_mut().mkdir("/d", root_meta()).unwrap();
    k
}

/// A logic that runs a fixed script of actions, then exits.
struct Script {
    actions: Vec<Action>,
    at: usize,
    /// Results observed after each syscall, for assertions.
    results: std::rc::Rc<std::cell::RefCell<Vec<SyscallResult>>>,
}

impl Script {
    fn new(actions: Vec<Action>) -> (Self, std::rc::Rc<std::cell::RefCell<Vec<SyscallResult>>>) {
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        (
            Script {
                actions,
                at: 0,
                results: results.clone(),
            },
            results,
        )
    }
}

impl crate::process::ProcessLogic for Script {
    fn next_action(&mut self, _ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
        if let Some(r) = last {
            self.results.borrow_mut().push(r.clone());
        }
        let a = self.actions.get(self.at).cloned().unwrap_or(Action::Exit);
        self.at += 1;
        a
    }
}

#[test]
fn single_process_runs_script_and_time_advances() {
    let mut k = quiet_kernel(MachineSpec::multicore_pentium_d());
    let (script, results) = Script::new(vec![
        Action::Compute(SimDuration::from_micros(10)),
        Action::Syscall(SyscallRequest::OpenCreate {
            path: "/d/f".into(),
        }),
        Action::Syscall(SyscallRequest::Stat {
            path: "/d/f".into(),
        }),
    ]);
    let pid = k.spawn("p", Uid::ROOT, Gid::ROOT, true, Box::new(script));
    let outcome = k.run_until_exit(pid, SimTime::from_millis(100));
    assert_eq!(outcome, RunOutcome::StopConditionMet);
    assert!(
        k.now() > SimTime::from_micros(25),
        "time advanced: {}",
        k.now()
    );
    let results = results.borrow();
    assert_eq!(results.len(), 2);
    assert!(results[0].fd().is_some(), "creat returned an fd");
    let st = results[1].stat().expect("stat ok");
    assert_eq!(st.uid, Uid::ROOT);
}

#[test]
fn exited_process_leaves_filesystem_changes() {
    let mut k = quiet_kernel(MachineSpec::smp_xeon());
    let (script, _) = Script::new(vec![
        Action::Syscall(SyscallRequest::OpenCreate {
            path: "/d/a".into(),
        }),
        Action::Syscall(SyscallRequest::Symlink {
            target: "/d/a".into(),
            linkpath: "/d/l".into(),
        }),
        Action::Syscall(SyscallRequest::Rename {
            from: "/d/a".into(),
            to: "/d/b".into(),
        }),
    ]);
    let pid = k.spawn("fs", Uid(1000), Gid(1000), true, Box::new(script));
    k.run_until_exit(pid, SimTime::from_millis(100));
    assert!(k.vfs().lstat("/d/l").unwrap().is_symlink);
    assert!(k.vfs().stat("/d/b").is_ok());
    assert!(
        k.vfs().stat("/d/a").is_err(),
        "renamed away, symlink dangling"
    );
    k.vfs().check_invariants().unwrap();
}

#[test]
fn two_processes_share_one_cpu_by_timeslice() {
    // Uniprocessor: two pure compute loops; both must make progress via
    // preemption, interleaving across slices.
    let spec = MachineSpec::uniprocessor();
    let slice = spec.timeslice;
    let mut k = quiet_kernel(spec);
    let (a, _) = Script::new(vec![Action::Compute(slice + slice); 2]);
    let (b, _) = Script::new(vec![Action::Compute(slice + slice); 2]);
    let pa = k.spawn("a", Uid(1), Gid(1), true, Box::new(a));
    let pb = k.spawn("b", Uid(2), Gid(2), true, Box::new(b));
    let outcome = k.run_until_all_exit(&[pa, pb], SimTime::from_millis(2_000));
    assert_eq!(outcome, RunOutcome::StopConditionMet);
    // Both ran 400 ms of CPU on one core: total ≥ 800 ms wall.
    assert!(k.now() >= SimTime::from_millis(800), "now {}", k.now());
    // The trace must contain preemptions (they interleaved).
    let preempts = k
        .trace()
        .iter()
        .filter(|r| matches!(r.event, crate::event::OsEvent::Preempt { .. }))
        .count();
    assert!(
        preempts >= 3,
        "expected interleaving, got {preempts} preempts"
    );
}

#[test]
fn two_processes_run_concurrently_on_smp() {
    let spec = MachineSpec::smp_xeon();
    let mut k = quiet_kernel(spec);
    let (a, _) = Script::new(vec![Action::Compute(SimDuration::from_millis(50))]);
    let (b, _) = Script::new(vec![Action::Compute(SimDuration::from_millis(50))]);
    let pa = k.spawn("a", Uid(1), Gid(1), true, Box::new(a));
    let pb = k.spawn("b", Uid(2), Gid(2), true, Box::new(b));
    k.run_until_all_exit(&[pa, pb], SimTime::from_millis(500));
    // Two 50 ms jobs on two CPUs: finish at ~50 ms, not ~100 ms.
    assert!(
        k.now() < SimTime::from_millis(60),
        "ran concurrently, now {}",
        k.now()
    );
}

#[test]
fn wake_to_idle_cpu_places_second_process_immediately() {
    let mut k = quiet_kernel(MachineSpec::smp_xeon());
    let (a, _) = Script::new(vec![Action::Compute(SimDuration::from_millis(10))]);
    let pa = k.spawn("a", Uid(1), Gid(1), true, Box::new(a));
    let (b, _) = Script::new(vec![Action::Compute(SimDuration::from_millis(10))]);
    let pb = k.spawn("b", Uid(2), Gid(2), true, Box::new(b));
    // Both should be Running right away (two CPUs, wake-to-idle).
    assert!(matches!(k.state_of(pa), ProcState::Running(_)));
    assert!(matches!(k.state_of(pb), ProcState::Running(_)));
}

#[test]
fn semaphore_contention_serializes_and_fifo_orders() {
    // Three processes all chmod within the same directory; the semaphore
    // serializes them and the trace shows FIFO acquisition order.
    let mut k = quiet_kernel(MachineSpec::multicore_pentium_d());
    k.vfs_mut().create_file("/d/f", root_meta()).unwrap();
    let mut pids = Vec::new();
    for i in 0..3 {
        let (s, _) = Script::new(vec![
            // Stagger entries slightly so enqueue order is deterministic.
            Action::Compute(SimDuration::from_micros(i)),
            Action::Syscall(SyscallRequest::Chmod {
                path: "/d/f".into(),
                mode: 0o600 + i as u32,
            }),
        ]);
        pids.push(k.spawn(format!("p{i}"), Uid::ROOT, Gid::ROOT, true, Box::new(s)));
    }
    k.run_until_all_exit(&pids, SimTime::from_millis(100));
    let acquires: Vec<Pid> = k
        .trace()
        .iter()
        .filter_map(|r| match r.event {
            crate::event::OsEvent::SemAcquire { pid, .. } => Some(pid),
            _ => None,
        })
        .collect();
    assert_eq!(acquires, pids, "FIFO order by arrival time");
    // Last chmod wins.
    assert_eq!(k.vfs().stat("/d/f").unwrap().mode, 0o602);
}

#[test]
fn sleep_blocks_without_holding_cpu() {
    let mut k = quiet_kernel(MachineSpec::uniprocessor());
    let (sleeper, _) = Script::new(vec![Action::Syscall(SyscallRequest::Sleep {
        duration: SimDuration::from_millis(50),
    })]);
    let (worker, _) = Script::new(vec![Action::Compute(SimDuration::from_millis(10))]);
    let ps = k.spawn("sleeper", Uid(1), Gid(1), true, Box::new(sleeper));
    let pw = k.spawn("worker", Uid(2), Gid(2), true, Box::new(worker));
    // Worker finishes while the sleeper sleeps, on ONE cpu.
    k.run_until_exit(pw, SimTime::from_millis(200));
    assert!(k.now() < SimTime::from_millis(15), "now {}", k.now());
    k.run_until_exit(ps, SimTime::from_millis(200));
    assert!(k.now() >= SimTime::from_millis(50));
}

#[test]
fn marker_and_trace_capture() {
    let mut k = quiet_kernel(MachineSpec::smp_xeon());
    let (s, _) = Script::new(vec![
        Action::Marker("hello"),
        Action::Compute(SimDuration::from_micros(1)),
    ]);
    let pid = k.spawn("m", Uid(1), Gid(1), true, Box::new(s));
    k.run_until_exit(pid, SimTime::from_millis(10));
    assert!(k.trace().iter().any(|r| matches!(
        r.event,
        crate::event::OsEvent::Marker { label: "hello", .. }
    )));
}

#[test]
fn background_activity_pauses_but_preserves_work() {
    // Heavy background activity must delay, not corrupt, a compute job.
    let mut spec = MachineSpec::uniprocessor();
    spec.background = BackgroundSpec {
        mean_interarrival_us: 200.0,
        duration: DurationDist::const_us(100.0),
    };
    let mut k = Kernel::new(spec, 3);
    k.vfs_mut().mkdir("/d", root_meta()).unwrap();
    let (s, _) = Script::new(vec![Action::Compute(SimDuration::from_millis(5))]);
    let pid = k.spawn("job", Uid(1), Gid(1), true, Box::new(s));
    let outcome = k.run_until_exit(pid, SimTime::from_millis(100));
    assert_eq!(outcome, RunOutcome::StopConditionMet);
    // ~1/3 of wall time stolen by bg: the 5 ms job takes noticeably longer.
    assert!(
        k.now() > SimTime::from_micros(6_000),
        "bg delayed the job, now {}",
        k.now()
    );
    let bg_starts = k
        .trace()
        .iter()
        .filter(|r| matches!(r.event, crate::event::OsEvent::BgStart { .. }))
        .count();
    assert!(bg_starts > 5, "bg activity fired: {bg_starts}");
}

#[test]
fn determinism_same_seed_same_trace_length_and_time() {
    let run = |seed: u64| {
        let mut k = Kernel::new(MachineSpec::smp_xeon(), seed);
        k.vfs_mut().mkdir("/d", root_meta()).unwrap();
        let (a, _) = Script::new(vec![
            Action::Compute(SimDuration::from_micros(100)),
            Action::Syscall(SyscallRequest::OpenCreate {
                path: "/d/x".into(),
            }),
            Action::Syscall(SyscallRequest::Chown {
                path: "/d/x".into(),
                uid: Uid(5),
                gid: Gid(5),
            }),
        ]);
        let pid = k.spawn("a", Uid::ROOT, Gid::ROOT, true, Box::new(a));
        k.run_until_exit(pid, SimTime::from_millis(50));
        (k.now(), k.trace().len(), k.events_processed())
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99).2, 0);
}

#[test]
fn failed_syscall_reports_error_and_releases_semaphores() {
    let mut k = quiet_kernel(MachineSpec::smp_xeon());
    let (s, results) = Script::new(vec![Action::Syscall(SyscallRequest::Unlink {
        path: "/d/missing".into(),
    })]);
    let pid = k.spawn("u", Uid(1), Gid(1), true, Box::new(s));
    k.run_until_exit(pid, SimTime::from_millis(10));
    let results = results.borrow();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].ret, Err(crate::error::OsError::Enoent));
    // The directory semaphore must be free again.
    let sem = k.vfs().dir_sem_of("/d/anything").unwrap();
    assert!(!k.sems().is_held(sem));
}

/// End-to-end miniature TOCTTOU: a root "victim" creates a file and chowns
/// it back to the user; a concurrent "attacker" swaps the file for a symlink
/// to /etc/passwd inside the window. On the SMP the attack must succeed.
#[test]
fn miniature_tocttou_race_succeeds_on_smp() {
    let mut k = quiet_kernel(MachineSpec::smp_xeon());
    k.vfs_mut().mkdir("/etc", root_meta()).unwrap();
    k.vfs_mut().create_file("/etc/passwd", root_meta()).unwrap();
    k.vfs_mut().mkdir("/home", root_meta()).unwrap();

    // Victim: creat /home/doc (as root), "write" for 500 µs, chown to user.
    let (victim, _) = Script::new(vec![
        Action::Syscall(SyscallRequest::OpenCreate {
            path: "/home/doc".into(),
        }),
        Action::Compute(SimDuration::from_micros(500)),
        Action::Syscall(SyscallRequest::Chown {
            path: "/home/doc".into(),
            uid: Uid(1000),
            gid: Gid(1000),
        }),
    ]);
    let vpid = k.spawn("victim", Uid::ROOT, Gid::ROOT, true, Box::new(victim));

    // Attacker: spin on stat until /home/doc is root-owned, then swap.
    struct Attacker {
        phase: u8,
    }
    impl crate::process::ProcessLogic for Attacker {
        fn next_action(&mut self, _ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Action::Syscall(SyscallRequest::Stat {
                        path: "/home/doc".into(),
                    })
                }
                1 => {
                    let detected = last
                        .and_then(|r| r.stat())
                        .is_some_and(|st| st.uid.is_root());
                    if detected {
                        self.phase = 2;
                        Action::Syscall(SyscallRequest::Unlink {
                            path: "/home/doc".into(),
                        })
                    } else {
                        self.phase = 0;
                        Action::Compute(SimDuration::from_micros(5))
                    }
                }
                2 => {
                    self.phase = 3;
                    Action::Syscall(SyscallRequest::Symlink {
                        target: "/etc/passwd".into(),
                        linkpath: "/home/doc".into(),
                    })
                }
                _ => Action::Exit,
            }
        }
    }
    let apid = k.spawn(
        "attacker",
        Uid(1000),
        Gid(1000),
        true,
        Box::new(Attacker { phase: 0 }),
    );

    k.run_until_all_exit(&[vpid, apid], SimTime::from_millis(100));
    let pw = k.vfs().stat("/etc/passwd").unwrap();
    assert_eq!(pw.uid, Uid(1000), "attacker owns /etc/passwd");
    k.vfs().check_invariants().unwrap();
}

/// The same miniature race on a uniprocessor almost never succeeds: the
/// attacker cannot run during the (non-blocking) 500 µs window.
#[test]
fn miniature_tocttou_race_fails_on_uniprocessor() {
    let mut k = quiet_kernel(MachineSpec::uniprocessor());
    k.vfs_mut().mkdir("/etc", root_meta()).unwrap();
    k.vfs_mut().create_file("/etc/passwd", root_meta()).unwrap();
    k.vfs_mut().mkdir("/home", root_meta()).unwrap();

    let (victim, _) = Script::new(vec![
        Action::Compute(SimDuration::from_micros(100)),
        Action::Syscall(SyscallRequest::OpenCreate {
            path: "/home/doc".into(),
        }),
        Action::Compute(SimDuration::from_micros(500)),
        Action::Syscall(SyscallRequest::Chown {
            path: "/home/doc".into(),
            uid: Uid(1000),
            gid: Gid(1000),
        }),
    ]);
    let vpid = k.spawn("victim", Uid::ROOT, Gid::ROOT, true, Box::new(victim));

    // Attacker spins but — on one CPU — only runs when the victim yields,
    // which it never does inside the window (100 ms slice ≫ 600 µs run).
    let mut spin_phase = 0u8;
    let attacker = move |_ctx: &LogicCtx, last: Option<&SyscallResult>| -> Action {
        match spin_phase {
            0 => {
                spin_phase = 1;
                Action::Syscall(SyscallRequest::Stat {
                    path: "/home/doc".into(),
                })
            }
            _ => {
                let detected = last
                    .and_then(|r| r.stat())
                    .is_some_and(|st| st.uid.is_root());
                if detected {
                    Action::Exit // would attack; the test asserts we never get here in-window
                } else {
                    spin_phase = 0;
                    Action::Compute(SimDuration::from_micros(5))
                }
            }
        }
    };
    let _apid = k.spawn("attacker", Uid(1000), Gid(1000), true, Box::new(attacker));

    k.run_until_exit(vpid, SimTime::from_millis(200));
    // The victim completed its save with the file still intact; ownership of
    // /etc/passwd unchanged.
    assert_eq!(k.vfs().stat("/etc/passwd").unwrap().uid, Uid::ROOT);
    assert_eq!(k.vfs().stat("/home/doc").unwrap().uid, Uid(1000));
}

#[test]
fn run_until_timeout_and_quiescence() {
    let mut k = quiet_kernel(MachineSpec::smp_xeon());
    // Nothing spawned: queue is empty → quiescent.
    assert_eq!(
        k.run_until(|_| false, SimTime::from_millis(1)),
        RunOutcome::Quiescent
    );
    // A long compute times out.
    let (s, _) = Script::new(vec![Action::Compute(SimDuration::from_secs(10))]);
    let pid = k.spawn("long", Uid(1), Gid(1), true, Box::new(s));
    assert_eq!(
        k.run_until_exit(pid, SimTime::from_millis(5)),
        RunOutcome::TimedOut
    );
    assert_eq!(k.now(), SimTime::from_millis(5));
}

#[test]
fn trap_fires_once_for_cold_attacker() {
    let mut k = quiet_kernel(MachineSpec::multicore_pentium_d());
    k.vfs_mut().create_file("/d/f", root_meta()).unwrap();
    k.vfs_mut().create_file("/d/g", root_meta()).unwrap();
    let (s, _) = Script::new(vec![
        Action::Syscall(SyscallRequest::Unlink {
            path: "/d/f".into(),
        }),
        Action::Syscall(SyscallRequest::Unlink {
            path: "/d/g".into(),
        }),
    ]);
    // NOT pretouched: first unlink must trap.
    let pid = k.spawn("cold", Uid::ROOT, Gid::ROOT, false, Box::new(s));
    k.run_until_exit(pid, SimTime::from_millis(10));
    let traps = k
        .trace()
        .iter()
        .filter(|r| matches!(r.event, crate::event::OsEvent::Trap { .. }))
        .count();
    assert_eq!(traps, 1, "exactly one page fault for two unlinks");
}

/// Regression: background bursts must not renew the time slice — a victim
/// computing through frequent interrupts still gets preempted when someone
/// is waiting (this is what makes the uniprocessor Figure 6 possible).
#[test]
fn background_activity_preserves_slice_budget() {
    let mut spec = MachineSpec::uniprocessor();
    // A burst every ~3 ms: dozens per 100 ms slice.
    spec.background = BackgroundSpec {
        mean_interarrival_us: 3_000.0,
        duration: DurationDist::const_us(50.0),
    };
    let slice = spec.timeslice;
    let mut k = Kernel::new(spec, 9);
    k.vfs_mut().mkdir("/d", root_meta()).unwrap();
    let (long, _) = Script::new(vec![Action::Compute(slice + slice)]);
    let (waiter, _) = Script::new(vec![Action::Compute(SimDuration::from_micros(10))]);
    let p_long = k.spawn("long", Uid(1), Gid(1), true, Box::new(long));
    let p_wait = k.spawn("waiter", Uid(2), Gid(2), true, Box::new(waiter));
    // The waiter must run within ~one slice (plus bg overhead), not starve
    // behind perpetually-renewed slices.
    k.run_until_exit(p_wait, SimTime::from_millis(500));
    assert!(
        k.now() < SimTime::from_millis(150),
        "waiter scheduled after one slice, got {}",
        k.now()
    );
    k.run_until_exit(p_long, SimTime::from_secs(2));
}

/// The EDGI defense hooks fire at the kernel level: a guarded chown is
/// denied after a foreign namespace mutation, and the denial is traced.
#[test]
fn defense_denial_is_traced() {
    use crate::defense::DefensePolicy;
    let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), 4);
    k.set_defense(DefensePolicy::Edgi);
    k.vfs_mut().mkdir("/d", root_meta()).unwrap();
    k.vfs_mut().create_file("/d/f", root_meta()).unwrap();

    // Victim: stat (check), long window, chown (use).
    let (victim, results) = Script::new(vec![
        Action::Syscall(SyscallRequest::Stat {
            path: "/d/f".into(),
        }),
        Action::Compute(SimDuration::from_micros(300)),
        Action::Syscall(SyscallRequest::Chown {
            path: "/d/f".into(),
            uid: Uid(9),
            gid: Gid(9),
        }),
    ]);
    let vpid = k.spawn("victim", Uid::ROOT, Gid::ROOT, true, Box::new(victim));
    // Interloper rebinds the name inside the window.
    let (attacker, _) = Script::new(vec![
        Action::Compute(SimDuration::from_micros(50)),
        Action::Syscall(SyscallRequest::Unlink {
            path: "/d/f".into(),
        }),
        Action::Syscall(SyscallRequest::Symlink {
            target: "/d/elsewhere".into(),
            linkpath: "/d/f".into(),
        }),
    ]);
    k.spawn("attacker", Uid(7), Gid(7), true, Box::new(attacker));
    k.run_until_exit(vpid, SimTime::from_millis(50));

    let results = results.borrow();
    let chown = results.last().expect("chown result");
    assert_eq!(chown.ret, Err(crate::error::OsError::Eacces), "use denied");
    assert_eq!(k.defense().denials(), 1);
    assert!(k
        .trace()
        .iter()
        .any(|r| matches!(r.event, crate::event::OsEvent::DefenseDenied { .. })));
}

/// A process the test feeds one action at a time: it naps while its queue
/// is empty and records every result except its naps.
#[derive(Clone, Default)]
struct Fed {
    todo: Rc<RefCell<VecDeque<Action>>>,
    done: Rc<RefCell<Vec<SyscallResult>>>,
}

impl crate::process::ProcessLogic for Fed {
    fn next_action(&mut self, _ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
        if let Some(r) = last.filter(|r| r.call != SyscallName::Sleep) {
            self.done.borrow_mut().push(r.clone());
        }
        self.todo
            .borrow_mut()
            .pop_front()
            .unwrap_or(Action::Syscall(SyscallRequest::Sleep {
                duration: SimDuration::from_micros(50),
            }))
    }
}

impl Fed {
    /// Queues `req` and runs the kernel until its result is in.
    fn call(&self, k: &mut Kernel, req: SyscallRequest) -> SyscallResult {
        let want = self.done.borrow().len() + 1;
        self.todo.borrow_mut().push_back(Action::Syscall(req));
        let outcome = k.run_until(|_| self.done.borrow().len() >= want, SimTime::from_secs(1));
        assert_eq!(outcome, RunOutcome::StopConditionMet);
        self.done.borrow()[want - 1].clone()
    }
}

/// The kernel's one-entry stat memo never serves a stale resolution.
///
/// A sampler `stat`s and `lstat`s one path through one `Arc` while a
/// mutator rebinds that name every way the kernel can (unlink, symlink,
/// rename over it, create, hard link, mkdir, renaming its directory) and
/// changes its metadata (chmod, chown, append). After every mutator call
/// each sample must equal a fresh, uncached `Vfs::stat`/`lstat`. The
/// sampler starts each round with the kind of sample it ended the previous
/// one with, so without invalidation that first sample would hit a memo
/// taken before the mutation.
#[test]
fn stat_memo_follows_every_rebinding() {
    let mut k = quiet_kernel(MachineSpec::multicore_pentium_d());
    let user = InodeMeta {
        uid: Uid(1000),
        gid: Gid(1000),
        mode: 0o644,
    };
    k.vfs_mut().create_file("/d/f", user).unwrap();
    k.vfs_mut().create_file("/d/secret", root_meta()).unwrap();
    let path: Arc<str> = "/d/f".into();
    let p = || path.clone();
    let (sampler, mutator) = (Fed::default(), Fed::default());
    k.spawn(
        "sampler",
        Uid(1000),
        Gid(1000),
        true,
        Box::new(sampler.clone()),
    );
    k.spawn(
        "mutator",
        Uid::ROOT,
        Gid::ROOT,
        true,
        Box::new(mutator.clone()),
    );

    let steps = [
        SyscallRequest::Unlink { path: p() },
        SyscallRequest::Symlink {
            target: "/d/secret".into(),
            linkpath: p(),
        },
        SyscallRequest::OpenCreate {
            path: "/d/g".into(),
        },
        SyscallRequest::Rename {
            from: "/d/g".into(),
            to: p(),
        },
        SyscallRequest::Unlink { path: p() },
        SyscallRequest::OpenCreate { path: p() },
        SyscallRequest::Link {
            existing: p(),
            linkpath: "/d/h".into(),
        },
        SyscallRequest::Mkdir {
            path: "/d/sub".into(),
        },
        SyscallRequest::Unlink { path: p() },
        SyscallRequest::Mkdir { path: p() },
        SyscallRequest::Rename {
            from: p(),
            to: "/d/old".into(),
        },
        SyscallRequest::Link {
            existing: "/d/secret".into(),
            linkpath: p(),
        },
        SyscallRequest::Rename {
            from: "/d".into(),
            to: "/e".into(),
        },
        SyscallRequest::Rename {
            from: "/e".into(),
            to: "/d".into(),
        },
        SyscallRequest::Chmod {
            path: p(),
            mode: 0o4755,
        },
        SyscallRequest::Chown {
            path: p(),
            uid: Uid(1000),
            gid: Gid(1000),
        },
    ];
    let mut follow = true;
    samples_match(&mut k, &sampler, &path, &mut follow, "boot");
    let mut mutate = |k: &mut Kernel, req: SyscallRequest| {
        let r = mutator.call(k, req.clone());
        assert!(r.is_ok(), "{req:?}: {r:?}");
        samples_match(k, &sampler, &path, &mut follow, &format!("{req:?}"));
        r
    };
    for req in steps {
        mutate(&mut k, req);
    }
    let fd = mutate(&mut k, SyscallRequest::Open { path: p() })
        .fd()
        .expect("open returns an fd");
    mutate(&mut k, SyscallRequest::Write { fd, bytes: 4096 });
    mutate(&mut k, SyscallRequest::Close { fd });
    assert_eq!(k.vfs().stat(&path).unwrap().size, 4096, "the append landed");
}

/// Samples `path` twice by `stat` and twice by `lstat`, starting with the
/// kind `follow` names, and checks each against an uncached walk. Leaves
/// `follow` on the kind sampled last, which the next call starts with.
fn samples_match(k: &mut Kernel, sampler: &Fed, path: &Arc<str>, follow: &mut bool, after: &str) {
    for _ in 0..2 {
        for _ in 0..2 {
            let req = if *follow {
                SyscallRequest::Stat { path: path.clone() }
            } else {
                SyscallRequest::Lstat { path: path.clone() }
            };
            let got = sampler.call(k, req);
            let fresh = if *follow {
                k.vfs().stat(path)
            } else {
                k.vfs().lstat(path)
            };
            assert_eq!(
                got.ret,
                fresh.map(RetVal::Stat),
                "after {after}, follow {follow}"
            );
        }
        *follow = !*follow;
    }
    *follow = !*follow;
}

// ---- run_until's stop contract and phase ends at its boundaries ----------

/// A logic that `stat`s `/d/f` in a loop: forever, or `left` times.
fn stat_spinner(mut left: Option<usize>) -> Box<dyn crate::process::ProcessLogic> {
    let path: Arc<str> = "/d/f".into();
    Box::new(
        move |_: &LogicCtx, _: Option<&SyscallResult>| match &mut left {
            Some(0) => Action::Exit,
            Some(n) => {
                *n -= 1;
                Action::Syscall(SyscallRequest::Stat { path: path.clone() })
            }
            None => Action::Syscall(SyscallRequest::Stat { path: path.clone() }),
        },
    )
}

/// A miniature uniprocessor attack round: the victim computes past its
/// 100 ms slice, so it is preempted, then creates a file and exits, while
/// the attacker spins `stat` on the same CPU (forever unless `spins`
/// bounds it). Background activity is on unless `quiet`. Returns the
/// kernel, the victim and the attacker.
fn preempted_uni_round(quiet: bool, spins: Option<usize>) -> (Kernel, Pid, Pid) {
    let spec = MachineSpec::uniprocessor();
    let mut k = Kernel::new(if quiet { spec.quiet() } else { spec }, 11);
    k.vfs_mut().mkdir("/d", root_meta()).unwrap();
    k.vfs_mut().create_file("/d/f", root_meta()).unwrap();
    let (victim, _) = Script::new(vec![
        Action::Compute(SimDuration::from_millis(150)),
        Action::Syscall(SyscallRequest::OpenCreate {
            path: "/d/g".into(),
        }),
    ]);
    let v = k.spawn("victim", Uid::ROOT, Gid::ROOT, true, Box::new(victim));
    let a = k.spawn("attacker", Uid(1), Gid(1), true, stat_spinner(spins));
    (k, v, a)
}

/// Runs `run_until` with `stop` wrapped in a call counter. Returns the
/// outcome, the number of `stop` calls and the events processed.
fn counted_run(
    k: &mut Kernel,
    mut stop: impl FnMut(&Kernel) -> bool,
    max_time: SimTime,
) -> (RunOutcome, u64, u64) {
    let before = k.events_processed();
    let mut calls = 0;
    let outcome = k.run_until(
        |k| {
            calls += 1;
            stop(k)
        },
        max_time,
    );
    (outcome, calls, k.events_processed() - before)
}

/// `stop` is checked exactly once before every event and once more before
/// `run_until` returns, whichever way it returns.
#[test]
fn run_until_checks_stop_once_before_every_event() {
    let (mut k, v, a) = preempted_uni_round(false, None);
    let (outcome, calls, events) = counted_run(
        &mut k,
        |k| k.state_of(v) == ProcState::Exited,
        SimTime::from_secs(1),
    );
    assert_eq!(outcome, RunOutcome::StopConditionMet);
    assert!(k
        .trace()
        .iter()
        .any(|r| matches!(r.event, crate::event::OsEvent::Preempt { pid, .. } if pid == v)));
    assert!(events > 10_000, "the attacker spun: {events} events");
    assert_eq!(calls, events + 1, "stop met");

    // The attacker spins through a grace period and never exits.
    let grace = k.now() + SimDuration::from_millis(2);
    let (outcome, calls, events) =
        counted_run(&mut k, |k| k.state_of(a) == ProcState::Exited, grace);
    assert_eq!(outcome, RunOutcome::TimedOut);
    assert_eq!(k.now(), grace);
    assert!(events > 100, "the attacker spun: {events} events");
    assert_eq!(calls, events + 1, "timed out");

    // With a bounded spin and no background activity the queue drains.
    let (mut k, ..) = preempted_uni_round(true, Some(2_000));
    let (outcome, calls, events) = counted_run(&mut k, |_| false, SimTime::from_secs(10));
    assert_eq!(outcome, RunOutcome::Quiescent);
    assert_eq!(calls, events + 1, "quiescent");
}

/// A stop that turns true in the middle of the attacker's spin leaves the
/// kernel at the instant and trace length pinned here, which were recorded
/// while every phase end still went through the event queue.
#[test]
fn a_stop_met_mid_spin_leaves_the_pinned_state() {
    for (n, now_ns, trace_len) in [(10_000, 134_592_276, 10_005), (20_001, 165_474_203, 20_006)] {
        let (mut k, v, _) = preempted_uni_round(false, None);
        let outcome = k.run_until(|k| k.events_processed() >= n, SimTime::from_secs(1));
        assert_eq!(outcome, RunOutcome::StopConditionMet);
        assert_eq!(k.state_of(v), ProcState::Ready, "victim preempted");
        assert_eq!(k.events_processed(), n);
        assert_eq!(
            (k.now(), k.trace().len()),
            (SimTime::from_nanos(now_ns), trace_len),
            "stop at {n} events"
        );
    }
}

/// A CPU phase that ends exactly at `max_time` is processed; one that ends
/// 1 ns after it stays pending, and the run times out at `max_time`.
#[test]
fn a_phase_ending_at_max_time_is_processed() {
    let run = |max_time: SimTime| {
        let mut k = quiet_kernel(MachineSpec::smp_xeon());
        let (s, _) = Script::new(vec![
            Action::Compute(SimDuration::from_micros(10)),
            Action::Compute(SimDuration::from_micros(20)),
            Action::Compute(SimDuration::from_millis(1)),
        ]);
        k.spawn("p", Uid(1), Gid(1), true, Box::new(s));
        let outcome = k.run_until(|_| false, max_time);
        (outcome, k.now(), k.events_processed())
    };
    let end = SimTime::from_micros(30);
    assert_eq!(run(end), (RunOutcome::TimedOut, end, 2));
    let before = SimTime::from_nanos(end.as_nanos() - 1);
    assert_eq!(run(before), (RunOutcome::TimedOut, before, 1));
}

/// A CPU phase that ends at the same nanosecond as another process's
/// pending wake-up comes after it: events at one instant keep their push
/// order.
#[test]
fn a_phase_tied_with_a_pending_wake_runs_after_it() {
    let mut k = quiet_kernel(MachineSpec::smp_xeon());
    // The sleeper enters at 0, blocks at 1 us and wakes at 51 us.
    let (sleeper, _) = Script::new(vec![Action::Syscall(SyscallRequest::Sleep {
        duration: SimDuration::from_micros(50),
    })]);
    // The worker's second phase starts at 20 us and ends at 51 us.
    let (worker, _) = Script::new(vec![
        Action::Compute(SimDuration::from_micros(20)),
        Action::Compute(SimDuration::from_micros(31)),
        Action::Marker("tie"),
    ]);
    let ps = k.spawn("sleeper", Uid(1), Gid(1), true, Box::new(sleeper));
    let pw = k.spawn("worker", Uid(2), Gid(2), true, Box::new(worker));
    k.run_until_all_exit(&[ps, pw], SimTime::from_millis(10));
    let at = |want: fn(&crate::event::OsEvent) -> bool| {
        k.trace()
            .iter()
            .enumerate()
            .find(|(_, r)| want(&r.event))
            .map(|(i, r)| (i, r.at))
            .expect("event traced")
    };
    let (wake, wake_at) = at(|e| matches!(e, crate::event::OsEvent::Wake { .. }));
    let (tie, tie_at) = at(|e| matches!(e, crate::event::OsEvent::Marker { label: "tie", .. }));
    assert_eq!(wake_at, SimTime::from_micros(51));
    assert_eq!(tie_at, wake_at, "the two events share an instant");
    assert!(wake < tie, "the earlier-pushed wake-up comes first");
}

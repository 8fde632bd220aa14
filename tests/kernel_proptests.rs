//! Property tests over the simulated kernel itself: arbitrary programs on
//! arbitrary machine shapes must never wedge the scheduler, leak
//! semaphores, or corrupt the filesystem, and `run_until` must check its
//! stop predicate once before every event.

use proptest::prelude::*;
use tocttou::os::prelude::*;
use tocttou::sim::time::{SimDuration, SimTime};

/// One scripted step of a random process.
#[derive(Debug, Clone)]
enum Step {
    Compute(u32),
    Stat(u8),
    Create(u8),
    Unlink(u8),
    Symlink(u8, u8),
    Rename(u8, u8),
    Chmod(u8),
    Chown(u8),
    Sleep(u32),
    Marker,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u32..5_000).prop_map(Step::Compute),
        any::<u8>().prop_map(Step::Stat),
        any::<u8>().prop_map(Step::Create),
        any::<u8>().prop_map(Step::Unlink),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Symlink(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Rename(a, b)),
        any::<u8>().prop_map(Step::Chmod),
        any::<u8>().prop_map(Step::Chown),
        (0u32..2_000).prop_map(Step::Sleep),
        Just(Step::Marker),
    ]
}

fn path(i: u8) -> std::sync::Arc<str> {
    format!("/d{}/f{}", i % 2, i % 8).into()
}

struct Scripted {
    steps: Vec<Step>,
    at: usize,
}

impl ProcessLogic for Scripted {
    fn next_action(&mut self, _ctx: &LogicCtx, _last: Option<&SyscallResult>) -> Action {
        let Some(step) = self.steps.get(self.at).cloned() else {
            return Action::Exit;
        };
        self.at += 1;
        match step {
            Step::Compute(us) => Action::Compute(SimDuration::from_micros(us as u64)),
            Step::Stat(a) => Action::Syscall(SyscallRequest::Stat { path: path(a) }),
            Step::Create(a) => Action::Syscall(SyscallRequest::OpenCreate { path: path(a) }),
            Step::Unlink(a) => Action::Syscall(SyscallRequest::Unlink { path: path(a) }),
            Step::Symlink(a, b) => Action::Syscall(SyscallRequest::Symlink {
                target: path(a),
                linkpath: path(b),
            }),
            Step::Rename(a, b) => Action::Syscall(SyscallRequest::Rename {
                from: path(a),
                to: path(b),
            }),
            Step::Chmod(a) => Action::Syscall(SyscallRequest::Chmod {
                path: path(a),
                mode: 0o640,
            }),
            Step::Chown(a) => Action::Syscall(SyscallRequest::Chown {
                path: path(a),
                uid: Uid(7),
                gid: Gid(7),
            }),
            Step::Sleep(us) => Action::Syscall(SyscallRequest::Sleep {
                duration: SimDuration::from_micros(us as u64),
            }),
            Step::Marker => Action::Marker("probe"),
        }
    }
}

fn machine(cpus: usize, bg: bool) -> MachineSpec {
    let mut spec = MachineSpec::smp_xeon();
    spec.cpus = cpus.clamp(1, 8);
    if !bg {
        spec = spec.quiet();
    }
    spec
}

/// Boots a kernel running each of `programs` as its own process (process
/// `i` runs as uid/gid `i`), with `/d0` and `/d1` created.
fn boot(programs: &[Vec<Step>], cpus: usize, bg: bool, seed: u64) -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(machine(cpus, bg), seed);
    let meta = InodeMeta {
        uid: Uid::ROOT,
        gid: Gid::ROOT,
        mode: 0o755,
    };
    kernel.vfs_mut().mkdir("/d0", meta).unwrap();
    kernel.vfs_mut().mkdir("/d1", meta).unwrap();
    let pids = programs
        .iter()
        .enumerate()
        .map(|(i, steps)| {
            kernel.spawn(
                format!("p{i}"),
                Uid(i as u32),
                Gid(i as u32),
                i % 2 == 0,
                Box::new(Scripted {
                    steps: steps.clone(),
                    at: 0,
                }),
            )
        })
        .collect();
    (kernel, pids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mix of scripted processes runs to completion: all processes
    /// exit, no semaphore stays held, the VFS stays consistent, and the
    /// trace stays chronological.
    #[test]
    fn kernel_survives_random_programs(
        programs in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..40),
            1..5,
        ),
        cpus in 1usize..5,
        bg in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (mut kernel, pids) = boot(&programs, cpus, bg, seed);
        let outcome = kernel.run_until_all_exit(&pids, SimTime::from_secs(10));
        prop_assert_eq!(outcome, RunOutcome::StopConditionMet, "no wedge");
        // No leaked semaphores.
        for &pid in &pids {
            prop_assert!(kernel.sems().held_by(pid).is_empty());
        }
        // Filesystem invariants hold after arbitrary interleavings.
        kernel.vfs().check_invariants().map_err(TestCaseError::fail)?;
        // Trace is chronological.
        let mut last = 0u64;
        for r in kernel.trace().iter() {
            prop_assert!(r.at.as_nanos() >= last);
            last = r.at.as_nanos();
        }
    }

    /// `run_until` checks `stop` once before every event and once more
    /// before it returns, and a stop that turns true after `n` events
    /// leaves the kernel in the state a never-true stop saw at its `n`th
    /// check: same instant, same trace length. No check sees time past
    /// `max_time`.
    #[test]
    fn run_until_checks_stop_once_before_every_event(
        programs in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..40),
            1..5,
        ),
        cpus in 1usize..5,
        bg in any::<bool>(),
        seed in any::<u64>(),
        max_us in 1u64..20_000,
        cut in any::<u64>(),
    ) {
        let max_time = SimTime::from_micros(max_us);
        let (mut kernel, _) = boot(&programs, cpus, bg, seed);
        let mut seen = Vec::new();
        let (outcome, calls, events) = counted_run(
            &mut kernel,
            |k| {
                seen.push((k.events_processed(), k.now(), k.trace().len()));
                false
            },
            max_time,
        );
        prop_assert!(outcome != RunOutcome::StopConditionMet);
        prop_assert_eq!(calls, events + 1);
        prop_assert!(seen.iter().enumerate().all(|(i, s)| s.0 == i as u64));
        prop_assert!(seen.iter().all(|s| s.1 <= max_time), "no check past max_time");
        let (n, now, len) = seen[(cut % seen.len() as u64) as usize];
        let (mut kernel, _) = boot(&programs, cpus, bg, seed);
        let (outcome, calls, events) =
            counted_run(&mut kernel, |k| k.events_processed() >= n, max_time);
        prop_assert_eq!(outcome, RunOutcome::StopConditionMet);
        prop_assert_eq!((calls, events), (n + 1, n));
        prop_assert_eq!((kernel.now(), kernel.trace().len()), (now, len));
    }

    /// Determinism holds for arbitrary programs, not just the curated
    /// scenarios: same (machine, seed, scripts) → same final time and
    /// event count.
    #[test]
    fn kernel_is_deterministic_for_random_programs(
        steps in proptest::collection::vec(step_strategy(), 0..30),
        seed in any::<u64>(),
    ) {
        let run = |steps: Vec<Step>| {
            let mut kernel = Kernel::new(machine(2, true), seed);
            let meta = InodeMeta { uid: Uid::ROOT, gid: Gid::ROOT, mode: 0o755 };
            kernel.vfs_mut().mkdir("/d0", meta).unwrap();
            kernel.vfs_mut().mkdir("/d1", meta).unwrap();
            let pid = kernel.spawn("p", Uid(1), Gid(1), true, Box::new(Scripted { steps, at: 0 }));
            kernel.run_until_exit(pid, SimTime::from_secs(10));
            (kernel.now(), kernel.events_processed(), kernel.trace().len())
        };
        prop_assert_eq!(run(steps.clone()), run(steps));
    }
}

/// Runs `run_until` with `stop` wrapped in a call counter. Returns the
/// outcome, the number of `stop` calls and the events processed.
fn counted_run(
    kernel: &mut Kernel,
    mut stop: impl FnMut(&Kernel) -> bool,
    max_time: SimTime,
) -> (RunOutcome, u64, u64) {
    let before = kernel.events_processed();
    let mut calls = 0;
    let outcome = kernel.run_until(
        |k| {
            calls += 1;
            stop(k)
        },
        max_time,
    );
    (outcome, calls, kernel.events_processed() - before)
}

/// A preempted uniprocessor vi round: its save's slice phase lands in the
/// last 0.3% of the 100 ms laxity window, so the victim is preempted
/// before its window opens and the attacker spins `stat` for the rest of
/// the slice.
fn preempted_vi_uni_round() -> tocttou::workloads::RoundHandles {
    let base = tocttou::workloads::Scenario::vi_uniprocessor(2048);
    let (lo, hi) = base.laxity_window_ns().expect("vi-uni has a laxity window");
    let late = base
        .restrict_laxity(hi - (hi - lo) / 300, hi)
        .expect("a sub-range of the window");
    late.build(3, true)
}

/// On a preempted vi-uni round, `stop` is checked exactly once before
/// every event and once more before `run_until` returns, both for the
/// victim's run (stop met) and for the attacker's grace period (timed
/// out).
#[test]
fn vi_uni_round_checks_stop_once_before_every_event() {
    let mut h = preempted_vi_uni_round();
    let victim = h.victim;
    let (outcome, calls, events) = counted_run(
        &mut h.kernel,
        |k| k.state_of(victim) == ProcState::Exited,
        SimTime::from_secs(1),
    );
    assert_eq!(outcome, RunOutcome::StopConditionMet);
    assert!(h
        .kernel
        .trace()
        .iter()
        .any(|r| matches!(r.event, OsEvent::Preempt { pid, .. } if pid == victim)));
    assert!(events > 5_000, "the attacker spun: {events} events");
    assert_eq!(calls, events + 1, "stop met");

    let grace = h.kernel.now() + SimDuration::from_millis(2);
    let attackers = h.attackers.clone();
    let (outcome, calls, events) = counted_run(
        &mut h.kernel,
        |k| {
            attackers
                .iter()
                .all(|&p| k.state_of(p) == ProcState::Exited)
        },
        grace,
    );
    assert_eq!(outcome, RunOutcome::TimedOut);
    assert_eq!(h.kernel.now(), grace);
    assert!(events > 100, "the attacker spun: {events} events");
    assert_eq!(calls, events + 1, "timed out");
}

/// A stop that turns true in the middle of the attacker's spin on a
/// preempted vi-uni round leaves the kernel at the instant and trace
/// length pinned here, which were recorded while every phase end still
/// went through the event queue.
#[test]
fn vi_uni_stop_met_mid_spin_leaves_the_pinned_state() {
    for (n, now_ns, trace_len) in [
        (2_000u64, 124_680_056u64, 1_516usize),
        (5_001, 156_818_346, 3_772),
    ] {
        let mut h = preempted_vi_uni_round();
        let outcome = h
            .kernel
            .run_until(|k| k.events_processed() >= n, SimTime::from_secs(1));
        assert_eq!(outcome, RunOutcome::StopConditionMet);
        assert_eq!(
            h.kernel.state_of(h.victim),
            ProcState::Ready,
            "victim preempted"
        );
        assert_eq!(
            (h.kernel.now(), h.kernel.trace().len()),
            (SimTime::from_nanos(now_ns), trace_len),
            "stop at {n} events"
        );
    }
}

//! Property tests for the passive race detector's no-false-positive
//! guarantees: without a cross-process namespace mutation there is nothing
//! to detect, no matter what valid check/use schedule a process runs.
//!
//! * a **single process** may check, mutate and use the same names in any
//!   order — its own mutations never interpose on its own windows;
//! * **many processes** on disjoint name sets may interleave arbitrarily
//!   (any CPU count, background activity on or off) — no window ever sees
//!   a foreign mutation.

use proptest::prelude::*;
use tocttou::os::prelude::*;
use tocttou::sim::time::{SimDuration, SimTime};

/// One scripted step of a random process. Covers every detector hook:
/// checks (`stat`/`lstat`/`access`/`creat`/`open`/`rename`), mutations
/// (`creat`/`unlink`/`symlink`/`rename`) and uses (`open`/`chmod`/`chown`).
#[derive(Debug, Clone)]
enum Step {
    Compute(u32),
    Stat(u8),
    Lstat(u8),
    Access(u8),
    Create(u8),
    Open(u8),
    Unlink(u8),
    Symlink(u8, u8),
    Rename(u8, u8),
    Chmod(u8),
    Chown(u8),
    Readlink(u8),
    Sleep(u32),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u32..3_000).prop_map(Step::Compute),
        any::<u8>().prop_map(Step::Stat),
        any::<u8>().prop_map(Step::Lstat),
        any::<u8>().prop_map(Step::Access),
        any::<u8>().prop_map(Step::Create),
        any::<u8>().prop_map(Step::Open),
        any::<u8>().prop_map(Step::Unlink),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Symlink(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Rename(a, b)),
        any::<u8>().prop_map(Step::Chmod),
        any::<u8>().prop_map(Step::Chown),
        any::<u8>().prop_map(Step::Readlink),
        (0u32..1_500).prop_map(Step::Sleep),
    ]
}

/// A process's private namespace: process `owner` only ever names files
/// under `/p{owner}`, so schedules of different processes are disjoint.
fn own_path(owner: usize, i: u8) -> std::sync::Arc<str> {
    format!("/p{owner}/f{}", i % 6).into()
}

struct Scripted {
    owner: usize,
    steps: Vec<Step>,
    at: usize,
}

impl ProcessLogic for Scripted {
    fn next_action(&mut self, _ctx: &LogicCtx, _last: Option<&SyscallResult>) -> Action {
        let Some(step) = self.steps.get(self.at).cloned() else {
            return Action::Exit;
        };
        self.at += 1;
        let p = |i| own_path(self.owner, i);
        match step {
            Step::Compute(us) => Action::Compute(SimDuration::from_micros(us as u64)),
            Step::Stat(a) => Action::Syscall(SyscallRequest::Stat { path: p(a) }),
            Step::Lstat(a) => Action::Syscall(SyscallRequest::Lstat { path: p(a) }),
            Step::Access(a) => Action::Syscall(SyscallRequest::Access { path: p(a) }),
            Step::Create(a) => Action::Syscall(SyscallRequest::OpenCreate { path: p(a) }),
            Step::Open(a) => Action::Syscall(SyscallRequest::Open { path: p(a) }),
            Step::Unlink(a) => Action::Syscall(SyscallRequest::Unlink { path: p(a) }),
            Step::Symlink(a, b) => Action::Syscall(SyscallRequest::Symlink {
                target: p(a),
                linkpath: p(b),
            }),
            Step::Rename(a, b) => Action::Syscall(SyscallRequest::Rename {
                from: p(a),
                to: p(b),
            }),
            Step::Chmod(a) => Action::Syscall(SyscallRequest::Chmod {
                path: p(a),
                mode: 0o640,
            }),
            Step::Chown(a) => Action::Syscall(SyscallRequest::Chown {
                path: p(a),
                uid: Uid(7),
                gid: Gid(7),
            }),
            Step::Readlink(a) => Action::Syscall(SyscallRequest::Readlink { path: p(a) }),
            Step::Sleep(us) => Action::Syscall(SyscallRequest::Sleep {
                duration: SimDuration::from_micros(us as u64),
            }),
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

fn boot(cpus: usize, bg: bool, seed: u64, dirs: usize) -> Kernel {
    let mut kernel = Kernel::new(machine(cpus, bg), seed);
    assert!(kernel.machine().detect, "detector must be armed by default");
    let meta = InodeMeta {
        uid: Uid::ROOT,
        gid: Gid::ROOT,
        mode: 0o755,
    };
    for d in 0..dirs {
        kernel.vfs_mut().mkdir(&format!("/p{d}"), meta).unwrap();
    }
    kernel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A benign single process never races itself: any schedule of checks,
    /// mutations and uses over shared names yields zero detection events.
    #[test]
    fn single_process_never_triggers_the_detector(
        steps in proptest::collection::vec(step_strategy(), 0..50),
        cpus in 1usize..5,
        bg in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut kernel = boot(cpus, bg, seed, 1);
        let pid = kernel.spawn(
            "solo",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(Scripted { owner: 0, steps, at: 0 }),
        );
        let outcome = kernel.run_until_exit(pid, SimTime::from_secs(10));
        prop_assert_eq!(outcome, RunOutcome::StopConditionMet, "no wedge");
        prop_assert!(
            kernel.detections().is_empty(),
            "self-interference flagged: {:?}",
            kernel.detections().iter().map(|r| r.event.to_string()).collect::<Vec<_>>()
        );
    }

    /// Attacker-free concurrency is invisible: processes confined to
    /// disjoint name sets can interleave on any machine shape without a
    /// single cross-process namespace mutation, so the detector must stay
    /// silent.
    #[test]
    fn disjoint_multiprocess_runs_never_trigger_the_detector(
        programs in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..35),
            2..5,
        ),
        cpus in 1usize..5,
        bg in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut kernel = boot(cpus, bg, seed, programs.len());
        let pids: Vec<Pid> = programs
            .into_iter()
            .enumerate()
            .map(|(i, steps)| {
                kernel.spawn(
                    format!("p{i}"),
                    Uid(i as u32),
                    Gid(i as u32),
                    i % 2 == 0,
                    Box::new(Scripted { owner: i, steps, at: 0 }),
                )
            })
            .collect();
        let outcome = kernel.run_until_all_exit(&pids, SimTime::from_secs(10));
        prop_assert_eq!(outcome, RunOutcome::StopConditionMet, "no wedge");
        prop_assert!(
            kernel.detections().is_empty(),
            "attacker-free run flagged: {:?}",
            kernel.detections().iter().map(|r| r.event.to_string()).collect::<Vec<_>>()
        );
    }
}

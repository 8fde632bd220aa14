//! Integration coverage for the extension systems, through the facade:
//! the EDGI defense, pathname mazes, the always-suspended rpm victim and
//! the sendmail integrity attack.

use std::sync::Arc;
use tocttou::core::stats::SuccessCounter;
use tocttou::os::defense::DefensePolicy;
use tocttou::os::prelude::*;
use tocttou::sim::time::SimTime;
use tocttou::workloads::maze::{run_maze_round, vi_uniprocessor_maze};
use tocttou::workloads::rpm::{RpmConfig, RpmInstall};
use tocttou::workloads::Scenario;

/// Defense composes with every scenario family, including the pipelined
/// attacker, and leaves benign outcomes untouched.
#[test]
fn defense_composes_with_all_attacks() {
    for scenario in [
        Scenario::vi_smp(50 * 1024),
        Scenario::gedit_smp(2048),
        Scenario::pipelined_attack(50 * 1024),
    ] {
        let guarded = scenario.clone().with_defense(DefensePolicy::Edgi);
        assert!(guarded.name.ends_with("+edgi"));
        let mut undefended = SuccessCounter::new();
        let mut defended = SuccessCounter::new();
        for seed in 0..20 {
            undefended.record(scenario.run_round(seed).success);
            let round = guarded.run_round(seed);
            defended.record(round.success);
            assert!(round.victim_exited, "{}: victim completes", guarded.name);
        }
        assert!(undefended.rate() > 0.5, "{}: attack works", scenario.name);
        assert_eq!(defended.successes(), 0, "{}: defense holds", guarded.name);
    }
}

/// The defense counts its denials and they appear only in attacked rounds.
#[test]
fn defense_denials_only_under_attack() {
    let scenario = Scenario::vi_smp(50 * 1024).with_defense(DefensePolicy::Edgi);
    let (result, handles) = scenario.run_traced(3);
    assert!(!result.success);
    assert!(handles.kernel.defense().denials() >= 1);

    // A benign save on a defended kernel: zero denials.
    let mut kernel = Kernel::new(MachineSpec::smp_xeon().quiet(), 5);
    kernel.set_defense(DefensePolicy::Edgi);
    let meta = InodeMeta {
        uid: Uid::ROOT,
        gid: Gid::ROOT,
        mode: 0o755,
    };
    kernel.vfs_mut().mkdir("/d", meta).unwrap();
    kernel.vfs_mut().create_file("/d/f", meta).unwrap();
    let mut steps = 0;
    let pid = kernel.spawn(
        "benign",
        Uid::ROOT,
        Gid::ROOT,
        true,
        Box::new(move |_: &LogicCtx, _: Option<&SyscallResult>| {
            steps += 1;
            match steps {
                1 => Action::Syscall(SyscallRequest::Stat {
                    path: "/d/f".into(),
                }),
                2 => Action::Syscall(SyscallRequest::Chown {
                    path: "/d/f".into(),
                    uid: Uid(5),
                    gid: Gid(5),
                }),
                _ => Action::Exit,
            }
        }),
    );
    kernel.run_until_exit(pid, SimTime::from_millis(10));
    assert_eq!(kernel.defense().denials(), 0);
    assert_eq!(kernel.vfs().stat("/d/f").unwrap().uid, Uid(5));
}

/// Maze amplification and the defense interact sanely: the maze makes the
/// uniprocessor attack succeed more, the defense still zeroes it.
#[test]
fn maze_and_defense() {
    let deep = vi_uniprocessor_maze(100 * 1024, 800, 5.0);
    let mut amplified = SuccessCounter::new();
    for seed in 0..40 {
        amplified.record(run_maze_round(&deep, seed).success);
    }
    assert!(amplified.rate() > 0.04, "maze amplifies: {amplified}");

    let guarded = deep.with_defense(DefensePolicy::Edgi);
    for seed in 0..20 {
        assert!(
            !run_maze_round(&guarded, seed).success,
            "defense holds in the maze"
        );
    }
}

/// Section 3.2's bound end to end through the facade: the rpm-like victim
/// (window contains blocking I/O) loses every round on one CPU.
#[test]
fn rpm_always_suspended_bound() {
    use tocttou::workloads::dsl::{library, DslAttacker};
    let mut wins = 0;
    for seed in 0..10 {
        let mut k = Kernel::new(MachineSpec::uniprocessor().quiet(), seed);
        let root = InodeMeta {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            mode: 0o755,
        };
        let user = InodeMeta {
            uid: Uid(1000),
            gid: Gid(1000),
            mode: 0o755,
        };
        k.vfs_mut().mkdir("/etc", root).unwrap();
        k.vfs_mut().create_file("/etc/passwd", root).unwrap();
        k.vfs_mut().mkdir("/var", root).unwrap();
        k.vfs_mut().mkdir("/var/tmp", user).unwrap();
        let vpid = k.spawn(
            "rpm",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(RpmInstall::new(
                RpmConfig::new("/var/tmp/helper", 4096),
                seed,
            )),
        );
        k.spawn(
            "attacker",
            Uid(1000),
            Gid(1000),
            false,
            Box::new(DslAttacker::new(
                Arc::new(library::attacker_v1(
                    &"/var/tmp/helper".into(),
                    &"/etc/passwd".into(),
                )),
                seed,
            )),
        );
        k.run_until_exit(vpid, SimTime::from_secs(1));
        if k.vfs().stat("/etc/passwd").unwrap().uid == Uid(1000) {
            wins += 1;
        }
    }
    assert_eq!(wins, 10, "P(suspended) = 1 ⇒ certain success even on 1 CPU");
}

/// The defense also stops the rpm attack (the creat-check guard fires when
/// the attacker swaps the helper during the db sync).
#[test]
fn defense_stops_rpm_attack() {
    use tocttou::workloads::dsl::{library, DslAttacker};
    for seed in 0..10 {
        let mut k = Kernel::new(MachineSpec::uniprocessor().quiet(), seed);
        k.set_defense(DefensePolicy::Edgi);
        let root = InodeMeta {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            mode: 0o755,
        };
        let user = InodeMeta {
            uid: Uid(1000),
            gid: Gid(1000),
            mode: 0o755,
        };
        k.vfs_mut().mkdir("/etc", root).unwrap();
        k.vfs_mut().create_file("/etc/passwd", root).unwrap();
        k.vfs_mut().mkdir("/var", root).unwrap();
        k.vfs_mut().mkdir("/var/tmp", user).unwrap();
        let vpid = k.spawn(
            "rpm",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(RpmInstall::new(
                RpmConfig::new("/var/tmp/helper", 4096),
                seed,
            )),
        );
        k.spawn(
            "attacker",
            Uid(1000),
            Gid(1000),
            false,
            Box::new(DslAttacker::new(
                Arc::new(library::attacker_v1(
                    &"/var/tmp/helper".into(),
                    &"/etc/passwd".into(),
                )),
                seed,
            )),
        );
        k.run_until_exit(vpid, SimTime::from_secs(1));
        assert_eq!(
            k.vfs().stat("/etc/passwd").unwrap().uid,
            Uid::ROOT,
            "seed {seed}: defense must hold"
        );
        assert!(k.defense().denials() >= 1);
    }
}

//! Integration coverage for the extension systems, through the facade:
//! the EDGI defense, pathname mazes, the always-suspended rpm victim and
//! the sendmail integrity attack.

use std::sync::Arc;
use tocttou::core::stats::SuccessCounter;
use tocttou::experiments::{run_mc, McConfig};
use tocttou::os::defense::DefensePolicy;
use tocttou::os::prelude::*;
use tocttou::sim::time::SimTime;
use tocttou::workloads::dsl::{library, DslAttacker, DslVictim, Step};
use tocttou::workloads::maze::vi_uniprocessor_maze;
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
        amplified.record(deep.run_round(seed).success);
    }
    assert!(amplified.rate() > 0.04, "maze amplifies: {amplified}");

    let guarded = deep.with_defense(DefensePolicy::Edgi);
    for seed in 0..20 {
        assert!(
            !guarded.run_round(seed).success,
            "defense holds in the maze"
        );
    }
}

/// A maze scenario runs through the Monte-Carlo engine like any other:
/// its template and warm checkpoint carry the directory chain, so pooled
/// rounds at any worker count, warm or cold, tally the same successes as
/// plain rounds one after another.
#[test]
fn maze_rounds_run_through_run_mc() {
    let maze = vi_uniprocessor_maze(100 * 1024, 100, 5.0);
    let base_seed = 0x6d61_7a65;
    let serial = (0..60)
        .filter(|&i| maze.run_round(base_seed + i).success)
        .count() as u64;
    assert!(
        serial > 0,
        "the maze must give the tally something to match"
    );
    for jobs in [1, 2] {
        for cold in [false, true] {
            let cfg = McConfig {
                rounds: 60,
                base_seed,
                jobs,
                cold,
                ..McConfig::default()
            };
            let mc = run_mc(&maze, &cfg);
            assert_eq!(mc.rounds, 60);
            assert_eq!(mc.successes, serial, "jobs {jobs} cold {cold}");
        }
    }
}

/// rpm installing a 4 KiB helper at `/var/tmp/helper`.
fn rpm_install() -> Arc<[Step]> {
    library::rpm_install(&"/var/tmp/helper".into(), 4096).into()
}

/// Section 3.2's bound end to end through the facade: the rpm-like victim
/// (window contains blocking I/O) loses every round on one CPU.
#[test]
fn rpm_always_suspended_bound() {
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
            Box::new(DslVictim::new(rpm_install(), seed)),
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
            Box::new(DslVictim::new(rpm_install(), seed)),
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

const MAILBOX: &str = "/var/mail/attacker";

/// The mailbox owner flipping its mailbox between a symlink to
/// `/etc/passwd` and a regular file, forever. No DSL attacker profile
/// loops without a trigger, so this one is written by hand.
struct Flipper {
    phase: u8,
}

impl ProcessLogic for Flipper {
    fn next_action(&mut self, _ctx: &LogicCtx, _last: Option<&SyscallResult>) -> Action {
        let mailbox: Arc<str> = MAILBOX.into();
        let action = match self.phase % 4 {
            0 | 2 => Action::Syscall(SyscallRequest::Unlink { path: mailbox }),
            1 => Action::Syscall(SyscallRequest::Symlink {
                target: "/etc/passwd".into(),
                linkpath: mailbox,
            }),
            _ => Action::Syscall(SyscallRequest::OpenCreate { path: mailbox }),
        };
        self.phase = self.phase.wrapping_add(1);
        action
    }
}

/// The Section 1 story end to end: on the SMP, an attacker racing the
/// `<lstat, open>` window gets its forged entry appended to /etc/passwd.
#[test]
fn sendmail_smp_race_appends_to_passwd() {
    let delivery: Arc<[Step]> = library::sendmail_deliver(&MAILBOX.into()).into();
    let mut wins = SuccessCounter::new();
    for seed in 0..25 {
        let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), seed);
        let meta = |uid, mode| InodeMeta {
            uid: Uid(uid),
            gid: Gid(uid),
            mode,
        };
        k.vfs_mut().mkdir("/etc", meta(0, 0o755)).unwrap();
        let pw = k
            .vfs_mut()
            .create_file("/etc/passwd", meta(0, 0o644))
            .unwrap();
        k.vfs_mut().append(pw, 1000).unwrap();
        k.vfs_mut().mkdir("/var", meta(0, 0o755)).unwrap();
        k.vfs_mut().mkdir("/var/mail", meta(1000, 0o755)).unwrap();
        let mb = k.vfs_mut().create_file(MAILBOX, meta(1000, 0o600)).unwrap();
        k.vfs_mut().append(mb, 100).unwrap();
        let victim = Box::new(DslVictim::new(delivery.clone(), seed));
        let vpid = k.spawn("sendmail", Uid::ROOT, Gid::ROOT, true, victim);
        // The mailbox is the attacker's own (owner uid 1000), so the
        // classic attack flips the link continuously: swap in a symlink,
        // swap back. If the open lands while the name is a symlink, the
        // append goes to /etc/passwd.
        let flipper = Box::new(Flipper { phase: 0 });
        k.spawn("flipper", Uid(1000), Gid(1000), true, flipper);
        k.run_until_exit(vpid, SimTime::from_millis(100));
        wins.record(k.vfs().stat("/etc/passwd").unwrap().size > 1000);
    }
    // The flip race lands a meaningful fraction of deliveries (the link is
    // present ~25 % of the flip cycle; check-passing rounds land the open
    // uniformly over the cycle).
    assert!(
        wins.rate() >= 0.12,
        "some deliveries must append to passwd: {wins}"
    );
}

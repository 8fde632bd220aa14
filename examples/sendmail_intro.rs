//! The paper's opening story, end to end: sendmail appends an attacker's
//! forged entry to /etc/passwd.
//!
//! ```text
//! cargo run --release --example sendmail_intro
//! ```

use tocttou::core::stats::SuccessCounter;
use tocttou::os::prelude::*;
use tocttou::sim::time::SimTime;
use tocttou::workloads::dsl::{library, DslVictim};

fn setup(seed: u64) -> Kernel {
    let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), seed);
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
    let pw = k
        .vfs_mut()
        .create_file(
            "/etc/passwd",
            InodeMeta {
                uid: Uid::ROOT,
                gid: Gid::ROOT,
                mode: 0o644,
            },
        )
        .unwrap();
    k.vfs_mut().append(pw, 1000).unwrap();
    k.vfs_mut().mkdir("/var", root).unwrap();
    k.vfs_mut().mkdir("/var/mail", user).unwrap();
    let mb = k
        .vfs_mut()
        .create_file(
            "/var/mail/attacker",
            InodeMeta {
                uid: Uid(1000),
                gid: Gid(1000),
                mode: 0o600,
            },
        )
        .unwrap();
    k.vfs_mut().append(mb, 100).unwrap();
    k
}

/// The mailbox owner flips its mailbox between a regular file and a symlink
/// to /etc/passwd, hoping a delivery's `<lstat, open>` window lands on the
/// symlink phase. It loops forever with no trigger, which no DSL attacker
/// profile describes, so it stays a hand-written process.
struct Flipper {
    phase: u8,
}

impl ProcessLogic for Flipper {
    fn next_action(&mut self, _ctx: &LogicCtx, _last: Option<&SyscallResult>) -> Action {
        let mailbox: std::sync::Arc<str> = "/var/mail/attacker".into();
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

fn main() {
    println!(
        "sendmail's check: the mailbox must not be a symlink. The check is\n\
         correct — a pre-planted link is refused — but it races the append.\n"
    );
    let deliveries = 300u64;
    let mut outcomes = SuccessCounter::new();
    let mut refused = 0;
    let delivery: std::sync::Arc<[_]> =
        library::sendmail_deliver(&"/var/mail/attacker".into()).into();
    for seed in 0..deliveries {
        let mut k = setup(seed);
        let vpid = k.spawn(
            "sendmail",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(DslVictim::new(delivery.clone(), seed)),
        );
        k.spawn(
            "mailbox-owner",
            Uid(1000),
            Gid(1000),
            true,
            Box::new(Flipper { phase: 0 }),
        );
        k.run_until_exit(vpid, SimTime::from_millis(100));
        let grew = k.vfs().stat("/etc/passwd").unwrap().size > 1000;
        outcomes.record(grew);
        if !grew
            && k.vfs()
                .stat("/var/mail/attacker")
                .map(|m| m.size)
                .unwrap_or(100)
                == 100
        {
            refused += 1;
        }
    }
    println!("over {deliveries} deliveries on the SMP: {outcomes} forged appends to /etc/passwd");
    println!("({refused} deliveries were refused or missed by the flip)");
    println!(
        "\nA forged line in /etc/passwd is a root account — the 30-year-old\n\
         attack the paper opens with, now practical because the attacker has\n\
         its own CPU to flip the link on."
    );
}

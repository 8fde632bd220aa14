//! An rpm-like victim: a vulnerability window that **contains blocking
//! I/O**.
//!
//! Section 3.2's upper-bound discussion singles out rpm (from the authors'
//! FAST '05 study) as a victim that is *always suspended* inside its window
//! — so a uniprocessor attacker reaches ~100 % success without any
//! multiprocessor help. The mechanism: rpm materializes a helper file, then
//! synchronously flushes its package database (blocking I/O) before acting
//! on the helper file by name.
//!
//! This victim reproduces that shape: `creat(helper)` → `write` →
//! **blocking database sync** → `chown(helper)`. The sync puts the victim
//! to sleep mid-window, handing the CPU to whoever is ready — on any number
//! of processors.

use std::sync::Arc;
use tocttou_os::ids::{Fd, Gid, Uid};
use tocttou_os::process::{Action, LogicCtx, ProcessLogic, SyscallRequest, SyscallResult};
use tocttou_sim::dist::DurationDist;
use tocttou_sim::rng::SimRng;
use tocttou_sim::time::SimDuration;

/// Configuration for an [`RpmInstall`] victim.
#[derive(Debug, Clone)]
pub struct RpmConfig {
    /// The helper/script file materialized during installation.
    pub helper: Arc<str>,
    /// Helper size in bytes.
    pub file_size: u64,
    /// The package's owner, applied by the final chown.
    pub owner: (Uid, Gid),
    /// How long the database sync blocks (I/O wait inside the window).
    pub db_sync: SimDuration,
    /// Idle time before the install starts.
    pub prologue: DurationDist,
    /// Computation between syscalls.
    pub inter_call_gap: SimDuration,
}

impl RpmConfig {
    /// Defaults modeled on a package-database flush of a few milliseconds.
    pub fn new(helper: impl Into<Arc<str>>, file_size: u64) -> Self {
        RpmConfig {
            helper: helper.into(),
            file_size,
            owner: (Uid(1000), Gid(1000)),
            db_sync: SimDuration::from_millis(5),
            prologue: DurationDist::uniform_us(0.0, 200.0),
            inter_call_gap: SimDuration::from_micros(10),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RpmState {
    Prologue,
    CreateHelper,
    Write,
    GapBeforeSync,
    DbSync,
    GapBeforeChown,
    Chown,
    Done,
}

/// The rpm-like victim program.
#[derive(Debug)]
pub struct RpmInstall {
    cfg: RpmConfig,
    state: RpmState,
    written: u64,
    fd: Option<Fd>,
    rng: SimRng,
}

impl RpmInstall {
    /// Creates the victim; `seed` randomizes the prologue.
    pub fn new(cfg: RpmConfig, seed: u64) -> Self {
        RpmInstall {
            cfg,
            state: RpmState::Prologue,
            written: 0,
            fd: None,
            rng: SimRng::seed_from_u64(seed),
        }
    }
}

impl ProcessLogic for RpmInstall {
    #[allow(clippy::only_used_in_recursion)]
    fn next_action(&mut self, ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
        match self.state {
            RpmState::Prologue => {
                self.state = RpmState::CreateHelper;
                Action::Compute(self.cfg.prologue.sample(&mut self.rng))
            }
            RpmState::CreateHelper => {
                self.state = RpmState::Write;
                Action::Syscall(SyscallRequest::OpenCreate {
                    path: self.cfg.helper.clone(),
                })
            }
            RpmState::Write => {
                if self.fd.is_none() {
                    self.fd = last.and_then(|r| r.fd());
                    debug_assert!(self.fd.is_some(), "creat must return an fd");
                }
                if self.written >= self.cfg.file_size {
                    self.state = RpmState::GapBeforeSync;
                    return self.next_action(ctx, None);
                }
                let bytes = (self.cfg.file_size - self.written).clamp(1, 64 * 1024);
                self.written += bytes;
                Action::Syscall(SyscallRequest::Write {
                    fd: self.fd.expect("fd present"),
                    bytes,
                })
            }
            RpmState::GapBeforeSync => {
                self.state = RpmState::DbSync;
                Action::Compute(self.cfg.inter_call_gap)
            }
            RpmState::DbSync => {
                // The window's defining feature: the victim sleeps here.
                self.state = RpmState::GapBeforeChown;
                Action::Syscall(SyscallRequest::Sleep {
                    duration: self.cfg.db_sync,
                })
            }
            RpmState::GapBeforeChown => {
                self.state = RpmState::Chown;
                Action::Compute(self.cfg.inter_call_gap)
            }
            RpmState::Chown => {
                self.state = RpmState::Done;
                Action::Syscall(SyscallRequest::Chown {
                    path: self.cfg.helper.clone(),
                    uid: self.cfg.owner.0,
                    gid: self.cfg.owner.1,
                })
            }
            RpmState::Done => Action::Exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{library, DslAttacker};
    use std::sync::Arc;
    use tocttou_os::machine::MachineSpec;
    use tocttou_os::prelude::*;
    use tocttou_sim::time::SimTime;

    fn setup(machine: MachineSpec) -> Kernel {
        let mut k = Kernel::new(machine, 5);
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
        k
    }

    #[test]
    fn install_completes_standalone() {
        let mut k = setup(MachineSpec::uniprocessor().quiet());
        let cfg = RpmConfig::new("/var/tmp/rpm-helper", 8192);
        let pid = k.spawn(
            "rpm",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(RpmInstall::new(cfg, 1)),
        );
        k.run_until_exit(pid, SimTime::from_secs(1));
        let st = k.vfs().stat("/var/tmp/rpm-helper").unwrap();
        assert_eq!(st.size, 8192);
        assert_eq!(st.uid, Uid(1000));
    }

    /// The Section 3.2 bound: with the victim *always suspended* in-window,
    /// even a uniprocessor attacker wins essentially every round.
    #[test]
    fn uniprocessor_attack_succeeds_via_suspension() {
        let mut successes = 0;
        let rounds = 15;
        for seed in 0..rounds {
            let mut k = setup(MachineSpec::uniprocessor().quiet());
            let cfg = RpmConfig::new("/var/tmp/rpm-helper", 4096);
            let vpid = k.spawn(
                "rpm",
                Uid::ROOT,
                Gid::ROOT,
                true,
                Box::new(RpmInstall::new(cfg, seed)),
            );
            let atk = Arc::new(library::attacker_v1(
                &"/var/tmp/rpm-helper".into(),
                &"/etc/passwd".into(),
            ));
            k.spawn(
                "attacker",
                Uid(1000),
                Gid(1000),
                false,
                Box::new(DslAttacker::new(atk, seed ^ 0xFF)),
            );
            k.run_until_exit(vpid, SimTime::from_secs(1));
            if k.vfs().stat("/etc/passwd").unwrap().uid == Uid(1000) {
                successes += 1;
            }
        }
        assert_eq!(
            successes, rounds,
            "an always-suspended victim loses every race, even on one CPU"
        );
    }
}

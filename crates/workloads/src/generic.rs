//! A generic `<check, use>` victim, parameterized by a [`TocttouPair`] from
//! the taxonomy.
//!
//! The paper notes there are "many kinds of TOCTTOU vulnerabilities (e.g.,
//! 224 for Linux)" beyond vi and gedit. This module turns any expressible
//! pair into a runnable victim — check call, computation window, use call —
//! so the whole taxonomy can be swept against the attacker on any machine
//! profile.
//!
//! Not every call of the taxonomy is materialized by the simulator's
//! syscall surface (e.g. `execve`, `mount`); [`GenericVictim::supports`]
//! reports which pairs are runnable. The sweep experiments report coverage
//! explicitly rather than silently skipping.

use std::sync::Arc;
use tocttou_core::taxonomy::{FsCall, TocttouPair};
use tocttou_os::ids::{Gid, Uid};
use tocttou_os::process::{Action, LogicCtx, ProcessLogic, SyscallRequest, SyscallResult};
use tocttou_sim::dist::DurationDist;
use tocttou_sim::rng::SimRng;
use tocttou_sim::time::SimDuration;

/// Configuration for a [`GenericVictim`].
#[derive(Debug, Clone)]
pub struct GenericConfig {
    /// The pair to exercise.
    pub pair: TocttouPair,
    /// The file name checked and used.
    pub path: Arc<str>,
    /// A secondary name (rename/link destinations).
    pub aux_path: Arc<str>,
    /// Computation between check and use — the vulnerability window.
    pub window: SimDuration,
    /// Owner handed over by ownership-changing use calls.
    pub owner: (Uid, Gid),
    /// Idle time before the sequence starts.
    pub prologue: DurationDist,
}

impl GenericConfig {
    /// A window of `window_us` µs over `path`.
    pub fn new(pair: TocttouPair, path: impl Into<Arc<str>>, window_us: f64) -> Self {
        let path = path.into();
        GenericConfig {
            aux_path: format!("{path}.aux").into(),
            pair,
            path,
            window: SimDuration::from_micros_f64(window_us),
            owner: (Uid(1000), Gid(1000)),
            prologue: DurationDist::uniform_us(0.0, 100.0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenState {
    Prologue,
    Check,
    Window,
    Use,
    Done,
}

/// A victim that performs `check(path)`, computes for the window length,
/// then `use(path)` — the minimal TOCTTOU-vulnerable program for the pair.
#[derive(Debug)]
pub struct GenericVictim {
    cfg: GenericConfig,
    state: GenState,
    rng: SimRng,
}

impl GenericVictim {
    /// Creates the victim; `seed` randomizes the prologue.
    pub fn new(cfg: GenericConfig, seed: u64) -> Self {
        GenericVictim {
            cfg,
            state: GenState::Prologue,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Whether both calls of `pair` are expressible on the simulator's
    /// syscall surface.
    pub fn supports(pair: TocttouPair) -> bool {
        call_as_check(pair.check(), &Arc::from("/x"), &Arc::from("/y")).is_some()
            && call_as_use(
                pair.use_call(),
                &Arc::from("/x"),
                &Arc::from("/y"),
                (Uid(0), Gid(0)),
            )
            .is_some()
    }

    /// Every taxonomy pair the simulator can run.
    pub fn supported_pairs() -> Vec<TocttouPair> {
        tocttou_core::taxonomy::enumerate_pairs()
            .into_iter()
            .filter(|p| Self::supports(*p))
            .collect()
    }
}

/// The check-role rendering of a call, if expressible.
fn call_as_check(call: FsCall, path: &Arc<str>, aux: &Arc<str>) -> Option<SyscallRequest> {
    let path = path.clone();
    Some(match call {
        // Observation checks.
        FsCall::Stat => SyscallRequest::Stat { path },
        FsCall::Access => SyscallRequest::Access { path },
        FsCall::Lstat => SyscallRequest::Lstat { path },
        FsCall::Readlink => SyscallRequest::Readlink { path },
        // Creation checks ("the name now refers to what I just made").
        FsCall::Open | FsCall::Creat | FsCall::Mknod => SyscallRequest::OpenCreate { path },
        FsCall::Mkdir => SyscallRequest::Mkdir { path },
        FsCall::Symlink | FsCall::Link => SyscallRequest::Symlink {
            target: aux.clone(),
            linkpath: path,
        },
        FsCall::Rename => SyscallRequest::Rename {
            from: aux.clone(),
            to: path,
        },
        _ => return None,
    })
}

/// The use-role rendering of a call, if expressible.
fn call_as_use(
    call: FsCall,
    path: &Arc<str>,
    aux: &Arc<str>,
    owner: (Uid, Gid),
) -> Option<SyscallRequest> {
    let path = path.clone();
    Some(match call {
        FsCall::Chown => SyscallRequest::Chown {
            path,
            uid: owner.0,
            gid: owner.1,
        },
        FsCall::Chmod | FsCall::Utime => SyscallRequest::Chmod { path, mode: 0o600 },
        FsCall::Open | FsCall::Execve => SyscallRequest::Open { path },
        FsCall::Creat | FsCall::Truncate => SyscallRequest::OpenCreate { path },
        FsCall::Unlink => SyscallRequest::Unlink { path },
        FsCall::Rename => SyscallRequest::Rename {
            from: path,
            to: aux.clone(),
        },
        FsCall::Symlink | FsCall::Link => SyscallRequest::Symlink {
            target: aux.clone(),
            linkpath: path,
        },
        FsCall::Mkdir => SyscallRequest::Mkdir { path },
        _ => return None,
    })
}

impl ProcessLogic for GenericVictim {
    fn next_action(&mut self, _ctx: &LogicCtx, _last: Option<&SyscallResult>) -> Action {
        match self.state {
            GenState::Prologue => {
                self.state = GenState::Check;
                Action::Compute(self.cfg.prologue.sample(&mut self.rng))
            }
            GenState::Check => {
                self.state = GenState::Window;
                match call_as_check(self.cfg.pair.check(), &self.cfg.path, &self.cfg.aux_path) {
                    Some(req) => Action::Syscall(req),
                    None => Action::Exit,
                }
            }
            GenState::Window => {
                self.state = GenState::Use;
                Action::Compute(self.cfg.window)
            }
            GenState::Use => {
                self.state = GenState::Done;
                match call_as_use(
                    self.cfg.pair.use_call(),
                    &self.cfg.path,
                    &self.cfg.aux_path,
                    self.cfg.owner,
                ) {
                    Some(req) => Action::Syscall(req),
                    None => Action::Exit,
                }
            }
            GenState::Done => Action::Exit,
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

    #[test]
    fn most_of_the_taxonomy_is_runnable() {
        let supported = GenericVictim::supported_pairs();
        // 11 expressible check calls × 12 expressible use calls.
        assert_eq!(supported.len(), 132, "supported {}", supported.len());
        assert!(supported.contains(&TocttouPair::vi()));
        assert!(supported.contains(&TocttouPair::gedit()));
        assert!(supported.contains(&TocttouPair::sendmail()));
    }

    fn setup() -> Kernel {
        let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), 2);
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
        k.vfs_mut().mkdir("/home", root).unwrap();
        k.vfs_mut().mkdir("/home/user", user).unwrap();
        k
    }

    #[test]
    fn vi_pair_generic_victim_is_attackable_on_smp() {
        // <open, chown> with a 500 µs window: the attacker swaps the file
        // and the generic victim chowns /etc/passwd away.
        let mut k = setup();
        let cfg = GenericConfig::new(TocttouPair::vi(), "/home/user/f", 500.0);
        let vpid = k.spawn(
            "victim",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(GenericVictim::new(cfg, 1)),
        );
        let atk = Arc::new(library::attacker_v1(
            &"/home/user/f".into(),
            &"/etc/passwd".into(),
        ));
        k.spawn(
            "attacker",
            Uid(1000),
            Gid(1000),
            false,
            Box::new(DslAttacker::new(atk, 2)),
        );
        k.run_until_exit(vpid, SimTime::from_secs(1));
        assert_eq!(k.vfs().stat("/etc/passwd").unwrap().uid, Uid(1000));
    }

    #[test]
    fn sendmail_pair_redirects_the_use_open() {
        // <stat, open>: the victim checks the mailbox then opens it; the
        // attacker swaps it for a symlink to /etc/passwd in between, so the
        // open lands on the privileged file.
        let mut k = setup();
        k.vfs_mut()
            .create_file(
                "/home/user/mbox",
                InodeMeta {
                    uid: Uid::ROOT,
                    gid: Gid::ROOT,
                    mode: 0o600,
                },
            )
            .unwrap();
        let cfg = GenericConfig::new(TocttouPair::sendmail(), "/home/user/mbox", 400.0);
        let vpid = k.spawn(
            "sendmail",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(GenericVictim::new(cfg, 3)),
        );
        let atk = Arc::new(library::attacker_v1(
            &"/home/user/mbox".into(),
            &"/etc/passwd".into(),
        ));
        k.spawn(
            "attacker",
            Uid(1000),
            Gid(1000),
            false,
            Box::new(DslAttacker::new(atk, 4)),
        );
        k.run_until_exit(vpid, SimTime::from_secs(1));
        // The mailbox name now points at /etc/passwd: the victim's open
        // followed the symlink (visible in the trace as a successful open
        // after the swap).
        assert!(k.vfs().lstat("/home/user/mbox").unwrap().is_symlink);
        let opened_privileged = k
            .vfs()
            .stat("/home/user/mbox")
            .map(|st| st.uid == Uid::ROOT)
            .unwrap_or(false);
        assert!(opened_privileged, "open resolved to the privileged file");
    }

    #[test]
    fn zero_window_pair_is_not_attackable() {
        // With no window at all the attacker cannot land between check and
        // use (quiet machine, single round).
        let mut k = setup();
        let cfg = GenericConfig::new(TocttouPair::vi(), "/home/user/f", 0.0);
        let vpid = k.spawn(
            "victim",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(GenericVictim::new(cfg, 9)),
        );
        let atk = Arc::new(library::attacker_v1(
            &"/home/user/f".into(),
            &"/etc/passwd".into(),
        ));
        k.spawn(
            "attacker",
            Uid(1000),
            Gid(1000),
            false,
            Box::new(DslAttacker::new(atk, 10)),
        );
        k.run_until_exit(vpid, SimTime::from_secs(1));
        assert_eq!(
            k.vfs().stat("/etc/passwd").unwrap().uid,
            Uid::ROOT,
            "no laxity, no attack"
        );
    }
}

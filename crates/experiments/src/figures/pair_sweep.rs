//! Taxonomy sweep: every expressible `<check, use>` pair attacked on the
//! SMP profile.
//!
//! The paper argues (Section 2.3) that vi and gedit are just two of "many
//! kinds of TOCTTOU vulnerabilities (e.g., 224 for Linux)" and that some
//! are much easier to attack. This exhibit generalizes the experiment: for
//! each runnable pair, the [`library::pair_victim`] step list performs
//! check → window → use as root while the standard attacker races it, and
//! the sweep reports which pairs let the attacker redirect the use call.
//! The 132 runnable pairs include aliased calls (a `link` check runs as a
//! `symlink`, a `utime` use as a `chmod`; see [`library::pair_victim`]).
//!
//! A pair counts as *compromised* when the attack's symlink diverts the use
//! to the privileged file (ownership/mode change of `/etc/passwd`) or the
//! use call demonstrably operated on the attacker-planted link.

use serde::Serialize;
use std::sync::Arc;
use tocttou_core::taxonomy::{FsCall, TocttouPair};
use tocttou_os::ids::{Gid, Uid};
use tocttou_os::kernel::Kernel;
use tocttou_os::machine::MachineSpec;
use tocttou_os::vfs::InodeMeta;
use tocttou_sim::time::{SimDuration, SimTime};
use tocttou_workloads::dsl::{library, DslAttacker, DslVictim, Step};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Window length between check and use, µs.
    pub window_us: f64,
    /// Rounds per pair.
    pub rounds: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            window_us: 500.0,
            rounds: 5,
            seed: 14_0001,
        }
    }
}

/// One pair's sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// The check call's name.
    pub check: String,
    /// The use call's name.
    pub use_call: String,
    /// Rounds in which the privileged file changed owner or mode.
    pub privileged_compromised: u64,
    /// Rounds in which the attacker's symlink survived under the name at
    /// use time (the use operated through it or on it).
    pub link_planted: u64,
    /// Rounds run.
    pub rounds: u64,
}

/// The sweep output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Per-pair rows (only expressible pairs).
    pub rows: Vec<Row>,
    /// Pairs in the taxonomy.
    pub taxonomy_pairs: usize,
    /// Pairs the simulator can express.
    pub runnable_pairs: usize,
}

fn run_pair(pair: TocttouPair, steps: &Arc<[Step]>, cfg: &Config) -> Row {
    let mut privileged_compromised = 0;
    let mut link_planted = 0;
    for i in 0..cfg.rounds {
        let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), cfg.seed + i);
        k.disable_trace();
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
        k.vfs_mut()
            .create_file(
                "/etc/passwd",
                InodeMeta {
                    uid: Uid::ROOT,
                    gid: Gid::ROOT,
                    mode: 0o644,
                },
            )
            .unwrap();
        k.vfs_mut().mkdir("/home", root).unwrap();
        k.vfs_mut().mkdir("/home/user", user).unwrap();
        // Pre-existing auxiliary file for rename-as-check and a target for
        // observation-checks; root-owned so stat-style checks open the
        // attacker's window immediately.
        k.vfs_mut()
            .create_file(
                "/home/user/f.aux",
                InodeMeta {
                    uid: Uid::ROOT,
                    gid: Gid::ROOT,
                    mode: 0o644,
                },
            )
            .unwrap();
        k.vfs_mut()
            .create_file(
                "/home/user/f",
                InodeMeta {
                    uid: Uid::ROOT,
                    gid: Gid::ROOT,
                    mode: 0o644,
                },
            )
            .unwrap();

        let vpid = k.spawn(
            "victim",
            Uid::ROOT,
            Gid::ROOT,
            true,
            Box::new(DslVictim::new(steps.clone(), cfg.seed ^ i)),
        );
        let atk = library::attacker_v1(&"/home/user/f".into(), &"/etc/passwd".into());
        k.spawn(
            "attacker",
            Uid(1000),
            Gid(1000),
            false,
            Box::new(DslAttacker::new(Arc::new(atk), cfg.seed ^ (i << 8))),
        );
        k.run_until_exit(vpid, SimTime::from_secs(1));

        let passwd = k.vfs().stat("/etc/passwd").unwrap();
        if passwd.uid != Uid::ROOT || passwd.mode != 0o644 {
            privileged_compromised += 1;
        }
        if k.vfs()
            .lstat("/home/user/f")
            .map(|st| st.is_symlink)
            .unwrap_or(false)
        {
            link_planted += 1;
        }
    }
    Row {
        check: pair.check().name().to_string(),
        use_call: pair.use_call().name().to_string(),
        privileged_compromised,
        link_planted,
        rounds: cfg.rounds,
    }
}

/// Runs the sweep over every runnable pair.
pub fn run(cfg: &Config) -> Output {
    let taxonomy = tocttou_core::taxonomy::enumerate_pairs();
    let (path, aux): (Arc<str>, Arc<str>) = ("/home/user/f".into(), "/home/user/f.aux".into());
    let window = SimDuration::from_micros_f64(cfg.window_us);
    let runnable: Vec<(TocttouPair, Arc<[Step]>)> = taxonomy
        .iter()
        .filter_map(|&p| Some((p, library::pair_victim(p, &path, &aux, window)?.into())))
        .collect();
    let rows = runnable
        .iter()
        .map(|(p, steps)| run_pair(*p, steps, cfg))
        .collect();
    Output {
        rows,
        taxonomy_pairs: taxonomy.len(),
        runnable_pairs: runnable.len(),
    }
}

impl Output {
    /// Pairs whose use call was diverted to the privileged file in at least
    /// one round.
    pub fn compromised_pairs(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.privileged_compromised > 0)
            .count()
    }

    /// Rows for a specific use call (e.g. everything that chowns).
    pub fn rows_for_use(&self, call: FsCall) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.use_call == call.name())
            .collect()
    }
}

impl std::fmt::Display for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Taxonomy sweep — {} of {} pairs runnable; {} compromised the privileged file",
            self.runnable_pairs,
            self.taxonomy_pairs,
            self.compromised_pairs()
        )?;
        writeln!(
            f,
            "{:>12} {:>12} {:>14} {:>14}",
            "check", "use", "compromised", "link planted"
        )?;
        for r in self.rows.iter().filter(|r| r.privileged_compromised > 0) {
            writeln!(
                f,
                "{:>12} {:>12} {:>11}/{:<2} {:>11}/{:<2}",
                r.check, r.use_call, r.privileged_compromised, r.rounds, r.link_planted, r.rounds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_finds_the_ownership_and_mode_pairs() {
        let out = run(&Config {
            window_us: 500.0,
            rounds: 2,
            seed: 3,
        });
        assert_eq!(out.taxonomy_pairs, 224);
        assert_eq!(out.runnable_pairs, 132);
        // Every runnable check × chown pair must compromise /etc/passwd.
        for row in out.rows_for_use(FsCall::Chown) {
            assert!(
                row.privileged_compromised > 0,
                "<{},{}> should compromise",
                row.check,
                row.use_call
            );
        }
        // chmod-style uses change the privileged file's mode.
        assert!(out
            .rows_for_use(FsCall::Chmod)
            .iter()
            .any(|r| r.privileged_compromised > 0));
        // Pure namespace uses (mkdir as use) cannot touch the privileged
        // file's metadata.
        for row in out.rows_for_use(FsCall::Mkdir) {
            assert_eq!(row.privileged_compromised, 0, "<{},mkdir>", row.check);
        }
        assert!(out.compromised_pairs() >= 20);
    }
}

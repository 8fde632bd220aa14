//! The race laboratory: repeated native TOCTTOU rounds with CPU pinning.
//!
//! Each round re-creates the scenario in a scratch directory: a fake
//! "privileged" file standing in for `/etc/passwd` (never the real one), a
//! user-owned document, a victim thread executing a real save sequence and
//! an attacker thread spinning on real syscalls — pinned to distinct CPUs
//! when the host has more than one, exactly the paper's setup.

use crate::affinity::{pick_cpu_pair, pin_current_thread};
use crate::attacker::{attack_v1, attack_v2, AttackOutcome, NativeAttackConfig, StopFlag};
use crate::victim::{gedit_save, vi_save, SaveConfig};
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tocttou_core::stats::SuccessCounter;

/// Which victim sequence a lab runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeVictim {
    /// vi's save (window contains the write: grows with file size).
    Vi,
    /// gedit's save (window excludes the write: microseconds).
    Gedit,
}

/// Which attacker program a lab runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeAttacker {
    /// Figure 2/4.
    V1,
    /// Figure 9.
    V2,
}

/// Lab configuration.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Victim program.
    pub victim: NativeVictim,
    /// Attacker program.
    pub attacker: NativeAttacker,
    /// Bytes the victim writes.
    pub file_size: usize,
    /// Rounds to run.
    pub rounds: u32,
    /// The uid/gid playing "the attacker" (any unused numeric id works).
    pub attacker_owner: (u32, u32),
    /// Per-round attack timeout.
    pub round_timeout: Duration,
    /// Scratch directory root (a unique subdirectory is created inside).
    pub scratch_root: PathBuf,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            victim: NativeVictim::Vi,
            attacker: NativeAttacker::V1,
            file_size: 256 * 1024,
            rounds: 20,
            attacker_owner: (31337, 31337),
            round_timeout: Duration::from_millis(500),
            scratch_root: std::env::temp_dir(),
        }
    }
}

/// Aggregate lab results.
#[derive(Debug, Clone)]
pub struct LabReport {
    /// Rounds in which the "privileged" file ended up attacker-owned.
    pub counter: SuccessCounter,
    /// Rounds in which the attacker at least planted its symlink.
    pub planted: u32,
    /// Rounds in which the victim completed its save.
    pub victim_completed: u32,
    /// CPUs used: `Some((victim, attacker))` when pinned, `None` on a
    /// uniprocessor.
    pub cpus: Option<(usize, usize)>,
    /// Whether the process had root (the chown step is a no-op signal
    /// without it).
    pub as_root: bool,
}

impl std::fmt::Display for LabReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "native race lab: {} ({} planted, {} victim-completed), cpus = {:?}, root = {}",
            self.counter, self.planted, self.victim_completed, self.cpus, self.as_root
        )
    }
}

/// Whether the current process is root.
pub fn is_root() -> bool {
    crate::sys::euid_is_root()
}

/// Runs the laboratory.
///
/// # Errors
///
/// Propagates scratch-directory I/O failures. Individual round failures
/// (e.g. chown without root) are reported in the [`LabReport`], not as
/// errors.
pub fn run_lab(cfg: &LabConfig) -> std::io::Result<LabReport> {
    // One directory per call: concurrent runs in one process (parallel
    // tests) must not delete each other's scratch files.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = cfg.scratch_root.join(format!(
        "tocttou-lab-{}-{}-{:?}-{:?}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed),
        cfg.victim,
        cfg.attacker
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir)?;
    let privileged = dir.join("passwd"); // a STAND-IN file, never the real one
    let cpus = pick_cpu_pair();
    let as_root = is_root();

    let mut counter = SuccessCounter::new();
    let mut planted = 0;
    let mut victim_completed = 0;

    for _round in 0..cfg.rounds {
        // Fresh state: privileged file owned by root(ish), doc owned by the
        // "user".
        fs::write(&privileged, b"root:x:0:0::/root:/bin/sh\n")?;
        if as_root {
            std::os::unix::fs::chown(&privileged, Some(0), Some(0))?;
        }
        let save_cfg = SaveConfig::in_dir(&dir, cfg.file_size, cfg.attacker_owner);
        let _ = fs::remove_file(&save_cfg.backup);
        fs::write(&save_cfg.doc, b"user data")?;
        if as_root {
            std::os::unix::fs::chown(
                &save_cfg.doc,
                Some(cfg.attacker_owner.0),
                Some(cfg.attacker_owner.1),
            )?;
        }
        let attack_cfg = NativeAttackConfig {
            target: save_cfg.doc.clone(),
            privileged: privileged.clone(),
            dummy: dir.join("dummy"),
            timeout: cfg.round_timeout,
        };

        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        let attacker_kind = cfg.attacker;
        let attacker_stop = stop.clone();
        let attacker_cpu = cpus.map(|(_, a)| a);
        let attacker = std::thread::spawn(move || {
            if let Some(c) = attacker_cpu {
                let _ = pin_current_thread(c);
            }
            match attacker_kind {
                NativeAttacker::V1 => attack_v1(&attack_cfg, &attacker_stop),
                NativeAttacker::V2 => attack_v2(&attack_cfg, &attacker_stop),
            }
        });

        // Give the attacker a head start into its spin loop.
        std::thread::sleep(Duration::from_millis(2));
        // The victim gets its own thread too, so pinning it leaves the
        // caller's CPU mask (and so the next call's `pick_cpu_pair`) alone.
        let victim_kind = cfg.victim;
        let victim_cpu = cpus.map(|(v, _)| v);
        let outcome = std::thread::spawn(move || {
            if let Some(c) = victim_cpu {
                let _ = pin_current_thread(c);
            }
            match victim_kind {
                NativeVictim::Vi => vi_save(&save_cfg),
                NativeVictim::Gedit => gedit_save(&save_cfg),
            }
        })
        .join()
        .expect("victim thread");
        stop.store(true, Ordering::Relaxed);
        let attack = attacker.join().expect("attacker thread");

        if outcome.completed {
            victim_completed += 1;
        }
        if attack == AttackOutcome::Planted {
            planted += 1;
        }
        let owned = fs::metadata(&privileged)
            .map(|m| m.uid() == cfg.attacker_owner.0)
            .unwrap_or(false);
        counter.record(owned);
    }
    fs::remove_dir_all(&dir).ok();
    Ok(LabReport {
        counter,
        planted,
        victim_completed,
        cpus,
        as_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_machinery_runs_end_to_end() {
        let report = run_lab(&LabConfig {
            rounds: 3,
            file_size: 64 * 1024,
            round_timeout: Duration::from_millis(200),
            ..LabConfig::default()
        })
        .expect("lab runs");
        assert_eq!(report.counter.trials(), 3);
        assert!(report.victim_completed >= 1, "{report}");
    }

    #[test]
    fn gedit_lab_runs() {
        let report = run_lab(&LabConfig {
            victim: NativeVictim::Gedit,
            attacker: NativeAttacker::V2,
            rounds: 3,
            file_size: 16 * 1024,
            round_timeout: Duration::from_millis(200),
            ..LabConfig::default()
        })
        .expect("lab runs");
        assert_eq!(report.counter.trials(), 3);
    }

    #[test]
    fn consecutive_runs_on_one_thread_see_the_same_cpus() {
        let cfg = LabConfig {
            victim: NativeVictim::Gedit,
            attacker: NativeAttacker::V2,
            rounds: 2,
            file_size: 4 * 1024,
            round_timeout: Duration::from_millis(100),
            ..LabConfig::default()
        };
        let first = run_lab(&cfg).expect("lab runs");
        let second = run_lab(&cfg).expect("lab runs");
        assert_eq!(first.cpus, second.cpus, "{first}{second}");
        assert_eq!(first.cpus, pick_cpu_pair());
    }

    #[test]
    fn multiprocessor_vi_attack_succeeds_when_possible() {
        // The paper's headline, natively: on ≥2 CPUs with a large file the
        // vi attack should land most of the time. On a uniprocessor host
        // this degenerates to the paper's baseline and we only smoke-test.
        if !is_root() {
            eprintln!("skipping: requires root");
            return;
        }
        let report = run_lab(&LabConfig {
            victim: NativeVictim::Vi,
            attacker: NativeAttacker::V1,
            rounds: 10,
            file_size: 4 * 1024 * 1024,
            round_timeout: Duration::from_secs(1),
            ..LabConfig::default()
        })
        .expect("lab runs");
        if report.cpus.is_some() {
            assert!(
                report.counter.rate() > 0.5,
                "multiprocessor native attack should mostly win: {report}"
            );
        } else {
            eprintln!("uniprocessor host: observed {report}");
            assert_eq!(report.counter.trials(), 10);
        }
    }
}

//! The race laboratory: a scenario's rounds, raced with real syscalls.
//!
//! Each round materialises the scenario's template filesystem in a fresh
//! run directory (its `/etc/passwd` a stand-in there, never the real one)
//! and runs the scenario's own victim and attackers, the step machines the
//! simulator runs, on host threads through the [`host`](crate::host)
//! executor: the victim pinned to one CPU and the attackers to another
//! when the host has more than one, the paper's setup. The spec's success
//! rule, on the host `stat` of the stand-in, judges the round.

use crate::affinity::{pick_cpu_pair, pin_current_thread};
use crate::host::{materialise, run_program, HostProcess, ProgramRun};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};
use tocttou_core::stats::SuccessCounter;
use tocttou_os::process::{ProcessLogic, SyscallRequest};
use tocttou_sim::rng::SimRng;
use tocttou_workloads::dsl::{AttackFlag, DslAttacker};
use tocttou_workloads::scenario::Scenario;

/// Lab configuration.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// The scenario to race: its programs, layout (the attacker's uid
    /// included), success rule and round cap. Its machine profile is the
    /// simulator's and plays no part here.
    pub scenario: Scenario,
    /// Rounds to run.
    pub rounds: u32,
    /// Scratch directory root (a unique run directory is created inside).
    pub scratch_root: PathBuf,
}

/// Aggregate lab results.
#[derive(Debug, Clone)]
pub struct LabReport {
    /// Rounds in which the spec's success rule held.
    pub counter: SuccessCounter,
    /// Rounds in which every attacker ran its strike to a successful end.
    pub planted: u32,
    /// Rounds in which the victim completed its save.
    pub victim_completed: u32,
    /// CPUs used: `Some((victim, attacker))` when pinned, `None` on a
    /// uniprocessor.
    pub cpus: Option<(usize, usize)>,
    /// Whether the process had root (without it the victim's files are
    /// not root-owned, so no window is ever seen, and `chown` fails).
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

/// The seed of round 0; round `i` runs at `LAB_SEED + i`.
const LAB_SEED: u64 = 0x1AB_5EED;

/// How long attackers keep running after the victim exits: the
/// simulator's round protocol grants the same grace to in-flight calls.
const GRACE: Duration = Duration::from_millis(2);

/// Runs the laboratory.
///
/// # Errors
///
/// Propagates scratch-directory and materialisation I/O failures. What
/// the programs' own calls do is reported in the [`LabReport`].
pub fn run_lab(cfg: &LabConfig) -> std::io::Result<LabReport> {
    // One directory per call: concurrent runs in one process (parallel
    // tests) must not delete each other's scratch files.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let runs = RUNS.fetch_add(1, Ordering::Relaxed);
    let name = format!("tocttou-lab-{}-{runs}", std::process::id());
    let dir = cfg.scratch_root.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir)?;
    let template = cfg.scenario.template_vfs();
    let (cpus, as_root) = (pick_cpu_pair(), is_root());
    let mut report = LabReport {
        counter: SuccessCounter::new(),
        planted: 0,
        victim_completed: 0,
        cpus,
        as_root,
    };
    for round in 0..cfg.rounds {
        let run = dir.join(round.to_string());
        fs::create_dir(&run)?;
        materialise(&run, &template, as_root)?;
        let outcome = run_round(&cfg.scenario, &run, LAB_SEED + u64::from(round));
        fs::remove_dir_all(&run)?;
        report.counter.record(outcome.success);
        report.planted += u32::from(outcome.planted);
        report.victim_completed += u32::from(outcome.victim_completed);
    }
    fs::remove_dir_all(&dir).ok();
    Ok(report)
}

/// What one native round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// The spec's success rule held on the host's stand-in.
    pub success: bool,
    /// The victim ran its whole trace within the round cap, with no
    /// failed call and no guard abort.
    pub victim_completed: bool,
    /// There are attackers, and each ended its strike with a successful
    /// call.
    pub planted: bool,
}

/// Races one round of `scenario` at `seed` in the materialised run
/// directory `root`: the victim and each attacker on a thread of its own,
/// pinned as [`pick_cpu_pair`] says and released together. The victim stops at its exit or the round cap, the
/// attackers at theirs, at the cap, or 2 ms after the victim.
pub fn run_round(scenario: &Scenario, root: &Path, seed: u64) -> RoundOutcome {
    let cpus = pick_cpu_pair();
    // One seed per program from the round's generator, victim first, and
    // one flag, used only by profiles that pipeline through it.
    let mut rng = SimRng::seed_from_u64(seed);
    let mut victim = scenario.victim.logic(rng.next_u64());
    let flag = AttackFlag::default();
    let attackers = scenario
        .attacker
        .iter()
        .map(|p| DslAttacker::new(Arc::clone(p), rng.next_u64()).with_flag(Arc::clone(&flag)));
    let max_round = Duration::from_nanos(scenario.max_round.as_nanos());
    let start_line = Barrier::new(1 + scenario.attacker.len());
    let victim_done = OnceLock::new();
    // Pins the calling thread, waits for the others, and runs `logic`
    // until it exits, the round cap passes, or the victim's grace ends.
    let race = |logic: &mut dyn ProcessLogic, cpu| {
        if let Some(c) = cpu {
            let _ = pin_current_thread(c);
        }
        start_line.wait();
        let deadline = Instant::now() + max_round;
        let stop = |_: &ProgramRun| {
            let now = Instant::now();
            now >= deadline || victim_done.get().is_some_and(|&end| now >= end)
        };
        run_program(logic, &mut HostProcess::new(root), stop)
    };
    let (victim_run, attacker_runs) = std::thread::scope(|s| {
        let race = &race;
        let attackers: Vec<_> = attackers
            .map(|mut a| s.spawn(move || race(&mut a, cpus.map(|c| c.1))))
            .collect();
        // The victim gets its own thread too, so pinning it leaves the
        // caller's CPU mask (and so the next call's `pick_cpu_pair`) alone.
        let victim_run = s.spawn(|| race(&mut victim, cpus.map(|c| c.0)));
        let victim_run = victim_run.join().expect("victim thread");
        let _ = victim_done.set(Instant::now() + GRACE);
        let attacker_runs: Vec<_> = attackers
            .into_iter()
            .map(|h| h.join().expect("attacker thread"))
            .collect();
        (victim_run, attacker_runs)
    });
    let passwd = HostProcess::new(root).issue(&SyscallRequest::Stat {
        path: scenario.layout.passwd.as_str().into(),
    });
    let success = passwd
        .stat()
        .is_some_and(|st| scenario.victim.success.holds(st, &scenario.layout));
    RoundOutcome {
        success,
        victim_completed: victim_run.exited && victim_run.failed_calls == 0 && !victim.aborted(),
        planted: !attacker_runs.is_empty() && attacker_runs.iter().all(|r| r.exited && r.last_ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::map;
    use std::os::unix::fs::MetadataExt;
    use tocttou_os::ids::{Gid, Uid};
    use tocttou_workloads::dsl::Step;

    /// A materialised run directory for `scenario`.
    fn materialised(name: &str, scenario: &Scenario) -> PathBuf {
        let run = std::env::temp_dir().join(format!("tocttou-round-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&run);
        fs::create_dir_all(&run).unwrap();
        materialise(&run, &scenario.template_vfs(), is_root()).unwrap();
        run
    }

    fn config(scenario: Scenario, rounds: u32) -> LabConfig {
        let scratch_root = std::env::temp_dir();
        LabConfig {
            scenario,
            rounds,
            scratch_root,
        }
    }

    fn round(scenario: &Scenario, run: &Path) -> RoundOutcome {
        run_round(scenario, run, LAB_SEED)
    }

    fn benign(mut scenario: Scenario) -> Scenario {
        scenario.attacker.clear();
        scenario
    }

    /// `scenario` with its victim replaced by `steps`.
    fn with_victim(mut scenario: Scenario, steps: Vec<Step>) -> Scenario {
        scenario.victim.steps = steps.into();
        scenario
    }

    /// A victim that opens the window itself — it makes the document
    /// root-owned — and holds it open for 20 ms.
    fn window_opener(scenario: Scenario) -> Scenario {
        let chown = SyscallRequest::Chown {
            path: scenario.layout.doc.as_str().into(),
            uid: Uid::ROOT,
            gid: Gid::ROOT,
        };
        with_victim(scenario, vec![Step::call(chown), Step::gap_us(20_000, 0.0)])
    }

    /// A victim that leaves the window shut for 5 ms.
    fn no_window(scenario: Scenario) -> Scenario {
        with_victim(scenario, vec![Step::gap_us(5_000, 0.0)])
    }

    fn size(run: &Path, path: &str) -> Option<u64> {
        fs::metadata(map(run, path).unwrap()).ok().map(|m| m.len())
    }

    fn plants_a_link(run: &Path, scenario: &Scenario) -> bool {
        let link = fs::read_link(map(run, &scenario.layout.doc).unwrap());
        link.ok() == map(run, &scenario.layout.passwd).ok()
    }

    #[test]
    fn vi_backs_up_the_document_and_chowns_it_back() {
        let scenario = benign(Scenario::vi_smp(4096));
        let run = materialised("vi", &scenario);
        let out = round(&scenario, &run);
        let layout = &scenario.layout;
        assert_eq!(
            size(&run, &layout.backup),
            Some(4096),
            "backup of the original"
        );
        assert_eq!(size(&run, &layout.doc), Some(4096), "the written size");
        assert!(!out.success && !out.planted, "{out:?}");
        if is_root() {
            assert!(out.victim_completed, "{out:?}");
            let meta = fs::metadata(map(&run, &layout.doc).unwrap()).unwrap();
            assert_eq!(
                (meta.uid(), meta.gid()),
                (layout.attacker.0 .0, layout.attacker.1 .0)
            );
        }
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn gedit_consumes_its_scratch_file() {
        let scenario = benign(Scenario::gedit_smp(2048));
        let run = materialised("gedit", &scenario);
        let out = round(&scenario, &run);
        let layout = &scenario.layout;
        assert_eq!(size(&run, &layout.backup), Some(2048));
        assert_eq!(size(&run, &layout.doc), Some(2048));
        assert_eq!(size(&run, &layout.temp), None, "scratch consumed");
        assert_eq!(out.victim_completed, is_root(), "{out:?}");
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn vi_without_a_document_does_not_complete() {
        let scenario = benign(Scenario::vi_smp(16));
        let run = materialised("vi-missing", &scenario);
        fs::remove_file(map(&run, &scenario.layout.doc).unwrap()).unwrap();
        let out = round(&scenario, &run);
        assert!(!out.victim_completed, "the rename failed: {out:?}");
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn v1_plants_on_an_open_window() {
        if !is_root() {
            eprintln!("skipping: requires root (a root-owned document marks the window)");
            return;
        }
        let scenario = window_opener(Scenario::vi_smp(64));
        let run = materialised("v1", &scenario);
        let out = round(&scenario, &run);
        assert!(out.planted && out.victim_completed, "{out:?}");
        assert!(plants_a_link(&run, &scenario));
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn v1_with_no_window_ends_cleanly() {
        let scenario = no_window(Scenario::vi_smp(64));
        let run = materialised("v1-none", &scenario);
        let out = round(&scenario, &run);
        assert!(
            !out.planted && !out.success && out.victim_completed,
            "{out:?}"
        );
        assert!(!plants_a_link(&run, &scenario));
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn v2_churns_the_dummy_then_plants() {
        // Two loops with no window: stat, then unlink and symlink the dummy.
        let scenario = Scenario::gedit_multicore_v2(64);
        let run = materialised("v2", &scenario);
        let mut v2 = DslAttacker::new(Arc::clone(&scenario.attacker[0]), LAB_SEED);
        let churn = run_program(&mut v2, &mut HostProcess::new(&run), |r| r.calls == 6);
        assert!(!churn.exited && churn.last_ok, "{churn:?}");
        let dummy = fs::symlink_metadata(map(&run, &scenario.layout.dummy).unwrap());
        assert!(
            dummy.unwrap().file_type().is_symlink(),
            "rehearsed on the dummy"
        );
        assert!(!plants_a_link(&run, &scenario));
        fs::remove_dir_all(&run).ok();
        if !is_root() {
            eprintln!("skipping the plant: requires root");
            return;
        }
        let scenario = window_opener(scenario);
        let run = materialised("v2-plant", &scenario);
        let out = round(&scenario, &run);
        assert!(out.planted, "{out:?}");
        assert!(plants_a_link(&run, &scenario));
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn pipelined_pair_plants_through_the_flag() {
        if !is_root() {
            eprintln!("skipping: requires root");
            return;
        }
        let scenario = window_opener(Scenario::pipelined_attack(512 * 1024));
        assert_eq!(scenario.attacker.len(), 2, "detector and linker");
        let run = materialised("pipelined", &scenario);
        let out = round(&scenario, &run);
        assert!(out.planted, "both threads struck: {out:?}");
        assert!(plants_a_link(&run, &scenario));
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn pipelined_pair_ends_cleanly_with_no_window() {
        let scenario = no_window(Scenario::pipelined_attack(64));
        let run = materialised("pipelined-none", &scenario);
        let out = round(&scenario, &run);
        assert!(!out.planted && out.victim_completed, "{out:?}");
        assert!(!plants_a_link(&run, &scenario));
        fs::remove_dir_all(&run).ok();
    }

    #[test]
    fn lab_machinery_runs_end_to_end() {
        let report = run_lab(&config(Scenario::vi_smp(64 * 1024), 3)).expect("lab runs");
        assert_eq!(report.counter.trials(), 3);
        if is_root() {
            assert!(report.victim_completed >= 1, "{report}");
        }
    }

    #[test]
    fn gedit_lab_runs() {
        let report =
            run_lab(&config(Scenario::gedit_multicore_v2(16 * 1024), 3)).expect("lab runs");
        assert_eq!(report.counter.trials(), 3);
    }

    #[test]
    fn consecutive_runs_on_one_thread_see_the_same_cpus() {
        let cfg = config(Scenario::gedit_multicore_v2(4 * 1024), 2);
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
        let report = run_lab(&config(Scenario::vi_smp(4 * 1024 * 1024), 10)).expect("lab runs");
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

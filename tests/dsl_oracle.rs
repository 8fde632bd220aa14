//! Golden oracle for the scenario DSL.
//!
//! Every named scenario is a compiled [`ScenarioSpec`]. The hand-written
//! vi, gedit and attacker state machines those specs replaced are gone;
//! what they produced is not. `tests/golden/scenarios.txt` was recorded
//! from them, and the specs must reproduce it byte for byte — same
//! Monte-Carlo bytes at any `--jobs` and from warm or cold boots, same
//! traced round, same detection timeline, same exhibits. Anything less
//! means a spec is a *similar* workload, not the paper's, and every
//! number derived from it would silently fork from the paper-calibrated
//! baselines.
//!
//! The rpm, sendmail and generic check→window→use victims run outside
//! any scenario, on kernels built by hand; `tests/golden/victims.txt`
//! holds what their hand-written programs produced, and their
//! `dsl::library` step lists must reproduce it the same way.
//!
//! [`ScenarioSpec`]: tocttou::workloads::ScenarioSpec

use std::fmt::Write as _;
use std::sync::Arc;
use tocttou::core::taxonomy::{enumerate_pairs, TocttouPair};
use tocttou::experiments::figures::{fig11, pair_sweep};
use tocttou::experiments::{run_mc, Family, GridPoint, McConfig};
use tocttou::os::defense::DefensePolicy;
use tocttou::os::prelude::*;
use tocttou::sim::time::{SimDuration, SimTime};
use tocttou::workloads::dsl::{library, DslAttacker, DslVictim};
use tocttou::workloads::maze::vi_uniprocessor_maze;
use tocttou::workloads::Scenario;

/// The record of every named scenario, taken from the hand-written
/// programs before the DSL specs replaced them. Never re-bless it to
/// make a spec pass.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/scenarios.txt");

/// Seeds of the pinned record.
const SEEDS: [u64; 3] = [0, 7, 0xD07];

/// FNV-1a over `bytes` (kept local: the record must not share code with
/// the drivers it pins).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every `Scenario::*` constructor, the defense wrapper, a laxity stratum
/// and the grid overrides that rewrite a scenario's attacker.
fn pinned_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::vi_uniprocessor(100 * 1024),
        Scenario::vi_uniprocessor(2048)
            .restrict_laxity(99_218_750, 100_000_000)
            .expect("sub-range of the slice"),
        Scenario::vi_smp(100 * 1024),
        Scenario::vi_smp(1),
        Scenario::gedit_uniprocessor(2048),
        Scenario::gedit_smp(2048),
        Scenario::gedit_multicore_v1(2048),
        Scenario::gedit_multicore_v2(2048),
        Scenario::pipelined_attack(100 * 1024),
        Scenario::sequential_attack(100 * 1024),
        Scenario::hardlink_vi_smp(100 * 1024),
        Scenario::vi_smp(100 * 1024).with_defense(DefensePolicy::Edgi),
        vi_uniprocessor_maze(100 * 1024, 0, 5.0),
        GridPoint::new(Family::ViSmp, 100 * 1024)
            .with_d_scale(0.5)
            .scenario(),
        GridPoint::new(Family::GeditMulticoreV2, 2048)
            .with_d_scale(2.0)
            .scenario(),
        GridPoint::new(Family::PipelinedAttack, 100 * 1024)
            .with_d_scale(0.5)
            .scenario(),
        GridPoint::new(Family::GeditSmp, 2048)
            .with_pipelined(true)
            .scenario(),
        GridPoint::new(Family::GeditMulticoreV2, 2048)
            .with_pipelined(true)
            .scenario(),
        GridPoint::new(Family::PipelinedAttack, 512)
            .with_pipelined(false)
            .scenario(),
    ]
}

/// The full record: per scenario and seed, the `McOutcome` JSON digests
/// of a 24-round batch at `jobs` 1 and 4 from warm and cold boots, and one
/// traced round (outcome, trace digest, detection timeline); then maze
/// rounds and the Figure 11 and pair-sweep exhibits at their defaults.
fn scenario_record() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Named scenarios, recorded from the hand-written vi, gedit and\n\
         # attacker programs. Per seed: McOutcome JSON FNV digests (24 rounds,\n\
         # L/D on) at jobs=1 warm, jobs=1 cold, jobs=4 warm, jobs=4 cold; then\n\
         # one traced round and its detection timeline."
    );
    for scenario in pinned_scenarios() {
        let _ = writeln!(s, "[{}]", scenario.name);
        for seed in SEEDS {
            let _ = write!(s, "mc seed={seed:#x}");
            for jobs in [1usize, 4] {
                for cold in [false, true] {
                    let cfg = McConfig {
                        rounds: 24,
                        base_seed: seed,
                        collect_ld: true,
                        jobs,
                        cold,
                    };
                    let json = serde_json::to_string(&run_mc(&scenario, &cfg)).unwrap();
                    let _ = write!(s, " {:016x}", fnv(json.as_bytes()));
                }
            }
            s.push('\n');
            let (r, handles) = scenario.run_traced(seed);
            let mut trace = String::new();
            for rec in handles.kernel.trace().iter() {
                let _ = writeln!(trace, "{} {:?}", rec.at.as_nanos(), rec.event);
            }
            let _ = writeln!(
                s,
                "round seed={seed:#x} success={} exited={} elapsed_ns={} events={} trace={:016x}",
                r.success,
                r.victim_exited,
                r.elapsed.as_nanos(),
                handles.kernel.trace().len(),
                fnv(trace.as_bytes())
            );
            for rec in handles.kernel.detections().iter() {
                let _ = writeln!(s, "  {} {}", rec.at.as_nanos(), rec.event);
            }
        }
    }
    let maze = vi_uniprocessor_maze(100 * 1024, 100, 5.0);
    let _ = writeln!(s, "[{}]", maze.name);
    for seed in SEEDS {
        let rounds: Vec<String> = (0..24)
            .map(|i| {
                let r = maze.run_round(seed + i);
                format!("{}:{}", u8::from(r.success), r.elapsed.as_nanos())
            })
            .collect();
        let _ = writeln!(
            s,
            "maze seed={seed:#x} {:016x}",
            fnv(rounds.join(",").as_bytes())
        );
    }
    let fig11 = fig11::run(&fig11::Config::default());
    let _ = writeln!(s, "[fig11]\n{}", serde_json::to_string(&fig11).unwrap());
    let pairs = pair_sweep::run(&pair_sweep::Config::default());
    let _ = writeln!(
        s,
        "[pair_sweep]\n{}",
        serde_json::to_string(&pairs).unwrap()
    );
    s
}

/// Every named scenario still produces the record the hand-written
/// programs left: same Monte-Carlo bytes, same traced round, same
/// detections, same exhibits.
#[test]
fn every_scenario_matches_the_parent_golden() {
    let got = scenario_record();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden record");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden record {GOLDEN}: {e}"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "record diverges from {GOLDEN} at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "record length");
}

#[test]
fn compiled_mc_outcomes_are_byte_identical_across_jobs_and_boots() {
    // The record pins its own seeds; hold the invariance at another one.
    for scenario in pinned_scenarios() {
        let run = |jobs, cold| {
            let cfg = McConfig {
                rounds: 24,
                base_seed: 0xA5A5,
                collect_ld: true,
                jobs,
                cold,
            };
            serde_json::to_string(&run_mc(&scenario, &cfg)).unwrap()
        };
        let reference = run(1, false);
        for (jobs, cold) in [(1usize, true), (4, false), (4, true)] {
            assert_eq!(
                run(jobs, cold),
                reference,
                "{}: McOutcome JSON differs at jobs={jobs} cold={cold}",
                scenario.name
            );
        }
    }
}

#[test]
fn warm_and_cold_boots_agree_for_compiled_scenarios() {
    // The checkpoint engine snapshots the deterministic prefix of a round;
    // compiled victims must populate the template identically to a full
    // build, or the warm path diverges. Cover library scenarios outside
    // the golden record (extra files, multiple attackers).
    for spec in [
        library::tmp_logrotate(4096),
        library::pkg_installer(512),
        library::vi_crowd(100 * 1024),
        library::swap_contest(100 * 1024),
    ] {
        let scenario = spec.compile();
        let warm = run_mc(
            &scenario,
            &McConfig {
                rounds: 12,
                base_seed: 0xB007,
                collect_ld: false,
                jobs: 1,
                cold: false,
            },
        );
        let cold = run_mc(
            &scenario,
            &McConfig {
                rounds: 12,
                base_seed: 0xB007,
                collect_ld: false,
                jobs: 1,
                cold: true,
            },
        );
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "{}: warm checkpoint path diverges from cold boots",
            scenario.name
        );
    }
}

// ---- the rpm, sendmail and generic check→window→use victims ---------------

/// The record of the rpm, sendmail and generic victims, taken from their
/// hand-written programs before the `dsl::library` step lists replaced
/// them. Never re-bless it to make a step list pass.
const VICTIMS_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/victims.txt");

/// The generic victim for `pair` over `/home/user/f` (aux
/// `/home/user/f.aux`) with a 500 µs window, as the `pairs` exhibit runs
/// it; `None` for pairs the simulator cannot express.
fn pair_victim(pair: TocttouPair, seed: u64) -> Option<Box<dyn ProcessLogic>> {
    let window = SimDuration::from_micros(500);
    let steps = library::pair_victim(
        pair,
        &"/home/user/f".into(),
        &"/home/user/f.aux".into(),
        window,
    )?;
    Some(Box::new(DslVictim::new(steps.into(), seed)))
}

/// The rpm install of a `size`-byte helper.
fn rpm_victim(helper: &str, size: u64, seed: u64) -> Box<dyn ProcessLogic> {
    let steps = library::rpm_install(&helper.into(), size);
    Box::new(DslVictim::new(steps.into(), seed))
}

/// The sendmail delivery into `mailbox`.
fn sendmail_victim(mailbox: &str, seed: u64) -> Box<dyn ProcessLogic> {
    let steps = library::sendmail_deliver(&mailbox.into());
    Box::new(DslVictim::new(steps.into(), seed))
}

fn dir(uid: u32) -> InodeMeta {
    InodeMeta {
        uid: Uid(uid),
        gid: Gid(uid),
        mode: 0o755,
    }
}

fn file(uid: u32, mode: u32) -> InodeMeta {
    InodeMeta {
        uid: Uid(uid),
        gid: Gid(uid),
        mode,
    }
}

/// The run's outcome, the FNV of its trace and detection timeline, the
/// detection count and the final clock.
fn run_line(k: &Kernel, outcome: RunOutcome) -> String {
    let mut trace = String::new();
    for rec in k.trace().iter() {
        let _ = writeln!(trace, "{} {:?}", rec.at.as_nanos(), rec.event);
    }
    let mut detections = String::new();
    for rec in k.detections().iter() {
        let _ = writeln!(detections, "{} {}", rec.at.as_nanos(), rec.event);
    }
    format!(
        "{outcome:?} now_ns={} events={} trace={:016x} detections={}:{:016x}",
        k.now().as_nanos(),
        k.trace().len(),
        fnv(trace.as_bytes()),
        k.detections().len(),
        fnv(detections.as_bytes())
    )
}

/// `path`'s final state, not following a final symlink.
fn lstat_line(k: &Kernel, path: &str) -> String {
    match k.vfs().lstat(path) {
        Ok(st) => format!(
            "uid={} mode={:o} size={} symlink={} dir={}",
            st.uid.0, st.mode, st.size, st.is_symlink, st.is_dir
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// The `pairs` exhibit's kernel: `/etc/passwd` and a root-owned
/// `/home/user/f` and `/home/user/f.aux` in the user's home directory.
fn pair_kernel(seed: u64) -> Kernel {
    let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), seed);
    k.vfs_mut().mkdir("/etc", dir(0)).unwrap();
    k.vfs_mut()
        .create_file("/etc/passwd", file(0, 0o644))
        .unwrap();
    k.vfs_mut().mkdir("/home", dir(0)).unwrap();
    k.vfs_mut().mkdir("/home/user", dir(1000)).unwrap();
    k.vfs_mut()
        .create_file("/home/user/f.aux", file(0, 0o644))
        .unwrap();
    k.vfs_mut()
        .create_file("/home/user/f", file(0, 0o644))
        .unwrap();
    k
}

/// The rpm kernel: `/etc/passwd` and a user-owned `/var/tmp`.
fn rpm_kernel(machine: MachineSpec, seed: u64) -> Kernel {
    let mut k = Kernel::new(machine, seed);
    k.vfs_mut().mkdir("/etc", dir(0)).unwrap();
    k.vfs_mut().create_file("/etc/passwd", dir(0)).unwrap();
    k.vfs_mut().mkdir("/var", dir(0)).unwrap();
    k.vfs_mut().mkdir("/var/tmp", dir(1000)).unwrap();
    k
}

/// The sendmail kernel: a 1000-byte `/etc/passwd` and the attacker's
/// 100-byte mailbox `/var/mail/attacker`.
fn sendmail_kernel(seed: u64) -> Kernel {
    let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), seed);
    k.vfs_mut().mkdir("/etc", dir(0)).unwrap();
    let pw = k
        .vfs_mut()
        .create_file("/etc/passwd", file(0, 0o644))
        .unwrap();
    k.vfs_mut().append(pw, 1000).unwrap();
    k.vfs_mut().mkdir("/var", dir(0)).unwrap();
    k.vfs_mut().mkdir("/var/mail", dir(1000)).unwrap();
    let mb = k
        .vfs_mut()
        .create_file("/var/mail/attacker", file(1000, 0o600))
        .unwrap();
    k.vfs_mut().append(mb, 100).unwrap();
    k
}

/// Spawns attacker v1 against `target`, swapping in a link to
/// `/etc/passwd`.
fn spawn_v1(k: &mut Kernel, target: &str, seed: u64) {
    let atk = library::attacker_v1(&target.into(), &"/etc/passwd".into());
    k.spawn(
        "attacker",
        Uid(1000),
        Gid(1000),
        false,
        Box::new(DslAttacker::new(Arc::new(atk), seed)),
    );
}

/// The mailbox owner flipping its mailbox between a symlink to
/// `/etc/passwd` and a regular file, forever.
struct Flipper {
    phase: u8,
}

impl ProcessLogic for Flipper {
    fn next_action(&mut self, _ctx: &LogicCtx, _last: Option<&SyscallResult>) -> Action {
        let mailbox: Arc<str> = "/var/mail/attacker".into();
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

/// The full record: one traced round per runnable pair on the `pairs`
/// exhibit's kernel, attacked rpm installs across machines, load, EDGI
/// and helper sizes, and sendmail deliveries benign, against a
/// pre-planted link and against the flipper.
fn victims_record() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# The rpm, sendmail and generic check->window->use victims, recorded\n\
         # from their hand-written programs. Per run: the kernel's outcome,\n\
         # final clock, trace length and FNV, detection count and FNV; then\n\
         # the final state of the files the run is about."
    );
    let _ = writeln!(s, "[pairs]");
    for pair in enumerate_pairs() {
        for seed in SEEDS {
            let mut k = pair_kernel(seed);
            let Some(victim) = pair_victim(pair, seed) else {
                continue;
            };
            let vpid = k.spawn("victim", Uid::ROOT, Gid::ROOT, true, victim);
            spawn_v1(&mut k, "/home/user/f", seed);
            let outcome = k.run_until_exit(vpid, SimTime::from_secs(1));
            let passwd = k.vfs().stat("/etc/passwd").unwrap();
            let planted = k.vfs().lstat("/home/user/f").is_ok_and(|st| st.is_symlink);
            let _ = writeln!(
                s,
                "{pair} seed={seed:#x} {} passwd={}:{:o} planted={planted}",
                run_line(&k, outcome),
                passwd.uid.0,
                passwd.mode
            );
        }
    }
    let _ = writeln!(s, "[rpm]");
    for (name, machine) in [
        ("uni", MachineSpec::uniprocessor()),
        ("smp", MachineSpec::smp_xeon()),
    ] {
        for quiet in [true, false] {
            for edgi in [false, true] {
                for size in [0, 4096, 8192, 200 * 1024] {
                    for seed in SEEDS {
                        let m = if quiet {
                            machine.clone().quiet()
                        } else {
                            machine.clone()
                        };
                        let mut k = rpm_kernel(m, seed);
                        if edgi {
                            k.set_defense(DefensePolicy::Edgi);
                        }
                        let victim = rpm_victim("/var/tmp/rpm-helper", size, seed);
                        let vpid = k.spawn("rpm", Uid::ROOT, Gid::ROOT, true, victim);
                        spawn_v1(&mut k, "/var/tmp/rpm-helper", seed ^ 0xFF);
                        let outcome = k.run_until_exit(vpid, SimTime::from_secs(1));
                        let _ = writeln!(
                            s,
                            "{name} quiet={quiet} edgi={edgi} size={size} seed={seed:#x} {} \
                             denials={} passwd=[{}] helper=[{}]",
                            run_line(&k, outcome),
                            k.defense().denials(),
                            lstat_line(&k, "/etc/passwd"),
                            lstat_line(&k, "/var/tmp/rpm-helper")
                        );
                    }
                }
            }
        }
    }
    let _ = writeln!(s, "[sendmail]");
    for case in ["benign", "planted", "flipper"] {
        for seed in 0..25u64 {
            let mut k = sendmail_kernel(seed);
            if case == "planted" {
                k.vfs_mut().unlink_detach("/var/mail/attacker").unwrap();
                k.vfs_mut()
                    .symlink("/etc/passwd", "/var/mail/attacker", (Uid(1000), Gid(1000)))
                    .unwrap();
            }
            let victim = sendmail_victim("/var/mail/attacker", seed);
            let vpid = k.spawn("sendmail", Uid::ROOT, Gid::ROOT, true, victim);
            if case == "flipper" {
                k.spawn(
                    "flipper",
                    Uid(1000),
                    Gid(1000),
                    true,
                    Box::new(Flipper { phase: 0 }),
                );
            }
            let outcome = k.run_until_exit(vpid, SimTime::from_millis(100));
            let _ = writeln!(
                s,
                "{case} seed={seed} {} passwd=[{}] mailbox=[{}]",
                run_line(&k, outcome),
                lstat_line(&k, "/etc/passwd"),
                lstat_line(&k, "/var/mail/attacker")
            );
        }
    }
    s
}

/// The rpm, sendmail and generic victims still produce the record their
/// hand-written programs left: same traces, same detections, same final
/// files.
#[test]
fn hand_written_victims_match_the_parent_golden() {
    let got = victims_record();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(VICTIMS_GOLDEN, &got).expect("write golden record");
        return;
    }
    let want = std::fs::read_to_string(VICTIMS_GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden record {VICTIMS_GOLDEN}: {e}"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "record diverges from {VICTIMS_GOLDEN} at line {}",
            i + 1
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "record length");
}

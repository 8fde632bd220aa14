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
//! [`ScenarioSpec`]: tocttou::workloads::ScenarioSpec

use std::fmt::Write as _;
use tocttou::experiments::figures::{fig11, pair_sweep};
use tocttou::experiments::{run_mc, Family, GridPoint, McConfig};
use tocttou::os::defense::DefensePolicy;
use tocttou::workloads::dsl::library;
use tocttou::workloads::maze::{run_maze_round, vi_uniprocessor_maze};
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
                let r = run_maze_round(&maze, seed + i);
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

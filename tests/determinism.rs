//! Reproducibility guarantees: identical seeds must yield identical
//! results — traces, outcomes and aggregate statistics — across every
//! scenario type. Without this the experiment numbers are not auditable.

use tocttou::experiments::campaign::{run_campaign, CampaignConfig};
use tocttou::experiments::grid::{Family, GridKind};
use tocttou::experiments::monte_carlo::{
    chain_detection_fingerprints, detection_fingerprint_of, DETECTION_FINGERPRINT_SEED,
};
use tocttou::experiments::sweep::{run_sweep, SweepConfig};
use tocttou::experiments::{run_mc, McConfig, McOutcome};
use tocttou::os::kernel::KernelPool;
use tocttou::os::metrics::MetricsSnapshot;
use tocttou::os::{ForensicsSnapshot, OsEvent};
use tocttou::workloads::Scenario;

fn trace_fingerprint(scenario: &Scenario, seed: u64) -> (u64, usize, Vec<String>) {
    let (result, handles) = scenario.run_traced(seed);
    let events: Vec<String> = handles
        .kernel
        .trace()
        .iter()
        .map(|r| format!("{} {:?}", r.at.as_nanos(), r.event))
        .collect();
    (result.success as u64, events.len(), events)
}

#[test]
fn identical_seeds_identical_traces() {
    for scenario in [
        Scenario::vi_smp(1),
        Scenario::gedit_smp(2048),
        Scenario::gedit_multicore_v2(2048),
        Scenario::pipelined_attack(100 * 1024),
    ] {
        let a = trace_fingerprint(&scenario, 0xFEED);
        let b = trace_fingerprint(&scenario, 0xFEED);
        assert_eq!(a.0, b.0, "{}: outcome differs", scenario.name);
        assert_eq!(a.1, b.1, "{}: trace length differs", scenario.name);
        assert_eq!(a.2, b.2, "{}: trace contents differ", scenario.name);
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    let scenario = Scenario::gedit_smp(2048);
    let a = trace_fingerprint(&scenario, 1);
    let b = trace_fingerprint(&scenario, 2);
    assert_ne!(a.2, b.2, "different seeds should perturb the trace");
}

#[test]
fn mc_batches_are_reproducible() {
    let scenario = Scenario::vi_smp(20 * 1024);
    let cfg = McConfig {
        rounds: 25,
        base_seed: 77,
        collect_ld: true,
        jobs: 1,
        cold: false,
    };
    let a = run_mc(&scenario, &cfg);
    let b = run_mc(&scenario, &cfg);
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.l.map(|l| l.mean.to_bits()), b.l.map(|l| l.mean.to_bits()));
    assert_eq!(a.d.map(|d| d.mean.to_bits()), b.d.map(|d| d.mean.to_bits()));
}

/// Regression guard for the parallel engine: `jobs` must never change the
/// outcome. Workers return per-round observations that the caller folds in
/// round order through the same accumulators as the serial path, so the
/// whole `McOutcome` — success counts, trimmed L/D estimates, window
/// stats — must serialize to the exact same bytes at any thread count,
/// with and without L/D collection.
#[test]
fn mc_jobs_never_change_the_outcome() {
    for scenario in [Scenario::vi_smp(20 * 1024), Scenario::gedit_smp(2048)] {
        for collect_ld in [false, true] {
            let base = McConfig {
                rounds: 25,
                base_seed: 0xD15C,
                collect_ld,
                jobs: 1,
                cold: false,
            };
            let serial = serde_json::to_string(&run_mc(&scenario, &base)).unwrap();
            for jobs in [2, 3, 4, 0] {
                let par = serde_json::to_string(&run_mc(&scenario, &base.clone().with_jobs(jobs)))
                    .unwrap();
                assert_eq!(
                    serial, par,
                    "{}: jobs={jobs} (collect_ld={collect_ld}) diverged from serial",
                    scenario.name
                );
            }
        }
    }
}

/// Each worker runs its rounds on its own detached copy of the scenario,
/// so the copies must not change a byte of the outcome: not for the
/// preemption-heavy uniprocessor vi, and not for a DSL scenario whose
/// attackers share path `Arc`s with each other.
#[test]
fn detached_worker_copies_keep_outcomes_jobs_invariant() {
    let contest = tocttou::workloads::dsl::library::swap_contest(2048).compile();
    for scenario in [Scenario::vi_uniprocessor(2048), contest] {
        let cfg = McConfig {
            rounds: 600,
            base_seed: 0xDE7A,
            collect_ld: false,
            jobs: 1,
            cold: false,
        };
        let serial = serde_json::to_string(&run_mc(&scenario, &cfg)).unwrap();
        for jobs in [2, 4] {
            let par =
                serde_json::to_string(&run_mc(&scenario, &cfg.clone().with_jobs(jobs))).unwrap();
            assert_eq!(serial, par, "{}: jobs={jobs} diverged", scenario.name);
        }
    }
}

/// The detection-event stream must be bit-identical across `jobs` values:
/// every round's event count, order and fields are hashed into an
/// order-sensitive fingerprint, the per-round fingerprints are chained in
/// round order, and `run_mc` at any thread count must land on the exact
/// value a hand-rolled serial loop computes. Covers both `collect_ld`
/// modes, since tracing changes the kernel's buffer reuse pattern.
#[test]
fn detection_stream_identical_across_jobs() {
    for scenario in [Scenario::vi_smp(20 * 1024), Scenario::gedit_smp(2048)] {
        for collect_ld in [false, true] {
            let cfg = McConfig {
                rounds: 25,
                base_seed: 0xD15C,
                collect_ld,
                jobs: 1,
                cold: false,
            };
            // Serial reference: rebuild each round exactly as run_mc does
            // (pooled buffers, per-round seeds) and chain the stream
            // fingerprints by hand.
            let template = scenario.template_vfs();
            let mut pool = KernelPool::new();
            let mut expected = DETECTION_FINGERPRINT_SEED;
            let mut expected_flagged = 0u64;
            for i in 0..cfg.rounds {
                let seed = cfg.base_seed.wrapping_add(i);
                let mut handles = scenario.build_pooled(seed, collect_ld, &template, pool);
                scenario.finish_round(&mut handles);
                let det = handles.kernel.detections();
                expected_flagged += u64::from(!det.is_empty());
                expected = chain_detection_fingerprints(expected, detection_fingerprint_of(det));
                pool = handles.kernel.recycle();
            }
            assert_ne!(
                expected, DETECTION_FINGERPRINT_SEED,
                "{}: reference stream must not be empty",
                scenario.name
            );
            for jobs in [1, 2, 4, 0] {
                let out = run_mc(&scenario, &cfg.clone().with_jobs(jobs));
                assert_eq!(
                    out.detection_fingerprint, expected,
                    "{}: jobs={jobs} (collect_ld={collect_ld}) detection stream diverged",
                    scenario.name
                );
                assert_eq!(
                    out.flagged_rounds, expected_flagged,
                    "{}: jobs={jobs} (collect_ld={collect_ld}) flagged-round count diverged",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn trace_is_chronological_and_complete() {
    let scenario = Scenario::gedit_smp(2048);
    let (_, handles) = scenario.run_traced(42);
    let trace = handles.kernel.trace();
    let mut last = 0u64;
    let mut spawns = 0;
    let mut exits = 0;
    for r in trace.iter() {
        assert!(r.at.as_nanos() >= last, "trace out of order");
        last = r.at.as_nanos();
        match r.event {
            OsEvent::Spawn { .. } => spawns += 1,
            OsEvent::Exit { .. } => exits += 1,
            _ => {}
        }
    }
    assert_eq!(spawns, 2, "victim + attacker spawned");
    assert!(exits >= 1, "at least the victim exits");
    // Every syscall enter has a matching exit for exited processes.
    let enters = trace
        .iter()
        .filter(|r| matches!(r.event, OsEvent::SyscallEnter { .. }))
        .count();
    let exits_sc = trace
        .iter()
        .filter(|r| matches!(r.event, OsEvent::SyscallExit { .. }))
        .count();
    assert!(
        enters >= exits_sc && enters - exits_sc <= 2,
        "balanced syscall events: {enters} enters, {exits_sc} exits"
    );
}

/// What a batch of rounds adds up to, in the terms every driver reports.
#[derive(Debug, PartialEq)]
struct Totals {
    successes: u64,
    fingerprint: u64,
    metrics: MetricsSnapshot,
    forensics: ForensicsSnapshot,
}

impl Totals {
    fn of(out: &McOutcome) -> Self {
        Totals {
            successes: out.successes,
            fingerprint: out.detection_fingerprint,
            metrics: out.metrics.clone(),
            forensics: out.forensics.clone(),
        }
    }
}

/// The naive serial loop: a fresh `Scenario::build` per seed, no kernel
/// pool, no template, no checkpoint and no worker pool.
fn reference_loop(scenario: &Scenario, base_seed: u64, rounds: u64) -> Totals {
    let mut t = Totals {
        successes: 0,
        fingerprint: DETECTION_FINGERPRINT_SEED,
        metrics: MetricsSnapshot::default(),
        forensics: ForensicsSnapshot::default(),
    };
    for i in 0..rounds {
        let mut h = scenario.build(base_seed.wrapping_add(i), false);
        t.successes += u64::from(scenario.finish_round(&mut h).success);
        let fp = detection_fingerprint_of(h.kernel.detections());
        t.fingerprint = chain_detection_fingerprints(t.fingerprint, fp);
        t.metrics.merge(&h.kernel.metrics().snapshot());
        t.forensics.merge(&h.kernel.forensics().snapshot());
    }
    t
}

/// Every driver against a loop that shares none of their code: `run_mc`
/// at two `jobs` values, each `run_sweep` point and each point of the
/// matching campaign aggregate must add up to what fresh, unpooled rounds
/// do — successes, the chained detection fingerprint, and the summed
/// metrics and forensics.
#[test]
fn drivers_match_an_independent_reference_loop() {
    let (rounds, base_seed) = (20u64, 0x5EED);
    let grid = GridKind::D.build(Family::GeditSmp, 2048, 2);
    let sweep = run_sweep(&SweepConfig {
        grid: grid.clone(),
        rounds,
        base_seed,
        collect_ld: false,
        jobs: 2,
        cold: false,
    });
    let store = std::env::temp_dir().join(format!("tocttou-reference-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let campaign = run_campaign(
        &store,
        &CampaignConfig {
            grid: grid.clone(),
            rounds,
            base_seed,
            jobs: 2,
            cold: false,
            block: 7,
            max_blocks: None,
        },
    )
    .unwrap()
    .aggregate
    .expect("a finished campaign aggregates");
    let _ = std::fs::remove_dir_all(&store);

    for (p, point) in grid.points.iter().enumerate() {
        let scenario = point.scenario();
        let seed = base_seed.wrapping_add(point.seed_salt);
        let expected = reference_loop(&scenario, seed, rounds);
        assert!(
            expected.successes > 0,
            "{}: rounds must succeed",
            scenario.name
        );
        assert_ne!(expected.fingerprint, DETECTION_FINGERPRINT_SEED);
        for jobs in [1, 2] {
            let cfg = McConfig {
                rounds,
                base_seed: seed,
                collect_ld: false,
                jobs,
                cold: false,
            };
            let got = Totals::of(&run_mc(&scenario, &cfg));
            assert!(got == expected, "{}: run_mc jobs={jobs}", scenario.name);
        }
        let got = Totals::of(&sweep.points[p].outcome);
        assert!(got == expected, "{}: run_sweep point", scenario.name);
        let got = Totals::of(&campaign.points[p].outcome);
        assert!(got == expected, "{}: campaign point", scenario.name);
    }
}

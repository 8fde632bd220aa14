//! Determinism and oracle contracts of the adaptive rare-event estimator.
//!
//! [`run_estimate`] schedules rounds adaptively — waves, Neyman
//! allocation, milestone-guided splitting — but every decision is a pure
//! function of deterministic tallies, so the serialized
//! [`EstimateOutcome`] must be byte-identical across `--jobs` values,
//! warm/cold boot, and in-memory vs. store-backed vs. resumed execution.
//! And adaptivity must not buy bias: on scenarios where brute force is
//! feasible, the estimate has to land inside the interval of a plain
//! fixed-round [`run_mc`] at an independent seed — the same
//! two-implementations-one-answer shape as the warm/cold and campaign
//! oracles.
//!
//! [`run_estimate`]: tocttou::experiments::estimate::run_estimate
//! [`EstimateOutcome`]: tocttou::experiments::estimate::EstimateOutcome
//! [`run_mc`]: tocttou::experiments::monte_carlo::run_mc

use tocttou::experiments::estimate::{run_estimate, EstimateConfig, EstimateRun};
use tocttou::experiments::monte_carlo::{run_mc, McConfig};
use tocttou::workloads::Scenario;

/// The headline rare-event scenario: uniprocessor vi, 2 KB file, success
/// rate ≈ 1.3e-3 concentrated in the top ~0.8 % of the laxity window.
fn rare_scenario() -> Scenario {
    Scenario::vi_uniprocessor(2048)
}

fn outcome_bytes(run: &EstimateRun) -> String {
    serde_json::to_string(&run.outcome).unwrap()
}

fn estimate_with(jobs: usize, cold: bool, store: Option<std::path::PathBuf>) -> EstimateRun {
    let cfg = EstimateConfig {
        jobs,
        cold,
        store,
        ..EstimateConfig::default()
    };
    run_estimate(&rare_scenario(), &cfg).unwrap()
}

fn fresh_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tocttou-estimate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn outcome_is_byte_identical_across_jobs_and_boot() {
    let reference = estimate_with(1, false, None);
    assert!(reference.outcome.converged, "{}", reference.outcome);
    assert_eq!(reference.cached_rounds, 0);
    assert_eq!(
        reference.computed_rounds,
        reference.outcome.simulated_rounds
    );
    let reference = outcome_bytes(&reference);
    for (jobs, cold) in [(2, false), (4, false), (1, true), (4, true)] {
        let run = estimate_with(jobs, cold, None);
        assert_eq!(
            outcome_bytes(&run),
            reference,
            "jobs {jobs} cold {cold} diverged"
        );
    }
}

#[test]
fn estimate_lands_inside_the_brute_force_oracle_interval() {
    let run = estimate_with(1, false, None);
    let est = &run.outcome;
    assert!(est.converged, "{est}");
    assert!(
        est.rel_half_width.unwrap() <= est.target_rel_half_width,
        "{est}"
    );

    // The oracle: plain fixed-round MC at an unrelated seed. 4 000 rounds
    // is enough for a (wide) interval around a ~1.3e-3 event.
    let oracle = run_mc(
        &rare_scenario(),
        &McConfig {
            rounds: 4_000,
            base_seed: 0x0AC1E,
            jobs: 0,
            ..McConfig::default()
        },
    );
    assert!(oracle.successes > 0, "oracle saw no successes at all");
    let (lo, hi) = oracle.rate_ci95;
    assert!(
        est.rate > lo && est.rate < hi,
        "estimate {:.4e} outside oracle interval [{lo:.4e}, {hi:.4e}]",
        est.rate
    );

    // The whole point of the estimator: the same precision for an order
    // of magnitude fewer rounds than fixed-round MC would need.
    assert!(
        est.efficiency.unwrap() >= 10.0,
        "efficiency collapsed: {est}"
    );
    assert!(est.fixed_rounds_equiv.unwrap() > est.simulated_rounds);
    // Only live strata feed the estimate, and successes concentrate in
    // the high-laxity tail the splitting ladder isolated.
    assert!(est.live_rounds <= est.simulated_rounds);
    assert!(
        est.strata.iter().any(|s| s.retired),
        "no stratum ever split"
    );
    let hot = est
        .strata
        .iter()
        .filter(|s| !s.retired)
        .max_by(|a, b| a.successes.cmp(&b.successes))
        .unwrap();
    assert!(
        hot.lo_ns > 90_000_000,
        "successes should concentrate near full laxity, not {}..{}",
        hot.lo_ns,
        hot.hi_ns
    );
}

#[test]
fn zero_rate_scenarios_exhaust_the_budget_without_converging() {
    // Restrict vi to the dead lower half of its laxity window: the strike
    // can never land, so the true rate is exactly zero and the estimator
    // must run to its budget and say so — with an upper bound, not a
    // two-sided interval around nothing.
    let dead = rare_scenario().restrict_laxity(0, 50_000_000).unwrap();
    let cfg = EstimateConfig {
        max_rounds: 1_500,
        ..EstimateConfig::default()
    };
    let run = run_estimate(&dead, &cfg).unwrap();
    let est = &run.outcome;
    assert!(!est.converged, "{est}");
    assert!(est.simulated_rounds >= cfg.max_rounds);
    assert_eq!(est.rate, 0.0);
    assert_eq!(est.rel_half_width, None);
    assert_eq!(est.ci95.0, 0.0);
    assert!(
        est.ci95.1 > 0.0 && est.ci95.1 < 0.01,
        "pooled exact upper bound: {:?}",
        est.ci95
    );
    assert_eq!(est.fixed_rounds_equiv, None, "no finite baseline at rate 0");
    // The zero outcome serializes cleanly (no NaN/Infinity in the JSON).
    let text = serde_json::to_string(est).unwrap();
    assert!(text.contains("\"rel_half_width\":null"), "{text}");
}

#[test]
fn store_runs_replay_and_resume_byte_identically() {
    let reference = estimate_with(1, false, None);
    let reference_bytes = outcome_bytes(&reference);

    // Fresh store: everything computed, nothing cached.
    let store = fresh_store("replay");
    let first = estimate_with(1, false, Some(store.clone()));
    assert_eq!(outcome_bytes(&first), reference_bytes);
    assert_eq!(first.cached_rounds, 0);
    assert_eq!(first.computed_rounds, first.outcome.simulated_rounds);

    // Unchanged re-run: a pure replay, even at another job count and
    // boot mode — the store carries the rounds, not the schedule.
    let replay = estimate_with(4, true, Some(store.clone()));
    assert_eq!(outcome_bytes(&replay), reference_bytes);
    assert_eq!(replay.computed_rounds, 0, "replay recomputed rounds");
    assert_eq!(replay.cached_rounds, replay.outcome.simulated_rounds);
    std::fs::remove_dir_all(&store).unwrap();

    // Interrupted run: a small budget leaves a valid partial store; the
    // full-budget run resumes from it and matches the in-memory bytes.
    let store = fresh_store("resume");
    let partial = run_estimate(
        &rare_scenario(),
        &EstimateConfig {
            max_rounds: 600,
            store: Some(store.clone()),
            ..EstimateConfig::default()
        },
    )
    .unwrap();
    assert!(!partial.outcome.converged);
    let resumed = estimate_with(1, false, Some(store.clone()));
    assert_eq!(outcome_bytes(&resumed), reference_bytes);
    assert!(
        resumed.cached_rounds >= partial.outcome.simulated_rounds,
        "resume reused only {} of {} stored rounds",
        resumed.cached_rounds,
        partial.outcome.simulated_rounds
    );
    assert!(resumed.computed_rounds > 0);
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn block_size_shapes_store_records_only() {
    // Memory mode runs every wave round by round whatever `block` says;
    // store mode cuts the same rounds into records of `block` rounds. One
    // record per round and one record per stratum share must both give
    // the memory-mode bytes, from a fresh store and from one with every
    // other record deleted, where each wave mixes blocks read back from
    // the store with blocks counted as they are written.
    let reference = outcome_bytes(&estimate_with(1, false, None));
    for block in [1, 1_000] {
        let store = fresh_store(&format!("block-{block}"));
        let cfg = EstimateConfig {
            block,
            store: Some(store.clone()),
            ..EstimateConfig::default()
        };
        let run = run_estimate(&rare_scenario(), &cfg).unwrap();
        assert_eq!(outcome_bytes(&run), reference, "store block {block}");
        assert_eq!(run.cached_rounds, 0, "a fresh store has nothing cached");

        let path = store.join("blocks.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: String = text
            .lines()
            .step_by(2)
            .map(|line| format!("{line}\n"))
            .collect();
        std::fs::write(&path, kept).unwrap();
        let resumed = run_estimate(&rare_scenario(), &EstimateConfig { jobs: 2, ..cfg }).unwrap();
        assert_eq!(
            outcome_bytes(&resumed),
            reference,
            "partly cached block {block}"
        );
        assert!(
            resumed.cached_rounds > 0 && resumed.computed_rounds > 0,
            "block {block}"
        );
        assert_eq!(
            resumed.cached_rounds + resumed.computed_rounds,
            resumed.outcome.simulated_rounds
        );
        std::fs::remove_dir_all(&store).unwrap();
    }
}

#[test]
fn common_events_converge_fast_with_exact_intervals() {
    // vi on the 2-way SMP succeeds near-certainly; every stratum sits
    // at p̂ = 1, the plug-in variance collapses, and the estimator must
    // fall back to the exact pooled interval instead of claiming [1, 1].
    let run = run_estimate(&Scenario::vi_smp(102_400), &EstimateConfig::default()).unwrap();
    let est = &run.outcome;
    assert!(est.converged, "{est}");
    assert!(est.rate > 0.9, "{est}");
    assert!(est.ci95.1 <= 1.0);
    assert!(
        est.ci95.0 < 1.0,
        "an interval claiming certainty from {} rounds: {:?}",
        est.simulated_rounds,
        est.ci95
    );
    assert!(
        est.simulated_rounds <= 1_024,
        "a near-certain event should stop within the first waves: {est}"
    );
}

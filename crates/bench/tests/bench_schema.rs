//! Schema test for the committed `BENCH_monte_carlo.json` baseline.
//!
//! CI used to sanity-check the baseline with a handful of `grep`s; this
//! test owns that contract instead, so a bench refactor that drops a row,
//! renames a field, or records a broken identity bit fails `cargo test`
//! everywhere — not just on the runner that happens to grep for it. It
//! validates the committed file, not a fresh bench run: the timing rows
//! only need to exist and be plausible, while every byte-identity bit the
//! benches assert at measurement time must have been recorded as `true`.

use serde_json::Value;

fn baseline() -> Value {
    let path = format!(
        "{}/../../BENCH_monte_carlo.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read the committed baseline {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"))
}

/// Walks a `.`-separated path, panicking with the full path on a miss.
fn field<'a>(root: &'a Value, path: &str) -> &'a Value {
    let mut v = root;
    for comp in path.split('.') {
        v = v
            .get(comp)
            .unwrap_or_else(|| panic!("baseline is missing required field `{path}` (at `{comp}`)"));
    }
    v
}

fn number(root: &Value, path: &str) -> f64 {
    field(root, path)
        .as_f64()
        .unwrap_or_else(|| panic!("baseline field `{path}` is not a number"))
}

fn flag(root: &Value, path: &str) -> bool {
    match field(root, path) {
        Value::Bool(b) => *b,
        _ => panic!("baseline field `{path}` is not a boolean"),
    }
}

#[test]
fn baseline_has_every_report_row() {
    let doc = baseline();
    // One probe per row of the bench's `Report`; nested fields pin the
    // row shapes the README and CI quote.
    for path in [
        "scenario",
        "rounds",
        "base_seed",
        "host_cpus",
        "note",
        "jobs_ladder",
        "fresh_per_round.allocs_per_round",
        "pooled_engine.rounds_per_sec",
        "pooled_vs_fresh_speedup",
        "dsl_compile.compile_us",
        "detector_overhead.overhead_frac",
        "metrics_overhead.overhead_frac",
        "forensics_overhead.overhead_frac",
        "forensics_overhead.spans_on_rounds_per_sec",
        "checkpoint.warm_vs_cold_speedup",
        "checkpoint.prefix_frac_of_cold_round",
        "sweep_throughput.sweep_points_per_sec",
        "sweep_throughput.template_fork.fork_vs_rebuild_speedup",
        "sweep_throughput.queue_micro.kernel_depth.queue_mops_per_sec",
        "sweep_throughput.queue_micro.large_depth.queue_mops_per_sec",
        "campaign.block",
        "campaign.cold_store_secs",
        "campaign.warm_cache_secs",
        "estimator.target_rel_half_width",
        "estimator.rate",
        "estimator.simulated_rounds",
        "estimator.fixed_rounds_equiv",
        "estimator.sample_efficiency",
        "estimator.estimate_secs",
        "vfs_resolve.v2_warm_stat_ns",
        "vfs_resolve.warm_vs_v1_speedup",
        "preopt_baseline_rounds_per_sec",
        "speedup_vs_preopt_baseline",
    ] {
        field(&doc, path);
    }
}

#[test]
fn jobs_ladder_rows_are_complete_and_byte_identical() {
    let doc = baseline();
    let Value::Array(ladder) = field(&doc, "jobs_ladder") else {
        panic!("jobs_ladder is not an array");
    };
    assert!(
        !ladder.is_empty(),
        "jobs_ladder must carry at least one row"
    );
    for (i, row) in ladder.iter().enumerate() {
        for key in ["jobs", "effective_jobs", "host_cpus", "rounds_per_sec"] {
            assert!(
                row.get(key).is_some(),
                "jobs_ladder[{i}] is missing `{key}`"
            );
        }
        match row.get("outcome_bytes_identical_to_serial") {
            Some(Value::Bool(true)) => {}
            other => panic!("jobs_ladder[{i}] identity bit must be true, got {other:?}"),
        }
    }
}

/// Every identity bit the benches assert at measurement time must have
/// been recorded as `true` — a committed baseline carrying `false` means
/// someone edited the file by hand.
#[test]
fn recorded_identity_bits_are_all_true() {
    let doc = baseline();
    for path in [
        "dsl_compile.outcome_bytes_identical_to_hand_written",
        "checkpoint.outcome_bytes_identical_to_cold",
        "sweep_throughput.outcomes_bytes_identical_to_run_mc",
        "campaign.aggregate_bytes_identical_to_sweep",
        "estimator.converged",
        "estimator.inside_oracle_interval",
    ] {
        assert!(flag(&doc, path), "baseline records `{path}` as false");
    }
}

/// The estimator row's recorded figures must meet the target the bench
/// asserts on every host: the adaptive schedule reaching the target
/// half-width with >= 10x fewer simulated rounds than a fixed-round
/// Wilson interval needs. Sample efficiency is a property of the
/// schedule, not the machine, so this is deliberately NOT gated on
/// `host_cpus`.
#[test]
fn estimator_row_meets_its_recorded_targets() {
    let doc = baseline();
    let efficiency = number(&doc, "estimator.sample_efficiency");
    assert!(
        efficiency >= 10.0,
        "recorded sample efficiency x{efficiency:.1} is below the 10x target"
    );
    let simulated = number(&doc, "estimator.simulated_rounds");
    let fixed = number(&doc, "estimator.fixed_rounds_equiv");
    assert!(simulated >= 1.0 && fixed >= 1.0);
    assert!(
        (efficiency - fixed / simulated).abs() < 1e-9,
        "recorded efficiency {efficiency} does not match {fixed}/{simulated}"
    );
    let target = number(&doc, "estimator.target_rel_half_width");
    assert!(target > 0.0 && target < 1.0);
    let rate = number(&doc, "estimator.rate");
    assert!(
        number(&doc, "estimator.ci95_lo") <= rate && rate <= number(&doc, "estimator.ci95_hi"),
        "recorded rate escapes its own interval"
    );
}

/// The campaign row's recorded figures must meet the targets the bench
/// asserts on every host: a fully-cached rerun >= 5x the cold store build
/// (cache hits skip the simulation, so this is core-count independent),
/// and 4x the stored rounds growing the streaming-aggregation peak by
/// less than 3x.
#[test]
fn campaign_row_meets_its_recorded_targets() {
    let doc = baseline();
    let speedup = number(&doc, "campaign.warm_vs_cold_cache_speedup");
    assert!(
        speedup >= 5.0,
        "recorded warm-cache speedup x{speedup:.2} is below the 5x target"
    );
    let growth = number(&doc, "campaign.peak_growth_ratio");
    assert!(
        growth < 3.0,
        "recorded replay-peak growth x{growth:.2} is not flat"
    );
    let small = number(&doc, "campaign.peak_small.rounds_per_point");
    let large = number(&doc, "campaign.peak_large.rounds_per_point");
    assert_eq!(large, small * 4.0, "the peak rows compare 1x vs 4x rounds");
    assert!(number(&doc, "campaign.block") >= 1.0);
    assert!(number(&doc, "campaign.cold_store_secs") > 0.0);
    assert!(number(&doc, "campaign.warm_cache_secs") > 0.0);
}

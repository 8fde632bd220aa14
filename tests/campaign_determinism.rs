//! Campaign-vs-sweep oracle: a campaign's streamed, store-backed aggregate
//! must serialize byte-for-byte identically to the one-shot in-memory
//! [`run_sweep`] on the same grid — across `--jobs` values, warm/cold boot,
//! interrupted-and-resumed runs and pure cache replays. The sweep engine is
//! the oracle in the same spirit as the warm/cold and queue/heap pairs:
//! two implementations, one set of bytes.

use tocttou::experiments::campaign::{run_campaign, CampaignConfig};
use tocttou::experiments::grid::{Family, GridKind};
use tocttou::experiments::sweep::{run_sweep, SweepConfig};

/// A small but non-trivial grid: 4 detection-period scales of the SMP
/// gedit family, 15 rounds each, split into uneven seed blocks (6, 6, 3).
fn campaign_cfg(jobs: usize, cold: bool) -> CampaignConfig {
    CampaignConfig {
        grid: GridKind::D.build(Family::GeditSmp, 2048, 4),
        rounds: 15,
        base_seed: 0xCA4C,
        jobs,
        cold,
        block: 6,
        max_blocks: None,
    }
}

fn sweep_oracle_bytes() -> String {
    let cfg = campaign_cfg(1, false);
    let outcome = run_sweep(&SweepConfig {
        grid: cfg.grid,
        rounds: cfg.rounds,
        base_seed: cfg.base_seed,
        collect_ld: false,
        jobs: 1,
        cold: false,
    });
    serde_json::to_string(&outcome).unwrap()
}

fn fresh_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tocttou-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn campaign_matches_sweep_across_jobs_and_boot_modes() {
    let oracle = sweep_oracle_bytes();
    for jobs in [1usize, 4] {
        for cold in [false, true] {
            let store = fresh_store(&format!("matrix-{jobs}-{cold}"));
            let outcome = run_campaign(&store, &campaign_cfg(jobs, cold)).unwrap();
            assert_eq!(outcome.computed_blocks, outcome.total_blocks);
            let aggregate = outcome.aggregate.expect("complete store aggregates");
            assert_eq!(
                serde_json::to_string(&aggregate).unwrap(),
                oracle,
                "jobs={jobs} cold={cold} must reproduce the sweep bytes"
            );
            let _ = std::fs::remove_dir_all(&store);
        }
    }
}

#[test]
fn interrupted_campaign_resumes_to_the_oracle_bytes() {
    let oracle = sweep_oracle_bytes();
    let store = fresh_store("resume");

    // Warm serial start, stopped after 3 of 12 blocks.
    let partial = run_campaign(
        &store,
        &CampaignConfig {
            max_blocks: Some(3),
            ..campaign_cfg(1, false)
        },
    )
    .unwrap();
    assert_eq!(partial.total_blocks, 12);
    assert_eq!(partial.computed_blocks, 3);
    assert!(
        partial.aggregate.is_none(),
        "incomplete stores don't aggregate"
    );

    // Cold parallel resume: different jobs and boot mode, same bytes —
    // neither is part of the cache key, by design.
    let resumed = run_campaign(&store, &campaign_cfg(4, true)).unwrap();
    assert_eq!(resumed.cached_blocks, 3);
    assert_eq!(resumed.computed_blocks, 9);
    assert_eq!(
        serde_json::to_string(&resumed.aggregate.unwrap()).unwrap(),
        oracle
    );

    // Warm-cache replay: nothing recomputes, bytes unchanged.
    let replay = run_campaign(&store, &campaign_cfg(1, false)).unwrap();
    assert_eq!(replay.computed_blocks, 0);
    assert_eq!(replay.cached_blocks, 12);
    assert_eq!(
        serde_json::to_string(&replay.aggregate.unwrap()).unwrap(),
        oracle
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn changed_seed_invalidates_every_cached_block() {
    let store = fresh_store("invalidate");
    let first = run_campaign(&store, &campaign_cfg(1, false)).unwrap();
    assert_eq!(first.computed_blocks, 12);

    // A different base seed means different per-round seeds, so every key
    // changes and nothing is served from cache — while the old records
    // stay inert in the store.
    let reseeded = run_campaign(
        &store,
        &CampaignConfig {
            base_seed: 0xDEAD,
            ..campaign_cfg(1, false)
        },
    )
    .unwrap();
    assert_eq!(reseeded.cached_blocks, 0);
    assert_eq!(reseeded.computed_blocks, 12);

    // And the original config still replays its own blocks untouched.
    let replay = run_campaign(&store, &campaign_cfg(1, false)).unwrap();
    assert_eq!(replay.cached_blocks, 12);
    assert_eq!(replay.computed_blocks, 0);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn block_size_changes_keys_but_not_bytes() {
    let oracle = sweep_oracle_bytes();
    let store = fresh_store("blocksize");
    let coarse = run_campaign(&store, &campaign_cfg(2, false)).unwrap();
    let coarse_bytes = serde_json::to_string(&coarse.aggregate.unwrap()).unwrap();
    assert_eq!(coarse_bytes, oracle);

    // A different block partition addresses different ranges, so the old
    // blocks don't match — but the re-aggregated bytes are identical: the
    // partition is a scheduling detail, not part of the result.
    let fine = run_campaign(
        &store,
        &CampaignConfig {
            block: 5,
            ..campaign_cfg(2, false)
        },
    )
    .unwrap();
    assert_eq!(fine.cached_blocks, 0, "different bounds, different keys");
    assert_eq!(
        serde_json::to_string(&fine.aggregate.unwrap()).unwrap(),
        oracle
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn empty_campaign_aggregates_to_the_sweep_bytes() {
    let cfg = CampaignConfig {
        rounds: 0,
        ..campaign_cfg(2, false)
    };
    let oracle = run_sweep(&SweepConfig {
        grid: cfg.grid.clone(),
        rounds: 0,
        base_seed: cfg.base_seed,
        collect_ld: false,
        jobs: 1,
        cold: false,
    });
    let store = fresh_store("empty");
    let outcome = run_campaign(&store, &cfg).unwrap();
    assert_eq!(outcome.total_blocks, 0);
    assert_eq!(
        serde_json::to_string(&outcome.aggregate.expect("nothing is missing")).unwrap(),
        serde_json::to_string(&oracle).unwrap()
    );
    let _ = std::fs::remove_dir_all(&store);
}

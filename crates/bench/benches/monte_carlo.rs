//! The asserted overhead and speedup gates that no test or perfbench
//! metric holds yet. Each row prints one line; nothing is written to disk.
//!
//! * **detector**, **metrics**, **forensics**, **spans** — a 500-round
//!   pooled `vi_smp(100 KiB)` batch at `jobs = 0` against the same batch
//!   with one observer stripped (`without_detector`, `without_metrics`,
//!   `without_forensics`) or span tracing armed (`with_spans`). Metrics
//!   must cost ≤5% on every host, forensics ≤5% on multi-core hosts; the
//!   detector and spans rows are reported with no budget.
//! * **campaign** — a warm-cache replay of an 8-point gedit D-grid
//!   campaign must be ≥5× faster than building its store from nothing, on
//!   every host (a cache hit skips the simulation entirely).
//! * **vfs** — a warm `stat` of a deep path on the interned v2 resolver
//!   must be ≥1.5× faster than the retired v1 string walk
//!   (`vfs::oracle::PathVfs`), on multi-core hosts.
//!
//! Every row runs before any budget is checked, so one failed gate still
//! prints the others. Timing is best-of-N with the repetitions interleaved
//! across the configurations being compared.
//!
//! ```text
//! cargo bench -p tocttou-bench --bench monte_carlo
//! ```

use std::time::Instant;
use tocttou_experiments::campaign::{run_campaign, CampaignConfig};
use tocttou_experiments::grid::{Family, GridKind};
use tocttou_experiments::monte_carlo::{run_mc, McConfig};
use tocttou_os::vfs::{oracle::PathVfs, InodeMeta, Vfs};
use tocttou_os::{Gid, Uid};
use tocttou_workloads::scenario::Scenario;

/// Rounds per batch, matching the paper's Figure 6 sample size.
const ROUNDS: u64 = 500;
/// Timed repetitions per observer configuration (best-of).
const REPS: usize = 30;
/// vi file size for the observer rows.
const FILE_SIZE: u64 = 100 * 1024;
/// Base seed for every batch (identical work across configurations).
const BASE_SEED: u64 = 0xBE5C;

/// Best-of-`reps` wall time for each closure, with the repetitions
/// interleaved across closures (rep 0 of every config, then rep 1, ...)
/// so a noisy stretch on a shared host penalizes all configurations
/// equally instead of whichever one it happened to land on.
fn best_of_interleaved(reps: usize, fs: &mut [Box<dyn FnMut() + '_>]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; fs.len()];
    for _ in 0..reps {
        for (i, f) in fs.iter_mut().enumerate() {
            let t = Instant::now();
            f();
            best[i] = best[i].min(t.elapsed().as_secs_f64());
        }
    }
    best
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut failed: Vec<String> = Vec::new();

    // --- Observer overheads: the default machine against a twin with one
    // observer stripped (or spans armed). Observers never perturb
    // simulated time, so only wall time differs.
    let machine = Scenario::vi_smp(FILE_SIZE).machine;
    let variants = [
        machine.clone(),
        machine.clone().without_detector(),
        machine.clone().without_metrics(),
        machine.clone().without_forensics(),
        machine.with_spans(),
    ];
    let scenarios: Vec<Scenario> = variants
        .into_iter()
        .map(|m| {
            let mut s = Scenario::vi_smp(FILE_SIZE);
            s.machine = m;
            s
        })
        .collect();
    let cfg = McConfig {
        rounds: ROUNDS,
        base_seed: BASE_SEED,
        jobs: 0,
        ..McConfig::default()
    };
    let mut timed: Vec<Box<dyn FnMut() + '_>> = scenarios
        .iter()
        .map(|s| {
            let cfg = &cfg;
            Box::new(move || {
                std::hint::black_box(run_mc(s, cfg));
            }) as Box<dyn FnMut() + '_>
        })
        .collect();
    let secs = best_of_interleaved(REPS, &mut timed);
    drop(timed);
    let rps = |s: f64| ROUNDS as f64 / s;
    let on = secs[0];
    for (name, off) in [
        ("detector", secs[1]),
        ("metrics", secs[2]),
        ("forensics", secs[3]),
    ] {
        println!(
            "mc/{name:<9} jobs=0 on {:>10.0} rounds/s, off {:>10.0} rounds/s  (overhead {:+.1}%)",
            rps(on),
            rps(off),
            (on / off - 1.0) * 100.0
        );
    }
    println!(
        "mc/spans     jobs=0 on {:>10.0} rounds/s, armed {:>8.0} rounds/s",
        rps(on),
        rps(secs[4])
    );
    let metrics_overhead = on / secs[2] - 1.0;
    if metrics_overhead > 0.05 {
        failed.push(format!(
            "kernel metrics exceed their 5% overhead budget: {:+.1}%",
            metrics_overhead * 100.0
        ));
    }
    // A few percentage points of differential is below the day-to-day
    // measurement floor of a shared single-core box (the same unchanged
    // tree has measured this row anywhere from +1.4% to +6.4% across
    // sessions), so the forensics budget only gates on multi-core hosts.
    let forensics_overhead = on / secs[3] - 1.0;
    if host_cpus > 1 && forensics_overhead > 0.05 {
        failed.push(format!(
            "window forensics exceed their 5% overhead budget: {:+.1}%",
            forensics_overhead * 100.0
        ));
    } else if host_cpus == 1 {
        println!("mc/forensics single-CPU host: 5% budget not checked");
    }

    // --- Campaign cache: cold = delete the store and recompute every
    // block; warm = rerun on the fully-cached store, which pays only the
    // scan and the streamed aggregation.
    let campaign_cfg = CampaignConfig {
        grid: GridKind::D.build(Family::GeditSmp, 2048, 8),
        rounds: 120,
        base_seed: 0x5EE9,
        jobs: 0,
        block: 30,
        ..CampaignConfig::default()
    };
    let store = std::env::temp_dir().join(format!("tocttou-bench-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut camp_timed: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            let _ = std::fs::remove_dir_all(&store);
            std::hint::black_box(run_campaign(&store, &campaign_cfg).unwrap());
        }),
        // Each cold rep above leaves a fully-populated store behind, so
        // the interleaved rep here is always a pure cache replay.
        Box::new(|| {
            std::hint::black_box(run_campaign(&store, &campaign_cfg).unwrap());
        }),
    ];
    let camp_secs = best_of_interleaved(5, &mut camp_timed);
    drop(camp_timed);
    let _ = std::fs::remove_dir_all(&store);
    let campaign_speedup = camp_secs[0] / camp_secs[1];
    println!(
        "mc/campaign  cold {:.3} s, warm-cache {:.3} s  (x{campaign_speedup:.1})",
        camp_secs[0], camp_secs[1]
    );
    if campaign_speedup < 5.0 {
        failed.push(format!(
            "a fully-cached campaign rerun should be >=5x faster than the cold \
             store build on any host, got x{campaign_speedup:.2}"
        ));
    }

    // --- VFS resolution: one deep path stat'ed on the warm interned v2
    // resolver against the v1 component-by-component string walk.
    const DEEP_COMPS: [&str; 7] = ["v0", "v1", "v2", "v3", "v4", "v5", "v6"];
    const DEEP_PATH: &str = "/v0/v1/v2/v3/v4/v5/v6/leaf";
    const STAT_ITERS: u64 = 200_000;
    let root_meta = InodeMeta {
        uid: Uid::ROOT,
        gid: Gid::ROOT,
        mode: 0o755,
    };
    let mut v2 = Vfs::new();
    let mut v1 = PathVfs::new();
    let mut prefix = String::new();
    for comp in DEEP_COMPS {
        prefix.push('/');
        prefix.push_str(comp);
        v2.mkdir(&prefix, root_meta).unwrap();
        v1.mkdir(&prefix, root_meta).unwrap();
    }
    v2.create_file(DEEP_PATH, root_meta).unwrap();
    v1.create_file(DEEP_PATH, root_meta).unwrap();
    // The steady state the engine runs in: path interned and the
    // full-path split cached at template-build time.
    v2.warm_path(DEEP_PATH);
    v2.freeze();
    let mut stat_timed: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            for _ in 0..STAT_ITERS {
                std::hint::black_box(v2.stat(DEEP_PATH)).unwrap();
            }
        }),
        Box::new(|| {
            for _ in 0..STAT_ITERS {
                std::hint::black_box(v1.stat(DEEP_PATH)).unwrap();
            }
        }),
    ];
    let stat_secs = best_of_interleaved(10, &mut stat_timed);
    drop(stat_timed);
    let v2_ns = stat_secs[0] / STAT_ITERS as f64 * 1e9;
    let v1_ns = stat_secs[1] / STAT_ITERS as f64 * 1e9;
    let warm_vs_v1 = v1_ns / v2_ns;
    println!(
        "mc/vfs       warm stat {v2_ns:>7.1} ns vs v1 walk {v1_ns:>7.1} ns  (x{warm_vs_v1:.2})"
    );
    if host_cpus > 1 && warm_vs_v1 < 1.5 {
        failed.push(format!(
            "warm interned resolution should be >=1.5x the v1 string walk on the \
             deep-path microbench, got x{warm_vs_v1:.2}"
        ));
    } else if host_cpus == 1 {
        println!("mc/vfs       single-CPU host: 1.5x floor not checked");
    }

    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

//! The four workloads: their inputs, their set-up, one driver call each,
//! the checks on a call's output, and the rounds a call simulated.

use crate::alloc;
use crate::replay::{RoundSet, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tocttou_experiments::campaign::{run_campaign, CampaignConfig};
use tocttou_experiments::estimate::{run_estimate, EstimateConfig, EstimateOutcome};
use tocttou_experiments::grid::{Family, Grid, GridKind};
use tocttou_experiments::monte_carlo::{run_mc, McConfig, McOutcome, DETECTION_FINGERPRINT_SEED};
use tocttou_experiments::sweep::{run_sweep, SweepConfig, SweepOutcome};
use tocttou_sim::rng::nested_base;
use tocttou_workloads::scenario::Scenario;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ViSmpBatch,
    GeditLdSweep,
    TaxonomyCampaign,
    ViUniEstimate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ViSmpBatch,
        Workload::GeditLdSweep,
        Workload::TaxonomyCampaign,
        Workload::ViUniEstimate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ViSmpBatch => "vi-smp-batch",
            Workload::GeditLdSweep => "gedit-ld-sweep",
            Workload::TaxonomyCampaign => "taxonomy-campaign",
            Workload::ViUniEstimate => "vi-uni-estimate",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one driver call does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub mc_rounds: u64,
    pub sweep_rounds: u64,
    pub campaign_rounds: u64,
    pub campaign_block: u64,
    pub estimate_target: f64,
    pub estimate_max_rounds: u64,
    /// Whether a finished estimate must have met its target.
    pub estimate_must_converge: bool,
}

impl Sizes {
    /// The measured sizes: each call takes a few tenths of a second on a
    /// current x86-64 core, so a run holds many calls.
    pub const FULL: Sizes = Sizes {
        mc_rounds: 10_000,
        sweep_rounds: 1_000,
        campaign_rounds: 1_000,
        campaign_block: 100,
        estimate_target: 0.15,
        estimate_max_rounds: 50_000,
        estimate_must_converge: true,
    };

    /// Tiny sizes for the smoke test and for cross-path checks.
    pub const QUICK: Sizes = Sizes {
        mc_rounds: 300,
        sweep_rounds: 20,
        campaign_rounds: 20,
        campaign_block: 10,
        estimate_target: 0.1,
        estimate_max_rounds: 600,
        estimate_must_converge: false,
    };
}

/// A workload's inputs, ready for driver calls.
pub enum Prepared {
    Mc {
        scenario: Scenario,
        rounds: u64,
    },
    Sweep {
        grid: Grid,
        rounds: u64,
    },
    Campaign {
        grid: Grid,
        rounds: u64,
        block: u64,
        store: PathBuf,
    },
    Estimate {
        scenario: Scenario,
        target: f64,
        max_rounds: u64,
        must_converge: bool,
    },
}

/// One set-up's timings, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: u64,
    pub template: u64,
    pub checkpoint: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Builds the scenarios of a workload plus, for each, the filesystem
/// template and warm checkpoint its driver builds before the first round.
pub fn setup(w: Workload, sizes: &Sizes, store: &Path) -> (Prepared, SetupTimes) {
    let start = Instant::now();
    let (prepared, scenarios) = match w {
        Workload::ViSmpBatch => {
            let scenario = Scenario::vi_smp(100 * 1024);
            let scenarios = vec![scenario.clone()];
            let p = Prepared::Mc {
                scenario,
                rounds: sizes.mc_rounds,
            };
            (p, scenarios)
        }
        Workload::GeditLdSweep => {
            let grid = GridKind::D.build(Family::GeditSmp, 2048, 8);
            let scenarios = grid.points.iter().map(|p| p.scenario()).collect();
            let p = Prepared::Sweep {
                grid,
                rounds: sizes.sweep_rounds,
            };
            (p, scenarios)
        }
        Workload::TaxonomyCampaign => {
            let grid = GridKind::Taxonomy.build(Family::ViSmp, 0, 0);
            let scenarios = grid.points.iter().map(|p| p.scenario()).collect();
            let p = Prepared::Campaign {
                grid,
                rounds: sizes.campaign_rounds,
                block: sizes.campaign_block,
                store: store.to_path_buf(),
            };
            (p, scenarios)
        }
        Workload::ViUniEstimate => {
            let scenario = Scenario::vi_uniprocessor(2048);
            let strata = EstimateConfig::default().initial_strata as u64;
            let scenarios = match scenario.laxity_window_ns() {
                Some((lo, hi)) => {
                    let span = hi - lo + 1;
                    let bound = |k: u64| lo + (span as u128 * k as u128 / strata as u128) as u64;
                    (0..strata)
                        .map(|k| {
                            scenario
                                .restrict_laxity(bound(k), bound(k + 1) - 1)
                                .expect("bounds inside the laxity window")
                        })
                        .collect()
                }
                None => vec![scenario.clone()],
            };
            let p = Prepared::Estimate {
                scenario,
                target: sizes.estimate_target,
                max_rounds: sizes.estimate_max_rounds,
                must_converge: sizes.estimate_must_converge,
            };
            (p, scenarios)
        }
    };
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let base = scenarios[0].base_vfs();
    let templates: Vec<_> = scenarios
        .iter()
        .map(|s| s.template_vfs_from_base(&base))
        .collect();
    times.template = ns_since(t);
    let t = Instant::now();
    let checkpoints: Vec<_> = scenarios
        .iter()
        .zip(&templates)
        .map(|(s, t)| s.round_checkpoint(t))
        .collect();
    times.checkpoint = ns_since(t);
    std::hint::black_box(checkpoints);
    times.total = ns_since(start);
    (prepared, times)
}

/// A driver's outcome.
// One outcome per driver call, never held in bulk: boxing the large
// variants would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    Mc(McOutcome),
    Sweep(SweepOutcome),
    /// The aggregate of a completed campaign.
    Campaign(SweepOutcome),
    Estimate(EstimateOutcome),
}

/// One timed driver call.
pub struct Call {
    pub wall_s: f64,
    pub rounds: u64,
    pub peak_bytes: usize,
    /// The serialized outcome (the aggregate, for a campaign).
    pub bytes: String,
    pub outcome: Outcome,
    /// The campaign's warm replay of the store the cold phase wrote.
    pub warm: Option<WarmReplay>,
}

pub struct WarmReplay {
    pub wall_s: f64,
    pub total_blocks: u64,
    pub cached_blocks: u64,
    pub store_bytes: u64,
}

/// Counts checks made and checks failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Runs `f`, returning its result, its wall time and the most heap it
/// held at once beyond what was live when it started.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, usize) {
    let live = alloc::reset_peak();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (out, wall, alloc::peak_bytes() - live)
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("outcomes serialize")
}

/// Runs one driver call at `seed` with tracing off and checks its output.
pub fn drive(p: &Prepared, seed: u64, jobs: usize, checks: &mut Checks) -> std::io::Result<Call> {
    match p {
        Prepared::Mc { scenario, rounds } => {
            let cfg = McConfig {
                rounds: *rounds,
                base_seed: seed,
                collect_ld: false,
                jobs,
                cold: false,
            };
            let (out, wall_s, peak_bytes) = timed(|| run_mc(scenario, &cfg));
            check_mc(checks, "run_mc", &out, *rounds);
            Ok(Call {
                wall_s,
                rounds: out.rounds,
                peak_bytes,
                bytes: json(&out),
                outcome: Outcome::Mc(out),
                warm: None,
            })
        }
        Prepared::Sweep { grid, rounds } => {
            let cfg = SweepConfig {
                grid: grid.clone(),
                rounds: *rounds,
                base_seed: seed,
                collect_ld: true,
                jobs,
                cold: false,
            };
            let (out, wall_s, peak_bytes) = timed(|| run_sweep(&cfg));
            checks.check("sweep covers the grid", out.points.len() == grid.len());
            for p in &out.points {
                check_mc(checks, "run_sweep point", &p.outcome, *rounds);
                checks.check("sweep point collected L/D", p.outcome.l.is_some());
            }
            Ok(Call {
                wall_s,
                rounds: rounds * grid.len() as u64,
                peak_bytes,
                bytes: json(&out),
                outcome: Outcome::Sweep(out),
                warm: None,
            })
        }
        Prepared::Campaign {
            grid,
            rounds,
            block,
            store,
        } => {
            if store.exists() {
                std::fs::remove_dir_all(store)?;
            }
            let cfg = CampaignConfig {
                grid: grid.clone(),
                rounds: *rounds,
                base_seed: seed,
                jobs,
                cold: false,
                block: *block,
                max_blocks: None,
            };
            let (cold, wall_s, peak_bytes) = timed(|| run_campaign(store, &cfg));
            let cold = cold?;
            let (warm, warm_s, _) = timed(|| run_campaign(store, &cfg));
            let warm = warm?;
            let store_bytes = std::fs::metadata(store.join("blocks.jsonl"))?.len();
            checks.check(
                "cold campaign computes every block",
                cold.cached_blocks == 0
                    && cold.computed_blocks == cold.total_blocks
                    && cold.remaining_blocks == 0,
            );
            checks.check(
                "warm campaign replays every block from the store",
                warm.computed_blocks == 0 && warm.cached_blocks == warm.total_blocks,
            );
            let (Some(agg), Some(warm_agg)) = (cold.aggregate, warm.aggregate) else {
                checks.check("campaign aggregates exist", false);
                return Err(std::io::Error::other("campaign left blocks missing"));
            };
            let bytes = json(&agg);
            checks.check(
                "warm replay aggregate equals the cold aggregate byte for byte",
                json(&warm_agg) == bytes,
            );
            checks.check("campaign covers the grid", agg.points.len() == grid.len());
            for p in &agg.points {
                check_mc(checks, "campaign point", &p.outcome, *rounds);
            }
            Ok(Call {
                wall_s,
                rounds: rounds * grid.len() as u64,
                peak_bytes,
                bytes,
                outcome: Outcome::Campaign(agg),
                warm: Some(WarmReplay {
                    wall_s: warm_s,
                    total_blocks: warm.total_blocks,
                    cached_blocks: warm.cached_blocks,
                    store_bytes,
                }),
            })
        }
        Prepared::Estimate {
            scenario,
            target,
            max_rounds,
            must_converge,
        } => {
            let cfg = EstimateConfig {
                base_seed: seed,
                target_rel_half_width: *target,
                max_rounds: *max_rounds,
                jobs,
                ..EstimateConfig::default()
            };
            let (run, wall_s, peak_bytes) = timed(|| run_estimate(scenario, &cfg));
            let out = run?.outcome;
            let strata_rounds: u64 = out.strata.iter().map(|s| s.rounds).sum();
            checks.check(
                "estimate rounds add up over strata",
                strata_rounds == out.simulated_rounds && out.live_rounds <= out.simulated_rounds,
            );
            checks.check(
                "estimate rate lies inside its interval",
                out.ci95.0 <= out.rate && out.rate <= out.ci95.1,
            );
            if *must_converge {
                checks.check(
                    "estimate reached its target",
                    out.converged && out.rel_half_width.is_some_and(|r| r <= *target),
                );
            }
            Ok(Call {
                wall_s,
                rounds: out.simulated_rounds,
                peak_bytes,
                bytes: json(&out),
                outcome: Outcome::Estimate(out),
                warm: None,
            })
        }
    }
}

fn check_mc(checks: &mut Checks, what: &str, o: &McOutcome, rounds: u64) {
    checks.check(
        &format!("{what}: round and detector counts are consistent"),
        o.rounds == rounds
            && o.successes <= o.rounds
            && o.detector_true_positives + o.detector_false_negatives == o.successes
            && o.detector_true_positives + o.detector_false_positives == o.flagged_rounds,
    );
}

/// FNV-1a, the hash the drivers use for fingerprints and seed lanes.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed stream of an estimator stratum: FNV-1a over its phase bounds,
/// mixed with the run's base seed through `nested_base`.
fn stratum_seed_base(base_seed: u64, lo: u64, hi: u64) -> u64 {
    let lane = fnv1a(
        fnv1a(DETECTION_FINGERPRINT_SEED, &lo.to_le_bytes()),
        &hi.to_le_bytes(),
    );
    nested_base(base_seed, lane)
}

/// Every round the driver call at `seed` simulated, grouped the way the
/// driver ran them: one set per point, or per estimator stratum.
pub fn round_sets(p: &Prepared, out: &Outcome, seed: u64) -> Vec<RoundSet> {
    match (p, out) {
        (Prepared::Mc { scenario, rounds }, Outcome::Mc(_)) => {
            vec![RoundSet::new(scenario.clone(), seed, *rounds, false)]
        }
        (Prepared::Sweep { grid, rounds }, Outcome::Sweep(_)) => grid
            .points
            .iter()
            .map(|pt| {
                RoundSet::new(
                    pt.scenario(),
                    seed.wrapping_add(pt.seed_salt),
                    *rounds,
                    true,
                )
            })
            .collect(),
        (Prepared::Campaign { grid, rounds, .. }, Outcome::Campaign(_)) => grid
            .points
            .iter()
            .map(|pt| {
                RoundSet::new(
                    pt.scenario(),
                    seed.wrapping_add(pt.seed_salt),
                    *rounds,
                    false,
                )
            })
            .collect(),
        (Prepared::Estimate { scenario, .. }, Outcome::Estimate(o)) => o
            .strata
            .iter()
            .map(|s| {
                let restricted = if o.stratified {
                    scenario
                        .restrict_laxity(s.lo_ns, s.hi_ns)
                        .expect("reported strata lie inside the laxity window")
                } else {
                    scenario.clone()
                };
                let base = stratum_seed_base(seed, s.lo_ns, s.hi_ns);
                RoundSet::new(restricted, base, s.rounds, false)
            })
            .collect(),
        _ => unreachable!("outcome comes from the prepared workload"),
    }
}

/// Checks the replayed tallies against the driver's outcome on the same
/// seeds.
pub fn compare(checks: &mut Checks, out: &Outcome, tallies: &[Tally]) {
    let mc = |checks: &mut Checks, o: &McOutcome, t: &Tally| {
        let name = &o.scenario;
        checks.check(
            &format!("{name}: replayed successes equal the driver's"),
            o.rounds == t.rounds && o.successes == t.successes,
        );
        checks.check(
            &format!("{name}: replayed detections equal the driver's"),
            o.flagged_rounds == t.flagged && o.detection_fingerprint == t.fingerprint,
        );
        checks.check(
            &format!("{name}: replayed metrics snapshot equals the driver's"),
            o.metrics == t.metrics,
        );
        checks.check(
            &format!("{name}: replayed forensics snapshot equals the driver's"),
            o.forensics == t.forensics,
        );
    };
    match out {
        Outcome::Mc(o) => mc(checks, o, &tallies[0]),
        Outcome::Sweep(o) | Outcome::Campaign(o) => {
            checks.check("one replay per point", o.points.len() == tallies.len());
            for (p, t) in o.points.iter().zip(tallies) {
                mc(checks, &p.outcome, t);
            }
        }
        Outcome::Estimate(o) => {
            checks.check("one replay per stratum", o.strata.len() == tallies.len());
            for (s, t) in o.strata.iter().zip(tallies) {
                checks.check(
                    &format!(
                        "stratum [{}, {}]: replayed tallies equal the estimator's",
                        s.lo_ns, s.hi_ns
                    ),
                    s.rounds == t.rounds
                        && s.successes == t.successes
                        && s.windows_closed == t.windows_closed
                        && s.strikes_hit == t.strikes_hit
                        && s.near_misses == t.near,
                );
            }
        }
    }
}

/// The estimator's near-miss threshold, which the replay needs to count
/// near misses the same way.
pub fn near_miss_ns() -> u64 {
    EstimateConfig::default().near_miss_ns
}

//! The grid-parallel sweep engine.
//!
//! [`run_sweep`] runs a whole parameter [`Grid`] — every figure is one —
//! through a single shared worker pool, instead of calling
//! [`run_mc`](crate::monte_carlo::run_mc) once per grid point:
//!
//! * **Template built once, snapshot/forked per point.** The base
//!   filesystem image (directories, `/etc/passwd`, the attack directory)
//!   depends on no swept parameter, so it is populated a single time and
//!   each point's template is a cheap clone-plus-document fork
//!   ([`Scenario::template_vfs_from_base`]) — state-identical to a full
//!   per-point build, as the fork-equivalence tests assert.
//! * **One worker pool for the whole grid.** Every point's rounds are cut
//!   into `(point, seed block)` items of at most `MAX_ITEM_ROUNDS`
//!   rounds, and all of them run on the crate's one round executor: `jobs`
//!   long-lived workers claiming items off a shared atomic cursor, so
//!   threads never drain at point boundaries and each worker's recycled
//!   [`KernelPool`](tocttou_os::kernel::KernelPool) stays warm across
//!   points. [`run_mc`](crate::monte_carlo::run_mc) is this same path with
//!   a one-point grid.
//! * **Bit-identical outcomes anyway.** Finished items fold in item order —
//!   each point's rounds in round order — and kernel metrics and window
//!   forensics merge through pure integer accumulation ([`PointAcc`]
//!   centralizes both rules), so every per-point [`McOutcome`] is
//!   byte-for-byte what a standalone
//!   `run_mc(point.scenario(), McConfig { base_seed: base + salt, .. })`
//!   returns — at any `jobs` value on either side. The jobs-ladder and
//!   per-point identity tests in `tests/sweep_determinism.rs` and the
//!   independent reference loop in `tests/determinism.rs` hold this line.
//! * **Bounded memory.** An item is folded as soon as every earlier item
//!   has arrived, and no worker claims an item more than `jobs` items past
//!   the oldest unfinished one, so at most `jobs` finished items'
//!   observations wait, however many rounds a point runs and however the
//!   workers are scheduled.

use crate::executor::{blocks, effective_jobs, execute, Block, Order, Plan};
use crate::grid::{Grid, PointDesc};
use crate::monte_carlo::{McOutcome, PointAcc, RoundObs};
use serde::Serialize;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Mutex;
use tocttou_workloads::scenario::Scenario;

/// Most rounds one in-memory work item holds — the bound on buffered
/// observations per item, whatever `--rounds` is.
pub(crate) const MAX_ITEM_ROUNDS: u64 = 256;

/// Options for one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The parameter grid to cover.
    pub grid: Grid,
    /// Monte-Carlo rounds per grid point.
    pub rounds: u64,
    /// Sweep-level base seed; point *p* runs rounds at
    /// `base_seed + p.seed_salt + i`.
    pub base_seed: u64,
    /// Whether to trace rounds and extract L/D at every point.
    pub collect_ld: bool,
    /// Worker threads shared by the whole grid (`0` = auto, `1` =
    /// serial). Results are bit-identical for every value.
    pub jobs: usize,
    /// Cold-boot every round instead of resuming each point's warm
    /// checkpoint — the oracle path, byte-identical to the warm default
    /// (see [`McConfig::cold`](crate::monte_carlo::McConfig::cold)).
    pub cold: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            grid: Grid::default(),
            rounds: 200,
            base_seed: 0x7061_7065,
            collect_ld: false,
            jobs: 1,
            cold: false,
        }
    }
}

/// One grid point's result.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Which point this is.
    pub point: PointDesc,
    /// The point's Monte-Carlo outcome — byte-identical to a standalone
    /// [`run_mc`](crate::monte_carlo::run_mc) call on
    /// `point.scenario()` with base seed `sweep base + salt`.
    pub outcome: McOutcome,
}

/// The whole sweep's results.
///
/// Deliberately excludes the `jobs` knob: serialized outcomes are compared
/// across the jobs ladder byte for byte, so only result-bearing fields
/// belong here.
#[derive(Debug, Clone, Serialize)]
pub struct SweepOutcome {
    /// Rounds per point.
    pub rounds_per_point: u64,
    /// The sweep-level base seed.
    pub base_seed: u64,
    /// Whether L/D extraction was on.
    pub collect_ld: bool,
    /// Per-point results, in grid order.
    pub points: Vec<SweepPoint>,
}

/// Finished items' observations waiting for their predecessors, and the
/// accumulators they fold into.
struct InOrder {
    next: usize,
    early: BTreeMap<usize, Vec<RoundObs>>,
    accs: Vec<PointAcc>,
}

/// Runs `rounds` rounds of every planned scenario and folds each point's
/// rounds in round order — the in-memory path of [`run_sweep`] and
/// [`run_mc`](crate::monte_carlo::run_mc).
///
/// Metrics and forensics merge as each item arrives; its observations
/// fold as soon as every earlier item has arrived. The executor runs the
/// items under [`Order::Index`], so at most one item per worker waits.
pub(crate) fn fold_points(plan: &Plan<'_>, rounds: u64) -> Vec<PointAcc> {
    let points = plan.scenarios.len();
    // At least one item per worker on a lone point, at most the cap.
    let jobs = effective_jobs(plan.jobs, rounds.saturating_mul(points as u64));
    let size = rounds.div_ceil(jobs as u64).min(MAX_ITEM_ROUNDS);
    let items: Vec<Block> = (0..points)
        .flat_map(|p| blocks(p, 0, rounds, size))
        .collect();
    let state = Mutex::new(InOrder {
        next: 0,
        early: BTreeMap::new(),
        accs: (0..points).map(|_| PointAcc::new()).collect(),
    });
    let Ok(()) = execute::<Infallible>(plan, &items, Order::Index, |idx, obs, pool| {
        let (metrics, forensics) = (pool.drain_metrics(), pool.drain_forensics());
        let mut guard = state.lock().expect("fold state poisoned");
        let s = &mut *guard;
        s.accs[items[idx].point].merge_counters(&metrics, &forensics);
        s.early.insert(idx, obs);
        while let Some(obs) = s.early.remove(&s.next) {
            s.accs[items[s.next].point].fold_obs(obs);
            s.next += 1;
        }
        Ok(())
    });
    state.into_inner().expect("fold state poisoned").accs
}

/// Runs every grid point's Monte-Carlo batch on one shared worker pool.
///
/// See the [module docs](self) for the template-fork and scheduling
/// design and the byte-identity guarantee.
pub fn run_sweep(cfg: &SweepConfig) -> SweepOutcome {
    let (scenarios, seed_bases) = cfg.grid.lanes(cfg.base_seed);
    let plan = Plan {
        scenarios: &scenarios,
        seed_bases: &seed_bases,
        collect_ld: cfg.collect_ld,
        jobs: cfg.jobs,
        cold: cfg.cold,
    };
    let accs = fold_points(&plan, cfg.rounds);
    SweepOutcome::assemble(
        &cfg.grid,
        cfg.rounds,
        cfg.base_seed,
        cfg.collect_ld,
        &scenarios,
        accs,
    )
}

impl SweepOutcome {
    /// Condenses one accumulator per grid point, in grid order, into the
    /// outcome.
    pub(crate) fn assemble(
        grid: &Grid,
        rounds_per_point: u64,
        base_seed: u64,
        collect_ld: bool,
        scenarios: &[Scenario],
        accs: Vec<PointAcc>,
    ) -> Self {
        SweepOutcome {
            rounds_per_point,
            base_seed,
            collect_ld,
            points: accs
                .into_iter()
                .zip(scenarios)
                .zip(&grid.points)
                .map(|((acc, scenario), point)| SweepPoint {
                    point: point.describe(),
                    outcome: acc.finish(scenario),
                })
                .collect(),
        }
    }
}

impl std::fmt::Display for SweepOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Sweep — {} points × {} rounds (base seed {:#x})",
            self.points.len(),
            self.rounds_per_point,
            self.base_seed
        )?;
        for p in &self.points {
            writeln!(f, "  {}", p.outcome)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Family, GridPoint};
    use crate::monte_carlo::{run_mc, McConfig};

    fn small_grid() -> Grid {
        Grid::from_points(vec![
            GridPoint::new(Family::ViSmp, 20 * 1024).with_salt(3),
            GridPoint::new(Family::GeditSmp, 2048).with_salt(7),
            GridPoint::new(Family::GeditSmp, 2048)
                .with_d_scale(0.5)
                .with_salt(11),
            GridPoint::new(Family::HardlinkSwap, 20 * 1024).with_salt(13),
        ])
    }

    #[test]
    fn sweep_points_match_standalone_run_mc() {
        let cfg = SweepConfig {
            grid: small_grid(),
            rounds: 8,
            base_seed: 0xABCD,
            collect_ld: true,
            jobs: 1,
            cold: false,
        };
        let sweep = run_sweep(&cfg);
        assert_eq!(sweep.points.len(), 4);
        for (point, sp) in cfg.grid.points.iter().zip(&sweep.points) {
            let standalone = run_mc(
                &point.scenario(),
                &McConfig {
                    rounds: cfg.rounds,
                    base_seed: cfg.base_seed + point.seed_salt,
                    collect_ld: cfg.collect_ld,
                    jobs: 1,
                    cold: false,
                },
            );
            assert_eq!(
                serde_json::to_string(&sp.outcome).unwrap(),
                serde_json::to_string(&standalone).unwrap(),
                "{}: sweep point diverged from run_mc",
                standalone.scenario
            );
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_jobs() {
        let base = SweepConfig {
            grid: small_grid(),
            rounds: 9,
            base_seed: 91,
            collect_ld: false,
            jobs: 1,
            cold: false,
        };
        let serial = serde_json::to_string(&run_sweep(&base)).unwrap();
        for jobs in [2, 3, 5] {
            let par = run_sweep(&SweepConfig {
                jobs,
                ..base.clone()
            });
            assert_eq!(
                serial,
                serde_json::to_string(&par).unwrap(),
                "jobs={jobs} diverged"
            );
        }
    }

    #[test]
    fn empty_grid_yields_empty_outcome() {
        let out = run_sweep(&SweepConfig {
            grid: Grid::default(),
            rounds: 5,
            base_seed: 1,
            collect_ld: false,
            jobs: 4,
            cold: false,
        });
        assert!(out.points.is_empty());
    }

    #[test]
    fn display_lists_every_point() {
        let out = run_sweep(&SweepConfig {
            grid: Grid::pipelined_pair(512),
            rounds: 2,
            base_seed: 5,
            collect_ld: false,
            jobs: 2,
            cold: false,
        });
        let text = out.to_string();
        assert!(text.contains("2 points"), "{text}");
        assert!(text.contains("pipelined-512B"), "{text}");
    }
}

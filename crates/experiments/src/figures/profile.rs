//! Kernel profiling scorecard: semaphore contention, syscall latency and
//! scheduler counters next to attack success rate.
//!
//! The paper's mechanism is *observable kernel behavior*: the attacker
//! blocks on the victim's per-inode `i_sem` (Section 6.2), cold libc pages
//! cost a trap (Section 6.2.1), and the multiprocessor scheduler places
//! the attacker on an idle CPU inside the victim's check-to-use window.
//! This exhibit prints, per attack scenario, exactly those quantities from
//! the aggregated [`McOutcome::metrics`](crate::monte_carlo::McOutcome):
//! the most-contended semaphores with p50/p95/max wait, the per-syscall
//! latency table (the raw material of Formula (1)'s `D`), and the
//! scheduler counters — side by side with the Monte-Carlo success rate the
//! same rounds produced.

use crate::grid::{Family, Grid, GridPoint};
use crate::monte_carlo::{run_mc, McConfig, McOutcome};
use crate::sweep::{run_sweep, SweepConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use tocttou_os::ids::SemId;
use tocttou_os::metrics::SchedCounters;
use tocttou_sim::metrics::LatencyHistogram;
use tocttou_workloads::scenario::Scenario;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rounds per scenario.
    pub rounds: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads per Monte-Carlo batch (`1` = serial, `0` = auto);
    /// the profile is identical for every value.
    pub jobs: usize,
    /// Run every round from a cold boot instead of the warm checkpoint
    /// (the byte-identical oracle path; slower, same results).
    pub cold: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            rounds: 120,
            seed: 0x0B5E_47E5, // "observes"
            jobs: 1,
            cold: false,
        }
    }
}

/// How many semaphores the contention table shows.
const TOP_SEMS: usize = 5;

/// Latency summary of one histogram, in microseconds.
#[derive(Debug, Clone, Serialize)]
pub struct HistRow {
    /// What the histogram measures (syscall name, `run_queue`, or a path).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Median upper bound (µs).
    pub p50_us: f64,
    /// 95th-percentile upper bound (µs).
    pub p95_us: f64,
    /// Largest sample (µs).
    pub max_us: f64,
    /// Mean (µs).
    pub mean_us: f64,
}

fn hist_row(name: String, h: &LatencyHistogram) -> HistRow {
    let us = |ns: u64| ns as f64 / 1_000.0;
    HistRow {
        name,
        count: h.count(),
        p50_us: us(h.quantile_ns(0.5).unwrap_or(0)),
        p95_us: us(h.quantile_ns(0.95).unwrap_or(0)),
        max_us: us(h.max_ns().unwrap_or(0)),
        mean_us: h.mean_ns().unwrap_or(0.0) / 1_000.0,
    }
}

/// One semaphore's contention summary.
#[derive(Debug, Clone, Serialize)]
pub struct SemRow {
    /// The inode/directory the semaphore guards (best-effort label from
    /// the scenario's template filesystem; `sem#N` when unknown).
    pub sem: String,
    /// Contended waits (enqueue → hand-off).
    pub wait: HistRow,
    /// Hold times (acquire → release).
    pub hold: HistRow,
}

/// The full profile of one scenario's Monte-Carlo batch.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioProfile {
    /// Scenario name.
    pub scenario: String,
    /// Rounds profiled.
    pub rounds: u64,
    /// Attack success rate over those rounds.
    pub rate: f64,
    /// Summed scheduler counters.
    pub counters: SchedCounters,
    /// Ready-queue-to-dispatch delay.
    pub run_queue: HistRow,
    /// Per-syscall latency, in [`SyscallName::ALL`] order, touched calls
    /// only.
    ///
    /// [`SyscallName::ALL`]: tocttou_os::process::SyscallName::ALL
    pub syscalls: Vec<HistRow>,
    /// The most-contended semaphores, by wait count descending (semaphore
    /// id breaks ties), at most `TOP_SEMS` (5).
    pub top_sems: Vec<SemRow>,
}

/// The profiling scorecard across the standard attack scenarios.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Per-scenario profiles.
    pub rows: Vec<ScenarioProfile>,
}

/// Best-effort map from semaphore id to the path it guards.
///
/// Two sources, in priority order: the scenario's template filesystem
/// (pre-round identities — e.g. the original document inode, even if a
/// round later unlinks it), then one replayed round with the VFS's
/// semaphore-label recorder switched on, which names the inodes the round
/// itself creates — including ones already unlinked again by round end,
/// like the symlink the attacker plants and the victim's rename replaces.
/// Inode allocation is deterministic, so the replay's ids match the
/// profiled rounds'.
fn sem_labels(scenario: &Scenario, seed: u64) -> BTreeMap<SemId, String> {
    let vfs = scenario.template_vfs();
    let l = &scenario.layout;
    let mut paths: Vec<&str> = vec![
        &l.passwd,
        &l.home,
        &l.doc,
        &l.backup,
        &l.temp,
        &l.attack_dir,
        &l.dummy,
    ];
    let mut parents: Vec<String> = Vec::new();
    for p in &paths {
        if let Some(idx) = p.rfind('/') {
            parents.push(if idx == 0 {
                "/".into()
            } else {
                p[..idx].into()
            });
        }
    }
    paths.extend(parents.iter().map(String::as_str));
    let mut map = BTreeMap::new();
    for p in paths {
        if let Ok(sem) = vfs.file_sem_of(p, false) {
            map.entry(sem).or_insert_with(|| p.to_string());
        }
    }
    let mut handles = scenario.build(seed, false);
    handles.kernel.vfs_mut().record_sem_labels();
    let _ = scenario.finish_round(&mut handles);
    for (sem, path) in handles.kernel.vfs().sem_labels() {
        map.entry(*sem).or_insert_with(|| path.clone());
    }
    map
}

/// Profiles one scenario: runs the Monte-Carlo batch and condenses its
/// aggregated metrics into a [`ScenarioProfile`]. Exposed so the golden
/// test can pin a single scenario.
pub fn profile_scenario(scenario: &Scenario, cfg: &Config) -> ScenarioProfile {
    let out = run_mc(
        scenario,
        &McConfig {
            rounds: cfg.rounds,
            base_seed: cfg.seed,
            collect_ld: false,
            jobs: cfg.jobs,
            cold: cfg.cold,
        },
    );
    condense(scenario, cfg.seed, out)
}

/// Condenses one batch's aggregated metrics into a [`ScenarioProfile`].
///
/// Shared by [`profile_scenario`] (standalone `run_mc`) and [`run`] (the
/// sweep-engine path); both feed it the same `McOutcome` bytes, so the
/// profile is identical either way — the `profile_golden` fixture pins
/// this.
fn condense(scenario: &Scenario, seed: u64, out: McOutcome) -> ScenarioProfile {
    let labels = sem_labels(scenario, seed);
    let mut syscalls = Vec::new();
    let mut run_queue = hist_row("run_queue".into(), &LatencyHistogram::new());
    // Gather wait/hold pairs per semaphore before ranking.
    let mut sems: BTreeMap<SemId, (LatencyHistogram, LatencyHistogram)> = BTreeMap::new();
    for &(id, ref h) in &out.metrics.hists {
        if let Some(name) = id.as_syscall() {
            syscalls.push(hist_row(name.to_string(), h));
        } else if id == tocttou_os::metrics::MetricId::RUN_QUEUE {
            run_queue = hist_row("run_queue".into(), h);
        } else if let Some((sem, is_hold)) = id.as_sem() {
            let entry = sems.entry(sem).or_default();
            if is_hold {
                entry.1 = *h;
            } else {
                entry.0 = *h;
            }
        }
    }
    // Rank by contended-wait count; drop never-contended semaphores.
    let mut ranked: Vec<(SemId, (LatencyHistogram, LatencyHistogram))> = sems
        .into_iter()
        .filter(|(_, (wait, _))| !wait.is_empty())
        .collect();
    ranked.sort_by(|a, b| b.1 .0.count().cmp(&a.1 .0.count()).then(a.0.cmp(&b.0)));
    ranked.truncate(TOP_SEMS);
    let top_sems = ranked
        .into_iter()
        .map(|(sem, (wait, hold))| SemRow {
            sem: labels
                .get(&sem)
                .map_or_else(|| format!("sem#{}", sem.0), |p| format!("i_sem({p})")),
            wait: hist_row("wait".into(), &wait),
            hold: hist_row("hold".into(), &hold),
        })
        .collect();
    ScenarioProfile {
        scenario: out.scenario,
        rounds: out.rounds,
        rate: out.rate,
        counters: out.metrics.counters,
        run_queue,
        syscalls,
        top_sems,
    }
}

/// Runs the profiler across the four standard attack scenarios (the same
/// set the detector scorecard uses).
///
/// The four batches run as one [`run_sweep`] grid — shared worker pool,
/// snapshot/forked templates — with salt 0 everywhere, so each scenario
/// still sees base seed `cfg.seed` and its profile matches a standalone
/// [`profile_scenario`] call byte for byte.
pub fn run(cfg: &Config) -> Output {
    let grid = Grid::from_points(vec![
        GridPoint::new(Family::ViSmp, 100 * 1024),
        GridPoint::new(Family::ViSmp, 1),
        GridPoint::new(Family::GeditSmp, 2048),
        GridPoint::new(Family::GeditMulticoreV2, 2048),
    ]);
    let sweep = run_sweep(&SweepConfig {
        grid: grid.clone(),
        rounds: cfg.rounds,
        base_seed: cfg.seed,
        collect_ld: false,
        jobs: cfg.jobs,
        cold: cfg.cold,
    });
    Output {
        rows: grid
            .points
            .iter()
            .zip(sweep.points)
            .map(|(point, sp)| condense(&point.scenario(), cfg.seed, sp.outcome))
            .collect(),
    }
}

impl std::fmt::Display for ScenarioProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Profile — {} ({} rounds, success {:.1}%)",
            self.scenario,
            self.rounds,
            self.rate * 100.0
        )?;
        let c = &self.counters;
        writeln!(
            f,
            "  sched: {} ctx switches, {} migrations, {} idle wakes, {} preempts, \
             {} traps, {} vfs ops, {} EDGI denials",
            c.context_switches,
            c.cpu_migrations,
            c.idle_wakes,
            c.preemptions,
            c.traps,
            c.vfs_ops,
            c.edgi_denials
        )?;
        writeln!(
            f,
            "  run-queue delay: n={} p50 {:.1}µs p95 {:.1}µs max {:.1}µs",
            self.run_queue.count,
            self.run_queue.p50_us,
            self.run_queue.p95_us,
            self.run_queue.max_us
        )?;
        if self.top_sems.is_empty() {
            writeln!(f, "  i_sem contention: none observed")?;
        } else {
            writeln!(f, "  top contended i_sems (by waits):")?;
            for s in &self.top_sems {
                writeln!(
                    f,
                    "    {:<32} waits {:>5}  p50 {:>7.1}µs  p95 {:>7.1}µs  max {:>7.1}µs | \
                     holds {:>5} mean {:>6.1}µs",
                    s.sem,
                    s.wait.count,
                    s.wait.p50_us,
                    s.wait.p95_us,
                    s.wait.max_us,
                    s.hold.count,
                    s.hold.mean_us
                )?;
            }
        }
        writeln!(f, "  syscall latency (µs):")?;
        writeln!(
            f,
            "    {:<10} {:>7} {:>8} {:>8} {:>8} {:>8}",
            "call", "n", "p50", "p95", "max", "mean"
        )?;
        for r in &self.syscalls {
            writeln!(
                f,
                "    {:<10} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                r.name, r.count, r.p50_us, r.p95_us, r.max_us, r.mean_us
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Profile — kernel observability scorecard (counters, contention, latency)"
        )?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_every_scenario_with_live_metrics() {
        let out = run(&Config {
            rounds: 20,
            seed: 11,
            jobs: 1,
            cold: false,
        });
        assert_eq!(out.rows.len(), 4);
        for r in &out.rows {
            assert!(r.rate > 0.2, "{}: attack must work", r.scenario);
            assert!(
                r.counters.context_switches > 0 && r.counters.vfs_ops > 0,
                "{}: counters must be live",
                r.scenario
            );
            assert!(!r.syscalls.is_empty(), "{}: syscalls recorded", r.scenario);
            assert!(
                r.run_queue.count > 0,
                "{}: every dispatch records a run-queue delay",
                r.scenario
            );
        }
        // The gedit scenarios block on the home directory's i_sem (that is
        // the paper's Figure 8 mechanism), so contention must show up and
        // carry a resolved path label.
        let gedit = &out.rows[2];
        assert!(
            !gedit.top_sems.is_empty(),
            "gedit-smp must show sem contention"
        );
        assert!(
            gedit.top_sems.iter().any(|s| s.sem.starts_with("i_sem(")),
            "contended sems must resolve to paths: {:?}",
            gedit.top_sems.iter().map(|s| &s.sem).collect::<Vec<_>>()
        );
        let text = out.to_string();
        assert!(text.contains("syscall latency"), "{text}");
        assert!(text.contains("ctx switches"), "{text}");
    }

    #[test]
    fn profile_is_independent_of_jobs() {
        let scenario = Scenario::gedit_smp(2048);
        let cfg1 = Config {
            rounds: 16,
            seed: 77,
            jobs: 1,
            cold: false,
        };
        let a = profile_scenario(&scenario, &cfg1);
        let b = profile_scenario(&scenario, &Config { jobs: 4, ..cfg1 });
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}

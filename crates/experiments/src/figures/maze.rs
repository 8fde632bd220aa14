//! Maze amplification: Section 1's pre-multiprocessor victim-slowing
//! technique, quantified.
//!
//! Before attackers had dedicated CPUs, they *stretched the victim's
//! window*: Borisov et al.'s filesystem mazes make every path resolution of
//! the victim's file slow (the paper cites this as enhancement (2), "using
//! extremely long pathnames"). This exhibit sweeps maze depth on the
//! uniprocessor and shows the suspension probability — and with it the
//! attack success rate — climbing with depth, per the Section 3.2 model.

use crate::monte_carlo::{run_mc, McConfig};
use serde::Serialize;
use tocttou_workloads::maze::vi_uniprocessor_maze;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maze depths to test.
    pub depths: Vec<usize>,
    /// Per-component resolution cost, µs (Borisov's real mazes reached
    /// disk-seek latencies per component; 5 µs models a cold dentry walk).
    pub per_component_us: f64,
    /// File size in bytes (kept small so the maze dominates the window).
    pub file_size: u64,
    /// Rounds per depth.
    pub rounds: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            depths: vec![0, 100, 200, 400, 800],
            per_component_us: 5.0,
            file_size: 100 * 1024,
            rounds: 150,
            seed: 15_0001,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Maze depth (directory-chain length).
    pub depth: usize,
    /// Observed uniprocessor success rate.
    pub observed: f64,
    /// Wilson 95 % CI.
    pub ci95: (f64, f64),
}

/// The sweep output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Rows by depth.
    pub rows: Vec<Row>,
}

/// Runs the maze sweep.
pub fn run(cfg: &Config) -> Output {
    let rows = cfg
        .depths
        .iter()
        .map(|&depth| {
            let scenario = vi_uniprocessor_maze(cfg.file_size, depth, cfg.per_component_us);
            let mc = run_mc(
                &scenario,
                &McConfig {
                    rounds: cfg.rounds,
                    base_seed: cfg.seed,
                    ..McConfig::default()
                },
            );
            Row {
                depth,
                observed: mc.rate,
                ci95: mc.rate_ci95,
            }
        })
        .collect();
    Output { rows }
}

impl std::fmt::Display for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Maze amplification — uniprocessor vi attack vs pathname depth (Section 1 enhancement)"
        )?;
        writeln!(f, "{:>8} {:>12} {:>18}", "depth", "observed", "95% CI")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>11.1}% [{:>5.1}%, {:>5.1}%]",
                r.depth,
                r.observed * 100.0,
                r.ci95.0 * 100.0,
                r.ci95.1 * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_mazes_help_the_uniprocessor_attacker() {
        let out = run(&Config {
            depths: vec![0, 800],
            per_component_us: 5.0,
            file_size: 100 * 1024,
            rounds: 80,
            seed: 9,
        });
        assert_eq!(out.rows.len(), 2);
        let flat = &out.rows[0];
        let deep = &out.rows[1];
        assert!(
            deep.observed > flat.observed + 0.03,
            "flat {:.3} vs deep {:.3}",
            flat.observed,
            deep.observed
        );
    }
}

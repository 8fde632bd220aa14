//! Filesystem-maze victim slowdown (the paper's Section 1, citing Borisov
//! et al., "Fixing Races for Fun and Profit: How to Abuse atime").
//!
//! Before multiprocessors, attackers *stretched the victim's window*
//! instead of speeding themselves up: extremely long pathnames (directory
//! "mazes") make every resolution of the victim's file slow, growing the
//! window — and with it the uniprocessor suspension probability. This
//! module builds maze layouts and scenario variants that quantify the
//! effect with the same Monte-Carlo machinery as the paper's experiments.
//!
//! A maze is only a [`Layout`] whose document sits deep below the home
//! directory: [`Scenario::build`] (and every template and checkpoint
//! path) creates the document's missing ancestors, so a maze scenario
//! runs through `run_round`, `run_mc` and the sweeps like any other.

use crate::dsl::library;
use crate::scenario::{Layout, Scenario};

/// A maze layout: the document lives `depth` directories below the user's
/// home, so every path touching it resolves `depth + 3` components.
#[derive(Debug, Clone)]
pub struct Maze {
    /// Directory-chain length.
    pub depth: usize,
    /// The deep document path.
    pub doc: String,
    /// The deep backup path.
    pub backup: String,
}

impl Maze {
    /// Plans a maze of the given depth under `/home/user`.
    pub fn new(depth: usize) -> Self {
        let mut dir = String::from("/home/user");
        for i in 0..depth {
            dir.push_str(&format!("/m{i}"));
        }
        Maze {
            depth,
            doc: format!("{dir}/doc.txt"),
            backup: format!("{dir}/doc.txt~"),
        }
    }
}

/// A vi uniprocessor scenario whose document sits at the bottom of a maze
/// of the given depth, with per-component resolution cost enabled.
///
/// The attacker watches the same deep path, so its detection loop also
/// slows down — but on the uniprocessor that is irrelevant (it only runs
/// while the victim is suspended), which is exactly why the maze was the
/// pre-multiprocessor weapon of choice.
pub fn vi_uniprocessor_maze(file_size: u64, depth: usize, per_component_us: f64) -> Scenario {
    let maze = Maze::new(depth);
    let layout = Layout {
        doc: maze.doc,
        backup: maze.backup,
        ..Layout::default()
    };
    let mut spec = library::vi_uniprocessor_on(layout, file_size);
    spec.name = format!("vi-uniprocessor-maze{}-{}B", depth, file_size);
    spec.machine.costs.resolve_per_component_us = per_component_us;
    spec.compile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_core::stats::SuccessCounter;

    #[test]
    fn maze_paths_have_expected_depth() {
        let m = Maze::new(4);
        assert_eq!(m.doc, "/home/user/m0/m1/m2/m3/doc.txt");
        assert_eq!(m.doc.split('/').filter(|c| !c.is_empty()).count(), 7);
        let m0 = Maze::new(0);
        assert_eq!(m0.doc, "/home/user/doc.txt");
    }

    #[test]
    fn maze_rounds_run_and_window_grows() {
        // Borisov-style mazes added whole-disk-seek latencies per component;
        // 5 µs/component over an 800-deep chain puts ~8 ms of resolution
        // work on the victim's in-window chown, dwarfing the flat window
        // (~1.8 ms at 100 KB) — so the uniprocessor suspension probability
        // rises several-fold.
        let flat = vi_uniprocessor_maze(100 * 1024, 0, 5.0);
        let deep = vi_uniprocessor_maze(100 * 1024, 800, 5.0);
        let mut flat_rate = SuccessCounter::new();
        let mut deep_rate = SuccessCounter::new();
        for seed in 0..100 {
            flat_rate.record(flat.run_round(seed).success);
            deep_rate.record(deep.run_round(seed).success);
        }
        assert!(
            deep_rate.rate() > flat_rate.rate() + 0.04,
            "maze amplification: flat {} vs deep {}",
            flat_rate,
            deep_rate
        );
    }

    #[test]
    fn maze_round_completes_with_correct_outcome_bookkeeping() {
        let s = vi_uniprocessor_maze(20 * 1024, 50, 0.5);
        let r = s.run_round(7);
        assert!(r.victim_exited, "deep save still completes");
    }
}

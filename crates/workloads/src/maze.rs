//! Filesystem-maze victim slowdown (the paper's Section 1, citing Borisov
//! et al., "Fixing Races for Fun and Profit: How to Abuse atime").
//!
//! Before multiprocessors, attackers *stretched the victim's window*
//! instead of speeding themselves up: extremely long pathnames (directory
//! "mazes") make every resolution of the victim's file slow, growing the
//! window — and with it the uniprocessor suspension probability. This
//! module builds maze layouts and scenario variants that quantify the
//! effect with the same Monte-Carlo machinery as the paper's experiments.

use crate::dsl::library;
use crate::scenario::{Layout, Scenario};
use tocttou_os::ids::{Gid, Uid};
use tocttou_os::kernel::Kernel;
use tocttou_os::vfs::InodeMeta;

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

    /// Creates the maze's directory chain in a kernel's filesystem
    /// (expects `/home/user` to exist).
    ///
    /// # Panics
    ///
    /// Panics if the layout cannot be created (programming error in setup).
    pub fn dig(&self, kernel: &mut Kernel, owner: (Uid, Gid)) {
        let meta = InodeMeta {
            uid: owner.0,
            gid: owner.1,
            mode: 0o755,
        };
        let mut dir = String::from("/home/user");
        for i in 0..self.depth {
            dir.push_str(&format!("/m{i}"));
            kernel.vfs_mut().mkdir(&dir, meta).expect("maze digging");
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

impl Scenario {
    /// Digs the maze directories for scenarios produced by
    /// [`vi_uniprocessor_maze`]. Must be called on freshly built rounds;
    /// [`Scenario::build`] handles the standard layout but not maze chains,
    /// so maze experiments go through [`run_maze_round`].
    fn maze_depth(&self) -> usize {
        self.layout
            .doc
            .split('/')
            .filter(|c| c.starts_with('m') && c[1..].chars().all(|ch| ch.is_ascii_digit()))
            .count()
    }
}

/// Runs one round of a maze scenario (digs the chain, then runs normally).
pub fn run_maze_round(scenario: &Scenario, seed: u64) -> crate::scenario::RoundResult {
    let depth = scenario.maze_depth();
    let mut handles = scenario.build_with(seed, false, |kernel| {
        Maze::new(depth).dig(kernel, (Uid(1000), Gid(1000)));
    });
    scenario.finish_round(&mut handles)
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
            flat_rate.record(run_maze_round(&flat, seed).success);
            deep_rate.record(run_maze_round(&deep, seed).success);
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
        let r = run_maze_round(&s, 7);
        assert!(r.victim_exited, "deep save still completes");
    }
}

//! Shared parameter-grid construction for sweeps and figures.
//!
//! Every headline figure is a sweep over one axis — file size (laxity,
//! Figures 6/7), detection period `D` (Formula (1)), CPU count, or the
//! pipelined-attacker switch (Figure 11). This module is the single place
//! those grids are built: the figure renderers, the `sweep` binary and the
//! benches all consume [`Grid`]/[`GridPoint`] instead of hand-rolling
//! per-figure scenario loops.
//!
//! A [`GridPoint`] is a [`Family`] (one of the named [`Scenario`]
//! constructors) plus a file size, optional overrides for the swept axes,
//! and a `seed_salt` added to the sweep's base seed — so a grid point's
//! standalone equivalent is exactly `run_mc(point.scenario(), McConfig {
//! base_seed: base + salt, .. })`, which is what the sweep engine's
//! byte-identity guarantee is stated against.

use serde::Serialize;
use std::sync::Arc;
use tocttou_sim::time::SimDuration;
use tocttou_workloads::dsl::{library, Trigger};
use tocttou_workloads::scenario::Scenario;

/// A named scenario constructor — the base configuration a grid varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Scenario::vi_uniprocessor` (Figure 6's victim).
    ViUniprocessor,
    /// `Scenario::vi_smp` (Figure 7 / Table 1).
    ViSmp,
    /// `Scenario::gedit_uniprocessor`.
    GeditUniprocessor,
    /// `Scenario::gedit_smp` (Figure 8).
    GeditSmp,
    /// `Scenario::gedit_multicore_v1` (Figure 9, cold attacker).
    GeditMulticoreV1,
    /// `Scenario::gedit_multicore_v2` (Figure 9, pre-warmed attacker).
    GeditMulticoreV2,
    /// `Scenario::pipelined_attack` (Section 7 / Figure 11).
    PipelinedAttack,
    /// `Scenario::hardlink_vi_smp` (hard-link swap: a second name of the
    /// privileged inode instead of a symlink).
    HardlinkSwap,
    /// DSL `library::tmp_logrotate` — `<stat, open>` tempfile race.
    TmpLogrotate,
    /// DSL `library::chown_walk` — `<stat, chown>` recursive-chown walk.
    ChownWalk,
    /// DSL `library::tmp_sweeper` — `<stat, chmod>` cache sweeper.
    TmpSweeper,
    /// DSL `library::maildrop` — `<lstat, open>` local-delivery append.
    Maildrop,
    /// DSL `library::installer_read` — `<access, open>` sendmail pattern.
    InstallerRead,
    /// DSL `library::pkg_installer` — `<access, chown>` staged installer.
    PkgInstaller,
    /// DSL `library::mktemp_reopen` — `<creat, open>` scratch reopen.
    MktempReopen,
    /// DSL `library::sock_bind` — `<creat, chmod>` bind-then-loosen race.
    SockBind,
    /// DSL `library::vi_crowd` — `<creat, chown>` with three competing
    /// attackers.
    ViCrowd,
    /// DSL `library::swap_contest` — symlink-vs-hardlink attackers racing
    /// each other for one vi window.
    SwapContest,
}

impl Family {
    /// Every family, in a stable order.
    pub const ALL: [Family; 18] = [
        Family::ViUniprocessor,
        Family::ViSmp,
        Family::GeditUniprocessor,
        Family::GeditSmp,
        Family::GeditMulticoreV1,
        Family::GeditMulticoreV2,
        Family::PipelinedAttack,
        Family::HardlinkSwap,
        Family::TmpLogrotate,
        Family::ChownWalk,
        Family::TmpSweeper,
        Family::Maildrop,
        Family::InstallerRead,
        Family::PkgInstaller,
        Family::MktempReopen,
        Family::SockBind,
        Family::ViCrowd,
        Family::SwapContest,
    ];

    /// The ten DSL-compiled families of the taxonomy library, in the
    /// library's own order (distinct `<check, use>` pairs first).
    pub const DSL_LIBRARY: [Family; 10] = [
        Family::TmpLogrotate,
        Family::ChownWalk,
        Family::TmpSweeper,
        Family::Maildrop,
        Family::InstallerRead,
        Family::PkgInstaller,
        Family::MktempReopen,
        Family::SockBind,
        Family::ViCrowd,
        Family::SwapContest,
    ];

    /// The families whose attacker is one of the paper's symlink programs
    /// (v1, v2 or the pipelined pair): the ones the pipelined switch
    /// rewrites.
    const PAPER_SYMLINK: [Family; 7] = [
        Family::ViUniprocessor,
        Family::ViSmp,
        Family::GeditUniprocessor,
        Family::GeditSmp,
        Family::GeditMulticoreV1,
        Family::GeditMulticoreV2,
        Family::PipelinedAttack,
    ];

    /// The CLI spelling (`--family` flag and sweep output).
    pub fn name(self) -> &'static str {
        match self {
            Family::ViUniprocessor => "vi-uni",
            Family::ViSmp => "vi-smp",
            Family::GeditUniprocessor => "gedit-uni",
            Family::GeditSmp => "gedit-smp",
            Family::GeditMulticoreV1 => "gedit-mc-v1",
            Family::GeditMulticoreV2 => "gedit-mc-v2",
            Family::PipelinedAttack => "pipelined",
            Family::HardlinkSwap => "hardlink",
            Family::TmpLogrotate => "tmp-logrotate",
            Family::ChownWalk => "chown-walk",
            Family::TmpSweeper => "tmp-sweeper",
            Family::Maildrop => "maildrop",
            Family::InstallerRead => "installer-read",
            Family::PkgInstaller => "pkg-installer",
            Family::MktempReopen => "mktemp-reopen",
            Family::SockBind => "sock-bind",
            Family::ViCrowd => "vi-crowd",
            Family::SwapContest => "swap-contest",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Builds the family's scenario at `file_size` bytes.
    pub fn build(self, file_size: u64) -> Scenario {
        use tocttou_workloads::dsl::library;
        match self {
            Family::ViUniprocessor => Scenario::vi_uniprocessor(file_size),
            Family::ViSmp => Scenario::vi_smp(file_size),
            Family::GeditUniprocessor => Scenario::gedit_uniprocessor(file_size),
            Family::GeditSmp => Scenario::gedit_smp(file_size),
            Family::GeditMulticoreV1 => Scenario::gedit_multicore_v1(file_size),
            Family::GeditMulticoreV2 => Scenario::gedit_multicore_v2(file_size),
            Family::PipelinedAttack => Scenario::pipelined_attack(file_size),
            Family::HardlinkSwap => Scenario::hardlink_vi_smp(file_size),
            Family::TmpLogrotate => library::tmp_logrotate(file_size).compile(),
            Family::ChownWalk => library::chown_walk(file_size).compile(),
            Family::TmpSweeper => library::tmp_sweeper(file_size).compile(),
            Family::Maildrop => library::maildrop(file_size).compile(),
            Family::InstallerRead => library::installer_read(file_size).compile(),
            Family::PkgInstaller => library::pkg_installer(file_size).compile(),
            Family::MktempReopen => library::mktemp_reopen(file_size).compile(),
            Family::SockBind => library::sock_bind(file_size).compile(),
            Family::ViCrowd => library::vi_crowd(file_size).compile(),
            Family::SwapContest => library::swap_contest(file_size).compile(),
        }
    }

    /// A sensible default file size for quick sweeps (the sizes the
    /// paper's own exhibits use: ~100 KB vi saves, 2 KB gedit documents;
    /// the DSL families use their library calibration sizes).
    pub fn default_file_size(self) -> u64 {
        match self {
            Family::ViUniprocessor
            | Family::ViSmp
            | Family::HardlinkSwap
            | Family::ViCrowd
            | Family::SwapContest => 100 * 1024,
            Family::PipelinedAttack | Family::PkgInstaller => 512,
            Family::TmpLogrotate | Family::Maildrop => 4096,
            Family::TmpSweeper | Family::InstallerRead | Family::MktempReopen => 1024,
            Family::SockBind => 256,
            _ => 2048,
        }
    }
}

/// One grid point: a base scenario plus the swept-axis overrides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Base scenario constructor.
    pub family: Family,
    /// Document size handed to the constructor, bytes.
    pub file_size: u64,
    /// Scales the attacker's checking-loop gap — the detection period `D`
    /// of Formula (1). `0.5` halves `D` (a faster attacker), `2.0` doubles
    /// it.
    pub d_scale: Option<f64>,
    /// Overrides the machine's CPU count.
    pub cpus: Option<usize>,
    /// Forces the pipelined two-thread attacker on (`true`) or replaces a
    /// pipelined attacker with the sequential one (`false`).
    pub pipelined: Option<bool>,
    /// Added to the sweep's base seed to form this point's per-point base
    /// seed, so historical per-figure seed schedules (e.g. `seed +
    /// size_kb`) survive the port to `run_sweep` unchanged.
    pub seed_salt: u64,
}

impl GridPoint {
    /// A point with no overrides and salt 0.
    pub fn new(family: Family, file_size: u64) -> GridPoint {
        GridPoint {
            family,
            file_size,
            d_scale: None,
            cpus: None,
            pipelined: None,
            seed_salt: 0,
        }
    }

    /// Returns the point with the given seed salt.
    pub fn with_salt(mut self, salt: u64) -> GridPoint {
        self.seed_salt = salt;
        self
    }

    /// Returns the point with the detection-period scale applied.
    pub fn with_d_scale(mut self, scale: f64) -> GridPoint {
        self.d_scale = Some(scale);
        self
    }

    /// Returns the point with the CPU-count override applied.
    pub fn with_cpus(mut self, cpus: usize) -> GridPoint {
        self.cpus = Some(cpus);
        self
    }

    /// Returns the point with the pipelined-attacker switch applied.
    pub fn with_pipelined(mut self, on: bool) -> GridPoint {
        self.pipelined = Some(on);
        self
    }

    /// Materializes the point into a runnable [`Scenario`], applying the
    /// overrides and suffixing the name so per-point outputs stay
    /// distinguishable.
    pub fn scenario(&self) -> Scenario {
        let mut s = self.family.build(self.file_size);
        if let Some(k) = self.d_scale {
            // The detection loop's gap; a flag-polling partner keeps its
            // poll period.
            for p in &mut s.attacker {
                if p.trigger != Trigger::Flag {
                    let p = Arc::make_mut(p);
                    p.loop_gap = p.loop_gap.mul_f64(k);
                }
            }
            s.name = format!("{}+dx{}", s.name, trim_float(k));
        }
        if let Some(n) = self.cpus {
            s.machine.cpus = n;
            s.name = format!("{}+cpu{n}", s.name);
        }
        // The switch swaps between the paper's sequential symlink
        // attackers (v1, v2) and the pipelined pair.
        let paper = Family::PAPER_SYMLINK.contains(&self.family);
        match (self.pipelined, s.attacker.as_slice()) {
            (Some(true), [v]) if paper => {
                s.attacker = library::pipelined(v, SimDuration::from_micros(1))
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                s.name = format!("{}+pipe", s.name);
            }
            (Some(false), [detector, linker]) if paper => {
                s.attacker = vec![Arc::new(library::sequential(detector, linker))];
                s.name = format!("{}+seq", s.name);
            }
            _ => {}
        }
        s
    }

    /// The serializable description embedded in sweep outputs.
    pub fn describe(&self) -> PointDesc {
        PointDesc {
            family: self.family.name().to_string(),
            file_size: self.file_size,
            d_scale: self.d_scale,
            cpus: self.cpus,
            pipelined: self.pipelined,
            seed_salt: self.seed_salt,
        }
    }
}

/// Renders a scale factor with two decimals at most, without trailing
/// zeros, so scenario names stay readable (`0.5`, `2`, `0.83`).
fn trim_float(k: f64) -> String {
    let s = format!("{k:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Serializable description of a [`GridPoint`] (family by CLI name).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct PointDesc {
    /// [`Family::name`].
    pub family: String,
    /// Document size, bytes.
    pub file_size: u64,
    /// Detection-period scale override, if any.
    pub d_scale: Option<f64>,
    /// CPU-count override, if any.
    pub cpus: Option<usize>,
    /// Pipelined-attacker override, if any.
    pub pipelined: Option<bool>,
    /// Per-point seed salt.
    pub seed_salt: u64,
}

/// An ordered set of grid points — the input to `run_sweep`.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    /// The points, in output order.
    pub points: Vec<GridPoint>,
}

impl Grid {
    /// A grid over explicit points.
    pub fn from_points(points: Vec<GridPoint>) -> Grid {
        Grid { points }
    }

    /// Every point's scenario and seed base (`base_seed + seed_salt`), in
    /// grid order.
    pub(crate) fn lanes(&self, base_seed: u64) -> (Vec<Scenario>, Vec<u64>) {
        self.points
            .iter()
            .map(|p| (p.scenario(), base_seed.wrapping_add(p.seed_salt)))
            .unzip()
    }

    /// The file-size axis used by Figures 6 and 7: one point per entry of
    /// `sizes_kb`, with `seed_salt = size_kb` (the per-figure seed
    /// schedule predating the sweep engine).
    pub fn file_size_kb_sweep(family: Family, sizes_kb: &[u64]) -> Grid {
        Grid {
            points: sizes_kb
                .iter()
                .map(|&kb| GridPoint::new(family, kb * 1024).with_salt(kb))
                .collect(),
        }
    }

    /// The detection-period axis of Formula (1): `D` scaled by each entry
    /// of `scales`, salts 0, 1, 2, ….
    pub fn d_sweep(family: Family, file_size: u64, scales: &[f64]) -> Grid {
        Grid {
            points: scales
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    GridPoint::new(family, file_size)
                        .with_d_scale(k)
                        .with_salt(i as u64)
                })
                .collect(),
        }
    }

    /// The CPU-count axis (the paper's uniprocessor → SMP → multicore
    /// escalation on one scenario), salts 0, 1, 2, ….
    pub fn cpu_sweep(family: Family, file_size: u64, cpus: &[usize]) -> Grid {
        Grid {
            points: cpus
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    GridPoint::new(family, file_size)
                        .with_cpus(n)
                        .with_salt(i as u64)
                })
                .collect(),
        }
    }

    /// The Figure 11 pair: the pipelined attacker against its sequential
    /// control, same victim and size.
    pub fn pipelined_pair(file_size: u64) -> Grid {
        Grid {
            points: vec![
                GridPoint::new(Family::PipelinedAttack, file_size).with_salt(0),
                GridPoint::new(Family::PipelinedAttack, file_size)
                    .with_pipelined(false)
                    .with_salt(1),
            ],
        }
    }

    /// The swap-technique pair: the classic vi SMP **symlink** swap next
    /// to its **hardlink** variant, same victim, machine, and document
    /// size — isolating what the planted object (pointer vs second name)
    /// changes about success rate and detectability.
    pub fn swap_technique_pair(file_size: u64) -> Grid {
        Grid {
            points: vec![
                GridPoint::new(Family::ViSmp, file_size).with_salt(0),
                GridPoint::new(Family::HardlinkSwap, file_size).with_salt(1),
            ],
        }
    }

    /// The taxonomy axis: one point per DSL-library family at its
    /// calibration size, salts 0, 1, 2, … — together the ten scenarios
    /// cover the paper's `<check, use>` pair taxonomy.
    pub fn taxonomy_library() -> Grid {
        Grid {
            points: Family::DSL_LIBRARY
                .into_iter()
                .enumerate()
                .map(|(i, f)| GridPoint::new(f, f.default_file_size()).with_salt(i as u64))
                .collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The `--grid` axis choices of the `sweep` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// Detection-period (`D`) scale ladder.
    D,
    /// File-size ladder (Figure 7's axis).
    Size,
    /// CPU-count ladder.
    Cpus,
    /// Pipelined-vs-sequential pair.
    Pipelined,
    /// Symlink-vs-hardlink swap pair.
    Swap,
    /// One point per DSL taxonomy-library scenario.
    Taxonomy,
}

impl GridKind {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<GridKind> {
        match s {
            "d" => Some(GridKind::D),
            "size" => Some(GridKind::Size),
            "cpus" => Some(GridKind::Cpus),
            "pipelined" => Some(GridKind::Pipelined),
            "swap" => Some(GridKind::Swap),
            "taxonomy" => Some(GridKind::Taxonomy),
            _ => None,
        }
    }

    /// Builds the standard grid for this axis: `points` points on
    /// `family` at `file_size` bytes.
    ///
    /// * `D` — scales spread linearly over 0.25×…2× the family's default
    ///   checking gap.
    /// * `Size` — Figure 7's ladder, `points` sizes of 40 KB steps.
    /// * `Cpus` — 1, 2, 4, … doubling up to `points` entries.
    /// * `Pipelined` — the Figure 11 pair (ignores `points`).
    /// * `Swap` — the symlink-vs-hardlink pair (ignores `points` and
    ///   `family`).
    /// * `Taxonomy` — the ten-scenario DSL library (ignores every
    ///   argument; each family runs at its calibration size).
    pub fn build(self, family: Family, file_size: u64, points: usize) -> Grid {
        let n = points.max(1);
        match self {
            GridKind::D => {
                let scales: Vec<f64> = if n == 1 {
                    vec![1.0]
                } else {
                    (0..n)
                        .map(|i| 0.25 + i as f64 * (2.0 - 0.25) / (n - 1) as f64)
                        .collect()
                };
                Grid::d_sweep(family, file_size, &scales)
            }
            GridKind::Size => {
                let sizes_kb: Vec<u64> = (1..=n as u64).map(|i| i * 40).collect();
                Grid::file_size_kb_sweep(family, &sizes_kb)
            }
            GridKind::Cpus => {
                let cpus: Vec<usize> = (0..n.min(6)).map(|i| 1 << i).collect();
                Grid::cpu_sweep(family, file_size, &cpus)
            }
            GridKind::Pipelined => Grid::pipelined_pair(file_size),
            GridKind::Swap => Grid::swap_technique_pair(file_size),
            GridKind::Taxonomy => Grid::taxonomy_library(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_sim::time::SimDuration;

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("nonsense"), None);
    }

    #[test]
    fn plain_point_matches_named_constructor() {
        let s = GridPoint::new(Family::GeditSmp, 2048).scenario();
        let direct = Scenario::gedit_smp(2048);
        assert_eq!(s.name, direct.name);
        assert_eq!(s.machine.cpus, direct.machine.cpus);
    }

    #[test]
    fn d_scale_scales_the_checking_gap() {
        let base = GridPoint::new(Family::ViSmp, 1024).scenario();
        let halved = GridPoint::new(Family::ViSmp, 1024)
            .with_d_scale(0.5)
            .scenario();
        let gap = |s: &Scenario| s.attacker[0].loop_gap;
        assert_eq!(gap(&halved), gap(&base).mul_f64(0.5));
        assert!(halved.name.ends_with("+dx0.5"), "{}", halved.name);
        // The pipelined pair scales its detection loop, not its poll.
        let pipe = |k| {
            let mut p = GridPoint::new(Family::PipelinedAttack, 512);
            p.d_scale = k;
            p.scenario()
        };
        let (base, halved) = (pipe(None), pipe(Some(0.5)));
        assert_eq!(gap(&halved), gap(&base).mul_f64(0.5));
        assert_eq!(halved.attacker[1].loop_gap, base.attacker[1].loop_gap);
    }

    #[test]
    fn cpu_override_rewrites_the_machine() {
        let s = GridPoint::new(Family::GeditSmp, 2048)
            .with_cpus(4)
            .scenario();
        assert_eq!(s.machine.cpus, 4);
        assert!(s.machine.validate().is_ok(), "override keeps spec valid");
    }

    #[test]
    fn pipelined_switch_swaps_attacker_shape() {
        let on = GridPoint::new(Family::GeditSmp, 2048)
            .with_pipelined(true)
            .scenario();
        let names: Vec<&str> = on.attacker.iter().map(|p| &*p.name).collect();
        assert_eq!(names, ["attacker-detect", "attacker-link"]);
        assert_eq!(on.attacker[1].loop_gap, SimDuration::from_micros(1));
        let off = GridPoint::new(Family::PipelinedAttack, 512)
            .with_pipelined(false)
            .scenario();
        // The off-point is the named sequential control's attacker.
        let named = Scenario::sequential_attack(512);
        assert_eq!(
            format!("{:?}", off.attacker),
            format!("{:?}", named.attacker)
        );
        // Hardlink and DSL-library attackers have no pipelined form.
        for family in [Family::HardlinkSwap, Family::MktempReopen] {
            let s = GridPoint::new(family, 512).with_pipelined(true).scenario();
            assert_eq!(s.attacker.len(), 1, "{}", s.name);
            assert!(!s.name.ends_with("+pipe"), "{}", s.name);
        }
    }

    #[test]
    fn taxonomy_grid_covers_the_dsl_library() {
        let g = GridKind::Taxonomy.build(Family::ViSmp, 1024, 3);
        assert_eq!(g.len(), Family::DSL_LIBRARY.len());
        for (i, p) in g.points.iter().enumerate() {
            assert_eq!(p.seed_salt, i as u64);
            assert_eq!(p.file_size, p.family.default_file_size());
            // Every point materializes into a runnable scenario.
            let s = p.scenario();
            assert!(!s.attacker.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn figure_grids_keep_historical_salts() {
        let g = Grid::file_size_kb_sweep(Family::ViSmp, &[40, 400, 1000]);
        assert_eq!(
            g.points.iter().map(|p| p.seed_salt).collect::<Vec<_>>(),
            [40, 400, 1000],
            "salt = size_kb is the pre-sweep per-figure seed schedule"
        );
        assert_eq!(g.points[1].file_size, 400 * 1024);
    }

    #[test]
    fn grid_kind_builders_cover_requested_points() {
        let d = GridKind::D.build(Family::GeditSmp, 2048, 8);
        assert_eq!(d.len(), 8);
        assert_eq!(d.points[0].d_scale, Some(0.25));
        assert_eq!(d.points[7].d_scale, Some(2.0));
        let sizes = GridKind::Size.build(Family::ViSmp, 0, 3);
        assert_eq!(
            sizes.points.iter().map(|p| p.file_size).collect::<Vec<_>>(),
            [40 * 1024, 80 * 1024, 120 * 1024]
        );
        let cpus = GridKind::Cpus.build(Family::GeditSmp, 2048, 4);
        assert_eq!(
            cpus.points.iter().flat_map(|p| p.cpus).collect::<Vec<_>>(),
            [1, 2, 4, 8]
        );
        assert_eq!(GridKind::Pipelined.build(Family::ViSmp, 512, 9).len(), 2);
        let swap = GridKind::Swap.build(Family::ViSmp, 100 * 1024, 9);
        assert_eq!(
            swap.points.iter().map(|p| p.family).collect::<Vec<_>>(),
            [Family::ViSmp, Family::HardlinkSwap]
        );
    }
}

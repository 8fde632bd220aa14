//! Shared command-line flag parsing for the `repro`, `trace`, `sweep` and
//! `campaign` binaries.
//!
//! All four binaries accept the same Monte-Carlo knobs (`--rounds`,
//! `--seed`, `--jobs`); [`CommonArgs`] parses them once so the argument
//! loops cannot drift apart. The grid axes of the `sweep` and `campaign`
//! binaries (`--grid`/`--family`/`--size-kb`/`--points`) follow the same
//! pattern through [`GridArgs`] rather than hand-rolled parsers. Each
//! binary keeps its own loop for its private flags (`campaign`'s store
//! knobs, `sweep`'s `--collect-ld`) and calls the shared `accept` methods
//! first.

use crate::grid::{Family, Grid, GridKind};

/// The largest `--rounds` any binary accepts: 2^24 = 16,777,216 rounds per
/// grid point, sixteen times the largest run the docs use. `estimate`
/// holds its `--pilot` and `--wave` to the same ceiling.
///
/// The drivers cut a point's rounds into blocks of at most
/// `MAX_ITEM_ROUNDS` = 256 and list every block before running any, so one
/// point's list holds at most 2^24 / 2^8 = 65,536 blocks of 24 bytes: 1.5
/// MiB. Beyond the ceiling the list alone can exhaust memory (`--rounds
/// 18446744073709551615` asks for 7.2 × 10^16 blocks).
pub(crate) const MAX_ROUNDS: u64 = 1 << 24;
const _: () = assert!(
    MAX_ROUNDS / crate::sweep::MAX_ITEM_ROUNDS
        * std::mem::size_of::<crate::executor::Block>() as u64
        == 3 << 19,
    "one point's block list at MAX_ROUNDS is 1.5 MiB"
);

/// The largest `--points` a grid accepts. A grid point costs about 712
/// bytes, and each point adds its own block list, so at [`MAX_ROUNDS`] a
/// grid of `MAX_POINTS` = 256 points lists at most 256 × 1.5 MiB = 384 MiB
/// of blocks; at the default 200 rounds, one block per point.
const MAX_POINTS: usize = 256;

/// The `--rounds` / `--seed` / `--jobs` / `--cold` / `--anatomy` /
/// `--perfetto` flags shared by the binaries.
///
/// Every binary parses all of them so invocations stay flag-compatible;
/// a binary that has no use for a flag simply ignores it (the same
/// parity contract `trace` already applies to `--rounds`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonArgs {
    /// `--rounds N`, if given.
    pub rounds: Option<u64>,
    /// `--seed N`, if given.
    pub seed: Option<u64>,
    /// `--jobs N` (`0` = auto-detect), if given.
    pub jobs: Option<usize>,
    /// `--cold`: run every round from a cold boot instead of the warm
    /// checkpoint — the byte-identical oracle path (slower, same results).
    pub cold: bool,
    /// `--anatomy`: shorthand for the race-window anatomy scorecard
    /// (`repro` renders it as the `anatomy` exhibit; elsewhere parity-only).
    pub anatomy: bool,
    /// `--perfetto PATH`: write a Chrome trace-event / Perfetto JSON view
    /// of the round (`trace` honors it; elsewhere parity-only).
    pub perfetto: Option<String>,
}

impl CommonArgs {
    /// Consumes `arg` (and its value from `rest`) if it is one of the
    /// shared flags. Returns `Ok(true)` when the flag was recognized,
    /// `Ok(false)` when the caller should handle it.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when a recognized flag is missing its
    /// value or the value does not parse.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--rounds" => {
                let rounds = parse_value(arg, rest)?;
                if rounds > MAX_ROUNDS {
                    return Err(format!(
                        "invalid --rounds {rounds}: at most {MAX_ROUNDS} rounds per point"
                    ));
                }
                self.rounds = Some(rounds);
                Ok(true)
            }
            "--seed" => {
                self.seed = Some(parse_value(arg, rest)?);
                Ok(true)
            }
            "--jobs" => {
                self.jobs = Some(parse_value(arg, rest)?);
                Ok(true)
            }
            "--cold" => {
                self.cold = true;
                Ok(true)
            }
            "--anatomy" => {
                self.anatomy = true;
                Ok(true)
            }
            "--perfetto" => {
                self.perfetto = Some(rest.next().ok_or_else(|| format!("{arg} needs a value"))?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Overwrites a config's fields with whichever flags were given.
    pub fn apply(&self, rounds: &mut u64, seed: &mut u64, jobs: &mut usize) {
        if let Some(r) = self.rounds {
            *rounds = r;
        }
        if let Some(s) = self.seed {
            *seed = s;
        }
        if let Some(j) = self.jobs {
            *jobs = j;
        }
    }
}

/// The grid-axis flags of the `sweep` binary: `--grid`, `--family`,
/// `--size-kb`, `--points`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridArgs {
    /// `--grid <d|size|cpus|pipelined|swap|taxonomy>`, if given.
    pub grid: Option<GridKind>,
    /// `--family <name>` (see [`Family::name`]), if given.
    pub family: Option<Family>,
    /// `--size-kb N` document size for non-size grids, if given.
    pub size_kb: Option<u64>,
    /// `--points N` grid resolution, if given.
    pub points: Option<usize>,
}

impl GridArgs {
    /// Consumes `arg` (and its value from `rest`) if it is one of the
    /// grid flags, mirroring [`CommonArgs::accept`].
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when a recognized flag is missing
    /// its value or the value does not parse.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--grid" => {
                let raw: String = parse_value(arg, rest)?;
                self.grid = Some(GridKind::parse(&raw).ok_or_else(|| {
                    format!(
                        "invalid --grid value {raw:?}: expected d, size, cpus, pipelined, swap or taxonomy"
                    )
                })?);
                Ok(true)
            }
            "--family" => {
                let raw: String = parse_value(arg, rest)?;
                self.family = Some(Family::parse(&raw).ok_or_else(|| {
                    let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
                    format!(
                        "invalid --family value {raw:?}: expected one of {}",
                        names.join(", ")
                    )
                })?);
                Ok(true)
            }
            "--size-kb" => {
                self.size_kb = Some(parse_value(arg, rest)?);
                Ok(true)
            }
            "--points" => {
                self.points = Some(parse_value(arg, rest)?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Builds the requested grid, filling unset flags with defaults
    /// (family `gedit-smp`, the family's default file size, 8 points).
    ///
    /// # Errors
    ///
    /// Returns a usage message when `--grid` was never given,
    /// `--points` is 0 or above `MAX_POINTS` (256), or `--size-kb` overflows
    /// a byte count ([`size_kb_bytes`]).
    pub fn build_grid(&self) -> Result<Grid, String> {
        let kind = self
            .grid
            .ok_or("missing --grid <d|size|cpus|pipelined|swap|taxonomy>".to_string())?;
        match self.points {
            Some(0) => return Err("invalid --points 0: a grid needs at least one point".into()),
            Some(n) if n > MAX_POINTS => {
                return Err(format!(
                    "invalid --points {n}: a grid has at most {MAX_POINTS} points"
                ))
            }
            _ => {}
        }
        let family = self.family.unwrap_or(Family::GeditSmp);
        let file_size = match self.size_kb {
            Some(kb) => size_kb_bytes(kb)?,
            None => family.default_file_size(),
        };
        Ok(kind.build(family, file_size, self.points.unwrap_or(8)))
    }
}

/// Converts a `--size-kb` value to bytes.
///
/// # Errors
///
/// Returns a usage message when the byte count overflows `u64` (a
/// `--size-kb` of 2^54 or more), instead of wrapping to a different size.
pub fn size_kb_bytes(kb: u64) -> Result<u64, String> {
    kb.checked_mul(1024)
        .ok_or_else(|| format!("invalid --size-kb {kb}: {kb} KiB overflows a 64-bit byte count"))
}

/// Unwraps the result of writing an output artifact, or exits 1 with
/// `cannot write <path>: <error>`: an unwritable `--out` is a user error,
/// not a panic. [`Report`](crate::report::Report) errors already name
/// their path.
pub fn or_exit<T>(result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot write {e}");
        std::process::exit(1);
    })
}

fn parse_value<T: std::str::FromStr>(
    flag: &str,
    rest: &mut dyn Iterator<Item = String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|e| format!("invalid {flag} value {raw:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<(CommonArgs, Vec<String>), String> {
        let mut common = CommonArgs::default();
        let mut leftover = Vec::new();
        let mut it = tokens.iter().map(|s| s.to_string());
        while let Some(arg) = it.next() {
            if !common.accept(&arg, &mut it)? {
                leftover.push(arg);
            }
        }
        Ok((common, leftover))
    }

    #[test]
    fn accepts_all_three_flags_and_passes_others_through() {
        let (c, rest) = parse(&[
            "vi-smp", "--rounds", "40", "--seed", "7", "--jobs", "0", "--width",
        ])
        .unwrap();
        assert_eq!(c.rounds, Some(40));
        assert_eq!(c.seed, Some(7));
        assert_eq!(c.jobs, Some(0));
        assert_eq!(rest, ["vi-smp", "--width"]);
    }

    #[test]
    fn apply_overwrites_only_given_flags() {
        let (c, _) = parse(&["--jobs", "4"]).unwrap();
        let (mut rounds, mut seed, mut jobs) = (120u64, 0xD07u64, 1usize);
        c.apply(&mut rounds, &mut seed, &mut jobs);
        assert_eq!((rounds, seed, jobs), (120, 0xD07, 4));
    }

    #[test]
    fn missing_or_bad_values_are_reported() {
        assert!(parse(&["--rounds"]).unwrap_err().contains("--rounds"));
        let err = parse(&["--seed", "xyzzy"]).unwrap_err();
        assert!(err.contains("--seed") && err.contains("xyzzy"), "{err}");
        assert!(parse(&["--perfetto"]).unwrap_err().contains("--perfetto"));
    }

    #[test]
    fn rounds_above_the_ceiling_are_rejected() {
        let (c, _) = parse(&["--rounds", &MAX_ROUNDS.to_string()]).unwrap();
        assert_eq!(c.rounds, Some(MAX_ROUNDS));
        let err = parse(&["--rounds", "18446744073709551615"]).unwrap_err();
        assert!(
            err.starts_with("invalid --rounds 18446744073709551615: "),
            "{err}"
        );
    }

    #[test]
    fn forensics_flags_parse_everywhere() {
        let (c, rest) = parse(&["--anatomy", "--perfetto", "out.json", "vi-smp"]).unwrap();
        assert!(c.anatomy);
        assert_eq!(c.perfetto.as_deref(), Some("out.json"));
        assert_eq!(rest, ["vi-smp"]);
        let (c, _) = parse(&["--rounds", "5"]).unwrap();
        assert!(!c.anatomy && c.perfetto.is_none(), "both default off");
    }

    fn parse_grid(tokens: &[&str]) -> Result<(GridArgs, Vec<String>), String> {
        let mut args = GridArgs::default();
        let mut leftover = Vec::new();
        let mut it = tokens.iter().map(|s| s.to_string());
        while let Some(arg) = it.next() {
            if !args.accept(&arg, &mut it)? {
                leftover.push(arg);
            }
        }
        Ok((args, leftover))
    }

    #[test]
    fn grid_args_accept_all_axes() {
        let (g, rest) = parse_grid(&[
            "--grid",
            "d",
            "--family",
            "vi-smp",
            "--size-kb",
            "40",
            "--points",
            "4",
            "--json",
        ])
        .unwrap();
        assert_eq!(g.grid, Some(GridKind::D));
        assert_eq!(g.family, Some(Family::ViSmp));
        assert_eq!(g.size_kb, Some(40));
        assert_eq!(g.points, Some(4));
        assert_eq!(rest, ["--json"]);
        let grid = g.build_grid().unwrap();
        assert_eq!(grid.len(), 4);
        assert!(grid.points.iter().all(|p| p.file_size == 40 * 1024));
    }

    #[test]
    fn grid_args_reject_unknown_axis_and_family() {
        let err = parse_grid(&["--grid", "bogus"]).unwrap_err();
        assert!(err.contains("--grid") && err.contains("bogus"), "{err}");
        let err = parse_grid(&["--family", "emacs"]).unwrap_err();
        assert!(err.contains("gedit-smp"), "lists valid names: {err}");
    }

    #[test]
    fn grid_args_reject_zero_points() {
        let (g, _) = parse_grid(&["--grid", "d", "--points", "0"]).unwrap();
        let err = g.build_grid().unwrap_err();
        assert!(err.contains("--points 0"), "{err}");
    }

    #[test]
    fn grid_args_reject_points_above_the_ceiling() {
        let points = |n: usize| {
            let (g, _) = parse_grid(&["--grid", "d", "--points", &n.to_string()]).unwrap();
            g.build_grid()
        };
        assert_eq!(points(MAX_POINTS).unwrap().len(), MAX_POINTS);
        let err = points(100_000_000).unwrap_err();
        assert!(err.starts_with("invalid --points 100000000: "), "{err}");
    }

    #[test]
    fn size_kb_overflowing_a_byte_count_is_rejected() {
        let size = |kb: u64| {
            let (g, _) = parse_grid(&["--grid", "d", "--size-kb", &kb.to_string()]).unwrap();
            g.build_grid().map(|grid| grid.points[0].file_size)
        };
        let largest = u64::MAX / 1024;
        assert_eq!(size(largest), Ok(largest * 1024));
        // 2^54 KiB wrapped to 0 bytes; u64::MAX KiB to 2^64 - 1024.
        for kb in [largest + 1, 1 << 54, u64::MAX] {
            let err = size(kb).unwrap_err();
            assert!(
                err.starts_with(&format!("invalid --size-kb {kb}: ")),
                "{err}"
            );
            assert_eq!(size_kb_bytes(kb), Err(err));
        }
        assert_eq!(size_kb_bytes(2), Ok(2048));
    }

    #[test]
    fn taxonomy_grid_ignores_family_and_size() {
        let (g, _) = parse_grid(&["--grid", "taxonomy", "--family", "vi-smp"]).unwrap();
        assert_eq!(g.grid, Some(GridKind::Taxonomy));
        let grid = g.build_grid().unwrap();
        assert_eq!(grid.len(), Family::DSL_LIBRARY.len());
        assert_eq!(grid.points[0].family, Family::TmpLogrotate);
    }

    #[test]
    fn grid_defaults_fill_in() {
        let (g, _) = parse_grid(&["--grid", "d"]).unwrap();
        let grid = g.build_grid().unwrap();
        assert_eq!(grid.len(), 8, "default 8 points");
        assert!(
            grid.points
                .iter()
                .all(|p| p.family == Family::GeditSmp && p.file_size == 2048),
            "defaults: gedit-smp at its default size"
        );
        assert!(GridArgs::default().build_grid().is_err(), "--grid required");
    }
}

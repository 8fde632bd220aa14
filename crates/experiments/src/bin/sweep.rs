//! `sweep` — run one parameter grid through the grid-parallel sweep
//! engine.
//!
//! ```text
//! sweep --grid <d|size|cpus|pipelined|swap|taxonomy> [--family F] [--size-kb N]
//!       [--points N] [--rounds N] [--seed S] [--jobs J] [--out DIR]
//!       [--collect-ld] [--cold]
//!
//! axes:     d         detection-period scales 0.25×..2× (Formula (1))
//!           size      file-size ladder (Figure 7's axis)
//!           cpus      CPU counts 1, 2, 4, ...
//!           pipelined pipelined vs sequential attacker (Figure 11)
//!           swap      symlink vs hardlink swap pair
//!           taxonomy  one point per DSL-library scenario (distinct pairs)
//! families: vi-uni vi-smp gedit-uni gedit-smp gedit-mc-v1 gedit-mc-v2
//!           pipelined hardlink tmp-logrotate chown-walk tmp-sweeper
//!           maildrop installer-read pkg-installer mktemp-reopen sock-bind
//!           vi-crowd swap-contest
//! ```
//!
//! Prints the per-point success table to stdout and writes `sweep.json`
//! plus `SWEEP.md` under the output directory (default
//! `target/experiments`). Every grid point's outcome is byte-identical to
//! a standalone `run_mc` at base seed `seed + salt`, whatever `--jobs`
//! says — the sweep engine only changes how fast the grid finishes.

use tocttou_experiments::cli::{or_exit, parse_value, CommonArgs, GridArgs};
use tocttou_experiments::report::Report;
use tocttou_experiments::sweep::{run_sweep, SweepConfig};

#[derive(Debug)]
struct Args {
    common: CommonArgs,
    grid: GridArgs,
    collect_ld: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut common = CommonArgs::default();
    let mut grid = GridArgs::default();
    let mut collect_ld = false;
    let mut out = "target/experiments".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if common.accept(&arg, &mut it)? || grid.accept(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--out" => out = parse_value(&arg, &mut it)?,
            "--collect-ld" => collect_ld = true,
            "--help" | "-h" => {
                return Err(
                    "usage: sweep --grid <d|size|cpus|pipelined|swap|taxonomy> [--family F] [--size-kb N] \
                     [--points N] [--rounds N] [--seed S] [--jobs J] [--out DIR] [--collect-ld] \
                     [--cold]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        common,
        grid,
        collect_ld,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let grid = match args.grid.build_grid() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if grid.is_empty() {
        eprintln!("empty grid: no points to sweep, refusing to write an empty report");
        std::process::exit(3);
    }
    let mut cfg = SweepConfig {
        grid,
        rounds: 200,
        base_seed: 0x7061_7065,
        collect_ld: args.collect_ld,
        jobs: 1,
        cold: args.common.cold,
    };
    args.common
        .apply(&mut cfg.rounds, &mut cfg.base_seed, &mut cfg.jobs);
    let mut report = or_exit(Report::new(&args.out));

    let outcome = run_sweep(&cfg);
    println!("{outcome}");

    or_exit(report.add("sweep", &outcome));
    let path = or_exit(report.write_combined("SWEEP.md"));
    eprintln!("wrote {}", path.display());
}

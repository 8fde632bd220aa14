//! `estimate` — adaptive rare-event estimation of one scenario's success
//! rate.
//!
//! ```text
//! estimate --family F [--size-kb N] [--target R] [--seed S] [--jobs J]
//!          [--cold] [--store DIR] [--block N] [--max-rounds N]
//!          [--pilot N] [--wave N] [--near-ns N] [--strata N] [--out DIR]
//! ```
//!
//! Runs waves of simulation rounds until the 95 % confidence interval's
//! half-width is at most `--target` (default 0.2 = ±20 %) relative to the
//! estimated rate, stratifying the victim's laxity window and splitting
//! strata whose rounds climb the forensics milestone ladder — typically
//! an order of magnitude fewer rounds than a fixed-round `sweep` needs
//! for the same precision on a rare-event scenario. With `--store DIR`
//! the waves land in a campaign-style content-addressed store, so a
//! killed run resumes and an unchanged re-run replays from cache;
//! `--block N` (default 64) sets the rounds per store record and matters
//! only with `--store`, since without it the workers share each wave
//! round by round.
//!
//! Prints the outcome and writes `estimate.json` + `ESTIMATE.md` under
//! the output directory (default `target/experiments`). The result is
//! byte-identical at any `--jobs` value, warm or cold.

use tocttou_experiments::cli::{or_exit, parse_value, size_kb_bytes};
use tocttou_experiments::estimate::{run_estimate, EstimateConfig};
use tocttou_experiments::grid::Family;
use tocttou_experiments::report::Report;

#[derive(Debug)]
struct Args {
    family: Family,
    /// `--size-kb` in bytes, if given.
    file_size: Option<u64>,
    cfg: EstimateConfig,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut family = None;
    let mut size_kb = None;
    let mut cfg = EstimateConfig::default();
    let mut out = "target/experiments".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--family" => {
                let raw: String = parse_value(&arg, &mut it)?;
                family = Some(Family::parse(&raw).ok_or_else(|| {
                    let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
                    format!(
                        "invalid --family value {raw:?}: expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--size-kb" => size_kb = Some(parse_value(&arg, &mut it)?),
            "--target" => cfg.target_rel_half_width = parse_value(&arg, &mut it)?,
            "--seed" => cfg.base_seed = parse_value(&arg, &mut it)?,
            "--jobs" => cfg.jobs = parse_value(&arg, &mut it)?,
            "--cold" => cfg.cold = true,
            "--store" => {
                let dir: String = parse_value(&arg, &mut it)?;
                cfg.store = Some(dir.into());
            }
            "--block" => cfg.block = parse_value(&arg, &mut it)?,
            "--max-rounds" => cfg.max_rounds = parse_value(&arg, &mut it)?,
            "--pilot" => cfg.pilot_rounds = parse_value(&arg, &mut it)?,
            "--wave" => cfg.wave_rounds = parse_value(&arg, &mut it)?,
            "--near-ns" => cfg.near_miss_ns = parse_value(&arg, &mut it)?,
            "--strata" => cfg.initial_strata = parse_value(&arg, &mut it)?,
            "--out" => out = parse_value(&arg, &mut it)?,
            "--help" | "-h" => {
                return Err(
                    "usage: estimate --family F [--size-kb N] [--target R] [--seed S] [--jobs J] \
                     [--cold] [--store DIR] [--block N] [--max-rounds N] [--pilot N] [--wave N] \
                     [--near-ns N] [--strata N] [--out DIR]\n\
                     --block N sets the rounds per --store record; without --store the \
                     workers share each wave round by round"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let family = family.ok_or("missing --family <name>")?;
    // Reject bad knob combinations here so misuse exits 2 before any
    // simulation or store I/O starts.
    cfg.validate()?;
    Ok(Args {
        family,
        file_size: size_kb.map(size_kb_bytes).transpose()?,
        cfg,
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
    let file_size = args
        .file_size
        .unwrap_or_else(|| args.family.default_file_size());
    let scenario = args.family.build(file_size);
    let mut report = or_exit(Report::new(&args.out));

    let run = match run_estimate(&scenario, &args.cfg) {
        Ok(r) => r,
        // Knobs only checkable against the scenario (an oversized pilot
        // wave) come back as InvalidInput: misuse, not a failed run.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("estimation failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", run.outcome);
    if run.cached_rounds > 0 {
        eprintln!(
            "store replay: {} rounds cached, {} computed",
            run.cached_rounds, run.computed_rounds
        );
    }

    or_exit(report.add("estimate", &run.outcome));
    let path = or_exit(report.write_combined("ESTIMATE.md"));
    eprintln!("wrote {}", path.display());
}

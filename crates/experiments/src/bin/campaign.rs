//! `campaign` — resumable sweep campaigns over a content-addressed store.
//!
//! ```text
//! campaign --store DIR --grid <d|size|cpus|pipelined|swap|taxonomy>
//!          [--family F] [--size-kb N] [--points N] [--rounds N] [--seed S]
//!          [--jobs J] [--block N] [--max-blocks N] [--out DIR] [--cold]
//! campaign --store DIR --status
//! ```
//!
//! Computes whichever seed blocks of the grid the store does not already
//! hold, appending each finished block to `DIR/blocks.jsonl` as it lands
//! (so a killed run loses at most the block in flight), then streams the
//! aggregate out of the store once it covers the whole grid. The aggregate
//! is written as `campaign.json` + `CAMPAIGN.md` under the output
//! directory (default `target/experiments`) and is byte-identical to the
//! one-shot `sweep` binary on the same grid (without `--collect-ld`) —
//! `cmp campaign.json sweep.json` is the oracle check CI runs.
//!
//! `--max-blocks N` stops after N newly computed blocks, leaving a valid
//! partial store for a later run to resume; `--status` prints the store's
//! manifest and exits. Cache keys cover the scenario content (including
//! the cost model) and the engine schema version, so editing either simply
//! invalidates the affected blocks on the next run — `--compact` rewrites
//! `blocks.jsonl` keeping only the records the given grid still addresses,
//! reclaiming the space of superseded and orphaned blocks in place.

use tocttou_experiments::campaign::{compact_store, read_manifest, run_campaign, CampaignConfig};
use tocttou_experiments::cli::{or_exit, parse_value, CommonArgs, GridArgs};
use tocttou_experiments::report::Report;

#[derive(Debug)]
struct Args {
    common: CommonArgs,
    grid: GridArgs,
    store: String,
    out: String,
    block: u64,
    max_blocks: Option<u64>,
    status: bool,
    compact: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut common = CommonArgs::default();
    let mut grid = GridArgs::default();
    let mut store = None;
    let mut out = "target/experiments".to_string();
    let mut block = 100u64;
    let mut max_blocks = None;
    let mut status = false;
    let mut compact = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if common.accept(&arg, &mut it)? || grid.accept(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--store" => store = Some(parse_value(&arg, &mut it)?),
            "--out" => out = parse_value(&arg, &mut it)?,
            "--block" => block = parse_value(&arg, &mut it)?,
            "--max-blocks" => max_blocks = Some(parse_value(&arg, &mut it)?),
            "--status" => status = true,
            "--compact" => compact = true,
            "--help" | "-h" => {
                return Err(
                    "usage: campaign --store DIR --grid <d|size|cpus|pipelined|swap|taxonomy> \
                     [--family F] [--size-kb N] [--points N] [--rounds N] [--seed S] [--jobs J] \
                     [--block N] [--max-blocks N] [--out DIR] [--cold] [--compact] \
                     | campaign --store DIR --status"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        common,
        grid,
        store: store.ok_or("missing --store DIR")?,
        out,
        block,
        max_blocks,
        status,
        compact,
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
    let store = std::path::Path::new(&args.store);

    if args.status {
        match read_manifest(store) {
            Ok(Some(manifest)) => println!("{manifest}"),
            Ok(None) => println!("campaign store: no manifest at {}", store.display()),
            Err(e) => {
                eprintln!("cannot read store {}: {e}", store.display());
                std::process::exit(1);
            }
        }
        return;
    }

    if args.block == 0 {
        eprintln!("invalid --block 0: block size must be at least 1");
        std::process::exit(2);
    }
    let grid = match args.grid.build_grid() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if grid.is_empty() {
        eprintln!("empty grid: no points to campaign over");
        std::process::exit(3);
    }
    let mut cfg = CampaignConfig {
        grid,
        block: args.block,
        max_blocks: args.max_blocks,
        cold: args.common.cold,
        ..CampaignConfig::default()
    };
    args.common
        .apply(&mut cfg.rounds, &mut cfg.base_seed, &mut cfg.jobs);

    if args.compact {
        match compact_store(store, &cfg) {
            Ok(stats) => println!("{stats}"),
            Err(e) => {
                eprintln!("compaction of store {} failed: {e}", store.display());
                std::process::exit(1);
            }
        }
        return;
    }

    let mut report = or_exit(Report::new(&args.out));
    let outcome = match run_campaign(store, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign on store {} failed: {e}", store.display());
            std::process::exit(1);
        }
    };
    println!("{outcome}");

    match outcome.aggregate {
        Some(aggregate) => {
            println!("{aggregate}");
            or_exit(report.add("campaign", &aggregate));
            let path = or_exit(report.write_combined("CAMPAIGN.md"));
            eprintln!("wrote {}", path.display());
        }
        None => {
            eprintln!(
                "store incomplete ({} blocks remaining); re-run without --max-blocks to finish",
                outcome.remaining_blocks
            );
        }
    }
}

//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <exhibit>... [--rounds N] [--seed S] [--jobs J] [--cold] [--out DIR]
//!
//! `repro --help` lists the exhibits; an unknown name exits 2.
//!
//! `--detect` is shorthand for the `detect` exhibit (the passive race
//! detector scored against Monte-Carlo ground truth); `--profile` likewise
//! selects the kernel observability scorecard (semaphore contention,
//! syscall latency, scheduler counters); `--anatomy` the race-window
//! anatomy scorecard (window widths, strike offsets and near-miss
//! distributions over the DSL taxonomy library).
//! ```
//!
//! Each exhibit prints its rows to stdout and writes `<exhibit>.json` plus a
//! combined `REPORT.md` under the output directory (default
//! `target/experiments`).

use tocttou_experiments::cli::{or_exit, parse_value, CommonArgs};
use tocttou_experiments::figures::{
    anatomy, defense, detect, fig10, fig11, fig6, fig7, fig8, headline, ld_dist, maze, pair_sweep,
    profile, table1, table2, taxonomy,
};
use tocttou_experiments::report::Report;
use tocttou_experiments::svg::{line_chart, span_chart, BarRow, ChartConfig, Series};

/// Every exhibit name `repro` accepts: the `--help` text and the
/// unknown-name check both read this list.
const EXHIBITS: [&str; 17] = [
    "fig6", "fig7", "table1", "table2", "fig8", "fig10", "fig11", "headline", "defense", "detect",
    "profile", "pairs", "taxonomy", "anatomy", "maze", "lddist", "all",
];

#[derive(Debug)]
struct Args {
    exhibits: Vec<String>,
    common: CommonArgs,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut exhibits = Vec::new();
    let mut common = CommonArgs::default();
    let mut out = "target/experiments".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if common.accept(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--out" => out = parse_value(&arg, &mut it)?,
            "--detect" => exhibits.push("detect".to_string()),
            "--profile" => exhibits.push("profile".to_string()),
            "--anatomy" => exhibits.push("anatomy".to_string()),
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro <{}>... [--detect] [--profile] [--anatomy] [--rounds N] \
                     [--seed S] [--jobs J] [--cold] [--out DIR]",
                    EXHIBITS.join("|")
                ));
            }
            name if EXHIBITS.contains(&name) => exhibits.push(name.to_string()),
            name if !name.starts_with('-') => {
                return Err(format!(
                    "unknown exhibit {name}; expected one of: {}",
                    EXHIBITS.join(" ")
                ));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if exhibits.is_empty() {
        exhibits.push("all".to_string());
    }
    if common.rounds == Some(0) {
        return Err("invalid --rounds 0: an exhibit needs at least one round".into());
    }
    Ok(Args {
        exhibits,
        common,
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
    let wants = |name: &str| {
        args.exhibits.iter().any(|e| e == name) || args.exhibits.iter().any(|e| e == "all")
    };
    let mut report = or_exit(Report::new(&args.out));

    if wants("headline") {
        let mut cfg = headline::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = headline::run(&cfg);
        println!("{out}");
        or_exit(report.add("headline", &out));
    }
    if wants("fig6") {
        let mut cfg = fig6::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = fig6::run(&cfg);
        println!("{out}");
        or_exit(report.add("fig6", &out));
        let svg = line_chart(
            &ChartConfig {
                title: "Figure 6 — vi uniprocessor attack success vs file size".into(),
                x_label: "file size (KB)".into(),
                y_label: "success rate".into(),
                ..ChartConfig::default()
            },
            &[
                Series {
                    label: "observed".into(),
                    points: out
                        .rows
                        .iter()
                        .map(|r| (r.size_kb as f64, r.observed))
                        .collect(),
                    color: "#d62728".into(),
                },
                Series {
                    label: "model (window/timeslice)".into(),
                    points: out
                        .rows
                        .iter()
                        .map(|r| (r.size_kb as f64, r.model))
                        .collect(),
                    color: "#1f77b4".into(),
                },
            ],
        );
        or_exit(report.write("fig6.svg", svg));
    }
    if wants("fig7") {
        let mut cfg = fig7::Config::default();
        if let Some(r) = args.common.rounds {
            cfg.rounds = (r / 10).max(3);
        }
        if let Some(s) = args.common.seed {
            cfg.seed = s;
        }
        if let Some(j) = args.common.jobs {
            cfg.jobs = j;
        }
        cfg.cold = args.common.cold;
        let out = fig7::run(&cfg);
        println!("{out}");
        or_exit(report.add("fig7", &out));
        let svg = line_chart(
            &ChartConfig {
                title: "Figure 7 — L and D for vi SMP attacks".into(),
                x_label: "file size (KB)".into(),
                y_label: "time (µs)".into(),
                ..ChartConfig::default()
            },
            &[
                Series {
                    label: "L".into(),
                    points: out
                        .rows
                        .iter()
                        .map(|r| (r.size_kb as f64, r.l_us))
                        .collect(),
                    color: "#d62728".into(),
                },
                Series {
                    label: "D".into(),
                    points: out
                        .rows
                        .iter()
                        .map(|r| (r.size_kb as f64, r.d_us))
                        .collect(),
                    color: "#1f77b4".into(),
                },
            ],
        );
        or_exit(report.write("fig7.svg", svg));
    }
    if wants("table1") {
        let mut cfg = table1::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = table1::run(&cfg);
        println!("{out}");
        or_exit(report.add("table1", &out));
    }
    if wants("table2") {
        let mut cfg = table2::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = table2::run(&cfg);
        println!("{out}");
        or_exit(report.add("table2", &out));
    }
    if wants("fig8") {
        let mut cfg = fig8::Config::default();
        if let Some(s) = args.common.seed {
            cfg.seed = s;
        }
        let out = fig8::run(&cfg);
        println!("{out}");
        or_exit(report.add("fig8", &out));
        or_exit(report.write("fig8.svg", &out.timeline_svg));
    }
    if wants("fig10") {
        let mut cfg = fig10::Config::default();
        if let Some(s) = args.common.seed {
            cfg.seed = s;
        }
        let out = fig10::run(&cfg);
        println!("{out}");
        or_exit(report.add("fig10", &out));
        or_exit(report.write("fig10.svg", &out.timeline_svg));
    }
    if wants("fig11") {
        let mut cfg = fig11::Config::default();
        if let Some(s) = args.common.seed {
            cfg.seed = s;
        }
        let out = fig11::run(&cfg);
        println!("{out}");
        or_exit(report.add("fig11", &out));
        let rows: Vec<BarRow> = out
            .rows
            .iter()
            .map(|r| BarRow {
                label: format!("{} KB {}", r.size_kb, r.variant),
                spans: vec![
                    (
                        r.stat.start_us,
                        r.stat.end_us,
                        "#999999".into(),
                        "stat".into(),
                    ),
                    (
                        r.unlink.start_us,
                        r.unlink.end_us,
                        "#d62728".into(),
                        "unlink".into(),
                    ),
                    (
                        r.symlink.start_us,
                        r.symlink.end_us,
                        "#1f77b4".into(),
                        "symlink".into(),
                    ),
                ],
            })
            .collect();
        let svg = span_chart(
            &ChartConfig {
                title: "Figure 11 — pipelined vs sequential attack".into(),
                x_label: "time (µs)".into(),
                ..ChartConfig::default()
            },
            &rows,
        );
        or_exit(report.write("fig11.svg", svg));
    }

    if wants("defense") {
        let mut cfg = defense::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = defense::run(&cfg);
        println!("{out}");
        or_exit(report.add("defense", &out));
    }
    if wants("detect") {
        let mut cfg = detect::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = detect::run(&cfg);
        println!("{out}");
        or_exit(report.add("detect", &out));
    }
    if wants("profile") {
        let mut cfg = profile::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = profile::run(&cfg);
        println!("{out}");
        or_exit(report.add("profile", &out));
    }
    if wants("pairs") {
        let mut cfg = pair_sweep::Config::default();
        if let Some(r) = args.common.rounds {
            cfg.rounds = (r / 20).max(2);
        }
        if let Some(s) = args.common.seed {
            cfg.seed = s;
        }
        let out = pair_sweep::run(&cfg);
        println!("{out}");
        or_exit(report.add("pair_sweep", &out));
    }

    if wants("taxonomy") {
        let mut cfg = taxonomy::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = taxonomy::run(&cfg);
        println!("{out}");
        or_exit(report.add("taxonomy", &out));
    }

    if wants("anatomy") {
        let mut cfg = anatomy::Config::default();
        args.common
            .apply(&mut cfg.rounds, &mut cfg.seed, &mut cfg.jobs);
        cfg.cold = args.common.cold;
        let out = anatomy::run(&cfg);
        println!("{out}");
        or_exit(report.add("anatomy", &out));
    }

    if wants("lddist") {
        let mut cfg = ld_dist::Config::default();
        if let Some(r) = args.common.rounds {
            cfg.rounds = r;
        }
        if let Some(s) = args.common.seed {
            cfg.seed = s;
        }
        let out = ld_dist::run(&cfg);
        println!("{out}");
        or_exit(report.add("ld_dist", &out));
    }
    if wants("maze") {
        let mut cfg = maze::Config::default();
        if let Some(r) = args.common.rounds {
            cfg.rounds = r;
        }
        if let Some(s) = args.common.seed {
            cfg.seed = s;
        }
        let out = maze::run(&cfg);
        println!("{out}");
        or_exit(report.add("maze", &out));
        let svg = line_chart(
            &ChartConfig {
                title: "Maze amplification — uniprocessor success vs pathname depth".into(),
                x_label: "maze depth (components)".into(),
                y_label: "success rate".into(),
                ..ChartConfig::default()
            },
            &[Series {
                label: "observed".into(),
                points: out
                    .rows
                    .iter()
                    .map(|r| (r.depth as f64, r.observed))
                    .collect(),
                color: "#d62728".into(),
            }],
        );
        or_exit(report.write("maze.svg", svg));
    }

    let path = or_exit(report.write_combined("REPORT.md"));
    eprintln!("wrote {}", path.display());
}

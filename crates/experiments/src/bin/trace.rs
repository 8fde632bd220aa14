//! `trace` — render the event timeline of one scenario round.
//!
//! ```text
//! trace <scenario> [--seed S] [--width W] [--find success|failure] [--jobs J]
//!                  [--export PATH] [--perfetto PATH]
//!
//! scenarios: vi-uni vi-smp vi-smp-1b vi-hardlink-smp gedit-uni gedit-smp
//!            gedit-mc-v1 gedit-mc-v2 pipelined
//! ```
//!
//! Prints the round outcome and a Figure 8/10-style ASCII timeline of the
//! victim and attacker(s). With `--find`, seeds are scanned (from `--seed`)
//! until a round with the requested outcome turns up; `--jobs` fans the
//! scan across worker threads and still reports the lowest matching seed.
//! `--export` additionally writes the round as JSONL — header, every kernel
//! event, every detection, and the round's metrics snapshot. `--perfetto`
//! runs the round with the forensics event log armed and writes a Chrome
//! trace-event JSON file (per-CPU tracks, semaphore holds, race windows,
//! strike and detection markers) loadable in `ui.perfetto.dev` or
//! `chrome://tracing`; both exports compose in one invocation.

use tocttou_experiments::cli::{parse_value, CommonArgs};
use tocttou_experiments::export::export_jsonl;
use tocttou_experiments::perfetto::export_perfetto;
use tocttou_experiments::timeline::Timeline;
use tocttou_sim::time::{SimDuration, SimTime};
use tocttou_workloads::scenario::Scenario;

/// The widest timeline `--width` may ask for.
const MAX_WIDTH: usize = 10_000;

/// Reports a bad command line and exits 2.
fn usage_error(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn scenario_by_name(name: &str) -> Option<Scenario> {
    Some(match name {
        "vi-uni" => Scenario::vi_uniprocessor(100 * 1024),
        "vi-smp" => Scenario::vi_smp(100 * 1024),
        "vi-smp-1b" => Scenario::vi_smp(1),
        "vi-hardlink-smp" => Scenario::hardlink_vi_smp(100 * 1024),
        "gedit-uni" => Scenario::gedit_uniprocessor(2048),
        "gedit-smp" => Scenario::gedit_smp(2048),
        "gedit-mc-v1" => Scenario::gedit_multicore_v1(2048),
        "gedit-mc-v2" => Scenario::gedit_multicore_v2(2048),
        "pipelined" => Scenario::pipelined_attack(100 * 1024),
        _ => return None,
    })
}

/// Scans `count` seeds from `start` for the first round whose success flag
/// equals `wanted`, fanning contiguous chunks across `jobs` threads. The
/// lowest matching seed wins regardless of thread count, because the first
/// match of the lowest-numbered chunk with any match is the global first.
fn scan_seeds(
    scenario: &Scenario,
    start: u64,
    count: u64,
    wanted: bool,
    jobs: usize,
) -> Option<u64> {
    let jobs = tocttou_experiments::monte_carlo::effective_jobs(jobs, count);
    if jobs <= 1 {
        return (start..start + count).find(|&s| scenario.run_round(s).success == wanted);
    }
    let chunk = count.div_ceil(jobs as u64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs as u64)
            .map(|w| {
                let lo = start + w * chunk;
                let hi = (lo + chunk).min(start + count);
                scope.spawn(move || (lo..hi).find(|&s| scenario.run_round(s).success == wanted))
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("seed-scan worker panicked"))
            .next()
    })
}

fn main() {
    let mut name = None;
    let mut common = CommonArgs::default();
    let mut width = 110usize;
    let mut find: Option<bool> = None;
    let mut export: Option<String> = None;
    let mut perfetto: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match common.accept(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => usage_error(e),
        }
        match arg.as_str() {
            "--width" => {
                width = parse_value(&arg, &mut it).unwrap_or_else(|e| usage_error(e));
                if width > MAX_WIDTH {
                    usage_error(format!(
                        "invalid --width {width}: at most {MAX_WIDTH} columns"
                    ));
                }
            }
            "--export" => {
                export = Some(parse_value(&arg, &mut it).unwrap_or_else(|e| usage_error(e)))
            }
            "--perfetto" => {
                perfetto = Some(parse_value(&arg, &mut it).unwrap_or_else(|e| usage_error(e)))
            }
            "--find" => {
                let v: String = parse_value(&arg, &mut it).unwrap_or_else(|e| usage_error(e));
                find = Some(match v.as_str() {
                    "success" => true,
                    "failure" => false,
                    _ => usage_error(format!(
                        "invalid --find value {v:?}: expected success or failure"
                    )),
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace <vi-uni|vi-smp|vi-smp-1b|vi-hardlink-smp|gedit-uni|gedit-smp|gedit-mc-v1|gedit-mc-v2|pipelined> [--seed S] [--width W] [--find success|failure] [--jobs J] [--export PATH] [--perfetto PATH]"
                );
                return;
            }
            other if other.starts_with('-') => usage_error(format!("unknown flag {other}")),
            other => name = Some(other.to_string()),
        }
    }
    // A timeline shows one round; `--rounds` exists only for flag parity.
    let seed = common.seed.unwrap_or(1);
    let jobs = common.jobs.unwrap_or(1);
    let name = name.unwrap_or_else(|| usage_error("missing scenario name (try --help)".into()));
    let mut scenario = scenario_by_name(&name)
        .unwrap_or_else(|| usage_error(format!("unknown scenario {name:?} (try --help)")));
    if perfetto.is_some() {
        // Arm the forensics event log so the Perfetto view gets
        // semaphore-hold spans and windows; the round itself stays
        // deterministic either way.
        scenario.machine = scenario.machine.clone().with_event_log();
    }

    let (result, mut handles, used_seed) = match find {
        None => {
            let (r, h) = scenario.run_traced(seed);
            (r, h, seed)
        }
        Some(wanted) => match scan_seeds(&scenario, seed, 500, wanted, jobs) {
            Some(s) => {
                let (r, h) = scenario.run_traced(s);
                (r, h, s)
            }
            None => {
                eprintln!(
                    "no {} round within 500 seeds",
                    if wanted { "successful" } else { "failed" }
                );
                std::process::exit(1);
            }
        },
    };

    println!(
        "{} seed {}: {} after {}",
        scenario.name,
        used_seed,
        if result.success {
            "ATTACK SUCCEEDED"
        } else {
            "attack failed"
        },
        result.elapsed
    );
    // Window the chart around the victim's save (skip the idle prologue).
    let first_syscall = handles
        .kernel
        .trace()
        .iter()
        .find(|r| matches!(r.event, tocttou_os::OsEvent::SyscallEnter { .. }))
        .map(|r| r.at)
        .unwrap_or(SimTime::ZERO);
    let origin = SimTime::from_nanos(
        first_syscall
            .as_nanos()
            .saturating_sub(SimDuration::from_micros(10).as_nanos()),
    );
    let mut procs: Vec<(tocttou_os::Pid, &str)> = vec![(handles.victim, "victim")];
    let labels = ["attacker", "attacker-2"];
    for (i, pid) in handles.attackers.iter().enumerate() {
        procs.push((*pid, labels.get(i).copied().unwrap_or("attacker-n")));
    }
    let tl = Timeline::from_trace(handles.kernel.trace(), &procs, origin, handles.kernel.now());
    print!("{}", tl.render_ascii(width));

    if let Some(path) = export {
        let file = std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        let mut w = std::io::BufWriter::new(file);
        let lines = export_jsonl(&mut w, &scenario.name, used_seed, &handles.kernel)
            .and_then(|n| std::io::Write::flush(&mut w).map(|()| n))
            .unwrap_or_else(|e| {
                eprintln!("export to {path} failed: {e}");
                std::process::exit(1);
            });
        eprintln!("exported {lines} JSONL records to {path}");
    }

    if let Some(path) = &perfetto {
        // Classify any still-open windows/strikes so the trace shows them.
        handles.kernel.forensics_mut().flush();
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        let mut w = std::io::BufWriter::new(file);
        let events = export_perfetto(&mut w, &scenario.name, used_seed, &handles.kernel, &procs)
            .and_then(|n| std::io::Write::flush(&mut w).map(|()| n))
            .unwrap_or_else(|e| {
                eprintln!("perfetto export to {path} failed: {e}");
                std::process::exit(1);
            });
        eprintln!("exported {events} trace events to {path}");
    }
}

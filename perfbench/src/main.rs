//! The repository benchmark: four workloads driven through the public run
//! drivers, end-to-end host-time metrics from untraced runs, and per-layer
//! metrics from a separate traced run. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod alloc;
mod replay;
mod spans;
mod stats;
mod work;

use spans::{Layer, Name, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tocttou_os::kernel::KernelPool;
use tocttou_os::metrics::MetricId;
use tocttou_sim::metrics::LatencyHistogram;
use tocttou_sim::queue::EventQueue;
use tocttou_sim::rng::nested_base;
use tocttou_sim::time::{SimDuration, SimTime};
use work::{Call, Checks, Outcome, Prepared, Sizes, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed whose outcome digests are pinned in `digests.json`.
const DEFAULT_SEED: u64 = 1;

/// Output digests of the first driver call at [`DEFAULT_SEED`].
const DIGESTS: &str = include_str!("../digests.json");

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rounds_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units. A metric of a layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.template_us", "us"),
    ("workloads.checkpoint_us", "us"),
    ("workloads.dsl_compile_us", "us"),
    ("workloads.boot_us_p50", "us"),
    ("workloads.boot_us_p99", "us"),
    ("workloads.cold_boot_us_p50", "us"),
    ("os.run_us_p50", "us"),
    ("os.run_us_p99", "us"),
    ("os.events_per_round", "count"),
    ("os.ns_per_event", "ns"),
    ("os.observers_us", "us"),
    ("os.recycle_us", "us"),
    ("os.allocs_per_round", "count"),
    ("os.alloc_bytes_per_round", "B"),
    ("os.vfs_stat_ns", "ns"),
    ("sim.queue_ns_per_op", "ns"),
    ("os.sim.ctx_switches_per_round", "count"),
    ("os.sim.preemptions_per_round", "count"),
    ("os.sim.traps_per_round", "count"),
    ("os.sim.vfs_ops_per_round", "count"),
    ("os.sim.sem_wait_us_p50", "us"),
    ("os.sim.runq_delay_us_p50", "us"),
    ("os.sim.round_us", "us"),
    ("os.sim.strikes_per_round", "count"),
    ("os.sim.strike_hit_frac", "frac"),
    ("experiments.fingerprint_us", "us"),
    ("experiments.observe_us", "us"),
    ("experiments.driver_frac", "frac"),
    ("campaign.store_bytes_per_round", "B"),
    ("campaign.warm_replay_s", "s"),
    ("campaign.warm_us_per_block", "us"),
    ("campaign.cache_hit_frac", "frac"),
    ("campaign.cold_sim_frac", "frac"),
    ("estimate.rounds", "rounds"),
    ("estimate.waves", "count"),
    ("estimate.strata", "count"),
    ("estimate.live_frac", "frac"),
    ("estimate.us_per_round", "us"),
    ("estimate.sim_frac", "frac"),
    ("trace.rounds", "count"),
    ("trace.rounds_per_s", "1/s"),
    ("trace.explained_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.workloads_self_frac", "frac"),
    ("trace.os_self_frac", "frac"),
    ("trace.experiments_self_frac", "frac"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::ViSmpBatch,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            quick: false,
            out: PathBuf::from(".perfbench_out"),
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "unknown workload {v:?}; expected one of {}",
                            names.join(", ")
                        )
                    })?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let v: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(v.is_finite() && v > 0.0) {
                        return Err("--seconds must be a positive number".into());
                    }
                    args.seconds = v;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--out" => args.out = PathBuf::from(value()?),
                "--quick" => args.quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// Facts about the host that every result set carries; results compare
/// only against runs with the same facts.
struct Host {
    nproc: usize,
    /// Worker threads of the untraced driver calls: one per CPU. Keeping
    /// every CPU busy with the benchmark's own work matters on hosts whose
    /// CPUs are hyperthreads shared with other tenants: a single worker
    /// leaves its sibling to them, and its timings then swing by a third
    /// with their load.
    jobs: usize,
    rustc: &'static str,
    commit: String,
}

impl Host {
    fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Only ask git inside a git checkout, so an enclosing repository's
        // commit is never reported for an exported tree.
        let commit = Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc,
            jobs: nproc,
            rustc: env!("PERFBENCH_RUSTC"),
            commit,
        }
    }
}

/// Metric values by name, emitted in table order.
#[derive(Default)]
struct Report(Vec<(&'static str, f64)>);

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let store = args.out.join(format!(
        "{}-{}.store",
        args.workload.name(),
        std::process::id()
    ));
    let host = Host::detect();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} quick={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    println!(
        "# host nproc={} jobs={} rustc=\"{}\" commit={}",
        host.nproc, host.jobs, host.rustc, host.commit
    );
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let mut checks = Checks::default();
    let result = if args.trace {
        traced_run(args, &sizes, &store, &mut checks)
    } else {
        timed_run(args, &host, &sizes, &store, &mut checks)
    };
    for dir in [store.clone(), store.with_extension("check")] {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let report = result?;
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let v = report.get(name);
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name} = {v} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// Set-up timings over repeated set-ups: total, template, checkpoint (ns).
#[derive(Default)]
struct SetupSamples {
    total: Vec<f64>,
    template: Vec<f64>,
    checkpoint: Vec<f64>,
}

/// Set-ups per batch. A batch runs before every driver call, so the
/// samples spread over the whole run like the calls do.
const SETUP_REPS: usize = 20;

impl SetupSamples {
    /// Sets the workload up [`SETUP_REPS`] times, adding the timings, and
    /// returns the last set-up's inputs.
    fn take(&mut self, w: Workload, sizes: &Sizes, store: &Path) -> Prepared {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let (prepared, t) = work::setup(w, sizes, store);
            self.total.push(t.total as f64);
            self.template.push(t.template as f64);
            self.checkpoint.push(t.checkpoint as f64);
            last = Some(prepared);
        }
        last.expect("at least one set-up")
    }
}

/// The seed of driver call `c` in a run with base seed `seed`.
fn call_seed(seed: u64, c: u64) -> u64 {
    nested_base(seed, c)
}

/// Checks the first call at the default seed against its pinned digest.
fn check_digest(args: &Args, checks: &mut Checks, call: &Call) {
    let digest = format!(
        "{:016x}",
        work::fnv1a(0xcbf2_9ce4_8422_2325, call.bytes.as_bytes())
    );
    let mode = if args.quick { "quick" } else { "full" };
    println!("# digest {mode} {} {digest}", args.workload.name());
    if args.seed != DEFAULT_SEED {
        return;
    }
    let pinned: serde_json::Value = serde_json::from_str(DIGESTS).expect("digests.json parses");
    let want = pinned
        .get(mode)
        .and_then(|m| m.get(args.workload.name()))
        .and_then(|v| match v {
            serde_json::Value::Str(s) => Some(s.clone()),
            _ => None,
        });
    checks.check(
        &format!("outcome digest at the default seed ({mode})"),
        want.as_deref() == Some(digest.as_str()),
    );
}

/// Replays the driver call at `seed` on tiny sizes through the per-round
/// calls and compares, so every untraced run makes the cross-path check.
fn quick_cross_check(
    args: &Args,
    jobs: usize,
    store: &Path,
    checks: &mut Checks,
) -> std::io::Result<()> {
    let seed = call_seed(args.seed, 0);
    let (p, _) = work::setup(args.workload, &Sizes::QUICK, &store.with_extension("check"));
    let call = work::drive(&p, seed, jobs, checks)?;
    let sets = work::round_sets(&p, &call.outcome, seed);
    let pool = KernelPool::new().retain_metrics();
    let (tallies, _) = replay_pass(
        &mut Tracer::new(false, 0),
        &sets,
        pool,
        work::near_miss_ns(),
    );
    work::compare(checks, &call.outcome, &tallies);
    Ok(())
}

fn timed_run(
    args: &Args,
    host: &Host,
    sizes: &Sizes,
    store: &Path,
    checks: &mut Checks,
) -> std::io::Result<Report> {
    let mut setup = SetupSamples::default();
    let prepared = setup.take(args.workload, sizes, store);
    let start = Instant::now();
    let mut calls: Vec<Call> = Vec::new();
    for c in 0.. {
        if c > 0 {
            setup.take(args.workload, sizes, store);
        }
        let call = work::drive(&prepared, call_seed(args.seed, c), host.jobs, checks)?;
        if c == 0 {
            check_digest(args, checks, &call);
        }
        println!(
            "# call {c} wall_s={:.6} rounds={}",
            call.wall_s, call.rounds
        );
        calls.push(call);
        if calls.len() >= 3 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    quick_cross_check(args, host.jobs, store, checks)?;

    let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    let rps: Vec<f64> = calls.iter().map(|c| c.rounds as f64 / c.wall_s).collect();
    let peaks: Vec<f64> = calls
        .iter()
        .map(|c| c.peak_bytes as f64 / (1 << 20) as f64)
        .collect();
    let setup_s: Vec<f64> = setup.total.iter().map(|ns| ns / 1e9).collect();
    println!("# setup_s {}", stats::describe(&setup_s));
    println!("# wall_s {}", stats::describe(&walls));
    println!("# rounds_per_s {}", stats::describe(&rps));
    println!("# peak_heap_mb {}", stats::describe(&peaks));
    let warm: Vec<f64> = calls
        .iter()
        .filter_map(|c| c.warm.as_ref().map(|w| w.wall_s))
        .collect();
    if !warm.is_empty() {
        println!("# warm_replay_s {}", stats::describe(&warm));
    }
    if let Outcome::Estimate(_) = calls[0].outcome {
        let rounds: Vec<f64> = calls.iter().map(|c| c.rounds as f64).collect();
        println!("# estimate_rounds {}", stats::describe(&rounds));
    }
    println!(
        "# checks attempted={} failed={}",
        checks.attempted, checks.failed
    );

    let mut r = Report::default();
    r.set("setup_s", stats::median(&setup_s));
    r.set("wall_s", stats::median(&walls));
    r.set("rounds_per_s", stats::median(&rps));
    r.set("peak_heap_mb", stats::median(&peaks));
    Ok(r)
}

/// ns per operation of the kernel's event queue at its working depth of
/// 16 pending events: pop the earliest, push a successor a short
/// pseudo-random delay later. Median of five passes.
fn queue_ns_per_op(ops: u64) -> f64 {
    let mut x = 0x5EEDu64;
    let mut lcg = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut passes = Vec::new();
    for _ in 0..5 {
        let mut q = EventQueue::new();
        for i in 0..16u64 {
            q.push(SimTime::from_nanos(lcg() % 1_000_000), i);
        }
        let t = Instant::now();
        let mut done = 0;
        while done < ops {
            let (at, id) = q.pop().expect("queue holds 16 events");
            q.push(at + SimDuration::from_nanos(1 + lcg() % 100_000), id);
            done += 2;
        }
        std::hint::black_box(q.len());
        passes.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    stats::median(&passes)
}

/// ns per `Vfs::stat` over the layout paths of a frozen template. Median
/// of five passes.
fn vfs_stat_ns(set: &replay::RoundSet, reps: u64) -> f64 {
    let l = &set.scenario.layout;
    let paths = [
        &l.passwd,
        &l.home,
        &l.doc,
        &l.backup,
        &l.temp,
        &l.attack_dir,
        &l.dummy,
    ];
    let mut passes = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            for p in paths {
                let _ = std::hint::black_box(set.template.stat(std::hint::black_box(p)));
            }
        }
        passes.push(t.elapsed().as_nanos() as f64 / (reps * paths.len() as u64) as f64);
    }
    stats::median(&passes)
}

/// µs to build and compile the DSL taxonomy library. Median of 15.
fn dsl_compile_us() -> f64 {
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(tocttou_workloads::dsl::library::taxonomy_library(None));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&samples)
}

fn scale(xs: &[f64], k: f64) -> Vec<f64> {
    xs.iter().map(|v| v * k).collect()
}

/// Replays every set under one root span, returning the tallies in set
/// order and the pool for the next pass.
fn replay_pass(
    tracer: &mut Tracer,
    sets: &[replay::RoundSet],
    mut pool: KernelPool,
    near_miss_ns: u64,
) -> (Vec<replay::Tally>, KernelPool) {
    let root = tracer.open(Name::Loop, None);
    let mut tallies = Vec::with_capacity(sets.len());
    for set in sets {
        let (t, back) = replay::replay(tracer, root, set, pool, near_miss_ns);
        pool = back;
        tallies.push(t);
    }
    tracer.close(root);
    (tallies, pool)
}

/// Timings pooled over the traced run's passes; per-call durations in µs.
#[derive(Default)]
struct Passes {
    plain_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    /// Self time per [`Name::ALL`] entry, summed over traced passes (ns).
    self_ns: Vec<f64>,
    boot: Vec<f64>,
    run: Vec<f64>,
    bare_run: Vec<f64>,
    recycle: Vec<f64>,
    fingerprint: Vec<f64>,
    observe: Vec<f64>,
    allocs: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

impl Passes {
    fn add(&mut self, t: &Tracer, rounds: u64, allocs: u64, alloc_bytes: u64) {
        let n = rounds.max(1) as f64;
        self.traced_ns.push(t.root_ns() as f64);
        self.self_ns.resize(Name::ALL.len(), 0.0);
        for (acc, (_, v)) in self.self_ns.iter_mut().zip(t.self_ns()) {
            *acc += v as f64;
        }
        self.boot.extend(us(&t.durations(Name::Boot)));
        self.run.extend(us(&t.durations(Name::Run)));
        self.recycle.extend(us(&t.durations(Name::Recycle)));
        self.fingerprint.extend(us(&t.durations(Name::Fingerprint)));
        self.observe.extend(us(&t.durations(Name::Observe)));
        self.allocs.push(allocs as f64 / n);
        self.alloc_bytes.push(alloc_bytes as f64 / n);
    }
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e3).collect()
}

fn traced_run(
    args: &Args,
    sizes: &Sizes,
    store: &Path,
    checks: &mut Checks,
) -> std::io::Result<Report> {
    let mut setup = SetupSamples::default();
    let prepared = setup.take(args.workload, sizes, store);
    let mut r = Report::default();
    r.set(
        "workloads.template_us",
        stats::median(&setup.template) / 1e3,
    );
    r.set(
        "workloads.checkpoint_us",
        stats::median(&setup.checkpoint) / 1e3,
    );
    let dsl = matches!(args.workload, Workload::TaxonomyCampaign);
    r.set(
        "workloads.dsl_compile_us",
        if dsl { dsl_compile_us() } else { 0.0 },
    );

    // Each iteration makes one untraced driver call on one worker, then
    // replays its rounds three times: untraced, traced, and traced with
    // every observer stripped. Interleaving keeps slow drifts of the host
    // out of the comparisons between the four.
    let seed = call_seed(args.seed, 0);
    let near = work::near_miss_ns();
    let mut pool = KernelPool::new().retain_metrics();
    let mut calls: Vec<Call> = Vec::new();
    let mut sets = Vec::new();
    let mut bare_sets = Vec::new();
    let mut tallies = Vec::new();
    let mut first: Option<Tracer> = None;
    let mut p = Passes::default();
    let start = Instant::now();
    while calls.len() < 3 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        setup.take(args.workload, sizes, store);
        let call = work::drive(&prepared, seed, 1, checks)?;
        if calls.is_empty() {
            check_digest(args, checks, &call);
            sets = work::round_sets(&prepared, &call.outcome, seed);
            bare_sets = sets
                .iter()
                .map(replay::RoundSet::without_observers)
                .collect();
        } else {
            checks.check(
                "repeated driver calls give the same bytes",
                call.bytes == calls[0].bytes,
            );
        }
        let rounds: u64 = sets.iter().map(|s| s.rounds).sum();
        let capacity = rounds as usize * 8 + sets.len() + 4;

        let mut off = Tracer::new(false, 0);
        let t = Instant::now();
        pool = replay_pass(&mut off, &sets, pool, near).1;
        p.plain_ns.push(t.elapsed().as_nanos() as f64);

        let mut tracer = Tracer::new(true, capacity);
        let before = alloc::totals();
        let (t, back) = replay_pass(&mut tracer, &sets, pool, near);
        let after = alloc::totals();
        pool = back;
        work::compare(checks, &call.outcome, &t);
        p.add(
            &tracer,
            rounds,
            after.calls - before.calls,
            after.bytes - before.bytes,
        );

        let mut bare = Tracer::new(true, capacity);
        pool = replay_pass(&mut bare, &bare_sets, pool, 0).1;
        p.bare_run.extend(us(&bare.durations(Name::Run)));

        calls.push(call);
        if first.is_none() {
            first = Some(tracer);
            tallies = t;
        }
    }
    let tracer = first.expect("at least one traced pass");
    let mut cold = Tracer::new(
        true,
        sets.iter().map(|s| s.rounds as usize).sum::<usize>() + 4,
    );
    let cold_root = cold.open(Name::Loop, None);
    for set in &sets {
        pool = replay::cold_boots(&mut cold, cold_root, set, pool);
    }
    cold.close(cold_root);
    drop(pool);

    let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    let driver_ns = stats::median(&walls) * 1e9;
    let plain_ns = stats::median(&p.plain_ns);
    let traced_ns = stats::median(&p.traced_ns);
    println!(
        "# driver wall_s {} (seed of call 0, jobs=1)",
        stats::describe(&walls)
    );
    println!(
        "# untraced replay_s {}",
        stats::describe(&scale(&p.plain_ns, 1e-9))
    );
    println!(
        "# traced replay_s {}",
        stats::describe(&scale(&p.traced_ns, 1e-9))
    );

    std::fs::create_dir_all(&args.out)?;
    let spans_path = args.out.join(format!("{}.spans.tsv", args.workload.name()));
    tracer.write_tsv(&spans_path)?;
    println!(
        "# spans of the first traced pass: {} in {}",
        tracer.spans.len(),
        spans_path.display()
    );

    // Per-layer timings from the spans of every traced pass.
    let rounds: u64 = sets.iter().map(|s| s.rounds).sum();
    let n = rounds.max(1) as f64;
    let cold_boot = us(&cold.durations(Name::ColdBoot));
    println!("# boot_us {}", stats::describe(&p.boot));
    println!("# run_us {}", stats::describe(&p.run));
    println!("# cold_boot_us {}", stats::describe(&cold_boot));
    r.set("workloads.boot_us_p50", stats::median(&p.boot));
    r.set("workloads.boot_us_p99", stats::quantile(&p.boot, 0.99));
    r.set("workloads.cold_boot_us_p50", stats::median(&cold_boot));
    r.set("os.run_us_p50", stats::median(&p.run));
    r.set("os.run_us_p99", stats::quantile(&p.run, 0.99));
    let events: u64 = tallies.iter().map(|t| t.events).sum();
    r.set("os.events_per_round", events as f64 / n);
    r.set(
        "os.ns_per_event",
        stats::mean(&p.run) * 1e3 * n / events.max(1) as f64,
    );
    r.set(
        "os.observers_us",
        stats::mean(&p.run) - stats::mean(&p.bare_run),
    );
    r.set("os.recycle_us", stats::mean(&p.recycle));
    r.set("os.allocs_per_round", stats::median(&p.allocs));
    r.set("os.alloc_bytes_per_round", stats::median(&p.alloc_bytes));
    r.set(
        "os.vfs_stat_ns",
        vfs_stat_ns(&sets[0], if args.quick { 1_000 } else { 50_000 }),
    );
    r.set(
        "sim.queue_ns_per_op",
        queue_ns_per_op(if args.quick { 20_000 } else { 2_000_000 }),
    );

    // Simulated-time statistics: identical under any change that only
    // speeds the simulator up.
    let mut metrics = tocttou_os::metrics::MetricsSnapshot::default();
    let mut forensics = tocttou_os::forensics::ForensicsSnapshot::default();
    for t in &tallies {
        metrics.merge(&t.metrics);
        forensics.merge(&t.forensics);
    }
    let c = &metrics.counters;
    r.set(
        "os.sim.ctx_switches_per_round",
        c.context_switches as f64 / n,
    );
    r.set("os.sim.preemptions_per_round", c.preemptions as f64 / n);
    r.set("os.sim.traps_per_round", c.traps as f64 / n);
    r.set("os.sim.vfs_ops_per_round", c.vfs_ops as f64 / n);
    let mut sem_wait = LatencyHistogram::new();
    for (id, h) in &metrics.hists {
        if let Some((_, false)) = id.as_sem() {
            sem_wait.merge(h);
        }
    }
    let p50_us = |h: Option<&LatencyHistogram>| {
        h.and_then(|h| h.quantile_ns(0.5))
            .map_or(0.0, |ns| ns as f64 / 1e3)
    };
    r.set("os.sim.sem_wait_us_p50", p50_us(Some(&sem_wait)));
    r.set(
        "os.sim.runq_delay_us_p50",
        p50_us(metrics.hist(MetricId::RUN_QUEUE)),
    );
    let sim_ns: u64 = tallies.iter().map(|t| t.sim_ns).sum();
    r.set("os.sim.round_us", sim_ns as f64 / 1e3 / n);
    let strikes = forensics.strikes_total();
    r.set("os.sim.strikes_per_round", strikes as f64 / n);
    r.set(
        "os.sim.strike_hit_frac",
        if strikes == 0 {
            0.0
        } else {
            forensics.strikes_hit as f64 / strikes as f64
        },
    );

    // Self time per layer, and how much of the traced passes the layers
    // explain.
    let layer = |l: Layer| -> f64 {
        Name::ALL
            .iter()
            .zip(&p.self_ns)
            .filter(|(n, _)| n.layer() == l)
            .map(|(_, v)| *v)
            .sum()
    };
    let root_ns: f64 = p.traced_ns.iter().sum();
    let (wl, os, ex) = (
        layer(Layer::Workloads),
        layer(Layer::Os),
        layer(Layer::Experiments),
    );
    let layers = wl + os + ex;
    for (name, v) in Name::ALL.iter().zip(&p.self_ns) {
        println!("# self {} {:.3} ms", name.label(), v / 1e6);
    }
    r.set("experiments.fingerprint_us", stats::mean(&p.fingerprint));
    r.set(
        "experiments.observe_us",
        if p.observe.is_empty() {
            0.0
        } else {
            stats::mean(&p.observe)
        },
    );
    r.set("experiments.driver_frac", 1.0 - plain_ns / driver_ns);
    r.set("trace.rounds", rounds as f64);
    r.set("trace.rounds_per_s", n / (traced_ns / 1e9));
    r.set("trace.explained_frac", layers / root_ns);
    r.set("trace.overhead_frac", traced_ns / plain_ns - 1.0);
    r.set("trace.workloads_self_frac", wl / root_ns);
    r.set("trace.os_self_frac", os / root_ns);
    r.set("trace.experiments_self_frac", ex / root_ns);
    checks.check(
        "traced layer self times sum to within 5% of the traced wall time",
        layers / root_ns >= 0.95,
    );

    // Driver-specific layers.
    let warm = calls
        .iter()
        .filter_map(|c| c.warm.as_ref())
        .collect::<Vec<_>>();
    let (mut store_b, mut warm_s, mut warm_blk, mut hit, mut cold_frac) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(first) = warm.first() {
        let warm_walls: Vec<f64> = warm.iter().map(|w| w.wall_s).collect();
        warm_s = stats::median(&warm_walls);
        store_b = first.store_bytes as f64 / n;
        warm_blk = warm_s * 1e6 / first.total_blocks as f64;
        hit = first.cached_blocks as f64 / first.total_blocks as f64;
        cold_frac = plain_ns / driver_ns;
        println!("# warm_replay_s {}", stats::describe(&warm_walls));
    }
    r.set("campaign.store_bytes_per_round", store_b);
    r.set("campaign.warm_replay_s", warm_s);
    r.set("campaign.warm_us_per_block", warm_blk);
    r.set("campaign.cache_hit_frac", hit);
    r.set("campaign.cold_sim_frac", cold_frac);
    let (mut est_rounds, mut waves, mut strata, mut live, mut us_round, mut sim_frac) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    if let Outcome::Estimate(o) = &calls[0].outcome {
        est_rounds = o.simulated_rounds as f64;
        waves = o.waves as f64;
        strata = o.strata.len() as f64;
        live = o.live_rounds as f64 / o.simulated_rounds as f64;
        us_round = driver_ns / 1e3 / o.simulated_rounds as f64;
        sim_frac = plain_ns / driver_ns;
        println!("# estimate: {o}");
    }
    r.set("estimate.rounds", est_rounds);
    r.set("estimate.waves", waves);
    r.set("estimate.strata", strata);
    r.set("estimate.live_frac", live);
    r.set("estimate.us_per_round", us_round);
    r.set("estimate.sim_frac", sim_frac);
    println!(
        "# checks attempted={} failed={}",
        checks.attempted, checks.failed
    );
    Ok(r)
}

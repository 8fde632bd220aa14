//! A warm pooled round allocates a small, bounded number of times: every
//! taxonomy-grid scenario and three of the paper's scenarios run rounds
//! the way the drivers do (`build_from_checkpoint` → `finish_round` →
//! `recycle` on a `retain_metrics` pool), and the allocation calls per
//! round must stay under each scenario's bound. A round that deep-copies a
//! shared table (dozens of calls) or regrows a buffer the pool should have
//! kept (one or two) shows up here. Allocation counts, unlike timings, do
//! not move with host load.
//!
//! Each bound sits about three calls above the count measured when it
//! was set (6-12 calls per round, 17.5 for pkg-installer, which creates a
//! directory and a file its template never named). Traced rounds of gedit
//! and vi on the SMP, with their L/D extraction, must allocate no more
//! than the same rounds untraced: the trace shares the kernel's strings
//! and the extractor collects nothing. CI runs the test in a release build
//! too (`cargo test --release -p tocttou-bench --test round_allocs`), the
//! way experiment batches are built.
//!
//! One test function only: the counting allocator is process-wide, and
//! tests in one binary run on parallel threads.

use tocttou_bench::alloc_count::{self, CountingAlloc};
use tocttou_experiments::extract::observe;
use tocttou_experiments::grid::Grid;
use tocttou_experiments::monte_carlo::window_kind_of;
use tocttou_os::kernel::KernelPool;
use tocttou_workloads::scenario::Scenario;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rounds run before counting, so every pooled buffer has reached its
/// steady-state capacity.
const WARMUP: u64 = 50;
/// Rounds counted per scenario.
const ROUNDS: u64 = 200;

/// Mean allocation calls per warm pooled round of `scenario`. A traced
/// round also extracts its L/D observation, as the drivers' L/D path does.
fn allocs_per_round(scenario: &Scenario, traced: bool) -> f64 {
    let template = scenario.template_vfs();
    let ck = scenario.round_checkpoint(&template);
    let kind = window_kind_of(scenario);
    let mut pool = KernelPool::new().retain_metrics();
    let round = |seed: u64, pool: KernelPool| {
        let mut handles = scenario.build_from_checkpoint(&ck, seed, traced, pool);
        std::hint::black_box(scenario.finish_round(&mut handles));
        if traced {
            std::hint::black_box(observe(
                handles.kernel.trace(),
                handles.victim,
                handles.attackers[0],
                kind,
                &scenario.layout.doc,
            ));
        }
        handles.kernel.recycle()
    };
    for seed in 0..WARMUP {
        pool = round(seed, pool);
    }
    let before = alloc_count::snapshot();
    for seed in WARMUP..WARMUP + ROUNDS {
        pool = round(seed, pool);
    }
    let calls = alloc_count::snapshot().since(before).calls;
    drop(pool);
    calls as f64 / ROUNDS as f64
}

/// Allocation-call bound per round of each taxonomy-grid point, in grid
/// order.
const TAXONOMY_BOUNDS: [f64; 10] = [9.0, 9.0, 9.0, 9.0, 9.0, 21.0, 15.0, 15.0, 15.0, 12.0];

#[test]
fn warm_pooled_rounds_allocate_within_bounds() {
    let grid = Grid::taxonomy_library();
    assert_eq!(
        grid.len(),
        TAXONOMY_BOUNDS.len(),
        "one bound per grid point"
    );
    let mut cases: Vec<(Scenario, f64)> = grid
        .points
        .iter()
        .zip(TAXONOMY_BOUNDS)
        .map(|(p, bound)| (p.scenario(), bound))
        .collect();
    cases.push((Scenario::vi_smp(100 * 1024), 11.0));
    cases.push((Scenario::gedit_smp(2 * 1024), 11.0));
    cases.push((Scenario::vi_uniprocessor(2 * 1024), 9.0));
    let mut failures = Vec::new();
    for (scenario, bound) in &cases {
        let per_round = allocs_per_round(scenario, false);
        println!(
            "{:<32} {per_round:>6.1} calls/round (bound {bound})",
            scenario.name
        );
        if per_round > *bound {
            failures.push(format!("{}: {per_round:.1} > {bound}", scenario.name));
        }
    }
    // A traced round shares the kernel's strings with its trace and
    // extracts L/D in place, so it allocates no more than an untraced one.
    for scenario in [Scenario::gedit_smp(2 * 1024), Scenario::vi_smp(100 * 1024)] {
        let untraced = allocs_per_round(&scenario, false);
        let traced = allocs_per_round(&scenario, true);
        println!(
            "{:<32} {traced:>6.2} calls/round traced (untraced {untraced:.2})",
            scenario.name
        );
        if traced > untraced {
            failures.push(format!(
                "{} traced: {traced:.2} > {untraced:.2} untraced",
                scenario.name
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "allocation calls per warm pooled round over bound: {failures:?}"
    );
}

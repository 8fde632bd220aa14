//! The in-memory drivers hold a bounded number of round observations: a
//! point's rounds run as items of a capped size, and each item is folded as
//! soon as every earlier one has arrived. So eight times the rounds must not
//! grow a call's peak heap by more than a constant, at one worker or two.
//!
//! One test function only: the counting allocator is process-wide, and
//! tests in one binary run on parallel threads.

use tocttou_bench::alloc_count::{self, CountingAlloc};
use tocttou_experiments::grid::{Family, GridKind};
use tocttou_experiments::monte_carlo::{run_mc, McConfig};
use tocttou_experiments::sweep::{run_sweep, SweepConfig};
use tocttou_workloads::scenario::Scenario;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `f` holds at its high-water mark above the live footprint before
/// it.
fn peak_of(f: impl FnOnce()) -> u64 {
    let base = alloc_count::reset_peak();
    f();
    alloc_count::peak_bytes() - base
}

#[test]
fn peak_heap_does_not_grow_with_rounds() {
    let (small, large) = (600u64, 4_800u64);
    let scenario = Scenario::gedit_smp(2048);
    for jobs in [1usize, 2] {
        let mc = |rounds| {
            peak_of(|| {
                let cfg = McConfig {
                    rounds,
                    base_seed: 3,
                    collect_ld: false,
                    jobs,
                    cold: false,
                };
                assert_eq!(run_mc(&scenario, &cfg).rounds, rounds);
            })
        };
        // With two workers the small run's peak depends on when the second
        // worker starts: under host load it can start late and leave one
        // worker's items in flight, a lower peak than the large run's
        // steady state. Take the worst of three small runs as the base.
        let samples = if jobs == 1 { 1 } else { 3 };
        let a = (0..samples).map(|_| mc(small)).max().expect("one sample");
        let b = mc(large);
        assert!(
            b < a + a / 2,
            "run_mc jobs={jobs}: peak {a} B at {small} rounds (worst of {samples}), {b} B at {large}"
        );
    }
    let sweep = |rounds| {
        peak_of(|| {
            let out = run_sweep(&SweepConfig {
                grid: GridKind::D.build(Family::GeditSmp, 2048, 2),
                rounds,
                base_seed: 3,
                collect_ld: false,
                jobs: 1,
                cold: false,
            });
            assert_eq!(out.points.len(), 2);
        })
    };
    let (a, b) = (sweep(small), sweep(large));
    assert!(
        b < a + a / 2,
        "run_sweep jobs=1: peak {a} B at {small} rounds, {b} B at {large}"
    );
}

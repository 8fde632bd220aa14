//! A template fork costs no more than a rebuild: forking the shared base
//! layout (`Scenario::template_vfs_from_base`) must make at most a quarter
//! of the heap allocation calls, and request at most a quarter of the
//! bytes, of building the same template from nothing
//! (`Scenario::template_vfs`). Allocation counts, unlike timings, do not
//! move with host load.
//!
//! One test function only: the counting allocator is process-wide, and
//! tests in one binary run on parallel threads.

use tocttou_bench::alloc_count::{self, CountingAlloc, Snapshot};
use tocttou_experiments::grid::{Family, GridKind};
use tocttou_workloads::scenario::Scenario;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes `f` makes, summed over `scenarios`.
fn allocs_of(scenarios: &[Scenario], f: impl Fn(&Scenario) -> tocttou_os::vfs::Vfs) -> Snapshot {
    let before = alloc_count::snapshot();
    for s in scenarios {
        std::hint::black_box(f(s));
    }
    alloc_count::snapshot().since(before)
}

#[test]
fn template_fork_allocates_a_quarter_of_a_rebuild() {
    let grid: Vec<Scenario> = GridKind::D
        .build(Family::GeditSmp, 2048, 8)
        .points
        .iter()
        .map(|p| p.scenario())
        .collect();
    let cases = [
        ("vi_smp(100 KiB)", vec![Scenario::vi_smp(100 * 1024)]),
        ("gedit D grid, 8 points", grid),
    ];
    for (name, scenarios) in cases {
        let base = scenarios[0].base_vfs();
        let rebuild = allocs_of(&scenarios, Scenario::template_vfs);
        let fork = allocs_of(&scenarios, |s| s.template_vfs_from_base(&base));
        println!(
            "{name}: fork {} calls / {} B, rebuild {} calls / {} B",
            fork.calls, fork.bytes, rebuild.calls, rebuild.bytes
        );
        assert!(
            fork.calls * 4 <= rebuild.calls && fork.bytes * 4 <= rebuild.bytes,
            "{name}: a fork ({} calls, {} B) should allocate at most a quarter of a \
             rebuild ({} calls, {} B)",
            fork.calls,
            fork.bytes,
            rebuild.calls,
            rebuild.bytes
        );
    }
}

//! Run the native (real-syscall) TOCTTOU laboratory on this machine.
//!
//! ```text
//! cargo run --release --example native_race_lab [rounds] [file_kb]
//! ```
//!
//! Races the simulator's own vi and gedit specs (`Scenario::vi_smp`,
//! `Scenario::gedit_multicore_v2`) with real syscalls. Requires root for
//! the full effect (the victim's chown must be able to give files away, as
//! in the paper's scenario); everything happens inside a scratch directory
//! in `$TMPDIR` — the real `/etc/passwd` is never touched.

use tocttou::lab::measure::{measure_detection_period, measure_syscall_costs, scratch_dir};
use tocttou::lab::{is_root, online_cpus, run_lab, LabConfig};
use tocttou::workloads::Scenario;

fn main() {
    let rounds: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let file_kb: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);

    println!(
        "host: {} CPU(s), root = {} — {}",
        online_cpus(),
        is_root(),
        if online_cpus() >= 2 {
            "multiprocessor regime (the paper's SMP case)"
        } else {
            "uniprocessor regime (the paper's baseline case)"
        }
    );
    if !is_root() {
        println!("note: without root the victim's chown cannot give files away;");
        println!("      the lab still runs but the window never opens.");
    }

    // How this host's syscall costs compare with the 2007 calibration.
    let dir = scratch_dir("example");
    if let Ok(costs) = measure_syscall_costs(&dir, 200) {
        println!("\n{costs}");
    }
    if let Ok(d) = measure_detection_period(&dir, 2_000) {
        println!("native detection period D ≈ {d:.2} µs (paper's SMP attacker: 41 µs)\n");
    }
    std::fs::remove_dir_all(&dir).ok();

    // The simulator's own specs, raced natively: the programs, their gaps
    // and the success rule are the ones the simulated rounds run.
    for (scenario, label) in [
        (Scenario::vi_smp(file_kb * 1024), "vi + attacker v1"),
        (
            Scenario::gedit_multicore_v2(file_kb * 1024),
            "gedit + attacker v2",
        ),
    ] {
        let scratch_root = std::env::temp_dir();
        let report = run_lab(&LabConfig {
            scenario,
            rounds,
            scratch_root,
        })
        .expect("lab I/O");
        println!("{label}: {report}");
    }
}

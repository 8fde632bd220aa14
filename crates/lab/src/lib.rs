//! # tocttou-lab — the native real-syscall TOCTTOU race laboratory
//!
//! Races a [`Scenario`](tocttou_workloads::scenario::Scenario) with
//! **actual system calls** inside a scratch directory on the host. The
//! programs are the simulator's own DSL victim and attacker step machines,
//! run on host threads pinned to distinct CPUs where the machine allows,
//! so every program the project runs, simulated or native, is one spec.
//! The privileged target is a **stand-in file** inside the scratch
//! directory, never the real `/etc/passwd`.
//!
//! * [`host`] — the host executor: path mapping, the one `match` from a
//!   `SyscallRequest` to a real syscall, and the step-machine driver;
//! * [`lab`] — the round driver and report;
//! * [`measure`] — syscall cost microbenchmarks;
//! * [`affinity`] — CPU pinning over the raw bindings in [`sys`].
//!
//! # Examples
//!
//! ```no_run
//! use tocttou_lab::lab::{run_lab, LabConfig};
//! use tocttou_workloads::scenario::Scenario;
//!
//! let scenario = Scenario::vi_smp(256 * 1024);
//! let scratch_root = std::env::temp_dir();
//! let report = run_lab(&LabConfig { scenario, rounds: 20, scratch_root })?;
//! println!("{report}");
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to the raw OS bindings in `sys`.

pub mod affinity;
pub mod host;
pub mod lab;
pub mod measure;
pub mod sys;

pub use affinity::{online_cpus, pick_cpu_pair, pin_current_thread};
pub use host::{materialise, run_program, HostProcess, ProgramRun};
pub use lab::{is_root, run_lab, run_round, LabConfig, LabReport, RoundOutcome};
pub use measure::{measure_detection_period, measure_syscall_costs, SyscallCosts};

//! # tocttou-workloads — victims and attackers from the DSN'07 paper
//!
//! The programs studied in *"Multiprocessors May Reduce System
//! Dependability under File-Based Race Condition Attacks"* (Wei & Pu,
//! DSN 2007), written once, as data, and run by one interpreter per role:
//!
//! * [`dsl`] — the spec language ([`ScenarioSpec`], [`Step`],
//!   [`AttackerProfile`], whose calls are the kernel's own
//!   `SyscallRequest`) and its interpreters ([`dsl::DslVictim`],
//!   [`dsl::DslAttacker`]);
//! * [`dsl::library`] — the vi 6.1 and gedit 2.8.3 save sequences
//!   (Figures 1 and 3), attackers v1 and v2 (Figures 2/4 and 9), the
//!   hardlink swap and the pipelined pair (Section 7), and victims across
//!   the `<check, use>` taxonomy; plus step lists that run on a kernel
//!   built by hand ([`dsl::DslVictim::new`]): rpm's install (Section
//!   3.2), sendmail's delivery (Section 1) and the generic
//!   check→window→use victim of every runnable taxonomy pair;
//! * [`scenario::Scenario`] — named machine+victim+attacker bundles for
//!   every experiment in the paper's evaluation, each a compiled spec;
//! * [`maze`] — pathname-maze layouts around the vi scenario: layouts,
//!   not processes, so nothing there to write as a step list; the
//!   scenario's own build creates the maze's directory chain.
//!
//! [`dsl::DslVictim`] and [`dsl::DslAttacker`] are the only
//! `ProcessLogic` implementations here. The sendmail mailbox flipper in
//! tests and examples stays hand-written: it loops forever with no
//! trigger, which no attacker profile describes.
//!
//! # Examples
//!
//! ```
//! use tocttou_workloads::scenario::Scenario;
//!
//! // One Monte-Carlo round of the Table 2 experiment (gedit on the SMP).
//! let round = Scenario::gedit_smp(2048).run_round(7);
//! assert!(round.victim_exited);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsl;
pub mod maze;
pub mod scenario;

pub use dsl::{AttackerProfile, CompiledVictim, Expect, ScenarioSpec, Step, SuccessRule, Trigger};
pub use maze::{vi_uniprocessor_maze, Maze};
pub use scenario::{AttackerPids, Layout, RoundHandles, RoundResult, Scenario};

//! # tocttou-workloads — victims and attackers from the DSN'07 paper
//!
//! The programs studied in *"Multiprocessors May Reduce System
//! Dependability under File-Based Race Condition Attacks"* (Wei & Pu,
//! DSN 2007), written once, as data, and run by one interpreter per role:
//!
//! * [`dsl`] — the spec language ([`ScenarioSpec`], [`Step`],
//!   [`AttackerProfile`]) and its interpreters ([`dsl::DslVictim`],
//!   [`dsl::DslAttacker`]);
//! * [`dsl::library`] — the vi 6.1 and gedit 2.8.3 save sequences
//!   (Figures 1 and 3), attackers v1 and v2 (Figures 2/4 and 9), the
//!   hardlink swap and the pipelined pair (Section 7), and victims across
//!   the `<check, use>` taxonomy;
//! * [`scenario::Scenario`] — named machine+victim+attacker bundles for
//!   every experiment in the paper's evaluation, each a compiled spec;
//! * [`generic`], [`rpm`], [`sendmail`] — hand-written victims not yet
//!   ported to specs, run directly on a kernel.
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
pub mod generic;
pub mod maze;
pub mod rpm;
pub mod scenario;
pub mod sendmail;

pub use dsl::{
    AttackerProfile, CallSpec, CompiledVictim, Expect, ScenarioSpec, Step, SuccessRule, Trigger,
};
pub use generic::{GenericConfig, GenericVictim};
pub use maze::{run_maze_round, vi_uniprocessor_maze, Maze};
pub use rpm::{RpmConfig, RpmInstall};
pub use scenario::{Layout, RoundHandles, RoundResult, Scenario};
pub use sendmail::{SendmailConfig, SendmailDeliver};

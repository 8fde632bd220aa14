//! # tocttou-experiments — reproduction harness for every table and figure
//!
//! Monte-Carlo drivers, paper-faithful L/D estimators and ASCII event
//! timelines that regenerate the evaluation of *"Multiprocessors May Reduce
//! System Dependability under File-Based Race Condition Attacks"* (Wei &
//! Pu, DSN 2007) on top of the `tocttou-os` simulator:
//!
//! * [`monte_carlo`] — seeded N-round success-rate batches;
//! * [`extract`] — trace → (t1, D, t3) → L/D per Sections 3.4/6.1;
//! * [`timeline`] — Figure 8/10-style two-lane event charts;
//! * [`figures`] — one module per exhibit (Fig 6, Fig 7, Table 1, Table 2,
//!   Fig 8, Fig 10, Fig 11, the headline comparison, the detector
//!   precision/recall scorecard, and the kernel profiling scorecard);
//! * [`grid`] — shared parameter-grid construction (family × file size ×
//!   detection period × CPU count × pipelined switch);
//! * [`sweep`] — the grid-parallel sweep engine: whole grids on one
//!   shared worker pool with snapshot/forked templates, per-point
//!   outcomes bit-identical to standalone [`monte_carlo::run_mc`];
//! * [`campaign`] — resumable sweep campaigns: content-addressed seed
//!   blocks in an append-only JSONL store, work-stealing compute over the
//!   missing blocks and streamed aggregation, byte-identical to
//!   [`sweep::run_sweep`];
//! * [`estimate`] — adaptive rare-event estimation: sequential stopping
//!   on a target relative half-width, exact stratification of the laxity
//!   window, and milestone-guided importance splitting, with [`run_mc`]
//!   kept as the brute-force oracle;
//! * `executor` (crate-private) — the one round executor behind every
//!   driver: template forking, warm/cold boot, the worker pool over
//!   `(point, seed block)` items and per-block metrics/forensics drains;
//! * [`report`] — text + JSON artifact writing;
//! * [`export`] — JSONL export of traces, detections and metrics;
//! * [`perfetto`] — Chrome trace-event / Perfetto JSON export of a
//!   traced round (per-CPU tracks, semaphore holds, race windows,
//!   strike/detection markers);
//! * [`cli`] — the `--rounds`/`--seed`/`--jobs` flags shared by the
//!   binaries;
//! * [`svg`] — dependency-free SVG rendering of the figure shapes.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run -p tocttou-experiments --release --bin repro -- all --rounds 200
//! ```
//!
//! and the `sweep` binary runs one grid directly:
//!
//! ```text
//! cargo run -p tocttou-experiments --release --bin sweep -- --grid d --points 8
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod estimate;
mod executor;
pub mod export;
pub mod extract;
pub mod figures;
pub mod grid;
pub mod monte_carlo;
pub mod perfetto;
pub mod report;
pub mod svg;
pub mod sweep;
pub mod timeline;

pub use campaign::{compact_store, run_campaign, CampaignConfig, CampaignOutcome, CompactStats};
pub use cli::CommonArgs;
pub use estimate::{
    fixed_rounds_for_target, run_estimate, EstimateConfig, EstimateOutcome, EstimateRun,
    StratumReport,
};
pub use export::{export_jsonl, SCHEMA_VERSION};
pub use extract::{observe, AttackObservation, WindowKind};
pub use grid::{Family, Grid, GridKind, GridPoint};
pub use monte_carlo::{run_mc, McConfig, McOutcome};
pub use perfetto::export_perfetto;
pub use report::Report;
pub use sweep::{run_sweep, SweepConfig, SweepOutcome};
pub use timeline::{Lane, Span, SpanKind, Timeline};

//! # tocttou-bench — asserted performance gates
//!
//! One bench, `benches/monte_carlo.rs`, holds the overhead and speedup
//! gates that no test or `perfbench/` metric holds yet: the metrics and
//! forensics overhead budgets (with the detector and spans rows reported
//! beside them), the campaign cache replay speedup, and the VFS v2
//! resolver against the v1 string walk. End-to-end and per-layer timings
//! live in `perfbench/` at the repository root.
//!
//! [`alloc_count`] provides a counting [`std::alloc::GlobalAlloc`] wrapper
//! for the heap tests under `tests/`: allocation counts of a template fork
//! and peak-heap bounds of the in-memory drivers and the campaign replay.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_count;

//! # tocttou-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the multiprocessor OS model used to reproduce
//! *"Multiprocessors May Reduce System Dependability under File-Based Race
//! Condition Attacks"* (Wei & Pu, DSN 2007). This crate provides:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]);
//! * [`queue`] — a stable (FIFO-on-tie), cancellable event queue
//!   ([`EventQueue`]);
//! * [`rng`] — a self-contained, cross-version-stable xoshiro256\*\* PRNG
//!   ([`SimRng`]);
//! * [`dist`] — duration distributions (constant/uniform/normal/exponential)
//!   for syscall costs and background kernel activity ([`DurationDist`]);
//! * [`trace`] — a generic, optionally bounded, timestamped event buffer
//!   ([`Trace`]) backing the paper-style microsecond event analysis;
//! * [`metrics`] — fixed-bucket log2 latency histograms
//!   ([`LatencyHistogram`]) with an order-independent merge, the substrate
//!   of the kernel observability layer.
//!
//! Everything here is deterministic: given the same seed and the same inputs,
//! a simulation produces the same trace, byte for byte. That property is
//! load-bearing — the reproduction's statistical claims are only auditable if
//! every experiment can be replayed.
//!
//! # Examples
//!
//! ```
//! use tocttou_sim::{EventQueue, SimRng, SimTime, DurationDist};
//!
//! // A miniature event loop: two timers with jittered durations.
//! let mut rng = SimRng::seed_from_u64(2007);
//! let cost = DurationDist::normal_us(41.1, 2.73);
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + cost.sample(&mut rng), "first");
//! queue.push(SimTime::ZERO + cost.sample(&mut rng), "second");
//! let mut fired = Vec::new();
//! while let Some((at, what)) = queue.pop() {
//!     fired.push((at, what));
//! }
//! assert_eq!(fired.len(), 2);
//! assert!(fired[0].0 <= fired[1].0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use dist::DurationDist;
pub use metrics::LatencyHistogram;
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceRecord};

//! The round executor: the one worker pool behind every driver.
//!
//! [`run_mc`](crate::monte_carlo::run_mc),
//! [`run_sweep`](crate::sweep::run_sweep), campaigns and the rare-event
//! estimator differ only in what they do with a finished seed block.
//! [`execute`] owns the rest:
//!
//! * **Set-up.** The base filesystem image is built once and forked into
//!   one template per scenario the blocks touch; each such scenario's
//!   rounds then boot from its warm checkpoint or, with the `cold` oracle
//!   flag, from the template.
//! * **The pool.** [`effective_jobs`] long-lived workers, capped at the
//!   item count, claim [`Block`]s in index order off one shared cursor.
//! * **Nothing shared that a worker writes, reference counts included.**
//!   Each worker owns one recycled [`KernelPool`], whatever the block's
//!   point, and one [`Scenario::detached`] copy of the point it is
//!   running, remade only when it claims a block of another point. A
//!   round clones its scenario's path `Arc`s into every syscall, so
//!   workers sharing one scenario would contend on those counts. The plan
//!   and the warm checkpoints are shared read-only.
//! * **Per-block results.** The sink gets the block's observations in
//!   round order and the worker's pool, to drain the block's metrics and
//!   forensics from ([`KernelPool::drain_metrics`],
//!   [`KernelPool::drain_forensics`]) if the driver folds them.
//!
//! Sinks run on the worker threads in completion order. Byte identity at
//! any `jobs` value and partition is the caller's side of the contract
//! ([`PointAcc`](crate::monte_carlo::PointAcc)'s two rules): observations
//! fold in round order, metrics and forensics merge in any order. A sink
//! that folds in index order asks for [`Order::Index`], which bounds how
//! many finished blocks can wait on an earlier one, and files them in an
//! [`InOrder`] until they can.

use crate::extract::{observe, window_length_us, WindowKind};
use crate::monte_carlo::{detection_fingerprint_of, window_kind_of, RoundObs};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use tocttou_os::kernel::{Checkpoint, KernelPool};
use tocttou_os::vfs::Vfs;
use tocttou_sim::rng::seed_block;
use tocttou_workloads::scenario::Scenario;

/// Resolves a requested job count: `0` means auto-detect, and more
/// workers than rounds is pointless.
pub fn effective_jobs(jobs: usize, rounds: u64) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    };
    requested.clamp(1, rounds.max(1).min(usize::MAX as u64) as usize)
}

/// One unit of work: rounds `[start, end)` of scenario `point`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    pub(crate) point: usize,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

impl Block {
    /// Rounds in the block.
    pub(crate) fn rounds(&self) -> u64 {
        self.end - self.start
    }
}

/// Cuts rounds `[start, end)` of `point` into contiguous blocks of at most
/// `size` rounds (at least 1), in ascending round order.
pub(crate) fn blocks(point: usize, start: u64, end: u64, size: u64) -> impl Iterator<Item = Block> {
    let size = size.max(1);
    std::iter::successors(Some(start), move |&s| Some(s.saturating_add(size)))
        .take_while(move |&s| s < end)
        .map(move |s| Block {
            point,
            start: s,
            end: s.saturating_add(size).min(end),
        })
}

/// What one executor run simulates.
pub(crate) struct Plan<'a> {
    /// One scenario per point.
    pub(crate) scenarios: &'a [Scenario],
    /// Round `i` of point `p` runs at seed `seed_bases[p] + i`.
    pub(crate) seed_bases: &'a [u64],
    /// Trace rounds and extract L/D.
    pub(crate) collect_ld: bool,
    /// Requested worker threads (`0` = auto).
    pub(crate) jobs: usize,
    /// Cold-boot every round instead of resuming the warm checkpoint.
    pub(crate) cold: bool,
}

/// How one scenario's rounds boot: resumed from its warm [`Checkpoint`],
/// or cold-booted from its filesystem template (the oracle). Both give
/// byte-identical rounds; the warm path skips the seed-independent prefix.
/// Both arms are boxed, so a warm entry carries no unused `Vfs`-sized slot.
enum Boot {
    Warm(Box<Checkpoint>),
    Cold(Box<Vfs>),
}

impl Boot {
    /// A boot and window kind for each scenario that `items` touches, and
    /// `None` for the rest (the retired strata of an estimate, say): the
    /// base image is built once from the first scenario and forked per
    /// touched scenario (all points of a grid, and all strata of an
    /// estimate, share the base layout).
    fn per_point(
        scenarios: &[Scenario],
        items: &[Block],
        cold: bool,
    ) -> Vec<Option<(Boot, WindowKind)>> {
        let mut touched = vec![false; scenarios.len()];
        for b in items {
            touched[b.point] = true;
        }
        let base = scenarios[0].base_vfs();
        scenarios
            .iter()
            .zip(touched)
            .map(|(s, touched)| {
                touched.then(|| {
                    let template = s.template_vfs_from_base(&base);
                    let boot = if cold {
                        Boot::Cold(Box::new(template))
                    } else {
                        Boot::Warm(Box::new(s.round_checkpoint(&template)))
                    };
                    (boot, window_kind_of(s))
                })
            })
            .collect()
    }
}

/// Simulates one round on pooled buffers and extracts its observation.
///
/// The round's kernel metrics aren't extracted here: the pool is created
/// with [`KernelPool::retain_metrics`], so they accumulate in place across
/// the worker's rounds and are drained once per block — zero per-round
/// cost, bit-identical to a per-round fold (the merge is pure integer
/// accumulation).
fn run_one_round(
    scenario: &Scenario,
    boot: &Boot,
    pool: KernelPool,
    seed: u64,
    kind: WindowKind,
    collect_ld: bool,
) -> (RoundObs, KernelPool) {
    let mut handles = match boot {
        Boot::Warm(ck) => scenario.build_from_checkpoint(ck, seed, collect_ld, pool),
        Boot::Cold(template) => scenario.build_pooled(seed, collect_ld, template, pool),
    };
    let result = scenario.finish_round(&mut handles);
    let milestones = handles.kernel.forensics().round_milestones();
    let detections = handles.kernel.detections();
    let mut obs = RoundObs {
        success: result.success,
        window_us: None,
        sample: None,
        flagged: !detections.is_empty(),
        detect_latency_us: detections
            .iter()
            .next()
            .map(|r| r.event.latency().as_micros_f64()),
        detect_fingerprint: detection_fingerprint_of(detections),
        window_closed: milestones.window_closed,
        min_miss_ns: milestones.min_miss_ns,
        strike_hit: milestones.strike_hit,
    };
    if collect_ld {
        if let Some(o) = observe(
            handles.kernel.trace(),
            handles.victim,
            handles.attackers[0],
            kind,
            &scenario.layout.doc,
        ) {
            obs.window_us = Some(window_length_us(&o));
            obs.sample = o.ld_sample();
        }
    }
    (obs, handles.kernel.recycle())
}

/// The order a sink consumes finished blocks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Order {
    /// Completion order: workers never wait on each other.
    Any,
    /// Index order: the sink holds a block that finishes before an
    /// earlier one. A worker never claims a block more than `workers`
    /// blocks past the oldest unfinished one, so the sink holds at most
    /// `workers` blocks, however the workers are scheduled.
    Index,
}

/// The claim cursor behind [`execute`]: blocks are claimed in index order,
/// and under [`Order::Index`] a claim waits until it is within `ahead`
/// blocks of the oldest block whose sink has not returned.
struct Claims {
    state: Mutex<ClaimState>,
    caught_up: Condvar,
    len: usize,
    ahead: usize,
}

struct ClaimState {
    next: usize,
    oldest: usize,
    finished: Vec<bool>,
}

impl Claims {
    fn new(len: usize, ahead: usize) -> Self {
        Claims {
            state: Mutex::new(ClaimState {
                next: 0,
                oldest: 0,
                finished: vec![false; len],
            }),
            caught_up: Condvar::new(),
            len,
            ahead,
        }
    }

    fn lock(&self) -> MutexGuard<'_, ClaimState> {
        // Claim state is a few integers, consistent between statements.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next block to run, or `None` once every block is claimed or
    /// the pool stopped.
    fn claim(&self) -> Option<usize> {
        let mut c = self
            .caught_up
            .wait_while(self.lock(), |c| {
                c.next < self.len && c.next >= c.oldest.saturating_add(self.ahead)
            })
            .unwrap_or_else(PoisonError::into_inner);
        (c.next < self.len).then(|| {
            c.next += 1;
            c.next - 1
        })
    }

    /// Marks block `idx`'s sink as returned, waking the claims that wait
    /// on the oldest block (none can under [`Order::Any`]).
    fn finish(&self, idx: usize) {
        let mut c = self.lock();
        c.finished[idx] = true;
        while c.finished.get(c.oldest) == Some(&true) {
            c.oldest += 1;
        }
        drop(c);
        if self.ahead != usize::MAX {
            self.caught_up.notify_all();
        }
    }

    /// Claims nothing more: workers finish the block in hand and exit.
    fn stop(&self) {
        self.lock().next = self.len;
        self.caught_up.notify_all();
    }
}

/// Stops the pool if its worker unwinds, so no worker waits forever on
/// the block the panicking one held.
struct StopOnUnwind<'a>(&'a Claims);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// Runs every block of `items` on the worker pool and hands each finished
/// one to `sink`: its index in `items`, its observations, and the worker's
/// pool, whose retained metrics and forensics hold the block's unless the
/// sink drains them (a sink drains every block or none).
///
/// Each worker runs its rounds on its own [`Scenario::detached`] copy of
/// the block's point, made when it claims a block of a different point
/// than the last, so workers never share a reference count.
///
/// The first sink error stops the pool (workers finish the block in hand
/// and claim no more) and is returned.
pub(crate) fn execute<E: Send>(
    plan: &Plan<'_>,
    items: &[Block],
    order: Order,
    sink: impl Fn(usize, Vec<RoundObs>, &mut KernelPool) -> Result<(), E> + Sync,
) -> Result<(), E> {
    if items.is_empty() {
        return Ok(());
    }
    let lanes = Boot::per_point(plan.scenarios, items, plan.cold);
    let total_rounds: u64 = items.iter().map(Block::rounds).sum();
    let workers = effective_jobs(plan.jobs, total_rounds).min(items.len());
    let ahead = match order {
        Order::Any => usize::MAX,
        Order::Index => workers + 1,
    };
    let claims = Claims::new(items.len(), ahead);
    let failure = Mutex::new(None);
    let worker = || {
        let _stop = StopOnUnwind(&claims);
        let mut pool = KernelPool::new().retain_metrics();
        let mut own: Option<(usize, Scenario)> = None;
        while let Some(idx) = claims.claim() {
            let b = items[idx];
            let p = b.point;
            let scenario = match own.take() {
                Some((q, s)) if q == p => s,
                _ => plan.scenarios[p].detached(),
            };
            let (boot, kind) = lanes[p]
                .as_ref()
                .expect("every point a block touches has a boot");
            let mut obs = Vec::with_capacity(b.rounds() as usize);
            for seed in seed_block(plan.seed_bases[p], b.start, b.end) {
                let (o, returned) =
                    run_one_round(&scenario, boot, pool, seed, *kind, plan.collect_ld);
                pool = returned;
                obs.push(o);
            }
            own = Some((p, scenario));
            let result = sink(idx, obs, &mut pool);
            claims.finish(idx);
            if let Err(e) = result {
                failure
                    .lock()
                    .expect("failure slot poisoned")
                    .get_or_insert(e);
                claims.stop();
                break;
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(worker);
        }
    });
    failure
        .into_inner()
        .expect("failure slot poisoned")
        .map_or(Ok(()), Err)
}

/// The fold side of [`Order::Index`]: finished items wait here until
/// every earlier item has been folded, so a driver folds in index order
/// whatever order the workers finish in.
#[derive(Default)]
pub(crate) struct InOrder<T> {
    next: usize,
    early: BTreeMap<usize, T>,
}

impl<T> InOrder<T> {
    /// Files item `idx`'s payload until the cursor reaches it.
    pub(crate) fn file(&mut self, idx: usize, payload: T) {
        self.early.insert(idx, payload);
    }

    /// The item at the cursor with its filed payload, moving the cursor
    /// past it; `None` while that payload has not arrived.
    pub(crate) fn pop(&mut self) -> Option<(usize, T)> {
        let Ok(next) = self.pop_or(|_| Ok::<_, Infallible>(None));
        next
    }

    /// As [`pop`](Self::pop), but an item with nothing filed takes its
    /// payload from `fetch`: the items no worker runs, such as a
    /// campaign's stored blocks. `fetch` returning `None` leaves the cursor
    /// where it is.
    pub(crate) fn pop_or<E>(
        &mut self,
        fetch: impl FnOnce(usize) -> Result<Option<T>, E>,
    ) -> Result<Option<(usize, T)>, E> {
        let idx = self.next;
        let payload = match self.early.remove(&idx) {
            Some(payload) => payload,
            None => match fetch(idx)? {
                Some(payload) => payload,
                None => return Ok(None),
            },
        };
        self.next += 1;
        Ok(Some((idx, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_clamps_and_autodetects() {
        assert_eq!(effective_jobs(1, 100), 1);
        assert_eq!(effective_jobs(8, 3), 3, "never more workers than rounds");
        assert_eq!(effective_jobs(4, 0), 1, "zero rounds still needs one job");
        assert!(effective_jobs(0, 1000) >= 1, "auto-detect is at least 1");
    }

    #[test]
    fn blocks_tile_the_range_in_order() {
        let got: Vec<(u64, u64)> = blocks(3, 4, 16, 5).map(|b| (b.start, b.end)).collect();
        assert_eq!(got, [(4, 9), (9, 14), (14, 16)]);
        assert!(blocks(0, 0, 12, 5).all(|b| b.point == 0));
        assert_eq!(blocks(0, 7, 7, 5).count(), 0, "empty range, no blocks");
        assert_eq!(blocks(0, 0, 3, 0).count(), 3, "size clamps to 1");
        assert_eq!(blocks(0, 0, 10, u64::MAX).count(), 1, "no overflow");
    }

    #[test]
    fn a_panicking_worker_releases_the_waiting_ones() {
        // Worker A panics on block 0 while B, two blocks ahead, waits for
        // block 0 to finish: the panic must reach the caller, not hang B.
        let scenarios = [Scenario::vi_smp(1024)];
        let plan = Plan {
            scenarios: &scenarios,
            seed_bases: &[1],
            collect_ld: false,
            jobs: 2,
            cold: false,
        };
        let items: Vec<Block> = blocks(0, 0, 12, 2).collect();
        let run = std::panic::AssertUnwindSafe(|| {
            execute::<()>(&plan, &items, Order::Index, |idx, _, _| {
                if idx == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("sink failure on block 0");
                }
                Ok(())
            })
        });
        assert!(std::panic::catch_unwind(run).is_err());
    }

    #[test]
    fn a_failing_sink_stops_the_pool() {
        let scenarios = [Scenario::vi_smp(1024)];
        let plan = Plan {
            scenarios: &scenarios,
            seed_bases: &[1],
            collect_ld: false,
            jobs: 1,
            cold: false,
        };
        let items: Vec<Block> = blocks(0, 0, 6, 2).collect();
        let seen = Mutex::new(Vec::new());
        let err = execute(&plan, &items, Order::Any, |idx, obs, _| {
            seen.lock().unwrap().push(idx);
            assert_eq!(obs.len(), 2);
            if idx == 1 {
                Err(idx)
            } else {
                Ok(())
            }
        });
        assert_eq!(err, Err(1));
        assert_eq!(
            seen.into_inner().unwrap(),
            [0, 1],
            "no block is claimed after the error"
        );
    }
}

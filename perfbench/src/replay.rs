//! The outside-in round loop: the rounds of a driver call replayed one by
//! one through the public per-round calls, each call inside a span.
//!
//! The loop shares no code with the drivers' own fold, so its tallies
//! double as a cross-path check of the drivers' outcomes.

use crate::spans::{Name, SpanId, Tracer};
use tocttou_experiments::extract::observe;
use tocttou_experiments::monte_carlo::{
    chain_detection_fingerprints, detection_fingerprint_of, window_kind_of,
    DETECTION_FINGERPRINT_SEED,
};
use tocttou_os::forensics::ForensicsSnapshot;
use tocttou_os::kernel::{Checkpoint, KernelPool};
use tocttou_os::metrics::MetricsSnapshot;
use tocttou_os::vfs::Vfs;
use tocttou_sim::rng::seed_block;
use tocttou_workloads::scenario::Scenario;

/// The rounds of one scenario at seeds `base_seed, base_seed + 1, …`.
pub struct RoundSet {
    pub scenario: Scenario,
    pub template: Vfs,
    pub checkpoint: Checkpoint,
    pub base_seed: u64,
    pub rounds: u64,
    pub collect_ld: bool,
}

impl RoundSet {
    pub fn new(scenario: Scenario, base_seed: u64, rounds: u64, collect_ld: bool) -> Self {
        let template = scenario.template_vfs();
        let checkpoint = scenario.round_checkpoint(&template);
        RoundSet {
            scenario,
            template,
            checkpoint,
            base_seed,
            rounds,
            collect_ld,
        }
    }

    /// The same rounds on a machine with the detector, the kernel metrics
    /// and the window forensics stripped.
    pub fn without_observers(&self) -> RoundSet {
        let mut s = self.scenario.clone();
        s.machine = s
            .machine
            .clone()
            .without_detector()
            .without_metrics()
            .without_forensics();
        RoundSet::new(s, self.base_seed, self.rounds, self.collect_ld)
    }
}

/// What one set's rounds add up to.
#[derive(Debug, Clone)]
pub struct Tally {
    pub rounds: u64,
    pub successes: u64,
    /// Rounds with at least one detection event.
    pub flagged: u64,
    /// Chained detection fingerprint, in round order.
    pub fingerprint: u64,
    /// Kernel events processed by `finish_round`.
    pub events: u64,
    /// Simulated time of all rounds, ns.
    pub sim_ns: u64,
    pub windows_closed: u64,
    pub strikes_hit: u64,
    /// Rounds whose closest miss was within the near-miss threshold, or
    /// that landed a strike.
    pub near: u64,
    pub metrics: MetricsSnapshot,
    pub forensics: ForensicsSnapshot,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            rounds: 0,
            successes: 0,
            flagged: 0,
            fingerprint: DETECTION_FINGERPRINT_SEED,
            events: 0,
            sim_ns: 0,
            windows_closed: 0,
            strikes_hit: 0,
            near: 0,
            metrics: MetricsSnapshot::default(),
            forensics: ForensicsSnapshot::default(),
        }
    }
}

/// Replays `set` on `pool`, which must retain metrics; its metrics and
/// forensics are drained into the tally, so one pool serves many sets.
pub fn replay(
    tracer: &mut Tracer,
    parent: SpanId,
    set: &RoundSet,
    mut pool: KernelPool,
    near_miss_ns: u64,
) -> (Tally, KernelPool) {
    let s = &set.scenario;
    let kind = window_kind_of(s);
    let mut t = Tally::default();
    for seed in seed_block(set.base_seed, 0, set.rounds) {
        let r = tracer.open(Name::Round, parent);
        let mut h = tracer.step(Name::Boot, r, || {
            s.build_from_checkpoint(&set.checkpoint, seed, set.collect_ld, pool)
        });
        let booted_events = h.kernel.events_processed();
        let result = tracer.step(Name::Run, r, || s.finish_round(&mut h));
        let (events, flagged, milestones) = tracer.step(Name::Read, r, || {
            (
                h.kernel.events_processed(),
                !h.kernel.detections().is_empty(),
                h.kernel.forensics().round_milestones(),
            )
        });
        let fp = tracer.step(Name::Fingerprint, r, || {
            detection_fingerprint_of(h.kernel.detections())
        });
        if set.collect_ld {
            tracer.step(Name::Observe, r, || {
                std::hint::black_box(observe(
                    h.kernel.trace(),
                    h.victim,
                    h.attackers[0],
                    kind,
                    &s.layout.doc,
                ))
            });
        }
        pool = tracer.step(Name::Recycle, r, || h.kernel.recycle());
        tracer.close_at_cursor(r);

        t.rounds += 1;
        t.successes += u64::from(result.success);
        t.flagged += u64::from(flagged);
        t.fingerprint = chain_detection_fingerprints(t.fingerprint, fp);
        t.events += events - booted_events;
        t.sim_ns += result.elapsed.as_nanos();
        t.windows_closed += u64::from(milestones.window_closed);
        t.strikes_hit += u64::from(milestones.strike_hit);
        let near =
            milestones.strike_hit || milestones.min_miss_ns.is_some_and(|d| d <= near_miss_ns);
        t.near += u64::from(near);
    }
    t.metrics = pool.drain_metrics();
    t.forensics = pool.drain_forensics();
    (t, pool)
}

/// Cold-boots every round of `set` from its filesystem template and tears
/// it down again without running it.
pub fn cold_boots(
    tracer: &mut Tracer,
    parent: SpanId,
    set: &RoundSet,
    mut pool: KernelPool,
) -> KernelPool {
    let s = &set.scenario;
    for seed in seed_block(set.base_seed, 0, set.rounds) {
        let h = tracer.time(Name::ColdBoot, parent, || {
            s.build_pooled(seed, set.collect_ld, &set.template, pool)
        });
        pool = h.kernel.recycle();
    }
    pool
}

//! The Monte-Carlo experiment driver.
//!
//! Runs N independent rounds of a [`Scenario`] with per-round seeds derived
//! from a base seed, accumulating the success rate and (optionally) the
//! paper's L/D statistics from traced rounds.
//!
//! ## Parallel batches
//!
//! Rounds are independent by construction (round *i* is fully determined
//! by `base_seed + i`), so [`run_mc`] is a one-point sweep: it cuts the
//! batch into seed blocks and runs them on the crate's one round executor
//! across [`McConfig::jobs`] workers, each on its own recycled
//! [`KernelPool`](tocttou_os::kernel::KernelPool). Finished blocks fold
//! **in round order** through `PointAcc`, as soon as every earlier block
//! has arrived, so at most a few blocks of observations are ever held and
//! the floating-point reduction order is the same for every `jobs` value:
//! `jobs` trades wall-clock for cores, never results.

use crate::executor::Plan;
use crate::extract::WindowKind;
use serde::Serialize;
use tocttou_core::analysis::{LdEstimator, LdSample};
use tocttou_core::model::MeasuredUs;
use tocttou_core::stats::{OnlineStats, SuccessCounter};
use tocttou_os::detect::DetectionEvent;
use tocttou_os::forensics::ForensicsSnapshot;
use tocttou_os::metrics::MetricsSnapshot;
use tocttou_sim::trace::Trace;
use tocttou_workloads::scenario::Scenario;

/// Options for a Monte-Carlo batch.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of rounds (the paper uses 500 for Figure 6).
    pub rounds: u64,
    /// Base seed; round *i* uses `base_seed + i`.
    pub base_seed: u64,
    /// Whether to trace rounds and extract L/D (slower; needed for
    /// Figure 7 and Tables 1–2).
    pub collect_ld: bool,
    /// Worker threads to fan rounds across. `1` (the default) runs them
    /// one after another; `0` auto-detects the machine's parallelism. The
    /// outcome is bit-identical for every value.
    pub jobs: usize,
    /// Cold-boot every round instead of resuming from the warm
    /// checkpoint. The warm path (the default, `false`) simulates the
    /// seed-independent prefix once per batch and restores it per round;
    /// the cold path re-simulates it every round and is kept as the
    /// **oracle**: outcomes are byte-identical either way, asserted by
    /// `tests/checkpoint_determinism.rs`.
    pub cold: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            rounds: 200,
            base_seed: 0x7061_7065,
            collect_ld: false,
            jobs: 1,
            cold: false,
        }
    }
}

impl McConfig {
    /// Returns the config with `jobs` worker threads (`0` = auto).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Returns the config running every round from a cold boot (the
    /// warm-checkpoint oracle path).
    pub fn with_cold(mut self, cold: bool) -> Self {
        self.cold = cold;
        self
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Starting accumulator for [`detection_fingerprint_of`] and
/// [`chain_detection_fingerprints`] (the FNV-1a offset basis).
pub const DETECTION_FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Order-sensitive FNV-1a fingerprint of one round's detection stream,
/// covering every field of every event (count, order, timestamps, pids,
/// paths, calls, blocked flags). Two streams collide only if they are
/// byte-for-byte identical in practice, so equality of fingerprints is the
/// determinism evidence `tests/determinism.rs` relies on.
pub fn detection_fingerprint_of(trace: &Trace<DetectionEvent>) -> u64 {
    let mut h = DETECTION_FINGERPRINT_SEED;
    for r in trace.iter() {
        let e = &r.event;
        h = fnv1a(h, &r.at.as_nanos().to_le_bytes());
        h = fnv1a(h, e.pair.check().name().as_bytes());
        h = fnv1a(h, e.pair.use_call().name().as_bytes());
        h = fnv1a(h, &e.victim.0.to_le_bytes());
        h = fnv1a(h, &e.attacker.0.to_le_bytes());
        h = fnv1a(h, e.path.as_bytes());
        h = fnv1a(h, &e.t_check.as_nanos().to_le_bytes());
        h = fnv1a(h, &e.t_use.as_nanos().to_le_bytes());
        h = fnv1a(h, e.mutation.name().as_bytes());
        h = fnv1a(h, &e.t_mutation.as_nanos().to_le_bytes());
        h = fnv1a(h, &[e.blocked as u8]);
    }
    h
}

/// Folds one round's detection fingerprint into a batch accumulator.
/// Order-sensitive: folding rounds in a different order yields a different
/// value, which is exactly what pins the cross-`jobs` event order down.
pub fn chain_detection_fingerprints(acc: u64, round_fingerprint: u64) -> u64 {
    fnv1a(acc, &round_fingerprint.to_le_bytes())
}

pub use crate::executor::effective_jobs;

/// Aggregated results of a Monte-Carlo batch.
#[derive(Debug, Clone, Serialize)]
pub struct McOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Rounds run.
    pub rounds: u64,
    /// Successes over rounds.
    pub successes: u64,
    /// Observed success rate.
    pub rate: f64,
    /// Wilson 95 % interval for the rate.
    pub rate_ci95: (f64, f64),
    /// Measured L (mean ± stdev, µs), when collected.
    pub l: Option<MeasuredUs>,
    /// Measured D (mean ± stdev, µs), when collected.
    pub d: Option<MeasuredUs>,
    /// Rounds in which the attacker detected the window.
    pub detected_rounds: u64,
    /// Mean vulnerability-window length (µs), when collected.
    pub window_us: Option<f64>,
    /// Formula (1) evaluated at the measured mean L and D.
    pub predicted_rate_ld: Option<f64>,
    /// Rounds the passive kernel race detector flagged (≥ 1
    /// [`DetectionEvent`]). Distinct from `detected_rounds`, which counts
    /// the *attacker's* window sightings.
    pub flagged_rounds: u64,
    /// Flagged rounds where the attack also succeeded (ground truth).
    pub detector_true_positives: u64,
    /// Flagged rounds where the attack did not succeed.
    pub detector_false_positives: u64,
    /// Successful rounds the detector missed.
    pub detector_false_negatives: u64,
    /// TP / (TP + FP), when any round was flagged.
    pub detector_precision: Option<f64>,
    /// TP / (TP + FN), when any round succeeded.
    pub detector_recall: Option<f64>,
    /// Mean detection latency (µs): first event's `t_use − t_mutation`,
    /// averaged over flagged rounds.
    pub detection_latency_us: Option<f64>,
    /// Chained [`detection_fingerprint_of`] over every round, in round
    /// order — the batch-level identity of the full detection stream.
    pub detection_fingerprint: u64,
    /// Kernel metrics summed over every round: scheduler counters plus
    /// syscall/semaphore/run-queue latency histograms. The merge is pure
    /// integer accumulation over key-sorted histograms, so the aggregate
    /// is bit-identical at any [`McConfig::jobs`] value.
    pub metrics: MetricsSnapshot,
    /// Race-window forensics summed over every round: window-width and
    /// near-miss (early/late) log2 histograms, strike verdict counts and
    /// the minimum observed miss distance. Merged by the same
    /// order-independent integer rules as `metrics`, so the aggregate is
    /// bit-identical at any [`McConfig::jobs`] value.
    pub forensics: ForensicsSnapshot,
}

/// Round-level detector accumulators, folded in round order alongside the
/// success counter.
#[derive(Debug, Clone, Default)]
struct DetectorTally {
    flagged: u64,
    tp: u64,
    fp: u64,
    fn_: u64,
    latency: OnlineStats,
    fingerprint: u64,
}

impl DetectorTally {
    fn new() -> Self {
        DetectorTally {
            fingerprint: DETECTION_FINGERPRINT_SEED,
            ..DetectorTally::default()
        }
    }

    fn fold(&mut self, obs: &RoundObs) {
        if obs.flagged {
            self.flagged += 1;
            if obs.success {
                self.tp += 1;
            } else {
                self.fp += 1;
            }
        } else if obs.success {
            self.fn_ += 1;
        }
        if let Some(lat) = obs.detect_latency_us {
            self.latency.push(lat);
        }
        self.fingerprint = chain_detection_fingerprints(self.fingerprint, obs.detect_fingerprint);
    }
}

impl std::fmt::Display for McOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}/{} = {:.1}% [{:.1}%, {:.1}%]",
            self.scenario,
            self.successes,
            self.rounds,
            self.rate * 100.0,
            self.rate_ci95.0 * 100.0,
            self.rate_ci95.1 * 100.0
        )?;
        if let (Some(l), Some(d)) = (self.l, self.d) {
            write!(f, "  L = {l}, D = {d}")?;
        }
        Ok(())
    }
}

/// The window kind a scenario's victim defines: a rename-check window
/// has gedit's shape (opens at a rename commit), anything else vi's.
pub fn window_kind_of(scenario: &Scenario) -> WindowKind {
    if scenario.victim.pair.check() == tocttou_core::taxonomy::FsCall::Rename {
        WindowKind::GeditRename
    } else {
        WindowKind::ViCreat
    }
}

/// Fraction of L/D samples trimmed from each tail before estimation.
///
/// The rare round in which a background burst lands *inside* the window
/// stretches that round's t3 by the burst's length, producing an L outlier
/// an order of magnitude off the population. The paper's tiny reported
/// standard deviations (±3.78 µs for L over 1-byte runs) show such rounds
/// were not part of its averages; a symmetric 5 % trim removes them without
/// cherry-picking.
///
/// Exact contract, for `n` samples sorted by `l_us` ascending:
/// `cut = floor(n * frac)` samples are dropped from *each* tail, keeping
/// the middle `n - 2*cut` — unless `n <= 2*cut`, in which case trimming
/// would leave nothing (or is degenerate) and **all `n` samples are kept
/// untrimmed**. At 5 % that means batches of up to 19 samples are never
/// trimmed (cut = 0), a 20-sample batch loses exactly its extreme L on
/// each side (cut = 1), and the cut stays 1 until n = 40.
const LD_TRIM_FRAC: f64 = 0.05;

/// What one round contributes to the batch statistics. The round
/// executor produces these; drivers fold them in round order.
pub(crate) struct RoundObs {
    pub(crate) success: bool,
    pub(crate) window_us: Option<f64>,
    pub(crate) sample: Option<LdSample>,
    /// Whether the kernel's passive detector emitted at least one event.
    pub(crate) flagged: bool,
    /// `t_use − t_mutation` of the first detection event (µs).
    pub(crate) detect_latency_us: Option<f64>,
    /// [`detection_fingerprint_of`] the round's detection stream.
    pub(crate) detect_fingerprint: u64,
    /// A check-use window closed this round (splitting milestone level 1;
    /// always `false` when the machine profile strips forensics).
    pub(crate) window_closed: bool,
    /// The round's closest failed strike in nanoseconds (milestone level 2
    /// is this falling under the estimator's near-miss threshold).
    pub(crate) min_miss_ns: Option<u64>,
    /// A strike landed inside a consumed window (milestone level 3: the
    /// stale binding committed, whether or not the payload succeeded).
    pub(crate) strike_hit: bool,
}

/// The per-point accumulator shared by [`run_mc`], the sweep engine
/// (`crate::sweep`) and campaign aggregation (`crate::campaign`).
///
/// Byte-identity across drivers and `jobs` values hinges on two rules this
/// type centralizes: [`RoundObs`] records are folded **in round order**
/// (the floating-point reduction order is part of the result), while
/// kernel metrics and window forensics merge in any order (pure integer
/// accumulation over key-sorted histograms).
/// Any driver that honors those two rules produces the same [`McOutcome`]
/// bit for bit, regardless of how it partitions or schedules the rounds.
pub(crate) struct PointAcc {
    counter: SuccessCounter,
    samples: Vec<LdSample>,
    windows: OnlineStats,
    detector: DetectorTally,
    metrics: MetricsSnapshot,
    forensics: ForensicsSnapshot,
}

impl PointAcc {
    pub(crate) fn new() -> Self {
        PointAcc {
            counter: SuccessCounter::new(),
            samples: Vec::new(),
            windows: OnlineStats::new(),
            detector: DetectorTally::new(),
            metrics: MetricsSnapshot::default(),
            forensics: ForensicsSnapshot::default(),
        }
    }

    /// Folds one round's observation. Must be called in round order.
    fn fold(&mut self, obs: RoundObs) {
        self.counter.record(obs.success);
        self.detector.fold(&obs);
        if let Some(w) = obs.window_us {
            self.windows.push(w);
        }
        if let Some(s) = obs.sample {
            self.samples.push(s);
        }
    }

    /// Merges a block's kernel metrics and window forensics, in any order.
    pub(crate) fn merge_counters(
        &mut self,
        metrics: &MetricsSnapshot,
        forensics: &ForensicsSnapshot,
    ) {
        self.metrics.merge(metrics);
        self.forensics.merge(forensics);
    }

    /// Folds a block's observations. A point's blocks must arrive in round
    /// order.
    pub(crate) fn fold_obs(&mut self, obs: impl IntoIterator<Item = RoundObs>) {
        for o in obs {
            self.fold(o);
        }
    }

    /// Trims the L/D samples and condenses everything into the outcome.
    pub(crate) fn finish(self, scenario: &Scenario) -> McOutcome {
        let ld = trimmed_estimator(self.samples, LD_TRIM_FRAC);
        let (counter, detector) = (self.counter, self.detector);
        let (l, d) = match ld.estimates() {
            Some((l, d)) => (Some(l), Some(d)),
            None => (None, None),
        };
        McOutcome {
            scenario: scenario.name.clone(),
            rounds: counter.trials(),
            successes: counter.successes(),
            rate: counter.rate(),
            rate_ci95: counter.wilson_ci95(),
            l,
            d,
            detected_rounds: ld.count(),
            window_us: (self.windows.count() > 0).then(|| self.windows.mean()),
            predicted_rate_ld: ld.predicted_success_rate(),
            flagged_rounds: detector.flagged,
            detector_true_positives: detector.tp,
            detector_false_positives: detector.fp,
            detector_false_negatives: detector.fn_,
            detector_precision: (detector.flagged > 0)
                .then(|| detector.tp as f64 / detector.flagged as f64),
            detector_recall: (counter.successes() > 0)
                .then(|| detector.tp as f64 / counter.successes() as f64),
            detection_latency_us: (detector.latency.count() > 0).then(|| detector.latency.mean()),
            detection_fingerprint: detector.fingerprint,
            metrics: self.metrics,
            forensics: self.forensics,
        }
    }
}

/// Runs the batch.
///
/// The outcome is bit-identical at every `cfg.jobs` value and either boot
/// mode — see the module docs for why.
pub fn run_mc(scenario: &Scenario, cfg: &McConfig) -> McOutcome {
    let plan = Plan {
        scenarios: std::slice::from_ref(scenario),
        seed_bases: &[cfg.base_seed],
        collect_ld: cfg.collect_ld,
        jobs: cfg.jobs,
        cold: cfg.cold,
    };
    crate::sweep::fold_points(&plan, cfg.rounds)
        .pop()
        .expect("one accumulator per scenario")
        .finish(scenario)
}

/// Builds an estimator from samples with a symmetric fraction trimmed from
/// each tail of the L distribution.
fn trimmed_estimator(mut samples: Vec<tocttou_core::analysis::LdSample>, frac: f64) -> LdEstimator {
    samples.sort_by(|a, b| a.l_us.total_cmp(&b.l_us));
    let cut = (samples.len() as f64 * frac).floor() as usize;
    let kept = if samples.len() > 2 * cut {
        &samples[cut..samples.len() - cut]
    } else {
        &samples[..]
    };
    kept.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_workloads::scenario::Scenario;

    #[test]
    fn mc_counts_rounds_and_rates() {
        let s = Scenario::vi_smp(20 * 1024);
        let out = run_mc(
            &s,
            &McConfig {
                rounds: 10,
                base_seed: 1,
                collect_ld: false,
                jobs: 1,
                cold: false,
            },
        );
        assert_eq!(out.rounds, 10);
        assert!(out.rate > 0.9, "vi SMP ~100%: {}", out.rate);
        assert!(out.l.is_none(), "no L/D without collect_ld");
        // Metrics ride along on every batch.
        assert!(out.metrics.counters.context_switches >= 10 * 2);
        assert!(out.metrics.counters.vfs_ops > 0);
        assert!(out.metrics.total_samples() > 0);
    }

    #[test]
    fn metrics_off_profile_folds_to_empty() {
        let mut s = Scenario::vi_smp(20 * 1024);
        s.machine = s.machine.without_metrics();
        let out = run_mc(
            &s,
            &McConfig {
                rounds: 5,
                base_seed: 1,
                collect_ld: false,
                jobs: 1,
                cold: false,
            },
        );
        assert!(out.rate > 0.9, "stripping metrics must not change results");
        assert_eq!(out.metrics.counters.context_switches, 0);
        assert!(out.metrics.hists.is_empty());
    }

    #[test]
    fn mc_collects_ld_for_table1_shape() {
        let s = Scenario::vi_smp(1);
        let out = run_mc(
            &s,
            &McConfig {
                rounds: 30,
                base_seed: 100,
                collect_ld: true,
                jobs: 1,
                cold: false,
            },
        );
        let l = out.l.expect("L collected");
        let d = out.d.expect("D collected");
        // Table 1: L = 61.6 ± 3.78, D = 41.1 ± 2.73 — same ballpark.
        assert!((50.0..75.0).contains(&l.mean), "L mean {}", l.mean);
        assert!((33.0..49.0).contains(&d.mean), "D mean {}", d.mean);
        assert!(out.rate > 0.85, "rate {}", out.rate);
        assert!(out.window_us.unwrap() > l.mean, "window exceeds L");
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Scenario::gedit_smp(2048);
        let cfg = McConfig {
            rounds: 15,
            base_seed: 9,
            collect_ld: false,
            jobs: 1,
            cold: false,
        };
        let a = run_mc(&s, &cfg);
        let b = run_mc(&s, &cfg);
        assert_eq!(a.successes, b.successes);
    }

    #[test]
    fn parallel_jobs_match_serial_bitwise() {
        let s = Scenario::vi_smp(1);
        let base = McConfig {
            rounds: 24,
            base_seed: 4242,
            collect_ld: true,
            jobs: 1,
            cold: false,
        };
        let serial = run_mc(&s, &base);
        for jobs in [2, 3, 4] {
            let par = run_mc(&s, &base.clone().with_jobs(jobs));
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&par).unwrap(),
                "jobs={jobs} diverged from serial"
            );
        }
    }

    /// `n` samples with L = 0, 1, ..., n-1 µs (already distinct and
    /// sortable), D constant.
    fn samples(n: usize) -> Vec<tocttou_core::analysis::LdSample> {
        (0..n)
            .map(|i| tocttou_core::analysis::LdSample {
                l_us: i as f64,
                d_us: 10.0,
            })
            .collect()
    }

    #[test]
    fn trim_keeps_everything_below_the_first_cut() {
        // floor(n * 0.05) = 0 for n < 20, so nothing is trimmed.
        for n in [0usize, 1, 2] {
            let est = trimmed_estimator(samples(n), LD_TRIM_FRAC);
            assert_eq!(est.count(), n as u64, "n={n} must keep all samples");
        }
    }

    #[test]
    fn trim_boundary_at_twenty_samples() {
        // n = 20 is the first batch size where floor(n * 0.05) = 1: the
        // single smallest and single largest L are dropped.
        let est = trimmed_estimator(samples(20), LD_TRIM_FRAC);
        assert_eq!(est.count(), 18);
        let (l, _) = est.raw();
        // L values 1..=18 survive; their mean pins down *which* samples
        // were dropped, not just how many.
        assert!((l.mean() - 9.5).abs() < 1e-12, "kept middle: {}", l.mean());

        // n = 21 still has cut = 1 (floor(1.05)).
        let est = trimmed_estimator(samples(21), LD_TRIM_FRAC);
        assert_eq!(est.count(), 19);
        let (l, _) = est.raw();
        assert!((l.mean() - 10.0).abs() < 1e-12, "kept 1..=19: {}", l.mean());
    }

    #[test]
    fn trim_degenerate_cut_keeps_all() {
        // When n <= 2*cut the trim would leave nothing; the contract is
        // to keep every sample instead.
        let est = trimmed_estimator(samples(2), 0.5);
        assert_eq!(est.count(), 2, "n == 2*cut keeps all");
        let est = trimmed_estimator(samples(1), 1.0);
        assert_eq!(est.count(), 1, "n < 2*cut impossible to trim, keeps all");
        // One above the degenerate point trims normally again.
        let est = trimmed_estimator(samples(3), 0.5);
        assert_eq!(est.count(), 1, "n = 3, cut = 1 keeps the median");
    }

    #[test]
    fn detector_verdicts_fold_into_outcome() {
        let s = Scenario::vi_smp(20 * 1024);
        let out = run_mc(
            &s,
            &McConfig {
                rounds: 15,
                base_seed: 3,
                collect_ld: false,
                jobs: 1,
                cold: false,
            },
        );
        assert!(out.flagged_rounds > 0, "vi SMP rounds must be flagged");
        assert_eq!(
            out.detector_true_positives + out.detector_false_positives,
            out.flagged_rounds
        );
        assert_eq!(
            out.detector_true_positives + out.detector_false_negatives,
            out.successes
        );
        assert!(out.detector_precision.is_some());
        assert!(out.detection_latency_us.unwrap() > 0.0);
        assert_ne!(
            out.detection_fingerprint, DETECTION_FINGERPRINT_SEED,
            "non-empty stream must move the fingerprint"
        );
    }

    #[test]
    fn detection_fingerprint_is_order_sensitive() {
        let a = chain_detection_fingerprints(DETECTION_FINGERPRINT_SEED, 1);
        let a = chain_detection_fingerprints(a, 2);
        let b = chain_detection_fingerprints(DETECTION_FINGERPRINT_SEED, 2);
        let b = chain_detection_fingerprints(b, 1);
        assert_ne!(a, b, "swapping rounds must change the chained value");
    }

    #[test]
    fn display_renders_rate() {
        let s = Scenario::gedit_smp(2048);
        let out = run_mc(
            &s,
            &McConfig {
                rounds: 5,
                base_seed: 2,
                collect_ld: false,
                jobs: 1,
                cold: false,
            },
        );
        let text = out.to_string();
        assert!(text.contains("gedit-smp"), "{text}");
        assert!(text.contains('%'), "{text}");
    }
}

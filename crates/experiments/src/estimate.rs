//! Adaptive rare-event estimation: sequential stopping, stratified laxity
//! sampling and milestone-guided importance splitting.
//!
//! The paper's headline numbers are tail probabilities (uniprocessor vi
//! success ≈ 0.2 %), and the production-scale question is "is this rate
//! 1e-6 or 1e-9?" — which fixed-`--rounds` Monte-Carlo cannot answer in
//! bounded time no matter how fast a round is. This module layers three
//! classic rare-event techniques over the same deterministic round engine
//! [`run_mc`](crate::monte_carlo::run_mc) uses, and keeps `run_mc` itself
//! as the unbiased **oracle** on scenarios where brute force is feasible
//! (the same spirit as the warm/cold, queue/heap and VFS oracles):
//!
//! * **Sequential stopping.** Rounds are scheduled in deterministic
//!   *waves* instead of a fixed count, and the run stops at the first wave
//!   boundary where the stratified 95 % interval's half-width falls under
//!   [`target_rel_half_width`](EstimateConfig::target_rel_half_width)
//!   relative to the point estimate (a single stratum uses the Wilson
//!   interval from `tocttou_core::stats`; a zero-success run reports the
//!   pooled Clopper–Pearson upper bound instead of a two-sided interval).
//! * **Stratified laxity sampling.** The uniprocessor victims draw their
//!   save's slice phase from a *discrete* uniform over inclusive
//!   nanosecond bounds — the laxity term of Formula (1). Partitioning
//!   those integer bounds and sampling each sub-range via
//!   [`Scenario::restrict_laxity`] is **exact conditioning**, so stratum
//!   estimates recombine without bias under width weights, and a
//!   Neyman-style allocation (Laplace-smoothed σ̂, boosted by the
//!   stratum's near-miss rate) concentrates rounds where the variance
//!   lives. The allocation is a pure function of the tallies, so it is
//!   identical at any `--jobs` value.
//! * **Importance splitting (RESTART).** Strata whose rounds climb the
//!   forensics milestone ladder ([`RoundMilestones`]: window closed,
//!   strike within the near-miss threshold, strike landed) are *split*:
//!   the parent is retired — its samples are dropped from the estimate but
//!   still counted against the budget — and two child sub-ranges restart
//!   with fresh, disjoint seed streams derived via
//!   [`nested_base`]. Because children are re-conditioned exactly and
//!   their seeds never depend on the parent's draws,
//!   `E[p̂ | partition] = Σ Wₕ·pₕ = p` for **every** reachable partition,
//!   hence the recombined estimate stays unbiased even though the
//!   partition itself is chosen adaptively. The near-miss distance that
//!   guides the split is exactly the PR 8 forensics miss-distance signal,
//!   which discriminates hot sub-ranges even when no round has succeeded
//!   yet.
//!
//! ## Determinism and resumability
//!
//! A wave's work items are seed blocks under the same splice contract as
//! the campaign store ([`seed_block`]: stratum round *i* draws seed
//! `stratum_base + i`), run on the crate's one round executor. In memory
//! mode the workers share each wave round by round: every block is one
//! round, because the expensive preempted rounds cluster in the hot strata
//! and a larger block of them would leave the other workers idle at the
//! wave's end. Each round only adds to its stratum's integer tallies, so
//! whatever order the blocks finish in, [`EstimateOutcome`] is
//! byte-identical across `--jobs` values and warm/cold boot (asserted by
//! `tests/estimate_determinism.rs`). With a
//! [`store`](EstimateConfig::store) directory the items are
//! content-addressed campaign blocks of [`block`](EstimateConfig::block)
//! rounds, the only thing that knob sizes: a killed estimation resumes,
//! and an unchanged re-run replays entirely from cache.
//!
//! [`RoundMilestones`]: tocttou_os::forensics::RoundMilestones
//! [`nested_base`]: tocttou_sim::rng::nested_base
//! [`seed_block`]: tocttou_sim::rng::seed_block
//! [`Scenario::restrict_laxity`]: tocttou_workloads::scenario::Scenario::restrict_laxity

use crate::campaign::{blocks_path, compute_blocks, keyed_blocks, read_block, scan_store, Missing};
use crate::cli::MAX_ROUNDS;
use crate::executor::{blocks, execute, Block, Order, Plan};
use crate::monte_carlo::{fnv1a, RoundObs, DETECTION_FINGERPRINT_SEED};
use serde::Serialize;
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::Mutex;
use tocttou_core::stats::{clopper_pearson_ci, SuccessCounter};
use tocttou_sim::rng::nested_base;
use tocttou_workloads::scenario::Scenario;

/// The z-score of the 95 % two-sided normal interval, matching
/// `SuccessCounter::wilson_ci95`.
const Z95: f64 = 1.96;

/// Minimum rounds a stratum needs before it may be split.
const SPLIT_MIN: u64 = 48;

/// Maximum split depth per stratum (initial strata are depth 0).
const MAX_DEPTH: u32 = 10;

/// Minimum successes across live strata before convergence is declared
/// (guards against stopping on a lucky handful).
const MIN_SUCCESSES: u64 = 8;

/// Options for one adaptive estimation run.
#[derive(Debug, Clone)]
pub struct EstimateConfig {
    /// Base seed; stratum seed streams are derived from it via
    /// [`nested_base`], never consumed directly, so strata stay mutually
    /// disjoint.
    pub base_seed: u64,
    /// Stop once the 95 % interval half-width is at most this fraction of
    /// the point estimate (e.g. `0.2` = ±20 % relative). Must be a finite
    /// positive number.
    pub target_rel_half_width: f64,
    /// Initial partition of the laxity window, at least 1. Clamped to the
    /// window's integer width; scenarios without a laxity window always
    /// run one stratum.
    pub initial_strata: usize,
    /// Rounds every newly created stratum receives before it participates
    /// in allocation, stopping or splitting decisions.
    pub pilot_rounds: u64,
    /// Rounds distributed per Neyman wave across live strata.
    pub wave_rounds: u64,
    /// Budget cap: the run stops (unconverged) at the first wave boundary
    /// at or past this many simulated rounds — the zero-rate escape hatch.
    pub max_rounds: u64,
    /// Strikes missing by at most this many nanoseconds count as
    /// *near misses* for allocation boosts and splitting milestones.
    pub near_miss_ns: u64,
    /// Worker threads (`0` = auto). Byte-identical results at any value.
    pub jobs: usize,
    /// Cold-boot every round — the checkpoint oracle path, byte-identical.
    pub cold: bool,
    /// Rounds per content-addressed seed block: sizes store records only.
    /// Memory mode ignores it and shares each wave round by round. Must be
    /// nonzero.
    pub block: u64,
    /// Campaign-style store directory: waves become resumable
    /// content-addressed blocks, and unchanged re-runs replay from cache.
    /// `None` keeps everything in memory.
    pub store: Option<PathBuf>,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig {
            base_seed: 0x7061_7065,
            target_rel_half_width: 0.2,
            initial_strata: 8,
            pilot_rounds: 64,
            wave_rounds: 256,
            max_rounds: 50_000,
            near_miss_ns: 100_000,
            jobs: 1,
            cold: false,
            block: 64,
            store: None,
        }
    }
}

impl EstimateConfig {
    /// Checks the knobs a caller could plausibly get wrong, returning a
    /// user-facing message (binaries map it to exit code 2).
    ///
    /// # Errors
    ///
    /// Rejects a zero/NaN/non-finite target half-width, zero block size,
    /// zero initial strata, zero pilot/wave rounds, pilot/wave rounds above
    /// the `--rounds` ceiling of 2^24 (a wave's block list is built before
    /// any round runs), and a budget below one pilot.
    pub fn validate(&self) -> Result<(), String> {
        if !self.target_rel_half_width.is_finite() || self.target_rel_half_width <= 0.0 {
            return Err(format!(
                "invalid target half-width {}: must be a finite number > 0",
                self.target_rel_half_width
            ));
        }
        if self.block == 0 {
            return Err("invalid --block 0: block size must be at least 1".into());
        }
        if self.initial_strata == 0 {
            return Err("invalid --strata 0: an estimate needs at least one stratum".into());
        }
        if self.pilot_rounds == 0 || self.wave_rounds == 0 {
            return Err("pilot and wave rounds must be at least 1".into());
        }
        for (flag, rounds) in [("--pilot", self.pilot_rounds), ("--wave", self.wave_rounds)] {
            if rounds > MAX_ROUNDS {
                return Err(format!(
                    "invalid {flag} {rounds}: at most {MAX_ROUNDS} rounds"
                ));
            }
        }
        if self.max_rounds < self.pilot_rounds {
            return Err(format!(
                "max rounds {} cannot cover one pilot of {} rounds",
                self.max_rounds, self.pilot_rounds
            ));
        }
        Ok(())
    }
}

/// One laxity stratum's live tallies.
#[derive(Debug, Clone)]
struct Stratum {
    /// Inclusive phase bounds in nanoseconds (`(0, 0)` for the single
    /// unstratified stratum of a scenario without a laxity window).
    lo_n: u64,
    hi_n: u64,
    /// `P(phase ∈ [lo_n, hi_n])` under the root scenario.
    weight: f64,
    /// Base of this stratum's private seed stream.
    seed_base: u64,
    /// Whether the bounds are a real laxity sub-range (splittable).
    splittable: bool,
    depth: u32,
    rounds: u64,
    successes: u64,
    /// Rounds whose closest miss was within the near-miss threshold, or
    /// that landed a strike outright.
    near: u64,
    windows_closed: u64,
    strikes_hit: u64,
    /// Split parents: excluded from the estimate, kept for the report.
    retired: bool,
}

impl Stratum {
    /// A stratum with no rounds yet, on its own seed lane.
    fn fresh(
        (lo_n, hi_n): (u64, u64),
        weight: f64,
        base_seed: u64,
        splittable: bool,
        depth: u32,
    ) -> Self {
        Stratum {
            lo_n,
            hi_n,
            weight,
            seed_base: stratum_seed_base(base_seed, lo_n, hi_n),
            splittable,
            depth,
            rounds: 0,
            successes: 0,
            near: 0,
            windows_closed: 0,
            strikes_hit: 0,
            retired: false,
        }
    }

    /// Counts one round.
    fn count(&mut self, o: &RoundObs, near_miss_ns: u64) {
        self.rounds += 1;
        self.successes += u64::from(o.success);
        self.windows_closed += u64::from(o.window_closed);
        self.strikes_hit += u64::from(o.strike_hit);
        let near = o.strike_hit || o.min_miss_ns.is_some_and(|d| d <= near_miss_ns);
        self.near += u64::from(near);
    }
}

/// Per-stratum slice of the final report.
#[derive(Debug, Clone, Serialize)]
pub struct StratumReport {
    /// Inclusive lower phase bound (ns).
    pub lo_ns: u64,
    /// Inclusive upper phase bound (ns).
    pub hi_ns: u64,
    /// Probability weight of the stratum under the root scenario.
    pub weight: f64,
    /// Split depth (initial strata are 0).
    pub depth: u32,
    /// Rounds simulated in the stratum.
    pub rounds: u64,
    /// Successful rounds.
    pub successes: u64,
    /// Near-miss rounds (closest strike within the threshold, or landed).
    pub near_misses: u64,
    /// Rounds in which a check-use window closed.
    pub windows_closed: u64,
    /// Rounds in which a strike landed inside a consumed window.
    pub strikes_hit: u64,
    /// True for split parents, whose samples left the estimate.
    pub retired: bool,
}

/// The recombined result of one estimation run.
///
/// Byte-identical across `--jobs` values and warm/cold boot; everything in
/// it is a pure function of the scenario, the config and the integer
/// tallies folded in deterministic order.
#[derive(Debug, Clone, Serialize)]
pub struct EstimateOutcome {
    /// Root scenario name.
    pub scenario: String,
    /// The stratified point estimate `Σ Wₕ·sₕ/nₕ` over live strata.
    pub rate: f64,
    /// 95 % interval: Wilson for a single stratum, the stratified normal
    /// interval otherwise; `(0, pooled Clopper–Pearson upper)` when no
    /// success was observed.
    pub ci95: (f64, f64),
    /// Achieved half-width relative to the estimate (`None` while the
    /// estimate is zero).
    pub rel_half_width: Option<f64>,
    /// The configured stopping target.
    pub target_rel_half_width: f64,
    /// Whether the stopping rule was met before the round budget ran out.
    pub converged: bool,
    /// Every round simulated, including retired split parents.
    pub simulated_rounds: u64,
    /// Rounds contributing to the estimate (live strata only).
    pub live_rounds: u64,
    /// Successes across live strata.
    pub live_successes: u64,
    /// Wave boundaries crossed.
    pub waves: u64,
    /// Whether the scenario exposed a laxity window to stratify.
    pub stratified: bool,
    /// Fixed-round Monte-Carlo rounds a Wilson interval would need for the
    /// same relative half-width at this rate (`None` while the rate is 0)
    /// — the core-count-independent efficiency baseline.
    pub fixed_rounds_equiv: Option<u64>,
    /// `fixed_rounds_equiv / simulated_rounds`, the sample-efficiency
    /// ratio the bench asserts (`None` while the rate is 0).
    pub efficiency: Option<f64>,
    /// Final partition, live and retired, in creation order.
    pub strata: Vec<StratumReport>,
}

impl std::fmt::Display for EstimateOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: rate {:.3e} [{:.3e}, {:.3e}] after {} rounds in {} waves ({})",
            self.scenario,
            self.rate,
            self.ci95.0,
            self.ci95.1,
            self.simulated_rounds,
            self.waves,
            if self.converged {
                "converged"
            } else {
                "budget exhausted"
            }
        )?;
        if let Some(eff) = self.efficiency.filter(|&e| e >= 1.0) {
            write!(f, ", {eff:.1}x fewer rounds than fixed-round MC")?;
        }
        Ok(())
    }
}

/// What one [`run_estimate`] invocation did: the deterministic outcome
/// plus cache accounting, which deliberately lives *outside*
/// [`EstimateOutcome`] so a resumed run stays byte-identical to a fresh
/// one.
#[derive(Debug, Clone)]
pub struct EstimateRun {
    /// The deterministic result.
    pub outcome: EstimateOutcome,
    /// Rounds simulated by this invocation.
    pub computed_rounds: u64,
    /// Rounds replayed from the store without simulation.
    pub cached_rounds: u64,
}

/// Smallest fixed round count whose Wilson 95 % half-width at the given
/// rate meets the relative target — what plain [`run_mc`] would need, and
/// therefore the denominator-free baseline of the estimator's bench row
/// (sample efficiency is core-count independent, unlike thread speedups).
///
/// Found by doubling then bisection under the monotone envelope of the
/// half-width (the success count is rounded to `rate·n`, so the exact
/// curve has ±1-success ripples; the returned bound is within one
/// bisection cell of the true minimum). Returns `None` for a zero or
/// non-finite rate/target, or when the target needs more than 2⁴⁰ rounds.
///
/// [`run_mc`]: crate::monte_carlo::run_mc
pub fn fixed_rounds_for_target(rate: f64, target_rel_half_width: f64) -> Option<u64> {
    if !rate.is_finite()
        || !target_rel_half_width.is_finite()
        || rate <= 0.0
        || rate > 1.0
        || target_rel_half_width <= 0.0
    {
        return None;
    }
    let target = target_rel_half_width * rate;
    let half_width = |n: u64| -> f64 {
        let s = ((rate * n as f64).round() as u64).min(n);
        let (lo, hi) = SuccessCounter::from_counts(s, n).wilson_ci95();
        (hi - lo) / 2.0
    };
    let mut hi = 1u64;
    while half_width(hi) > target {
        hi = hi.saturating_mul(2);
        if hi > 1 << 40 {
            return None;
        }
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if half_width(mid) <= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The deterministic seed lane of a stratum, from its phase bounds: FNV
/// over `(lo, hi)` mixed through [`nested_base`], so every stratum that
/// ever exists gets a private seed stream disjoint from all others and
/// from the parent's — resumable by content, not by history.
fn stratum_seed_base(base_seed: u64, lo_n: u64, hi_n: u64) -> u64 {
    let lane = fnv1a(
        fnv1a(DETECTION_FINGERPRINT_SEED, &lo_n.to_le_bytes()),
        &hi_n.to_le_bytes(),
    );
    nested_base(base_seed, lane)
}

/// Appends one stratum (and its restricted scenario) to the parallel
/// arrays. `root` is always the *unrestricted* scenario so stratum names
/// never nest `#lax` suffixes.
fn push_stratum(
    strata: &mut Vec<Stratum>,
    scenarios: &mut Vec<Scenario>,
    root: &Scenario,
    span: u64,
    base_seed: u64,
    (lo_n, hi_n): (u64, u64),
    depth: u32,
) {
    let restricted = root
        .restrict_laxity(lo_n, hi_n)
        .expect("stratum bounds stay inside the laxity window");
    let weight = (hi_n - lo_n + 1) as f64 / span as f64;
    strata.push(Stratum::fresh((lo_n, hi_n), weight, base_seed, true, depth));
    scenarios.push(restricted);
}

/// How many strata the initial partition of a `span`-wide laxity window
/// has.
fn initial_parts(cfg: &EstimateConfig, span: u64) -> u64 {
    (cfg.initial_strata as u64).min(span)
}

/// Rejects a run whose pilot wave alone overruns the budget, before any
/// stratum is allocated: an oversized `--strata` is an input error, not
/// an out-of-memory kill.
fn check_pilot_fits(scenario: &Scenario, cfg: &EstimateConfig) -> Result<(), String> {
    let parts = scenario
        .laxity_window_ns()
        .map_or(1, |(lo, hi)| initial_parts(cfg, hi - lo + 1));
    if parts.saturating_mul(cfg.pilot_rounds) > cfg.max_rounds {
        return Err(format!(
            "{parts} initial strata x {} pilot rounds exceed the budget of {} rounds",
            cfg.pilot_rounds, cfg.max_rounds
        ));
    }
    Ok(())
}

/// Builds the initial partition: an exact integer split of the laxity
/// window into (up to) `initial_strata` contiguous sub-ranges, or one
/// unrestricted stratum when the scenario has no laxity axis.
fn initial_partition(
    scenario: &Scenario,
    cfg: &EstimateConfig,
) -> (Vec<Stratum>, Vec<Scenario>, Option<u64>) {
    let mut strata = Vec::new();
    let mut scenarios = Vec::new();
    match scenario.laxity_window_ns() {
        Some((lo, hi)) => {
            let span = hi - lo + 1;
            let parts = initial_parts(cfg, span);
            // bound_k = lo + span·k/parts in u128 so the partition is exact
            // for any window width; stratum k is [bound_k, bound_{k+1}-1].
            let bound = |k: u64| lo + (span as u128 * k as u128 / parts as u128) as u64;
            for k in 0..parts {
                push_stratum(
                    &mut strata,
                    &mut scenarios,
                    scenario,
                    span,
                    cfg.base_seed,
                    (bound(k), bound(k + 1) - 1),
                    0,
                );
            }
            (strata, scenarios, Some(span))
        }
        None => {
            strata.push(Stratum::fresh((0, 0), 1.0, cfg.base_seed, false, 0));
            scenarios.push(scenario.clone());
            (strata, scenarios, None)
        }
    }
}

/// This wave's allocation as `(stratum index, extra rounds)` pairs.
///
/// Freshly created strata are first topped up to the pilot size — an
/// exploration-only wave. Otherwise `wave_rounds` are split Neyman-style:
/// proportionally to `Wₕ·(σ̂ₕ + near-rateₕ + 1/(nₕ+2))` with the
/// *unsmoothed* `σ̂ₕ = √(p̂ₕ(1−p̂ₕ))` — a Laplace-smoothed σ̂ would decay
/// only as `1/√n` on strata that never produce signal, letting the wide
/// dead strata soak up most of every wave. The near-miss rate keeps
/// rounds flowing to strata the milestone ladder says are hot before
/// their first success, and the `1/(n+2)` floor buys each stratum a
/// logarithmic trickle of lifetime exploration. Integerized by largest
/// remainder (ties to the lower index) so the sum is exact and the
/// schedule identical at any `--jobs` value.
fn allocate_wave(strata: &[Stratum], cfg: &EstimateConfig) -> Vec<(usize, u64)> {
    let live: Vec<usize> = (0..strata.len()).filter(|&h| !strata[h].retired).collect();
    let top_ups: Vec<(usize, u64)> = live
        .iter()
        .filter(|&&h| strata[h].rounds < cfg.pilot_rounds)
        .map(|&h| (h, cfg.pilot_rounds - strata[h].rounds))
        .collect();
    if !top_ups.is_empty() {
        return top_ups;
    }
    let scores: Vec<f64> = live
        .iter()
        .map(|&h| {
            let s = &strata[h];
            let n = s.rounds as f64;
            let p = s.successes as f64 / n;
            let sigma = (p * (1.0 - p)).sqrt();
            let near_rate = s.near as f64 / n;
            s.weight * (sigma + near_rate + 1.0 / (n + 2.0))
        })
        .collect();
    let total: f64 = scores.iter().sum();
    let raw: Vec<f64> = scores
        .iter()
        .map(|sc| cfg.wave_rounds as f64 * sc / total)
        .collect();
    let mut counts: Vec<u64> = raw.iter().map(|r| r.floor() as u64).collect();
    let assigned: u64 = counts.iter().sum();
    let mut order: Vec<usize> = (0..live.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (raw[a] - raw[a].floor(), raw[b] - raw[b].floor());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &i in order.iter().take((cfg.wave_rounds - assigned) as usize) {
        counts[i] += 1;
    }
    live.into_iter()
        .zip(counts)
        .filter(|&(_, add)| add > 0)
        .collect()
}

/// The stratified estimate and its 95 % interval over live strata.
struct CurrentEstimate {
    rate: f64,
    half_width: f64,
    ci: (f64, f64),
    live_rounds: u64,
    live_successes: u64,
}

fn current_estimate(strata: &[Stratum]) -> CurrentEstimate {
    let live: Vec<&Stratum> = strata.iter().filter(|s| !s.retired).collect();
    let live_rounds: u64 = live.iter().map(|s| s.rounds).sum();
    let live_successes: u64 = live.iter().map(|s| s.successes).sum();
    if live.len() == 1 {
        let c = SuccessCounter::from_counts(live[0].successes, live[0].rounds);
        let (lo, hi) = c.wilson_ci95();
        return CurrentEstimate {
            rate: c.rate(),
            half_width: (hi - lo) / 2.0,
            ci: (lo, hi),
            live_rounds,
            live_successes,
        };
    }
    // The standard stratified estimator: p̂ = Σ Wₕ·p̂ₕ with the plug-in
    // variance Σ Wₕ²·p̂ₕ(1−p̂ₕ)/nₕ. Dead strata contribute zero variance —
    // deliberately: the milestone-guided splitting, not the variance
    // estimate, is what hunts for mass the samples haven't shown yet.
    let mut rate = 0.0;
    let mut var = 0.0;
    for s in &live {
        if s.rounds == 0 {
            continue;
        }
        let n = s.rounds as f64;
        let p = s.successes as f64 / n;
        rate += s.weight * p;
        var += s.weight * s.weight * p * (1.0 - p) / n;
    }
    let mut half_width = Z95 * var.sqrt();
    let ci = if live_successes == 0 {
        // No basis for a two-sided interval; report the conservative
        // pooled exact upper bound ("the rate is below X or we were very
        // unlucky"), which is what a zero-rate scenario run should say.
        (0.0, clopper_pearson_ci(0, live_rounds, 0.05).1)
    } else if var == 0.0 {
        // Every live stratum sits at p̂ ∈ {0, 1}: the plug-in variance
        // collapses and the normal interval would claim certainty. Fall
        // back to the exact pooled interval, which is conservative here.
        let ci = clopper_pearson_ci(live_successes, live_rounds, 0.05);
        half_width = (ci.1 - ci.0) / 2.0;
        ci
    } else {
        ((rate - half_width).max(0.0), (rate + half_width).min(1.0))
    };
    CurrentEstimate {
        rate,
        half_width,
        ci,
        live_rounds,
        live_successes,
    }
}

/// Splits at most one stratum per wave: among live strata that are
/// splittable, deep enough in samples ([`SPLIT_MIN`]), not at [`MAX_DEPTH`],
/// wider than one nanosecond, and showing milestone signal that is
/// *sparse* (under a quarter of rounds — a stratum saturated with signal
/// is already homogeneous and splitting it only burns its samples), pick
/// the one with the highest `Wₕ·(successes+near)/nₕ`, ties to the lower
/// index. The parent retires; two fresh children restart on its halves.
fn maybe_split(
    strata: &mut Vec<Stratum>,
    scenarios: &mut Vec<Scenario>,
    root: &Scenario,
    span: Option<u64>,
    cfg: &EstimateConfig,
) {
    let Some(span) = span else { return };
    let mut best: Option<(usize, f64)> = None;
    for (h, s) in strata.iter().enumerate() {
        if s.retired
            || !s.splittable
            || s.hi_n <= s.lo_n
            || s.depth >= MAX_DEPTH
            || s.rounds < SPLIT_MIN
        {
            continue;
        }
        let signal = s.successes + s.near;
        if signal == 0 || signal * 4 >= s.rounds {
            continue;
        }
        let score = s.weight * signal as f64 / s.rounds as f64;
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((h, score));
        }
    }
    let Some((h, _)) = best else { return };
    let (lo, hi, depth) = (strata[h].lo_n, strata[h].hi_n, strata[h].depth);
    strata[h].retired = true;
    let mid = lo + (hi - lo) / 2;
    for (child_lo, child_hi) in [(lo, mid), (mid + 1, hi)] {
        push_stratum(
            strata,
            scenarios,
            root,
            span,
            cfg.base_seed,
            (child_lo, child_hi),
            depth + 1,
        );
    }
}

/// A memory-mode wave as one-round blocks: stratum `h` gets `add` blocks
/// covering its rounds `[rounds, rounds + add)` in ascending order. Memory
/// mode has no record to size, and the preempted, expensive rounds cluster
/// in the few hot strata the allocation feeds hardest, so a worker that
/// claims round by round leaves the others at most one round of the
/// wave's tail to wait on.
fn one_round_blocks(alloc: &[(usize, u64)], strata: &[Stratum]) -> Vec<Block> {
    alloc
        .iter()
        .flat_map(|&(h, add)| {
            let start = strata[h].rounds;
            blocks(h, start, start + add, 1)
        })
        .collect()
}

/// Executes one wave's allocation on the round executor and counts every
/// round into its stratum. Memory mode runs the wave as one-round blocks
/// ([`one_round_blocks`]) and counts each as it finishes. Store mode cuts
/// it into `cfg.block`-sized keyed blocks, since a block there is a store
/// record: it computes only the blocks the store is missing, counting each
/// from the record the sink has just appended, and reads back by content
/// address only the blocks the store already held (the campaign cache
/// contract). The tallies are integer sums, so the order rounds are
/// counted in cannot change them. Returns the rounds replayed from the
/// store.
fn run_wave(
    alloc: &[(usize, u64)],
    scenarios: &[Scenario],
    strata: &mut [Stratum],
    cfg: &EstimateConfig,
) -> std::io::Result<u64> {
    let seed_bases: Vec<u64> = strata.iter().map(|s| s.seed_base).collect();
    let plan = Plan {
        scenarios,
        seed_bases: &seed_bases,
        collect_ld: false,
        jobs: cfg.jobs,
        cold: cfg.cold,
    };
    let Some(dir) = cfg.store.as_deref() else {
        let blocks = one_round_blocks(alloc, strata);
        let strata = Mutex::new(strata);
        // Metrics and forensics are not part of an estimate: left undrained.
        let Ok(()) = execute::<Infallible>(&plan, &blocks, Order::Any, |idx, obs, _| {
            let mut strata = strata.lock().expect("strata poisoned");
            for o in &obs {
                strata[blocks[idx].point].count(o, cfg.near_miss_ns);
            }
            Ok(())
        });
        return Ok(0);
    };
    let items: Vec<Missing> = alloc
        .iter()
        .flat_map(|&(h, add)| {
            let s = &strata[h];
            keyed_blocks(
                h,
                &scenarios[h],
                s.seed_base,
                (s.rounds, s.rounds + add),
                cfg.block,
            )
        })
        .collect();
    let path = blocks_path(dir);
    let index = scan_store(&path)?;
    let (cached, missing): (Vec<Missing>, Vec<Missing>) =
        items.iter().partition(|i| index.contains_key(&i.key));
    {
        let strata = Mutex::new(&mut *strata);
        compute_blocks(&path, &plan, &missing, Order::Any, |_, record| {
            let mut strata = strata.lock().expect("strata poisoned");
            for o in record.obs {
                strata[record.point].count(&o.into_obs(), cfg.near_miss_ns);
            }
            Ok(())
        })?;
    }
    let mut file = std::fs::File::open(&path)?;
    let mut buf = Vec::new();
    for item in &cached {
        for o in read_block(&mut file, index[&item.key], &mut buf, item)?.obs {
            strata[item.block.point].count(&o.into_obs(), cfg.near_miss_ns);
        }
    }
    Ok(cached.iter().map(|i| i.block.rounds()).sum())
}

/// Runs the adaptive estimator on one scenario.
///
/// See the [module docs](self) for the algorithm and its identity
/// contract. The returned [`EstimateOutcome`] is byte-identical across
/// `--jobs` values, warm/cold boot, and fresh vs. resumed store runs.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] for a config that fails
/// [`EstimateConfig::validate`] or whose pilot wave (initial strata, each
/// clamped to the laxity window's width, times pilot rounds) exceeds
/// `max_rounds`, and propagates store I/O failures in store mode.
/// Simulation itself is infallible.
pub fn run_estimate(scenario: &Scenario, cfg: &EstimateConfig) -> std::io::Result<EstimateRun> {
    cfg.validate()
        .and_then(|()| check_pilot_fits(scenario, cfg))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    if let Some(dir) = &cfg.store {
        std::fs::create_dir_all(dir)?;
    }

    let (mut strata, mut scenarios, span) = initial_partition(scenario, cfg);
    let mut simulated = 0u64;
    let mut cached_total = 0u64;
    let mut waves = 0u64;
    let mut converged = false;

    loop {
        let alloc = allocate_wave(&strata, cfg);
        cached_total += run_wave(&alloc, &scenarios, &mut strata, cfg)?;
        simulated += alloc.iter().map(|&(_, add)| add).sum::<u64>();
        waves += 1;

        let est = current_estimate(&strata);
        if est.rate > 0.0
            && est.live_successes >= MIN_SUCCESSES
            && est.half_width <= cfg.target_rel_half_width * est.rate
        {
            converged = true;
            break;
        }
        if simulated >= cfg.max_rounds {
            break;
        }
        maybe_split(&mut strata, &mut scenarios, scenario, span, cfg);
    }

    let est = current_estimate(&strata);
    let fixed = fixed_rounds_for_target(est.rate, cfg.target_rel_half_width);
    let outcome = EstimateOutcome {
        scenario: scenario.name.clone(),
        rate: est.rate,
        ci95: est.ci,
        rel_half_width: (est.rate > 0.0).then(|| est.half_width / est.rate),
        target_rel_half_width: cfg.target_rel_half_width,
        converged,
        simulated_rounds: simulated,
        live_rounds: est.live_rounds,
        live_successes: est.live_successes,
        waves,
        stratified: span.is_some(),
        fixed_rounds_equiv: fixed,
        efficiency: fixed.map(|f| f as f64 / simulated as f64),
        strata: strata
            .iter()
            .map(|s| StratumReport {
                lo_ns: s.lo_n,
                hi_ns: s.hi_n,
                weight: s.weight,
                depth: s.depth,
                rounds: s.rounds,
                successes: s.successes,
                near_misses: s.near,
                windows_closed: s.windows_closed,
                strikes_hit: s.strikes_hit,
                retired: s.retired,
            })
            .collect(),
    };
    Ok(EstimateRun {
        outcome,
        computed_rounds: simulated - cached_total,
        cached_rounds: cached_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_sim::dist::DurationDist;
    use tocttou_workloads::dsl::Step;

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert!(EstimateConfig::default().validate().is_ok());
        for target in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let cfg = EstimateConfig {
                target_rel_half_width: target,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "target {target} must be rejected");
        }
        let cfg = EstimateConfig {
            block: 0,
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("--block 0"));
        let cfg = EstimateConfig {
            initial_strata: 0,
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("--strata 0"));
        let cfg = EstimateConfig {
            max_rounds: 10,
            pilot_rounds: 64,
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "budget below one pilot");
        for (cfg, flag) in [
            (
                EstimateConfig {
                    wave_rounds: u64::MAX,
                    ..Default::default()
                },
                "--wave",
            ),
            (
                EstimateConfig {
                    pilot_rounds: MAX_ROUNDS + 1,
                    max_rounds: u64::MAX,
                    ..Default::default()
                },
                "--pilot",
            ),
        ] {
            assert!(
                cfg.validate().unwrap_err().contains(flag),
                "{flag} past the ceiling"
            );
        }
        let at_ceiling = EstimateConfig {
            pilot_rounds: MAX_ROUNDS,
            wave_rounds: MAX_ROUNDS,
            max_rounds: MAX_ROUNDS,
            ..Default::default()
        };
        assert!(at_ceiling.validate().is_ok());
        // run_estimate surfaces validation as InvalidInput.
        let s = Scenario::vi_smp(1024);
        let bad = EstimateConfig {
            target_rel_half_width: f64::NAN,
            ..Default::default()
        };
        let err = run_estimate(&s, &bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // A pilot wave over budget is rejected before any stratum exists:
        // 1e8 strata (clamped to the ~1e8 ns window) would not fit in memory.
        let huge = EstimateConfig {
            initial_strata: 100_000_000,
            max_rounds: 100,
            ..Default::default()
        };
        let err = run_estimate(&Scenario::vi_uniprocessor(2048), &huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("exceed the budget"), "{err}");
        // 8 strata x 64 pilot rounds = 512 fits a budget of 600 exactly
        // as before; 10 strata do not.
        let fits = EstimateConfig {
            max_rounds: 600,
            ..Default::default()
        };
        assert!(check_pilot_fits(&Scenario::vi_uniprocessor(2048), &fits).is_ok());
        let over = EstimateConfig {
            initial_strata: 10,
            ..fits
        };
        assert!(check_pilot_fits(&Scenario::vi_uniprocessor(2048), &over).is_err());
    }

    #[test]
    fn fixed_rounds_baseline_is_sane_and_monotone() {
        assert_eq!(fixed_rounds_for_target(0.0, 0.2), None);
        assert_eq!(fixed_rounds_for_target(0.5, 0.0), None);
        assert_eq!(fixed_rounds_for_target(f64::NAN, 0.2), None);
        // p = 0.002 at ±20 % relative needs tens of thousands of rounds:
        // n ≈ z²(1−p)/(r²p) ≈ 48k.
        let n = fixed_rounds_for_target(0.002, 0.2).unwrap();
        assert!((30_000..70_000).contains(&n), "n = {n}");
        // Tighter targets and rarer events need more rounds.
        assert!(fixed_rounds_for_target(0.002, 0.1).unwrap() > n);
        assert!(fixed_rounds_for_target(0.0002, 0.2).unwrap() > n);
        // Common events need few: z²(1−p)/(r²p) ≈ 171 at p = 0.9, r = 0.05.
        let common = fixed_rounds_for_target(0.9, 0.05).unwrap();
        assert!((100..300).contains(&common), "n = {common}");
        // Deterministic.
        assert_eq!(fixed_rounds_for_target(0.002, 0.2).unwrap(), n);
    }

    #[test]
    fn initial_partition_is_exact_and_weighted() {
        let s = Scenario::vi_uniprocessor(2048);
        let cfg = EstimateConfig::default();
        let (strata, scenarios, span) = initial_partition(&s, &cfg);
        assert_eq!(strata.len(), 8);
        assert_eq!(span, Some(100_000_001), "inclusive integer span");
        // Contiguous, disjoint, covering the whole window.
        assert_eq!(strata[0].lo_n, 0);
        assert_eq!(strata[7].hi_n, 100_000_000);
        for pair in strata.windows(2) {
            assert_eq!(pair[1].lo_n, pair[0].hi_n + 1, "no gap, no overlap");
        }
        let total: f64 = strata.iter().map(|st| st.weight).sum();
        assert!((total - 1.0).abs() < 1e-12, "weights sum to 1: {total}");
        // Each restricted scenario matches its stratum's bounds.
        for (st, sc) in strata.iter().zip(&scenarios) {
            assert_eq!(sc.laxity_window_ns(), Some((st.lo_n, st.hi_n)));
        }
        // Seed lanes are pairwise distinct.
        for i in 0..strata.len() {
            for j in i + 1..strata.len() {
                assert_ne!(strata[i].seed_base, strata[j].seed_base);
            }
        }
        // No laxity window → one unstratified, unsplittable stratum.
        let mut flat = Scenario::vi_uniprocessor(2048);
        flat.victim
            .set_first_step(Step::Think(DurationDist::const_us(5.0)));
        let (strata, _, span) = initial_partition(&flat, &cfg);
        assert_eq!(strata.len(), 1);
        assert_eq!(span, None);
        assert!(!strata[0].splittable);
        assert_eq!(strata[0].weight, 1.0);
    }

    #[test]
    fn allocation_tops_up_pilots_then_follows_neyman() {
        let cfg = EstimateConfig::default();
        let s = Scenario::vi_uniprocessor(2048);
        let (mut strata, _, _) = initial_partition(&s, &cfg);
        // Fresh strata: the wave is pure pilot top-up.
        let alloc = allocate_wave(&strata, &cfg);
        assert_eq!(alloc.len(), 8);
        assert!(alloc.iter().all(|&(_, add)| add == cfg.pilot_rounds));
        // Piloted strata: exactly wave_rounds, skewed toward the stratum
        // with successes and near misses.
        for st in strata.iter_mut() {
            st.rounds = cfg.pilot_rounds;
        }
        strata[5].successes = 6;
        strata[5].near = 20;
        let alloc = allocate_wave(&strata, &cfg);
        let total: u64 = alloc.iter().map(|&(_, add)| add).sum();
        assert_eq!(total, cfg.wave_rounds, "largest remainder sums exactly");
        let hot = alloc.iter().find(|&&(h, _)| h == 5).unwrap().1;
        let cold = alloc.iter().find(|&&(h, _)| h == 0).unwrap().1;
        assert!(hot > 3 * cold, "Neyman favors the live stratum: {alloc:?}");
        // Retired strata never receive rounds.
        strata[3].retired = true;
        let alloc = allocate_wave(&strata, &cfg);
        assert!(alloc.iter().all(|&(h, _)| h != 3));
        // Deterministic.
        assert_eq!(alloc, allocate_wave(&strata, &cfg));
    }

    #[test]
    fn memory_waves_are_one_round_blocks_in_ascending_order() {
        let cfg = EstimateConfig::default();
        let (mut strata, _, _) = initial_partition(&Scenario::vi_uniprocessor(2048), &cfg);
        for (h, st) in strata.iter_mut().enumerate() {
            st.rounds = 64 + 10 * h as u64;
        }
        let alloc = [(0, 3), (2, 1), (5, 64)];
        let blocks = one_round_blocks(&alloc, &strata);
        assert_eq!(blocks.len(), 68);
        assert!(blocks.iter().all(|b| b.rounds() == 1));
        let mut rest = blocks.as_slice();
        for (h, add) in alloc {
            let (head, tail) = rest.split_at(add as usize);
            let got: Vec<(usize, u64)> = head.iter().map(|b| (b.point, b.start)).collect();
            let want: Vec<(usize, u64)> = (strata[h].rounds..strata[h].rounds + add)
                .map(|r| (h, r))
                .collect();
            assert_eq!(got, want, "stratum {h}: every round once, ascending");
            rest = tail;
        }
        assert!(one_round_blocks(&[], &strata).is_empty());
    }

    #[test]
    fn splitting_targets_sparse_signal_and_retires_the_parent() {
        let cfg = EstimateConfig::default();
        let root = Scenario::vi_uniprocessor(2048);
        let (mut strata, mut scenarios, span) = initial_partition(&root, &cfg);
        for st in strata.iter_mut() {
            st.rounds = 64;
        }
        // Stratum 7: sparse milestone signal → the split target.
        strata[7].near = 5;
        // Stratum 2: saturated signal (homogeneous) → must not split.
        strata[2].near = 40;
        maybe_split(&mut strata, &mut scenarios, &root, span, &cfg);
        assert_eq!(strata.len(), 10, "one parent split into two children");
        assert!(strata[7].retired);
        assert!(!strata[2].retired);
        let (a, b) = (&strata[8], &strata[9]);
        assert_eq!(a.lo_n, 87_500_000);
        assert_eq!(b.hi_n, 100_000_000);
        assert_eq!(b.lo_n, a.hi_n + 1, "children partition the parent");
        assert!((a.weight + b.weight - strata[7].weight).abs() < 1e-12);
        assert_eq!(a.depth, 1);
        assert_eq!(scenarios[8].laxity_window_ns(), Some((a.lo_n, a.hi_n)));
        // With no signal anywhere, nothing splits.
        let (mut quiet, mut qs, span) = initial_partition(&root, &cfg);
        for st in quiet.iter_mut() {
            st.rounds = 64;
        }
        maybe_split(&mut quiet, &mut qs, &root, span, &cfg);
        assert_eq!(quiet.len(), 8);
    }

    #[test]
    fn single_stratum_sequential_stopping_on_a_common_event() {
        // vi SMP succeeds ~100 % of the time: the Wilson interval meets a
        // loose target within the first waves, far under the budget.
        let mut s = Scenario::vi_smp(1024);
        // Strip the laxity axis so the run exercises the pure
        // sequential-stopping path (one stratum, Wilson interval).
        s.victim
            .set_first_step(Step::Think(DurationDist::const_us(50.0)));
        let cfg = EstimateConfig {
            target_rel_half_width: 0.1,
            max_rounds: 4_000,
            ..Default::default()
        };
        let run = run_estimate(&s, &cfg).unwrap();
        let out = &run.outcome;
        assert!(!out.stratified);
        assert!(out.converged, "{out}");
        assert!(out.rate > 0.8, "vi SMP is near-certain: {}", out.rate);
        assert!(out.simulated_rounds < cfg.max_rounds);
        assert_eq!(out.strata.len(), 1);
        assert_eq!(run.cached_rounds, 0, "memory mode has no cache");
        assert_eq!(run.computed_rounds, out.simulated_rounds);
        // The report round-trips through JSON (no non-finite numbers).
        let text = serde_json::to_string(out).unwrap();
        assert!(text.contains("\"converged\":true"), "{text}");
    }
}

//! Race-window forensics: exact window intervals and strike miss distances.
//!
//! The [`detect`](crate::detect) module answers *whether* a round raced;
//! this module answers *how close* it came. It reads the kernel's one
//! check→use window table (the same windows the detector and the EDGI
//! defense read), where every window carries the exact virtual-time
//! interval from check commit to use commit. Every namespace mutation by
//! another process — a *strike* — is classified against the window it
//! targeted:
//!
//! * **hit** — the strike landed inside a window that was subsequently
//!   consumed by a use;
//! * **early miss** — the strike landed before the window that eventually
//!   closed opened (or was voided by a re-check); its distance is
//!   `t_check − t_strike`, the margin by which the attacker jumped the gun;
//! * **late miss** — the strike landed after the (last) use consumed the
//!   window; its distance is `t_strike − t_use`, the margin by which the
//!   attacker arrived too late;
//! * **unpaired** — the strike never matched a window that closed (e.g. a
//!   victim's own `creat` interposing on the attacker's stat-spin window,
//!   which no use ever consumes). These are counted, not interpreted.
//!
//! Early and late misses keep their sign by living in *separate* log2
//! histograms; `min_miss_ns` tracks the closest failed strike either way —
//! the proximity signal the rare-event estimator's importance splitting
//! reads through [`RoundMilestones`], and the laxity term of the paper's
//! Formula (1) made measurable.
//!
//! Like [`KernelMetrics`](crate::metrics::KernelMetrics), the accumulator
//! is branch-gated, allocation-light, pooled across rounds (`retain`), and
//! folds into a [`ForensicsSnapshot`] whose merge is commutative and
//! associative — the Monte-Carlo engine combines per-worker aggregates
//! bit-identically at any `--jobs` value. Forensics default **on** (see
//! [`MachineSpec::forensics`]); the bench strips them with
//! [`MachineSpec::without_forensics`] to assert the ≤5% overhead budget.
//!
//! With the event log armed ([`MachineSpec::with_event_log`]) the forensics
//! layer also keeps a per-round *event log* of closed windows and
//! classified strikes with their real pathnames — the material of the
//! `--anatomy` exhibit, the Perfetto exporter and the window spans
//! [`spans::derive`](crate::spans::derive) reads off it, too
//! allocation-heavy for Monte-Carlo rounds and therefore off by default.
//!
//! [`MachineSpec::forensics`]: crate::machine::MachineSpec::forensics
//! [`MachineSpec::without_forensics`]: crate::machine::MachineSpec::without_forensics
//! [`MachineSpec::with_event_log`]: crate::machine::MachineSpec::with_event_log

use crate::ids::Pid;
use crate::window::{same_path, PendingStrike, Window};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;
use tocttou_sim::metrics::LatencyHistogram;
use tocttou_sim::time::{SimDuration, SimTime};

/// How a classified strike related to the window it targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeOutcome {
    /// Landed inside a window that a use later consumed.
    Hit,
    /// Landed before the consumed window opened; the distance is
    /// `t_check − t_strike`.
    Early(SimDuration),
    /// Landed after the use; the distance is `t_strike − t_use`.
    Late(SimDuration),
    /// Never matched a window that closed.
    Unpaired,
}

impl std::fmt::Display for StrikeOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrikeOutcome::Hit => write!(f, "hit"),
            StrikeOutcome::Early(d) => write!(f, "early by {}ns", d.as_nanos()),
            StrikeOutcome::Late(d) => write!(f, "late by {}ns", d.as_nanos()),
            StrikeOutcome::Unpaired => write!(f, "unpaired"),
        }
    }
}

/// One classified strike (event log; only kept when the log is armed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrikeRecord {
    /// The process whose mutation struck.
    pub by: Pid,
    /// The contested pathname.
    pub path: Arc<str>,
    /// When the mutation committed.
    pub t: SimTime,
    /// How the strike fared against the window.
    pub outcome: StrikeOutcome,
}

impl std::fmt::Display for StrikeRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "strike {} by {} @{}ns: {}",
            self.path,
            self.by,
            self.t.as_nanos(),
            self.outcome
        )
    }
}

/// One closed check-use window (event log; only kept when the log is armed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// The process that issued check and use.
    pub owner: Pid,
    /// The checked-then-used pathname.
    pub path: Arc<str>,
    /// When the check committed.
    pub t_check: SimTime,
    /// When the first use consumed the window.
    pub t_use: SimTime,
}

impl WindowRecord {
    /// The window width, check commit to use commit.
    pub fn width(&self) -> SimDuration {
        self.t_use.saturating_since(self.t_check)
    }
}

impl std::fmt::Display for WindowRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window {} owner={} [{}ns, {}ns] width={}ns",
            self.path,
            self.owner,
            self.t_check.as_nanos(),
            self.t_use.as_nanos(),
            self.width().as_nanos()
        )
    }
}

/// The importance-splitting level milestones one round reached, read off
/// the forensics classifier at the round boundary.
///
/// A rare-event estimator promotes strata whose rounds climb this ladder —
/// *some* window closed, a strike came within a near-miss threshold, a
/// strike landed — even when no round in the stratum succeeded outright.
/// Unlike [`ForensicsSnapshot`] this is strictly per-round state: pooled
/// (`retain`) accumulation never leaks into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundMilestones {
    /// A check-use window closed (the attack surface actually opened).
    pub window_closed: bool,
    /// The closest failed strike this round, in nanoseconds.
    pub min_miss_ns: Option<u64>,
    /// A strike landed inside a consumed window (stale binding committed).
    pub strike_hit: bool,
}

impl RoundMilestones {
    /// True when the round's closest miss was within `k` nanoseconds.
    pub fn near_miss_within(&self, k: u64) -> bool {
        self.min_miss_ns.is_some_and(|d| d <= k)
    }
}

/// The forensics accounting: the running aggregate, the per-round event
/// logs and milestones. The windows and waiting strikes it classifies live
/// in the kernel's shared [`RaceWindows`](crate::window::RaceWindows)
/// table; every hook is gated on `enabled`, so a kernel built from
/// [`without_forensics`](crate::machine::MachineSpec::without_forensics)
/// pays one predictable branch per commit and nothing else.
#[derive(Debug)]
pub(crate) struct ForensicsState {
    enabled: bool,
    /// Log closed windows / classified strikes with real paths (exhibits
    /// only; see [`MachineSpec::event_log`](crate::machine::MachineSpec::event_log)).
    log_enabled: bool,
    /// Survive [`reset`](Self::reset): accumulate across pooled rounds
    /// (see [`KernelPool::retain_metrics`]), folding each round's
    /// leftovers into `acc` at the boundary.
    ///
    /// [`KernelPool::retain_metrics`]: crate::kernel::KernelPool::retain_metrics
    retain: bool,
    acc: ForensicsSnapshot,
    window_log: Vec<WindowRecord>,
    strike_log: Vec<StrikeRecord>,
    /// Per-round milestone state (never survives `reset`, even retaining).
    round_window_closed: bool,
    round_strike_hit: bool,
    round_min_miss_ns: u64,
}

impl Default for ForensicsState {
    fn default() -> Self {
        ForensicsState {
            enabled: false,
            log_enabled: false,
            retain: false,
            acc: ForensicsSnapshot::default(),
            window_log: Vec::new(),
            strike_log: Vec::new(),
            round_window_closed: false,
            round_strike_hit: false,
            round_min_miss_ns: u64::MAX,
        }
    }
}

impl ForensicsState {
    /// Whether hooks are recording.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Rearms the accounting for a fresh round whose table (`windows`,
    /// `pending`) the caller clears next. A retaining accumulator first
    /// folds the finished round's leftovers into its running aggregate (so
    /// warm rounds sum to exactly what per-round snapshots would), then
    /// keeps it; otherwise the aggregate starts from zero. The per-round
    /// event logs and milestones are always cleared.
    pub(crate) fn reset(
        &mut self,
        enabled: bool,
        log: bool,
        windows: &[Window],
        pending: &[PendingStrike],
    ) {
        let mut kept = ForensicsSnapshot::default();
        if self.retain {
            kept = std::mem::take(&mut self.acc);
            fold_leftovers(windows, pending, &mut kept);
        }
        self.clear_data();
        self.acc = kept;
        self.enabled = enabled;
        self.log_enabled = log;
    }

    /// Clears accumulated data even when retaining (sweep work items wipe
    /// between grid points, exactly like a fresh pool).
    pub(crate) fn clear_data(&mut self) {
        self.acc = ForensicsSnapshot::default();
        self.window_log.clear();
        self.strike_log.clear();
        self.round_window_closed = false;
        self.round_strike_hit = false;
        self.round_min_miss_ns = u64::MAX;
    }

    /// Makes [`reset`](Self::reset) accumulate across pooled rounds.
    pub(crate) fn set_retain(&mut self, retain: bool) {
        self.retain = retain;
    }

    // --- hooks, called by the shared window table (all gated) -------------

    /// A check commit by `pid` on `path`: pending foreign strikes on the
    /// path pair as early misses, and the window's own waiting `strikes`
    /// are voided as early (a re-check re-establishes the invariant, so
    /// they were early relative to the window that will eventually close).
    pub(crate) fn on_check(
        &mut self,
        pid: Pid,
        path: &Arc<str>,
        pending: &mut Vec<PendingStrike>,
        strikes: &mut Vec<(Pid, SimTime)>,
        now: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        self.acc.checks += 1;
        pending.retain(|s| {
            let pairs = s.by != pid && same_path(&s.path, path);
            if pairs {
                self.early(s.by, &s.path, s.t, now);
            }
            !pairs
        });
        for (by, t) in strikes.drain(..) {
            self.early(by, path, t, now);
        }
    }

    fn early(&mut self, by: Pid, path: &Arc<str>, t: SimTime, now: SimTime) {
        let d = now.saturating_since(t);
        self.acc.note_early(d);
        self.round_min_miss_ns = self.round_min_miss_ns.min(d.as_nanos());
        self.log_strike(by, path, t, StrikeOutcome::Early(d));
    }

    /// A use commit consuming window `w`: waiting strikes become hits; the
    /// first use closes the window (records its width, and logs it when the
    /// event log is armed); later uses extend the consumed interval for
    /// late-miss distances.
    pub(crate) fn on_use(&mut self, w: &mut Window, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.acc.uses += 1;
        self.round_window_closed = true;
        let first_use = !w.used;
        w.used = true;
        w.t_use = now;
        self.round_strike_hit |= !w.strikes.is_empty();
        self.acc.strikes_hit += w.strikes.len() as u64;
        for (by, t) in w.strikes.drain(..) {
            self.log_strike(by, &w.path, t, StrikeOutcome::Hit);
        }
        if !first_use {
            return;
        }
        self.acc
            .window_width
            .record(now.saturating_since(w.t_check));
        if self.log_enabled {
            self.window_log.push(WindowRecord {
                owner: w.owner,
                path: w.path.clone(),
                t_check: w.t_check,
                t_use: now,
            });
        }
    }

    /// Window `w`'s owner exited: classifies its waiting strikes (late
    /// misses against a consumed window, unpaired against one that never
    /// closed).
    pub(crate) fn on_exit(&mut self, w: &Window) {
        for &(by, t) in &w.strikes {
            let outcome = classify_leftover(w, t, &mut self.acc);
            if let StrikeOutcome::Late(d) = outcome {
                self.round_min_miss_ns = self.round_min_miss_ns.min(d.as_nanos());
            }
            self.log_strike(by, &w.path, t, outcome);
        }
    }

    fn log_strike(&mut self, by: Pid, path: &Arc<str>, t: SimTime, outcome: StrikeOutcome) {
        if self.log_enabled {
            self.strike_log.push(StrikeRecord {
                by,
                path: path.clone(),
                t,
                outcome,
            });
        }
    }
}

/// A kernel's window forensics, read-only: the accounting plus the live
/// windows and pending strikes it folds on the fly. Returned by
/// [`Kernel::forensics`](crate::kernel::Kernel::forensics) and
/// [`KernelPool::forensics`](crate::kernel::KernelPool::forensics).
#[derive(Debug, Clone, Copy)]
pub struct WindowForensics<'a> {
    pub(crate) state: &'a ForensicsState,
    pub(crate) windows: &'a [Window],
    pub(crate) pending: &'a [PendingStrike],
}

impl<'a> WindowForensics<'a> {
    /// Closed windows logged this round, in close order (event log armed
    /// only).
    pub fn window_log(&self) -> &'a [WindowRecord] {
        &self.state.window_log
    }

    /// Classified strikes logged this round (event log armed only).
    pub fn strike_log(&self) -> &'a [StrikeRecord] {
        &self.state.strike_log
    }

    /// Condenses the accumulator into a mergeable snapshot, folding live
    /// leftovers (strikes still waiting in windows or pending) on the fly.
    pub fn snapshot(&self) -> ForensicsSnapshot {
        let mut snap = self.state.acc.clone();
        fold_leftovers(self.windows, self.pending, &mut snap);
        snap
    }

    /// The level milestones the current round has reached so far, folding
    /// live leftovers (late misses in consumed windows) on the fly — pure,
    /// like [`snapshot`](Self::snapshot), so the Monte-Carlo engine can read
    /// it at the round boundary without a mutating flush.
    pub fn round_milestones(&self) -> RoundMilestones {
        let min = self
            .state
            .round_min_miss_ns
            .min(leftover_min_miss_ns(self.windows));
        RoundMilestones {
            window_closed: self.state.round_window_closed,
            min_miss_ns: (min != u64::MAX).then_some(min),
            strike_hit: self.state.round_strike_hit,
        }
    }
}

/// A kernel's window forensics, for the round-end
/// [`flush`](Self::flush). Returned by
/// [`Kernel::forensics_mut`](crate::kernel::Kernel::forensics_mut).
#[derive(Debug)]
pub struct WindowForensicsMut<'a> {
    pub(crate) state: &'a mut ForensicsState,
    pub(crate) windows: &'a mut [Window],
    pub(crate) pending: &'a mut Vec<PendingStrike>,
}

impl WindowForensicsMut<'_> {
    /// Ends the round: classifies every leftover (strikes waiting in
    /// windows, pending strikes that never found one) into the aggregate
    /// and the event log. Exhibits call this after a run so the logs are
    /// complete; Monte-Carlo rounds never need to —
    /// [`snapshot`](WindowForensics::snapshot) folds live leftovers on the
    /// fly without mutating.
    pub fn flush(&mut self) {
        let s = &mut *self.state;
        if !s.enabled {
            return;
        }
        s.round_min_miss_ns = s.round_min_miss_ns.min(leftover_min_miss_ns(self.windows));
        for w in self.windows.iter_mut() {
            for &(by, t) in &w.strikes {
                let outcome = classify_leftover(w, t, &mut s.acc);
                s.log_strike(by, &w.path, t, outcome);
            }
            w.strikes.clear();
        }
        for strike in self.pending.drain(..) {
            s.acc.strikes_unpaired += 1;
            s.log_strike(strike.by, &strike.path, strike.t, StrikeOutcome::Unpaired);
        }
    }
}

/// The closest late miss among live leftovers (strikes still waiting in
/// consumed windows), without mutating the table.
fn leftover_min_miss_ns(windows: &[Window]) -> u64 {
    let mut min = u64::MAX;
    for w in windows.iter().filter(|w| w.used) {
        for &(_, t) in &w.strikes {
            min = min.min(t.saturating_since(w.t_use).as_nanos());
        }
    }
    min
}

/// Classifies every live leftover into `acc` without mutating the table.
fn fold_leftovers(windows: &[Window], pending: &[PendingStrike], acc: &mut ForensicsSnapshot) {
    for w in windows {
        for &(_, t) in &w.strikes {
            classify_leftover(w, t, acc);
        }
    }
    acc.strikes_unpaired += pending.len() as u64;
}

/// Classifies one leftover in-window strike into `acc` and returns the
/// outcome (late miss against a consumed window, unpaired otherwise).
fn classify_leftover(w: &Window, t: SimTime, acc: &mut ForensicsSnapshot) -> StrikeOutcome {
    if w.used {
        let d = t.saturating_since(w.t_use);
        acc.note_late(d);
        StrikeOutcome::Late(d)
    } else {
        acc.strikes_unpaired += 1;
        StrikeOutcome::Unpaired
    }
}

/// A condensed, mergeable copy of one run's window forensics.
///
/// [`merge`](Self::merge) is pure integer accumulation plus a min-fold —
/// commutative and associative, so folding snapshots is order-independent
/// and bit-identical at any `--jobs` value.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsSnapshot {
    /// Check commits observed.
    pub checks: u64,
    /// Use commits that consumed a window.
    pub uses: u64,
    /// Strikes that landed inside a consumed window.
    pub strikes_hit: u64,
    /// Strikes that never matched a window that closed.
    pub strikes_unpaired: u64,
    /// Check-to-first-use widths of closed windows.
    pub window_width: LatencyHistogram,
    /// Early-miss distances (`t_check − t_strike`).
    pub miss_early: LatencyHistogram,
    /// Late-miss distances (`t_strike − t_use`).
    pub miss_late: LatencyHistogram,
    /// Closest miss in nanoseconds; `u64::MAX` is the "no misses" identity.
    min_miss_ns: u64,
}

impl Default for ForensicsSnapshot {
    fn default() -> Self {
        ForensicsSnapshot {
            checks: 0,
            uses: 0,
            strikes_hit: 0,
            strikes_unpaired: 0,
            window_width: LatencyHistogram::new(),
            miss_early: LatencyHistogram::new(),
            miss_late: LatencyHistogram::new(),
            min_miss_ns: u64::MAX,
        }
    }
}

impl ForensicsSnapshot {
    fn note_early(&mut self, d: SimDuration) {
        self.miss_early.record(d);
        self.min_miss_ns = self.min_miss_ns.min(d.as_nanos());
    }

    fn note_late(&mut self, d: SimDuration) {
        self.miss_late.record(d);
        self.min_miss_ns = self.min_miss_ns.min(d.as_nanos());
    }

    /// The closest failed strike (either side of the window), if any missed.
    pub fn min_miss_ns(&self) -> Option<u64> {
        (self.min_miss_ns != u64::MAX).then_some(self.min_miss_ns)
    }

    /// Total strikes observed (hit + missed + unpaired).
    pub fn strikes_total(&self) -> u64 {
        self.strikes_hit + self.miss_early.count() + self.miss_late.count() + self.strikes_unpaired
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self == &ForensicsSnapshot::default()
    }

    /// Folds `other` into `self` (commutative and associative).
    pub fn merge(&mut self, other: &ForensicsSnapshot) {
        self.checks += other.checks;
        self.uses += other.uses;
        self.strikes_hit += other.strikes_hit;
        self.strikes_unpaired += other.strikes_unpaired;
        self.window_width.merge(&other.window_width);
        self.miss_early.merge(&other.miss_early);
        self.miss_late.merge(&other.miss_late);
        self.min_miss_ns = self.min_miss_ns.min(other.min_miss_ns);
    }
}

impl Serialize for ForensicsSnapshot {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("checks".into(), Value::UInt(self.checks)),
            ("uses".into(), Value::UInt(self.uses)),
            ("strikes_hit".into(), Value::UInt(self.strikes_hit)),
            (
                "strikes_unpaired".into(),
                Value::UInt(self.strikes_unpaired),
            ),
            ("window_width".into(), self.window_width.serialize_value()),
            ("miss_early".into(), self.miss_early.serialize_value()),
            ("miss_late".into(), self.miss_late.serialize_value()),
            (
                "min_miss_ns".into(),
                match self.min_miss_ns() {
                    Some(ns) => Value::UInt(ns),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl Deserialize for ForensicsSnapshot {
    /// Rebuilds a snapshot from its serialized form; a null `min_miss_ns`
    /// restores the `u64::MAX` "no misses" merge identity, so
    /// `deserialize(serialize(s)) == s` exactly and reloaded snapshots
    /// [`merge`](ForensicsSnapshot::merge) like fresh ones.
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| DeError::msg(format!("forensics missing field `{name}`")))
        };
        Ok(ForensicsSnapshot {
            checks: u64::deserialize_value(field("checks")?)?,
            uses: u64::deserialize_value(field("uses")?)?,
            strikes_hit: u64::deserialize_value(field("strikes_hit")?)?,
            strikes_unpaired: u64::deserialize_value(field("strikes_unpaired")?)?,
            window_width: LatencyHistogram::deserialize_value(field("window_width")?)?,
            miss_early: LatencyHistogram::deserialize_value(field("miss_early")?)?,
            miss_late: LatencyHistogram::deserialize_value(field("miss_late")?)?,
            min_miss_ns: Option::<u64>::deserialize_value(field("min_miss_ns")?)?
                .unwrap_or(u64::MAX),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::rig::{arc, t, Rig};
    use tocttou_core::taxonomy::FsCall;

    fn armed() -> Rig {
        Rig::armed()
    }

    #[test]
    fn disabled_forensics_is_silent_and_free() {
        let p = arc("/doc");
        // Stripped, and with the table kept up for the detector alone.
        for mut f in [Rig::stripped(), Rig::detector()] {
            f.check(Pid(1), &p, FsCall::Stat, t(1));
            f.mutate(Pid(2), &p, FsCall::Unlink, t(2));
            f.use_(Pid(1), &p, FsCall::Chown, t(3));
            f.race.forensics_view_mut().flush();
            assert!(f.race.windows.iter().all(|w| w.strikes.is_empty()));
            assert!(f.race.pending.is_empty());
            assert!(f.forensics().snapshot().is_empty());
        }
    }

    #[test]
    fn strike_inside_a_consumed_window_is_a_hit() {
        let mut f = armed();
        let p = arc("/etc/passwd");
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(20));
        f.use_(Pid(0), &p, FsCall::Chown, t(40));
        let closed = &f.forensics().window_log()[0];
        assert_eq!((closed.t_check, closed.t_use), (t(10), t(40)));
        let s = f.forensics().snapshot();
        assert_eq!(s.strikes_hit, 1);
        assert_eq!(s.window_width.count(), 1);
        assert_eq!(s.window_width.sum_ns(), 30_000);
        assert_eq!(s.min_miss_ns(), None, "a hit is not a miss");
        assert_eq!(f.forensics().window_log().len(), 1);
        assert_eq!(
            f.forensics().window_log()[0].width(),
            SimDuration::from_micros(30)
        );
        assert_eq!(f.forensics().strike_log().len(), 1);
        assert_eq!(f.forensics().strike_log()[0].outcome, StrikeOutcome::Hit);
    }

    #[test]
    fn strike_before_any_window_is_an_early_miss() {
        let mut f = armed();
        let p = arc("/doc");
        f.mutate(Pid(1), &p, FsCall::Unlink, t(5));
        assert_eq!(f.race.pending.len(), 1);
        f.check(Pid(0), &p, FsCall::Stat, t(12));
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        let s = f.forensics().snapshot();
        assert_eq!(s.strikes_hit, 0);
        assert_eq!(s.miss_early.count(), 1);
        assert_eq!(s.miss_early.sum_ns(), 7_000);
        assert_eq!(s.min_miss_ns(), Some(7_000));
        assert_eq!(
            f.forensics().strike_log()[0].outcome,
            StrikeOutcome::Early(SimDuration::from_micros(7))
        );
    }

    #[test]
    fn own_pending_strike_never_pairs_with_own_check() {
        let mut f = armed();
        let p = arc("/doc");
        f.mutate(Pid(0), &p, FsCall::Unlink, t(5));
        f.check(Pid(0), &p, FsCall::Stat, t(12));
        assert_eq!(f.race.pending.len(), 1, "own check does not classify it");
        let s = f.forensics().snapshot();
        assert_eq!(s.strikes_unpaired, 1);
        assert_eq!(s.miss_early.count(), 0);
    }

    #[test]
    fn recheck_voids_an_in_window_strike_as_early() {
        let mut f = armed();
        let p = arc("/doc");
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(15));
        f.check(Pid(0), &p, FsCall::Stat, t(22));
        f.use_(Pid(0), &p, FsCall::Chown, t(30));
        let s = f.forensics().snapshot();
        assert_eq!(s.strikes_hit, 0, "re-check re-established the invariant");
        assert_eq!(s.miss_early.count(), 1);
        assert_eq!(s.miss_early.sum_ns(), 7_000, "distance to the final check");
        assert_eq!(s.window_width.sum_ns(), 8_000, "width is re-check to use");
    }

    #[test]
    fn strike_after_the_last_use_is_a_late_miss() {
        let mut f = armed();
        let p = arc("/doc");
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(26));
        // Live leftover: the snapshot folds it without mutating.
        let s = f.forensics().snapshot();
        assert_eq!(s.miss_late.count(), 1);
        assert_eq!(s.miss_late.sum_ns(), 6_000);
        assert_eq!(s.min_miss_ns(), Some(6_000));
        let again = f.forensics().snapshot();
        assert_eq!(s, again, "snapshot is pure");
        // The mutating flush classifies and logs it.
        f.race.forensics_view_mut().flush();
        assert!(f.race.windows[0].strikes.is_empty(), "leftover classified");
        assert_eq!(f.forensics().snapshot(), s);
        assert_eq!(f.forensics().strike_log().len(), 1);
        assert_eq!(
            f.forensics().strike_log()[0].outcome,
            StrikeOutcome::Late(SimDuration::from_micros(6))
        );
    }

    #[test]
    fn strike_between_two_uses_is_a_hit_on_the_next_use() {
        let mut f = armed();
        let p = arc("/doc");
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        assert_eq!(f.forensics().window_log().len(), 1, "the first use closes");
        f.mutate(Pid(1), &p, FsCall::Unlink, t(23));
        f.use_(Pid(0), &p, FsCall::Chown, t(30));
        assert_eq!(f.forensics().window_log().len(), 1, "window already closed");
        let s = f.forensics().snapshot();
        assert_eq!(s.strikes_hit, 1, "a later use consumed the broken window");
        assert_eq!(s.uses, 2);
        assert_eq!(s.window_width.count(), 1, "one window, first-use width");
    }

    #[test]
    fn strike_into_a_window_that_never_closes_is_unpaired() {
        let mut f = armed();
        let p = arc("/tmp/x");
        // The attacker's stat-spin window; the victim's creat "strikes" it.
        f.check(Pid(1), &p, FsCall::Stat, t(5));
        f.mutate(Pid(0), &p, FsCall::Unlink, t(9));
        let s = f.forensics().snapshot();
        assert_eq!(s.strikes_unpaired, 1);
        assert_eq!(s.strikes_hit, 0);
        assert_eq!(s.min_miss_ns(), None);
        f.race.forensics_view_mut().flush();
        assert_eq!(
            f.forensics().strike_log()[0].outcome,
            StrikeOutcome::Unpaired
        );
    }

    #[test]
    fn exit_classifies_leftovers_like_a_flush() {
        let mut f = armed();
        let p = arc("/doc");
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(27));
        f.exit(Pid(0));
        assert_eq!(f.race.windows.len(), 0);
        let s = f.forensics().snapshot();
        assert_eq!(s.miss_late.count(), 1);
        assert_eq!(s.miss_late.sum_ns(), 7_000);
        assert_eq!(f.forensics().strike_log().len(), 1);
    }

    #[test]
    fn reset_without_retain_forgets_everything() {
        let mut f = armed();
        let p = arc("/doc");
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(12));
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        f.reboot();
        assert!(f.forensics().snapshot().is_empty());
        assert_eq!(f.race.windows.len(), 0);
        assert!(f.forensics().window_log().is_empty() && f.forensics().strike_log().is_empty());
    }

    #[test]
    fn retained_reset_equals_per_round_snapshots() {
        // Round 1 on a retaining accumulator, then a reset boundary, then
        // round 2 — the drain must equal two per-round snapshots merged.
        let mut warm = armed();
        warm.race.forensics.set_retain(true);
        let mut expect = ForensicsSnapshot::default();

        let round = |f: &mut Rig, base: u64| {
            let p = arc("/doc");
            f.check(Pid(0), &p, FsCall::Stat, t(base));
            f.mutate(Pid(1), &p, FsCall::Unlink, t(base + 4));
            f.use_(Pid(0), &p, FsCall::Chown, t(base + 9));
            f.mutate(Pid(1), &p, FsCall::Unlink, t(base + 11)); // leftover late miss
        };
        round(&mut warm, 100);
        {
            let mut cold = armed();
            round(&mut cold, 100);
            expect.merge(&cold.forensics().snapshot());
        }
        warm.reboot();
        round(&mut warm, 300);
        {
            let mut cold = armed();
            round(&mut cold, 300);
            expect.merge(&cold.forensics().snapshot());
        }
        assert_eq!(warm.forensics().snapshot(), expect);
        // And the sweep boundary wipe leaves a pristine accumulator.
        warm.race.drain_forensics();
        assert!(warm.forensics().snapshot().is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = ForensicsSnapshot {
            checks: 3,
            ..Default::default()
        };
        a.note_early(SimDuration::from_micros(9));
        let mut b = ForensicsSnapshot {
            uses: 2,
            strikes_hit: 1,
            ..Default::default()
        };
        b.note_late(SimDuration::from_micros(4));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.min_miss_ns(), Some(4_000));
        assert_eq!(ab.strikes_total(), 3);
        let mut with_id = ab.clone();
        with_id.merge(&ForensicsSnapshot::default());
        assert_eq!(with_id, ab, "default is the merge identity");
    }

    #[test]
    fn serializes_with_null_min_when_no_miss() {
        let snap = ForensicsSnapshot::default();
        let Value::Object(fields) = snap.serialize_value() else {
            panic!("object expected");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "checks",
                "uses",
                "strikes_hit",
                "strikes_unpaired",
                "window_width",
                "miss_early",
                "miss_late",
                "min_miss_ns"
            ]
        );
        assert!(matches!(
            fields.iter().find(|(k, _)| k == "min_miss_ns").unwrap().1,
            Value::Null
        ));
    }

    #[test]
    fn snapshot_serde_round_trip_is_exact() {
        let mut f = armed();
        let p = arc("/doc");
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(15));
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(26));
        f.mutate(Pid(2), &arc("/other"), FsCall::Unlink, t(30));
        let snap = f.forensics().snapshot();
        let back = ForensicsSnapshot::deserialize_value(&snap.serialize_value()).unwrap();
        assert_eq!(back, snap);
        // The empty snapshot round-trips through its null min_miss_ns form.
        let empty =
            ForensicsSnapshot::deserialize_value(&ForensicsSnapshot::default().serialize_value())
                .unwrap();
        assert_eq!(empty, ForensicsSnapshot::default());
    }

    #[test]
    fn round_milestones_track_the_level_ladder() {
        let mut f = armed();
        let p = arc("/doc");
        let none = f.forensics().round_milestones();
        assert!(!none.window_closed && !none.strike_hit);
        assert_eq!(none.min_miss_ns, None);
        assert!(!none.near_miss_within(u64::MAX));

        // Level 1: a window closes (no strike at all).
        f.check(Pid(0), &p, FsCall::Stat, t(10));
        assert!(
            !f.forensics().round_milestones().window_closed,
            "open ≠ closed"
        );
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        let m = f.forensics().round_milestones();
        assert!(m.window_closed && !m.strike_hit);
        assert_eq!(m.min_miss_ns, None);

        // Level 2: a near miss — live leftover folded without mutating.
        f.mutate(Pid(1), &p, FsCall::Unlink, t(26));
        let m = f.forensics().round_milestones();
        assert_eq!(m.min_miss_ns, Some(6_000));
        assert!(m.near_miss_within(6_000) && !m.near_miss_within(5_999));
        assert!(!m.strike_hit);
        assert_eq!(f.forensics().round_milestones(), m, "accessor is pure");

        // The mutating flush agrees with the on-the-fly fold.
        f.race.forensics_view_mut().flush();
        assert_eq!(f.forensics().round_milestones(), m);

        // Level 3: a strike lands.
        f.check(Pid(0), &p, FsCall::Stat, t(40));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(45));
        f.use_(Pid(0), &p, FsCall::Chown, t(50));
        assert!(f.forensics().round_milestones().strike_hit);

        // The round boundary clears milestones, retaining or not.
        f.race.forensics.set_retain(true);
        f.reboot();
        let fresh = f.forensics().round_milestones();
        assert!(!fresh.window_closed && !fresh.strike_hit);
        assert_eq!(fresh.min_miss_ns, None);
    }

    #[test]
    fn round_milestones_cover_every_miss_classifier() {
        // Early miss via a pending strike pairing with a later check.
        let mut f = armed();
        let p = arc("/doc");
        f.mutate(Pid(1), &p, FsCall::Unlink, t(5));
        f.check(Pid(0), &p, FsCall::Stat, t(12));
        assert_eq!(f.forensics().round_milestones().min_miss_ns, Some(7_000));

        // Early miss via a re-check voiding an in-window strike.
        f.mutate(Pid(1), &p, FsCall::Unlink, t(14));
        f.check(Pid(0), &p, FsCall::Stat, t(16));
        assert_eq!(f.forensics().round_milestones().min_miss_ns, Some(2_000));

        // Late miss surfaced by process exit.
        f.use_(Pid(0), &p, FsCall::Chown, t(20));
        f.mutate(Pid(1), &p, FsCall::Unlink, t(21));
        f.exit(Pid(0));
        assert_eq!(f.forensics().round_milestones().min_miss_ns, Some(1_000));

        // Unpaired strikes are not misses and set nothing.
        let mut g = armed();
        g.check(Pid(1), &arc("/tmp/x"), FsCall::Stat, t(5));
        g.mutate(Pid(0), &arc("/tmp/x"), FsCall::Unlink, t(9));
        let m = g.forensics().round_milestones();
        assert_eq!(m.min_miss_ns, None);
        assert!(!m.window_closed && !m.strike_hit);
    }

    #[test]
    fn round_milestones_never_survive_a_boot_or_a_drain() {
        // A checkpoint boot applies the plain boot reset, so a pooled table
        // that ran a round boots exactly like a fresh one.
        let round = |f: &mut Rig| {
            let p = arc("/doc");
            f.check(Pid(0), &p, FsCall::Stat, t(10));
            f.use_(Pid(0), &p, FsCall::Chown, t(20));
            f.mutate(Pid(1), &p, FsCall::Unlink, t(23));
        };
        let mut fresh = armed();
        round(&mut fresh);
        let expect = fresh.forensics().round_milestones();
        let mut pooled = armed();
        pooled.race.forensics.set_retain(true);
        pooled.check(Pid(9), &arc("/other"), FsCall::Stat, t(1));
        pooled.use_(Pid(9), &arc("/other"), FsCall::Chown, t(2));
        pooled.reboot();
        assert_eq!(pooled.race.windows.len(), 0);
        round(&mut pooled);
        assert_eq!(pooled.forensics().round_milestones(), expect);
        pooled.race.drain_forensics();
        assert_eq!(pooled.forensics().round_milestones().min_miss_ns, None);
    }

    #[test]
    fn display_forms_are_grep_friendly() {
        let w = WindowRecord {
            owner: Pid(0),
            path: arc("/etc/passwd"),
            t_check: t(1),
            t_use: t(4),
        };
        assert_eq!(
            w.to_string(),
            "window /etc/passwd owner=Pid(0) [1000ns, 4000ns] width=3000ns"
        );
        let s = StrikeRecord {
            by: Pid(1),
            path: arc("/etc/passwd"),
            t: t(2),
            outcome: StrikeOutcome::Early(SimDuration::from_nanos(500)),
        };
        assert_eq!(
            s.to_string(),
            "strike /etc/passwd by Pid(1) @2000ns: early by 500ns"
        );
    }
}

//! The kernel's one check→use window table and the commit stream that
//! feeds it.
//!
//! The paper's unit of analysis is the window a process opens on a name
//! between its *check* call and its *use* call. Three observers watch that
//! window: the EDGI [`defense`](crate::defense) denies a use whose window
//! was broken, the [`detector`](crate::detect) reports it, and
//! [`forensics`](crate::forensics) measures how close every strike came.
//! Each filesystem commit is classified once into an [`FsCommit`] and
//! applied here, to one table all three read:
//!
//! * a **check** (`stat`/`lstat`/`access` samples, `creat`, `open`, the
//!   into-place `rename`) opens or refreshes the window `(pid, path)` and
//!   clears its interposition — a fresh check re-establishes the invariant;
//! * a **mutation** (`creat`, `unlink`, `symlink`, `link`, `rename`) by a
//!   *different* process interposes on every window on the path (the
//!   first interposition is kept: it is the one that broke the invariant)
//!   and is a forensic *strike* against each of them;
//! * a **use** (`open`, `chmod`, `chown`) consumes the window: a detection
//!   iff it is interposed, and with EDGI armed a denial on the same rule.
//!
//! The table is kept whenever any of the three is on; each one's output
//! stays gated by its own [`MachineSpec`](crate::machine::MachineSpec)
//! flag or [`DefensePolicy`](crate::defense::DefensePolicy), so stripping
//! the detector leaves EDGI denying exactly as before.
//!
//! Windows live in one `Vec` in insertion order, scanned linearly: a round
//! opens a handful of windows, the hot operation is the attacker's stat
//! spin re-checking the same name thousands of times, and a pointer-fast
//! scan over a few entries beats hashing the pathname every time.

use crate::defense::DefenseState;
use crate::detect::DetectionEvent;
use crate::forensics::{ForensicsSnapshot, ForensicsState, WindowForensics, WindowForensicsMut};
use crate::ids::Pid;
use crate::machine::MachineSpec;
use std::sync::Arc;
use tocttou_core::taxonomy::FsCall;
use tocttou_sim::time::SimTime;
use tocttou_sim::trace::Trace;

/// The role a commit played on its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitClass {
    Check,
    Mutation,
    /// `denied`: EDGI refused the use (the detector still reports it).
    Use {
        denied: bool,
    },
}

/// One classified filesystem commit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FsCommit<'a> {
    pub pid: Pid,
    pub path: &'a Arc<str>,
    pub call: FsCall,
    pub class: CommitClass,
}

/// The first foreign namespace mutation that landed inside a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interposition {
    pub by: Pid,
    pub call: FsCall,
    pub at: SimTime,
}

/// One check→use window on `(owner, path)`.
#[derive(Debug)]
pub(crate) struct Window {
    pub owner: Pid,
    pub path: Arc<str>,
    /// The check that opened (or last refreshed) the window.
    pub check: FsCall,
    pub t_check: SimTime,
    /// The first foreign mutation since the check, if any.
    pub interposed: Option<Interposition>,
    /// Whether a use has consumed the window; `t_use` is the *last* use.
    pub used: bool,
    pub t_use: SimTime,
    /// Forensic strikes awaiting the window's next boundary (use → hit,
    /// re-check → early miss, exit or round end → late miss or unpaired).
    /// Only filled while forensics are on.
    pub strikes: Vec<(Pid, SimTime)>,
}

/// A strike that found no window to target; forensics pair it with the
/// next foreign check on the path, or it ends the round unpaired.
#[derive(Debug)]
pub(crate) struct PendingStrike {
    pub by: Pid,
    pub path: Arc<str>,
    pub t: SimTime,
}

/// Window identity: the common case re-checks the very same `Arc` the
/// process has been passing all round, so a pointer compare usually
/// settles it before the string compare runs.
pub(crate) fn same_path(a: &Arc<str>, b: &Arc<str>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// The window table and the three observers that read it.
#[derive(Debug, Default)]
pub(crate) struct RaceWindows {
    pub windows: Vec<Window>,
    pub pending: Vec<PendingStrike>,
    /// Whether the detector records into `detections`.
    detect: bool,
    pub detections: Trace<DetectionEvent>,
    pub defense: DefenseState,
    pub forensics: ForensicsState,
    /// Emptied `strikes` vectors of retired windows, handed to windows at
    /// their first strike so a struck window stops allocating every
    /// round (and an unstruck one holds none).
    spare_strikes: Vec<Vec<(Pid, SimTime)>>,
}

impl RaceWindows {
    /// Rearms everything for a fresh round on `spec`: no window, pending
    /// strike or detection can leak from the previous round, and the
    /// defense is off until [`set_defense`](crate::kernel::Kernel::set_defense).
    /// A retaining forensics accumulator first folds the finished round's
    /// leftovers (see [`ForensicsState::reset`]).
    pub fn reset(&mut self, spec: &MachineSpec) {
        self.forensics
            .reset(spec.forensics, spec.event_log, &self.windows, &self.pending);
        self.clear_windows();
        self.pending.clear();
        self.detect = spec.detect;
        self.detections.reset();
        self.detections.enable();
        self.defense = DefenseState::default();
    }

    /// Whether any observer needs the table kept up.
    #[inline]
    fn active(&self) -> bool {
        self.detect || self.forensics.enabled() || self.defense.enabled()
    }

    /// Empties the table, keeping the windows' strike vectors.
    fn clear_windows(&mut self) {
        for w in self.windows.drain(..) {
            retire_strikes(&mut self.spare_strikes, w.strikes);
        }
    }

    fn find(&self, pid: Pid, path: &Arc<str>) -> Option<usize> {
        self.windows
            .iter()
            .position(|w| w.owner == pid && same_path(&w.path, path))
    }

    /// EDGI's verdict on a use of `path` by `pid`: denied iff the policy is
    /// armed and the use's window was interposed since its check. A use
    /// without a prior check is allowed — the defense guards declared
    /// invariants, it does not invent them.
    pub fn edgi_denies(&mut self, pid: Pid, path: &Arc<str>) -> bool {
        let denied = self.defense.enabled()
            && self
                .find(pid, path)
                .is_some_and(|i| self.windows[i].interposed.is_some());
        if denied {
            self.defense.count_denial();
        }
        denied
    }

    /// Applies one commit to the table and hands it to each armed
    /// observer.
    pub fn commit(&mut self, c: FsCommit<'_>, now: SimTime) {
        if !self.active() {
            return;
        }
        let FsCommit {
            pid,
            path,
            call,
            class,
        } = c;
        match class {
            CommitClass::Check => {
                debug_assert!(call.can_check(), "{call} reported as a check");
                let w = match self.find(pid, path) {
                    Some(i) => &mut self.windows[i],
                    None => {
                        self.windows.push(Window {
                            owner: pid,
                            path: path.clone(),
                            check: call,
                            t_check: now,
                            interposed: None,
                            used: false,
                            t_use: SimTime::ZERO,
                            strikes: Vec::new(),
                        });
                        self.windows.last_mut().expect("just pushed")
                    }
                };
                self.forensics
                    .on_check(pid, path, &mut self.pending, &mut w.strikes, now);
                w.check = call;
                w.t_check = now;
                w.used = false;
                w.interposed = None;
            }
            CommitClass::Mutation => {
                let strike = self.forensics.enabled();
                let mut matched = false;
                for w in self
                    .windows
                    .iter_mut()
                    .filter(|w| w.owner != pid && same_path(&w.path, path))
                {
                    w.interposed.get_or_insert(Interposition {
                        by: pid,
                        call,
                        at: now,
                    });
                    if strike {
                        if w.strikes.capacity() == 0 {
                            w.strikes = self.spare_strikes.pop().unwrap_or_default();
                        }
                        w.strikes.push((pid, now));
                    }
                    matched = true;
                }
                if strike && !matched {
                    self.pending.push(PendingStrike {
                        by: pid,
                        path: path.clone(),
                        t: now,
                    });
                }
            }
            CommitClass::Use { denied } => {
                debug_assert!(call.can_use(), "{call} reported as a use");
                let Some(i) = self.find(pid, path) else {
                    return;
                };
                let w = &mut self.windows[i];
                if self.detect {
                    if let Some(event) = crate::detect::detection(w, call, now, denied) {
                        self.detections.record(now, event);
                    }
                }
                self.forensics.on_use(w, now);
            }
        }
    }

    /// Drops every window owned by an exiting process; forensics classify
    /// its waiting strikes.
    pub fn forget_process(&mut self, pid: Pid) {
        let (forensics, spare) = (&mut self.forensics, &mut self.spare_strikes);
        self.windows.retain_mut(|w| {
            if w.owner != pid {
                return true;
            }
            forensics.on_exit(w);
            retire_strikes(spare, std::mem::take(&mut w.strikes));
            false
        });
    }

    /// Snapshots the forensics (aggregate plus live leftovers) and clears
    /// them with the table, even when retaining.
    pub fn drain_forensics(&mut self) -> ForensicsSnapshot {
        let snap = self.forensics_view().snapshot();
        self.forensics.clear_data();
        self.clear_windows();
        self.pending.clear();
        snap
    }

    /// Read access to the forensics: the accounting plus the live windows
    /// it folds on the fly.
    pub fn forensics_view(&self) -> WindowForensics<'_> {
        WindowForensics {
            state: &self.forensics,
            windows: &self.windows,
            pending: &self.pending,
        }
    }

    /// Mutable forensics access, for the round-end flush.
    pub fn forensics_view_mut(&mut self) -> WindowForensicsMut<'_> {
        WindowForensicsMut {
            state: &mut self.forensics,
            windows: &mut self.windows,
            pending: &mut self.pending,
        }
    }
}

/// Keeps a retired window's strike vector for reuse, if it ever allocated.
fn retire_strikes(spare: &mut Vec<Vec<(Pid, SimTime)>>, mut strikes: Vec<(Pid, SimTime)>) {
    if strikes.capacity() > 0 {
        strikes.clear();
        spare.push(strikes);
    }
}

/// A kernel-free driver for the window table, shared by the observer unit
/// tests: each call reports one commit exactly as the kernel's commit arms
/// do (a use asks EDGI first, then reports itself as denied or not).
#[cfg(test)]
pub(crate) mod rig {
    use super::*;
    use crate::defense::DefensePolicy;

    pub(crate) fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    pub(crate) fn arc(s: &str) -> Arc<str> {
        s.into()
    }

    pub(crate) struct Rig {
        pub race: RaceWindows,
        pub spec: MachineSpec,
    }

    impl Rig {
        /// A table booted on `spec` with the defense `policy`.
        pub fn new(spec: MachineSpec, policy: DefensePolicy) -> Self {
            let mut race = RaceWindows::default();
            race.reset(&spec);
            race.defense = DefenseState::new(policy);
            Rig { race, spec }
        }

        /// Detector and forensics (with the event log) on, EDGI off.
        pub fn armed() -> Self {
            Self::new(MachineSpec::smp_xeon().with_event_log(), DefensePolicy::Off)
        }

        /// Only the detector on.
        pub fn detector() -> Self {
            Self::new(
                MachineSpec::smp_xeon().without_forensics(),
                DefensePolicy::Off,
            )
        }

        /// Only EDGI on.
        pub fn edgi() -> Self {
            Self::new(
                MachineSpec::smp_xeon()
                    .without_detector()
                    .without_forensics(),
                DefensePolicy::Edgi,
            )
        }

        /// Every observer off.
        pub fn stripped() -> Self {
            Self::new(
                MachineSpec::smp_xeon()
                    .without_detector()
                    .without_forensics(),
                DefensePolicy::Off,
            )
        }

        fn commit(
            &mut self,
            pid: Pid,
            path: &Arc<str>,
            call: FsCall,
            class: CommitClass,
            at: SimTime,
        ) {
            let c = FsCommit {
                pid,
                path,
                call,
                class,
            };
            self.race.commit(c, at);
        }

        pub fn check(&mut self, pid: Pid, path: &Arc<str>, call: FsCall, at: SimTime) {
            self.commit(pid, path, call, CommitClass::Check, at);
        }

        pub fn mutate(&mut self, pid: Pid, path: &Arc<str>, call: FsCall, at: SimTime) {
            self.commit(pid, path, call, CommitClass::Mutation, at);
        }

        /// Reports a use (asking EDGI first) and returns whether it was
        /// denied.
        pub fn use_(&mut self, pid: Pid, path: &Arc<str>, call: FsCall, at: SimTime) -> bool {
            let denied = self.race.edgi_denies(pid, path);
            self.commit(pid, path, call, CommitClass::Use { denied }, at);
            denied
        }

        pub fn exit(&mut self, pid: Pid) {
            self.race.forget_process(pid);
        }

        /// A fresh round on the same spec (the kernel's boot reset).
        pub fn reboot(&mut self) {
            let spec = self.spec.clone();
            self.race.reset(&spec);
        }

        pub fn detections(&self) -> Vec<DetectionEvent> {
            self.race
                .detections
                .iter()
                .map(|r| r.event.clone())
                .collect()
        }

        pub fn forensics(&self) -> WindowForensics<'_> {
            self.race.forensics_view()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rig::{arc, t, Rig};
    use super::*;
    use crate::defense::DefensePolicy;
    use proptest::prelude::*;
    use tocttou_core::taxonomy::TocttouPair;

    #[test]
    fn one_table_serves_every_observer_combination() {
        // The gating rule: the table is kept whenever any observer is on.
        let p = arc("/doc");
        for (mut rig, windows) in [
            (Rig::armed(), 1),
            (Rig::detector(), 1),
            (Rig::edgi(), 1),
            (Rig::stripped(), 0),
        ] {
            rig.check(Pid(0), &p, FsCall::Stat, t(1));
            assert_eq!(rig.race.windows.len(), windows);
        }
    }

    #[test]
    fn stripping_the_detector_leaves_edgi_denying() {
        let mut rig = Rig::edgi();
        let p = arc("/doc");
        rig.check(Pid(0), &p, FsCall::Creat, t(1));
        rig.mutate(Pid(1), &p, FsCall::Unlink, t(2));
        assert!(rig.use_(Pid(0), &p, FsCall::Chown, t(3)));
        assert!(rig.detections().is_empty(), "the detector is off");
        assert!(rig.forensics().snapshot().is_empty(), "forensics are off");
    }

    #[test]
    fn struck_windows_reuse_retired_strike_vectors() {
        let mut rig = Rig::armed();
        let p = arc("/doc");
        let strike_round = |rig: &mut Rig| {
            rig.check(Pid(0), &p, FsCall::Stat, t(1));
            rig.check(Pid(2), &p, FsCall::Stat, t(1));
            rig.mutate(Pid(1), &p, FsCall::Unlink, t(2));
            let ptrs: Vec<_> = rig
                .race
                .windows
                .iter()
                .map(|w| w.strikes.as_ptr())
                .collect();
            rig.exit(Pid(2));
            ptrs
        };
        let mut first = strike_round(&mut rig);
        assert_eq!(rig.race.spare_strikes.len(), 1, "exit retires its vector");
        rig.reboot();
        assert_eq!(rig.race.spare_strikes.len(), 2, "reset retires the rest");
        let mut second = strike_round(&mut rig);
        assert_eq!(rig.race.spare_strikes.len(), 1, "no new vector allocated");
        first.sort();
        second.sort();
        assert_eq!(first, second, "the same buffers serve the next round");
        rig.check(Pid(3), &p, FsCall::Stat, t(4));
        let fresh = rig.race.windows.last().expect("window opened");
        assert_eq!(fresh.strikes.capacity(), 0, "unstruck windows hold none");
    }

    /// One step of a random observer workload over 3 pids × 2 paths.
    #[derive(Debug, Clone)]
    enum Step {
        Check(u32, usize, FsCall),
        Mutate(u32, usize, FsCall),
        Use(u32, usize, FsCall),
        Exit(u32),
    }

    const CHECKS: [FsCall; 6] = [
        FsCall::Stat,
        FsCall::Lstat,
        FsCall::Access,
        FsCall::Creat,
        FsCall::Open,
        FsCall::Rename,
    ];
    const MUTATIONS: [FsCall; 5] = [
        FsCall::Creat,
        FsCall::Unlink,
        FsCall::Symlink,
        FsCall::Link,
        FsCall::Rename,
    ];
    const USES: [FsCall; 3] = [FsCall::Open, FsCall::Chmod, FsCall::Chown];

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u32..3, 0usize..2, 0usize..CHECKS.len())
                .prop_map(|(p, x, c)| Step::Check(p, x, CHECKS[c])),
            (0u32..3, 0usize..2, 0usize..MUTATIONS.len()).prop_map(|(p, x, c)| Step::Mutate(
                p,
                x,
                MUTATIONS[c]
            )),
            (0u32..3, 0usize..2, 0usize..USES.len()).prop_map(|(p, x, c)| Step::Use(p, x, USES[c])),
            (0u32..3).prop_map(Step::Exit),
        ]
    }

    /// The naive reference: per `(pid, path)`, the last check and the
    /// first foreign mutation after it, in a plain map.
    #[derive(Debug, Clone)]
    struct ModelWindow {
        check: FsCall,
        t_check: SimTime,
        first_foreign: Option<(Pid, FsCall, SimTime)>,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The shared table against a reference model that shares no code
        /// with it, checked after every step.
        #[test]
        fn table_matches_a_naive_reference_model(
            steps in proptest::collection::vec(step(), 1..60),
            edgi in any::<bool>(),
        ) {
            let policy = if edgi { DefensePolicy::Edgi } else { DefensePolicy::Off };
            let mut rig = Rig::new(MachineSpec::smp_xeon(), policy);
            let paths = [arc("/a"), arc("/b")];
            let mut model: std::collections::BTreeMap<(u32, usize), ModelWindow> =
                std::collections::BTreeMap::new();
            let mut strikes_expected = 0u64;
            let mut denials_expected = 0u64;
            for (i, s) in steps.iter().enumerate() {
                let at = t(i as u64 + 1);
                let before = rig.detections().len();
                match *s {
                    Step::Check(p, x, call) => {
                        rig.check(Pid(p), &paths[x], call, at);
                        model.insert((p, x), ModelWindow { check: call, t_check: at, first_foreign: None });
                    }
                    Step::Mutate(p, x, call) => {
                        rig.mutate(Pid(p), &paths[x], call, at);
                        let mut others = 0;
                        for (&(owner, path), w) in model.iter_mut() {
                            if owner != p && path == x {
                                others += 1;
                                if w.first_foreign.is_none() {
                                    w.first_foreign = Some((Pid(p), call, at));
                                }
                            }
                        }
                        strikes_expected += u64::max(1, others);
                    }
                    Step::Use(p, x, call) => {
                        let denied = rig.use_(Pid(p), &paths[x], call, at);
                        let raced = model.get(&(p, x)).and_then(|w| w.first_foreign.map(|f| (w.clone(), f)));
                        let detections = rig.detections();
                        prop_assert_eq!(detections.len(), before + usize::from(raced.is_some()), "step {}", i);
                        prop_assert_eq!(denied, edgi && raced.is_some(), "step {}", i);
                        denials_expected += u64::from(denied);
                        if let Some((w, (attacker, mutation, t_mutation))) = raced {
                            let e = &detections[before];
                            prop_assert_eq!(e.pair, TocttouPair::new(w.check, call).unwrap());
                            prop_assert_eq!(e.victim, Pid(p));
                            prop_assert_eq!(e.attacker, attacker);
                            prop_assert_eq!(e.mutation, mutation);
                            prop_assert_eq!(e.t_mutation, t_mutation);
                            prop_assert_eq!(e.t_check, w.t_check);
                            prop_assert_eq!(e.t_use, at);
                            prop_assert_eq!(&*e.path, &*paths[x]);
                            prop_assert_eq!(e.blocked, denied);
                        }
                    }
                    Step::Exit(p) => {
                        rig.exit(Pid(p));
                        model.retain(|&(owner, _), _| owner != p);
                    }
                }
                if !matches!(s, Step::Use(..)) {
                    prop_assert_eq!(rig.detections().len(), before, "only uses detect");
                }
                prop_assert_eq!(rig.race.defense.denials(), denials_expected);
                prop_assert_eq!(rig.race.windows.len(), model.len());
                prop_assert_eq!(
                    rig.forensics().snapshot().strikes_total(),
                    strikes_expected,
                    "step {}: every strike classified exactly once", i
                );
            }
            rig.race.forensics_view_mut().flush();
            prop_assert_eq!(rig.forensics().snapshot().strikes_total(), strikes_expected);
        }
    }
}

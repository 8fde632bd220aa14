//! An EDGI-style TOCTTOU defense (Event-Driven Guarding of Invariants).
//!
//! The paper's Section 8 surveys defenses and points to the authors' own
//! EDGI proposal [Pu & Wei, ISSSE '06]: guard the invariant a *check* call
//! establishes about a file name until the corresponding *use* call, and
//! abort the use if another principal invalidated the invariant in between.
//!
//! The invariant is the kernel's shared check→use window on `(P, X)`, the
//! one window table the detector and forensics read too:
//!
//! * a **check** commit (`stat`, `creat`, `open`, the into-place `rename`)
//!   by process *P* on path *X* opens or refreshes the window, clearing any
//!   violation;
//! * a **namespace mutation** of *X* (`unlink`, `symlink`, `link`,
//!   `creat`, `rename`) committed by a *different* process interposes on
//!   every window on *X*;
//! * a **use** commit (`chown`, `chmod`, `open`) by *P* on *X* whose window
//!   is interposed is denied with `EACCES` instead of being applied — the
//!   editor's save fails loudly, but `/etc/passwd` is never handed over.
//!   The violation persists across uses until *P* re-checks.
//!
//! This module holds only the policy and the denial count; windows are
//! dropped when their owning process exits.

/// Kernel-wide defense policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefensePolicy {
    /// No defense: the historical kernels the paper attacks.
    #[default]
    Off,
    /// EDGI-style invariant guarding.
    Edgi,
}

/// The defense policy and how many uses it has denied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseState {
    policy: DefensePolicy,
    denials: u64,
}

impl DefenseState {
    /// A fresh state with the given policy.
    pub fn new(policy: DefensePolicy) -> Self {
        DefenseState { policy, denials: 0 }
    }

    /// The active policy.
    pub fn policy(&self) -> DefensePolicy {
        self.policy
    }

    /// How many use calls the defense has denied.
    pub fn denials(&self) -> u64 {
        self.denials
    }

    /// Whether the defense needs the window table at all.
    pub fn enabled(&self) -> bool {
        self.policy != DefensePolicy::Off
    }

    pub(crate) fn count_denial(&mut self) {
        self.denials += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::ids::Pid;
    use crate::window::rig::{arc, t, Rig};
    use tocttou_core::taxonomy::FsCall;

    #[test]
    fn off_policy_is_free() {
        let mut d = Rig::stripped();
        let x = arc("/x");
        d.check(Pid(1), &x, FsCall::Stat, t(1));
        d.mutate(Pid(2), &x, FsCall::Unlink, t(2));
        assert!(!d.use_(Pid(1), &x, FsCall::Chown, t(3)));
        assert_eq!(d.race.windows.len(), 0);
        assert_eq!(d.race.defense.denials(), 0);
    }

    #[test]
    fn violated_guard_denies_every_use_until_recheck() {
        let mut d = Rig::edgi();
        let doc = arc("/doc");
        d.check(Pid(1), &doc, FsCall::Creat, t(1));
        d.mutate(Pid(2), &doc, FsCall::Unlink, t(2)); // the attacker's unlink
        assert!(d.use_(Pid(1), &doc, FsCall::Chmod, t(3)), "chmod denied");
        assert!(
            d.use_(Pid(1), &doc, FsCall::Chown, t(4)),
            "chown denied too"
        );
        assert_eq!(d.race.defense.denials(), 2);
        // Only a fresh check clears the violation.
        d.check(Pid(1), &doc, FsCall::Stat, t(5));
        assert!(!d.use_(Pid(1), &doc, FsCall::Chown, t(6)));
    }

    #[test]
    fn own_mutations_do_not_violate() {
        let mut d = Rig::edgi();
        let doc = arc("/doc");
        d.check(Pid(1), &doc, FsCall::Creat, t(1));
        d.mutate(Pid(1), &doc, FsCall::Rename, t(2)); // the victim's own rename
        assert!(!d.use_(Pid(1), &doc, FsCall::Chown, t(3)));
        assert_eq!(d.race.defense.denials(), 0);
    }

    #[test]
    fn unrelated_paths_unaffected() {
        let mut d = Rig::edgi();
        d.check(Pid(1), &arc("/doc"), FsCall::Stat, t(1));
        d.mutate(Pid(2), &arc("/other"), FsCall::Unlink, t(2));
        assert!(!d.use_(Pid(1), &arc("/doc"), FsCall::Chown, t(3)));
    }

    #[test]
    fn use_without_check_is_allowed() {
        let mut d = Rig::edgi();
        assert!(!d.use_(Pid(3), &arc("/anything"), FsCall::Open, t(1)));
    }

    #[test]
    fn exit_clears_guards() {
        let mut d = Rig::edgi();
        d.check(Pid(1), &arc("/a"), FsCall::Stat, t(1));
        d.check(Pid(1), &arc("/b"), FsCall::Stat, t(1));
        d.check(Pid(2), &arc("/c"), FsCall::Stat, t(1));
        d.exit(Pid(1));
        assert_eq!(d.race.windows.len(), 1);
    }

    #[test]
    fn recheck_resets_violation() {
        let mut d = Rig::edgi();
        let doc = arc("/doc");
        d.check(Pid(1), &doc, FsCall::Stat, t(1));
        d.mutate(Pid(2), &doc, FsCall::Unlink, t(2));
        // The victim re-checks (sees the new binding) before using.
        d.check(Pid(1), &doc, FsCall::Stat, t(3));
        assert!(
            !d.use_(Pid(1), &doc, FsCall::Chown, t(4)),
            "fresh invariant holds"
        );
    }
}

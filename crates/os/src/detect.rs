//! A passive, always-on TOCTTOU race detector.
//!
//! Where [`defense`](crate::defense) *enforces* check-use invariants (EDGI
//! denies the violated use), this module only *watches*: when a use
//! commits on a check→use window that another process's namespace
//! mutation interposed on, it emits a structured [`DetectionEvent`] into
//! the kernel's typed detection trace. The event names the `<check, use>`
//! pair from the paper's 224-pair taxonomy ([`tocttou_core::taxonomy`]),
//! both principals, the window `[t_check, t_use]`, and the first
//! interposed namespace mutation.
//!
//! The detector keeps no table of its own. It reads the kernel's one
//! window table, the same one EDGI and the
//! forensics read, so detection and enforcement always agree on what
//! constitutes a window: a use is reported iff EDGI would deny it, and with
//! EDGI active the denied use still emits, flagged
//! [`DetectionEvent::blocked`]. A window stays interposed across uses until
//! its owner re-checks (a save sequence issues several uses under one
//! invariant, and each consumes the same broken window).
//!
//! The kernel reports only **materialized** races: a use that the VFS
//! itself rejects (typically `ENOENT`, because the victim's call landed in
//! the attacker's unlink→symlink gap) consumed no stale binding — the race
//! denied the victim service but never acted on the broken invariant, so
//! no event is emitted. This is what keeps round-level precision against
//! attack-success ground truth near 1.0 instead of counting every
//! near-miss. The one exception is a use denied by the *defense*: EDGI
//! blocking a use is itself proof the window was consumed maliciously, so
//! the denial emits a `blocked` event.
//!
//! Detection is passive: it never alters scheduling, syscall results or
//! timing, so arming it cannot perturb the experiments it observes.

use crate::ids::Pid;
use crate::process::SyscallName;
use crate::window::Window;
use std::sync::Arc;
use tocttou_core::taxonomy::{FsCall, TocttouPair};
use tocttou_sim::time::SimTime;

/// One detected check-use race, emitted at the moment the use committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionEvent {
    /// The `<check, use>` pair from the taxonomy.
    pub pair: TocttouPair,
    /// The process whose window was raced (it issued check and use).
    pub victim: Pid,
    /// The process whose namespace mutation interposed.
    pub attacker: Pid,
    /// The contested pathname.
    pub path: Arc<str>,
    /// When the victim's check established the invariant.
    pub t_check: SimTime,
    /// When the victim's use consumed the (broken) invariant.
    pub t_use: SimTime,
    /// The interposed namespace mutation.
    pub mutation: FsCall,
    /// When the mutation committed.
    pub t_mutation: SimTime,
    /// Whether an active defense denied the use (the detector still saw
    /// the race; enforcement and observation agree on the window).
    pub blocked: bool,
}

impl DetectionEvent {
    /// Detection latency: time from the interposed mutation to the use
    /// commit that made the race observable.
    pub fn latency(&self) -> tocttou_sim::time::SimDuration {
        self.t_use.saturating_since(self.t_mutation)
    }
}

impl std::fmt::Display for DetectionEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} victim={} attacker={} check@{}ns {}@{}ns use@{}ns{}",
            self.pair,
            self.path,
            self.victim,
            self.attacker,
            self.t_check.as_nanos(),
            self.mutation,
            self.t_mutation.as_nanos(),
            self.t_use.as_nanos(),
            if self.blocked { " blocked" } else { "" },
        )
    }
}

/// Maps a kernel syscall onto the taxonomy call it embodies at a commit
/// point. `write`/`close`/`nanosleep` touch no pathname and have no
/// taxonomy role.
pub fn fs_call_of(name: SyscallName) -> Option<FsCall> {
    Some(match name {
        SyscallName::Stat => FsCall::Stat,
        SyscallName::Lstat => FsCall::Lstat,
        SyscallName::Access => FsCall::Access,
        SyscallName::OpenCreate => FsCall::Creat,
        SyscallName::Open => FsCall::Open,
        SyscallName::Unlink => FsCall::Unlink,
        SyscallName::Symlink => FsCall::Symlink,
        SyscallName::Rename => FsCall::Rename,
        SyscallName::Chmod => FsCall::Chmod,
        SyscallName::Chown => FsCall::Chown,
        SyscallName::Mkdir => FsCall::Mkdir,
        SyscallName::Readlink => FsCall::Readlink,
        SyscallName::Link => FsCall::Link,
        SyscallName::Write | SyscallName::Close | SyscallName::Sleep => return None,
    })
}

/// The detection a use commit by `use_call` raises on window `w`: one iff a
/// foreign mutation interposed since the window's check.
pub(crate) fn detection(
    w: &Window,
    use_call: FsCall,
    now: SimTime,
    blocked: bool,
) -> Option<DetectionEvent> {
    let ix = w.interposed?;
    Some(DetectionEvent {
        pair: TocttouPair::new(w.check, use_call)
            .expect("the kernel reports only taxonomy-valid roles"),
        victim: w.owner,
        attacker: ix.by,
        path: w.path.clone(),
        t_check: w.t_check,
        t_use: now,
        mutation: ix.call,
        t_mutation: ix.at,
        blocked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::rig::{arc, t, Rig};

    #[test]
    fn disabled_detector_is_silent_and_free() {
        let mut d = Rig::stripped();
        let p = arc("/doc");
        d.check(Pid(1), &p, FsCall::Creat, t(1));
        d.mutate(Pid(2), &p, FsCall::Unlink, t(2));
        d.use_(Pid(1), &p, FsCall::Chown, t(3));
        assert_eq!(d.race.windows.len(), 0);
        assert!(d.detections().is_empty());
        // With the table kept up for forensics, the detector stays silent.
        let mut f = Rig::new(
            crate::machine::MachineSpec::smp_xeon().without_detector(),
            crate::defense::DefensePolicy::Off,
        );
        f.check(Pid(1), &p, FsCall::Creat, t(1));
        f.mutate(Pid(2), &p, FsCall::Unlink, t(2));
        f.use_(Pid(1), &p, FsCall::Chown, t(3));
        assert_eq!(f.race.windows.len(), 1);
        assert!(f.detections().is_empty());
    }

    #[test]
    fn interposed_use_emits_the_vi_shaped_event() {
        let mut d = Rig::detector();
        let p = arc("/home/user/doc.txt");
        d.check(Pid(0), &p, FsCall::Creat, t(10));
        d.mutate(Pid(1), &p, FsCall::Unlink, t(20));
        d.mutate(Pid(1), &p, FsCall::Symlink, t(25));
        d.use_(Pid(0), &p, FsCall::Chown, t(40));
        let out = d.detections();
        assert_eq!(out.len(), 1);
        let e = &out[0];
        assert_eq!(
            e.pair,
            TocttouPair::new(FsCall::Creat, FsCall::Chown).unwrap()
        );
        assert_eq!(e.victim, Pid(0));
        assert_eq!(e.attacker, Pid(1));
        assert_eq!(e.t_check, t(10));
        assert_eq!(
            (e.mutation, e.t_mutation),
            (FsCall::Unlink, t(20)),
            "first interposition wins"
        );
        assert_eq!(e.t_use, t(40));
        assert!(!e.blocked);
        assert_eq!(e.latency(), tocttou_sim::time::SimDuration::from_micros(20));
    }

    #[test]
    fn link_alone_interposes_a_window() {
        let mut d = Rig::detector();
        let p = arc("/home/user/doc.txt");
        d.check(Pid(0), &p, FsCall::Stat, t(10));
        d.mutate(Pid(1), &p, FsCall::Link, t(20));
        d.use_(Pid(0), &p, FsCall::Open, t(30));
        let out = d.detections();
        assert_eq!(out.len(), 1);
        assert_eq!(
            (out[0].mutation, out[0].t_mutation),
            (FsCall::Link, t(20)),
            "a hardlink swap with no prior unlink reports the link itself"
        );
    }

    #[test]
    fn own_mutations_never_interpose() {
        let mut d = Rig::detector();
        let p = arc("/doc");
        d.check(Pid(1), &p, FsCall::Rename, t(1));
        d.mutate(Pid(1), &p, FsCall::Rename, t(2));
        d.use_(Pid(1), &p, FsCall::Chmod, t(3));
        assert!(d.detections().is_empty());
    }

    #[test]
    fn recheck_clears_the_interposition() {
        let mut d = Rig::detector();
        let p = arc("/doc");
        d.check(Pid(1), &p, FsCall::Stat, t(1));
        d.mutate(Pid(2), &p, FsCall::Unlink, t(2));
        d.check(Pid(1), &p, FsCall::Stat, t(3));
        d.use_(Pid(1), &p, FsCall::Open, t(4));
        assert!(d.detections().is_empty(), "fresh invariant holds");
    }

    #[test]
    fn window_stays_broken_across_uses_until_recheck() {
        let mut d = Rig::detector();
        let p = arc("/doc");
        d.check(Pid(1), &p, FsCall::Rename, t(1));
        d.mutate(Pid(2), &p, FsCall::Symlink, t(2));
        d.use_(Pid(1), &p, FsCall::Chmod, t(3));
        d.use_(Pid(1), &p, FsCall::Chown, t(4));
        assert_eq!(
            d.detections().len(),
            2,
            "chmod and chown both consume the window"
        );
    }

    #[test]
    fn use_without_window_or_on_other_path_is_silent() {
        let mut d = Rig::detector();
        d.use_(Pid(1), &arc("/nowhere"), FsCall::Chown, t(1));
        d.check(Pid(1), &arc("/doc"), FsCall::Stat, t(2));
        d.mutate(Pid(2), &arc("/other"), FsCall::Unlink, t(3));
        d.use_(Pid(1), &arc("/doc"), FsCall::Open, t(4));
        assert!(d.detections().is_empty());
    }

    #[test]
    fn exit_clears_windows() {
        let mut d = Rig::detector();
        d.check(Pid(1), &arc("/a"), FsCall::Stat, t(1));
        d.check(Pid(1), &arc("/b"), FsCall::Stat, t(1));
        d.check(Pid(2), &arc("/c"), FsCall::Stat, t(1));
        d.exit(Pid(1));
        assert_eq!(d.race.windows.len(), 1);
    }

    #[test]
    fn blocked_uses_are_flagged() {
        let mut d = Rig::new(
            crate::machine::MachineSpec::smp_xeon(),
            crate::defense::DefensePolicy::Edgi,
        );
        let p = arc("/doc");
        d.check(Pid(1), &p, FsCall::Creat, t(1));
        d.mutate(Pid(2), &p, FsCall::Unlink, t(2));
        assert!(d.use_(Pid(1), &p, FsCall::Chown, t(3)));
        let e = &d.detections()[0];
        assert!(e.blocked);
        assert!(e.to_string().contains("blocked"), "{e}");
    }

    #[test]
    fn fs_call_mapping_covers_every_pathful_syscall() {
        assert_eq!(fs_call_of(SyscallName::Stat), Some(FsCall::Stat));
        assert_eq!(fs_call_of(SyscallName::Lstat), Some(FsCall::Lstat));
        assert_eq!(fs_call_of(SyscallName::Access), Some(FsCall::Access));
        assert_eq!(fs_call_of(SyscallName::OpenCreate), Some(FsCall::Creat));
        assert_eq!(fs_call_of(SyscallName::Open), Some(FsCall::Open));
        assert_eq!(fs_call_of(SyscallName::Rename), Some(FsCall::Rename));
        assert_eq!(fs_call_of(SyscallName::Link), Some(FsCall::Link));
        assert_eq!(fs_call_of(SyscallName::Write), None);
        assert_eq!(fs_call_of(SyscallName::Sleep), None);
    }

    #[test]
    fn display_form_is_grep_friendly() {
        let e = DetectionEvent {
            pair: TocttouPair::vi(),
            victim: Pid(0),
            attacker: Pid(1),
            path: arc("/etc/passwd"),
            t_check: t(1),
            t_use: t(3),
            mutation: FsCall::Unlink,
            t_mutation: t(2),
            blocked: false,
        };
        let s = e.to_string();
        assert!(s.contains("<open, chown>"), "{s}");
        assert!(s.contains("/etc/passwd"), "{s}");
        assert!(s.contains("unlink@2000ns"), "{s}");
    }
}

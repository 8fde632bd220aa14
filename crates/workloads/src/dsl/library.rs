//! The workload library: [`ScenarioSpec`] constructors for the paper's
//! programs and for victims across its `<check, use>` cross product.
//!
//! Three groups live here:
//!
//! * **The paper's scenarios** — vi's and gedit's save sequences
//!   ([`vi_save`], [`gedit_save`]), attackers v1 and v2
//!   ([`attacker_v1`], [`attacker_v2`]), the hardlink swap and the
//!   pipelined pair ([`pipelined`]), bundled into the specs behind every
//!   `Scenario::*` constructor ([`vi_smp_spec`], [`gedit_smp_spec`], …).
//!   `tests/golden/scenarios.txt` pins them to the outputs of the
//!   hand-written state machines they replaced.
//! * **New victims** — ten scenarios spanning nine distinct taxonomy
//!   pairs (eight beyond the paper's set): tempfile/logrotate races,
//!   a recursive-chown walk, defensive sweepers, maildrop and installer
//!   patterns, a mktemp reopen, a socket-style bind race, and
//!   multi-attacker interference variants. Each is ~20 lines of spec and
//!   plugs into `run_sweep`, the checkpoint engine, and the detector
//!   ground-truth harness unmodified.
//! * **Victims on hand-built kernels** — step lists with no scenario
//!   around them, spawned through `DslVictim::new`: rpm's install
//!   ([`rpm_install`]), sendmail's delivery ([`sendmail_deliver`]) and the
//!   generic check→window→use victim of the `pairs` exhibit
//!   ([`pair_victim`]). `tests/golden/victims.txt` pins them to the
//!   hand-written programs they replaced.
//!
//! ## Ground-truth construction
//!
//! Every new victim *guards* its check (`Expect::UidIs`/`NotSymlink`/
//! `Succeeds`) the way real defensive code does. The guard is what makes
//! per-round ground truth exact: a strike landing **before** the check is
//! seen by the check itself (the followed `stat` reports the planted
//! root-owned file), so the victim aborts — no use, no success, no
//! detection. A strike landing **inside** the window yields both the
//! success predicate and a kernel detection; one landing **after** the
//! use is harmless and silent. Timer-triggered attackers get their
//! round-to-round spread from the victim's sampled editing prologue.

use super::{AttackerProfile, Expect, FileSpec, ScenarioSpec, Step, SuccessRule, Trigger};
use crate::scenario::Layout;
use std::sync::Arc;
use tocttou_core::taxonomy::{FsCall, TocttouPair};
use tocttou_os::ids::{Gid, Uid};
use tocttou_os::machine::MachineSpec;
use tocttou_os::process::SyscallRequest;
use tocttou_sim::dist::DurationDist;
use tocttou_sim::time::SimDuration;

fn pair(check: FsCall, use_call: FsCall) -> TocttouPair {
    TocttouPair::new(check, use_call).expect("library pairs are well-formed")
}

fn us(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

/// The editing prologue every SMP victim starts with: uniform over
/// 0–200 µs. This is the round's randomizer — timer attackers strike at a
/// fixed offset and hit a sliding window.
fn prologue() -> DurationDist {
    DurationDist::uniform_us(0.0, 200.0)
}

/// The uniprocessor prologue: uniform over a full time slice, so the save
/// starts at a uniformly random slice phase — the laxity term of the
/// paper's Formula (1).
fn slice_prologue(machine: &MachineSpec) -> DurationDist {
    DurationDist::uniform_us(0.0, machine.timeslice.as_micros_f64())
}

/// A cold attacker with no rehearsal and no flag: `trigger` watching
/// `watch`, then `strike`. `gaps` are the start delay, loop gap and check
/// gap.
fn attacker(
    name: &str,
    trigger: Trigger,
    watch: &Arc<str>,
    strike: Arc<[SyscallRequest]>,
    [start_delay, loop_gap, check_gap]: [SimDuration; 3],
    jitter_us: f64,
) -> AttackerProfile {
    AttackerProfile {
        name: name.into(),
        pretouch: false,
        watch: watch.clone(),
        trigger,
        strike,
        rehearsal: None,
        raises_flag: false,
        start_delay,
        loop_gap,
        check_gap,
        jitter_us,
    }
}

/// A timer-triggered attacker striking `target` with the symlink swap at
/// `start + N(check, jitter)` microseconds into the round.
fn timer_symlinker(
    layout: &Layout,
    target: &Arc<str>,
    start_us: u64,
    check_us: u64,
    jitter_us: f64,
) -> AttackerProfile {
    let strike = AttackerProfile::symlink_strike(target, &layout.passwd.as_str().into());
    let gaps = [us(start_us), us(1), us(check_us)];
    attacker(
        "attacker-timer",
        Trigger::Timer,
        target,
        strike,
        gaps,
        jitter_us,
    )
}

/// A detect-loop (window-watching) symlink attacker with its own name and
/// loop timing.
fn watching_symlinker(
    name: &str,
    layout: &Layout,
    target: &Arc<str>,
    [loop_us, check_us, start_us]: [u64; 3],
) -> AttackerProfile {
    let strike = AttackerProfile::symlink_strike(target, &layout.passwd.as_str().into());
    let gaps = [us(start_us), us(loop_us), us(check_us)];
    attacker(name, Trigger::RootOwned, target, strike, gaps, 1.0)
}

fn base_spec(
    name: String,
    victim_name: &str,
    pair: TocttouPair,
    steps: Vec<Step>,
    success: SuccessRule,
) -> ScenarioSpec {
    ScenarioSpec {
        name,
        machine: MachineSpec::smp_xeon(),
        layout: Layout::default(),
        pair,
        victim_name: victim_name.into(),
        steps,
        doc_size: 0,
        extra_files: vec![],
        attackers: vec![],
        success,
        max_round: SimDuration::from_secs(2),
    }
}

// ---- the paper's programs -----------------------------------------------

/// vi 6.1's save sequence (Figure 1, Section 2.1), run as root on
/// `layout`'s user-owned document: rename the original to the backup
/// name, `creat` a new file under the original name — **owned by root** —
/// write the buffer to it, close it, and `chown` it back to the user.
///
/// `creat` through `chown` is the `<creat, chown>` window. The write
/// dominates it, which is why Figures 6 and 7 depend on file size. The
/// gaps are calibrated to Table 1 (a 1-byte save yields L ≈ 62 µs on the
/// SMP profile).
pub fn vi_save(layout: &Layout, file_size: u64, prologue: DurationDist) -> Vec<Step> {
    let doc: Arc<str> = layout.doc.as_str().into();
    vec![
        Step::Think(prologue),
        Step::call(SyscallRequest::Rename {
            from: doc.clone(),
            to: layout.backup.as_str().into(),
        }),
        Step::gap_us(10, 2.0),
        Step::call(SyscallRequest::OpenCreate { path: doc.clone() }),
        Step::write(file_size, 64 * 1024),
        Step::gap_us(10, 2.0),
        Step::Close,
        Step::gap_us(76, 2.0),
        Step::call(SyscallRequest::Chown {
            path: doc,
            uid: layout.attacker.0,
            gid: layout.attacker.1,
        }),
    ]
}

/// gedit 2.8.3's save sequence (Figure 3, Section 2.2), run as root on
/// `layout`'s user-owned document: write the buffer to a root-created
/// scratch file, back up the original, `rename` the scratch file onto the
/// original name, then `chmod` and `chown` it back.
///
/// The `<rename, chown>` window does **not** contain the write, so it is
/// tens of microseconds long whatever the file size — unattackable on a
/// uniprocessor (Section 4.2), yet up to 83 % attackable on the SMP
/// (Section 6.1). The decisive parameter is the `rename`→`chmod` gap:
/// 43 µs on the SMP testbed, 3 µs on the multi-core (Section 6.2.1).
pub fn gedit_save(
    layout: &Layout,
    file_size: u64,
    prologue: DurationDist,
    rename_chmod_us: u64,
) -> Vec<Step> {
    let doc: Arc<str> = layout.doc.as_str().into();
    let temp: Arc<str> = layout.temp.as_str().into();
    vec![
        Step::Think(prologue),
        Step::call(SyscallRequest::OpenCreate { path: temp.clone() }),
        Step::write(file_size, 64 * 1024),
        Step::gap_us(10, 1.0),
        Step::Close,
        Step::gap_us(10, 1.0),
        Step::call(SyscallRequest::Rename {
            from: doc.clone(),
            to: layout.backup.as_str().into(),
        }),
        Step::gap_us(10, 1.0),
        Step::call(SyscallRequest::Rename {
            from: temp,
            to: doc.clone(),
        }),
        Step::gap_us(rename_chmod_us, 1.0),
        Step::call(SyscallRequest::Chmod {
            path: doc.clone(),
            mode: 0o644,
        }),
        Step::gap_us(1, 1.0),
        Step::call(SyscallRequest::Chown {
            path: doc,
            uid: layout.attacker.0,
            gid: layout.attacker.1,
        }),
    ]
}

/// Attacker v1 (Figures 2 and 4): spin on `stat(target)`; when it reports
/// a root-owned regular file, `unlink` the target and `symlink` the
/// privileged file in its place. Spawned cold, so its first `unlink`
/// traps on a libc page inside the window (Section 6.2.1).
///
/// The gaps are the vi-on-SMP calibration (Table 1: D ≈ 41 µs); the other
/// machines' scenarios override `loop_gap` and `check_gap`.
pub fn attacker_v1(target: &Arc<str>, privileged: &Arc<str>) -> AttackerProfile {
    let strike = AttackerProfile::symlink_strike(target, privileged);
    let gaps = [us(1), us(33), us(2)];
    attacker("attacker-v1", Trigger::RootOwned, target, strike, gaps, 1.0)
}

/// Attacker v2 (Figure 9) against `layout`'s document: v1 that rehearses
/// its `unlink`/`symlink` on `layout.dummy` on every negative `stat`, so
/// the libc pages are warm when the window opens and only the file name
/// switches (Section 6.2.2). Multi-core gaps: 2 µs loop, 1.5 µs
/// stat→`unlink` (Figure 10).
pub fn attacker_v2(layout: &Layout) -> AttackerProfile {
    let doc: Arc<str> = layout.doc.as_str().into();
    let privileged: Arc<str> = layout.passwd.as_str().into();
    let strike = AttackerProfile::symlink_strike(&doc, &privileged);
    let gaps = [us(1), us(2), SimDuration::from_nanos(1_500)];
    AttackerProfile {
        rehearsal: Some(AttackerProfile::symlink_strike(
            &layout.dummy.as_str().into(),
            &privileged,
        )),
        ..attacker("attacker-v2", Trigger::RootOwned, &doc, strike, gaps, 1.0)
    }
}

/// Section 7's pipelined attacker, split from the detect-loop attacker
/// `v`. Thread 1 keeps `v`'s detection loop and its first strike call
/// (`unlink`), and raises the shared flag on detection. Thread 2 polls the
/// flag every `poll_gap` and issues the rest of the strike (`symlink`),
/// retrying on `EEXIST`, so it lands right after the detach and overlaps
/// the `unlink`'s truncation tail. Both threads run with warm libc pages:
/// Section 7 builds on v2's insight.
pub fn pipelined(v: &AttackerProfile, poll_gap: SimDuration) -> Vec<AttackerProfile> {
    let gaps = [v.start_delay, v.loop_gap, v.check_gap];
    let detector = attacker(
        "attacker-detect",
        v.trigger,
        &v.watch,
        v.strike[..1].into(),
        gaps,
        v.jitter_us,
    );
    let poll = [SimDuration::ZERO, poll_gap, SimDuration::ZERO];
    let linker = attacker(
        "attacker-link",
        Trigger::Flag,
        &v.watch,
        v.strike[1..].into(),
        poll,
        0.0,
    );
    vec![
        AttackerProfile {
            pretouch: true,
            raises_flag: true,
            ..detector
        },
        AttackerProfile {
            pretouch: true,
            ..linker
        },
    ]
}

/// A [`pipelined`] pair folded back into one cold v1 process: the
/// sequential control of Figure 11.
pub fn sequential(detector: &AttackerProfile, linker: &AttackerProfile) -> AttackerProfile {
    let strike = detector
        .strike
        .iter()
        .chain(linker.strike.iter())
        .cloned()
        .collect();
    let gaps = [detector.start_delay, detector.loop_gap, detector.check_gap];
    attacker(
        "attacker-v1",
        detector.trigger,
        &detector.watch,
        strike,
        gaps,
        detector.jitter_us,
    )
}

/// A vi save on `machine` against attacker v1.
fn vi_spec(
    name: String,
    machine: MachineSpec,
    layout: Layout,
    file_size: u64,
    prologue: DurationDist,
) -> ScenarioSpec {
    let doc: Arc<str> = layout.doc.as_str().into();
    let privileged: Arc<str> = layout.passwd.as_str().into();
    ScenarioSpec {
        name,
        machine,
        pair: pair(FsCall::Creat, FsCall::Chown),
        victim_name: "vi".into(),
        steps: vi_save(&layout, file_size, prologue),
        doc_size: file_size,
        extra_files: vec![],
        attackers: vec![attacker_v1(&doc, &privileged)],
        success: SuccessRule::AttackerOwnsPrivileged,
        max_round: SimDuration::from_secs(2),
        layout,
    }
}

/// A gedit save on `machine` against the attacker `attacker` builds for
/// the layout.
fn gedit_spec(
    name: String,
    machine: MachineSpec,
    prologue: DurationDist,
    rename_chmod_us: u64,
    file_size: u64,
    attacker: impl FnOnce(&Layout) -> AttackerProfile,
) -> ScenarioSpec {
    let layout = Layout::default();
    ScenarioSpec {
        name,
        machine,
        pair: pair(FsCall::Rename, FsCall::Chown),
        victim_name: "gedit".into(),
        steps: gedit_save(&layout, file_size, prologue, rename_chmod_us),
        doc_size: file_size,
        extra_files: vec![],
        attackers: vec![attacker(&layout)],
        success: SuccessRule::AttackerOwnsPrivileged,
        max_round: SimDuration::from_secs(2),
        layout,
    }
}

/// v1 with gedit's timing on `layout`'s document: Table 2's D ≈ 33 µs on
/// the SMP (`[25, 12]`), or the 11 µs check of Figure 8 on the multi-core
/// (`[12, 11]`).
fn gedit_attacker_v1(layout: &Layout, [loop_us, check_us]: [u64; 2]) -> AttackerProfile {
    let doc = layout.doc.as_str().into();
    watching_symlinker("attacker-v1", layout, &doc, [loop_us, check_us, 1])
}

/// Section 4.1 / Figure 6: vi on the uniprocessor. The editing prologue
/// is uniform over a full time slice so the save starts at a random slice
/// phase.
pub fn vi_uniprocessor_spec(file_size: u64) -> ScenarioSpec {
    vi_uniprocessor_on(Layout::default(), file_size)
}

/// [`vi_uniprocessor_spec`] on a custom layout (the maze variant moves the
/// document deep below the home directory).
pub(crate) fn vi_uniprocessor_on(layout: Layout, file_size: u64) -> ScenarioSpec {
    let machine = MachineSpec::uniprocessor();
    let prologue = slice_prologue(&machine);
    vi_spec(
        format!("vi-uniprocessor-{}B", file_size),
        machine,
        layout,
        file_size,
        prologue,
    )
}

/// Section 5 / Figure 7 / Table 1: vi on the 2-way SMP.
pub fn vi_smp_spec(file_size: u64) -> ScenarioSpec {
    vi_spec(
        format!("vi-smp-{}B", file_size),
        MachineSpec::smp_xeon(),
        Layout::default(),
        file_size,
        prologue(),
    )
}

/// The hardlink-swap attack: vi on the 2-way SMP with the attacker
/// planting a **hard link** to `/etc/passwd` instead of a symlink.
///
/// Same detection loop and window as [`vi_smp_spec`], but the planted
/// name *is* the privileged inode — `stat` on it reports a root-owned
/// regular file with `nlink = 2`, and the victim's `chown` lands on
/// `/etc/passwd` without traversing any link. This is the classic bypass
/// of symlink-only TOCTTOU countermeasures; the detector still sees it
/// through the `link` namespace mutation.
pub fn hardlink_vi_smp_spec(file_size: u64) -> ScenarioSpec {
    let mut spec = vi_smp_spec(file_size);
    spec.name = format!("vi-hardlink-smp-{}B", file_size);
    let atk = &mut spec.attackers[0];
    atk.name = "attacker-hardlink".into();
    atk.strike = AttackerProfile::hardlink_strike(&atk.watch, &spec.layout.passwd.as_str().into());
    spec
}

/// Section 4.2: gedit on the uniprocessor (the no-success baseline).
pub fn gedit_uniprocessor_spec(file_size: u64) -> ScenarioSpec {
    let machine = MachineSpec::uniprocessor();
    let prologue = slice_prologue(&machine);
    gedit_spec(
        format!("gedit-uniprocessor-{}B", file_size),
        machine,
        prologue,
        43,
        file_size,
        |layout| gedit_attacker_v1(layout, [25, 12]),
    )
}

/// Section 6.1 / Table 2: gedit on the 2-way SMP (43 µs rename→chmod gap;
/// observed success ≈ 83 %).
pub fn gedit_smp_spec(file_size: u64) -> ScenarioSpec {
    gedit_spec(
        format!("gedit-smp-{}B", file_size),
        MachineSpec::smp_xeon(),
        prologue(),
        43,
        file_size,
        |layout| gedit_attacker_v1(layout, [25, 12]),
    )
}

/// The multi-core machine of Section 6.2. Its event analyses (Figures 8
/// and 10) show a ~55 µs rename on this machine and filesystem, with the
/// new name observable only late in the call (Figure 10's detecting stat
/// starts 27 µs in and samples near the rename's end).
fn multicore_gedit_machine() -> MachineSpec {
    let mut machine = MachineSpec::multicore_pentium_d();
    machine.costs.rename_us = 55.0;
    machine.costs.rename_visible_frac = 0.88;
    machine
}

/// Section 6.2.1 / Figure 8: gedit on the multi-core with attacker v1
/// (3 µs victim gap vs 17 µs attacker gap: near-certain failure).
pub fn gedit_multicore_v1_spec(file_size: u64) -> ScenarioSpec {
    gedit_spec(
        format!("gedit-multicore-v1-{}B", file_size),
        multicore_gedit_machine(),
        prologue(),
        3,
        file_size,
        |layout| gedit_attacker_v1(layout, [12, 11]),
    )
}

/// Section 6.2.2 / Figures 9–10: gedit on the multi-core with the
/// improved attacker v2 ("we begin to see many successes").
pub fn gedit_multicore_v2_spec(file_size: u64) -> ScenarioSpec {
    gedit_spec(
        format!("gedit-multicore-v2-{}B", file_size),
        multicore_gedit_machine(),
        prologue(),
        3,
        file_size,
        attacker_v2,
    )
}

/// Section 7 / Figure 11: the pipelined two-thread attacker against a vi
/// save of the given size on the multi-core (the long unlink truncation
/// tail is what the second thread overlaps).
pub fn pipelined_attack_spec(file_size: u64) -> ScenarioSpec {
    let mut spec = vi_spec(
        format!("pipelined-{}B", file_size),
        MachineSpec::multicore_pentium_d(),
        Layout::default(),
        file_size,
        prologue(),
    );
    spec.attackers = pipelined(&spec.attackers[0], us(1));
    spec
}

/// The same attack as [`pipelined_attack_spec`] with the normal
/// sequential attacker, for the Figure 11 comparison.
pub fn sequential_attack_spec(file_size: u64) -> ScenarioSpec {
    vi_spec(
        format!("sequential-{}B", file_size),
        MachineSpec::multicore_pentium_d(),
        Layout::default(),
        file_size,
        prologue(),
    )
}

// ---- new taxonomy scenarios ---------------------------------------------

/// `<stat, open>` — the classic tempfile/logrotate race: a root daemon
/// stats its spool file ("still the user's?") then reopens and appends to
/// it. The attacker swaps in a symlink between the two, redirecting the
/// append into `/etc/passwd`.
pub fn tmp_logrotate(file_size: u64) -> ScenarioSpec {
    let spool: Arc<str> = "/home/user/spool.log".into();
    let mut spec = base_spec(
        format!("tmp-logrotate-{}B", file_size),
        "logrotate",
        pair(FsCall::Stat, FsCall::Open),
        vec![
            Step::Think(prologue()),
            Step::guarded(
                SyscallRequest::Stat {
                    path: spool.clone(),
                },
                Expect::UidIs(1000),
            ),
            Step::gap_us(80, 2.0),
            Step::guarded(
                SyscallRequest::Open {
                    path: spool.clone(),
                },
                Expect::Succeeds,
            ),
            Step::write(512, 512),
            Step::gap_us(10, 1.0),
            Step::Close,
        ],
        SuccessRule::PrivilegedGrewBy(512),
    );
    spec.extra_files = vec![FileSpec::user_file(spool.as_ref(), file_size)];
    spec.attackers = vec![timer_symlinker(&spec.layout, &spool, 120, 20, 8.0)];
    spec
}

/// `<stat, chown>` — a recursive-chown walk (`chown -R`-style cleanup):
/// root walks an attacker-owned package tree stat'ing each entry, then
/// chowns the leaf back to the user. Swapping the leaf for a symlink makes
/// the chown land on `/etc/passwd` — handing it to the attacker.
pub fn chown_walk(file_size: u64) -> ScenarioSpec {
    let data: Arc<str> = "/home/user/pkg/sub/data".into();
    let mut spec = base_spec(
        format!("chown-walk-{}B", file_size),
        "chown-r",
        pair(FsCall::Stat, FsCall::Chown),
        vec![
            Step::Think(prologue()),
            Step::guarded(
                SyscallRequest::Stat {
                    path: "/home/user/pkg".into(),
                },
                Expect::UidIs(1000),
            ),
            Step::gap_us(10, 1.0),
            Step::guarded(
                SyscallRequest::Stat {
                    path: "/home/user/pkg/sub".into(),
                },
                Expect::UidIs(1000),
            ),
            Step::gap_us(10, 1.0),
            Step::guarded(
                SyscallRequest::Stat { path: data.clone() },
                Expect::UidIs(1000),
            ),
            Step::gap_us(90, 2.0),
            Step::call(SyscallRequest::Chown {
                path: data.clone(),
                uid: Uid(1000),
                gid: Gid(1000),
            }),
        ],
        SuccessRule::AttackerOwnsPrivileged,
    );
    spec.extra_files = vec![
        FileSpec::user_dir("/home/user/pkg"),
        FileSpec::user_dir("/home/user/pkg/sub"),
        FileSpec::user_file(data.as_ref(), file_size),
    ];
    spec.attackers = vec![timer_symlinker(&spec.layout, &data, 150, 20, 8.0)];
    spec
}

/// `<stat, chmod>` — a tmp-sweeper tightening permissions: root stats a
/// cache file it believes is the user's, then chmods it 0600. Through a
/// planted symlink the chmod clobbers `/etc/passwd`'s mode instead.
pub fn tmp_sweeper(file_size: u64) -> ScenarioSpec {
    let cache: Arc<str> = "/home/user/.cache.tmp".into();
    let mut spec = base_spec(
        format!("tmp-sweeper-{}B", file_size),
        "tmp-sweeper",
        pair(FsCall::Stat, FsCall::Chmod),
        vec![
            Step::Think(prologue()),
            Step::guarded(
                SyscallRequest::Stat {
                    path: cache.clone(),
                },
                Expect::UidIs(1000),
            ),
            Step::gap_us(90, 2.0),
            Step::call(SyscallRequest::Chmod {
                path: cache.clone(),
                mode: 0o600,
            }),
        ],
        SuccessRule::PrivilegedModeIs(0o600),
    );
    spec.extra_files = vec![FileSpec::user_file(cache.as_ref(), file_size)];
    spec.attackers = vec![timer_symlinker(&spec.layout, &cache, 130, 20, 8.0)];
    spec
}

/// `<lstat, open>` — the maildrop pattern (local delivery agent): lstat
/// the mailbox to refuse symlinks, then open and append. The attacker
/// swaps the mailbox between the lstat and the open.
pub fn maildrop(file_size: u64) -> ScenarioSpec {
    let mbox: Arc<str> = "/home/user/mbox".into();
    let mut spec = base_spec(
        format!("maildrop-{}B", file_size),
        "maildrop",
        pair(FsCall::Lstat, FsCall::Open),
        vec![
            Step::Think(prologue()),
            Step::guarded(
                SyscallRequest::Lstat { path: mbox.clone() },
                Expect::NotSymlink,
            ),
            Step::gap_us(85, 2.0),
            Step::guarded(
                SyscallRequest::Open { path: mbox.clone() },
                Expect::Succeeds,
            ),
            Step::write(256, 256),
            Step::gap_us(10, 1.0),
            Step::Close,
        ],
        SuccessRule::PrivilegedGrewBy(256),
    );
    spec.extra_files = vec![FileSpec::user_file(mbox.as_ref(), file_size)];
    spec.attackers = vec![timer_symlinker(&spec.layout, &mbox, 125, 20, 8.0)];
    spec
}

/// `<access, open>` — the sendmail-era pattern: `access(2)` to check the
/// real uid may touch the file, then open it. The canonical TOCTTOU pair
/// from the paper's Section 3 taxonomy discussion.
pub fn installer_read(file_size: u64) -> ScenarioSpec {
    let conf: Arc<str> = "/home/user/tool.conf".into();
    let mut spec = base_spec(
        format!("installer-read-{}B", file_size),
        "installer",
        pair(FsCall::Access, FsCall::Open),
        vec![
            Step::Think(prologue()),
            Step::guarded(
                SyscallRequest::Access { path: conf.clone() },
                Expect::UidIs(1000),
            ),
            Step::gap_us(85, 2.0),
            Step::guarded(
                SyscallRequest::Open { path: conf.clone() },
                Expect::Succeeds,
            ),
            Step::write(128, 128),
            Step::gap_us(10, 1.0),
            Step::Close,
        ],
        SuccessRule::PrivilegedGrewBy(128),
    );
    spec.extra_files = vec![FileSpec::user_file(conf.as_ref(), file_size)];
    spec.attackers = vec![timer_symlinker(&spec.layout, &conf, 125, 20, 8.0)];
    spec
}

/// `<access, chown>` — a multi-step installer: stage a payload under a
/// fresh directory (`mkdir` + `creat` + write + `close`), then check the
/// install target with `access` and chown it to the requesting user. The
/// check-to-chown gap is the window.
pub fn pkg_installer(file_size: u64) -> ScenarioSpec {
    let tool: Arc<str> = "/home/user/tool".into();
    let mut spec = base_spec(
        format!("pkg-installer-{}B", file_size),
        "pkg-install",
        pair(FsCall::Access, FsCall::Chown),
        vec![
            Step::Think(prologue()),
            Step::call(SyscallRequest::Mkdir {
                path: "/home/user/.staging".into(),
            }),
            Step::gap_us(10, 1.0),
            Step::call(SyscallRequest::OpenCreate {
                path: "/home/user/.staging/payload".into(),
            }),
            Step::write(file_size, 64 * 1024),
            Step::gap_us(10, 1.0),
            Step::Close,
            Step::gap_us(10, 1.0),
            Step::guarded(
                SyscallRequest::Access { path: tool.clone() },
                Expect::UidIs(1000),
            ),
            Step::gap_us(95, 2.0),
            Step::call(SyscallRequest::Chown {
                path: tool.clone(),
                uid: Uid(1000),
                gid: Gid(1000),
            }),
        ],
        SuccessRule::AttackerOwnsPrivileged,
    );
    spec.extra_files = vec![FileSpec::user_file(tool.as_ref(), 64)];
    spec.attackers = vec![timer_symlinker(&spec.layout, &tool, 170, 20, 8.0)];
    spec
}

/// `<creat, open>` — the mktemp-reopen race: create a scratch file, close
/// it, later reopen it by name. Because the `creat` leaves a root-owned
/// file, a detect-loop attacker can spot the window opening and swap the
/// name before the reopen.
pub fn mktemp_reopen(file_size: u64) -> ScenarioSpec {
    let tmp: Arc<str> = "/home/user/.mktemp".into();
    let mut spec = base_spec(
        format!("mktemp-reopen-{}B", file_size),
        "mktemp",
        pair(FsCall::Creat, FsCall::Open),
        vec![
            Step::Think(prologue()),
            Step::call(SyscallRequest::OpenCreate { path: tmp.clone() }),
            Step::write(file_size, 64 * 1024),
            Step::gap_us(10, 1.0),
            Step::Close,
            Step::gap_us(90, 2.0),
            Step::guarded(SyscallRequest::Open { path: tmp.clone() }, Expect::Succeeds),
            Step::write(64, 64),
            Step::gap_us(10, 1.0),
            Step::Close,
        ],
        SuccessRule::PrivilegedGrewBy(64),
    );
    spec.attackers = vec![watching_symlinker(
        "attacker-v1",
        &spec.layout,
        &tmp,
        [15, 2, 1],
    )];
    spec
}

/// `<creat, chmod>` — a unix-socket-style bind race: a root service
/// creates its rendezvous node, then loosens its mode so clients can
/// connect. Swapped between the two, the `chmod 0666` lands on
/// `/etc/passwd`.
pub fn sock_bind(file_size: u64) -> ScenarioSpec {
    let sock: Arc<str> = "/home/user/daemon.sock".into();
    let mut spec = base_spec(
        format!("sock-bind-{}B", file_size),
        "sock-daemon",
        pair(FsCall::Creat, FsCall::Chmod),
        vec![
            Step::Think(prologue()),
            Step::call(SyscallRequest::OpenCreate { path: sock.clone() }),
            Step::write(file_size, 64 * 1024),
            Step::gap_us(10, 1.0),
            Step::Close,
            Step::gap_us(90, 2.0),
            Step::call(SyscallRequest::Chmod {
                path: sock.clone(),
                mode: 0o666,
            }),
        ],
        SuccessRule::PrivilegedModeIs(0o666),
    );
    spec.attackers = vec![watching_symlinker(
        "attacker-v1",
        &spec.layout,
        &sock,
        [15, 2, 1],
    )];
    spec
}

/// `<creat, chown>` with **three** competing attackers: the vi save
/// window contested by a crowd of detect-loop symlinkers with staggered
/// start phases. Models the paper's observation that attack processes
/// interfere — later strikers unlink earlier strikers' links before
/// re-planting their own.
pub fn vi_crowd(file_size: u64) -> ScenarioSpec {
    let mut spec = vi_smp_spec(file_size);
    spec.name = format!("vi-crowd-{}B", file_size);
    let doc = spec.attackers[0].watch.clone();
    spec.attackers = [(1u64, "attacker-a"), (9, "attacker-b"), (17, "attacker-c")]
        .into_iter()
        .map(|(start, name)| watching_symlinker(name, &spec.layout, &doc, [33, 2, start]))
        .collect();
    spec
}

/// `<creat, chown>` attacker-vs-attacker: a symlink swapper and a
/// hardlink swapper race each other for the same vi window. Whichever
/// strikes second unlinks the first's plant and installs its own; both
/// techniques redirect the victim's `chown` to `/etc/passwd`, so every
/// interleaving that wins the window converges to success.
pub fn swap_contest(file_size: u64) -> ScenarioSpec {
    let mut spec = vi_smp_spec(file_size);
    spec.name = format!("swap-contest-{}B", file_size);
    let doc = spec.attackers[0].watch.clone();
    let privileged: Arc<str> = spec.layout.passwd.as_str().into();
    let symlinker = watching_symlinker("attacker-symlink", &spec.layout, &doc, [33, 2, 1]);
    let hardlinker = attacker(
        "attacker-hardlink",
        Trigger::RootOwned,
        &doc,
        AttackerProfile::hardlink_strike(&doc, &privileged),
        [us(5), us(29), us(3)],
        1.0,
    );
    spec.attackers = vec![symlinker, hardlinker];
    spec
}

/// The full new-scenario library at one file size (`None` = each
/// scenario's calibrated default), tagged with the taxonomy pair each
/// exercises. This is what the detector ground-truth harness and the
/// `--grid taxonomy` sweep iterate over.
pub fn taxonomy_library(file_size: Option<u64>) -> Vec<(TocttouPair, crate::scenario::Scenario)> {
    type SpecCtor = fn(u64) -> ScenarioSpec;
    let fns: [(SpecCtor, u64); 10] = [
        (tmp_logrotate, 4096),
        (chown_walk, 2048),
        (tmp_sweeper, 1024),
        (maildrop, 4096),
        (installer_read, 1024),
        (pkg_installer, 512),
        (mktemp_reopen, 1024),
        (sock_bind, 256),
        (vi_crowd, 100 * 1024),
        (swap_contest, 100 * 1024),
    ];
    fns.into_iter()
        .map(|(f, default)| {
            let spec = f(file_size.unwrap_or(default));
            (spec.pair, spec.compile())
        })
        .collect()
}

// ---- victims run on hand-built kernels ---------------------------------
//
// Step lists without a scenario around them: the caller builds the
// kernel and its files, and spawns `DslVictim::new(steps, seed)` next to
// whatever attacker it wants.

/// rpm installing a package (the authors' FAST '05 study): `creat` a
/// `file_size`-byte helper file, write it, flush the package database
/// synchronously, and `chown` the helper to the package's owner.
///
/// The database flush is a 5 ms blocking sleep inside the `<creat,
/// chown>` window, so the victim is always suspended in its window: the
/// case where Section 3.2's bound `P(success) ≤ P(victim suspended)`
/// reaches 1, and even a uniprocessor attacker wins every round.
pub fn rpm_install(helper: &Arc<str>, file_size: u64) -> Vec<Step> {
    vec![
        Step::Think(prologue()),
        Step::call(SyscallRequest::OpenCreate {
            path: helper.clone(),
        }),
        Step::write(file_size, 64 * 1024),
        Step::gap_us(10, 0.0),
        Step::call(SyscallRequest::Sleep {
            duration: SimDuration::from_millis(5),
        }),
        Step::gap_us(10, 0.0),
        Step::call(SyscallRequest::Chown {
            path: helper.clone(),
            uid: Uid(1000),
            gid: Gid(1000),
        }),
    ]
}

/// sendmail delivering a 1 KiB message, the paper's opening story
/// (Section 1): `lstat` the mailbox and refuse a symlink or a directory,
/// format headers for 100–300 µs, then `open` the mailbox, append, and
/// close.
///
/// The check is correct at check time, so a pre-planted link is refused;
/// an attacker must swap the mailbox inside the `<lstat, open>` window.
/// Success is an integrity breach: the privileged file grows by the
/// message.
pub fn sendmail_deliver(mailbox: &Arc<str>) -> Vec<Step> {
    vec![
        Step::Think(DurationDist::uniform_us(0.0, 100.0)),
        Step::guarded(
            SyscallRequest::Lstat {
                path: mailbox.clone(),
            },
            Expect::NotSymlink,
        ),
        Step::Think(DurationDist::uniform_us(100.0, 300.0)),
        Step::guarded(
            SyscallRequest::Open {
                path: mailbox.clone(),
            },
            Expect::Succeeds,
        ),
        Step::write(1024, 1024),
        Step::Close,
    ]
}

/// The minimal victim of any `<check, use>` pair: a 0–100 µs prologue,
/// the check on `path`, `window` of computation, then the use on `path`.
/// `aux` is the second name of `rename`, `symlink` and `link`. `None` when
/// the simulator's syscall surface cannot express the check or the use
/// (`chdir`, `mount`, …).
///
/// The 132 pairs this runs include aliased calls, each rendered as the
/// nearest call the simulator has: a `mknod` check is a `creat`, a `link`
/// check or use is a `symlink`, a `utime` use is `chmod 0600`, an
/// `execve` use is an `open`, and a `truncate` use is a `creat`. A
/// `chown` use hands the file to uid/gid 1000.
pub fn pair_victim(
    pair: TocttouPair,
    path: &Arc<str>,
    aux: &Arc<str>,
    window: SimDuration,
) -> Option<Vec<Step>> {
    Some(vec![
        Step::Think(DurationDist::uniform_us(0.0, 100.0)),
        Step::call(check_call(pair.check(), path, aux)?),
        Step::Gap {
            base: window,
            jitter_us: 0.0,
        },
        Step::call(use_call(pair.use_call(), path, aux)?),
    ])
}

/// `call` in the check role of [`pair_victim`], if expressible.
fn check_call(call: FsCall, path: &Arc<str>, aux: &Arc<str>) -> Option<SyscallRequest> {
    let path = path.clone();
    Some(match call {
        // Observation checks.
        FsCall::Stat => SyscallRequest::Stat { path },
        FsCall::Access => SyscallRequest::Access { path },
        FsCall::Lstat => SyscallRequest::Lstat { path },
        FsCall::Readlink => SyscallRequest::Readlink { path },
        // Creation checks ("the name now refers to what I just made").
        FsCall::Open | FsCall::Creat | FsCall::Mknod => SyscallRequest::OpenCreate { path },
        FsCall::Mkdir => SyscallRequest::Mkdir { path },
        FsCall::Symlink | FsCall::Link => SyscallRequest::Symlink {
            target: aux.clone(),
            linkpath: path,
        },
        FsCall::Rename => SyscallRequest::Rename {
            from: aux.clone(),
            to: path,
        },
        _ => return None,
    })
}

/// `call` in the use role of [`pair_victim`], if expressible.
fn use_call(call: FsCall, path: &Arc<str>, aux: &Arc<str>) -> Option<SyscallRequest> {
    let path = path.clone();
    Some(match call {
        FsCall::Chown => SyscallRequest::Chown {
            path,
            uid: Uid(1000),
            gid: Gid(1000),
        },
        FsCall::Chmod | FsCall::Utime => SyscallRequest::Chmod { path, mode: 0o600 },
        FsCall::Open | FsCall::Execve => SyscallRequest::Open { path },
        FsCall::Creat | FsCall::Truncate => SyscallRequest::OpenCreate { path },
        FsCall::Unlink => SyscallRequest::Unlink { path },
        FsCall::Rename => SyscallRequest::Rename {
            from: path,
            to: aux.clone(),
        },
        FsCall::Symlink | FsCall::Link => SyscallRequest::Symlink {
            target: aux.clone(),
            linkpath: path,
        },
        FsCall::Mkdir => SyscallRequest::Mkdir { path },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{AttackFlag, DslAttacker, DslVictim};
    use tocttou_core::stats::SuccessCounter;
    use tocttou_os::prelude::*;
    use tocttou_sim::time::SimTime;

    const DOC: &str = "/home/user/doc.txt";

    /// A quiet kernel with the standard layout; the user's document
    /// exists with `doc_size` bytes unless `None`.
    fn kernel(machine: MachineSpec, seed: u64, doc_size: Option<u64>) -> Kernel {
        let mut k = Kernel::new(machine.quiet(), seed);
        let root = InodeMeta {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            mode: 0o755,
        };
        let user = InodeMeta {
            uid: Uid(1000),
            gid: Gid(1000),
            mode: 0o755,
        };
        k.vfs_mut().mkdir("/etc", root).unwrap();
        k.vfs_mut().create_file("/etc/passwd", root).unwrap();
        k.vfs_mut().mkdir("/home", root).unwrap();
        k.vfs_mut().mkdir("/home/user", user).unwrap();
        k.vfs_mut().mkdir("/home/user/.attack", user).unwrap();
        if let Some(size) = doc_size {
            let ino = k.vfs_mut().create_file(DOC, user).unwrap();
            k.vfs_mut().append(ino, size).unwrap();
        }
        k
    }

    /// Spawns `steps` as a root victim.
    fn spawn_victim(k: &mut Kernel, name: &str, steps: Vec<Step>, seed: u64) -> Pid {
        let victim = DslVictim::new(steps.into(), seed);
        k.spawn(name, Uid::ROOT, Gid::ROOT, true, Box::new(victim))
    }

    /// Spawns attacker processes sharing one round flag.
    fn spawn_attackers(k: &mut Kernel, profiles: Vec<AttackerProfile>, seed: u64) -> Vec<Pid> {
        let flag = AttackFlag::default();
        profiles
            .into_iter()
            .map(|p| {
                let (name, pretouch) = (p.name.clone(), p.pretouch);
                let logic = DslAttacker::new(Arc::new(p), seed).with_flag(flag.clone());
                k.spawn(name, Uid(1000), Gid(1000), pretouch, Box::new(logic))
            })
            .collect()
    }

    fn v1() -> AttackerProfile {
        attacker_v1(&DOC.into(), &"/etc/passwd".into())
    }

    fn count(k: &Kernel, pred: impl Fn(&OsEvent) -> bool) -> usize {
        k.trace().iter().filter(|r| pred(&r.event)).count()
    }

    fn vi(size: u64, prologue: DurationDist) -> Vec<Step> {
        vi_save(&Layout::default(), size, prologue)
    }

    fn gedit(size: u64) -> Vec<Step> {
        gedit_save(&Layout::default(), size, DurationDist::const_us(0.0), 43)
    }

    #[test]
    fn vi_save_completes_with_correct_final_state() {
        let mut k = kernel(MachineSpec::smp_xeon(), 1, Some(4096));
        let pid = spawn_victim(&mut k, "vi", vi(100 * 1024, prologue()), 9);
        let outcome = k.run_until_exit(pid, SimTime::from_secs(2));
        assert_eq!(outcome, RunOutcome::StopConditionMet);
        // Backup holds the old content; new file has the new size and the
        // user's ownership restored.
        assert_eq!(k.vfs().stat("/home/user/doc.txt~").unwrap().size, 4096);
        let saved = k.vfs().stat(DOC).unwrap();
        assert_eq!(saved.size, 100 * 1024);
        assert_eq!(saved.uid, Uid(1000), "ownership restored");
        k.vfs().check_invariants().unwrap();
    }

    #[test]
    fn window_exists_file_owned_by_root_between_creat_and_chown() {
        let mut k = kernel(MachineSpec::smp_xeon(), 1, Some(4096));
        let pid = spawn_victim(&mut k, "vi", vi(1024 * 1024, prologue()), 3);
        // Run until mid-write (a 1 MB write at SMP speed takes ~17 ms; stop
        // at 5 ms, well inside the window).
        k.run_until(
            |k| k.now() >= SimTime::from_millis(5),
            SimTime::from_secs(2),
        );
        let st = k.vfs().stat(DOC).unwrap();
        assert_eq!(st.uid, Uid::ROOT, "mid-window the file belongs to root");
        // Finish: ownership restored.
        k.run_until_exit(pid, SimTime::from_secs(2));
        assert_eq!(k.vfs().stat(DOC).unwrap().uid, Uid(1000));
    }

    #[test]
    fn window_length_scales_with_file_size() {
        let window_of = |size: u64| {
            let mut k = kernel(MachineSpec::smp_xeon(), 1, Some(4096));
            let pid = spawn_victim(&mut k, "vi", vi(size, DurationDist::const_us(0.0)), 5);
            k.run_until_exit(pid, SimTime::from_secs(5));
            // Window = creat commit .. chown enter, from the trace.
            let mut creat_commit = None;
            let mut chown_enter = None;
            for r in k.trace().iter() {
                match &r.event {
                    OsEvent::Commit {
                        call: SyscallName::OpenCreate,
                        ..
                    } => creat_commit = Some(r.at),
                    OsEvent::SyscallEnter {
                        call: SyscallName::Chown,
                        ..
                    } => chown_enter = Some(r.at),
                    _ => {}
                }
            }
            (chown_enter.unwrap() - creat_commit.unwrap()).as_micros_f64()
        };
        let w1 = window_of(1);
        let w100k = window_of(100 * 1024);
        let w1m = window_of(1024 * 1024);
        // 1-byte window ≈ the calibrated ~97 µs baseline (Table 1's L ≈ 62
        // plus the detection/attack allowance).
        assert!((80.0..130.0).contains(&w1), "1-byte window {w1}");
        // 17 µs/KB at SMP speed.
        assert!((1_500.0..2_100.0).contains(&w100k), "100 KB window {w100k}");
        assert!((16_000.0..19_500.0).contains(&w1m), "1 MB window {w1m}");
    }

    /// Section 1's classic victim-slowing trick: on slow storage the victim
    /// blocks mid-window, so even the uniprocessor attacker wins almost
    /// every round (P(suspended) → 1).
    #[test]
    fn slow_storage_makes_uniprocessor_attack_reliable() {
        let run_round = |seed: u64, slow: bool| -> bool {
            let mut k = kernel(MachineSpec::uniprocessor(), seed, Some(0));
            let mut steps = vi(128 * 1024, prologue());
            for step in &mut steps {
                if let Step::WriteLoop { chunk, stall, .. } = step {
                    *chunk = 16 * 1024;
                    *stall = slow.then(|| SimDuration::from_millis(2));
                }
            }
            let vpid = spawn_victim(&mut k, "vi", steps, seed);
            spawn_attackers(&mut k, vec![v1()], seed ^ 0xAA);
            k.run_until_exit(vpid, SimTime::from_secs(2));
            k.vfs().stat("/etc/passwd").unwrap().uid == Uid(1000)
        };
        let mut fast = SuccessCounter::new();
        let mut slow = SuccessCounter::new();
        for seed in 0..25 {
            fast.record(run_round(seed, false));
            slow.record(run_round(seed, true));
        }
        assert!(slow.rate() > 0.9, "slow storage: {slow}");
        assert!(fast.rate() < 0.3, "page-cache writes: {fast}");
    }

    #[test]
    fn gedit_save_completes_with_correct_final_state() {
        let mut k = kernel(MachineSpec::smp_xeon(), 1, Some(2048));
        let pid = spawn_victim(&mut k, "gedit", gedit(8192), 2);
        let outcome = k.run_until_exit(pid, SimTime::from_secs(2));
        assert_eq!(outcome, RunOutcome::StopConditionMet);
        let saved = k.vfs().stat(DOC).unwrap();
        assert_eq!(saved.size, 8192);
        assert_eq!(saved.uid, Uid(1000));
        assert_eq!(saved.mode, 0o644);
        assert_eq!(k.vfs().stat("/home/user/doc.txt~").unwrap().size, 2048);
        assert!(
            k.vfs().stat("/home/user/.goutputstream").is_err(),
            "temp consumed"
        );
        k.vfs().check_invariants().unwrap();
    }

    #[test]
    fn window_does_not_scale_with_file_size() {
        // The defining contrast with vi: rename→chown window is independent
        // of file size because the write happens *before* the window.
        let window_of = |size: u64| {
            let mut k = kernel(MachineSpec::smp_xeon(), 1, Some(2048));
            let pid = spawn_victim(&mut k, "gedit", gedit(size), 4);
            k.run_until_exit(pid, SimTime::from_secs(5));
            let mut rename_into_place = None;
            let mut chown_enter = None;
            for r in k.trace().iter() {
                match &r.event {
                    OsEvent::SyscallEnter {
                        call: SyscallName::Rename,
                        path: Some(p),
                        ..
                    } if &**p == DOC => rename_into_place = Some(r.at),
                    OsEvent::SyscallEnter {
                        call: SyscallName::Chown,
                        ..
                    } => chown_enter = Some(r.at),
                    _ => {}
                }
            }
            (chown_enter.unwrap() - rename_into_place.unwrap()).as_micros_f64()
        };
        let w_small = window_of(1024);
        let w_large = window_of(1024 * 1024);
        assert!((w_small - w_large).abs() < 2.0, "{w_small} vs {w_large}");
        // Rename 60 + gap 43 + chmod ~12 + gap 1 ≈ 120 µs at SMP speed.
        assert!((100.0..160.0).contains(&w_small), "window {w_small}");
    }

    #[test]
    fn multicore_gap_variant() {
        // The rename→chmod gap is the step right before the chmod.
        let gap_before_chmod = |spec: ScenarioSpec| {
            let i = spec
                .steps
                .iter()
                .position(|s| {
                    matches!(
                        s,
                        Step::Call {
                            call: SyscallRequest::Chmod { .. },
                            ..
                        }
                    )
                })
                .expect("gedit chmods");
            match &spec.steps[i - 1] {
                Step::Gap { base, .. } => *base,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(gap_before_chmod(gedit_smp_spec(1024)), us(43));
        assert_eq!(gap_before_chmod(gedit_multicore_v1_spec(1024)), us(3));
        assert_eq!(gap_before_chmod(gedit_multicore_v2_spec(1024)), us(3));
    }

    #[test]
    fn mid_window_file_is_root_owned() {
        let mut k = kernel(MachineSpec::smp_xeon(), 1, Some(2048));
        let pid = spawn_victim(&mut k, "gedit", gedit(1024), 6);
        // The save performs two renames (backup, then temp→real); the window
        // opens at the second rename's commit.
        let renames = |k: &Kernel| {
            count(k, |e| {
                matches!(
                    e,
                    OsEvent::Commit {
                        call: SyscallName::Rename,
                        ..
                    }
                )
            })
        };
        k.run_until(|k| renames(k) == 2, SimTime::from_secs(1));
        let st = k.vfs().stat(DOC).unwrap();
        assert_eq!(st.uid, Uid::ROOT, "window open: root owns the document");
        k.run_until_exit(pid, SimTime::from_secs(1));
        assert_eq!(k.vfs().stat(DOC).unwrap().uid, Uid(1000));
    }

    #[test]
    fn v1_attacks_an_open_window_immediately() {
        let mut k = kernel(MachineSpec::multicore_pentium_d(), 11, Some(0));
        // The window is already open: the target is root-owned.
        k.vfs_mut().chown(DOC, Uid::ROOT, Gid::ROOT).unwrap();
        let pid = spawn_attackers(&mut k, vec![v1()], 1)[0];
        k.run_until_exit(pid, SimTime::from_millis(10));
        assert!(k.vfs().lstat(DOC).unwrap().is_symlink, "target replaced");
        assert_eq!(k.vfs().readlink(DOC).unwrap(), "/etc/passwd");
        // The cold unlink/symlink page traps.
        let traps = count(&k, |e| matches!(e, OsEvent::Trap { .. }));
        assert!(traps >= 1, "cold attacker trapped");
    }

    #[test]
    fn v1_spins_while_window_closed() {
        let mut k = kernel(MachineSpec::multicore_pentium_d(), 11, Some(0));
        let pid = spawn_attackers(&mut k, vec![v1()], 1)[0];
        let outcome = k.run_until_exit(pid, SimTime::from_millis(5));
        assert_eq!(outcome, RunOutcome::TimedOut, "spins forever");
        assert!(!k.vfs().lstat(DOC).unwrap().is_symlink);
        let stats = count(&k, |e| {
            matches!(
                e,
                OsEvent::SyscallEnter {
                    call: SyscallName::Stat,
                    ..
                }
            )
        });
        assert!(stats > 50, "spinning: {stats} stats");
    }

    #[test]
    fn v1_does_not_attack_an_existing_symlink() {
        // `stat` follows a planted symlink to root-owned /etc/passwd, so
        // the paper's program fires again (stat does not see symlinks): it
        // unlinks the symlink and re-plants it, and passwd stays root's.
        let mut k = kernel(MachineSpec::multicore_pentium_d(), 11, None);
        k.vfs_mut()
            .symlink("/etc/passwd", DOC, (Uid(1000), Gid(1000)))
            .unwrap();
        let pid = spawn_attackers(&mut k, vec![v1()], 1)[0];
        k.run_until_exit(pid, SimTime::from_millis(5));
        assert_eq!(k.vfs().stat("/etc/passwd").unwrap().uid, Uid::ROOT);
    }

    #[test]
    fn v2_prewarms_on_dummy_and_switches_to_target() {
        let mut k = kernel(MachineSpec::multicore_pentium_d(), 11, Some(0));
        let pid = spawn_attackers(&mut k, vec![attacker_v2(&Layout::default())], 2)[0];
        // Let it idle-loop a while: dummy gets symlinked/unlinked repeatedly.
        k.run_until(
            |k| k.now() >= SimTime::from_micros(500),
            SimTime::from_secs(1),
        );
        let dummy_ops = count(&k, |e| {
            matches!(
                e,
                OsEvent::SyscallEnter {
                    call: SyscallName::Unlink | SyscallName::Symlink,
                    path: Some(p),
                    ..
                } if p.contains("dummy")
            )
        });
        assert!(dummy_ops >= 4, "dummy churn: {dummy_ops}");
        // Now open the window: chown the target to root.
        k.vfs_mut().chown(DOC, Uid::ROOT, Gid::ROOT).unwrap();
        k.run_until_exit(pid, SimTime::from_millis(10));
        assert!(k.vfs().lstat(DOC).unwrap().is_symlink);
        // Every trap happened on the dummy, before the window opened.
        let last_trap = k
            .trace()
            .iter()
            .filter(|r| matches!(r.event, OsEvent::Trap { .. }))
            .map(|r| r.at)
            .max();
        assert!(
            last_trap.is_none_or(|t| t < SimTime::from_micros(500)),
            "no trap inside the window"
        );
    }

    #[test]
    fn pipelined_symlink_overlaps_unlink_truncation() {
        // A large root-owned target: unlink's truncation tail is long.
        let mut k = kernel(MachineSpec::multicore_pentium_d(), 11, Some(500 * 1024));
        k.vfs_mut().chown(DOC, Uid::ROOT, Gid::ROOT).unwrap();
        let pids = spawn_attackers(&mut k, pipelined(&v1(), us(1)), 3);
        k.run_until_all_exit(&pids, SimTime::from_millis(50));

        // Extract event times: symlink must COMMIT before unlink EXITS.
        let mut symlink_commit = None;
        let mut unlink_exit = None;
        for r in k.trace().iter() {
            match &r.event {
                OsEvent::Commit {
                    call: SyscallName::Symlink,
                    ..
                } => symlink_commit = Some(r.at),
                OsEvent::SyscallExit {
                    call: SyscallName::Unlink,
                    ..
                } => unlink_exit = Some(r.at),
                _ => {}
            }
        }
        let (sc, ue) = (symlink_commit.unwrap(), unlink_exit.unwrap());
        assert!(
            sc < ue,
            "pipelined symlink ({sc}) finished before unlink returned ({ue})"
        );
        assert!(k.vfs().lstat(DOC).unwrap().is_symlink);
    }

    #[test]
    fn sequential_folds_the_pipelined_pair_back_into_v1() {
        let v = v1();
        let pair = pipelined(&v, us(1));
        assert_eq!(pair.len(), 2);
        assert!(pair[0].raises_flag && pair[1].trigger == Trigger::Flag);
        assert_eq!(
            format!("{:?}", sequential(&pair[0], &pair[1])),
            format!("{v:?}")
        );
    }

    // ---- rpm, sendmail and the generic pair victim ------------------------

    fn root_dir() -> InodeMeta {
        InodeMeta {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            mode: 0o755,
        }
    }

    fn user_dir() -> InodeMeta {
        InodeMeta {
            uid: Uid(1000),
            gid: Gid(1000),
            mode: 0o755,
        }
    }

    /// Attacker v1 swapping `target` for a link to `/etc/passwd`.
    fn spawn_v1(k: &mut Kernel, target: &str, seed: u64) {
        let v1 = attacker_v1(&target.into(), &"/etc/passwd".into());
        spawn_attackers(k, vec![v1], seed);
    }

    fn rpm_kernel(machine: MachineSpec) -> Kernel {
        let mut k = Kernel::new(machine, 5);
        k.vfs_mut().mkdir("/etc", root_dir()).unwrap();
        k.vfs_mut().create_file("/etc/passwd", root_dir()).unwrap();
        k.vfs_mut().mkdir("/var", root_dir()).unwrap();
        k.vfs_mut().mkdir("/var/tmp", user_dir()).unwrap();
        k
    }

    fn rpm(size: u64) -> Vec<Step> {
        rpm_install(&"/var/tmp/rpm-helper".into(), size)
    }

    #[test]
    fn rpm_install_completes_standalone() {
        let mut k = rpm_kernel(MachineSpec::uniprocessor().quiet());
        let pid = spawn_victim(&mut k, "rpm", rpm(8192), 1);
        k.run_until_exit(pid, SimTime::from_secs(1));
        let st = k.vfs().stat("/var/tmp/rpm-helper").unwrap();
        assert_eq!(st.size, 8192);
        assert_eq!(st.uid, Uid(1000));
    }

    /// The Section 3.2 bound: with the victim *always suspended* in-window,
    /// even a uniprocessor attacker wins essentially every round.
    #[test]
    fn rpm_uniprocessor_attack_succeeds_via_suspension() {
        let mut successes = 0;
        let rounds = 15;
        for seed in 0..rounds {
            let mut k = rpm_kernel(MachineSpec::uniprocessor().quiet());
            let vpid = spawn_victim(&mut k, "rpm", rpm(4096), seed);
            spawn_v1(&mut k, "/var/tmp/rpm-helper", seed ^ 0xFF);
            k.run_until_exit(vpid, SimTime::from_secs(1));
            if k.vfs().stat("/etc/passwd").unwrap().uid == Uid(1000) {
                successes += 1;
            }
        }
        assert_eq!(
            successes, rounds,
            "an always-suspended victim loses every race, even on one CPU"
        );
    }

    fn pair_kernel() -> Kernel {
        let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), 2);
        k.vfs_mut().mkdir("/etc", root_dir()).unwrap();
        k.vfs_mut().create_file("/etc/passwd", root_dir()).unwrap();
        k.vfs_mut().mkdir("/home", root_dir()).unwrap();
        k.vfs_mut().mkdir("/home/user", user_dir()).unwrap();
        k
    }

    /// [`pair_victim`] on `path` (aux `path.aux`) with a `window_us` window.
    fn pair_steps(pair: TocttouPair, path: &str, window_us: f64) -> Vec<Step> {
        let aux: Arc<str> = format!("{path}.aux").into();
        let window = SimDuration::from_micros_f64(window_us);
        pair_victim(pair, &path.into(), &aux, window).expect("runnable pair")
    }

    #[test]
    fn most_of_the_taxonomy_is_runnable() {
        let (x, y): (Arc<str>, Arc<str>) = ("/x".into(), "/y".into());
        let supported: Vec<TocttouPair> = tocttou_core::taxonomy::enumerate_pairs()
            .into_iter()
            .filter(|&p| pair_victim(p, &x, &y, SimDuration::ZERO).is_some())
            .collect();
        // 11 expressible check calls × 12 expressible use calls.
        assert_eq!(supported.len(), 132, "supported {}", supported.len());
        assert!(supported.contains(&TocttouPair::vi()));
        assert!(supported.contains(&TocttouPair::gedit()));
        assert!(supported.contains(&TocttouPair::sendmail()));
    }

    #[test]
    fn vi_pair_victim_is_attackable_on_smp() {
        // <open, chown> with a 500 µs window: the attacker swaps the file
        // and the generic victim chowns /etc/passwd away.
        let mut k = pair_kernel();
        let steps = pair_steps(TocttouPair::vi(), "/home/user/f", 500.0);
        let vpid = spawn_victim(&mut k, "victim", steps, 1);
        spawn_v1(&mut k, "/home/user/f", 2);
        k.run_until_exit(vpid, SimTime::from_secs(1));
        assert_eq!(k.vfs().stat("/etc/passwd").unwrap().uid, Uid(1000));
    }

    #[test]
    fn sendmail_pair_redirects_the_use_open() {
        // <stat, open>: the victim checks the mailbox then opens it; the
        // attacker swaps it for a symlink to /etc/passwd in between, so the
        // open lands on the privileged file.
        let mut k = pair_kernel();
        let meta = InodeMeta {
            mode: 0o600,
            ..root_dir()
        };
        k.vfs_mut().create_file("/home/user/mbox", meta).unwrap();
        let steps = pair_steps(TocttouPair::sendmail(), "/home/user/mbox", 400.0);
        let vpid = spawn_victim(&mut k, "sendmail", steps, 3);
        spawn_v1(&mut k, "/home/user/mbox", 4);
        k.run_until_exit(vpid, SimTime::from_secs(1));
        // The mailbox name now points at /etc/passwd: the victim's open
        // followed the symlink (visible in the trace as a successful open
        // after the swap).
        assert!(k.vfs().lstat("/home/user/mbox").unwrap().is_symlink);
        let opened_privileged = k
            .vfs()
            .stat("/home/user/mbox")
            .map(|st| st.uid == Uid::ROOT)
            .unwrap_or(false);
        assert!(opened_privileged, "open resolved to the privileged file");
    }

    #[test]
    fn zero_window_pair_is_not_attackable() {
        // With no window at all the attacker cannot land between check and
        // use (quiet machine, single round).
        let mut k = pair_kernel();
        let steps = pair_steps(TocttouPair::vi(), "/home/user/f", 0.0);
        let vpid = spawn_victim(&mut k, "victim", steps, 9);
        spawn_v1(&mut k, "/home/user/f", 10);
        k.run_until_exit(vpid, SimTime::from_secs(1));
        assert_eq!(
            k.vfs().stat("/etc/passwd").unwrap().uid,
            Uid::ROOT,
            "no laxity, no attack"
        );
    }

    const MAILBOX: &str = "/var/mail/attacker";

    /// A 1000-byte `/etc/passwd` and the attacker's 100-byte mailbox.
    fn sendmail_kernel(seed: u64) -> Kernel {
        let mut k = Kernel::new(MachineSpec::smp_xeon().quiet(), seed);
        k.vfs_mut().mkdir("/etc", root_dir()).unwrap();
        let passwd = InodeMeta {
            mode: 0o644,
            ..root_dir()
        };
        let pw = k.vfs_mut().create_file("/etc/passwd", passwd).unwrap();
        k.vfs_mut().append(pw, 1000).unwrap();
        k.vfs_mut().mkdir("/var", root_dir()).unwrap();
        k.vfs_mut().mkdir("/var/mail", user_dir()).unwrap();
        let mailbox = InodeMeta {
            mode: 0o600,
            ..user_dir()
        };
        let mb = k.vfs_mut().create_file(MAILBOX, mailbox).unwrap();
        k.vfs_mut().append(mb, 100).unwrap();
        k
    }

    fn sendmail(k: &mut Kernel, seed: u64) -> Pid {
        spawn_victim(k, "sendmail", sendmail_deliver(&MAILBOX.into()), seed)
    }

    #[test]
    fn sendmail_benign_delivery_appends_to_the_mailbox() {
        let mut k = sendmail_kernel(1);
        let pid = sendmail(&mut k, 2);
        k.run_until_exit(pid, SimTime::from_millis(100));
        assert_eq!(k.vfs().stat(MAILBOX).unwrap().size, 100 + 1024);
        assert_eq!(k.vfs().stat("/etc/passwd").unwrap().size, 1000, "untouched");
    }

    #[test]
    fn sendmail_pre_planted_symlink_is_refused_by_the_check() {
        // The check WORKS when the link is already there — that's why the
        // attack needs the race.
        let mut k = sendmail_kernel(3);
        k.vfs_mut().unlink_detach(MAILBOX).unwrap();
        k.vfs_mut()
            .symlink("/etc/passwd", MAILBOX, (Uid(1000), Gid(1000)))
            .unwrap();
        let pid = sendmail(&mut k, 4);
        k.run_until_exit(pid, SimTime::from_millis(100));
        assert_eq!(
            k.vfs().stat("/etc/passwd").unwrap().size,
            1000,
            "delivery refused, passwd intact"
        );
    }

    #[test]
    fn sendmail_refuses_a_directory_mailbox() {
        // An lstat that reports a directory aborts the trace: no open, no
        // write, no close.
        let mut k = sendmail_kernel(5);
        k.vfs_mut().unlink_detach(MAILBOX).unwrap();
        k.vfs_mut().mkdir(MAILBOX, user_dir()).unwrap();
        let pid = sendmail(&mut k, 6);
        k.run_until_exit(pid, SimTime::from_millis(100));
        let calls: Vec<SyscallName> = k
            .trace()
            .iter()
            .filter_map(|r| match r.event {
                OsEvent::SyscallEnter { call, .. } => Some(call),
                _ => None,
            })
            .collect();
        assert_eq!(calls, [SyscallName::Lstat], "the guard stopped the trace");
    }
}

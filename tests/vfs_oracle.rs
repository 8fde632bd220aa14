//! Differential oracle for the v2 VFS.
//!
//! The production filesystem (interned names, dentry maps with a
//! negative-entry side table, overlay copy-on-write) is driven through
//! randomized operation sequences in lockstep with the retired v1
//! resolver, [`PathVfs`] — a deliberately simple `BTreeMap`-per-directory
//! string walker kept verbatim as an auditable reference. Both sides
//! allocate inodes and semaphores in call order, so every result —
//! `Ino`s, `SemId`s, `StatBuf`s and errors — must match *exactly*, and
//! after every operation the full path universe is swept through every
//! read-only query under both symlink policies. `check_invariants`
//! (link-count accounting, no dangling entries, no stale negative
//! dentries) runs on both sides after each step.
//!
//! This is the same oracle pattern the event queue (against a binary heap)
//! and the warm-boot checkpoints use: the fast structure is never trusted on its
//! own, only proven equivalent to the slow obvious one.

use proptest::prelude::*;
use tocttou::os::vfs::oracle::PathVfs;
use tocttou::os::vfs::{InodeMeta, SymlinkPolicy, Vfs};
use tocttou::os::{Gid, OsError, Uid};

fn meta(uid: u32) -> InodeMeta {
    InodeMeta {
        uid: Uid(uid),
        gid: Gid(uid),
        mode: 0o644,
    }
}

/// Builds the identical starting tree on both sides (the scenario-layout
/// shape: a privileged file plus a user home).
fn setup() -> (Vfs, PathVfs) {
    let mut v2 = Vfs::new();
    let mut v1 = PathVfs::new();
    for (path, m) in [
        ("/etc", meta(0)),
        ("/home", meta(0)),
        ("/home/user", meta(1000)),
    ] {
        v2.mkdir(path, m).unwrap();
        v1.mkdir(path, m).unwrap();
    }
    v2.create_file("/etc/passwd", meta(0)).unwrap();
    v1.create_file("/etc/passwd", meta(0)).unwrap();
    (v2, v1)
}

/// The closed path universe the random ops draw from: existing and
/// missing names, nested directories, a path through a missing
/// intermediate, and room for symlink chains (including cycles, for
/// `ELOOP`).
const PATHS: [&str; 9] = [
    "/etc/passwd",
    "/etc/shadow",
    "/home/user/doc",
    "/home/user/link",
    "/home/user/tmp",
    "/home/user/sub",
    "/home/user/sub/deep",
    "/missing/dir/file",
    "/home/user/ln2",
];

/// One VFS operation over indices into [`PATHS`]. Failing ops are as
/// valuable as succeeding ones — both sides must fail identically.
#[derive(Debug, Clone)]
enum Op {
    Mkdir(usize),
    Create(usize),
    Append(usize, u64),
    Symlink(usize, usize),
    Link(usize, usize),
    Unlink(usize),
    Rmdir(usize),
    Rename(usize, usize),
    Chmod(usize, u32),
    Chown(usize, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let p = || 0usize..PATHS.len();
    prop_oneof![
        p().prop_map(Op::Mkdir),
        p().prop_map(Op::Create),
        (p(), 1u64..4096).prop_map(|(i, n)| Op::Append(i, n)),
        (p(), p()).prop_map(|(t, l)| Op::Symlink(t, l)),
        (p(), p()).prop_map(|(e, l)| Op::Link(e, l)),
        p().prop_map(Op::Unlink),
        p().prop_map(Op::Rmdir),
        (p(), p()).prop_map(|(f, t)| Op::Rename(f, t)),
        (p(), 0u32..0o1000).prop_map(|(i, m)| Op::Chmod(i, m)),
        (p(), 0u32..3000).prop_map(|(i, u)| Op::Chown(i, u)),
    ]
}

/// Applies `op` to both filesystems and returns the two results as
/// comparable strings (every operation's `Ok` payload and `OsError`
/// implement `Debug` identically across the two implementations).
fn apply_both(v2: &mut Vfs, v1: &mut PathVfs, op: &Op) -> (String, String) {
    match op {
        Op::Mkdir(p) => (
            format!("{:?}", v2.mkdir(PATHS[*p], meta(1000))),
            format!("{:?}", v1.mkdir(PATHS[*p], meta(1000))),
        ),
        Op::Create(p) => (
            format!("{:?}", v2.create_file(PATHS[*p], meta(1000))),
            format!("{:?}", v1.create_file(PATHS[*p], meta(1000))),
        ),
        Op::Append(p, n) => {
            let a = v2.stat(PATHS[*p]).and_then(|st| v2.append(st.ino, *n));
            let b = v1.stat(PATHS[*p]).and_then(|st| v1.append(st.ino, *n));
            (format!("{a:?}"), format!("{b:?}"))
        }
        Op::Symlink(t, l) => (
            format!(
                "{:?}",
                v2.symlink(PATHS[*t], PATHS[*l], (Uid(1000), Gid(1000)))
            ),
            format!(
                "{:?}",
                v1.symlink(PATHS[*t], PATHS[*l], (Uid(1000), Gid(1000)))
            ),
        ),
        Op::Link(e, l) => (
            format!("{:?}", v2.link(PATHS[*e], PATHS[*l])),
            format!("{:?}", v1.link(PATHS[*e], PATHS[*l])),
        ),
        Op::Unlink(p) => (
            format!("{:?}", v2.unlink_detach(PATHS[*p])),
            format!("{:?}", v1.unlink_detach(PATHS[*p])),
        ),
        Op::Rmdir(p) => (
            format!("{:?}", v2.rmdir(PATHS[*p])),
            format!("{:?}", v1.rmdir(PATHS[*p])),
        ),
        Op::Rename(f, t) => (
            format!("{:?}", v2.rename(PATHS[*f], PATHS[*t])),
            format!("{:?}", v1.rename(PATHS[*f], PATHS[*t])),
        ),
        Op::Chmod(p, m) => (
            format!("{:?}", v2.chmod(PATHS[*p], *m)),
            format!("{:?}", v1.chmod(PATHS[*p], *m)),
        ),
        Op::Chown(p, u) => (
            format!("{:?}", v2.chown(PATHS[*p], Uid(*u), Gid(*u))),
            format!("{:?}", v1.chown(PATHS[*p], Uid(*u), Gid(*u))),
        ),
    }
}

/// Compares every read-only query over the whole path universe: `stat`,
/// `lstat`, `readlink`, `open_existing`, the semaphore lookups and raw
/// `resolve` under both symlink policies.
fn assert_observably_equal(v2: &Vfs, v1: &PathVfs, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(v2.root(), v1.root(), "root diverged {}", ctx);
    prop_assert_eq!(
        v2.inode_count(),
        v1.inode_count(),
        "inode count diverged {}",
        ctx
    );
    for path in PATHS {
        prop_assert_eq!(
            v2.stat(path),
            v1.stat(path),
            "stat({}) diverged {}",
            path,
            ctx
        );
        prop_assert_eq!(
            v2.lstat(path),
            v1.lstat(path),
            "lstat({}) diverged {}",
            path,
            ctx
        );
        prop_assert_eq!(
            v2.readlink(path),
            v1.readlink(path),
            "readlink({}) diverged {}",
            path,
            ctx
        );
        prop_assert_eq!(
            v2.open_existing(path),
            v1.open_existing(path),
            "open_existing({}) diverged {}",
            path,
            ctx
        );
        prop_assert_eq!(
            v2.dir_sem_of(path),
            v1.dir_sem_of(path),
            "dir_sem_of({}) diverged {}",
            path,
            ctx
        );
        for follow in [false, true] {
            prop_assert_eq!(
                v2.file_sem_of(path, follow),
                v1.file_sem_of(path, follow),
                "file_sem_of({}, {}) diverged {}",
                path,
                follow,
                ctx
            );
        }
        for policy in [SymlinkPolicy::NoFollowLast, SymlinkPolicy::FollowLast] {
            let a = v2.resolve(path, policy);
            let b = v1.resolve(path, policy);
            match (&a, &b) {
                (Ok(ra), Ok(rb)) => {
                    prop_assert_eq!(
                        ra.parent,
                        rb.parent,
                        "resolve({}, {:?}).parent diverged {}",
                        path,
                        policy,
                        ctx
                    );
                    prop_assert_eq!(
                        ra.ino,
                        rb.ino,
                        "resolve({}, {:?}).ino diverged {}",
                        path,
                        policy,
                        ctx
                    );
                    match ra.name {
                        Some(n) => prop_assert_eq!(
                            v2.name_str(n),
                            Some(rb.name.as_str()),
                            "resolve({}, {:?}).name diverged {}",
                            path,
                            policy,
                            ctx
                        ),
                        // A read-only v2 resolution only omits the name
                        // when the component was never interned — which
                        // proves no directory binds it.
                        None => prop_assert_eq!(
                            rb.ino,
                            None,
                            "v2 un-interned name but v1 found a binding for {} {}",
                            path,
                            ctx
                        ),
                    }
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(
                    ea,
                    eb,
                    "resolve({}, {:?}) errors diverged {}",
                    path,
                    policy,
                    ctx
                ),
                _ => prop_assert!(
                    false,
                    "resolve({}, {:?}) ok/err split: v2={:?} v1={:?} {}",
                    path,
                    policy,
                    a,
                    b,
                    ctx
                ),
            }
        }
    }
    Ok(())
}

proptest! {
    /// The production VFS and the v1 oracle must be observably identical
    /// after every single operation of a random sequence, with the
    /// structural invariants holding on both sides throughout.
    #[test]
    fn v2_matches_the_v1_oracle_on_random_op_sequences(
        ops in proptest::collection::vec(op_strategy(), 1..48)
    ) {
        let (mut v2, mut v1) = setup();
        assert_observably_equal(&v2, &v1, "before any op")?;
        for (i, op) in ops.iter().enumerate() {
            let (a, b) = apply_both(&mut v2, &mut v1, op);
            prop_assert_eq!(a, b, "op #{} {:?} returned differently", i, op);
            prop_assert!(
                v2.check_invariants().is_ok(),
                "v2 invariants after op #{} {:?}: {:?}",
                i, op, v2.check_invariants()
            );
            prop_assert!(
                v1.check_invariants().is_ok(),
                "oracle invariants after op #{} {:?}: {:?}",
                i, op, v1.check_invariants()
            );
            assert_observably_equal(&v2, &v1, &format!("after op #{i} {op:?}"))?;
        }
    }

    /// A frozen-template fork must stay differential-equal to the oracle
    /// too: the overlay COW layer (inodes and names) may not change any
    /// observable result. The fork is then restored from the template with
    /// `clone_from`, the way the round pools reuse it, and a second
    /// sequence must match a fresh oracle: nothing the first sequence
    /// interned or mutated may leak into the next round.
    #[test]
    fn forked_v2_matches_the_v1_oracle(
        first in proptest::collection::vec(op_strategy(), 1..32),
        second in proptest::collection::vec(op_strategy(), 1..32)
    ) {
        let (mut template, _) = setup();
        template.freeze();
        let mut fork = template.clone();
        for (n, ops) in [&first, &second].into_iter().enumerate() {
            let round = if n == 0 { "a fork" } else { "a pooled fork" };
            if n > 0 {
                fork.clone_from(&template);
                prop_assert_eq!(&fork, &template, "clone_from left the previous round behind");
            }
            let (_, mut v1) = setup();
            for (i, op) in ops.iter().enumerate() {
                let (a, b) = apply_both(&mut fork, &mut v1, op);
                prop_assert_eq!(a, b, "op #{} {:?} returned differently in {}", i, op, round);
                prop_assert!(
                    fork.check_invariants().is_ok(),
                    "invariants after op #{} {:?} in {}: {:?}",
                    i, op, round, fork.check_invariants()
                );
                assert_observably_equal(&fork, &v1, &format!("after op #{i} {op:?} in {round}"))?;
            }
        }
        let (mut pristine, _) = setup();
        pristine.freeze();
        prop_assert_eq!(&template, &pristine, "a fork mutated its template");
    }
}

/// The pooled-engine regression for stale resolution caches (the VFS half
/// of the PR 5 `DetectorState::reset` fix): a recycled filesystem re-uses
/// inode, semaphore *and interned-name* numbering from zero, so any cache
/// surviving `reset` — a full-path component list, a negative dentry —
/// could silently alias a completely different file in the next round.
/// After `reset`, a filesystem rebuilt with a *different* layout must be
/// bit-equal to a fresh one and must not resolve any prior-round path.
#[test]
fn recycled_vfs_observes_no_stale_caches_from_a_prior_round() {
    let mut recycled = Vfs::new();
    // Round 1: intern "etc" and "passwd", warm the full-path cache for
    // "/etc/passwd", and record a negative dentry for it (the file is
    // never created).
    recycled.mkdir("/etc", meta(0)).unwrap();
    recycled.warm_path("/etc/passwd");
    assert_eq!(recycled.stat("/etc/passwd"), Err(OsError::Enoent));
    recycled.reset();

    // Round 2 uses a layout where round 1's name ids and inode numbers
    // alias different objects: Name(0)/Name(1) are now "home"/"user" and
    // Ino(1) is "/home". A stale "/etc/passwd" path-cache entry would
    // walk [Name(0), Name(1)] and resolve to "/home/user"; a stale
    // negative dentry (Ino(1), Name(1)) would shadow "/home/user".
    let mut fresh = Vfs::new();
    for vfs in [&mut recycled, &mut fresh] {
        vfs.mkdir("/home", meta(0)).unwrap();
        vfs.mkdir("/home/user", meta(1000)).unwrap();
        vfs.create_file("/home/user/secret", meta(1000)).unwrap();
    }

    assert_eq!(
        recycled.stat("/etc/passwd"),
        Err(OsError::Enoent),
        "a prior round's path resolved through a stale cache"
    );
    assert_eq!(
        recycled.stat("/home/user").map(|st| st.is_dir),
        Ok(true),
        "a stale negative dentry shadowed this round's directory"
    );
    assert_eq!(
        recycled.stat("/home/user/secret"),
        fresh.stat("/home/user/secret")
    );
    assert_eq!(&recycled, &fresh, "reset must be observably a fresh VFS");
    recycled.check_invariants().unwrap();
}

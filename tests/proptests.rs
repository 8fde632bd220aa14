//! Property-based tests over the core model, the simulator substrate and
//! the VFS.

use proptest::prelude::*;
use tocttou::core::model::{
    classify, expected_success_rate, success_rate, Equation1, MeasuredUs, Probability, RaceRegime,
};
use tocttou::core::stats::OnlineStats;
use tocttou::os::vfs::{InodeMeta, SymlinkPolicy, Vfs};
use tocttou::os::{Gid, Uid};

// ---------------------------------------------------------------- model ----

proptest! {
    /// Formula (1) is a probability, monotone in L, antitone in D.
    #[test]
    fn laxity_formula_bounds_and_monotonicity(
        l in -1_000.0..20_000.0f64,
        d in 0.1..1_000.0f64,
        dl in 0.0..500.0f64,
    ) {
        let p = success_rate(l, d);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(success_rate(l + dl, d) >= p - 1e-12, "monotone in L");
        prop_assert!(success_rate(l, d + dl + 0.1) <= p + 1e-12, "antitone in D");
        // Regime agreement.
        match classify(l, d) {
            RaceRegime::Hopeless => prop_assert_eq!(p, 0.0),
            RaceRegime::Dominated => prop_assert_eq!(p, 1.0),
            RaceRegime::Contended => prop_assert!(p < 1.0),
        }
    }

    /// The stochastic refinement is a probability and degrades gracefully
    /// to the deterministic formula as variance vanishes.
    #[test]
    fn stochastic_laxity_is_probability(
        lm in -100.0..500.0f64,
        ls in 0.0..50.0f64,
        dm in 1.0..200.0f64,
        ds in 0.0..20.0f64,
    ) {
        let p = expected_success_rate(MeasuredUs::new(lm, ls), MeasuredUs::new(dm, ds));
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        let exact = expected_success_rate(MeasuredUs::new(lm, 0.0), MeasuredUs::new(dm, 0.0));
        prop_assert!((exact - success_rate(lm.max(-1.0), dm)).abs() < 1e-9
            || lm <= 0.0, "zero-variance case matches formula (1)");
    }

    /// Equation 1 always yields a valid probability, bounded by its
    /// branches' envelope.
    #[test]
    fn equation1_is_total_probability(
        ps in 0.0..=1.0f64,
        a in 0.0..=1.0f64,
        b in 0.0..=1.0f64,
        c in 0.0..=1.0f64,
        d in 0.0..=1.0f64,
    ) {
        let eq = Equation1 {
            p_suspended: Probability::new(ps).unwrap(),
            p_scheduled_given_suspended: Probability::new(a).unwrap(),
            p_finished_given_suspended: Probability::new(b).unwrap(),
            p_scheduled_given_running: Probability::new(c).unwrap(),
            p_finished_given_running: Probability::new(d).unwrap(),
        };
        let p = eq.success_probability().value();
        prop_assert!((0.0..=1.0).contains(&p));
        let expected = ps * a * b + (1.0 - ps) * c * d;
        prop_assert!((p - expected).abs() < 1e-12);
        prop_assert!(eq.suspended_branch().value() <= ps + 1e-12);
        prop_assert!(eq.running_branch().value() <= 1.0 - ps + 1e-12);
    }

    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in proptest::collection::vec(-1e6..1e6f64, 1..200)) {
        let s: OnlineStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((s.sample_variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }
        prop_assert_eq!(s.min().unwrap(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merged accumulators equal sequentially-built ones.
    #[test]
    fn online_stats_merge_associative(
        xs in proptest::collection::vec(-1e3..1e3f64, 0..100),
        split in 0usize..100,
    ) {
        let k = split.min(xs.len());
        let mut left: OnlineStats = xs[..k].iter().copied().collect();
        let right: OnlineStats = xs[k..].iter().copied().collect();
        left.merge(&right);
        let whole: OnlineStats = xs.iter().copied().collect();
        prop_assert_eq!(left.count(), whole.count());
        if !xs.is_empty() {
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        }
    }
}

// ------------------------------------------------------------------ vfs ----

/// A random filesystem operation for the VFS property test.
#[derive(Debug, Clone)]
enum FsOp {
    Create(u8),
    Mkdir(u8),
    Symlink(u8, u8),
    Unlink(u8),
    Rename(u8, u8),
    Chown(u8, u32),
    Chmod(u8, u32),
    Append(u8, u16),
}

fn fsop_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        any::<u8>().prop_map(FsOp::Create),
        any::<u8>().prop_map(FsOp::Mkdir),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| FsOp::Symlink(a, b)),
        any::<u8>().prop_map(FsOp::Unlink),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| FsOp::Rename(a, b)),
        (any::<u8>(), 0u32..3000).prop_map(|(a, u)| FsOp::Chown(a, u)),
        (any::<u8>(), 0u32..0o1000).prop_map(|(a, m)| FsOp::Chmod(a, m)),
        (any::<u8>(), any::<u16>()).prop_map(|(a, n)| FsOp::Append(a, n)),
    ]
}

fn name(i: u8) -> String {
    format!("/dir{}/n{}", i % 3, i % 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// VFS invariants (no dangling entries, consistent link counts) hold
    /// under arbitrary operation sequences, and resolution never panics.
    #[test]
    fn vfs_invariants_under_random_ops(ops in proptest::collection::vec(fsop_strategy(), 0..120)) {
        let mut vfs = Vfs::new();
        let meta = InodeMeta { uid: Uid(0), gid: Gid(0), mode: 0o755 };
        for d in 0..3 {
            vfs.mkdir(&format!("/dir{d}"), meta).unwrap();
        }
        let mut created = Vec::new();
        for op in ops {
            match op {
                FsOp::Create(a) => {
                    if let Ok(ino) = vfs.create_file(&name(a), meta) {
                        created.push(ino);
                    }
                }
                FsOp::Mkdir(a) => {
                    let _ = vfs.mkdir(&name(a), meta);
                }
                FsOp::Symlink(a, b) => {
                    let _ = vfs.symlink(name(a), &name(b), (Uid(7), Gid(7)));
                }
                FsOp::Unlink(a) => {
                    let _ = vfs.unlink_detach(&name(a));
                }
                FsOp::Rename(a, b) => {
                    let _ = vfs.rename(&name(a), &name(b));
                }
                FsOp::Chown(a, u) => {
                    let _ = vfs.chown(&name(a), Uid(u), Gid(u));
                }
                FsOp::Chmod(a, m) => {
                    let _ = vfs.chmod(&name(a), m);
                }
                FsOp::Append(a, n) => {
                    if let Ok(st) = vfs.lstat(&name(a)) {
                        if !st.is_dir && !st.is_symlink {
                            let _ = vfs.append(st.ino, n as u64);
                        }
                    }
                }
            }
            vfs.check_invariants().map_err(TestCaseError::fail)?;
        }
        // Resolution is total (no panics) for every name we might have used.
        for i in 0..=255u8 {
            let _ = vfs.resolve(&name(i), SymlinkPolicy::FollowLast);
            let _ = vfs.resolve(&name(i), SymlinkPolicy::NoFollowLast);
        }
    }

    /// stat-through-symlink equals stat of the target, for random chains.
    #[test]
    fn symlink_chains_resolve_like_target(depth in 1usize..6) {
        let mut vfs = Vfs::new();
        let meta = InodeMeta { uid: Uid(42), gid: Gid(42), mode: 0o600 };
        vfs.mkdir("/d", InodeMeta { uid: Uid(0), gid: Gid(0), mode: 0o755 }).unwrap();
        vfs.create_file("/d/target", meta).unwrap();
        let mut prev = "/d/target".to_string();
        for i in 0..depth {
            let link = format!("/d/link{i}");
            vfs.symlink(prev.as_str(), &link, (Uid(0), Gid(0))).unwrap();
            prev = link;
        }
        let direct = vfs.stat("/d/target").unwrap();
        let through = vfs.stat(&prev).unwrap();
        prop_assert_eq!(direct.ino, through.ino);
        prop_assert_eq!(direct.uid, through.uid);
    }
}

// ----------------------------------------------------------------- sim -----

proptest! {
    /// The event queue dequeues in (time, insertion) order for arbitrary
    /// schedules.
    #[test]
    fn event_queue_is_stable_priority_queue(times in proptest::collection::vec(0u64..1_000, 0..200)) {
        use tocttou_sim::queue::EventQueue;
        use tocttou_sim::time::SimTime;
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(u64, usize)> = None;
        let mut count = 0;
        while let Some((at, idx)) = q.pop() {
            let key = (at.as_nanos(), idx);
            if let Some(prev) = last {
                prop_assert!(prev.0 < key.0 || (prev.0 == key.0 && prev.1 < key.1),
                    "order violated: {prev:?} then {key:?}");
            }
            last = Some(key);
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Deterministic RNG streams are reproducible and bounded sampling is
    /// in-range.
    #[test]
    fn rng_reproducible_and_bounded(seed in any::<u64>(), bound in 1u64..1_000_000) {
        use tocttou_sim::rng::SimRng;
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..50 {
            prop_assert!(a.next_below(bound) < bound);
        }
    }
}

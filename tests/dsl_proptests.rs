//! Property tests for the scenario DSL compiler.
//!
//! Three guarantees hold for *every* well-formed [`ScenarioSpec`], not just
//! the curated library:
//!
//! * compiled specs always run to completion — the interpreter cannot wedge
//!   the round, whatever trace shape the spec declares;
//! * compilation is deterministic — the same spec and seed replay the same
//!   round bit for bit, which is what makes compiled scenarios usable as
//!   Monte-Carlo subjects;
//! * benign specs (no attacker processes) never trigger the passive
//!   detector — a victim's own syscalls cannot interpose on its own
//!   windows.
//!
//! [`ScenarioSpec`]: tocttou::workloads::ScenarioSpec

use proptest::prelude::*;
use std::sync::Arc;
use tocttou::core::taxonomy::{FsCall, TocttouPair};
use tocttou::os::ids::{Gid, Uid};
use tocttou::os::machine::MachineSpec;
use tocttou::os::process::SyscallRequest;
use tocttou::sim::time::SimDuration;
use tocttou::workloads::dsl::library;
use tocttou::workloads::{Layout, ScenarioSpec, Step, SuccessRule};

/// Numbered scratch path inside the victim's home directory.
fn pf(i: u8) -> Arc<str> {
    format!("/home/user/pf{}", i % 6).into()
}

/// One well-formed block of victim steps. Blocks keep fd discipline by
/// construction: a write loop or `Step::Close` only ever follows an `OpenCreate`,
/// which always yields a live descriptor.
#[derive(Debug, Clone)]
enum Block {
    Think(u32),
    Gap(u32, u8),
    StatProbe(u8),
    LstatProbe(u8),
    AccessProbe(u8),
    CreateWrite(u8, u16),
    ChmodIt(u8, u32),
    ChownIt(u8, u32),
    RenameIt(u8, u8),
    MkdirIt(u8),
}

fn block_strategy() -> impl Strategy<Value = Block> {
    prop_oneof![
        (0u32..300).prop_map(Block::Think),
        ((0u32..120), any::<u8>()).prop_map(|(us, j)| Block::Gap(us, j)),
        any::<u8>().prop_map(Block::StatProbe),
        any::<u8>().prop_map(Block::LstatProbe),
        any::<u8>().prop_map(Block::AccessProbe),
        (any::<u8>(), any::<u16>()).prop_map(|(p, n)| Block::CreateWrite(p, n)),
        (any::<u8>(), (0u32..0o777)).prop_map(|(p, m)| Block::ChmodIt(p, m)),
        (any::<u8>(), (0u32..2000)).prop_map(|(p, u)| Block::ChownIt(p, u)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Block::RenameIt(a, b)),
        any::<u8>().prop_map(Block::MkdirIt),
    ]
}

fn lower(blocks: Vec<Block>) -> Vec<Step> {
    let mut steps = Vec::new();
    for b in blocks {
        match b {
            Block::Think(us) => steps.push(Step::Think(
                tocttou::sim::dist::DurationDist::uniform_us(0.0, f64::from(us) + 1.0),
            )),
            Block::Gap(us, j) => steps.push(Step::gap_us(us as u64, f64::from(j % 4))),
            Block::StatProbe(p) => steps.push(Step::call(SyscallRequest::Stat { path: pf(p) })),
            Block::LstatProbe(p) => steps.push(Step::call(SyscallRequest::Lstat { path: pf(p) })),
            Block::AccessProbe(p) => steps.push(Step::call(SyscallRequest::Access { path: pf(p) })),
            Block::CreateWrite(p, n) => {
                steps.push(Step::call(SyscallRequest::OpenCreate { path: pf(p) }));
                steps.push(Step::write(u64::from(n), 256));
                steps.push(Step::Close);
            }
            Block::ChmodIt(p, mode) => {
                steps.push(Step::call(SyscallRequest::Chmod { path: pf(p), mode }))
            }
            Block::ChownIt(p, uid) => steps.push(Step::call(SyscallRequest::Chown {
                path: pf(p),
                uid: Uid(uid),
                gid: Gid(uid),
            })),
            Block::RenameIt(a, b) => steps.push(Step::call(SyscallRequest::Rename {
                from: pf(a),
                to: pf(b),
            })),
            Block::MkdirIt(p) => steps.push(Step::call(SyscallRequest::Mkdir {
                path: format!("/home/user/pd{}", p % 6).into(),
            })),
        }
    }
    steps
}

/// A benign (attacker-free) spec over the random step list.
fn benign_spec(blocks: Vec<Block>, doc_size: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "prop-benign".into(),
        machine: MachineSpec::smp_xeon(),
        layout: Layout::default(),
        pair: TocttouPair::new(FsCall::Stat, FsCall::Chown).unwrap(),
        victim_name: "prop-victim".into(),
        steps: lower(blocks),
        doc_size,
        extra_files: vec![],
        attackers: vec![],
        success: SuccessRule::AttackerOwnsPrivileged,
        max_round: SimDuration::from_secs(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every well-formed spec compiles into a scenario whose round runs to
    /// completion: the victim exits, nothing wedges, and — with no
    /// attacker in the round — the passive detector stays silent and the
    /// attack cannot succeed.
    #[test]
    fn benign_specs_run_clean(
        blocks in proptest::collection::vec(block_strategy(), 0..14),
        doc_size in 0u64..512,
        seed in any::<u64>(),
    ) {
        let scenario = benign_spec(blocks, doc_size).compile();
        let (result, handles) = scenario.run_traced(seed);
        prop_assert!(result.victim_exited, "compiled victim must exit");
        prop_assert!(!result.success, "no attacker, no compromise");
        prop_assert!(
            handles.kernel.detections().is_empty(),
            "benign run flagged: {:?}",
            handles
                .kernel
                .detections()
                .iter()
                .map(|r| r.event.to_string())
                .collect::<Vec<_>>()
        );
    }

    /// Compiling the same spec twice and replaying the same seed yields
    /// identical rounds — outcome and full event trace.
    #[test]
    fn compilation_is_deterministic(
        blocks in proptest::collection::vec(block_strategy(), 0..14),
        doc_size in 0u64..512,
        seed in any::<u64>(),
    ) {
        let a = benign_spec(blocks.clone(), doc_size).compile();
        let b = benign_spec(blocks, doc_size).compile();
        let (ra, ha) = a.run_traced(seed);
        let (rb, hb) = b.run_traced(seed);
        prop_assert_eq!(ra, rb, "round outcomes differ");
        let ta: Vec<String> = ha
            .kernel
            .trace()
            .iter()
            .map(|r| format!("{} {:?}", r.at.as_nanos(), r.event))
            .collect();
        let tb: Vec<String> = hb
            .kernel
            .trace()
            .iter()
            .map(|r| format!("{} {:?}", r.at.as_nanos(), r.event))
            .collect();
        prop_assert_eq!(ta, tb, "event traces differ");
    }

    /// Library scenarios replay deterministically under attack too — the
    /// compiled attacker state machines draw from the same seed schedule
    /// every time.
    #[test]
    fn attacked_library_rounds_are_deterministic(
        which in 0usize..10,
        seed in any::<u64>(),
    ) {
        let (_, a) = &library::taxonomy_library(None)[which];
        let (_, b) = &library::taxonomy_library(None)[which];
        let ra = a.run_round(seed);
        let rb = b.run_round(seed);
        prop_assert_eq!(ra, rb, "library round {} not deterministic", which);
    }
}

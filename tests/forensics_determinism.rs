//! The window-forensics fold's byte-identity guarantees. The per-round
//! forensics (window widths, strike classifications, miss distances) are
//! accumulated in the pooled kernel and folded into
//! [`McOutcome::forensics`]; these tests pin that the fold equals a
//! per-round hand fold, survives the jobs ladder and the warm/cold
//! switch on every taxonomy-library scenario, and cannot leak out of a
//! poisoned pool — mirroring `checkpoint_determinism.rs` for the
//! forensics state specifically.
//!
//! [`McOutcome::forensics`]: tocttou::experiments::McOutcome

use tocttou::experiments::{run_mc, McConfig};
use tocttou::os::kernel::KernelPool;
use tocttou::os::ForensicsSnapshot;
use tocttou::workloads::dsl::library::taxonomy_library;
use tocttou::workloads::Scenario;

fn fjson(f: &ForensicsSnapshot) -> String {
    serde_json::to_string(f).expect("forensics snapshots serialize")
}

/// Cold-serial is the oracle; a per-round hand fold of standalone traced
/// rounds and every warm/parallel batch must reproduce its bytes, per
/// library scenario.
#[test]
fn forensics_fold_matches_hand_fold_across_jobs_ladder() {
    let rounds = 8u64;
    let base = 0x0F05_EED5;
    for (pair, scenario) in taxonomy_library(None) {
        // Hand fold: one standalone round per seed, merged in round order
        // (the merge is order-free, so any order gives the same bytes).
        let mut hand = ForensicsSnapshot::default();
        for i in 0..rounds {
            let (_, h) = scenario.run_traced(base + i);
            hand.merge(&h.kernel.forensics().snapshot());
        }
        let oracle_cfg = McConfig {
            rounds,
            base_seed: base,
            collect_ld: false,
            jobs: 1,
            cold: true,
        };
        let oracle = run_mc(&scenario, &oracle_cfg);
        assert!(
            !oracle.forensics.is_empty(),
            "{pair} {}: rounds must record forensics",
            scenario.name
        );
        assert_eq!(
            fjson(&hand),
            fjson(&oracle.forensics),
            "{pair} {}: hand fold diverged from the cold batch",
            scenario.name
        );
        for (jobs, cold) in [(1usize, false), (4, false), (4, true)] {
            let out = run_mc(
                &scenario,
                &McConfig {
                    jobs,
                    cold,
                    ..oracle_cfg.clone()
                },
            );
            assert_eq!(
                fjson(&oracle.forensics),
                fjson(&out.forensics),
                "{pair} {}: jobs={jobs} cold={cold} diverged from the oracle",
                scenario.name
            );
        }
    }
}

/// Forensics state left in a pool by previous rounds — open windows,
/// pending strikes, accumulated histograms — must be invisible to a round
/// restored from a checkpoint, exactly like traces and detections are.
#[test]
fn poisoned_pool_cannot_leak_forensics_into_a_restored_round() {
    let scenario = Scenario::gedit_smp(2048);
    let template = scenario.template_vfs();
    let ck = scenario.round_checkpoint(&template);

    let mut clean = scenario.build_from_checkpoint(&ck, 7, true, KernelPool::new());
    scenario.finish_round(&mut clean);
    let clean_f = clean.kernel.forensics().snapshot();
    assert!(!clean_f.is_empty(), "the round must record forensics");

    // Poison a pool with full traced rounds of a different scenario and
    // recycle the buffers without cleaning.
    let other = Scenario::vi_smp(100 * 1024);
    let other_template = other.template_vfs();
    let mut pool = KernelPool::new();
    for seed in [999u64, 1000] {
        let mut h = other.build_pooled(seed, true, &other_template, pool);
        other.finish_round(&mut h);
        pool = h.kernel.recycle();
    }

    let mut poisoned = scenario.build_from_checkpoint(&ck, 7, true, pool);
    scenario.finish_round(&mut poisoned);
    let poisoned_f = poisoned.kernel.forensics().snapshot();
    assert_eq!(
        fjson(&clean_f),
        fjson(&poisoned_f),
        "forensics leaked pool state"
    );
}

/// Arming the forensics event log must not perturb the forensics fold
/// (the log is an additive record, not a participant).
#[test]
fn span_tracing_does_not_change_the_forensics_fold() {
    let plain = Scenario::vi_smp(20 * 1024);
    let mut armed = Scenario::vi_smp(20 * 1024);
    armed.machine = armed.machine.clone().with_event_log();
    let cfg = McConfig {
        rounds: 6,
        base_seed: 0x5EED,
        collect_ld: false,
        jobs: 1,
        cold: false,
    };
    let a = run_mc(&plain, &cfg);
    let b = run_mc(&armed, &cfg);
    assert_eq!(fjson(&a.forensics), fjson(&b.forensics));
    assert_eq!(a.rate, b.rate, "the log must not perturb outcomes either");
}

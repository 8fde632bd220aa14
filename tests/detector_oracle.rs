//! Ground-truth oracle for the passive kernel race detector.
//!
//! Monte-Carlo rounds carry their own verdict — did `/etc/passwd` end up
//! attacker-owned? — which makes them a labeled dataset for the detector:
//! every successful attack must have been flagged (recall = 1.0), and
//! flagged-but-failed rounds (false positives) must stay under 10 % of
//! flags. Failures list the offending seeds so a regression is
//! reproducible with `Scenario::<name>().build(seed, true)`.

use tocttou::os::DefensePolicy;
use tocttou::workloads::Scenario;

const BASE_SEEDS: [u64; 3] = [0xA11CE, 0xB0B00, 0xCAFE5];
const ROUNDS_PER_SEED: u64 = 40;

/// Per-round verdict pair: (seed, attack succeeded, detector flagged).
fn run_rounds(scenario: &Scenario) -> Vec<(u64, bool, bool)> {
    let mut out = Vec::new();
    for base in BASE_SEEDS {
        for i in 0..ROUNDS_PER_SEED {
            let seed = base + i;
            let mut handles = scenario.build(seed, false);
            let result = scenario.finish_round(&mut handles);
            out.push((
                seed,
                result.success,
                !handles.kernel.detections().is_empty(),
            ));
        }
    }
    out
}

#[test]
fn recall_is_one_and_precision_at_least_ninety_percent() {
    for scenario in [Scenario::vi_smp(100 * 1024), Scenario::gedit_smp(2048)] {
        let rounds = run_rounds(&scenario);
        let successes: u64 = rounds.iter().filter(|r| r.1).count() as u64;
        let flagged: u64 = rounds.iter().filter(|r| r.2).count() as u64;
        let misses: Vec<u64> = rounds
            .iter()
            .filter(|(_, success, flag)| *success && !*flag)
            .map(|r| r.0)
            .collect();
        let false_positives: Vec<u64> = rounds
            .iter()
            .filter(|(_, success, flag)| !*success && *flag)
            .map(|r| r.0)
            .collect();

        assert!(
            successes > 0 && flagged > 0,
            "{}: oracle needs both successes ({successes}) and flags ({flagged})",
            scenario.name
        );
        assert!(
            misses.is_empty(),
            "{}: recall must be 1.0 — {} successful rounds went undetected, seeds {misses:#x?}",
            scenario.name,
            misses.len()
        );
        let tp = flagged - false_positives.len() as u64;
        let precision = tp as f64 / flagged as f64;
        println!(
            "{}: {} rounds, {} successes, {} flagged, precision {precision:.3}, recall 1.000",
            scenario.name,
            rounds.len(),
            successes,
            flagged
        );
        assert!(
            precision >= 0.9,
            "{}: precision {precision:.3} below the 0.9 floor — {} false-positive rounds, \
             seeds {false_positives:#x?}",
            scenario.name,
            false_positives.len()
        );
    }
}

/// The hardlink-swap scenario: the planted object is a second *name of
/// the privileged inode*, not a symlink, so nothing in the victim's
/// resolution path looks suspicious — the race is visible only through
/// the namespace mutations (`unlink`, then `link`) landing inside the
/// window. The ground truth must be perfect on both axes: every
/// successful round flagged (recall 1.0) and every flagged round a real
/// success (precision 1.0), with the flag sitting on the contested
/// document path. (The reported mutation is the attacker's `unlink` —
/// the detector keeps the *first* interposition, the one that broke the
/// invariant; the `link`-only interposition path is pinned down by the
/// detector's unit suite.)
#[test]
fn hardlink_scenario_precision_and_recall_are_one() {
    let scenario = Scenario::hardlink_vi_smp(100 * 1024);
    let mut successes = 0u64;
    let mut flagged = 0u64;
    let mut mismatches: Vec<u64> = Vec::new();
    for base in BASE_SEEDS {
        for i in 0..ROUNDS_PER_SEED {
            let seed = base + i;
            let mut handles = scenario.build(seed, false);
            let result = scenario.finish_round(&mut handles);
            let flag = handles
                .kernel
                .detections()
                .iter()
                .any(|r| r.event.path.as_ref() == scenario.layout.doc);
            successes += u64::from(result.success);
            flagged += u64::from(flag);
            if result.success != flag {
                mismatches.push(seed);
            }
        }
    }
    assert!(
        successes > 0,
        "oracle needs successful rounds to grade against ({successes})"
    );
    println!(
        "{}: {} rounds, {} successes, {} flagged, precision 1.000, recall 1.000",
        scenario.name,
        BASE_SEEDS.len() as u64 * ROUNDS_PER_SEED,
        successes,
        flagged
    );
    assert!(
        mismatches.is_empty(),
        "{}: precision/recall must both be 1.0 — success and detector flag disagree on seeds \
         {mismatches:#x?}",
        scenario.name
    );
}

/// The DSL taxonomy library graded the same way as the paper's
/// scenarios: every successful attack flagged (recall 1.0), false
/// positives under 10 % of flags — per scenario, across three seed bases.
/// The guard-abort construction of the compiled victims is what makes
/// this exact: a victim that notices the swap aborts before its use call,
/// so neither success nor detection can happen without the other side.
#[test]
fn dsl_library_recall_is_one_and_precision_at_least_ninety_percent() {
    for (pair, scenario) in tocttou::workloads::dsl::library::taxonomy_library(None) {
        let rounds = run_rounds(&scenario);
        let successes: u64 = rounds.iter().filter(|r| r.1).count() as u64;
        let flagged: u64 = rounds.iter().filter(|r| r.2).count() as u64;
        let misses: Vec<u64> = rounds
            .iter()
            .filter(|(_, success, flag)| *success && !*flag)
            .map(|r| r.0)
            .collect();
        let false_positives: Vec<u64> = rounds
            .iter()
            .filter(|(_, success, flag)| !*success && *flag)
            .map(|r| r.0)
            .collect();

        assert!(
            successes > 0 && flagged > 0,
            "{} ({pair}): oracle needs both successes ({successes}) and flags ({flagged})",
            scenario.name
        );
        assert!(
            misses.is_empty(),
            "{} ({pair}): recall must be 1.0 — {} successful rounds undetected, seeds {misses:#x?}",
            scenario.name,
            misses.len()
        );
        let tp = flagged - false_positives.len() as u64;
        let precision = tp as f64 / flagged as f64;
        println!(
            "{} ({pair}): {} rounds, {} successes, {} flagged, precision {precision:.3}",
            scenario.name,
            rounds.len(),
            successes,
            flagged
        );
        assert!(
            precision >= 0.9,
            "{} ({pair}): precision {precision:.3} below the 0.9 floor — {} false-positive \
             rounds, seeds {false_positives:#x?}",
            scenario.name,
            false_positives.len()
        );
    }
}

/// The library must span the taxonomy, not resample one pair: at least
/// eight distinct `<check, use>` pairs among its scenarios.
#[test]
fn dsl_library_covers_at_least_eight_distinct_pairs() {
    let library = tocttou::workloads::dsl::library::taxonomy_library(None);
    let pairs: std::collections::BTreeSet<String> =
        library.iter().map(|(pair, _)| format!("{pair}")).collect();
    assert!(
        pairs.len() >= 8,
        "taxonomy library covers only {} distinct pairs: {pairs:?}",
        pairs.len()
    );
    assert!(
        library.len() >= 8,
        "taxonomy library must ship at least 8 scenarios, got {}",
        library.len()
    );
}

/// With EDGI active the attack is stopped, but the detector must still see
/// the same windows the defense acts on: every denial is mirrored by a
/// `DetectionEvent` flagged `blocked`, one for one.
#[test]
fn edgi_denied_uses_still_emit_blocked_events() {
    for scenario in [
        Scenario::vi_smp(100 * 1024).with_defense(DefensePolicy::Edgi),
        Scenario::gedit_smp(2048).with_defense(DefensePolicy::Edgi),
    ] {
        let mut total_blocked = 0u64;
        for seed in 0..20u64 {
            let mut handles = scenario.build(seed, false);
            let result = scenario.finish_round(&mut handles);
            assert!(
                !result.success,
                "{} seed {seed}: EDGI must stop the attack",
                scenario.name
            );
            let denials = handles.kernel.defense().denials();
            let blocked = handles
                .kernel
                .detections()
                .iter()
                .filter(|r| r.event.blocked)
                .count() as u64;
            assert_eq!(
                blocked, denials,
                "{} seed {seed}: detector saw {blocked} blocked uses but the defense denied \
                 {denials} — they must agree on the same windows",
                scenario.name
            );
            total_blocked += blocked;
        }
        assert!(
            total_blocked >= 10,
            "{}: expected the guard to fire in most rounds, saw {total_blocked} blocked events",
            scenario.name
        );
    }
}

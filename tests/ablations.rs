//! Ablations: each mechanism DESIGN.md calls out moves a headline rate,
//! in a known direction, when it is switched off. Every pair compares the
//! stock scenario with one knob changed, at independent fixed seeds, and
//! asserts that the two 95% Wilson intervals are disjoint in the stated
//! direction.

use tocttou::experiments::{run_mc, McConfig, McOutcome};
use tocttou::workloads::Scenario;

/// Rounds per side. The rename pair differs by ~3.4 points around 78%,
/// which two Wilson intervals only separate beyond ~3,000 rounds.
const ROUNDS: u64 = 4_000;

fn mc(scenario: &Scenario, seed: u64) -> McOutcome {
    run_mc(
        scenario,
        &McConfig {
            rounds: ROUNDS,
            base_seed: seed,
            jobs: 0,
            ..McConfig::default()
        },
    )
}

/// Asserts the ablated interval lies entirely above (`raises`) or below
/// the stock one, and returns both outcomes.
fn ablate(
    name: &str,
    stock: &Scenario,
    ablated: &Scenario,
    seeds: (u64, u64),
    raises: bool,
) -> (McOutcome, McOutcome) {
    let (a, b) = (mc(stock, seeds.0), mc(ablated, seeds.1));
    let ((a_lo, a_hi), (b_lo, b_hi)) = (a.rate_ci95, b.rate_ci95);
    println!(
        "{name}: stock {:.1}% [{a_lo:.4}, {a_hi:.4}] -> ablated {:.1}% [{b_lo:.4}, {b_hi:.4}]",
        a.rate * 100.0,
        b.rate * 100.0
    );
    let disjoint = if raises { b_lo > a_hi } else { b_hi < a_lo };
    assert!(
        disjoint,
        "{name}: the ablated interval should lie entirely {} the stock one",
        if raises { "above" } else { "below" }
    );
    (a, b)
}

/// Without the attacker's 6 µs first-`unlink` page-fault trap, the cold
/// v1 attacker no longer loses the multi-core race it loses in Figure 9.
#[test]
fn removing_the_page_fault_trap_raises_v1_multicore() {
    let stock = Scenario::gedit_multicore_v1(2048);
    let mut ablated = stock.clone();
    ablated.machine.costs.trap_us = 0.0;
    ablate("trap", &stock, &ablated, (0xA0, 0xA1), true);
}

/// Without `stat` contention inflation, the pre-warmed v2 attacker's
/// detection loop runs faster and wins more multi-core rounds.
#[test]
fn removing_stat_contention_raises_v2_multicore() {
    let stock = Scenario::gedit_multicore_v2(2048);
    let mut ablated = stock.clone();
    ablated.machine.costs.stat_contention_factor = 1.0;
    ablate("stat contention", &stock, &ablated, (0xA2, 0xA3), true);
}

/// Background kernel activity is what makes the 1-byte vi SMP attack
/// fall short of certain (Table 1): on a quiet machine every round wins.
#[test]
fn a_quiet_machine_makes_vi_one_byte_smp_certain() {
    let stock = Scenario::vi_smp(1);
    let mut ablated = stock.clone();
    ablated.machine = ablated.machine.quiet();
    let (_, quiet) = ablate("background", &stock, &ablated, (0xA4, 0xA5), true);
    assert_eq!(quiet.successes, ROUNDS, "quiet machine: {quiet}");
}

/// When rename's new name becomes visible only at the end of the call,
/// gedit's SMP window shrinks and fewer rounds succeed.
#[test]
fn late_rename_visibility_lowers_gedit_smp() {
    let stock = Scenario::gedit_smp(2048);
    let mut ablated = stock.clone();
    ablated.machine.costs.rename_visible_frac = 1.0;
    ablate("rename visibility", &stock, &ablated, (0xA6, 0xA7), false);
}

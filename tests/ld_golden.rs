//! Golden record of the paper's L and D as the extractor reads them off
//! traced rounds: every round's `AttackObservation` (`visible_at`, `t1` and
//! `t3` in ns, and the bits of `d_us`) for fifty seeds of each scenario
//! the tables and figures extract from, plus the `run_mc` L/D outcome
//! (`l`, `d`, `window_us`, `predicted_rate_ld`) of the Table 1 and Table 2
//! scenarios. Any change to what `extract::observe` returns, or to the
//! trace it reads, shows up here as a readable diff.

use std::fmt::Write as _;
use tocttou::experiments::extract::observe;
use tocttou::experiments::monte_carlo::window_kind_of;
use tocttou::experiments::{run_mc, McConfig};
use tocttou::workloads::Scenario;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ld.txt");

const SEEDS: std::ops::Range<u64> = 0x1D00..0x1D32;

fn observed() -> Vec<Scenario> {
    vec![
        Scenario::vi_smp(1),
        Scenario::vi_smp(100 * 1024),
        Scenario::vi_uniprocessor(2 * 1024),
        Scenario::gedit_smp(2 * 1024),
        Scenario::gedit_multicore_v1(2 * 1024),
        Scenario::gedit_multicore_v2(2 * 1024),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for scenario in observed() {
        let kind = window_kind_of(&scenario);
        writeln!(out, "# {} ({kind:?})", scenario.name).unwrap();
        for seed in SEEDS {
            let (_, h) = scenario.run_traced(seed);
            let obs = observe(
                h.kernel.trace(),
                h.victim,
                h.attackers[0],
                kind,
                &scenario.layout.doc,
            );
            let Some(o) = obs else {
                writeln!(out, "{seed}: none").unwrap();
                continue;
            };
            let t1 = o.t1.map_or("-".into(), |t| t.as_nanos().to_string());
            let d = o
                .d_us
                .map_or("-".into(), |d| format!("{:016x}", d.to_bits()));
            writeln!(
                out,
                "{seed}: visible_at={} t1={t1} t3={} d_us={d}",
                o.visible_at.as_nanos(),
                o.t3.as_nanos()
            )
            .unwrap();
        }
    }
    for scenario in [Scenario::gedit_smp(2 * 1024), Scenario::vi_smp(1)] {
        let outcome = run_mc(
            &scenario,
            &McConfig {
                rounds: 300,
                base_seed: 0x1D,
                collect_ld: true,
                ..McConfig::default()
            },
        );
        writeln!(out, "# run_mc {} (300 rounds, L/D on)", scenario.name).unwrap();
        for (key, value) in [
            ("l", serde_json::to_string(&outcome.l)),
            ("d", serde_json::to_string(&outcome.d)),
            ("window_us", serde_json::to_string(&outcome.window_us)),
            (
                "predicted_rate_ld",
                serde_json::to_string(&outcome.predicted_rate_ld),
            ),
        ] {
            writeln!(out, "{key} = {}", value.expect("serialisable")).unwrap();
        }
    }
    out
}

#[test]
fn ld_observations_match_golden() {
    let got = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("re-bless golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden snapshot {GOLDEN}: {e}"));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "\nL/D observations diverged from the snapshot at\n  {GOLDEN}\n\
             first difference at line {}:\n  got:  {:?}\n  want: {:?}\n\
             The snapshot pins the extractor's output; fix the change, do\n\
             not re-bless it, unless the paper's estimators themselves are\n\
             meant to change.\n",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

//! Figure 8: event timeline of a **failed** gedit attack (program v1) on
//! the multi-core.
//!
//! The paper's analysis: the victim's rename→chmod gap is only ~3 µs while
//! the attacker needs ~17 µs (11 µs computation + 6 µs page-fault trap)
//! between `stat` and `unlink`, so `chmod`/`chown` always enqueue first and
//! the attacker's `unlink` ends up *blocked on the semaphore* behind them.

use crate::extract::{observe, WindowKind};
use crate::timeline::Timeline;
use serde::Serialize;
use tocttou_sim::time::{SimDuration, SimTime};
use tocttou_workloads::scenario::Scenario;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds to search for a representative failed round.
    pub seed: u64,
    /// Maximum seeds to try.
    pub max_tries: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 8_0001,
            max_tries: 50,
        }
    }
}

/// The reproduced figure: a rendered timeline plus the paper's key gaps.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Seed of the rendered round.
    pub seed: u64,
    /// Whether the round succeeded (expected: false).
    pub success: bool,
    /// The victim's rename-exit → chmod-enter gap, µs (paper: ~3).
    pub victim_gap_us: Option<f64>,
    /// The attacker's detecting-stat-start → unlink-start interval, µs
    /// (paper: D ≈ 22, including the 6 µs trap).
    pub attacker_stat_to_unlink_us: Option<f64>,
    /// Whether the attacker's unlink blocked on a semaphore (paper: yes).
    pub unlink_blocked: bool,
    /// The rendered ASCII timeline.
    pub timeline: String,
    /// The same timeline as an SVG document.
    pub timeline_svg: String,
}

const TITLE: &str = "Figure 8 — failed gedit attack (v1) on the multi-core";

/// Runs the Figure 8 reproduction: finds a failed v1 round that at least
/// detected the window, and renders its timeline.
pub fn run(cfg: &Config) -> Output {
    let scenario = Scenario::gedit_multicore_v1(2048);
    let mut fallback: Option<Output> = None;
    for i in 0..cfg.max_tries {
        let seed = cfg.seed + i;
        let (result, handles) = scenario.run_traced(seed);
        let obs = observe(
            handles.kernel.trace(),
            handles.victim,
            handles.attackers[0],
            WindowKind::GeditRename,
            &scenario.layout.doc,
        );
        let Some(obs) = obs else { continue };
        let out = render(&scenario, seed, result.success, &handles, &obs);
        if !result.success && obs.t1.is_some() {
            if out.unlink_blocked {
                // The paper's exact shape: the attacker detected, lost the
                // race, and its unlink waited on the semaphore behind the
                // victim's chmod/chown.
                return out;
            }
            // A detected failure without the blocked unlink is still a
            // better fallback than a non-detecting round.
            if fallback
                .as_ref()
                .is_none_or(|f| f.success || f.victim_gap_us.is_none())
            {
                fallback = Some(out);
                continue;
            }
        }
        fallback.get_or_insert(out);
    }
    fallback.expect("at least one round must open the window")
}

fn render(
    scenario: &Scenario,
    seed: u64,
    success: bool,
    handles: &tocttou_workloads::scenario::RoundHandles,
    obs: &crate::extract::AttackObservation,
) -> Output {
    use tocttou_os::event::OsEvent;
    use tocttou_os::process::SyscallName;

    let trace = handles.kernel.trace();
    // Window the chart from shortly before the into-place rename to the
    // attack's settling.
    let origin = SimTime::from_nanos(
        obs.visible_at
            .as_nanos()
            .saturating_sub(SimDuration::from_micros(80).as_nanos()),
    );
    let end = obs.t3 + SimDuration::from_micros(120);
    let tl = Timeline::from_trace(
        trace,
        &[
            (handles.victim, "gedit"),
            (handles.attackers[0], "attacker"),
        ],
        origin,
        end,
    );

    // Victim gap: rename exit → chmod enter.
    let mut rename_exit = None;
    let mut chmod_enter = None;
    let mut unlink_enter = None;
    let mut unlink_blocked = false;
    let mut pending_unlink = false;
    for r in trace.iter() {
        match &r.event {
            OsEvent::SyscallExit {
                pid,
                call: SyscallName::Rename,
                ..
            } if *pid == handles.victim && r.at >= obs.visible_at => {
                rename_exit.get_or_insert(r.at);
            }
            OsEvent::SyscallEnter {
                pid,
                call: SyscallName::Chmod,
                ..
            } if *pid == handles.victim => {
                chmod_enter.get_or_insert(r.at);
            }
            OsEvent::SyscallEnter {
                pid,
                call: SyscallName::Unlink,
                path: Some(p),
            } if *pid == handles.attackers[0] && **p == *scenario.layout.doc => {
                unlink_enter.get_or_insert(r.at);
                pending_unlink = true;
            }
            OsEvent::SemEnqueue { pid, .. } if *pid == handles.attackers[0] && pending_unlink => {
                unlink_blocked = true;
            }
            OsEvent::SyscallExit {
                pid,
                call: SyscallName::Unlink,
                ..
            } if *pid == handles.attackers[0] => {
                pending_unlink = false;
            }
            _ => {}
        }
    }
    let victim_gap_us = match (rename_exit, chmod_enter) {
        (Some(a), Some(b)) if b >= a => Some((b - a).as_micros_f64()),
        _ => None,
    };
    let attacker_stat_to_unlink_us = match (obs.t1, unlink_enter) {
        (Some(t1), Some(u)) if u >= t1 => Some((u - t1).as_micros_f64()),
        _ => None,
    };
    Output {
        seed,
        success,
        victim_gap_us,
        attacker_stat_to_unlink_us,
        unlink_blocked,
        timeline: tl.render_ascii(110),
        timeline_svg: crate::svg::span_chart(
            &crate::svg::ChartConfig {
                title: TITLE.into(),
                x_label: "time (µs, from chart origin)".into(),
                ..crate::svg::ChartConfig::default()
            },
            &tl.bar_rows(),
        ),
    }
}

impl std::fmt::Display for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 8 — failed gedit attack (program v1) on the multi-core (seed {})",
            self.seed
        )?;
        writeln!(
            f,
            "victim rename→chmod gap: {} µs (paper: ~3);  attacker stat→unlink: {} µs (paper: ~17+stat);  unlink blocked on semaphore: {}",
            self.victim_gap_us.map_or("n/a".into(), |v| format!("{v:.1}")),
            self.attacker_stat_to_unlink_us
                .map_or("n/a".into(), |v| format!("{v:.1}")),
            self.unlink_blocked
        )?;
        writeln!(
            f,
            "attack outcome: {}",
            if self.success { "SUCCESS" } else { "FAILURE" }
        )?;
        write!(f, "{}", self.timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_failed_round_with_paper_gaps() {
        let out = run(&Config {
            seed: 4,
            max_tries: 60,
        });
        assert!(!out.success, "v1 on the multi-core fails");
        let vg = out.victim_gap_us.expect("victim gap measured");
        assert!(vg < 8.0, "victim gap {vg} ≈ 3 µs");
        let ag = out
            .attacker_stat_to_unlink_us
            .expect("attacker gap measured");
        assert!(ag > vg, "attacker slower than victim: {ag} vs {vg}");
        assert!(out.timeline.contains("gedit"));
        assert!(out.timeline.contains("attacker"));
    }
}

//! Figure 10: event timeline of a **successful** gedit attack (program v2)
//! on the multi-core.
//!
//! The paper's analysis: with the page-fault removed, the attacker's
//! stat→unlink gap shrinks to ~2 µs; its `stat` starts well inside the
//! rename (t1 ≈ 27 µs in) and is *lengthened* by contention (26 µs instead
//! of the typical 4 µs), yet still identifies the window at the first
//! possible moment and wins the semaphore race by a couple of microseconds.

use crate::extract::{observe, WindowKind};
use crate::timeline::Timeline;
use serde::Serialize;
use tocttou_sim::time::{SimDuration, SimTime};
use tocttou_workloads::scenario::Scenario;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// First seed to try.
    pub seed: u64,
    /// Maximum seeds to search for a successful round.
    pub max_tries: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 10_0001,
            max_tries: 100,
        }
    }
}

/// The reproduced figure.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Seed of the rendered round.
    pub seed: u64,
    /// Whether the round succeeded (expected: true).
    pub success: bool,
    /// Duration of the detecting `stat`, µs (paper: ~26, inflated from 4).
    pub detecting_stat_us: Option<f64>,
    /// The attacker's stat-start → unlink-start interval, µs (paper: ~28,
    /// dominated by the inflated stat; the post-stat gap is ~2).
    pub stat_to_unlink_us: Option<f64>,
    /// Offset of the detecting stat's start into the rename, µs (paper: 27).
    pub t1_into_rename_us: Option<f64>,
    /// The rendered ASCII timeline.
    pub timeline: String,
    /// The same timeline as an SVG document.
    pub timeline_svg: String,
}

const TITLE: &str = "Figure 10 — successful gedit attack (v2) on the multi-core";

/// Runs the Figure 10 reproduction: finds a successful v2 round and renders
/// its timeline.
pub fn run(cfg: &Config) -> Output {
    let scenario = Scenario::gedit_multicore_v2(2048);
    let mut fallback: Option<Output> = None;
    for i in 0..cfg.max_tries {
        let seed = cfg.seed + i;
        let (result, handles) = scenario.run_traced(seed);
        let Some(obs) = observe(
            handles.kernel.trace(),
            handles.victim,
            handles.attackers[0],
            WindowKind::GeditRename,
            &scenario.layout.doc,
        ) else {
            continue;
        };
        let out = render(&scenario, seed, result.success, &handles, &obs);
        if result.success {
            return out;
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
    let origin = SimTime::from_nanos(
        obs.visible_at
            .as_nanos()
            .saturating_sub(SimDuration::from_micros(70).as_nanos()),
    );
    let end = obs.t3 + SimDuration::from_micros(100);
    let tl = Timeline::from_trace(
        trace,
        &[
            (handles.victim, "gedit"),
            (handles.attackers[0], "attacker"),
        ],
        origin,
        end,
    );

    // The detecting stat's duration and the rename's start.
    let mut detecting_stat_us = None;
    let mut rename_enter = None;
    let mut unlink_enter = None;
    if let Some(t1) = obs.t1 {
        let mut in_detecting_stat = false;
        for r in trace.iter() {
            match &r.event {
                OsEvent::SyscallEnter {
                    pid,
                    call: SyscallName::Rename,
                    path: Some(p),
                } if *pid == handles.victim && **p == *scenario.layout.doc => {
                    rename_enter = Some(r.at);
                }
                OsEvent::SyscallEnter {
                    pid,
                    call: SyscallName::Stat,
                    ..
                } if *pid == handles.attackers[0] && r.at == t1 => {
                    in_detecting_stat = true;
                }
                OsEvent::SyscallExit {
                    pid,
                    call: SyscallName::Stat,
                    ..
                } if *pid == handles.attackers[0] && in_detecting_stat => {
                    detecting_stat_us = Some((r.at - t1).as_micros_f64());
                    in_detecting_stat = false;
                }
                OsEvent::SyscallEnter {
                    pid,
                    call: SyscallName::Unlink,
                    path: Some(p),
                } if *pid == handles.attackers[0]
                    && **p == *scenario.layout.doc
                    && r.at >= t1
                    && unlink_enter.is_none() =>
                {
                    unlink_enter = Some(r.at);
                }
                _ => {}
            }
        }
    }
    let stat_to_unlink_us = match (obs.t1, unlink_enter) {
        (Some(t1), Some(u)) => Some((u - t1).as_micros_f64()),
        _ => None,
    };
    let t1_into_rename_us = match (obs.t1, rename_enter) {
        (Some(t1), Some(re)) if t1 >= re => Some((t1 - re).as_micros_f64()),
        _ => None,
    };
    Output {
        seed,
        success,
        detecting_stat_us,
        stat_to_unlink_us,
        t1_into_rename_us,
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
            "Figure 10 — successful gedit attack (program v2) on the multi-core (seed {})",
            self.seed
        )?;
        writeln!(
            f,
            "detecting stat: {} µs (paper: ~26, inflated);  stat→unlink: {} µs;  t1 into rename: {} µs (paper: 27)",
            self.detecting_stat_us.map_or("n/a".into(), |v| format!("{v:.1}")),
            self.stat_to_unlink_us.map_or("n/a".into(), |v| format!("{v:.1}")),
            self.t1_into_rename_us.map_or("n/a".into(), |v| format!("{v:.1}")),
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
    fn finds_a_successful_round_with_inflated_stat() {
        let out = run(&Config {
            seed: 50,
            max_tries: 100,
        });
        assert!(out.success, "v2 succeeds within the search budget");
        let stat = out.detecting_stat_us.expect("detecting stat measured");
        assert!(stat > 15.0, "stat inflated by contention: {stat} µs");
        let t1 = out.t1_into_rename_us.expect("t1 inside rename");
        assert!(t1 > 0.0 && t1 < 55.0, "t1 {t1} µs into rename");
        assert!(out.timeline.contains("attacker"));
    }
}

//! The extractor that the in-place walk in the parent module replaced,
//! kept as a test-only oracle for it (see the differential proptest
//! there): it collects the trace into a `Vec` of records and reads each
//! quantity in its own pass, collecting the attacker's `stat` enters and
//! their deltas for vi's D.

use super::{AttackObservation, WindowKind};
use tocttou_os::event::OsEvent;
use tocttou_os::ids::Pid;
use tocttou_os::process::SyscallName;
use tocttou_sim::time::SimTime;
use tocttou_sim::trace::{Trace, TraceRecord};

/// The oracle's observation of the round in `trace`.
pub(crate) fn observe(
    trace: &Trace<OsEvent>,
    victim: Pid,
    attacker: Pid,
    kind: WindowKind,
    doc_path: &str,
) -> Option<AttackObservation> {
    let records: Vec<_> = trace.iter().collect();

    let visible_at = match kind {
        WindowKind::ViCreat => {
            commit_after_enter(&records, victim, SyscallName::OpenCreate, Some(doc_path))?
        }
        WindowKind::GeditRename => {
            commit_after_enter(&records, victim, SyscallName::Rename, Some(doc_path))?
        }
    };

    let use_call = match kind {
        WindowKind::ViCreat => SyscallName::Chown,
        WindowKind::GeditRename => SyscallName::Chmod,
    };
    let t3 = records
        .iter()
        .find(|r| {
            r.at >= visible_at
                && matches!(
                    &r.event,
                    OsEvent::SyscallEnter { pid, call, .. } if *pid == victim && *call == use_call
                )
        })
        .map(|r| r.at)?;
    let close_at = records
        .iter()
        .find(|r| {
            r.at >= visible_at
                && matches!(
                    &r.event,
                    OsEvent::Commit { pid, call: SyscallName::Chown } if *pid == victim
                )
        })
        .map(|r| r.at)
        .unwrap_or(SimTime::MAX);

    let mut detect_enter = None;
    let mut detect_sample = None;
    let mut last_stat_enter: Option<SimTime> = None;
    for r in &records {
        match &r.event {
            OsEvent::SyscallEnter {
                pid,
                call: SyscallName::Stat,
                ..
            } if *pid == attacker => {
                last_stat_enter = Some(r.at);
            }
            OsEvent::Commit {
                pid,
                call: SyscallName::Stat,
            } if *pid == attacker && r.at >= visible_at && r.at < close_at => {
                detect_enter = last_stat_enter;
                detect_sample = Some(r.at);
            }
            _ => {}
        }
        if detect_enter.is_some() {
            break;
        }
    }

    let t1 = match kind {
        WindowKind::ViCreat => match (detect_enter, detect_sample) {
            (Some(e), Some(s)) => {
                let head = s - e;
                Some(SimTime::from_nanos(
                    visible_at.as_nanos().saturating_sub(head.as_nanos()),
                ))
            }
            _ => None,
        },
        WindowKind::GeditRename => detect_enter,
    };

    let d_us = match kind {
        WindowKind::GeditRename => detect_enter.and_then(|t1v| {
            let unlink_enter = records.iter().find(|r| {
                r.at >= t1v
                    && matches!(
                        &r.event,
                        OsEvent::SyscallEnter { pid, call: SyscallName::Unlink, path: Some(p) }
                            if *pid == attacker && &**p == doc_path
                    )
            })?;
            let trap_us: f64 = records
                .iter()
                .filter_map(|r| match &r.event {
                    OsEvent::Trap { pid, dur } if *pid == attacker && r.at == unlink_enter.at => {
                        Some(dur.as_micros_f64())
                    }
                    _ => None,
                })
                .sum();
            Some((unlink_enter.at - t1v).as_micros_f64() + trap_us)
        }),
        WindowKind::ViCreat => {
            let enters: Vec<SimTime> = records
                .iter()
                .filter_map(|r| match &r.event {
                    OsEvent::SyscallEnter {
                        pid,
                        call: SyscallName::Stat,
                        ..
                    } if *pid == attacker && detect_enter.is_none_or(|t| r.at <= t) => Some(r.at),
                    _ => None,
                })
                .collect();
            if enters.len() >= 2 {
                let deltas: Vec<f64> = enters
                    .windows(2)
                    .skip(1)
                    .map(|w| (w[1] - w[0]).as_micros_f64())
                    .collect();
                if deltas.is_empty() {
                    Some((enters[1] - enters[0]).as_micros_f64())
                } else {
                    deltas.iter().copied().reduce(f64::min)
                }
            } else {
                None
            }
        }
    };

    Some(AttackObservation {
        visible_at,
        t1,
        d_us,
        t3,
    })
}

fn commit_after_enter(
    records: &[&TraceRecord<OsEvent>],
    pid: Pid,
    call: SyscallName,
    path: Option<&str>,
) -> Option<SimTime> {
    let mut in_matching_call = false;
    for r in records {
        match &r.event {
            OsEvent::SyscallEnter {
                pid: p,
                call: c,
                path: ep,
            } if *p == pid && *c == call => {
                in_matching_call = path.is_none() || ep.as_deref() == path;
            }
            OsEvent::Commit { pid: p, call: c } if *p == pid && *c == call && in_matching_call => {
                return Some(r.at);
            }
            OsEvent::SyscallExit {
                pid: p, call: c, ..
            } if *p == pid && *c == call => {
                in_matching_call = false;
            }
            _ => {}
        }
    }
    None
}

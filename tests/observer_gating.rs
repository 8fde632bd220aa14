//! The observer gating contract.
//!
//! The kernel hands every scheduler, semaphore and syscall fact to the
//! trace and the metrics; the EDGI defense, the race detector and window
//! forensics read one shared check→use window table, which the kernel
//! keeps whenever any of them is on. Stripping or arming an observer must
//! change nothing but that observer's own output: the round's outcome,
//! every traced OS event and the EDGI denial count stay identical across
//! the default machine, `without_detector()`, `without_forensics()`,
//! `without_metrics()`, all three stripped at once, `with_event_log()`,
//! and the event log armed with the detector and metrics stripped. Each
//! observer's own output — detections, the metrics snapshot, the
//! forensics event log (and the spans derived from it) and the forensics
//! snapshot — equals the all-armed reference whenever that observer is on
//! and is empty when it is off.

use tocttou::os::spans::derive;
use tocttou::os::{DefensePolicy, ForensicsSnapshot, MachineSpec, MetricsSnapshot};
use tocttou::workloads::Scenario;

const SEEDS: [u64; 3] = [0x6A7E, 0x6A7F, 0x51DE];

/// Which observers a machine variant arms.
struct Armed {
    detector: bool,
    metrics: bool,
    forensics: bool,
    event_log: bool,
}

/// The seven observer configurations. The event log is kept by forensics,
/// so the "event log stripped" variant keeps forensics armed.
fn variants(machine: &MachineSpec) -> Vec<(&'static str, MachineSpec, Armed)> {
    let m = machine.clone();
    let armed = |detector, metrics, forensics, event_log| Armed {
        detector,
        metrics,
        forensics,
        event_log,
    };
    let stripped = m
        .clone()
        .without_detector()
        .without_forensics()
        .without_metrics();
    vec![
        ("default", m.clone(), armed(true, true, true, false)),
        (
            "without_detector",
            m.clone().without_detector(),
            armed(false, true, true, false),
        ),
        (
            "without_forensics",
            m.clone().without_forensics(),
            armed(true, true, false, false),
        ),
        (
            "without_metrics",
            m.clone().without_metrics(),
            armed(true, false, true, false),
        ),
        (
            "stripped",
            stripped.clone(),
            armed(false, false, false, false),
        ),
        (
            "event log armed",
            m.with_event_log(),
            armed(true, true, true, true),
        ),
        (
            "event log stripped",
            stripped.with_event_log(),
            armed(false, false, true, true),
        ),
    ]
}

fn scenarios() -> Vec<Scenario> {
    let mut out = vec![
        Scenario::vi_smp(100 * 1024).with_defense(DefensePolicy::Edgi),
        Scenario::gedit_smp(2048).with_defense(DefensePolicy::Edgi),
    ];
    for (_, dsl) in tocttou::workloads::dsl::library::taxonomy_library(None)
        .into_iter()
        .take(2)
    {
        out.push(dsl.clone().with_defense(DefensePolicy::Edgi));
        out.push(dsl);
    }
    out
}

#[test]
fn stripping_observers_changes_nothing_but_their_own_output() {
    let (mut denials_seen, mut detections_seen, mut windows_seen) = (0, 0, 0);
    for base in scenarios() {
        for seed in SEEDS {
            let mut all = base.clone();
            all.machine = all.machine.with_event_log();
            let (reference, ref_handles) = all.run_traced(seed);
            let rk = &ref_handles.kernel;
            let ref_trace: Vec<_> = rk.trace().iter().cloned().collect();
            let ref_denials = rk.defense().denials();
            let ref_detections: Vec<_> = rk.detections().iter().cloned().collect();
            let ref_metrics = rk.metrics().snapshot();
            let ref_windows = rk.forensics().window_log().to_vec();
            let ref_strikes = rk.forensics().strike_log().to_vec();
            let ref_spans = derive(rk.trace(), &ref_windows);
            let ref_forensics = rk.forensics().snapshot();
            denials_seen += ref_denials;
            detections_seen += ref_detections.len();
            windows_seen += ref_windows.len();
            for (label, machine, on) in variants(&base.machine) {
                let mut s = base.clone();
                s.machine = machine;
                let (result, handles) = s.run_traced(seed);
                let k = &handles.kernel;
                let at = format!("{} seed {seed:#x} {label}", base.name);
                assert_eq!(result, reference, "{at}: round outcome");
                assert!(
                    k.trace().iter().eq(ref_trace.iter()),
                    "{at}: traced OS events"
                );
                assert_eq!(k.defense().denials(), ref_denials, "{at}: EDGI denials");
                if on.detector {
                    assert!(
                        k.detections().iter().eq(ref_detections.iter()),
                        "{at}: detections"
                    );
                } else {
                    assert!(k.detections().is_empty(), "{at}: detector is off");
                }
                let want_metrics = if on.metrics {
                    ref_metrics.clone()
                } else {
                    MetricsSnapshot::default()
                };
                assert_eq!(k.metrics().snapshot(), want_metrics, "{at}: metrics");
                let log = k.forensics();
                if on.event_log {
                    assert_eq!(log.window_log(), ref_windows, "{at}: window log");
                    assert_eq!(log.strike_log(), ref_strikes, "{at}: strike log");
                    assert_eq!(
                        derive(k.trace(), log.window_log()),
                        ref_spans,
                        "{at}: derived spans"
                    );
                } else {
                    assert!(log.window_log().is_empty(), "{at}: the window log is off");
                    assert!(log.strike_log().is_empty(), "{at}: the strike log is off");
                }
                let want_forensics = if on.forensics {
                    ref_forensics.clone()
                } else {
                    ForensicsSnapshot::default()
                };
                assert_eq!(k.forensics().snapshot(), want_forensics, "{at}: forensics");
            }
        }
    }
    assert!(
        denials_seen > 0,
        "EDGI never fired: the contract went untested"
    );
    assert!(detections_seen > 0, "the detector never fired");
    assert!(windows_seen > 0, "the event log recorded no window");
}

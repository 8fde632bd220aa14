//! The observer gating contract.
//!
//! The EDGI defense, the race detector and window forensics read one
//! shared check→use window table, which the kernel keeps whenever any of
//! them is on. Stripping an observer must change nothing but that
//! observer's own output: the round's outcome, every traced OS event and
//! the EDGI denial count stay identical across the default machine,
//! `without_detector()`, `without_forensics()`, `without_metrics()` and
//! all three stripped at once. Detections are empty exactly when the
//! detector is off.

use tocttou::os::{DefensePolicy, MachineSpec};
use tocttou::workloads::Scenario;

const SEEDS: [u64; 3] = [0x6A7E, 0x6A7F, 0x51DE];

/// The five observer configurations, with whether the detector is armed.
fn variants(machine: &MachineSpec) -> Vec<(&'static str, MachineSpec, bool)> {
    let m = machine.clone();
    vec![
        ("default", m.clone(), true),
        ("without_detector", m.clone().without_detector(), false),
        ("without_forensics", m.clone().without_forensics(), true),
        ("without_metrics", m.clone().without_metrics(), true),
        (
            "stripped",
            m.without_detector().without_forensics().without_metrics(),
            false,
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
    let (mut denials_seen, mut detections_seen) = (0, 0);
    for base in scenarios() {
        for seed in SEEDS {
            let (reference, ref_handles) = base.run_traced(seed);
            let ref_trace: Vec<_> = ref_handles.kernel.trace().iter().cloned().collect();
            let ref_denials = ref_handles.kernel.defense().denials();
            let ref_detections: Vec<_> = ref_handles.kernel.detections().iter().cloned().collect();
            denials_seen += ref_denials;
            detections_seen += ref_detections.len();
            for (label, machine, detect) in variants(&base.machine) {
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
                if detect {
                    assert!(
                        k.detections().iter().eq(ref_detections.iter()),
                        "{at}: detections"
                    );
                } else {
                    assert!(k.detections().is_empty(), "{at}: detector is off");
                }
            }
        }
    }
    assert!(
        denials_seen > 0,
        "EDGI never fired: the contract went untested"
    );
    assert!(detections_seen > 0, "the detector never fired");
}

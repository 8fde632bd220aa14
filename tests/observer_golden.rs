//! Golden record of everything the kernel's observers report: every span
//! derived from the round in close order, the metrics snapshot, and the
//! trace's event count and digest, for fixed-seed rounds of the paper's
//! scenarios with the forensics event log armed. The rounds cover semaphore hand-offs (gedit), preemptions
//! (uniprocessor vi, on seeds whose rounds are preempted), EDGI denials (a
//! defended taxonomy pair) and timed wakes (rpm's blocking database sync,
//! on a hand-built kernel), so any drift in what an observer sees, or in
//! when it sees it, shows up here as a readable diff.

use std::fmt::Write as _;
use std::sync::Arc;
use tocttou::os::spans::derive;
use tocttou::os::{DefensePolicy, Gid, InodeMeta, Kernel, MachineSpec, Uid};
use tocttou::sim::time::SimTime;
use tocttou::workloads::dsl::library::{self, taxonomy_library};
use tocttou::workloads::dsl::{DslAttacker, DslVictim};
use tocttou::workloads::Scenario;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/observers.txt");

const SEEDS: [u64; 2] = [0x0B5E, 0x0B5F];
/// Uniprocessor vi seeds whose rounds contain time-slice preemptions.
const PREEMPTED_SEEDS: [u64; 2] = [1336, 1548];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenarios() -> Vec<(Scenario, [u64; 2])> {
    let (_, defended) = taxonomy_library(None)
        .into_iter()
        .next()
        .expect("the taxonomy library is not empty");
    vec![
        (Scenario::vi_smp(100 * 1024), SEEDS),
        (Scenario::gedit_smp(2048), SEEDS),
        (Scenario::vi_uniprocessor(2048), PREEMPTED_SEEDS),
        (defended.with_defense(DefensePolicy::Edgi), SEEDS),
    ]
}

/// rpm installing a helper on a uniprocessor with background activity,
/// against attacker v1: the victim sleeps through its database sync.
fn rpm_round(seed: u64) -> Kernel {
    let mut k = Kernel::new(MachineSpec::uniprocessor().with_event_log(), seed);
    let dir = |uid| InodeMeta {
        uid,
        gid: Gid(uid.0),
        mode: 0o755,
    };
    k.vfs_mut().mkdir("/etc", dir(Uid::ROOT)).unwrap();
    k.vfs_mut()
        .create_file("/etc/passwd", dir(Uid::ROOT))
        .unwrap();
    k.vfs_mut().mkdir("/var", dir(Uid::ROOT)).unwrap();
    k.vfs_mut().mkdir("/var/tmp", dir(Uid(1000))).unwrap();
    let helper: Arc<str> = "/var/tmp/helper".into();
    let steps = library::rpm_install(&helper, 4096);
    let victim = k.spawn(
        "rpm",
        Uid::ROOT,
        Gid::ROOT,
        true,
        Box::new(DslVictim::new(steps.into(), seed)),
    );
    let attacker = library::attacker_v1(&helper, &"/etc/passwd".into());
    k.spawn(
        "attacker",
        Uid(1000),
        Gid(1000),
        false,
        Box::new(DslAttacker::new(Arc::new(attacker), seed)),
    );
    k.run_until_exit(victim, SimTime::from_secs(1));
    k
}

/// One round's observer record.
fn record(out: &mut String, name: &str, seed: u64, k: &Kernel) {
    let spans = derive(k.trace(), k.forensics().window_log());
    writeln!(
        out,
        "# {name} seed={seed:#x} spans={} dropped={}",
        spans.spans.len(),
        spans.dropped
    )
    .unwrap();
    for sp in &spans.spans {
        writeln!(
            out,
            "{} {} {:?} {} {:#x} {} {}",
            sp.id.0,
            if sp.parent.is_none() {
                "-".to_owned()
            } else {
                sp.parent.0.to_string()
            },
            sp.kind,
            sp.pid,
            sp.aux,
            sp.start.as_nanos(),
            sp.end.as_nanos()
        )
        .unwrap();
    }
    writeln!(out, "metrics {:?}", k.metrics().snapshot()).unwrap();
    let mut text = String::new();
    for r in k.trace().iter() {
        writeln!(text, "{r:?}").unwrap();
    }
    writeln!(
        out,
        "trace events={} fnv={:#018x}",
        k.trace().len(),
        fnv1a(text.as_bytes())
    )
    .unwrap();
}

fn render() -> String {
    let mut out = String::new();
    let mut denials = 0;
    for (mut s, seeds) in scenarios() {
        s.machine = s.machine.with_event_log();
        for seed in seeds {
            let (_, handles) = s.run_traced(seed);
            denials += handles.kernel.defense().denials();
            record(&mut out, &s.name, seed, &handles.kernel);
        }
    }
    assert!(denials > 0, "the defended pair must exercise EDGI denials");
    for seed in SEEDS {
        record(&mut out, "rpm-uniprocessor", seed, &rpm_round(seed));
    }
    out
}

#[test]
fn observer_outputs_match_golden() {
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
            "\nobserver outputs diverged from the snapshot at\n  {GOLDEN}\n\
             first difference at line {}:\n  got:  {:?}\n  want: {:?}\n\
             If the change is intentional, re-bless it with:\n  \
             UPDATE_GOLDEN=1 cargo test --test observer_golden\n",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

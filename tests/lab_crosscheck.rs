//! Cross-check of the native lab against the simulator. The lab's host
//! executor runs the scenarios' own DSL step machines with real syscalls,
//! so a native run must issue the calls a simulated round's program
//! issues: the same `(call, primary path)` sequence, once the run
//! directory's prefix is stripped from the host paths. Needs neither root
//! nor a second CPU, except where a test says so.

use std::path::Path;
use std::sync::Arc;
use tocttou::lab::host::{map, materialise, run_program, HostProcess};
use tocttou::lab::is_root;
use tocttou::os::{Action, LogicCtx, OsEvent, Pid, ProcessLogic, SyscallName, SyscallResult};
use tocttou::workloads::dsl::{library, DslAttacker};
use tocttou::workloads::{RoundHandles, Scenario};

type Call = (SyscallName, Option<String>);

const SEED: u64 = 7;

/// The calls `who` enters in a traced simulated round of `scenario`.
fn simulated(scenario: &Scenario, who: impl Fn(&RoundHandles) -> Pid) -> Vec<Call> {
    let (_, handles) = scenario.run_traced(SEED);
    let pid = who(&handles);
    handles
        .kernel
        .trace()
        .iter()
        .filter_map(|r| match &r.event {
            OsEvent::SyscallEnter { pid: p, call, path } if *p == pid => {
                Some((*call, path.as_deref().map(str::to_owned)))
            }
            _ => None,
        })
        .collect()
}

/// Records the calls of the program it wraps, in the run directory
/// `root`, each path as the host path with `root` stripped.
struct Recorder<'a> {
    logic: &'a mut dyn ProcessLogic,
    root: &'a Path,
    calls: Vec<Call>,
}

impl ProcessLogic for Recorder<'_> {
    fn next_action(&mut self, ctx: &LogicCtx, last: Option<&SyscallResult>) -> Action {
        let action = self.logic.next_action(ctx, last);
        if let Action::Syscall(req) = &action {
            let path = req.primary_path().map(|p| {
                let host = map(self.root, p).unwrap();
                let rel = host
                    .strip_prefix(self.root)
                    .expect("mapped inside the run directory");
                format!("/{}", rel.display())
            });
            self.calls.push((req.name(), path));
        }
        action
    }
}

/// Runs `logic` with real syscalls on a materialised copy of `scenario`'s
/// filesystem until it exits or has issued `limit` calls, and returns its
/// calls.
fn native(name: &str, scenario: &Scenario, logic: &mut dyn ProcessLogic, limit: u64) -> Vec<Call> {
    let dir = std::env::temp_dir().join(format!("tocttou-xcheck-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    materialise(&dir, &scenario.template_vfs(), is_root()).unwrap();
    let mut recorder = Recorder {
        logic,
        root: &dir,
        calls: Vec::new(),
    };
    run_program(&mut recorder, &mut HostProcess::new(&dir), |run| {
        run.calls >= limit
    });
    let calls = recorder.calls;
    std::fs::remove_dir_all(&dir).ok();
    calls
}

/// A benign round: the victim alone, natively and simulated.
fn assert_benign_victim_matches(name: &str, mut scenario: Scenario) {
    scenario.attacker.clear();
    let want = simulated(&scenario, |h| h.victim);
    let got = native(name, &scenario, &mut scenario.victim.logic(SEED), u64::MAX);
    assert!(want.len() >= 4, "{name}: {want:?}");
    assert_eq!(
        got, want,
        "{name}: native calls differ from the simulated victim's"
    );
}

#[test]
fn benign_native_saves_issue_the_simulated_victims_calls() {
    assert_benign_victim_matches("vi-smp", Scenario::vi_smp(100 * 1024));
    assert_benign_victim_matches("gedit-smp", Scenario::gedit_smp(2048));
    assert_benign_victim_matches("gedit-mc-v2", Scenario::gedit_multicore_v2(2048));
}

#[test]
fn native_v2_rehearses_in_the_simulated_order() {
    let scenario = Scenario::gedit_multicore_v2(2048);
    let prof = Arc::clone(&scenario.attacker[0]);
    let mut want = simulated(&scenario, |h| h.attackers[0]);
    want.truncate(12);
    let got = native("v2", &scenario, &mut DslAttacker::new(prof, SEED), 12);
    assert_eq!(want.len(), 12);
    let order = [SyscallName::Stat, SyscallName::Unlink, SyscallName::Symlink];
    assert!(
        want.iter()
            .map(|c| c.0)
            .eq(order.iter().copied().cycle().take(12)),
        "{want:?}"
    );
    assert_eq!(got, want, "native v2 differs from the simulated v2");
}

#[test]
fn guarded_taxonomy_victims_issue_the_simulated_calls() {
    if !is_root() {
        eprintln!("skipping: requires root (the guards check the attacker's ownership)");
        return;
    }
    assert_benign_victim_matches("maildrop", library::maildrop(4096).compile());
    assert_benign_victim_matches("tmp-logrotate", library::tmp_logrotate(4096).compile());
}

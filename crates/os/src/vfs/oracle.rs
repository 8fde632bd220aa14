//! The frozen v1 resolver, kept as a differential-testing oracle.
//!
//! [`PathVfs`] is the pre-dentry-cache filesystem: directories map `String`
//! names to inodes in a `BTreeMap` and every resolution re-walks the path
//! string component by component. It is deliberately simple and slow — the
//! point is that its behaviour is easy to audit. The live
//! [`Vfs`](super::Vfs) (interned names, dentry maps, negative entries,
//! overlay COW) is differential-tested against it on randomized operation
//! sequences, the same oracle pattern used for the event queue (against a
//! binary heap) and the warm-boot checkpoints.
//!
//! Compiled only under `cfg(test)` or the `vfs-oracle` feature so release
//! binaries never carry it.

use super::{InodeMeta, StatBuf, SymlinkPolicy, MAX_SYMLINK_DEPTH};
use crate::error::OsError;
use crate::ids::{Gid, Ino, SemId, Uid};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What an oracle inode is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InodeKind {
    /// A regular file with `size` bytes of (unmaterialized) data.
    Regular {
        /// Current size in bytes.
        size: u64,
    },
    /// A directory.
    Directory {
        /// Name → inode map. `BTreeMap` keeps iteration deterministic.
        entries: BTreeMap<String, Ino>,
    },
    /// A symbolic link to `target`.
    Symlink {
        /// Link target path (absolute or relative).
        target: String,
    },
}

/// One oracle inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// This inode's number.
    pub ino: Ino,
    /// File/directory/symlink payload.
    pub kind: InodeKind,
    /// Ownership and mode.
    pub meta: InodeMeta,
    /// The kernel semaphore serializing mutations of this inode.
    pub sem: SemId,
    /// Link count (directory entries referencing this inode).
    pub nlink: u32,
}

impl Inode {
    /// Returns the directory entry map.
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if this is not a directory.
    pub fn entries(&self) -> Result<&BTreeMap<String, Ino>, OsError> {
        match &self.kind {
            InodeKind::Directory { entries } => Ok(entries),
            _ => Err(OsError::Enotdir),
        }
    }

    fn entries_mut(&mut self) -> Result<&mut BTreeMap<String, Ino>, OsError> {
        match &mut self.kind {
            InodeKind::Directory { entries } => Ok(entries),
            _ => Err(OsError::Enotdir),
        }
    }

    /// File size in bytes (0 for non-regular files).
    pub fn size(&self) -> u64 {
        match &self.kind {
            InodeKind::Regular { size } => *size,
            _ => 0,
        }
    }

    /// Whether this inode is a symlink.
    pub fn is_symlink(&self) -> bool {
        matches!(self.kind, InodeKind::Symlink { .. })
    }

    /// Whether this inode is a directory.
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, InodeKind::Directory { .. })
    }
}

/// The outcome of resolving a path down to its parent directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// The parent directory's inode.
    pub parent: Ino,
    /// The final path component.
    pub name: String,
    /// The inode the final component currently binds to, if any.
    pub ino: Option<Ino>,
}

/// The v1 string-walking filesystem tree (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PathVfs {
    inodes: Vec<Option<Arc<Inode>>>,
    root: Ino,
    next_sem: u32,
}

impl Default for PathVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl PathVfs {
    /// A filesystem containing only a root directory owned by root.
    pub fn new() -> Self {
        let mut vfs = PathVfs {
            inodes: Vec::new(),
            root: Ino(0),
            next_sem: 0,
        };
        let root = vfs.alloc(
            InodeKind::Directory {
                entries: BTreeMap::new(),
            },
            InodeMeta {
                uid: Uid::ROOT,
                gid: Gid::ROOT,
                mode: 0o755,
            },
        );
        vfs.root = root;
        vfs
    }

    /// The root directory's inode number.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// Total live inodes.
    pub fn inode_count(&self) -> usize {
        self.inodes.iter().filter(|i| i.is_some()).count()
    }

    fn alloc(&mut self, kind: InodeKind, meta: InodeMeta) -> Ino {
        let ino = Ino(self.inodes.len() as u32);
        let sem = SemId(self.next_sem);
        self.next_sem += 1;
        self.inodes.push(Some(Arc::new(Inode {
            ino,
            kind,
            meta,
            sem,
            nlink: 1,
        })));
        ino
    }

    /// Immutable access to an inode.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the inode was freed or never existed.
    pub fn inode(&self, ino: Ino) -> Result<&Inode, OsError> {
        self.inodes
            .get(ino.index())
            .and_then(|i| i.as_deref())
            .ok_or(OsError::Enoent)
    }

    fn inode_mut(&mut self, ino: Ino) -> Result<&mut Inode, OsError> {
        self.inodes
            .get_mut(ino.index())
            .and_then(|i| i.as_mut())
            .map(Arc::make_mut)
            .ok_or(OsError::Enoent)
    }

    /// The semaphore guarding the directory containing `path`'s final
    /// component.
    ///
    /// # Errors
    ///
    /// Standard resolution errors (`ENOENT`, `ENOTDIR`, `ELOOP`).
    pub fn dir_sem_of(&self, path: &str) -> Result<SemId, OsError> {
        let r = self.resolve(path, SymlinkPolicy::NoFollowLast)?;
        Ok(self.inode(r.parent)?.sem)
    }

    /// The semaphore guarding the file inode `path` currently resolves to.
    ///
    /// # Errors
    ///
    /// Resolution errors, or `ENOENT` if the final component is dangling.
    pub fn file_sem_of(&self, path: &str, follow_last: bool) -> Result<SemId, OsError> {
        let policy = if follow_last {
            SymlinkPolicy::FollowLast
        } else {
            SymlinkPolicy::NoFollowLast
        };
        let r = self.resolve(path, policy)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        Ok(self.inode(ino)?.sem)
    }

    /// Resolves `path` to its parent directory and final component, walking
    /// the path string component by component.
    ///
    /// # Errors
    ///
    /// * `EINVAL` — empty or non-absolute path;
    /// * `ENOENT` — a missing intermediate component;
    /// * `ENOTDIR` — an intermediate component is not a directory;
    /// * `ELOOP` — more than [`MAX_SYMLINK_DEPTH`] symlink traversals.
    pub fn resolve(&self, path: &str, policy: SymlinkPolicy) -> Result<Resolved, OsError> {
        self.resolve_depth(path, policy, 0)
    }

    fn resolve_depth(
        &self,
        path: &str,
        policy: SymlinkPolicy,
        depth: usize,
    ) -> Result<Resolved, OsError> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(OsError::Eloop);
        }
        if !path.starts_with('/') {
            return Err(OsError::Einval);
        }
        let mut components = path.split('/').filter(|c| !c.is_empty()).peekable();
        if components.peek().is_none() {
            return Err(OsError::Einval);
        }
        let mut dir = self.root;
        while let Some(comp) = components.next() {
            let is_last = components.peek().is_none();
            if is_last {
                let entries = self.inode(dir)?.entries()?;
                let bound = entries.get(comp).copied();
                if let (SymlinkPolicy::FollowLast, Some(ino)) = (policy, bound) {
                    if let InodeKind::Symlink { target } = &self.inode(ino)?.kind {
                        let target = target.clone();
                        return self.resolve_depth(&target, policy, depth + 1);
                    }
                }
                return Ok(Resolved {
                    parent: dir,
                    name: comp.to_string(),
                    ino: bound,
                });
            }
            let entries = self.inode(dir)?.entries()?;
            let next = *entries.get(comp).ok_or(OsError::Enoent)?;
            let next_inode = self.inode(next)?;
            match &next_inode.kind {
                InodeKind::Directory { .. } => dir = next,
                InodeKind::Symlink { target } => {
                    let mut redirected = target.clone();
                    for rest in components {
                        if !redirected.ends_with('/') {
                            redirected.push('/');
                        }
                        redirected.push_str(rest);
                    }
                    return self.resolve_depth(&redirected, policy, depth + 1);
                }
                InodeKind::Regular { .. } => return Err(OsError::Enotdir),
            }
        }
        unreachable!("loop always returns on the last component");
    }

    /// `stat(2)`.
    ///
    /// # Errors
    ///
    /// Resolution errors, or `ENOENT` for a dangling final component.
    pub fn stat(&self, path: &str) -> Result<StatBuf, OsError> {
        let r = self.resolve(path, SymlinkPolicy::FollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        Ok(self.statbuf(ino, false))
    }

    /// `lstat(2)`.
    ///
    /// # Errors
    ///
    /// Resolution errors, or `ENOENT` for a dangling final component.
    pub fn lstat(&self, path: &str) -> Result<StatBuf, OsError> {
        let r = self.resolve(path, SymlinkPolicy::NoFollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        let is_symlink = self.inode(ino)?.is_symlink();
        Ok(self.statbuf(ino, is_symlink))
    }

    fn statbuf(&self, ino: Ino, is_symlink: bool) -> StatBuf {
        let inode = self.inode(ino).expect("statbuf of live inode");
        StatBuf {
            ino,
            uid: inode.meta.uid,
            gid: inode.meta.gid,
            mode: inode.meta.mode,
            size: inode.size(),
            nlink: inode.nlink,
            is_symlink,
            is_dir: inode.is_dir(),
        }
    }

    /// `readlink(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the path is dangling; `EINVAL` if it is not a symlink.
    pub fn readlink(&self, path: &str) -> Result<String, OsError> {
        let r = self.resolve(path, SymlinkPolicy::NoFollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        match &self.inode(ino)?.kind {
            InodeKind::Symlink { target } => Ok(target.clone()),
            _ => Err(OsError::Einval),
        }
    }

    /// `mkdir(2)`.
    ///
    /// # Errors
    ///
    /// `EEXIST` if the name is taken; resolution errors otherwise.
    pub fn mkdir(&mut self, path: &str, meta: InodeMeta) -> Result<Ino, OsError> {
        let r = self.resolve(path, SymlinkPolicy::NoFollowLast)?;
        if r.ino.is_some() {
            return Err(OsError::Eexist);
        }
        let ino = self.alloc(
            InodeKind::Directory {
                entries: BTreeMap::new(),
            },
            meta,
        );
        self.inode_mut(r.parent)?.entries_mut()?.insert(r.name, ino);
        Ok(ino)
    }

    /// Creates a regular file (the commit step of `open(O_CREAT)`).
    ///
    /// # Errors
    ///
    /// `EISDIR` if the name is bound to a directory; resolution errors
    /// otherwise.
    pub fn create_file(&mut self, path: &str, meta: InodeMeta) -> Result<Ino, OsError> {
        let r = self.resolve(path, SymlinkPolicy::FollowLast)?;
        match r.ino {
            Some(existing) => {
                let node = self.inode_mut(existing)?;
                match &mut node.kind {
                    InodeKind::Regular { size } => {
                        *size = 0;
                        Ok(existing)
                    }
                    InodeKind::Directory { .. } => Err(OsError::Eisdir),
                    InodeKind::Symlink { .. } => {
                        unreachable!("FollowLast never yields a final symlink")
                    }
                }
            }
            None => {
                let ino = self.alloc(InodeKind::Regular { size: 0 }, meta);
                self.inode_mut(r.parent)?.entries_mut()?.insert(r.name, ino);
                Ok(ino)
            }
        }
    }

    /// Opens an existing file, following symlinks.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling; `EISDIR` for directories.
    pub fn open_existing(&self, path: &str) -> Result<Ino, OsError> {
        let r = self.resolve(path, SymlinkPolicy::FollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        if self.inode(ino)?.is_dir() {
            return Err(OsError::Eisdir);
        }
        Ok(ino)
    }

    /// Appends `bytes` to the file at inode `ino`.
    ///
    /// # Errors
    ///
    /// `EBADF` if the inode is not a regular file.
    pub fn append(&mut self, ino: Ino, bytes: u64) -> Result<u64, OsError> {
        let node = self.inode_mut(ino)?;
        match &mut node.kind {
            InodeKind::Regular { size } => {
                *size += bytes;
                Ok(*size)
            }
            _ => Err(OsError::Ebadf),
        }
    }

    /// `symlink(2)`.
    ///
    /// # Errors
    ///
    /// `EEXIST` if `linkpath` is taken.
    pub fn symlink(
        &mut self,
        target: &str,
        linkpath: &str,
        owner: (Uid, Gid),
    ) -> Result<Ino, OsError> {
        let r = self.resolve(linkpath, SymlinkPolicy::NoFollowLast)?;
        if r.ino.is_some() {
            return Err(OsError::Eexist);
        }
        let ino = self.alloc(
            InodeKind::Symlink {
                target: target.to_string(),
            },
            InodeMeta {
                uid: owner.0,
                gid: owner.1,
                mode: 0o777,
            },
        );
        self.inode_mut(r.parent)?.entries_mut()?.insert(r.name, ino);
        Ok(ino)
    }

    /// `link(2)` reference semantics: binds `linkpath` to the inode
    /// `existing` currently names (without following a final symlink, like
    /// `linkat` without `AT_SYMLINK_FOLLOW`) and bumps its link count.
    ///
    /// # Errors
    ///
    /// `ENOENT` if `existing` is dangling, `EPERM` if it is a directory,
    /// `EEXIST` if `linkpath` is taken; resolution errors otherwise.
    pub fn link(&mut self, existing: &str, linkpath: &str) -> Result<Ino, OsError> {
        let re = self.resolve(existing, SymlinkPolicy::NoFollowLast)?;
        let src = re.ino.ok_or(OsError::Enoent)?;
        if self.inode(src)?.is_dir() {
            return Err(OsError::Eperm);
        }
        let rl = self.resolve(linkpath, SymlinkPolicy::NoFollowLast)?;
        if rl.ino.is_some() {
            return Err(OsError::Eexist);
        }
        self.inode_mut(rl.parent)?
            .entries_mut()?
            .insert(rl.name, src);
        self.inode_mut(src)?.nlink += 1;
        Ok(src)
    }

    /// The detach half of `unlink(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling; `EISDIR` for directories (use `rmdir`).
    pub fn unlink_detach(&mut self, path: &str) -> Result<(Ino, u64), OsError> {
        let r = self.resolve(path, SymlinkPolicy::NoFollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        if self.inode(ino)?.is_dir() {
            return Err(OsError::Eisdir);
        }
        let size = self.inode(ino)?.size();
        self.inode_mut(r.parent)?.entries_mut()?.remove(&r.name);
        let node = self.inode_mut(ino)?;
        node.nlink = node.nlink.saturating_sub(1);
        Ok((ino, size))
    }

    /// `rmdir(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling, `ENOTDIR` if not a directory, `ENOTEMPTY` if
    /// the directory has entries.
    pub fn rmdir(&mut self, path: &str) -> Result<(), OsError> {
        let r = self.resolve(path, SymlinkPolicy::NoFollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        let node = self.inode(ino)?;
        if !node.is_dir() {
            return Err(OsError::Enotdir);
        }
        if !node.entries()?.is_empty() {
            return Err(OsError::Enotempty);
        }
        self.inode_mut(r.parent)?.entries_mut()?.remove(&r.name);
        self.inodes[ino.index()] = None;
        Ok(())
    }

    /// `rename(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if `from` is dangling; resolution errors otherwise.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), OsError> {
        let rf = self.resolve(from, SymlinkPolicy::NoFollowLast)?;
        let src = rf.ino.ok_or(OsError::Enoent)?;
        let rt = self.resolve(to, SymlinkPolicy::NoFollowLast)?;
        if let Some(replaced) = rt.ino {
            if replaced == src {
                return Ok(());
            }
            let node = self.inode_mut(replaced)?;
            node.nlink = node.nlink.saturating_sub(1);
        }
        self.inode_mut(rf.parent)?.entries_mut()?.remove(&rf.name);
        self.inode_mut(rt.parent)?
            .entries_mut()?
            .insert(rt.name, src);
        Ok(())
    }

    /// `chmod(2)`: follows symlinks.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling.
    pub fn chmod(&mut self, path: &str, mode: u32) -> Result<Ino, OsError> {
        let r = self.resolve(path, SymlinkPolicy::FollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        self.inode_mut(ino)?.meta.mode = mode;
        Ok(ino)
    }

    /// `chown(2)`: follows symlinks.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling.
    pub fn chown(&mut self, path: &str, uid: Uid, gid: Gid) -> Result<Ino, OsError> {
        let r = self.resolve(path, SymlinkPolicy::FollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        let node = self.inode_mut(ino)?;
        node.meta.uid = uid;
        node.meta.gid = gid;
        Ok(ino)
    }

    /// Checks the standard VFS invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut refcount: std::collections::HashMap<Ino, u32> = std::collections::HashMap::new();
        for inode in self.inodes.iter().flatten() {
            if let InodeKind::Directory { entries } = &inode.kind {
                for (name, target) in entries {
                    if self.inode(*target).is_err() {
                        return Err(format!(
                            "dangling entry {name:?} -> {target} in {}",
                            inode.ino
                        ));
                    }
                    *refcount.entry(*target).or_insert(0) += 1;
                }
            }
        }
        for inode in self.inodes.iter().flatten() {
            if inode.is_dir() {
                continue;
            }
            let refs = refcount.get(&inode.ino).copied().unwrap_or(0);
            if refs != inode.nlink {
                return Err(format!(
                    "{}: nlink {} but {} directory references",
                    inode.ino, inode.nlink, refs
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(uid: u32) -> InodeMeta {
        InodeMeta {
            uid: Uid(uid),
            gid: Gid(uid),
            mode: 0o644,
        }
    }

    fn setup() -> PathVfs {
        let mut vfs = PathVfs::new();
        vfs.mkdir("/etc", meta(0)).unwrap();
        vfs.create_file("/etc/passwd", meta(0)).unwrap();
        vfs.mkdir("/home", meta(0)).unwrap();
        vfs.mkdir("/home/user", meta(1000)).unwrap();
        vfs
    }

    #[test]
    fn oracle_smoke() {
        let mut vfs = setup();
        vfs.symlink("/etc/passwd", "/home/user/link", (Uid(1000), Gid(1000)))
            .unwrap();
        assert_eq!(vfs.stat("/home/user/link").unwrap().uid, Uid::ROOT);
        assert!(vfs.lstat("/home/user/link").unwrap().is_symlink);
        assert_eq!(vfs.stat("/"), Err(OsError::Einval));
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn oracle_link_counts() {
        let mut vfs = setup();
        let ino = vfs.link("/etc/passwd", "/home/user/pw").unwrap();
        assert_eq!(vfs.stat("/etc/passwd").unwrap().nlink, 2);
        assert_eq!(vfs.stat("/home/user/pw").unwrap().ino, ino);
        vfs.unlink_detach("/etc/passwd").unwrap();
        assert_eq!(vfs.stat("/home/user/pw").unwrap().nlink, 1);
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn oracle_link_errors() {
        let mut vfs = setup();
        assert_eq!(vfs.link("/home/user", "/home/user/d"), Err(OsError::Eperm));
        assert_eq!(vfs.link("/etc/ghost", "/home/user/x"), Err(OsError::Enoent));
        assert_eq!(vfs.link("/etc/passwd", "/etc/passwd"), Err(OsError::Eexist));
    }
}

//! The simulated virtual filesystem.
//!
//! This layer implements Unix *semantics* — inodes, directories, hard and
//! symbolic links, path resolution, ownership and permission metadata. All
//! operations here are instantaneous; the syscall engine (`crate::syscall`)
//! wraps them in timed phases and semaphore acquisition, which is where the
//! race conditions live.
//!
//! Every inode carries the id of the kernel semaphore that serializes
//! mutations under it; for entries of a directory, the **parent directory's
//! semaphore** is the contention point — matching the paper's observation
//! that the victim's `chmod`/`chown` and the attacker's `unlink`/`symlink`
//! "compete for the same semaphore".
//!
//! # v2: interned names, dentry maps, overlay copy-on-write
//!
//! Path resolution is the hottest operation of the Monte-Carlo engine (the
//! attacker spins on `stat`), so the v2 store is built for a warm steady
//! state:
//!
//! * **Name interning** — every path component is a [`Name`] (a `u32` id)
//!   in a per-VFS table; a full-path cache maps each path string it has
//!   seen to its interned component list. Mutating operations intern as
//!   they resolve, and [`Vfs::warm_path`] lets scenario template builders
//!   intern every layout path once up front. Resolving a path that is
//!   already interned (in the template, or earlier in the same round)
//!   allocates nothing and never splits it; it still hashes the full path
//!   string once (FNV, a byte at a time) to find the cached split, and the
//!   kernel's one-entry stat memo skips even that for an attacker
//!   re-sampling one path. A path a round meets first (a file the victim
//!   creates that the template never named) is split once in that round
//!   and costs one allocation per new name plus two for its split, in the
//!   fork's name overlay.
//! * **Dentry maps** — a directory maps `Name → Ino` in a [`DirMap`]
//!   (binary search over a sorted vec; directories here hold a handful of
//!   entries). A negative-entry side table remembers `(dir, name)` lookups
//!   that missed, and is purged on every insert so it can never shadow a
//!   live entry.
//! * **Read-only resolution stays `&self`** — a component name absent from
//!   the intern table provably exists in no directory (all entries are
//!   interned), so read paths never need to intern anything.
//! * **Overlay COW forks** — the inode table is a frozen `Arc` base plus a
//!   per-fork overlay of `Slot`s, and the name table is a frozen `Arc`
//!   table plus a per-fork overlay of names and path splits.
//!   [`Vfs::freeze`] merges both overlays into their bases; cloning a
//!   frozen template is two reference-count bumps plus empty overlays.
//!   The first mutation of an inode copies just that inode
//!   ([`Arc::make_mut`]); a name a fork interns goes to its overlay under
//!   the id the next free slot of the shared table would give it, so the
//!   shared table is never copied and ids (hence `DirMap` order) match an
//!   unshared build. The warm-boot checkpoint machinery restores a
//!   filesystem in O(changed inodes), and a pooled restore clears the
//!   name overlay but keeps its capacity.
//!
//! The pre-v2 resolver survives verbatim as `oracle::PathVfs` (under
//! `cfg(test)` / the `vfs-oracle` feature) and v2 is differential-tested
//! against it on randomized operation sequences.

use crate::error::OsError;
use crate::ids::{Gid, Ino, SemId, Uid};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

#[cfg(any(test, feature = "vfs-oracle"))]
pub mod oracle;

/// Maximum symlink traversals before `ELOOP`, matching Linux's nested-link
/// limit.
pub const MAX_SYMLINK_DEPTH: usize = 8;

/// An interned path-component name: an index into the owning [`Vfs`]'s name
/// table. Ids are assigned in first-intern order and are only meaningful
/// within the VFS (and its forks) that interned them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(u32);

impl Name {
    /// The raw table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// FNV-1a, the classic short-string hash. Path components are a few bytes,
/// where SipHash's per-call setup dominates; FNV keeps the intern table's
/// lookups cheap and, unlike SipHash, is deterministic across processes.
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvBuild = BuildHasherDefault<Fnv1a>;

/// One name-interning table: component names plus the full-path component
/// cache.
#[derive(Debug, Clone, Default)]
struct Interner {
    /// Component strings in id order (offset by the table's first id).
    /// `Arc` so `names` and `index` share one allocation per name.
    names: Vec<Arc<str>>,
    /// Component string → `Name` id.
    index: HashMap<Arc<str>, Name, FnvBuild>,
    /// Full path string → interned component list. Keyed by the exact
    /// string, independent of filesystem state (it records only how the
    /// path *splits*), so entries never need invalidation.
    paths: HashMap<Box<str>, Box<[Name]>, FnvBuild>,
}

impl Interner {
    /// Interns `comp`, numbering a new name `first + names.len()`.
    fn intern(&mut self, comp: &str, first: usize) -> Name {
        if let Some(&n) = self.index.get(comp) {
            return n;
        }
        let n = Name((first + self.names.len()) as u32);
        let owned: Arc<str> = comp.into();
        self.names.push(Arc::clone(&owned));
        self.index.insert(owned, n);
        n
    }

    fn is_empty(&self) -> bool {
        self.names.is_empty() && self.paths.is_empty()
    }

    /// Empties the table, keeping the maps' capacity.
    fn clear(&mut self) {
        self.names.clear();
        self.index.clear();
        self.paths.clear();
    }
}

/// A filesystem's names: the table shared `Arc`-style with the frozen
/// template a fork came from, plus the fork's own overlay of names and
/// path splits interned since (the name counterpart of the inode overlay).
///
/// While `shared` is this filesystem's alone and the overlay is empty
/// (`Vfs::new`, template building), interning writes `shared` in place.
/// Otherwise new entries go to `local`, whose ids continue from
/// `shared.names.len()` in first-use order — exactly the ids a deep copy
/// of `shared` would assign — so a fork never copies the shared table.
/// [`Vfs::freeze`] folds the overlay into `shared`. The overlay is boxed
/// and made on first use, so a filesystem that never interns as a fork (a
/// template, a checkpoint) carries one `None` pointer for it.
#[derive(Debug, Clone, Default)]
struct NameTable {
    shared: Arc<Interner>,
    local: Option<Box<Interner>>,
}

impl NameTable {
    /// Total interned names, shared and local.
    fn len(&self) -> usize {
        self.shared.names.len() + self.local_names().len()
    }

    fn local_names(&self) -> &[Arc<str>] {
        self.local.as_ref().map_or(&[], |l| &l.names)
    }

    fn has_local(&self) -> bool {
        self.local.as_ref().is_some_and(|l| !l.is_empty())
    }

    fn lookup(&self, comp: &str) -> Option<Name> {
        let shared = self.shared.index.get(comp);
        shared
            .or_else(|| self.local.as_ref()?.index.get(comp))
            .copied()
    }

    fn get(&self, n: Name) -> Option<&str> {
        let i = n.index();
        let shared = self.shared.names.get(i);
        let s = shared.or_else(|| self.local_names().get(i - self.shared.names.len()));
        s.map(|s| &**s)
    }

    fn str_of(&self, n: Name) -> &str {
        self.get(n).expect("interned name id")
    }

    /// The cached split of `path`, if it has been interned.
    fn split(&self, path: &str) -> Option<&[Name]> {
        let shared = self.shared.paths.get(path);
        let s = shared.or_else(|| self.local.as_ref()?.paths.get(path));
        s.map(|s| &**s)
    }

    /// Interns `path`'s components and caches its split, in place when
    /// the shared table is this filesystem's alone, else in the overlay.
    fn intern_path(&mut self, path: &str) {
        if self.split(path).is_some() {
            return;
        }
        let comps = path.split('/').filter(|c| !c.is_empty());
        let in_place = if self.has_local() {
            None
        } else {
            Arc::get_mut(&mut self.shared)
        };
        match in_place {
            Some(it) => {
                let names: Box<[Name]> = comps.map(|c| it.intern(c, 0)).collect();
                it.paths.insert(path.into(), names);
            }
            None => {
                let shared = &*self.shared;
                let local = self.local.get_or_insert_with(Box::default);
                let first = shared.names.len();
                let names: Box<[Name]> = comps
                    .map(|c| match shared.index.get(c) {
                        Some(&n) => n,
                        None => local.intern(c, first),
                    })
                    .collect();
                local.paths.insert(path.into(), names);
            }
        }
    }

    /// Folds the overlay into the shared table (copying the shared table
    /// if another filesystem still holds it) and drops the overlay.
    fn freeze(&mut self) {
        let Some(mut local) = self.local.take() else {
            return;
        };
        if local.is_empty() {
            return;
        }
        let it = Arc::make_mut(&mut self.shared);
        it.names.append(&mut local.names);
        it.index.extend(local.index.drain());
        it.paths.extend(local.paths.drain());
    }

    /// Drops every name, reusing whatever storage is not shared.
    fn clear(&mut self) {
        if !self.shared.is_empty() {
            match Arc::get_mut(&mut self.shared) {
                Some(it) => it.clear(),
                None => self.shared = Arc::new(Interner::default()),
            }
        }
        if let Some(local) = &mut self.local {
            local.clear();
        }
    }

    /// The round-pool restore: shares `source`'s table and copies its
    /// overlay, keeping this overlay's capacity when `source` has none
    /// (the frozen-template case).
    fn clone_from(&mut self, source: &Self) {
        self.shared = Arc::clone(&source.shared);
        if source.has_local() {
            self.local.clone_from(&source.local);
        } else if let Some(local) = &mut self.local {
            local.clear();
        }
    }

    /// Whether both tables hold the same names under the same ids.
    fn same_names(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.shared, &other.shared) {
            return self.local_names() == other.local_names();
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }

    /// Every name in id order.
    fn iter(&self) -> impl Iterator<Item = &str> {
        let shared = self.shared.names.iter();
        shared.chain(self.local_names()).map(|s| &**s)
    }
}

/// A directory's dentry map: `Name → Ino`, sorted by name id.
///
/// Simulated directories hold a handful of entries, so a sorted vec with
/// binary search beats a tree or hash map on both lookup cost and clone
/// cost (one `memcpy`-able allocation).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirMap {
    ents: Vec<(Name, Ino)>,
}

impl DirMap {
    /// The inode bound to `name`, if any.
    pub fn get(&self, name: Name) -> Option<Ino> {
        self.ents
            .binary_search_by_key(&name, |e| e.0)
            .ok()
            .map(|i| self.ents[i].1)
    }

    /// Iterates `(name, inode)` pairs in name-id order.
    pub fn iter(&self) -> impl Iterator<Item = (Name, Ino)> + '_ {
        self.ents.iter().copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ents.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.ents.is_empty()
    }

    fn insert(&mut self, name: Name, child: Ino) {
        match self.ents.binary_search_by_key(&name, |e| e.0) {
            Ok(i) => self.ents[i].1 = child,
            Err(i) => self.ents.insert(i, (name, child)),
        }
    }

    fn remove(&mut self, name: Name) -> Option<Ino> {
        self.ents
            .binary_search_by_key(&name, |e| e.0)
            .ok()
            .map(|i| self.ents.remove(i).1)
    }
}

/// What an inode is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InodeKind {
    /// A regular file with `size` bytes of (unmaterialized) data.
    Regular {
        /// Current size in bytes.
        size: u64,
    },
    /// A directory.
    Directory {
        /// The dentry map.
        entries: DirMap,
    },
    /// A symbolic link to `target`.
    Symlink {
        /// Link target path (absolute or relative). `Arc<str>` so
        /// following the link never copies the string.
        target: Arc<str>,
    },
}

/// Ownership and mode metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeMeta {
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Permission bits (0o777-style; enforcement is advisory in the model).
    pub mode: u32,
}

/// One inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// This inode's number.
    pub ino: Ino,
    /// File/directory/symlink payload.
    pub kind: InodeKind,
    /// Ownership and mode.
    pub meta: InodeMeta,
    /// The kernel semaphore serializing mutations of this inode (for a
    /// directory: of its entries).
    pub sem: SemId,
    /// Link count (directory entries referencing this inode).
    pub nlink: u32,
}

impl Inode {
    /// Returns the dentry map.
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if this is not a directory.
    pub fn entries(&self) -> Result<&DirMap, OsError> {
        match &self.kind {
            InodeKind::Directory { entries } => Ok(entries),
            _ => Err(OsError::Enotdir),
        }
    }

    fn entries_mut(&mut self) -> Result<&mut DirMap, OsError> {
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

/// The result of `stat`-like metadata queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatBuf {
    /// Inode number.
    pub ino: Ino,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Permission bits.
    pub mode: u32,
    /// Size in bytes.
    pub size: u64,
    /// Link count — the datum `nlink`-sensitive TOCTTOU checks read.
    pub nlink: u32,
    /// True if the stat'ed object itself is a symlink (only possible via
    /// `lstat`).
    pub is_symlink: bool,
    /// True if the object is a directory.
    pub is_dir: bool,
}

/// The outcome of resolving a path down to its parent directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The parent directory's inode.
    pub parent: Ino,
    /// The final path component, interned. `None` only when a *read-only*
    /// resolution met a final component that has never been interned —
    /// which also proves no directory binds it (`ino` is `None` too).
    /// Mutating resolutions always intern, so they always carry `Some`.
    pub name: Option<Name>,
    /// The inode the final component currently binds to, if any. This is the
    /// binding **at resolution time** — a TOCTTOU-susceptible datum by
    /// design.
    pub ino: Option<Ino>,
}

/// One slot of a fork's overlay over the frozen base table.
#[derive(Debug, Clone)]
enum Slot {
    /// The base table's inode shows through.
    Inherit,
    /// This fork's (possibly mutated) inode.
    Live(Arc<Inode>),
    /// Freed in this fork (`rmdir`), whatever the base holds.
    Freed,
}

/// How a single walk over one path string ended. Owning — no borrows of the
/// VFS — so the resolution drivers can mutate (record negative dentries,
/// intern a symlink target) after the walk returns.
enum WalkEnd {
    /// Reached the parent directory of the final component.
    Done {
        resolved: Resolved,
        /// `Some((dir, name))` when the final component missed — the
        /// mutating driver records it as a negative dentry.
        miss: Option<(Ino, Name)>,
    },
    /// The final component is a symlink and the policy follows it.
    FollowFinal { target: Arc<str> },
    /// An intermediate component is a symlink; resolution restarts on the
    /// rebuilt path (target + remaining components).
    Redirect { redirected: String },
}

/// The simulated filesystem tree (see the module docs for the v2 design).
///
/// `PartialEq` compares observable state: the effective inode table, root,
/// numbering counters, the interned names in id order, shared table and
/// overlay alike (name ids appear in [`Resolved`]), and recorded semaphore
/// labels. The resolution caches (the full-path cache and the
/// negative-dentry table) are excluded — they are performance state, not
/// semantics. The sweep fork-equivalence tests use
/// it to prove a forked template is indistinguishable from one built from
/// scratch.
#[derive(Debug)]
pub struct Vfs {
    /// Frozen inode-table prefix, shared with every fork.
    base: Arc<Vec<Option<Arc<Inode>>>>,
    /// This fork's divergence from `base`, indexed like `base`; slots past
    /// `base.len()` are this fork's own allocations. Lazily grown.
    overlay: Vec<Slot>,
    /// Total inode slots (base + fork-local allocations).
    len: u32,
    root: Ino,
    next_sem: u32,
    /// Interned names: the table shared with forks plus this fork's own.
    names: NameTable,
    /// Negative dentries: `(dir, name)` lookups known to miss. Purged on
    /// insert; consulted on final-component lookups.
    neg: Vec<(Ino, Name)>,
    /// `Some` only while semaphore-label recording is on (see
    /// [`Vfs::record_sem_labels`]); `None` costs nothing per allocation.
    sem_labels: Option<Vec<(SemId, String)>>,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Vfs {
    fn clone(&self) -> Self {
        Vfs {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            len: self.len,
            root: self.root,
            next_sem: self.next_sem,
            names: self.names.clone(),
            neg: self.neg.clone(),
            sem_labels: self.sem_labels.clone(),
        }
    }

    /// Reuses the destination's overlay and negative-table allocations —
    /// this is the round-pool restore path.
    fn clone_from(&mut self, source: &Self) {
        self.base = Arc::clone(&source.base);
        self.overlay.clone_from(&source.overlay);
        self.len = source.len;
        self.root = source.root;
        self.next_sem = source.next_sem;
        self.names.clone_from(&source.names);
        self.neg.clone_from(&source.neg);
        self.sem_labels.clone_from(&source.sem_labels);
    }
}

impl PartialEq for Vfs {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len
            || self.root != other.root
            || self.next_sem != other.next_sem
            || self.sem_labels != other.sem_labels
        {
            return false;
        }
        if !self.names.same_names(&other.names) {
            return false;
        }
        (0..self.len as usize).all(|i| match (self.slot(i), other.slot(i)) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        })
    }
}

impl Vfs {
    /// A filesystem containing only a root directory owned by root.
    pub fn new() -> Self {
        let mut vfs = Vfs {
            base: Arc::new(Vec::new()),
            overlay: Vec::new(),
            len: 0,
            root: Ino(0),
            next_sem: 0,
            names: NameTable::default(),
            neg: Vec::new(),
            sem_labels: None,
        };
        vfs.root = vfs.alloc(
            InodeKind::Directory {
                entries: DirMap::default(),
            },
            InodeMeta {
                uid: Uid::ROOT,
                gid: Gid::ROOT,
                mode: 0o755,
            },
        );
        vfs
    }

    /// Restores the filesystem to its just-created state (a lone root
    /// directory owned by root), retaining allocated capacity where the
    /// storage is not shared with a template.
    ///
    /// Inode and semaphore numbering restart from zero **and every
    /// resolution cache is dropped** — the interned-name table, the
    /// full-path cache and the negative-dentry table. Name and inode ids
    /// restart from zero on reuse, so a stale cache entry from a prior
    /// round could silently alias a different file; clearing them keeps a
    /// reset filesystem observably identical to [`Vfs::new`], which the
    /// round pools rely on for bit-identical reuse.
    pub fn reset(&mut self) {
        match Arc::get_mut(&mut self.base) {
            Some(v) => v.clear(),
            None => {
                if !self.base.is_empty() {
                    self.base = Arc::new(Vec::new());
                }
            }
        }
        self.overlay.clear();
        self.len = 0;
        self.next_sem = 0;
        self.names.clear();
        self.neg.clear();
        if let Some(labels) = &mut self.sem_labels {
            labels.clear();
        }
        self.root = self.alloc(
            InodeKind::Directory {
                entries: DirMap::default(),
            },
            InodeMeta {
                uid: Uid::ROOT,
                gid: Gid::ROOT,
                mode: 0o755,
            },
        );
    }

    /// Merges this filesystem's overlay into its frozen base, making
    /// subsequent [`Clone`]s O(1) in the inode count (one `Arc` bump plus
    /// an empty overlay). Scenario template builders call this once after
    /// populating; it is idempotent and a no-op on an already-frozen tree.
    pub fn freeze(&mut self) {
        self.names.freeze();
        if self.overlay.iter().all(|s| matches!(s, Slot::Inherit)) {
            self.overlay.clear();
            return;
        }
        let merged: Vec<Option<Arc<Inode>>> = (0..self.len as usize)
            .map(|i| self.slot(i).cloned())
            .collect();
        self.base = Arc::new(merged);
        self.overlay.clear();
    }

    /// The root directory's inode number.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// Total live inodes.
    pub fn inode_count(&self) -> usize {
        (0..self.len as usize)
            .filter(|&i| self.slot(i).is_some())
            .count()
    }

    /// The component string behind an interned [`Name`], if the id belongs
    /// to this VFS's table.
    pub fn name_str(&self, name: Name) -> Option<&str> {
        self.names.get(name)
    }

    /// Pre-interns `path` (component names plus the full-path cache entry)
    /// and records a negative dentry if its final component is absent.
    /// Scenario template builders call this on every layout path so
    /// rounds — which inherit the warm tables through `clone_from` —
    /// resolve those paths without splitting them or allocating (one hash
    /// of the path string finds its cached split). Paths left unwarmed
    /// still work: a round interns them into its own name overlay.
    pub fn warm_path(&mut self, path: &str) {
        let _ = self.resolve_mut(path, SymlinkPolicy::NoFollowLast);
    }

    /// Starts recording, for every inode allocated **from now on**, the
    /// path its semaphore was created under. Off by default so the
    /// Monte-Carlo hot path never pays for the strings; the profiler
    /// enables it on a single replay round to resolve semaphore ids that
    /// belong to inodes unlinked before the round ends (e.g. the symlink
    /// an attacker plants and the victim's rename then replaces).
    pub fn record_sem_labels(&mut self) {
        self.sem_labels.get_or_insert_with(Vec::new);
    }

    /// The `(semaphore, creation path)` pairs recorded since
    /// [`Vfs::record_sem_labels`] was called (empty when recording is
    /// off). A semaphore appears at most once: ids are never reused.
    pub fn sem_labels(&self) -> &[(SemId, String)] {
        self.sem_labels.as_deref().unwrap_or(&[])
    }

    fn slot(&self, i: usize) -> Option<&Arc<Inode>> {
        if i >= self.len as usize {
            return None;
        }
        match self.overlay.get(i) {
            Some(Slot::Live(a)) => Some(a),
            Some(Slot::Freed) => None,
            Some(Slot::Inherit) | None => self.base.get(i).and_then(|s| s.as_ref()),
        }
    }

    fn alloc(&mut self, kind: InodeKind, meta: InodeMeta) -> Ino {
        let ino = Ino(self.len);
        let sem = SemId(self.next_sem);
        self.next_sem += 1;
        self.len += 1;
        let i = ino.index();
        if self.overlay.len() <= i {
            self.overlay.resize(i + 1, Slot::Inherit);
        }
        self.overlay[i] = Slot::Live(Arc::new(Inode {
            ino,
            kind,
            meta,
            sem,
            nlink: 1,
        }));
        ino
    }

    fn free_slot(&mut self, ino: Ino) {
        let i = ino.index();
        if self.overlay.len() <= i {
            self.overlay.resize(i + 1, Slot::Inherit);
        }
        self.overlay[i] = Slot::Freed;
    }

    fn label_sem(&mut self, ino: Ino, path: &str) {
        if self.sem_labels.is_some() {
            let sem = match self.slot(ino.index()) {
                Some(inode) => inode.sem,
                None => return,
            };
            if let Some(labels) = &mut self.sem_labels {
                labels.push((sem, path.to_owned()));
            }
        }
    }

    /// Immutable access to an inode.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the inode was freed or never existed.
    pub fn inode(&self, ino: Ino) -> Result<&Inode, OsError> {
        self.slot(ino.index()).map(|a| &**a).ok_or(OsError::Enoent)
    }

    /// Mutable access via copy-on-write: an inode still shared with a
    /// template (or another fork) is copied into this fork's overlay on the
    /// first write, so mutations never reach an aliased filesystem.
    fn inode_mut(&mut self, ino: Ino) -> Result<&mut Inode, OsError> {
        let i = ino.index();
        if i >= self.len as usize {
            return Err(OsError::Enoent);
        }
        if self.overlay.len() <= i {
            self.overlay.resize(i + 1, Slot::Inherit);
        }
        if matches!(self.overlay[i], Slot::Inherit) {
            match self.base.get(i).and_then(|s| s.as_ref()) {
                Some(a) => self.overlay[i] = Slot::Live(Arc::clone(a)),
                None => return Err(OsError::Enoent),
            }
        }
        match &mut self.overlay[i] {
            Slot::Live(a) => Ok(Arc::make_mut(a)),
            _ => Err(OsError::Enoent),
        }
    }

    /// The semaphore guarding the directory that contains `path`'s final
    /// component (resolving intermediate symlinks). This is what mutating
    /// syscalls acquire.
    ///
    /// # Errors
    ///
    /// Standard resolution errors (`ENOENT`, `ENOTDIR`, `ELOOP`).
    pub fn dir_sem_of(&self, path: &str) -> Result<SemId, OsError> {
        let r = self.resolve(path, SymlinkPolicy::NoFollowLast)?;
        Ok(self.inode(r.parent)?.sem)
    }

    /// The semaphore guarding the **file inode** a path currently resolves
    /// to. This is what attribute mutations (`chmod`, `chown`) and the
    /// truncation half of `unlink` serialize on — Linux 2.6's per-inode
    /// `i_sem`, the "same semaphore" of the paper's Section 3.4.
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

    /// Resolves `path` to its parent directory and final component without
    /// touching any cache state.
    ///
    /// `policy` controls whether a symlink in the **final** component is
    /// followed (intermediate symlinks are always followed). With
    /// `FollowLast`, following continues until a non-symlink or a dangling
    /// name is reached.
    ///
    /// # Errors
    ///
    /// * `EINVAL` — empty or non-absolute path;
    /// * `ENOENT` — a missing intermediate component;
    /// * `ENOTDIR` — an intermediate component is not a directory;
    /// * `ELOOP` — more than [`MAX_SYMLINK_DEPTH`] symlink traversals.
    pub fn resolve(&self, path: &str, policy: SymlinkPolicy) -> Result<Resolved, OsError> {
        self.resolve_ro(path, policy, 0)
    }

    fn resolve_ro(
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
        let end = match self.names.split(path) {
            Some(names) => self.walk_names(names, policy)?,
            None => self.walk_strs(path, policy)?,
        };
        match end {
            WalkEnd::Done { resolved, .. } => Ok(resolved),
            WalkEnd::FollowFinal { target } => self.resolve_ro(&target, policy, depth + 1),
            WalkEnd::Redirect { redirected } => self.resolve_ro(&redirected, policy, depth + 1),
        }
    }

    /// The mutating-op resolver: interns `path`'s components, fills the
    /// full-path cache, and records a negative dentry when the final
    /// component misses. Behaviourally identical to [`Vfs::resolve`] except
    /// that `Resolved::name` is always `Some`.
    fn resolve_mut(&mut self, path: &str, policy: SymlinkPolicy) -> Result<Resolved, OsError> {
        self.resolve_mut_depth(path, policy, 0)
    }

    fn resolve_mut_depth(
        &mut self,
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
        self.names.intern_path(path);
        let end = {
            let names = self
                .names
                .split(path)
                .expect("intern_path populated the cache");
            self.walk_names(names, policy)?
        };
        match end {
            WalkEnd::Done { resolved, miss } => {
                if let Some(entry) = miss {
                    if !self.neg.contains(&entry) {
                        self.neg.push(entry);
                    }
                }
                Ok(resolved)
            }
            WalkEnd::FollowFinal { target } => self.resolve_mut_depth(&target, policy, depth + 1),
            WalkEnd::Redirect { redirected } => {
                self.resolve_mut_depth(&redirected, policy, depth + 1)
            }
        }
    }

    /// Final-component lookup with the negative-dentry table consulted
    /// first. The insert path purges matching negatives, so a hit here is
    /// always consistent with the dentry map.
    fn child(&self, dir: Ino, entries: &DirMap, name: Name) -> Option<Ino> {
        if self.neg.iter().any(|&(d, n)| d == dir && n == name) {
            debug_assert!(
                entries.get(name).is_none(),
                "negative dentry shadows a live entry"
            );
            return None;
        }
        entries.get(name)
    }

    /// One walk over an interned component list (the warm path: no string
    /// ever touched).
    fn walk_names(&self, names: &[Name], policy: SymlinkPolicy) -> Result<WalkEnd, OsError> {
        if names.is_empty() {
            // "/" itself: treat the root as its own parent with no name —
            // callers that need the root use `root()` directly.
            return Err(OsError::Einval);
        }
        let mut dir = self.root;
        for (i, &name) in names.iter().enumerate() {
            let entries = self.inode(dir)?.entries()?;
            if i + 1 == names.len() {
                let bound = self.child(dir, entries, name);
                if let (SymlinkPolicy::FollowLast, Some(ino)) = (policy, bound) {
                    if let InodeKind::Symlink { target } = &self.inode(ino)?.kind {
                        return Ok(WalkEnd::FollowFinal {
                            target: Arc::clone(target),
                        });
                    }
                }
                let miss = if bound.is_none() {
                    Some((dir, name))
                } else {
                    None
                };
                return Ok(WalkEnd::Done {
                    resolved: Resolved {
                        parent: dir,
                        name: Some(name),
                        ino: bound,
                    },
                    miss,
                });
            }
            let next = entries.get(name).ok_or(OsError::Enoent)?;
            match &self.inode(next)?.kind {
                InodeKind::Directory { .. } => dir = next,
                InodeKind::Symlink { target } => {
                    // Follow the intermediate symlink, then continue with
                    // the remaining components appended.
                    let mut redirected = String::from(&**target);
                    for &rest in &names[i + 1..] {
                        if !redirected.ends_with('/') {
                            redirected.push('/');
                        }
                        redirected.push_str(self.names.str_of(rest));
                    }
                    return Ok(WalkEnd::Redirect { redirected });
                }
                InodeKind::Regular { .. } => return Err(OsError::Enotdir),
            }
        }
        unreachable!("loop always returns on the last component");
    }

    /// One walk over an uncached path string (cold path — first sight of a
    /// path in read-only mode). A component name absent from the intern
    /// table provably exists in no directory, since every dentry is
    /// interned.
    fn walk_strs(&self, path: &str, policy: SymlinkPolicy) -> Result<WalkEnd, OsError> {
        let mut components = path.split('/').filter(|c| !c.is_empty()).peekable();
        if components.peek().is_none() {
            return Err(OsError::Einval);
        }
        let mut dir = self.root;
        while let Some(comp) = components.next() {
            let is_last = components.peek().is_none();
            let entries = self.inode(dir)?.entries()?;
            let name = self.names.lookup(comp);
            if is_last {
                let bound = name.and_then(|n| self.child(dir, entries, n));
                if let (SymlinkPolicy::FollowLast, Some(ino)) = (policy, bound) {
                    if let InodeKind::Symlink { target } = &self.inode(ino)?.kind {
                        return Ok(WalkEnd::FollowFinal {
                            target: Arc::clone(target),
                        });
                    }
                }
                let miss = match (bound, name) {
                    (None, Some(n)) => Some((dir, n)),
                    _ => None,
                };
                return Ok(WalkEnd::Done {
                    resolved: Resolved {
                        parent: dir,
                        name,
                        ino: bound,
                    },
                    miss,
                });
            }
            let next = name.and_then(|n| entries.get(n)).ok_or(OsError::Enoent)?;
            match &self.inode(next)?.kind {
                InodeKind::Directory { .. } => dir = next,
                InodeKind::Symlink { target } => {
                    let mut redirected = String::from(&**target);
                    for rest in components {
                        if !redirected.ends_with('/') {
                            redirected.push('/');
                        }
                        redirected.push_str(rest);
                    }
                    return Ok(WalkEnd::Redirect { redirected });
                }
                InodeKind::Regular { .. } => return Err(OsError::Enotdir),
            }
        }
        unreachable!("loop always returns on the last component");
    }

    /// Binds `name` in `parent`, purging any matching negative dentry
    /// first — the invariant that negatives never shadow a live entry is
    /// maintained here and only here.
    fn insert_child(&mut self, parent: Ino, name: Name, child: Ino) -> Result<(), OsError> {
        if !self.neg.is_empty() {
            self.neg.retain(|&(d, n)| !(d == parent && n == name));
        }
        self.inode_mut(parent)?.entries_mut()?.insert(name, child);
        Ok(())
    }

    fn remove_child(&mut self, parent: Ino, name: Name) -> Result<(), OsError> {
        self.inode_mut(parent)?.entries_mut()?.remove(name);
        Ok(())
    }

    /// `stat(2)`: metadata of what `path` resolves to, following symlinks.
    ///
    /// # Errors
    ///
    /// Resolution errors, or `ENOENT` for a dangling final component.
    pub fn stat(&self, path: &str) -> Result<StatBuf, OsError> {
        let r = self.resolve(path, SymlinkPolicy::FollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        Ok(self.statbuf(ino, false))
    }

    /// `lstat(2)`: like [`stat`](Self::stat) but does not follow a final
    /// symlink.
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

    /// The resolution half of [`stat`](Self::stat) (`follow`) or
    /// [`lstat`](Self::lstat): the inode `path` names right now. Pair with
    /// [`stat_of`](Self::stat_of) for the metadata half.
    pub(crate) fn stat_target(&self, path: &str, follow: bool) -> Result<Ino, OsError> {
        let policy = if follow {
            SymlinkPolicy::FollowLast
        } else {
            SymlinkPolicy::NoFollowLast
        };
        self.resolve(path, policy)?.ino.ok_or(OsError::Enoent)
    }

    /// The metadata half of [`stat`](Self::stat) / [`lstat`](Self::lstat):
    /// the `StatBuf` of `ino` built from its current metadata.
    pub(crate) fn stat_of(&self, ino: Ino, follow: bool) -> Result<StatBuf, OsError> {
        let is_symlink = self.inode(ino)?.is_symlink();
        Ok(self.statbuf(ino, !follow && is_symlink))
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
            InodeKind::Symlink { target } => Ok(target.to_string()),
            _ => Err(OsError::Einval),
        }
    }

    /// `mkdir(2)`.
    ///
    /// # Errors
    ///
    /// `EEXIST` if the name is taken; resolution errors otherwise.
    pub fn mkdir(&mut self, path: &str, meta: InodeMeta) -> Result<Ino, OsError> {
        let r = self.resolve_mut(path, SymlinkPolicy::NoFollowLast)?;
        if r.ino.is_some() {
            return Err(OsError::Eexist);
        }
        let name = r.name.expect("mutating resolution interns the final name");
        let ino = self.alloc(
            InodeKind::Directory {
                entries: DirMap::default(),
            },
            meta,
        );
        self.insert_child(r.parent, name, ino)?;
        self.label_sem(ino, path);
        Ok(ino)
    }

    /// Creates a regular file (the commit step of `open(O_CREAT)`), owned by
    /// `meta.uid`. Follows a final symlink like `open` does: creating
    /// through a dangling symlink creates the *target*.
    ///
    /// # Errors
    ///
    /// `EISDIR` if the name is bound to a directory; resolution errors
    /// otherwise.
    pub fn create_file(&mut self, path: &str, meta: InodeMeta) -> Result<Ino, OsError> {
        let r = self.resolve_mut(path, SymlinkPolicy::FollowLast)?;
        match r.ino {
            Some(existing) => {
                let node = self.inode_mut(existing)?;
                match &mut node.kind {
                    InodeKind::Regular { size } => {
                        // O_TRUNC semantics: reuse the inode, drop the data.
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
                let name = r.name.expect("mutating resolution interns the final name");
                let ino = self.alloc(InodeKind::Regular { size: 0 }, meta);
                self.insert_child(r.parent, name, ino)?;
                self.label_sem(ino, path);
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
    /// `EBADF` if the inode is not a regular file (it may have been unlinked
    /// and replaced — writes go to the *inode*, so an open fd keeps writing
    /// to the original object, exactly as on Unix).
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

    /// `symlink(2)`: binds `linkpath` to a new symlink inode pointing at
    /// `target`. Does not follow a final symlink at `linkpath`. An
    /// `Arc<str>` target is stored as is, without copying the string.
    ///
    /// # Errors
    ///
    /// `EEXIST` if `linkpath` is taken.
    pub fn symlink(
        &mut self,
        target: impl Into<Arc<str>>,
        linkpath: &str,
        owner: (Uid, Gid),
    ) -> Result<Ino, OsError> {
        let r = self.resolve_mut(linkpath, SymlinkPolicy::NoFollowLast)?;
        if r.ino.is_some() {
            return Err(OsError::Eexist);
        }
        let name = r.name.expect("mutating resolution interns the final name");
        let ino = self.alloc(
            InodeKind::Symlink {
                target: target.into(),
            },
            InodeMeta {
                uid: owner.0,
                gid: owner.1,
                mode: 0o777,
            },
        );
        self.insert_child(r.parent, name, ino)?;
        self.label_sem(ino, linkpath);
        Ok(ino)
    }

    /// `link(2)`: binds `linkpath` to the inode `existing` currently names
    /// and bumps its link count. Neither path follows a final symlink
    /// (like `linkat` without `AT_SYMLINK_FOLLOW`, hard-linking a symlink
    /// links the symlink inode itself). The new name is fully equivalent
    /// to the old — `stat` through either sees the same inode, which is
    /// exactly the aliasing that hardlink TOCTTOU attacks exploit.
    ///
    /// # Errors
    ///
    /// `ENOENT` if `existing` is dangling, `EPERM` if it is a directory,
    /// `EEXIST` if `linkpath` is taken; resolution errors otherwise.
    pub fn link(&mut self, existing: &str, linkpath: &str) -> Result<Ino, OsError> {
        let re = self.resolve_mut(existing, SymlinkPolicy::NoFollowLast)?;
        let src = re.ino.ok_or(OsError::Enoent)?;
        if self.inode(src)?.is_dir() {
            return Err(OsError::Eperm);
        }
        let rl = self.resolve_mut(linkpath, SymlinkPolicy::NoFollowLast)?;
        if rl.ino.is_some() {
            return Err(OsError::Eexist);
        }
        let name = rl.name.expect("mutating resolution interns the final name");
        self.insert_child(rl.parent, name, src)?;
        self.inode_mut(src)?.nlink += 1;
        // No new semaphore label: the inode (and its semaphore) already
        // carries the label from its creation path.
        Ok(src)
    }

    /// The detach half of `unlink(2)`: removes the directory entry and
    /// returns the detached inode number together with the file size (the
    /// syscall engine charges the truncation tail proportional to it).
    /// Does not follow a final symlink.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling; `EISDIR` for directories (use `rmdir`).
    pub fn unlink_detach(&mut self, path: &str) -> Result<(Ino, u64), OsError> {
        let r = self.resolve_mut(path, SymlinkPolicy::NoFollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        if self.inode(ino)?.is_dir() {
            return Err(OsError::Eisdir);
        }
        let size = self.inode(ino)?.size();
        let name = r.name.expect("mutating resolution interns the final name");
        self.remove_child(r.parent, name)?;
        let node = self.inode_mut(ino)?;
        node.nlink = node.nlink.saturating_sub(1);
        // The inode itself lingers (an open fd may still reference it, and
        // with hardlinks other names may too); a zero-nlink inode with no
        // fs name is the Unix "orphan".
        Ok((ino, size))
    }

    /// `rmdir(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling, `ENOTDIR` if not a directory, `ENOTEMPTY` if
    /// the directory has entries.
    pub fn rmdir(&mut self, path: &str) -> Result<(), OsError> {
        let r = self.resolve_mut(path, SymlinkPolicy::NoFollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        let node = self.inode(ino)?;
        if !node.is_dir() {
            return Err(OsError::Enotdir);
        }
        if !node.entries()?.is_empty() {
            return Err(OsError::Enotempty);
        }
        let name = r.name.expect("mutating resolution interns the final name");
        self.remove_child(r.parent, name)?;
        self.free_slot(ino);
        Ok(())
    }

    /// `rename(2)`: atomically re-binds `to` to the inode currently bound at
    /// `from`, removing `from`. Neither final component follows symlinks.
    /// An existing `to` is replaced (its inode loses that link), per POSIX;
    /// renaming a name onto another name of the *same* inode is a no-op.
    ///
    /// # Errors
    ///
    /// `ENOENT` if `from` is dangling; resolution errors otherwise.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), OsError> {
        let rf = self.resolve_mut(from, SymlinkPolicy::NoFollowLast)?;
        let src = rf.ino.ok_or(OsError::Enoent)?;
        let rt = self.resolve_mut(to, SymlinkPolicy::NoFollowLast)?;
        if let Some(replaced) = rt.ino {
            if replaced == src {
                return Ok(()); // rename onto the same inode is a no-op
            }
            let node = self.inode_mut(replaced)?;
            node.nlink = node.nlink.saturating_sub(1);
        }
        let from_name = rf.name.expect("mutating resolution interns the final name");
        let to_name = rt.name.expect("mutating resolution interns the final name");
        self.remove_child(rf.parent, from_name)?;
        self.insert_child(rt.parent, to_name, src)?;
        Ok(())
    }

    /// `chmod(2)`: follows symlinks — the crux of symlink attacks.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling.
    pub fn chmod(&mut self, path: &str, mode: u32) -> Result<Ino, OsError> {
        let r = self.resolve_mut(path, SymlinkPolicy::FollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        self.inode_mut(ino)?.meta.mode = mode;
        Ok(ino)
    }

    /// `chown(2)`: follows symlinks — this is how vi and gedit are tricked
    /// into handing `/etc/passwd` to the attacker.
    ///
    /// # Errors
    ///
    /// `ENOENT` if dangling.
    pub fn chown(&mut self, path: &str, uid: Uid, gid: Gid) -> Result<Ino, OsError> {
        let r = self.resolve_mut(path, SymlinkPolicy::FollowLast)?;
        let ino = r.ino.ok_or(OsError::Enoent)?;
        let node = self.inode_mut(ino)?;
        node.meta.uid = uid;
        node.meta.gid = gid;
        Ok(ino)
    }

    /// Checks the standard VFS invariants; used by property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. Every directory entry points at a live inode and carries a
        //    valid interned name.
        // 2. nlink of every live file equals the number of directory entries
        //    referencing it (directories excluded from this simple model).
        // 3. No negative dentry shadows a live entry.
        let mut refcount: HashMap<Ino, u32> = HashMap::new();
        let live = || (0..self.len as usize).filter_map(|i| self.slot(i));
        for inode in live() {
            if let InodeKind::Directory { entries } = &inode.kind {
                for (name, target) in entries.iter() {
                    if name.index() >= self.names.len() {
                        return Err(format!(
                            "entry with out-of-table name id {} in {}",
                            name.0, inode.ino
                        ));
                    }
                    if self.inode(target).is_err() {
                        return Err(format!(
                            "dangling entry {:?} -> {target} in {}",
                            self.names.str_of(name),
                            inode.ino
                        ));
                    }
                    *refcount.entry(target).or_insert(0) += 1;
                }
            }
        }
        for inode in live() {
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
        for &(dir, name) in &self.neg {
            if name.index() >= self.names.len() {
                return Err(format!(
                    "negative dentry with out-of-table name id {}",
                    name.0
                ));
            }
            if let Some(dir_inode) = self.slot(dir.index()) {
                if let Ok(entries) = dir_inode.entries() {
                    if entries.get(name).is_some() {
                        return Err(format!(
                            "stale negative dentry ({dir}, {:?}) shadows a live entry",
                            self.names.str_of(name)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Whether path resolution follows a symlink in the final component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymlinkPolicy {
    /// Follow a final symlink (`stat`, `open`, `chmod`, `chown`, `truncate`).
    FollowLast,
    /// Do not follow a final symlink (`lstat`, `unlink`, `rename`,
    /// `symlink`, `link`, `readlink`).
    NoFollowLast,
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

    fn setup() -> Vfs {
        let mut vfs = Vfs::new();
        vfs.mkdir("/etc", meta(0)).unwrap();
        vfs.create_file("/etc/passwd", meta(0)).unwrap();
        vfs.mkdir("/home", meta(0)).unwrap();
        vfs.mkdir("/home/user", meta(1000)).unwrap();
        vfs
    }

    #[test]
    fn create_and_stat() {
        let mut vfs = setup();
        vfs.create_file("/home/user/doc.txt", meta(1000)).unwrap();
        let st = vfs.stat("/home/user/doc.txt").unwrap();
        assert_eq!(st.uid, Uid(1000));
        assert_eq!(st.size, 0);
        assert_eq!(st.nlink, 1);
        assert!(!st.is_dir);
        assert!(!st.is_symlink);
    }

    #[test]
    fn create_existing_truncates() {
        let mut vfs = setup();
        let ino = vfs.create_file("/home/user/f", meta(1000)).unwrap();
        vfs.append(ino, 500).unwrap();
        assert_eq!(vfs.stat("/home/user/f").unwrap().size, 500);
        let again = vfs.create_file("/home/user/f", meta(0)).unwrap();
        assert_eq!(again, ino, "same inode reused");
        assert_eq!(vfs.stat("/home/user/f").unwrap().size, 0, "truncated");
        // Ownership unchanged by O_TRUNC reuse.
        assert_eq!(vfs.stat("/home/user/f").unwrap().uid, Uid(1000));
    }

    #[test]
    fn resolution_errors() {
        let vfs = setup();
        assert_eq!(vfs.stat("/nope/x"), Err(OsError::Enoent));
        assert_eq!(vfs.stat("relative"), Err(OsError::Einval));
        assert_eq!(vfs.stat("/etc/passwd/inside"), Err(OsError::Enotdir));
        assert_eq!(vfs.stat("/etc/missing"), Err(OsError::Enoent));
    }

    #[test]
    fn stat_follows_symlink_lstat_does_not() {
        let mut vfs = setup();
        vfs.symlink("/etc/passwd", "/home/user/link", (Uid(1000), Gid(1000)))
            .unwrap();
        let st = vfs.stat("/home/user/link").unwrap();
        assert_eq!(st.uid, Uid::ROOT, "followed to /etc/passwd");
        assert!(!st.is_symlink);
        let lst = vfs.lstat("/home/user/link").unwrap();
        assert!(lst.is_symlink);
        assert_eq!(lst.uid, Uid(1000));
    }

    #[test]
    fn symlink_chain_and_loop() {
        let mut vfs = setup();
        vfs.symlink("/b", "/a", (Uid(0), Gid(0))).unwrap();
        vfs.symlink("/a", "/b", (Uid(0), Gid(0))).unwrap();
        assert_eq!(vfs.stat("/a"), Err(OsError::Eloop));

        let mut vfs2 = setup();
        vfs2.symlink("/etc/passwd", "/l1", (Uid(0), Gid(0)))
            .unwrap();
        vfs2.symlink("/l1", "/l2", (Uid(0), Gid(0))).unwrap();
        assert_eq!(vfs2.stat("/l2").unwrap().uid, Uid::ROOT);
    }

    #[test]
    fn intermediate_symlink_followed() {
        let mut vfs = setup();
        vfs.symlink("/home/user", "/u", (Uid(0), Gid(0))).unwrap();
        vfs.create_file("/u/f.txt", meta(1000)).unwrap();
        assert!(vfs.stat("/home/user/f.txt").is_ok());
    }

    #[test]
    fn dangling_symlink_stat_fails_lstat_succeeds() {
        let mut vfs = setup();
        vfs.symlink("/nothing/here", "/dang", (Uid(0), Gid(0)))
            .unwrap();
        assert_eq!(vfs.stat("/dang"), Err(OsError::Enoent));
        assert!(vfs.lstat("/dang").unwrap().is_symlink);
        assert_eq!(vfs.readlink("/dang").unwrap(), "/nothing/here");
    }

    #[test]
    fn readlink_of_non_symlink_is_einval() {
        let vfs = setup();
        assert_eq!(vfs.readlink("/etc/passwd"), Err(OsError::Einval));
    }

    #[test]
    fn unlink_detach_removes_name_keeps_inode() {
        let mut vfs = setup();
        let ino = vfs.create_file("/home/user/f", meta(1000)).unwrap();
        vfs.append(ino, 2048).unwrap();
        let (detached, size) = vfs.unlink_detach("/home/user/f").unwrap();
        assert_eq!(detached, ino);
        assert_eq!(size, 2048);
        assert_eq!(vfs.stat("/home/user/f"), Err(OsError::Enoent));
        // Inode still addressable (an open fd would still write to it).
        assert!(vfs.inode(ino).is_ok());
        assert_eq!(vfs.inode(ino).unwrap().nlink, 0);
    }

    #[test]
    fn unlink_does_not_follow_symlink() {
        let mut vfs = setup();
        vfs.symlink("/etc/passwd", "/home/user/link", (Uid(1000), Gid(1000)))
            .unwrap();
        vfs.unlink_detach("/home/user/link").unwrap();
        // The symlink is gone; its target is untouched.
        assert!(vfs.stat("/etc/passwd").is_ok());
        assert_eq!(vfs.lstat("/home/user/link"), Err(OsError::Enoent));
    }

    #[test]
    fn unlink_of_directory_is_eisdir() {
        let mut vfs = setup();
        assert_eq!(vfs.unlink_detach("/home/user"), Err(OsError::Eisdir));
    }

    #[test]
    fn rename_rebinds_and_replaces() {
        let mut vfs = setup();
        let a = vfs.create_file("/home/user/a", meta(0)).unwrap();
        let b = vfs.create_file("/home/user/b", meta(1000)).unwrap();
        vfs.rename("/home/user/a", "/home/user/b").unwrap();
        assert_eq!(vfs.stat("/home/user/b").unwrap().ino, a);
        assert_eq!(vfs.stat("/home/user/a"), Err(OsError::Enoent));
        assert_eq!(vfs.inode(b).unwrap().nlink, 0, "replaced inode orphaned");
    }

    #[test]
    fn rename_missing_source() {
        let mut vfs = setup();
        assert_eq!(
            vfs.rename("/home/user/none", "/home/user/x"),
            Err(OsError::Enoent)
        );
    }

    #[test]
    fn rename_onto_self_is_noop() {
        let mut vfs = setup();
        let ino = vfs.create_file("/home/user/same", meta(0)).unwrap();
        vfs.rename("/home/user/same", "/home/user/same").unwrap();
        assert_eq!(vfs.stat("/home/user/same").unwrap().ino, ino);
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn chown_follows_symlink_the_attack_crux() {
        let mut vfs = setup();
        // Attacker has replaced the editor's file with a symlink...
        vfs.symlink("/etc/passwd", "/home/user/doc", (Uid(1000), Gid(1000)))
            .unwrap();
        // ...and the root editor chowns "its" file back to the user.
        vfs.chown("/home/user/doc", Uid(1000), Gid(1000)).unwrap();
        let pw = vfs.stat("/etc/passwd").unwrap();
        assert_eq!(pw.uid, Uid(1000), "/etc/passwd handed to the attacker");
    }

    #[test]
    fn chmod_follows_symlink() {
        let mut vfs = setup();
        vfs.symlink("/etc/passwd", "/s", (Uid(0), Gid(0))).unwrap();
        vfs.chmod("/s", 0o600).unwrap();
        assert_eq!(vfs.stat("/etc/passwd").unwrap().mode, 0o600);
    }

    #[test]
    fn chown_enoent_when_name_missing() {
        let mut vfs = setup();
        assert_eq!(
            vfs.chown("/home/user/ghost", Uid(1), Gid(1)),
            Err(OsError::Enoent)
        );
    }

    #[test]
    fn append_to_unlinked_inode_still_works() {
        let mut vfs = setup();
        let ino = vfs.create_file("/home/user/f", meta(0)).unwrap();
        vfs.unlink_detach("/home/user/f").unwrap();
        // Unix semantics: an open fd writes to the orphan happily.
        assert_eq!(vfs.append(ino, 100).unwrap(), 100);
    }

    #[test]
    fn mkdir_and_rmdir() {
        let mut vfs = setup();
        vfs.mkdir("/home/user/sub", meta(1000)).unwrap();
        assert!(vfs.stat("/home/user/sub").unwrap().is_dir);
        assert_eq!(vfs.mkdir("/home/user/sub", meta(0)), Err(OsError::Eexist));
        vfs.create_file("/home/user/sub/f", meta(0)).unwrap();
        assert_eq!(vfs.rmdir("/home/user/sub"), Err(OsError::Enotempty));
        vfs.unlink_detach("/home/user/sub/f").unwrap();
        vfs.rmdir("/home/user/sub").unwrap();
        assert_eq!(vfs.stat("/home/user/sub"), Err(OsError::Enoent));
    }

    #[test]
    fn rmdir_non_directory_is_enotdir() {
        let mut vfs = setup();
        assert_eq!(vfs.rmdir("/etc/passwd"), Err(OsError::Enotdir));
    }

    #[test]
    fn symlink_eexist() {
        let mut vfs = setup();
        assert_eq!(
            vfs.symlink("/x", "/etc/passwd", (Uid(0), Gid(0))),
            Err(OsError::Eexist)
        );
    }

    #[test]
    fn create_through_dangling_symlink_creates_target() {
        let mut vfs = setup();
        vfs.symlink("/home/user/real", "/home/user/via", (Uid(0), Gid(0)))
            .unwrap();
        vfs.create_file("/home/user/via", meta(0)).unwrap();
        assert!(vfs.stat("/home/user/real").is_ok(), "created the target");
        assert!(vfs.lstat("/home/user/via").unwrap().is_symlink);
    }

    #[test]
    fn dir_sem_is_parent_directory_semaphore() {
        let vfs = setup();
        let etc_sem = vfs
            .inode(
                vfs.resolve("/etc", SymlinkPolicy::NoFollowLast)
                    .unwrap()
                    .ino
                    .unwrap(),
            )
            .unwrap()
            .sem;
        assert_eq!(vfs.dir_sem_of("/etc/passwd").unwrap(), etc_sem);
        // Two names in the same directory share the contention point.
        assert_eq!(
            vfs.dir_sem_of("/home/user/a").unwrap(),
            vfs.dir_sem_of("/home/user/b").unwrap()
        );
        // Names in different directories do not.
        assert_ne!(
            vfs.dir_sem_of("/etc/passwd").unwrap(),
            vfs.dir_sem_of("/home/user/a").unwrap()
        );
    }

    #[test]
    fn invariants_hold_through_op_sequence() {
        let mut vfs = setup();
        vfs.create_file("/home/user/a", meta(0)).unwrap();
        vfs.symlink("/etc/passwd", "/home/user/s", (Uid(1000), Gid(1000)))
            .unwrap();
        vfs.rename("/home/user/a", "/home/user/b").unwrap();
        vfs.unlink_detach("/home/user/s").unwrap();
        vfs.link("/etc/passwd", "/home/user/pw").unwrap();
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn root_resolution_is_einval() {
        let vfs = setup();
        assert_eq!(vfs.stat("/"), Err(OsError::Einval));
        assert_eq!(vfs.stat(""), Err(OsError::Einval));
    }

    // ---- v2-specific behaviour -------------------------------------------

    #[test]
    fn link_creates_equivalent_name_and_counts() {
        let mut vfs = setup();
        let src = vfs.create_file("/home/user/doc", meta(1000)).unwrap();
        vfs.append(src, 1024).unwrap();
        let linked = vfs.link("/home/user/doc", "/home/user/alias").unwrap();
        assert_eq!(linked, src, "both names bind the same inode");
        assert_eq!(vfs.stat("/home/user/alias").unwrap().ino, src);
        assert_eq!(vfs.stat("/home/user/doc").unwrap().nlink, 2);
        assert_eq!(vfs.stat("/home/user/alias").unwrap().size, 1024);
        // Mutations through one name are visible through the other.
        vfs.chown("/home/user/alias", Uid::ROOT, Gid::ROOT).unwrap();
        assert_eq!(vfs.stat("/home/user/doc").unwrap().uid, Uid::ROOT);
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn unlink_one_hardlink_keeps_the_other() {
        let mut vfs = setup();
        let src = vfs.create_file("/home/user/doc", meta(1000)).unwrap();
        vfs.link("/home/user/doc", "/home/user/alias").unwrap();
        vfs.unlink_detach("/home/user/doc").unwrap();
        assert_eq!(vfs.stat("/home/user/alias").unwrap().ino, src);
        assert_eq!(vfs.stat("/home/user/alias").unwrap().nlink, 1);
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn link_errors() {
        let mut vfs = setup();
        assert_eq!(
            vfs.link("/home/user", "/home/user/d"),
            Err(OsError::Eperm),
            "hardlinking a directory"
        );
        assert_eq!(vfs.link("/etc/ghost", "/home/user/x"), Err(OsError::Enoent));
        assert_eq!(vfs.link("/etc/passwd", "/etc/passwd"), Err(OsError::Eexist));
    }

    #[test]
    fn link_does_not_follow_final_symlink() {
        let mut vfs = setup();
        vfs.symlink("/etc/passwd", "/home/user/s", (Uid(1000), Gid(1000)))
            .unwrap();
        vfs.link("/home/user/s", "/home/user/s2").unwrap();
        assert!(vfs.lstat("/home/user/s2").unwrap().is_symlink);
        assert_eq!(vfs.lstat("/home/user/s").unwrap().nlink, 2);
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn rename_over_hardlink_decrements_not_orphans() {
        let mut vfs = setup();
        let doc = vfs.create_file("/home/user/doc", meta(1000)).unwrap();
        vfs.link("/home/user/doc", "/home/user/alias").unwrap();
        vfs.create_file("/home/user/other", meta(1000)).unwrap();
        // Replacing one of two hardlinks leaves the inode alive via the other.
        vfs.rename("/home/user/other", "/home/user/alias").unwrap();
        assert_eq!(vfs.stat("/home/user/doc").unwrap().ino, doc);
        assert_eq!(vfs.stat("/home/user/doc").unwrap().nlink, 1);
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn rename_between_two_names_of_same_inode_is_noop() {
        let mut vfs = setup();
        vfs.create_file("/home/user/doc", meta(1000)).unwrap();
        vfs.link("/home/user/doc", "/home/user/alias").unwrap();
        vfs.rename("/home/user/doc", "/home/user/alias").unwrap();
        // POSIX: rename between two links of the same inode does nothing.
        assert!(vfs.stat("/home/user/doc").is_ok());
        assert!(vfs.stat("/home/user/alias").is_ok());
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn negative_dentry_recorded_and_purged() {
        let mut vfs = setup();
        // A mutating miss records the negative entry...
        assert_eq!(
            vfs.chown("/home/user/ghost", Uid(1), Gid(1)),
            Err(OsError::Enoent)
        );
        assert!(!vfs.neg.is_empty(), "negative dentry recorded");
        vfs.check_invariants().unwrap();
        // ...and creating the name purges it.
        vfs.create_file("/home/user/ghost", meta(1000)).unwrap();
        vfs.check_invariants().unwrap();
        assert!(vfs.stat("/home/user/ghost").is_ok());
    }

    #[test]
    fn warm_path_then_readonly_resolution_uses_caches() {
        let mut vfs = setup();
        vfs.warm_path("/home/user/doc");
        assert!(vfs.names.split("/home/user/doc").is_some());
        // Warm miss recorded a negative dentry; stat agrees it is absent.
        assert_eq!(vfs.stat("/home/user/doc"), Err(OsError::Enoent));
        vfs.create_file("/home/user/doc", meta(1000)).unwrap();
        assert!(vfs.stat("/home/user/doc").is_ok());
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn readonly_resolution_of_never_interned_name() {
        let vfs = setup();
        // "/etc" is interned (mkdir), "zzz" never was: read-only resolution
        // proves absence without interning.
        let r = vfs
            .resolve("/etc/zzz", SymlinkPolicy::NoFollowLast)
            .unwrap();
        assert_eq!(r.ino, None);
        assert_eq!(r.name, None);
        assert_eq!(vfs.names.lookup("zzz"), None, "stayed un-interned");
    }

    #[test]
    fn reset_clears_interner_and_caches() {
        let mut vfs = setup();
        vfs.warm_path("/home/user/doc");
        assert_eq!(
            vfs.chown("/home/user/nope", Uid(1), Gid(1)),
            Err(OsError::Enoent)
        );
        vfs.reset();
        assert_eq!(vfs.names.len(), 0, "name table cleared");
        assert!(
            vfs.names.split("/home/user/doc").is_none(),
            "path cache cleared"
        );
        assert!(vfs.neg.is_empty(), "negative dentries cleared");
        assert_eq!(vfs.inode_count(), 1, "only the root survives");
        // A reset VFS is observably identical to a fresh one: rebuilding the
        // same tree yields identical ids and equal state.
        let mut rebuilt = Vfs::new();
        rebuilt.mkdir("/etc", meta(0)).unwrap();
        vfs.mkdir("/etc", meta(0)).unwrap();
        assert_eq!(&vfs, &rebuilt);
    }

    #[test]
    fn freeze_then_fork_shares_base_and_stays_equal() {
        let mut template = setup();
        template.freeze();
        let fork = template.clone();
        assert!(
            fork.overlay.is_empty(),
            "frozen clone starts with no overlay"
        );
        assert_eq!(&fork, &template);
        // Mutating the fork never touches the template.
        let mut fork = fork;
        fork.chown("/etc/passwd", Uid(1000), Gid(1000)).unwrap();
        assert_eq!(template.stat("/etc/passwd").unwrap().uid, Uid::ROOT);
        assert_ne!(&fork, &template);
    }

    #[test]
    fn freeze_is_idempotent_and_preserves_state() {
        let mut vfs = setup();
        let before = vfs.clone();
        vfs.freeze();
        assert_eq!(&vfs, &before);
        vfs.freeze();
        assert_eq!(&vfs, &before);
        vfs.create_file("/home/user/late", meta(1000)).unwrap();
        vfs.freeze();
        assert!(vfs.stat("/home/user/late").is_ok());
        vfs.check_invariants().unwrap();
    }

    #[test]
    fn rmdir_in_fork_masks_base_inode() {
        let mut template = setup();
        template.mkdir("/home/user/sub", meta(1000)).unwrap();
        template.freeze();
        let mut fork = template.clone();
        let sub = fork
            .resolve("/home/user/sub", SymlinkPolicy::NoFollowLast)
            .unwrap()
            .ino
            .unwrap();
        fork.rmdir("/home/user/sub").unwrap();
        assert_eq!(fork.inode(sub), Err(OsError::Enoent));
        assert!(template.inode(sub).is_ok(), "template unaffected");
        fork.check_invariants().unwrap();
    }

    #[test]
    fn fork_mutations_stay_out_of_the_template() {
        let template = setup();
        let mut fork = template.clone();
        fork.chown("/etc/passwd", Uid(1000), Gid(1000)).unwrap();
        fork.unlink_detach("/etc/passwd").unwrap();
        fork.symlink("/etc/passwd", "/home/user/planted", (Uid(1000), Gid(1000)))
            .unwrap();
        assert_eq!(template.stat("/etc/passwd").unwrap().uid, Uid::ROOT);
        assert_eq!(
            template.lstat("/home/user/planted"),
            Err(OsError::Enoent),
            "fork-created names invisible in the template"
        );
        assert_eq!(&template, &setup(), "template bit-unchanged");
    }

    /// Names a fork interns go to its own overlay, under the ids an
    /// unshared copy of the template's table (what forks deep-copied
    /// before the overlay) assigns, and a pooled `clone_from` of the
    /// template drops them again.
    #[test]
    fn fork_names_get_deep_copy_ids_and_vanish_on_clone_from() {
        let mut template = setup();
        template.freeze();
        let mut fork = template.clone();
        let mut deep = template.clone();
        deep.names = NameTable {
            shared: Arc::new((*template.names.shared).clone()),
            local: None,
        };
        let ops = |vfs: &mut Vfs| {
            vfs.mkdir("/home/user/.staging", meta(0)).unwrap();
            vfs.create_file("/home/user/.staging/payload", meta(0))
                .unwrap();
            vfs.symlink("/etc/passwd", "/home/user/link", (Uid(1000), Gid(1000)))
                .unwrap();
            let name = |p| vfs.resolve(p, SymlinkPolicy::NoFollowLast).unwrap().name;
            [
                name("/home/user/.staging/payload"),
                name("/home/user/.staging"),
                name("/home/user/link"),
            ]
        };
        let ids = ops(&mut fork);
        assert_eq!(ids, ops(&mut deep), "fork ids differ from a deep copy's");
        // setup() interned etc, passwd, home, user as 0..=3.
        assert_eq!(ids, [Some(Name(5)), Some(Name(4)), Some(Name(6))]);
        assert_eq!(&fork, &deep);
        assert!(
            Arc::ptr_eq(&fork.names.shared, &template.names.shared),
            "the fork never copied the shared table"
        );
        assert_eq!(fork.names.local_names().len(), 3);
        assert_eq!(template.names.len(), 4, "template table unchanged");
        fork.check_invariants().unwrap();

        fork.clone_from(&template);
        assert_eq!(fork.name_str(Name(4)), None, "a past round's name survived");
        assert_eq!(fork.name_str(Name(3)), Some("user"));
        assert!(fork.names.split("/home/user/.staging").is_none());
        assert!(
            fork.names.local.as_ref().unwrap().index.capacity() > 0,
            "overlay capacity kept for the next round"
        );
        assert_eq!(&fork, &template);
        // The next round numbers its first new name 4 again.
        fork.create_file("/home/user/other", meta(0)).unwrap();
        let r = fork.resolve("/home/user/other", SymlinkPolicy::NoFollowLast);
        assert_eq!(r.unwrap().name, Some(Name(4)));
    }

    #[test]
    fn freeze_folds_the_fork_overlay_into_the_shared_table() {
        let mut template = setup();
        template.freeze();
        let mut fork = template.clone();
        fork.create_file("/home/user/doc", meta(1000)).unwrap();
        let before = fork.clone();
        fork.freeze();
        assert!(fork.names.local.is_none(), "overlay folded");
        assert!(!Arc::ptr_eq(&fork.names.shared, &template.names.shared));
        assert_eq!(fork.names.len(), 5);
        assert_eq!(&fork, &before);
        assert_eq!(template.names.len(), 4, "template table unchanged");
        let r = fork
            .clone()
            .resolve("/home/user/doc", SymlinkPolicy::NoFollowLast);
        assert_eq!(r.unwrap().name, Some(Name(4)));
        fork.check_invariants().unwrap();
    }

    mod cow {
        use super::*;
        use proptest::prelude::*;

        /// One mutating VFS operation over a small closed path set
        /// (indices into [`PATHS`]); failing ops are fine — they exercise
        /// the resolution paths without mutating anything.
        #[derive(Debug, Clone)]
        enum Op {
            Create(usize),
            Append(usize, u64),
            Symlink(usize, usize),
            Link(usize, usize),
            Unlink(usize),
            Rename(usize, usize),
            Chmod(usize, u32),
            Chown(usize, u32),
            Mkdir(usize),
            Rmdir(usize),
        }

        const PATHS: [&str; 6] = [
            "/etc/passwd",
            "/home/user/doc",
            "/home/user/link",
            "/home/user/tmp",
            "/home/user/sub",
            "/etc/shadow",
        ];

        fn op_strategy() -> impl Strategy<Value = Op> {
            let p = || 0usize..PATHS.len();
            prop_oneof![
                p().prop_map(Op::Create),
                (p(), 1u64..4096).prop_map(|(i, n)| Op::Append(i, n)),
                (p(), p()).prop_map(|(t, l)| Op::Symlink(t, l)),
                (p(), p()).prop_map(|(e, l)| Op::Link(e, l)),
                p().prop_map(Op::Unlink),
                (p(), p()).prop_map(|(f, t)| Op::Rename(f, t)),
                (p(), 0u32..0o1000).prop_map(|(i, m)| Op::Chmod(i, m)),
                (p(), 0u32..3000).prop_map(|(i, u)| Op::Chown(i, u)),
                p().prop_map(Op::Mkdir),
                p().prop_map(Op::Rmdir),
            ]
        }

        fn apply(vfs: &mut Vfs, op: &Op) {
            match op {
                Op::Create(p) => drop(vfs.create_file(PATHS[*p], meta(1000))),
                Op::Append(p, n) => {
                    if let Ok(st) = vfs.stat(PATHS[*p]) {
                        let _ = vfs.append(st.ino, *n);
                    }
                }
                Op::Symlink(t, l) => {
                    let _ = vfs.symlink(PATHS[*t], PATHS[*l], (Uid(1000), Gid(1000)));
                }
                Op::Link(e, l) => drop(vfs.link(PATHS[*e], PATHS[*l])),
                Op::Unlink(p) => drop(vfs.unlink_detach(PATHS[*p])),
                Op::Rename(f, t) => drop(vfs.rename(PATHS[*f], PATHS[*t])),
                Op::Chmod(p, m) => drop(vfs.chmod(PATHS[*p], *m)),
                Op::Chown(p, u) => drop(vfs.chown(PATHS[*p], Uid(*u), Gid(*u))),
                Op::Mkdir(p) => drop(vfs.mkdir(PATHS[*p], meta(1000))),
                Op::Rmdir(p) => drop(vfs.rmdir(PATHS[*p])),
            }
        }

        proptest! {
            /// Aliasing safety of the overlay copy-on-write store: a fork
            /// behaves exactly like an independent deep copy (same final
            /// state as replaying the ops on a standalone filesystem) and
            /// the frozen template it shares storage with stays
            /// bit-unchanged.
            #[test]
            fn fork_is_indistinguishable_from_a_deep_copy(
                ops in proptest::collection::vec(op_strategy(), 1..40)
            ) {
                let mut template = setup();
                template.freeze();
                let mut fork = template.clone();
                let mut standalone = setup();
                standalone.freeze();
                for op in &ops {
                    apply(&mut fork, op);
                    apply(&mut standalone, op);
                }
                prop_assert_eq!(&fork, &standalone, "fork diverged from deep-copy semantics");
                prop_assert!(fork.check_invariants().is_ok());
                let mut pristine = setup();
                pristine.freeze();
                prop_assert_eq!(&template, &pristine, "template mutated through fork aliasing");
                prop_assert!(template.check_invariants().is_ok());
            }
        }
    }
}

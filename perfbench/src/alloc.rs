//! A counting global allocator: live and peak live bytes, plus cumulative
//! allocation calls and bytes, read around driver calls and round loops.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`] and counts. The counters are statistics that
/// publish no other data, so `Relaxed` suffices.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    // A plain load first: the peak moves rarely, and an unconditional
    // read-modify-write on every allocation would cost more than the count.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over; the
// counting only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (via this allocator) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Cumulative allocation calls and bytes since process start.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub bytes: u64,
}

pub fn totals() -> Totals {
    Totals {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

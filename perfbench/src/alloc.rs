//! A counting global allocator (std only).
//!
//! Counting is off by default, so the timed runs pay one relaxed flag load per
//! allocation and nothing else. The traced pass switches it on, and then every
//! allocation is counted twice:
//!
//! * in **per-thread** counters, which the callback wrappers in [`crate::wrap`]
//!   read before and after each wrapped call, so allocations made inside a
//!   synchronizer or algorithm callback are charged to that layer on whatever
//!   thread ran it;
//! * in **process-wide** counters (allocations, live bytes and the live-heap
//!   peak), from which the engine's share is the remainder.
//!
//! The live-heap figures count only bytes allocated while counting is on, so
//! the peak is the run's own heap growth above what was live when it started.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's allocator: [`System`] plus the counters above.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // `const` initializers of `Drop`-free types: no lazy registration and no
    // allocation on first access, so the allocator may touch them.
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
    let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LOCAL_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counting
// around it only touches atomics and `Drop`-free thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            record_alloc(layout.size());
        }
        // SAFETY: same `layout` the caller guaranteed to be non-zero-sized.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            record_alloc(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            record_alloc(new_size);
        }
        // SAFETY: the caller's guarantees for `realloc` are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes counted on the calling thread so far.
pub fn local() -> (u64, u64) {
    (LOCAL_ALLOCS.with(Cell::get), LOCAL_BYTES.with(Cell::get))
}

/// Process-wide totals of one counted interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub allocs: u64,
    /// Peak of live bytes allocated during the interval.
    pub peak_live: u64,
}

/// Zeroes the process-wide counters and switches counting on.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Switches counting off and returns the totals since [`start`].
pub fn stop() -> Totals {
    COUNTING.store(false, Relaxed);
    Totals { allocs: ALLOCS.load(Relaxed), peak_live: PEAK.load(Relaxed).max(0) as u64 }
}

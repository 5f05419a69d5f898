//! Allocation gate for the det synchronizer's per-delivery path.
//!
//! A thread-local counting `#[global_allocator]` (std only) counts every
//! allocation the test thread makes while `run_async` executes det BFS on a
//! 32×32 grid under jittered delays, on the serial timing wheel with worker
//! threads off — so the whole run happens on this thread and other test
//! threads cannot disturb the count. The count is a deterministic function of
//! the schedule, so the gate is exact: allocations per delivered event must
//! stay at or below [`MAX_ALLOCS_PER_EVENT`], set from the measured value plus
//! a small headroom.
//!
//! The count covers everything `run_async` does: engine set-up, building every
//! node's protocol, the run, and output collection. The synchronizer
//! configuration (cover construction) is built before counting starts.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::netsim::{run_async, run_sync, RunOptions, ThreadMode};
use det_synchronizer::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per delivered event the det run may make. Measured: 0.3014
/// (39,791 allocations over 132,014 events, the same in debug and release
/// builds); the bound leaves ~6% headroom. Before idle registration state was
/// retired the same run made 1.4521 (191,691 allocations).
const MAX_ALLOCS_PER_EVENT: f64 = 0.32;

/// [`System`] plus a per-thread allocation counter that is only armed inside
/// [`count_allocs`].
struct CountingAlloc;

thread_local! {
    // `const` initializers of `Drop`-free types: no lazy registration and no
    // allocation on first access, so the allocator may touch them.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counting
// around it only touches `Drop`-free thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        // SAFETY: same `layout` the caller guaranteed to be non-zero-sized.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc();
        // SAFETY: the caller's guarantees for `realloc` are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation counter armed; returns its result
/// and the number of allocations (including reallocations) it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, ALLOCS.with(Cell::get))
}

#[test]
fn det_bfs_stays_within_its_allocation_budget() {
    let graph = Graph::grid(32, 32);
    let bfs = |v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]);
    let truth = run_sync(&graph, bfs, 1_000_000).expect("ground truth");
    let cfg = SynchronizerConfig::build(&graph, truth.rounds_to_quiescence.max(1));
    let options = RunOptions {
        scheduler: SchedulerKind::TimingWheel,
        threads: ThreadMode::Off,
        ..RunOptions::default()
    };

    let (report, allocs) = count_allocs(|| {
        run_async(
            &graph,
            DelayModel::jitter(7),
            |v| DetSynchronizer::new(v, bfs(v), cfg.clone()),
            options,
        )
        .expect("det run")
    });

    let outputs: Vec<_> = report.nodes.iter().map(|n| n.algorithm().output()).collect();
    assert_eq!(outputs, truth.outputs(), "the det run must reproduce synchronous BFS");
    let events = report.metrics.events;
    let per_event = allocs as f64 / events as f64;
    println!("det 32x32 jitter: {allocs} allocations over {events} events = {per_event:.4}/event");
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} allocations over {events} events = {per_event:.4}/event, \
         above the {MAX_ALLOCS_PER_EVENT} budget"
    );
}

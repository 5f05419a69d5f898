//! Parallel sharded asynchronous engine: shard-local delivery over a
//! persistent worker pool, serial cross-shard merge at the tick barrier,
//! causality-free tick windows batched into one wide parallel phase —
//! schedules **bit-identical** to the single-threaded timing wheel.
//!
//! # Shard layout
//!
//! The dense node-id space `0..n` is partitioned into `K` contiguous ranges
//! ("shards"). Every shard owns
//!
//! * the protocol instances of its nodes,
//! * the outgoing links of its nodes — the per-link queues
//!   ([`crate::stage_queue::StageQueue`] plus the single-entry head fast path)
//!   of every directed edge whose *source* lies in the shard, and
//! * one bounded-horizon [`TimingWheel`] holding the events the shard
//!   processes: deliveries addressed to its nodes, and acknowledgments for its
//!   outgoing links.
//!
//! # The shard/merge contract
//!
//! The serial engine processes each tick's events in ascending global sequence
//! number (`seq`). Within one tick, the work of an event splits into two parts
//! with very different dependency structure:
//!
//! 1. the **protocol activation** (`Protocol::on_message`) reads and writes
//!    only the destination node's state and draws no sequence numbers, and
//! 2. the **engine effects** — outbox dispatch (which assigns message `seq`s),
//!    link-queue pushes and pops, delivery injection (whose adversarial delay
//!    consumes `seq`s) and acknowledgment scheduling — mutate link and
//!    scheduler state shared across nodes and *define* the `seq` stream that
//!    feeds the delay adversary.
//!
//! Deliveries of one tick are causally independent across distinct destination
//! nodes: no same-tick event can observe another's effects, because every
//! delay is at least one tick, acknowledgments never touch node state, and a
//! node's own deliveries reach it in ascending `seq` order within its shard's
//! event list. Each tick therefore runs as:
//!
//! * **Phase 1 — shard-local delivery (parallel).** Every shard drains its due
//!   events and runs the activations of its deliveries, in shard-local `seq`
//!   order, capturing each activation's outbox verbatim. No sequence numbers
//!   are drawn, no link or wheel is touched; shards share nothing, so worker
//!   threads run them concurrently.
//! * **Phase 2 — cross-shard merge (serial, at the tick barrier).** The
//!   coordinator merges the shards' event lists by **global `seq`** — a total
//!   order fixed when the events were scheduled, independent of thread
//!   interleaving — and replays each event's engine effects exactly as the
//!   serial engine would: outbox dispatch in capture order, lowest-stage-first
//!   injection, acknowledgment scheduling. Messages and acknowledgments that
//!   cross shards along cut links are handed to the destination shard's wheel
//!   here, which is what makes the next tick's phase 1 shard-local again.
//!
//! Because phase 2 draws sequence numbers in exactly the serial order and
//! phase 1 performs no operation that could observe the difference, the
//! resulting schedule — every delivery, every delay, every metric — is
//! bit-identical to [`SchedulerKind::TimingWheel`]'s, for any shard count and
//! any thread interleaving (`tests/scheduler_equiv.rs` and
//! `tests/determinism.rs` pin this across the scenario matrix). The one
//! observable difference is *intra-tick activation order across different
//! nodes*: a protocol that shares mutable state between node instances (not a
//! distributed algorithm, but e.g. a test harness logging through a mutex) may
//! record interleavings in a different order; per-node observation sequences
//! are identical. On an error (`SimError`), the run aborts at the same event
//! as the serial engine, though activations of later same-tick events may
//! already have run — the API returns no nodes on error, so this too is only
//! observable through the escape hatches above (state shared across node
//! instances, or an activation that panics past the serial abort point).
//!
//! # Batched windows
//!
//! A barrier's *window* `[t0, t_last]` is every occupied tick the wheels'
//! occupancy bitsets report from the earliest pending tick `t0` up to a cap:
//! the wheels' shared horizon, the earliest overflow entry (invisible to the
//! bitsets, [`TimingWheel::window_cap`]), and — under a fault plan — the tick
//! before the next fault transition, so the fault flags are constant across
//! the whole window. The window splits at the **static boundary**
//! `t0 + min`, where `min = DelayModel::min_delay_ticks()`:
//!
//! * Ticks up to the boundary are causality-free among *drained* events —
//!   everything drained was scheduled before the barrier began — so their
//!   activations all run in one wide **phase 1** (parallel across shards).
//!   An event processed at tick `t ≥ t0` schedules its effects at
//!   `t + d ≥ t0 + min`: at or past the boundary, but always during the
//!   merge, after the boundary tick was drained — such an effect routes to
//!   the in-window heap with a merge-time seq larger than every seq drained
//!   at its tick, so the `(tick, seq)` replay still processes it in exactly
//!   the serial position (widening the boundary any further would be
//!   unsound: a drained tick past `t0 + min` could causally depend on
//!   another drained tick of the same window).
//! * Ticks past the boundary drain directly into a coordinator-local
//!   **in-window heap** ordered by `(tick, seq)`. The merge processes them
//!   inline, exactly as the serial engine would at that tick, and any effect
//!   they schedule at or before `t_last` re-enters the same heap (the wheels
//!   are already advanced past it). Because these land at or after the
//!   static boundary with post-drain seqs, every phase-1 activation of a
//!   node still precedes all of its inline activations — per-node order, and
//!   the global `(tick, seq)` replay order, are exactly serial.
//!
//! The merge therefore replays ready-list events and heap events in one
//! `(tick, seq)` order, restoring `Globals::now` per event, so every delay
//! draw and schedule target matches the serial engine tick for tick. The
//! split gate is **dynamic**: models with a 1-tick floor (`jitter`, the
//! composite `outage`) get a one-tick static part but still batch whatever
//! occupied ticks the probe finds — the old static `min > 1` gate is gone
//! (`delay.rs` documents the floor's remaining role). Uniform-style models
//! whose events all land on τ-multiples produce singleton windows and report
//! `batched_ticks = 0`, exactly as before.
//!
//! # Threads and cost
//!
//! Worker threads are `W` **long-lived** threads in a [`crate::pool`]
//! `WorkerPool`, created once per run; the `K` shards round-robin over them
//! (shard `s` is pinned to worker `s mod W`, a fixed assignment that cannot
//! depend on thread timing). The two knobs of [`SchedulerKind::Sharded`]
//! decouple: pick `shards` for partition granularity and `workers` for the
//! host's core count (`0` means one worker per shard). The pool is
//! engaged per barrier, and only when the tick — or batched window — carries
//! enough events to amortize the two channel hops per non-empty shard;
//! sparser barriers are processed inline by the coordinator.
//! [`ThreadMode::Auto`] also disables workers entirely on single-core hosts,
//! where sharding still helps by shrinking the per-phase working set (nodes
//! of one shard, then links), but time-slicing threads would only add
//! overhead. Phase 2 is inherently serial — it is the price of a
//! sequence-exact adversary — so speedup follows Amdahl's law in the
//! activation share of the workload; DESIGN.md §6 tabulates the costs, and
//! [`AsyncReport::batched_ticks`] / [`AsyncReport::pool_dispatches`] make the
//! batching and hand-off rates observable per run.

use crate::arena::PayloadArena;
use crate::async_engine::{run_async, AsyncReport, LinkState, RunOptions, SimError, SimLimits};
use crate::delay::DelayModel;
use crate::fault::{FaultPlan, FaultState};
use crate::metrics::RunMetrics;
use crate::pool::{PanicPayload, WorkerPool};
use crate::protocol::{Ctx, Outgoing, Protocol};
use crate::scheduler::{EventScheduler, TimingWheel};
use crate::trace::TraceState;
use crate::{SchedulerKind, TICKS_PER_UNIT};
use ds_graph::{DirectedEdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Minimum number of due events in a barrier (one tick, or one batched window)
/// before phase 1 is shipped to the worker pool; sparser barriers are
/// processed inline by the coordinator, because the hand-off (two channel
/// operations per non-empty shard) would exceed the activation work it
/// parallelizes.
const PARALLEL_TICK_THRESHOLD: usize = 128;

/// When the sharded engine engages pool worker threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThreadMode {
    /// Spawn workers iff `shards > 1` and the host exposes more than one core
    /// (the default): on a single core, time-slicing threads only adds
    /// overhead while the execution is identical anyway. The worker count is
    /// additionally capped by `std::thread::available_parallelism`.
    #[default]
    Auto,
    /// Always spawn the requested workers when `shards > 1` (used by the
    /// equivalence tests to exercise the cross-thread path — including
    /// multi-worker rendezvous — even on single-core hosts; no core cap).
    ForceOn,
    /// Never spawn workers: the coordinator runs every phase itself. Still
    /// uses the per-shard data layout (and its cache benefits).
    Off,
}

/// The sharded engine's knobs as one value. [`run_async`] takes the same
/// knobs through [`SchedulerKind::Sharded`] and [`RunOptions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Number of shards (clamped to `1..=node_count`).
    pub shards: usize,
    /// Number of persistent pool workers the shards round-robin over. `0`
    /// (the [`ShardedOptions::new`] default) means one worker per shard;
    /// other values are clamped to `1..=shards`, and [`ThreadMode::Auto`]
    /// additionally caps at the host's available parallelism. Schedules are
    /// bit-identical for every worker count.
    pub workers: usize,
    /// Worker-thread policy.
    pub threads: ThreadMode,
    /// Whether to batch windows of consecutive occupied ticks into one wide
    /// phase (see the module docs; on by default). The window splits at
    /// `t0 + min_delay`: ticks at or below run as causality-free phase 1,
    /// later occupied ticks drain through the coordinator's in-window heap.
    /// Schedules are bit-identical either way.
    pub batching: bool,
}

impl ShardedOptions {
    /// The default configuration for `shards` shards: one worker per shard,
    /// [`ThreadMode::Auto`], batching on.
    pub fn new(shards: usize) -> Self {
        ShardedOptions { shards, workers: 0, threads: ThreadMode::Auto, batching: true }
    }
}

/// [`run_async`] on the sharded engine with the knobs as a [`ShardedOptions`],
/// kept for the benchmark package (`perfbench/`).
///
/// # Errors
///
/// Same as [`run_async`].
pub fn run_async_sharded_faulted_with<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    opts: ShardedOptions,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol + Send,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    let ShardedOptions { shards, workers, threads, batching } = opts;
    let scheduler = SchedulerKind::Sharded { shards, workers };
    let opts = RunOptions { limits, scheduler, faults, threads, batching, ..Default::default() };
    run_async(graph, delay, make, opts)
}

// ---------------------------------------------------------------------------
// Shard layout
// ---------------------------------------------------------------------------

/// Contiguous partition of the dense node-id space plus the link→shard table.
struct ShardLayout {
    /// Number of shards.
    k: usize,
    /// `big` shards of size `base + 1` come first, then shards of size `base`.
    base: usize,
    big: usize,
    /// First global node id of each shard (length `k + 1`).
    bounds: Vec<usize>,
    /// Directed edge id → `(source shard << 32) | local slot` in that shard's
    /// link table.
    link_home: Vec<u64>,
}

impl ShardLayout {
    fn new(graph: &Graph, shards: usize) -> Self {
        let n = graph.node_count();
        let k = shards.clamp(1, n.max(1));
        let (base, rem) = (n / k, n % k);
        let mut bounds = Vec::with_capacity(k + 1);
        let mut start = 0;
        for i in 0..k {
            bounds.push(start);
            start += base + usize::from(i < rem);
        }
        bounds.push(n);
        let mut layout = ShardLayout { k, base, big: rem, bounds, link_home: Vec::new() };
        let mut slots = vec![0u64; k];
        let homes = (0..graph.directed_edge_count())
            .map(|e| {
                let (from, _) = graph.directed_endpoints(DirectedEdgeId(e as u32));
                let s = layout.shard_of(from);
                let slot = slots[s];
                slots[s] += 1;
                ((s as u64) << 32) | slot
            })
            .collect();
        layout.link_home = homes;
        layout
    }

    /// Shard owning node `v` (its protocol instance and outgoing links).
    fn shard_of(&self, v: NodeId) -> usize {
        let i = v.index();
        let cut = self.big * (self.base + 1);
        if i < cut {
            i / (self.base + 1)
        } else {
            self.big + (i - cut) / self.base.max(1)
        }
    }

    /// `(shard, local slot)` of a directed edge's link state.
    fn link_home(&self, link: DirectedEdgeId) -> (usize, usize) {
        let packed = self.link_home[link.index()];
        ((packed >> 32) as usize, (packed & u32::MAX as u64) as usize)
    }
}

// ---------------------------------------------------------------------------
// Events and per-shard state
// ---------------------------------------------------------------------------

/// Scheduled event. Unlike the serial engine's payload, deliveries carry their
/// endpoints inline: phase 1 runs in the *destination* shard, which does not
/// own the link state (that lives with the source shard). The message itself
/// lives in the destination shard's [`PayloadArena`] — `msg` is its handle, so
/// events are small `Copy` structs and **handles never cross shards**: a
/// handle is allocated into the destination's arena at `push_message` time
/// (coordinator-side, between barriers) and taken back out by that shard's
/// own phase 1 (or by the merge, which owns every shard's tables).
#[derive(Clone, Copy, Debug)]
enum ShardEvent {
    Deliver {
        link: DirectedEdgeId,
        from: NodeId,
        to: NodeId,
        /// Handle into the destination shard's payload arena.
        msg: u32,
    },
    Ack {
        link: DirectedEdgeId,
    },
    /// A delivery the fault adversary ate at drain time (link down or endpoint
    /// crashed; the payload handle was freed at defuse time). Phase 1 must not
    /// activate it; the merge frees the link at the event's exact
    /// `(tick, seq)` slot.
    Dropped {
        link: DirectedEdgeId,
    },
}

/// Entry of the coordinator's in-window event heap: a min-heap on
/// `(at, seq)`, holding window ticks past the static boundary and every
/// merge-time effect scheduled at or before the window's last tick.
#[derive(Debug)]
struct WindowEntry {
    at: u64,
    seq: u64,
    ev: ShardEvent,
}

impl PartialEq for WindowEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for WindowEntry {}

impl PartialOrd for WindowEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WindowEntry {
    /// Reversed, so `BinaryHeap`'s max-heap pops the minimum `(at, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The coordinator's in-window event queue (see the module docs §Batched
/// windows). Merge-time schedule targets at or before `t_last` land here —
/// the wheels are already advanced past them — and are processed inline in
/// `(tick, seq)` order; everything later goes to the destination wheel.
struct InWindow {
    heap: BinaryHeap<WindowEntry>,
    /// Last tick of the current window (0 outside a barrier: every target is
    /// strictly later, so routing degenerates to the wheels).
    t_last: u64,
}

/// Phase-1 output for one event, consumed by the merge in `(tick, seq)`
/// order — the serial processing order (`seq` alone is not monotone across
/// the ticks of a batched window: a later tick's event may carry a smaller
/// `seq` if it was scheduled earlier).
#[derive(Clone, Copy, Debug)]
struct Ready {
    /// Absolute tick the event fired at (every tick of a batched window
    /// contributes to the same ready list).
    tick: u64,
    seq: u64,
    link: DirectedEdgeId,
    kind: ReadyKind,
}

#[derive(Clone, Copy, Debug)]
enum ReadyKind {
    /// A delivery whose activation ran in phase 1, leaving `outbox` captured
    /// messages at the front of the shard's captured-outbox queue.
    Delivered { from: NodeId, to: NodeId, outbox: u32 },
    /// A link acknowledgment (no activation; processed entirely in the merge).
    Ack,
    /// A delivery the fault adversary dropped (no activation; the merge counts
    /// it and frees the link at the event's `(tick, seq)` slot).
    Dropped,
}

/// The shard state a worker thread needs: nodes, due events, phase-1 outputs.
/// Wheels and link tables stay with the coordinator (only phases run by it
/// touch them), so this is what crosses threads.
struct ShardWork<P: Protocol> {
    /// First global node id of the shard.
    lo: usize,
    nodes: Vec<P>,
    done: Vec<bool>,
    /// Events due in the current barrier, tick run by tick run (ascending
    /// tick; ascending shard-local `seq` within a run).
    due: Vec<(u64, ShardEvent)>,
    /// Tick-run boundaries of `due`: `(tick, end)` marks that `due[..end]`
    /// covers all runs up to and including `tick`. One entry per tick the
    /// shard has events at; a plain unbatched barrier records exactly one.
    tick_runs: Vec<(u64, usize)>,
    /// Phase-1 outputs, ascending `(tick, seq)`.
    ready: Vec<Ready>,
    /// Payloads of every in-flight message addressed to this shard's nodes,
    /// behind the `u32` handles the events and link queues carry. Travels
    /// with the shard to its worker, so phase 1 takes payloads out without
    /// touching any other shard's state.
    payloads: PayloadArena<P::Message>,
    /// Captured outbox messages of this barrier's activations, in event order;
    /// the merge pops from the front as it replays the events.
    captured: VecDeque<Outgoing<P::Message>>,
    /// Recycled activation outbox buffer.
    outbox_buf: Vec<Outgoing<P::Message>>,
    /// Per-tick counts of this shard's nodes that became done during the
    /// current barrier (ascending tick, zero counts omitted); the coordinator
    /// merges these across shards in tick order so `time_all_done` lands on
    /// the same tick as the serial engine's.
    newly_done: Vec<(u64, u64)>,
}

/// Phase 1 for one shard: run this barrier's activations (every tick run of a
/// batched window), capture their outboxes. Runs on a pool worker when the
/// barrier is dense enough, inline on the coordinator otherwise — same code,
/// same effects either way.
fn phase1<P: Protocol>(w: &mut ShardWork<P>) {
    let mut runs = std::mem::take(&mut w.tick_runs);
    debug_assert_eq!(runs.last().map_or(0, |&(_, end)| end), w.due.len());
    let mut run_idx = 0usize;
    let mut newly = 0u64;
    for (i, (seq, ev)) in w.due.drain(..).enumerate() {
        while i >= runs[run_idx].1 {
            if newly > 0 {
                w.newly_done.push((runs[run_idx].0, newly));
                newly = 0;
            }
            run_idx += 1;
        }
        let tick = runs[run_idx].0;
        match ev {
            ShardEvent::Deliver { link, from, to, msg } => {
                let local = to.index() - w.lo;
                let mut ctx = Ctx::with_buffer(to, std::mem::take(&mut w.outbox_buf));
                let msg = w.payloads.take(msg);
                w.nodes[local].on_message(from, msg, &mut ctx);
                let outbox = ctx.queued() as u32;
                w.captured.extend(ctx.drain_outbox());
                w.outbox_buf = ctx.into_buffer();
                w.ready.push(Ready {
                    tick,
                    seq,
                    link,
                    kind: ReadyKind::Delivered { from, to, outbox },
                });
                if !w.done[local] && w.nodes[local].is_done() {
                    w.done[local] = true;
                    newly += 1;
                }
            }
            ShardEvent::Ack { link } => {
                w.ready.push(Ready { tick, seq, link, kind: ReadyKind::Ack });
            }
            ShardEvent::Dropped { link } => {
                w.ready.push(Ready { tick, seq, link, kind: ReadyKind::Dropped });
            }
        }
    }
    if newly > 0 {
        w.newly_done.push((runs[run_idx].0, newly));
    }
    runs.clear();
    w.tick_runs = runs;
}

/// Coordinator-owned per-shard structures: one wheel and one link table per
/// shard. Kept apart from [`ShardWork`] so the merge can hold these mutably
/// while popping captured messages and payloads from the works. The link
/// queues hold `u32` payload handles (into the destination shard's arena),
/// never messages.
struct ShardTables {
    layout: ShardLayout,
    wheels: Vec<TimingWheel<ShardEvent>>,
    links: Vec<Vec<LinkState<u32>>>,
}

/// Engine-global bookkeeping mirroring the serial engine's fields.
struct Globals {
    now: u64,
    seq: u64,
    deliveries: u64,
    max_events: u64,
    metrics: RunMetrics,
    done_count: usize,
    time_all_done: Option<u64>,
    /// Extra ticks processed inside batched windows (window length minus one,
    /// summed; 0 when batching is off or never applicable).
    batched_ticks: u64,
    /// Barriers whose phase 1 was shipped to the worker pool (0 without one).
    pool_dispatches: u64,
    /// Size of the largest per-shard due batch handed to phase 1
    /// ([`AsyncReport::max_batch`]).
    max_batch: u64,
    /// Recycled list of links touched by one outbox dispatch.
    touched: Vec<DirectedEdgeId>,
    /// Delivery tracing for the happens-before checker ([`crate::trace`]).
    /// `None` (the default) makes every hook a dead branch: schedules are
    /// bit-identical with tracing on or off.
    trace: Option<TraceState>,
    /// Compiled fault adversary ([`crate::fault`]); `None` (the default) makes
    /// every fault check a dead branch.
    faults: Option<FaultState>,
    /// Deliveries eaten by the fault adversary (mirrors the serial engine's
    /// counter; identical across engines and shard counts).
    dropped: u64,
}

impl Globals {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

/// Pushes one outgoing message onto its link queue, drawing its message `seq`
/// exactly as the serial engine's `dispatch_outbox` does. The payload moves
/// into the *destination* shard's arena — the shard whose phase 1 will
/// eventually take it back out — and only its handle queues on the link.
/// Runs coordinator-side (start wave or merge), when every shard is home.
fn push_message<P: Protocol>(
    g: &mut Globals,
    sh: &mut ShardTables,
    works: &mut [Option<ShardWork<P>>],
    graph: &Graph,
    from: NodeId,
    out: Outgoing<P::Message>,
) -> Result<DirectedEdgeId, SimError> {
    let Some(link) = graph.edge_id(from, out.to) else {
        return Err(SimError::NotNeighbor { from, to: out.to });
    };
    g.metrics.record_message(out.class);
    let seq = g.next_seq();
    let (s, slot) = sh.layout.link_home(link);
    let dst = sh.layout.shard_of(out.to);
    let handle = works[dst].as_mut().expect("shard at home").payloads.alloc(out.msg);
    sh.links[s][slot].push(out.priority, seq, handle);
    Ok(link)
}

/// Serial-order injection: if the link is idle and has a queued message, pop
/// the lowest-stage one and schedule its delivery into the destination shard's
/// wheel — the cross-shard hand-off of the merge step. On a fault-blocked link
/// the whole queue is drained and dropped (no seq draws), exactly like the
/// serial engine. Targets at or before the current window's last tick go to
/// the in-window heap instead of a wheel (the wheels are already past them).
fn try_inject<P: Protocol>(
    g: &mut Globals,
    sh: &mut ShardTables,
    works: &mut [Option<ShardWork<P>>],
    delay: &DelayModel,
    win: &mut InWindow,
    link: DirectedEdgeId,
) {
    let (s, slot) = sh.layout.link_home(link);
    let state = &mut sh.links[s][slot];
    if state.in_flight {
        return;
    }
    let (from, to) = (state.from, state.to);
    if g.faults.as_ref().is_some_and(|f| f.blocks(link, from, to)) {
        // Drain-drop draws no seqs; each drained handle is freed back into
        // the destination shard's arena.
        let payloads = &mut works[sh.layout.shard_of(to)].as_mut().expect("shard at home").payloads;
        while let Some((_, handle)) = sh.links[s][slot].pop() {
            payloads.take(handle);
            g.dropped += 1;
        }
        return;
    }
    let Some((msg_seq, msg)) = state.pop() else { return };
    state.in_flight = true;
    let d = delay.delay_ticks_at(from, to, msg_seq, g.now);
    let at = g.now + d;
    let seq = g.next_seq();
    if let Some(tr) = g.trace.as_mut() {
        tr.on_scheduled(seq);
    }
    let ev = ShardEvent::Deliver { link, from, to, msg };
    if at <= win.t_last {
        win.heap.push(WindowEntry { at, seq, ev });
    } else {
        sh.wheels[sh.layout.shard_of(to)].schedule_from(g.now, at, seq, ev);
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// The sharded engine behind [`run_async`] for [`SchedulerKind::Sharded`]:
/// resolves `opts.threads` to a worker count, then runs the engine on the
/// calling thread, shipping phase 1 to a [`WorkerPool`] when there are
/// workers. The execution is bit-identical for every thread mode. Fault
/// transitions apply at the same ticks as on the serial engines, and the
/// trace lives with the coordinator (phase 2 and injection), so workers
/// never touch it.
pub(crate) fn run_sharded<P, F>(
    graph: &Graph,
    delay: DelayModel,
    make: F,
    opts: &RunOptions<'_, P::Message>,
    shards: usize,
    workers: usize,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol + Send,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    let k = shards.clamp(1, graph.node_count().max(1));
    // `workers == 0` requests the pre-pool coupling: one worker per shard.
    let requested = if workers == 0 { k } else { workers };
    let workers = match opts.threads {
        ThreadMode::Off => 0,
        ThreadMode::ForceOn => {
            if k > 1 {
                requested.clamp(1, k)
            } else {
                0
            }
        }
        ThreadMode::Auto => {
            // ds-lint: allow(ambient-authority) — thread-count probe gates only
            // *whether* (and how many) workers spawn, never the schedule
            // (bit-identical for every worker count, pinned by
            // `worker_threads_produce_the_same_execution`).
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            if k > 1 && cores > 1 {
                requested.clamp(1, k).min(cores)
            } else {
                0
            }
        }
    };
    if workers == 0 {
        return run_core(graph, delay, make, opts, k, None);
    }
    WorkerPool::run(
        workers,
        |w: &mut ShardWork<P>| phase1(w),
        |pool| run_core(graph, delay, make, opts, k, Some(pool)),
    )
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The engine proper, over `k` shards; reads `limits`, `batching`, `faults`
/// and `trace` from `opts`.
fn run_core<P, F>(
    graph: &Graph,
    delay: DelayModel,
    mut make: F,
    opts: &RunOptions<'_, P::Message>,
    k: usize,
    mut pool: Option<&mut WorkerPool<ShardWork<P>>>,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let n = graph.node_count();
    let layout = ShardLayout::new(graph, k);
    let k = layout.k;
    let horizon = delay.max_delay_ticks();

    let mut links: Vec<Vec<LinkState<u32>>> = (0..k).map(|_| Vec::new()).collect();
    for e in 0..graph.directed_edge_count() {
        let id = DirectedEdgeId(e as u32);
        let (from, to) = graph.directed_endpoints(id);
        links[layout.shard_of(from)].push(LinkState::new(from, to));
    }
    let mut works: Vec<Option<ShardWork<P>>> = (0..k)
        .map(|s| {
            let (lo, hi) = (layout.bounds[s], layout.bounds[s + 1]);
            Some(ShardWork {
                lo,
                nodes: (lo..hi).map(|i| make(NodeId(i))).collect(),
                done: vec![false; hi - lo],
                due: Vec::new(),
                tick_runs: Vec::new(),
                ready: Vec::new(),
                payloads: PayloadArena::new(),
                captured: VecDeque::new(),
                outbox_buf: Vec::new(),
                newly_done: Vec::new(),
            })
        })
        .collect();
    let mut sh =
        ShardTables { layout, wheels: (0..k).map(|_| TimingWheel::new(horizon)).collect(), links };
    let mut g = Globals {
        now: 0,
        seq: 0,
        deliveries: 0,
        max_events: opts.limits.max_events,
        metrics: RunMetrics::default(),
        done_count: 0,
        time_all_done: None,
        batched_ticks: 0,
        pool_dispatches: 0,
        max_batch: 0,
        touched: Vec::new(),
        trace: opts.trace.then(|| TraceState::new(k as u32)),
        faults: opts.faults.map(|plan| FaultState::new(graph, plan)),
        dropped: 0,
    };
    // The static part of a window is bounded by the delay floor (see the
    // module docs §Batched windows); ticks past it batch through the
    // in-window heap, so no `min_delay > 1` gate remains.
    let min_delay = delay.min_delay_ticks();
    let mut win = InWindow { heap: BinaryHeap::new(), t_last: 0 };

    // Time 0: start every node in global node order — the serial engine's
    // init order, so the initial seq draws match exactly. Nodes the fault
    // plan crashes at tick 0 never start (but still take the done check, like
    // the serial engine).
    if let Some(f) = g.faults.as_mut() {
        f.advance_to(0);
    }
    for v in graph.nodes() {
        let s = sh.layout.shard_of(v);
        let w = works[s].as_mut().expect("shard at home");
        let local = v.index() - w.lo;
        if g.faults.as_ref().is_some_and(|f| f.is_crashed(v)) {
            if !w.done[local] && w.nodes[local].is_done() {
                w.done[local] = true;
                g.done_count += 1;
                if g.done_count == n && g.time_all_done.is_none() {
                    g.time_all_done = Some(0);
                }
            }
            continue;
        }
        let mut ctx = Ctx::with_buffer(v, std::mem::take(&mut w.outbox_buf));
        w.nodes[local].on_start(&mut ctx);
        let mut touched = std::mem::take(&mut g.touched);
        for out in ctx.drain_outbox() {
            touched.push(push_message(&mut g, &mut sh, &mut works, graph, v, out)?);
        }
        for link in touched.drain(..) {
            try_inject(&mut g, &mut sh, &mut works, &delay, &mut win, link);
        }
        g.touched = touched;
        let w = works[s].as_mut().expect("shard at home");
        w.outbox_buf = ctx.into_buffer();
        if !w.done[local] && w.nodes[local].is_done() {
            w.done[local] = true;
            g.done_count += 1;
            if g.done_count == n && g.time_all_done.is_none() {
                g.time_all_done = Some(0);
            }
        }
    }

    // One barrier per iteration: find the globally earliest pending tick,
    // widen it to a causality-free window when batching applies, drain every
    // shard's events of every window tick, run phase 1 (shard-local
    // activations), then the serial phase-2 merge in `(tick, seq)` order.
    let mut pos = vec![0usize; k];
    let mut window: Vec<u64> = Vec::new();
    let mut done_scratch: Vec<(u64, u64)> = Vec::new();
    let mut ext_scratch: Vec<(u64, ShardEvent)> = Vec::new();
    while let Some(t0) = sh.wheels.iter().filter_map(TimingWheel::next_tick).min() {
        // Apply fault transitions due by t0. The window cap below keeps the
        // flags constant through t_last, so drain-time fault checks see the
        // same state the serial engine sees at each window tick.
        if let Some(f) = g.faults.as_mut() {
            f.advance_to(t0);
        }
        // The window [t0, end]: every tick the occupancy bitsets report,
        // capped per wheel by the horizon and the earliest overflow entry
        // (invisible to the bitsets), and by the next fault transition. t0
        // itself is pushed explicitly — it may be overflow-only.
        window.clear();
        window.push(t0);
        if opts.batching {
            let mut end = u64::MAX;
            for wheel in &sh.wheels {
                end = wheel.window_cap(end);
            }
            if let Some(next) = g.faults.as_ref().and_then(|f| f.next_transition_after(t0)) {
                end = end.min(next - 1);
            }
            if end > t0 {
                for wheel in &sh.wheels {
                    wheel.occupied_ticks_within(end, &mut window);
                }
                window.sort_unstable();
                window.dedup();
            }
        }
        let t_last = *window.last().expect("window holds t0");
        g.batched_ticks += window.len() as u64 - 1;

        // Drain the window. Ticks up to the static boundary feed phase 1
        // (fault-blocked deliveries are defused to `Dropped` in place — the
        // flags cannot change before t_last, so this equals the serial
        // at-tick check); later ticks bypass phase 1 entirely and go to the
        // in-window heap for inline processing during the merge.
        //
        // The boundary sits at `t0 + min_delay` — one tick *wider* than the
        // "effects land strictly past the boundary" rule needs — because a
        // merge effect that lands exactly on the boundary is still serial-
        // exact: it is scheduled during phase 2, after the boundary tick was
        // drained and the wheels advanced, so it routes to the in-window heap
        // with a seq drawn later than every seq drained at that tick, and the
        // `(tick, seq)` merge processes it after all of them — while every
        // phase-1 activation of the boundary tick precedes the whole merge.
        // Widening past `t0 + min_delay` would be unsound: a tick that can
        // receive an effect of another *drained* tick of the same window must
        // not activate in the same parallel phase. With `min_delay == 1`
        // (jitter's per-draw floor) the static part is two ticks, not one.
        let static_end = t0 + min_delay;
        let mut total_due = 0usize;
        for &t in &window {
            if t <= static_end {
                for (wheel, work) in sh.wheels.iter_mut().zip(&mut works) {
                    if wheel.next_tick() == Some(t) {
                        let w = work.as_mut().expect("shard at home");
                        let before = w.due.len();
                        let drained = wheel.take_due(&mut w.due);
                        debug_assert_eq!(drained, Some(t));
                        if let Some(f) = g.faults.as_ref() {
                            let (due, payloads) = (&mut w.due, &mut w.payloads);
                            for (_, ev) in &mut due[before..] {
                                if let ShardEvent::Deliver { link, from, to, msg } = *ev {
                                    if f.blocks(link, from, to) {
                                        // Defused in place: the payload handle is
                                        // freed now (this shard is the destination,
                                        // so the handle is local); the drop COUNT
                                        // stays in the merge's `ReadyKind::Dropped`.
                                        payloads.take(msg);
                                        *ev = ShardEvent::Dropped { link };
                                    }
                                }
                            }
                        }
                        w.tick_runs.push((t, w.due.len()));
                        total_due += w.due.len() - before;
                    }
                }
            } else {
                for wheel in sh.wheels.iter_mut() {
                    if wheel.next_tick() == Some(t) {
                        let drained = wheel.take_due(&mut ext_scratch);
                        debug_assert_eq!(drained, Some(t));
                        for (seq, ev) in ext_scratch.drain(..) {
                            win.heap.push(WindowEntry { at: t, seq, ev });
                        }
                    }
                }
            }
        }
        // Advance every wheel to the window's end before any merge effect
        // schedules into it: the clocks stay in lock-step, and anything the
        // merge schedules at or before `t_last` is routed to the in-window
        // heap instead.
        for wheel in sh.wheels.iter_mut() {
            wheel.advance_to(t_last);
        }
        win.t_last = t_last;
        for w in &works {
            g.max_batch = g.max_batch.max(w.as_ref().expect("shard at home").due.len() as u64);
        }

        // Phase 1.
        match pool.as_deref_mut() {
            Some(pool) if total_due >= PARALLEL_TICK_THRESHOLD => {
                g.pool_dispatches += 1;
                let mut outstanding = 0usize;
                for (s, slot) in works.iter_mut().enumerate() {
                    if !slot.as_ref().expect("shard at home").due.is_empty() {
                        let work = slot.take().expect("shard at home");
                        pool.dispatch(s, work);
                        outstanding += 1;
                    }
                }
                let mut panicked: Option<PanicPayload> = None;
                for _ in 0..outstanding {
                    let (idx, work, panic) = pool.collect();
                    works[idx] = Some(work);
                    panicked = panicked.or(panic);
                }
                // Resume only after every outstanding shard answered, so no
                // worker is left sending into a dropped channel mid-barrier.
                if let Some(payload) = panicked {
                    std::panic::resume_unwind(payload);
                }
            }
            _ => {
                for w in &mut works {
                    phase1(w.as_mut().expect("shard at home"));
                }
            }
        }
        // Done accounting: merge the shards' per-tick counts in tick order so
        // the cumulative count crosses `n` at the same tick as it would have
        // serially.
        done_scratch.clear();
        for w in &mut works {
            done_scratch.append(&mut w.as_mut().expect("shard at home").newly_done);
        }
        done_scratch.sort_unstable_by_key(|&(tick, _)| tick);
        for &(tick, count) in &done_scratch {
            g.done_count += count as usize;
            if g.done_count == n && g.time_all_done.is_none() {
                g.time_all_done = Some(tick);
            }
        }

        // Phase 2: merge of the shards' ready lists AND the in-window heap by
        // global `(tick, seq)` — the serial processing order (each ready list
        // is already ascending in it; the heap pops in it). `g.now` is
        // restored per event, so every delay draw and schedule target matches
        // the serial engine's exactly. Heap deliveries run their activation
        // inline here — they sit strictly past the static boundary, so every
        // phase-1 activation of the same node already happened.
        pos.iter_mut().for_each(|p| *p = 0);
        loop {
            let mut best: Option<((u64, u64), usize)> = None;
            for s in 0..k {
                let ready = &works[s].as_ref().expect("shard at home").ready;
                if let Some(item) = ready.get(pos[s]) {
                    if best.is_none_or(|(key, _)| (item.tick, item.seq) < key) {
                        best = Some(((item.tick, item.seq), s));
                    }
                }
            }
            let from_heap =
                win.heap.peek().is_some_and(|e| best.is_none_or(|(key, _)| (e.at, e.seq) < key));
            if from_heap {
                let entry = win.heap.pop().expect("peeked above");
                g.now = entry.at;
                match entry.ev {
                    ShardEvent::Deliver { link, from, to, msg } => {
                        if g.faults.as_ref().is_some_and(|f| f.blocks(link, from, to)) {
                            let s_to = sh.layout.shard_of(to);
                            works[s_to].as_mut().expect("shard at home").payloads.take(msg);
                            g.dropped += 1;
                            let (home, slot) = sh.layout.link_home(link);
                            sh.links[home][slot].in_flight = false;
                            try_inject(&mut g, &mut sh, &mut works, &delay, &mut win, link);
                            continue;
                        }
                        if let Some(tr) = g.trace.as_mut() {
                            tr.on_delivery(
                                entry.seq,
                                g.now,
                                sh.layout.shard_of(to) as u32,
                                from,
                                to,
                            );
                        }
                        g.deliveries += 1;
                        if g.deliveries > g.max_events {
                            return Err(SimError::EventLimitExceeded { limit: g.max_events });
                        }
                        g.metrics.events += 1;
                        // Activate inline on the coordinator and dispatch the
                        // outbox — the serial engine's deliver + dispatch_outbox,
                        // verbatim.
                        let s_to = sh.layout.shard_of(to);
                        let w = works[s_to].as_mut().expect("shard at home");
                        let local = to.index() - w.lo;
                        let mut ctx = Ctx::with_buffer(to, std::mem::take(&mut w.outbox_buf));
                        let msg = w.payloads.take(msg);
                        w.nodes[local].on_message(from, msg, &mut ctx);
                        let mut touched = std::mem::take(&mut g.touched);
                        for out in ctx.drain_outbox() {
                            touched
                                .push(push_message(&mut g, &mut sh, &mut works, graph, to, out)?);
                        }
                        for l in touched.drain(..) {
                            try_inject(&mut g, &mut sh, &mut works, &delay, &mut win, l);
                        }
                        g.touched = touched;
                        // Acknowledge back to the sender (two seq draws, like
                        // the serial engine).
                        g.metrics.acks += 1;
                        let ack_seq = g.next_seq();
                        let ack_delay = delay.delay_ticks_at(to, from, ack_seq, g.now);
                        let at = g.now + ack_delay;
                        let seq = g.next_seq();
                        if let Some(tr) = g.trace.as_mut() {
                            tr.on_scheduled(seq);
                        }
                        if at <= win.t_last {
                            win.heap.push(WindowEntry { at, seq, ev: ShardEvent::Ack { link } });
                        } else {
                            let (home, _) = sh.layout.link_home(link);
                            sh.wheels[home].schedule_from(g.now, at, seq, ShardEvent::Ack { link });
                        }
                        let w = works[s_to].as_mut().expect("shard at home");
                        w.outbox_buf = ctx.into_buffer();
                        if !w.done[local] && w.nodes[local].is_done() {
                            w.done[local] = true;
                            g.done_count += 1;
                            if g.done_count == n && g.time_all_done.is_none() {
                                g.time_all_done = Some(g.now);
                            }
                        }
                    }
                    ShardEvent::Ack { link } => {
                        if let Some(tr) = g.trace.as_mut() {
                            tr.on_ack(entry.seq);
                        }
                        let (home, slot) = sh.layout.link_home(link);
                        sh.links[home][slot].in_flight = false;
                        try_inject(&mut g, &mut sh, &mut works, &delay, &mut win, link);
                    }
                    ShardEvent::Dropped { .. } => {
                        unreachable!("drops are decided at drain or processing time")
                    }
                }
                continue;
            }
            let Some((_, s)) = best else { break };
            let item = works[s].as_ref().expect("shard at home").ready[pos[s]];
            pos[s] += 1;
            g.now = item.tick;
            match item.kind {
                ReadyKind::Delivered { from, to, outbox } => {
                    if let Some(tr) = g.trace.as_mut() {
                        tr.on_delivery(item.seq, g.now, s as u32, from, to);
                    }
                    g.deliveries += 1;
                    if g.deliveries > g.max_events {
                        return Err(SimError::EventLimitExceeded { limit: g.max_events });
                    }
                    g.metrics.events += 1;
                    // Replay the captured outbox: push every message (drawing
                    // its seq), then inject the touched links in order — the
                    // serial engine's dispatch_outbox, verbatim.
                    let mut touched = std::mem::take(&mut g.touched);
                    for _ in 0..outbox {
                        let out = works[s]
                            .as_mut()
                            .expect("shard at home")
                            .captured
                            .pop_front()
                            .expect("the capture buffer holds each outbox");
                        touched.push(push_message(&mut g, &mut sh, &mut works, graph, to, out)?);
                    }
                    for link in touched.drain(..) {
                        try_inject(&mut g, &mut sh, &mut works, &delay, &mut win, link);
                    }
                    g.touched = touched;
                    // Acknowledge back to the sender (two seq draws, exactly
                    // like the serial engine: the ack's delay seq, then the
                    // scheduled event's seq).
                    g.metrics.acks += 1;
                    let ack_seq = g.next_seq();
                    let ack_delay = delay.delay_ticks_at(to, from, ack_seq, g.now);
                    let at = g.now + ack_delay;
                    let (home, _) = sh.layout.link_home(item.link);
                    let seq = g.next_seq();
                    if let Some(tr) = g.trace.as_mut() {
                        tr.on_scheduled(seq);
                    }
                    if at <= win.t_last {
                        win.heap.push(WindowEntry {
                            at,
                            seq,
                            ev: ShardEvent::Ack { link: item.link },
                        });
                    } else {
                        sh.wheels[home].schedule_from(
                            g.now,
                            at,
                            seq,
                            ShardEvent::Ack { link: item.link },
                        );
                    }
                }
                ReadyKind::Ack => {
                    if let Some(tr) = g.trace.as_mut() {
                        tr.on_ack(item.seq);
                    }
                    let (home, slot) = sh.layout.link_home(item.link);
                    sh.links[home][slot].in_flight = false;
                    try_inject(&mut g, &mut sh, &mut works, &delay, &mut win, item.link);
                }
                ReadyKind::Dropped => {
                    g.dropped += 1;
                    let (home, slot) = sh.layout.link_home(item.link);
                    sh.links[home][slot].in_flight = false;
                    try_inject(&mut g, &mut sh, &mut works, &delay, &mut win, item.link);
                }
            }
        }
        for w in &mut works {
            let w = w.as_mut().expect("shard at home");
            w.ready.clear();
            debug_assert!(w.captured.is_empty(), "merge consumed every captured message");
        }
        debug_assert!(win.heap.is_empty(), "merge drained the in-window heap");
        win.t_last = 0;
    }

    g.metrics.time_to_output = g.time_all_done.map(|t| t as f64 / TICKS_PER_UNIT as f64);
    g.metrics.time_to_quiescence = g.now as f64 / TICKS_PER_UNIT as f64;
    let overflow_events = sh.wheels.iter().map(|w| w.overflow_scheduled()).sum();
    let mut peak_live_handles = 0u64;
    let mut arena_bytes = 0u64;
    for w in &works {
        let w = w.as_ref().expect("shard at home");
        debug_assert_eq!(w.payloads.live(), 0, "a finished run must return every arena handle");
        peak_live_handles += w.payloads.peak_live() as u64;
        arena_bytes += w.payloads.bytes() as u64;
    }
    Ok(AsyncReport {
        metrics: g.metrics,
        nodes: works.into_iter().flat_map(|w| w.expect("shard at home").nodes).collect(),
        overflow_events,
        peak_live_handles,
        arena_bytes,
        max_batch: g.max_batch,
        batched_ticks: g.batched_ticks,
        pool_dispatches: g.pool_dispatches,
        dropped_events: g.dropped,
        fault_transitions: g.faults.as_ref().map_or(0, FaultState::transitions),
        trace: g.trace.map(TraceState::finish),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MessageClass;

    /// Chatty flood recording, per node, the exact arrival stream `(from, msg)`
    /// — the node-local view of the schedule. Mixed priorities exercise the
    /// per-link stage queues; a few waves keep traffic flowing.
    #[derive(Debug)]
    struct Chatter<'g> {
        me: NodeId,
        neighbors: &'g [NodeId],
        arrivals: Vec<(NodeId, u64)>,
        waves_left: u64,
    }

    impl<'g> Chatter<'g> {
        fn new(graph: &'g Graph, me: NodeId) -> Self {
            Chatter { me, neighbors: graph.neighbors(me), arrivals: Vec::new(), waves_left: 3 }
        }
    }

    impl Protocol for Chatter<'_> {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if self.me.index().is_multiple_of(5) {
                for (i, &u) in self.neighbors.iter().enumerate() {
                    ctx.send_with(u, 1, (i % 3) as u64, MessageClass::Algorithm);
                }
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
            self.arrivals.push((from, msg));
            if self.waves_left > 0 {
                self.waves_left -= 1;
                for (i, &u) in self.neighbors.iter().enumerate() {
                    ctx.send_with(u, msg + 1, (msg + i as u64) % 4, MessageClass::Algorithm);
                }
            }
        }

        fn is_done(&self) -> bool {
            !self.arrivals.is_empty() || self.me.index().is_multiple_of(5)
        }
    }

    type NodeView = (Vec<Vec<(NodeId, u64)>>, RunMetrics, u64);

    fn wheel_run(graph: &Graph, delay: &DelayModel) -> NodeView {
        let report = run_async(
            graph,
            delay.clone(),
            |v| Chatter::new(graph, v),
            RunOptions { scheduler: SchedulerKind::TimingWheel, ..RunOptions::default() },
        )
        .expect("wheel run");
        (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        )
    }

    fn sharded_run(graph: &Graph, delay: &DelayModel, opts: RunOptions<'_, u64>) -> NodeView {
        let report =
            run_async(graph, delay.clone(), |v| Chatter::new(graph, v), opts).expect("sharded run");
        (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        )
    }

    #[test]
    fn sharded_matches_the_wheel_for_every_adversary_and_shard_count() {
        // Per-node arrival streams, metrics and overflow counts must be
        // byte-identical to the serial wheel for every shard count, including
        // the multi-τ outage adversary that exercises the overflow heaps.
        let graph = Graph::random_connected(26, 0.14, 11);
        let mut adversaries = DelayModel::standard_suite(7);
        adversaries.push(DelayModel::outage(7, 5, 2));
        for delay in adversaries {
            let reference = wheel_run(&graph, &delay);
            for shards in [1, 2, 3, 4, 7, 26, 100] {
                for batching in [true, false] {
                    let got = sharded_run(
                        &graph,
                        &delay,
                        RunOptions {
                            scheduler: SchedulerKind::Sharded { shards, workers: 0 },
                            threads: ThreadMode::Off,
                            batching,
                            ..RunOptions::default()
                        },
                    );
                    assert_eq!(
                        got, reference,
                        "shards={shards} batching={batching} diverged under {delay:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn faulted_sharded_runs_match_the_serial_wheel() {
        // Under a churn plan — link episodes plus a mid-run crash/recovery —
        // the sharded engine must reproduce the serial wheel's arrival
        // streams, drop counts and transition counts for every shard count
        // and batching mode; batching windows must stop at fault transitions.
        let graph = Graph::random_connected(26, 0.14, 11);
        let mut plan = FaultPlan::random_churn(&graph, 42, 6, 2, 5 * TICKS_PER_UNIT);
        plan = plan
            .node_crash(TICKS_PER_UNIT / 2, NodeId(5))
            .node_recover(3 * TICKS_PER_UNIT, NodeId(5));
        for delay in [DelayModel::uniform(), DelayModel::jitter(3), DelayModel::outage(7, 5, 2)] {
            let reference = run_async(
                &graph,
                delay.clone(),
                |v| Chatter::new(&graph, v),
                RunOptions {
                    faults: Some(&plan),
                    scheduler: SchedulerKind::TimingWheel,
                    ..RunOptions::default()
                },
            )
            .expect("faulted wheel run");
            assert!(reference.fault_transitions > 0, "the plan must actually fire");
            let (ref_dropped, ref_transitions) =
                (reference.dropped_events, reference.fault_transitions);
            let reference_view: NodeView = (
                reference.nodes.into_iter().map(|n| n.arrivals).collect(),
                reference.metrics,
                reference.overflow_events,
            );
            for shards in [1, 2, 4, 7] {
                for batching in [true, false] {
                    let report = run_async(
                        &graph,
                        delay.clone(),
                        |v| Chatter::new(&graph, v),
                        RunOptions {
                            faults: Some(&plan),
                            scheduler: SchedulerKind::Sharded { shards, workers: 0 },
                            threads: ThreadMode::Off,
                            batching,
                            ..RunOptions::default()
                        },
                    )
                    .expect("faulted sharded run");
                    assert_eq!(
                        report.dropped_events, ref_dropped,
                        "shards={shards} batching={batching} drop count diverged under {delay:?}"
                    );
                    assert_eq!(
                        report.fault_transitions, ref_transitions,
                        "shards={shards} batching={batching} transitions diverged under {delay:?}"
                    );
                    let got: NodeView = (
                        report.nodes.into_iter().map(|n| n.arrivals).collect(),
                        report.metrics,
                        report.overflow_events,
                    );
                    assert_eq!(
                        got, reference_view,
                        "shards={shards} batching={batching} diverged under {delay:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_threads_produce_the_same_execution() {
        // ForceOn exercises the cross-thread hand-off even on single-core
        // hosts; a uniform-delay start wave on a 12×12 grid puts well over
        // PARALLEL_TICK_THRESHOLD events into one tick, so the threaded path
        // actually runs.
        let graph = Graph::grid(12, 12);
        for delay in [DelayModel::uniform(), DelayModel::jitter(3)] {
            let reference = wheel_run(&graph, &delay);
            for shards in [2, 4] {
                let forced = sharded_run(
                    &graph,
                    &delay,
                    RunOptions {
                        scheduler: SchedulerKind::Sharded { shards, workers: 0 },
                        threads: ThreadMode::ForceOn,
                        ..RunOptions::default()
                    },
                );
                assert_eq!(forced, reference, "threaded shards={shards} diverged");
            }
        }
    }

    #[test]
    fn worker_count_decouples_from_shard_count() {
        // Seven shards round-robin over fewer (and non-dividing) worker
        // counts; every combination must reproduce the serial schedule, and
        // the dense uniform start wave guarantees the pool really engages.
        let graph = Graph::grid(12, 12);
        let delay = DelayModel::uniform();
        let reference = wheel_run(&graph, &delay);
        for workers in [1, 2, 3] {
            let report = run_async(
                &graph,
                delay.clone(),
                |v| Chatter::new(&graph, v),
                RunOptions {
                    scheduler: SchedulerKind::Sharded { shards: 7, workers },
                    threads: ThreadMode::ForceOn,
                    ..RunOptions::default()
                },
            )
            .expect("pooled run");
            assert!(report.pool_dispatches > 0, "workers={workers}: pool never engaged");
            let got: NodeView = (
                report.nodes.into_iter().map(|n| n.arrivals).collect(),
                report.metrics,
                report.overflow_events,
            );
            assert_eq!(got, reference, "workers={workers} diverged");
        }
    }

    #[test]
    fn batching_counters_respect_the_soundness_gate() {
        // A floored-jitter adversary (min delay 500 ticks) spreads deliveries
        // across ticks, so causality-free windows really form; the engine must
        // report them via `batched_ticks` — and report exactly zero whenever
        // batching is off. The coordinator path never ships a barrier to the
        // pool. Under the dynamic gate, 1-tick-floor models batch too: their
        // static part is a single tick, but the window probe still folds every
        // occupied tick it can see into the in-window heap.
        let graph = Graph::random_connected(26, 0.14, 11);
        let run = |delay: &DelayModel, batching: bool| {
            run_async(
                &graph,
                delay.clone(),
                |v| Chatter::new(&graph, v),
                RunOptions {
                    scheduler: SchedulerKind::Sharded { shards: 4, workers: 0 },
                    threads: ThreadMode::Off,
                    batching,
                    ..RunOptions::default()
                },
            )
            .expect("sharded run")
        };
        let floored = DelayModel::jitter_at_least(5, 0.5);
        let batched = run(&floored, true);
        assert!(batched.batched_ticks > 0, "floored jitter must form multi-tick windows");
        assert_eq!(batched.pool_dispatches, 0, "ThreadMode::Off must never touch the pool");
        assert_eq!(run(&floored, false).batched_ticks, 0, "batching off must report zero");
        for ungated in [DelayModel::jitter(5), DelayModel::outage(7, 5, 2)] {
            let report = run(&ungated, true);
            assert!(
                report.batched_ticks > 0,
                "{ungated:?} must batch under the dynamic occupancy gate"
            );
        }
        // Uniform delays land every event on the τ grid: each barrier's
        // occupancy probe finds nothing past t0, so windows stay singletons.
        // `bursty(1)` realizes the same all-τ schedule while advertising a
        // 1-tick floor — batching is decided by occupancy, not the floor.
        assert_eq!(run(&DelayModel::uniform(), true).batched_ticks, 0);
        assert_eq!(run(&DelayModel::bursty(1), true).batched_ticks, 0);
    }

    #[test]
    fn threads_off_runs_sharded_sequentially() {
        let graph = Graph::grid(4, 5);
        let reference = wheel_run(&graph, &DelayModel::jitter(9));
        let report = run_async(
            &graph,
            DelayModel::jitter(9),
            |v| Chatter::new(&graph, v),
            RunOptions {
                scheduler: SchedulerKind::Sharded { shards: 3, workers: 0 },
                threads: ThreadMode::Off,
                ..RunOptions::default()
            },
        )
        .expect("sequential sharded run");
        let got: NodeView = (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        );
        assert_eq!(got, reference);
    }

    #[test]
    fn event_limit_aborts_like_the_serial_engine() {
        let graph = Graph::grid(5, 5);
        let limits = SimLimits { max_events: 40, ..SimLimits::default() };
        let serial = run_async(
            &graph,
            DelayModel::uniform(),
            |v| Chatter::new(&graph, v),
            RunOptions { limits, scheduler: SchedulerKind::TimingWheel, ..RunOptions::default() },
        )
        .unwrap_err();
        let sharded = run_async(
            &graph,
            DelayModel::uniform(),
            |v| Chatter::new(&graph, v),
            RunOptions {
                limits,
                scheduler: SchedulerKind::Sharded { shards: 4, workers: 0 },
                threads: ThreadMode::Off,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(serial, sharded);
        assert_eq!(sharded, SimError::EventLimitExceeded { limit: 40 });
    }

    #[test]
    #[should_panic(expected = "chatter protocol failure on node 77")]
    fn worker_thread_panics_propagate_instead_of_deadlocking() {
        // A protocol panic inside a phase-1 worker must reach the caller like
        // the serial engine's would. Without the catch_unwind/resume_unwind
        // hand-off the coordinator would block forever on the completion
        // channel (idle workers keep it open), turning one bad activation
        // into a hung simulation. Same setup as the threaded test above: the
        // uniform start wave exceeds PARALLEL_TICK_THRESHOLD, so phase 1
        // really runs on workers under ForceOn.
        #[derive(Debug)]
        struct Exploding<'g> {
            inner: Chatter<'g>,
        }
        impl Protocol for Exploding<'_> {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                self.inner.on_start(ctx);
            }
            fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
                assert_ne!(self.inner.me.index(), 77, "chatter protocol failure on node 77");
                self.inner.on_message(from, msg, ctx);
            }
            fn is_done(&self) -> bool {
                self.inner.is_done()
            }
        }
        let graph = Graph::grid(12, 12);
        let _ = run_async(
            &graph,
            DelayModel::uniform(),
            |v| Exploding { inner: Chatter::new(&graph, v) },
            RunOptions {
                scheduler: SchedulerKind::Sharded { shards: 4, workers: 0 },
                threads: ThreadMode::ForceOn,
                ..RunOptions::default()
            },
        );
    }

    #[test]
    fn tracing_is_invisible_to_the_schedule() {
        // Bit-identity with tracing off vs. on, for the serial engine and for
        // every sharded layout: the trace hooks must not draw a seq, touch a
        // queue, or otherwise perturb the execution.
        let graph = Graph::random_connected(22, 0.16, 19);
        let delay = DelayModel::jitter(4);
        let reference = wheel_run(&graph, &delay);
        let mut report = run_async(
            &graph,
            delay.clone(),
            |v| Chatter::new(&graph, v),
            RunOptions {
                scheduler: SchedulerKind::TimingWheel,
                trace: true,
                ..RunOptions::default()
            },
        )
        .expect("traced wheel run");
        let serial_trace = report.trace.take().expect("trace requested");
        let got: NodeView = (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        );
        assert_eq!(got, reference, "tracing perturbed the serial schedule");
        assert!(!serial_trace.records.is_empty());
        assert_eq!(serial_trace.shards, 1);

        for shards in [1, 2, 4] {
            let mut report = run_async(
                &graph,
                delay.clone(),
                |v| Chatter::new(&graph, v),
                RunOptions {
                    scheduler: SchedulerKind::Sharded { shards, workers: 0 },
                    threads: ThreadMode::Off,
                    trace: true,
                    ..RunOptions::default()
                },
            )
            .expect("traced sharded run");
            let trace = report.trace.take().expect("trace requested");
            let got: NodeView = (
                report.nodes.into_iter().map(|n| n.arrivals).collect(),
                report.metrics,
                report.overflow_events,
            );
            assert_eq!(got, reference, "tracing perturbed the sharded schedule (k={shards})");
            // The scheduler-independent view of the trace matches the serial
            // engine record for record; only the shard assignment differs,
            // and it must match the layout's owner of each destination.
            assert_eq!(trace.shards, shards as u32);
            let layout = ShardLayout::new(&graph, shards);
            assert_eq!(trace.records.len(), serial_trace.records.len());
            for (sharded_rec, serial_rec) in trace.records.iter().zip(&serial_trace.records) {
                assert_eq!(sharded_rec.schedule_key(), serial_rec.schedule_key());
                assert_eq!(sharded_rec.shard as usize, layout.shard_of(sharded_rec.dst));
            }
        }
    }

    #[test]
    fn traced_runs_cross_worker_threads_unchanged() {
        // The trace lives with the coordinator; ForceOn workers must neither
        // see it nor change what it records.
        let graph = Graph::grid(12, 12);
        let delay = DelayModel::uniform();
        let sequential = run_async(
            &graph,
            delay.clone(),
            |v| Chatter::new(&graph, v),
            RunOptions {
                scheduler: SchedulerKind::Sharded { shards: 4, workers: 0 },
                threads: ThreadMode::Off,
                trace: true,
                ..RunOptions::default()
            },
        )
        .expect("sequential traced run")
        .trace
        .expect("trace requested");
        let mut report = run_async(
            &graph,
            delay,
            |v| Chatter::new(&graph, v),
            RunOptions {
                scheduler: SchedulerKind::Sharded { shards: 4, workers: 0 },
                threads: ThreadMode::ForceOn,
                trace: true,
                ..RunOptions::default()
            },
        )
        .expect("threaded traced run");
        let threaded = report.trace.take().expect("trace requested");
        assert_eq!(threaded, sequential);
        assert!(report.metrics.events > 0);
    }

    #[test]
    fn non_neighbor_sends_are_rejected() {
        #[derive(Debug)]
        struct Bad {
            me: NodeId,
        }
        impl Protocol for Bad {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if self.me == NodeId(0) {
                    ctx.send(NodeId(2), ());
                }
            }
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<()>) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let graph = Graph::path(3);
        let err = run_async(
            &graph,
            DelayModel::uniform(),
            |me| Bad { me },
            RunOptions {
                scheduler: SchedulerKind::Sharded { shards: 2, workers: 0 },
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, SimError::NotNeighbor { from: NodeId(0), to: NodeId(2) });
    }

    #[test]
    fn shard_layout_partitions_nodes_and_links_consistently() {
        let graph = Graph::random_connected(23, 0.2, 3);
        for k in [1, 2, 4, 7, 23] {
            let layout = ShardLayout::new(&graph, k);
            assert_eq!(layout.k, k);
            assert_eq!(layout.bounds[0], 0);
            assert_eq!(*layout.bounds.last().unwrap(), 23);
            // Every node maps into the shard whose contiguous range holds it.
            for v in graph.nodes() {
                let s = layout.shard_of(v);
                assert!(layout.bounds[s] <= v.index() && v.index() < layout.bounds[s + 1]);
            }
            // Link slots are dense per shard, in edge-id order.
            let mut counts = vec![0usize; k];
            for e in 0..graph.directed_edge_count() {
                let id = DirectedEdgeId(e as u32);
                let (from, _) = graph.directed_endpoints(id);
                let (s, slot) = layout.link_home(id);
                assert_eq!(s, layout.shard_of(from));
                assert_eq!(slot, counts[s]);
                counts[s] += 1;
            }
        }
        // Oversized shard counts clamp to n.
        assert_eq!(ShardLayout::new(&graph, 500).k, 23);
    }
}

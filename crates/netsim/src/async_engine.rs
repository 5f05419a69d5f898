//! Discrete-event simulator of the asynchronous message-passing model.
//!
//! The engine implements the model of Section 1.1 and Appendix B:
//!
//! * every message injected into a link is delivered after an adversarially chosen
//!   delay of at most one time unit `τ` ([`crate::delay::DelayModel`]; the
//!   composite [`Outage`](crate::delay::DelayModel::Outage) stress adversary may
//!   exceed it, parking deliveries in the scheduler's overflow heap),
//! * a node may have at most one un-acknowledged message per outgoing link; further
//!   messages queue locally and are injected when the acknowledgment returns (the
//!   acknowledgment discipline of Appendix B, which removes simultaneous-injection
//!   ambiguity and lets congestion cost time, as Lemma 2.2 requires),
//! * when several messages are queued on the same link they are transmitted in order
//!   of ascending priority (lowest stage first, Lemma 2.5), ties broken FIFO,
//! * time complexity is the completion time divided by `τ`; message complexity counts
//!   every injected message, with link acknowledgments reported separately.
//!
//! The engine's bookkeeping is flat and dense: per-link state lives in a `Vec`
//! indexed by [`DirectedEdgeId`] (every send resolves `(from, to)` through the
//! graph's directed-edge index), message payloads live in a recycled
//! [`PayloadArena`] — wheel slots, link queues and captured outboxes all move
//! 4-byte handles, never the messages — and one outbox buffer is recycled
//! across activations, so there are no map lookups or per-event allocations on
//! the hot path.
//!
//! Scheduling exploits the bounded delay horizon twice (see
//! [`crate::scheduler`] and [`crate::stage_queue`] for the data structures and
//! the determinism argument):
//!
//! * the global event queue is a bounded-horizon **hierarchical timing
//!   wheel** — `O(1)` per event instead of the `O(log n)` of the reference
//!   binary heap, with beyond-horizon events staged through coarser tiers
//!   instead of a heap (selectable via [`SchedulerKind`]; both produce
//!   bit-identical schedules),
//! * per-link queues are **per-stage FIFO buckets** keyed by the small stage
//!   priorities of Lemma 2.5, with a dense occupancy bitset,
//! * each tick is processed **batch-at-a-time** over an [`EventBatch`]: one
//!   pass classifies the tick's due events into struct-of-arrays columns
//!   grouped by destination, each destination then activates *once* over its
//!   arrivals (capturing outgoings as arena handles), and a final pass replays
//!   every delivery's effects — sends, acknowledgments, drops — in exact
//!   global `(tick, seq)` order, so the schedule equals the one-at-a-time
//!   engine's bit for bit (the determinism argument is DESIGN.md §10).

use crate::arena::{EvRef, EventBatch, PayloadArena, Tag};
use crate::delay::DelayModel;
use crate::fault::{FaultPlan, FaultState};
use crate::metrics::{MessageClass, RunMetrics};
use crate::protocol::{Ctx, Outgoing, Protocol};
use crate::recycle::EngineSlab;
use crate::scheduler::{EventScheduler, HeapScheduler, TimingWheel};
use crate::stage_queue::StageQueue;
use crate::trace::{DeliveryTrace, TraceState};
use crate::{SchedulerKind, ThreadMode, TICKS_PER_UNIT};
use ds_graph::{DirectedEdgeId, Graph, NodeId};
use std::fmt;

/// Errors reported by the simulation engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A protocol attempted to send to a node that is not its neighbor.
    NotNeighbor { from: NodeId, to: NodeId },
    /// The asynchronous run exceeded the configured event budget (likely livelock).
    EventLimitExceeded { limit: u64 },
    /// The synchronous run exceeded the configured round budget.
    RoundLimitExceeded { limit: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotNeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "asynchronous run exceeded the event limit of {limit}")
            }
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "synchronous run exceeded the round limit of {limit}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Safety limits for a simulation run (either engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimLimits {
    /// Maximum number of message-delivery events before an asynchronous run is
    /// aborted.
    pub max_events: u64,
    /// Maximum number of rounds before a synchronous run is aborted.
    pub max_rounds: u64,
}

impl Default for SimLimits {
    fn default() -> Self {
        SimLimits { max_events: 50_000_000, max_rounds: 1_000_000 }
    }
}

/// Result of an asynchronous run.
#[derive(Debug)]
pub struct AsyncReport<P> {
    /// Time and message accounting.
    pub metrics: RunMetrics,
    /// The per-node protocol instances after the run (holding outputs and state).
    pub nodes: Vec<P>,
    /// Events scheduled beyond the timing wheel's horizon and staged through
    /// its coarser overflow tiers (0 for single-`τ` delay models and for the
    /// heap scheduler, which has no horizon). Kept out of [`RunMetrics`]
    /// deliberately: it describes the scheduler's internals, not the simulated
    /// execution, and so may differ between schedulers whose runs are
    /// otherwise bit-identical.
    pub overflow_events: u64,
    /// High-water mark of simultaneously live payload-arena handles (summed
    /// over the per-shard arenas for the sharded engine). An engine internal
    /// like [`overflow_events`](AsyncReport::overflow_events): the arena's
    /// footprint, not the simulated execution.
    pub peak_live_handles: u64,
    /// Bytes backing the payload arena's slot storage at the end of the run
    /// (capacity, summed over shards). An engine internal.
    pub arena_bytes: u64,
    /// Size of the largest one-tick due batch the engine processed. An engine
    /// internal (the sharded engine reports the largest per-shard batch).
    pub max_batch: u64,
    /// Extra ticks the sharded engine processed inside batched windows (window
    /// length minus one, summed over all barriers; 0 for the serial engines,
    /// when batching is off, or when every occupied tick already sits on the
    /// delay grid — e.g. the uniform model, whose events all land `τ` apart, so
    /// each window holds a single tick). Like
    /// [`overflow_events`](AsyncReport::overflow_events), this describes the
    /// engine's internals, not the simulated execution, so it lives outside
    /// [`RunMetrics`].
    pub batched_ticks: u64,
    /// Barriers whose phase 1 the sharded engine shipped to its worker pool
    /// (0 for the serial engines and for runs without worker threads). Also an
    /// engine internal, kept outside [`RunMetrics`] for the same reason.
    pub pool_dispatches: u64,
    /// Messages dropped by the fault adversary ([`crate::fault`]): deliveries
    /// whose tick found the link down or an endpoint crashed, plus queued
    /// messages drained when injecting onto a dead link. Always 0 without a
    /// [`FaultPlan`]. Unlike the scheduler internals above this *does*
    /// describe the simulated execution, and is identical across engines,
    /// shard counts and batching modes.
    pub dropped_events: u64,
    /// Fault-plan transitions applied during the run (one per link/node flip
    /// whose tick was reached; identical across engines). Always 0 without a
    /// [`FaultPlan`].
    pub fault_transitions: u64,
    /// The delivery trace, when [`RunOptions::trace`] asked for one.
    pub trace: Option<DeliveryTrace>,
}

/// Per-directed-edge link state, indexed flat by [`DirectedEdgeId`] (shared with
/// the sharded engine, which keeps one such table per shard).
#[derive(Debug)]
pub(crate) struct LinkState<M> {
    /// Cached endpoints of the directed edge — the hot path reads them from the
    /// link record it touches anyway instead of chasing the graph's edge table.
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    /// Whether a message is currently in flight (awaiting acknowledgment).
    pub(crate) in_flight: bool,
    /// Single-entry fast path: the first queued `(priority, seq, msg)` waits here
    /// and only further arrivals spill into the bucket queue, so the common case —
    /// one message waiting per link — never touches `StageQueue` at all.
    head: Option<(u64, u64, M)>,
    /// Spilled messages, lowest `(priority, seq)` first (Lemma 2.5: lowest stage
    /// first, FIFO within a stage).
    queue: StageQueue<M>,
}

impl<M> LinkState<M> {
    pub(crate) fn new(from: NodeId, to: NodeId) -> Self {
        LinkState { from, to, in_flight: false, head: None, queue: StageQueue::new() }
    }

    /// Whether the link holds no transient state: nothing in flight, nothing
    /// queued. At quiescence every link is idle (a queued message always has
    /// an ack or drop pending to release it), which is what lets a finished
    /// run's link table be recycled into the next run ([`crate::recycle`]).
    pub(crate) fn is_idle(&self) -> bool {
        !self.in_flight && self.head.is_none() && self.queue.is_empty()
    }

    pub(crate) fn push(&mut self, priority: u64, seq: u64, msg: M) {
        if self.head.is_none() {
            self.head = Some((priority, seq, msg));
        } else {
            self.queue.push(priority, seq, msg);
        }
    }

    /// Pops the waiting message with the minimum `(priority, seq)` as
    /// `(seq, msg)`. The head entry and the bucket queue each yield their own
    /// minimum; the smaller key wins, so the order equals the unsplit queue's.
    pub(crate) fn pop(&mut self) -> Option<(u64, M)> {
        match self.head.take() {
            Some((hp, hs, hmsg)) => match self.queue.min_key() {
                Some(qkey) if qkey < (hp, hs) => {
                    self.head = Some((hp, hs, hmsg));
                    self.queue.pop()
                }
                _ => Some((hs, hmsg)),
            },
            None => self.queue.pop(),
        }
    }
}

/// The reusable, allocation-heavy halves of a serial engine: everything a run
/// builds except the protocol instances and the event scheduler.
/// [`crate::recycle::EngineSlab`] keeps one of these (plus a
/// [`TimingWheel`]) across runs so link tables, stage queues, the payload
/// arena and the outbox buffer are reshaped rather than reallocated.
///
/// None of the retained state can influence a schedule: between runs the
/// queues are empty, the arena holds no live handles (capacity and free-list
/// shape are invisible — handles are opaque and never feed a scheduling
/// decision), and [`EngineParts::adopt`] rewrites every field the next run
/// reads (link endpoints, done flags, the peak-live watermark) to exactly its
/// cold-start value.
pub(crate) struct EngineParts<M> {
    pub(crate) links: Vec<LinkState<u32>>,
    pub(crate) arena: PayloadArena<M>,
    pub(crate) done_flags: Vec<bool>,
    pub(crate) outbox_pool: Vec<Outgoing<M>>,
    pub(crate) touched: Vec<DirectedEdgeId>,
}

// Manual impl: `derive` would demand `M: Default`, but empty parts need no
// message value.
impl<M> Default for EngineParts<M> {
    fn default() -> Self {
        EngineParts {
            links: Vec::new(),
            arena: PayloadArena::new(),
            done_flags: Vec::new(),
            outbox_pool: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl<M> EngineParts<M> {
    /// Cold parts shaped for a run on `graph`.
    pub(crate) fn new(graph: &Graph) -> Self {
        let mut parts = EngineParts::default();
        parts.adopt(graph);
        parts
    }

    /// Reshapes the parts for a run on `graph`, asserting the previous run
    /// left them clean. Endpoints are rewritten unconditionally — adoption
    /// never trusts a hash to decide the link table still matches the
    /// topology — and the arena's watermark restarts at zero, so every field
    /// the engine reads equals a cold build's.
    ///
    /// # Panics
    ///
    /// Panics if the previous run left transient state behind (a non-idle
    /// link or a live arena handle).
    pub(crate) fn adopt(&mut self, graph: &Graph) {
        assert_eq!(self.arena.live(), 0, "recycled parts must hold no live arena handles");
        self.arena.reset_peak();
        let m = graph.directed_edge_count();
        self.links.truncate(m);
        for (e, link) in self.links.iter_mut().enumerate() {
            assert!(link.is_idle(), "recycled parts must hold no queued or in-flight messages");
            let (from, to) = graph.directed_endpoints(DirectedEdgeId(e as u32));
            link.from = from;
            link.to = to;
        }
        for e in self.links.len()..m {
            let (from, to) = graph.directed_endpoints(DirectedEdgeId(e as u32));
            self.links.push(LinkState::new(from, to));
        }
        self.done_flags.clear();
        self.done_flags.resize(graph.node_count(), false);
        self.touched.clear();
    }

    /// Whether the parts hold no transient state — the recycling hygiene
    /// invariant ([`crate::recycle::EngineSlab::is_clean`]): every link idle,
    /// every arena handle returned.
    pub(crate) fn is_clean(&self) -> bool {
        self.arena.live() == 0 && self.links.iter().all(LinkState::is_idle)
    }
}

struct Engine<'a, P: Protocol, S> {
    graph: &'a Graph,
    delay: DelayModel,
    nodes: Vec<P>,
    /// Link state per directed edge, indexed by [`DirectedEdgeId`]. The
    /// queued entries are payload-arena handles, not messages.
    links: Vec<LinkState<u32>>,
    /// Every in-flight message payload, behind the `u32` handles the link
    /// queues and the scheduler's [`EvRef`]s carry.
    arena: PayloadArena<P::Message>,
    sched: S,
    now: u64,
    seq: u64,
    /// Deliveries processed so far, checked against `max_events`.
    deliveries: u64,
    /// The run's delivery budget (`SimLimits::max_events`).
    max_events: u64,
    metrics: RunMetrics,
    done_flags: Vec<bool>,
    done_count: usize,
    time_all_done: Option<u64>,
    /// Recycled outbox buffer, threaded through every activation.
    outbox_pool: Vec<Outgoing<P::Message>>,
    /// Recycled scratch list of links touched by one outbox dispatch.
    touched: Vec<DirectedEdgeId>,
    /// Delivery tracing for the happens-before checker ([`crate::trace`]).
    /// `None` (the default) makes every hook a dead branch: schedules are
    /// bit-identical with tracing on or off.
    trace: Option<TraceState>,
    /// The compiled fault adversary, advanced to `now` before events of a tick
    /// are processed. `None` (the default) makes every check a dead branch.
    faults: Option<FaultState>,
    /// Messages dropped by the fault adversary ([`AsyncReport::dropped_events`]).
    dropped: u64,
    /// Size of the largest one-tick due batch ([`AsyncReport::max_batch`]).
    max_batch: u64,
}

impl<'a, P: Protocol, S: EventScheduler<EvRef>> Engine<'a, P, S> {
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn schedule(&mut self, at: u64, ev: EvRef) {
        let seq = self.next_seq();
        if let Some(tr) = self.trace.as_mut() {
            tr.on_scheduled(seq);
        }
        self.sched.schedule(at, seq, ev);
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn try_inject(&mut self, link: DirectedEdgeId) {
        let state = &mut self.links[link.index()];
        if state.in_flight {
            return;
        }
        let (from, to) = (state.from, state.to);
        if self.faults.as_ref().is_some_and(|f| f.blocks(link, from, to)) {
            // The link is dead right now: everything queued behind it is lost.
            // The drain draws no sequence numbers — so the schedule of live
            // traffic is untouched by how many messages die here — but every
            // drained handle is freed back into the arena.
            while let Some((_, handle)) = self.links[link.index()].pop() {
                self.arena.take(handle);
                self.dropped += 1;
            }
            return;
        }
        let state = &mut self.links[link.index()];
        let Some((msg_seq, handle)) = state.pop() else { return };
        state.in_flight = true;
        let delay = self.delay.delay_ticks_at(from, to, msg_seq, self.now);
        let at = self.now + delay;
        self.schedule(at, EvRef::deliver(link.0, handle));
    }

    /// Dispatches a start-wave activation's outbox: each message moves into
    /// the payload arena and its handle queues on the link, then injection is
    /// attempted. Tick-time deliveries use the capture/replay split of the
    /// batch passes instead; this direct path serves only `on_start`.
    fn dispatch_outbox(&mut self, from: NodeId, ctx: &mut Ctx<P::Message>) -> Result<(), SimError> {
        if ctx.queued() == 0 {
            return Ok(());
        }
        let mut touched = std::mem::take(&mut self.touched);
        for out in ctx.drain_outbox() {
            let Some(link) = self.graph.edge_id(from, out.to) else {
                return Err(SimError::NotNeighbor { from, to: out.to });
            };
            self.metrics.record_message(out.class);
            let seq = self.seq;
            self.seq += 1;
            let handle = self.arena.alloc(out.msg);
            self.links[link.index()].push(out.priority, seq, handle);
            touched.push(link);
        }
        for link in touched.drain(..) {
            self.try_inject(link);
        }
        self.touched = touched;
        Ok(())
    }

    /// Replays one delivery's effects — trace record, event accounting, the
    /// sends its activation captured (each drawing its seq here, in exact
    /// global `seq` order), and the acknowledgment back to the sender. The
    /// protocol activation itself already ran in the batch's activation pass;
    /// splitting the two keeps the seq stream identical to the historical
    /// one-at-a-time engine's (the ack draws one seq for its delay and a
    /// second inside `schedule`, mirroring it exactly — the seq stream feeds
    /// the delay adversary).
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn delivery_effects(
        &mut self,
        seq: u64,
        link: DirectedEdgeId,
        rows: &[(NodeId, u64, MessageClass, u32)],
    ) -> Result<(), SimError> {
        let state = &self.links[link.index()];
        let (from, to) = (state.from, state.to);
        if let Some(tr) = self.trace.as_mut() {
            tr.on_delivery(seq, self.now, 0, from, to);
        }
        self.deliveries += 1;
        if self.deliveries > self.max_events {
            return Err(SimError::EventLimitExceeded { limit: self.max_events });
        }
        self.metrics.events += 1;
        let mut touched = std::mem::take(&mut self.touched);
        for &(out_to, priority, class, handle) in rows {
            let Some(l) = self.graph.edge_id(to, out_to) else {
                return Err(SimError::NotNeighbor { from: to, to: out_to });
            };
            self.metrics.record_message(class);
            let mseq = self.seq;
            self.seq += 1;
            self.links[l.index()].push(priority, mseq, handle);
            touched.push(l);
        }
        for l in touched.drain(..) {
            self.try_inject(l);
        }
        self.touched = touched;
        self.metrics.acks += 1;
        let ack_seq = self.next_seq();
        let ack_delay = self.delay.delay_ticks_at(to, from, ack_seq, self.now);
        let at = self.now + ack_delay;
        self.schedule(at, EvRef::ack(link.0));
        Ok(())
    }

    fn update_done(&mut self, node: NodeId) {
        if !self.done_flags[node.index()] && self.nodes[node.index()].is_done() {
            self.done_flags[node.index()] = true;
            self.done_count += 1;
            if self.done_count == self.nodes.len() && self.time_all_done.is_none() {
                self.time_all_done = Some(self.now);
            }
        }
    }
}

/// Knobs of one [`run_async`] call. [`RunOptions::default`] is the plain
/// run — timing wheel, default limits, no faults, no trace, no slab,
/// [`ThreadMode::Auto`], batching on — so callers spell out only what they
/// change: `RunOptions { trace: true, ..RunOptions::default() }`.
pub struct RunOptions<'a, M> {
    /// The delivery budget (`SimLimits::max_events`).
    pub limits: SimLimits,
    /// Event scheduler. Every kind produces the bit-identical schedule.
    pub scheduler: SchedulerKind,
    /// Dynamic-topology fault plan the engine consults at dispatch and
    /// delivery time (drop semantics in [`crate::fault`]). `None` runs on the
    /// intact topology; an empty plan behaves exactly like `None`.
    pub faults: Option<&'a FaultPlan>,
    /// Record the [`DeliveryTrace`] the happens-before checker consumes into
    /// [`AsyncReport::trace`]. Tracing only appends to a side buffer, so the
    /// schedule is bit-identical with it on or off. Fault-dropped deliveries
    /// leave no record (causally, they never happened).
    pub trace: bool,
    /// Recycled engine state ([`crate::recycle`]) for the timing wheel; the
    /// heap and the sharded engine ignore it. The schedule is bit-identical
    /// to a cold run's.
    pub slab: Option<&'a mut EngineSlab<M>>,
    /// Worker-thread policy of the sharded engine ([`ThreadMode`]); the
    /// serial schedulers ignore it.
    pub threads: ThreadMode,
    /// Whether the sharded engine batches windows of causality-free ticks
    /// into one wide phase ([`crate::sharded`]); the serial schedulers ignore
    /// it. Schedules are bit-identical either way.
    pub batching: bool,
}

// Manual impl: `derive` would demand `M: Default`.
impl<M> Default for RunOptions<'_, M> {
    fn default() -> Self {
        RunOptions {
            limits: SimLimits::default(),
            scheduler: SchedulerKind::default(),
            faults: None,
            trace: false,
            slab: None,
            threads: ThreadMode::default(),
            batching: true,
        }
    }
}

/// Runs an asynchronous protocol on `graph` under the delay adversary `delay`:
/// the one entry point into every engine. `make` constructs the per-node
/// protocol instance; `opts` picks the scheduler and the optional knobs.
///
/// Every scheduler, thread mode and batching mode, with or without a trace or
/// a recycled slab, produces the bit-identical execution (pinned by
/// `tests/scheduler_equiv.rs`, `tests/threaded_equiv.rs` and
/// `tests/engine_reuse.rs`). The `Send` bounds let
/// [`SchedulerKind::Sharded`] hand shards to worker threads; a protocol whose
/// instances share state can keep every activation on the calling thread
/// with [`ThreadMode::Off`].
///
/// # Errors
///
/// * [`SimError::NotNeighbor`] if a protocol sends to a non-neighbor.
/// * [`SimError::EventLimitExceeded`] if the run exceeds `limits.max_events`
///   deliveries (protection against livelocked protocols).
pub fn run_async<P, F>(
    graph: &Graph,
    delay: DelayModel,
    make: F,
    mut opts: RunOptions<'_, P::Message>,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol + Send,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    let slab = opts.slab.take();
    match opts.scheduler {
        SchedulerKind::TimingWheel => match slab {
            Some(slab) => slab.run(graph, delay, make, &opts),
            None => {
                let wheel = TimingWheel::new(delay.max_delay_ticks());
                run_engine_parts(graph, delay, make, &opts, wheel, &mut EngineParts::new(graph))
                    .map(|(report, _)| report)
            }
        },
        SchedulerKind::BinaryHeap => {
            let heap = HeapScheduler::new();
            run_engine_parts(graph, delay, make, &opts, heap, &mut EngineParts::new(graph))
                .map(|(report, _)| report)
        }
        SchedulerKind::Sharded { shards, workers } => {
            crate::sharded::run_sharded(graph, delay, make, &opts, shards, workers)
        }
    }
}

/// [`run_async`] with a fault plan, limits and scheduler as positional
/// arguments, kept for the benchmark package (`perfbench/`). Sharded kinds
/// run on the calling thread ([`ThreadMode::Off`]).
///
/// # Errors
///
/// Same as [`run_async`].
pub fn run_async_faulted<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    scheduler: SchedulerKind,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol + Send,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    let opts =
        RunOptions { limits, scheduler, faults, threads: ThreadMode::Off, ..Default::default() };
    run_async(graph, delay, make, opts)
}

/// The serial engine over caller-owned [`EngineParts`]: the engine's
/// recyclable state is moved out of `parts` for the run and moved back on
/// success (with the scheduler returned for the same reason). On error the
/// parts are left in their default (empty) state — a failed run's transient
/// state is discarded wholesale rather than cleaned, so recycling degrades to
/// cold allocation instead of risking a poisoned slab. Reads `limits`,
/// `faults` and `trace` from `opts`.
///
/// The caller must have called [`EngineParts::adopt`] for `graph` first.
pub(crate) fn run_engine_parts<P, F, S>(
    graph: &Graph,
    delay: DelayModel,
    mut make: F,
    opts: &RunOptions<'_, P::Message>,
    sched: S,
    parts: &mut EngineParts<P::Message>,
) -> Result<(AsyncReport<P>, S), SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
    S: EventScheduler<EvRef>,
{
    debug_assert_eq!(parts.links.len(), graph.directed_edge_count(), "adopt() must run first");
    debug_assert_eq!(parts.done_flags.len(), graph.node_count(), "adopt() must run first");
    let mut engine = Engine {
        graph,
        delay,
        nodes: graph.nodes().map(&mut make).collect(),
        links: std::mem::take(&mut parts.links),
        arena: std::mem::take(&mut parts.arena),
        sched,
        now: 0,
        seq: 0,
        deliveries: 0,
        max_events: opts.limits.max_events,
        metrics: RunMetrics::default(),
        done_flags: std::mem::take(&mut parts.done_flags),
        done_count: 0,
        time_all_done: None,
        outbox_pool: std::mem::take(&mut parts.outbox_pool),
        touched: std::mem::take(&mut parts.touched),
        trace: opts.trace.then(|| TraceState::new(1)),
        faults: opts.faults.map(|plan| FaultState::new(graph, plan)),
        dropped: 0,
        max_batch: 0,
    };

    // Time 0: start every node. A node crashed at tick 0 misses its `on_start`
    // (crash-stop: it emits nothing) but still gets the done-check, so "never
    // participated" nodes count as done only if their protocol says so.
    if let Some(f) = engine.faults.as_mut() {
        f.advance_to(0);
    }
    for v in graph.nodes() {
        if engine.faults.as_ref().is_some_and(|f| f.is_crashed(v)) {
            engine.update_done(v);
            continue;
        }
        let mut ctx = Ctx::with_buffer(v, std::mem::take(&mut engine.outbox_pool));
        engine.nodes[v.index()].on_start(&mut ctx);
        engine.dispatch_outbox(v, &mut ctx)?;
        engine.outbox_pool = ctx.into_buffer();
        engine.update_done(v);
    }

    // One tick per iteration: `take_due` hands over every event of the earliest
    // pending tick in ascending seq order (events scheduled while processing the
    // tick land strictly later, so the batch is complete). Ticks with at most
    // `SMALL_TICK` events are processed one at a time; larger ticks run three
    // passes over the batch (DESIGN.md §10): classify, activate by destination
    // group, replay effects in seq order. Both orders produce the identical
    // schedule.
    const SMALL_TICK: usize = 32;
    let mut due: Vec<(u64, EvRef)> = Vec::new();
    let mut batch = EventBatch::new();
    // Outgoings captured by the activation pass, and each delivery's span in
    // that row buffer (`out_span[i]` is `(start, count)` for batch event `i`).
    let mut out_rows: Vec<(NodeId, u64, MessageClass, u32)> = Vec::new();
    let mut out_span: Vec<(u32, u32)> = Vec::new();
    while let Some(t) = engine.sched.take_due(&mut due) {
        engine.now = t;
        if let Some(f) = engine.faults.as_mut() {
            f.advance_to(t);
        }
        engine.max_batch = engine.max_batch.max(due.len() as u64);

        // Small ticks skip the batch machinery: spread-delay adversaries
        // (jitter) make most ticks carry a handful of events to distinct
        // destinations, where grouping cannot amortize its classify/seal
        // cost. Processing them one event at a time in ascending seq order
        // interleaves each event's activation with its effects — which is
        // exactly the three-pass order collapsed per event: activations draw
        // no seqs, effects of event `i` all precede effects of event `i+1`,
        // and nothing an effect mutates (link state, scheduler) feeds the
        // fault classification or a later activation's input. The schedule
        // is bit-identical either way (pinned by `tests/scheduler_equiv.rs`).
        if due.len() <= SMALL_TICK {
            for &(seq, ev) in &due {
                let edge = DirectedEdgeId(ev.link);
                let state = &engine.links[ev.link as usize];
                let (from, to) = (state.from, state.to);
                if ev.is_ack() {
                    if let Some(tr) = engine.trace.as_mut() {
                        tr.on_ack(seq);
                    }
                    engine.links[ev.link as usize].in_flight = false;
                    engine.try_inject(edge);
                } else if engine.faults.as_ref().is_some_and(|f| f.blocks(edge, from, to)) {
                    engine.arena.take(ev.payload);
                    engine.dropped += 1;
                    engine.links[ev.link as usize].in_flight = false;
                    engine.try_inject(edge);
                } else {
                    let msg = engine.arena.take(ev.payload);
                    let mut ctx = Ctx::with_buffer(to, std::mem::take(&mut engine.outbox_pool));
                    engine.nodes[to.index()].on_message(from, msg, &mut ctx);
                    out_rows.clear();
                    for out in ctx.drain_outbox() {
                        out_rows.push((
                            out.to,
                            out.priority,
                            out.class,
                            engine.arena.alloc(out.msg),
                        ));
                    }
                    engine.outbox_pool = ctx.into_buffer();
                    engine.update_done(to);
                    engine.delivery_effects(seq, edge, &out_rows)?;
                }
            }
            due.clear();
            continue;
        }

        // Pass 1 — classify: acks, fault-blocked deliveries (the adversary
        // eats them: no activation, no ack, no trace record, no sequence
        // draws — but their payload handle still needs freeing, which pass 3
        // does), and live deliveries grouped by destination.
        batch.begin();
        for &(seq, ev) in &due {
            if ev.is_ack() {
                batch.push_ack(seq, ev.link);
            } else {
                let state = &engine.links[ev.link as usize];
                let (from, to) = (state.from, state.to);
                if engine
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.blocks(DirectedEdgeId(ev.link), from, to))
                {
                    batch.push_drop(seq, ev.link, ev.payload);
                } else {
                    batch.push_deliver(seq, ev.link, ev.payload, to.0 as u32);
                }
            }
        }
        due.clear();
        batch.seal();

        // Pass 2 — activate: each destination node runs once over all its
        // arrivals this tick (in seq order within the group), with one
        // borrowed outbox buffer and one done-check. Outgoings move straight
        // into the arena; no sequence numbers are drawn here, so the
        // activation order (group order, not seq order) cannot leak into the
        // schedule.
        out_rows.clear();
        out_span.clear();
        out_span.resize(batch.len(), (0, 0));
        for g in 0..batch.groups() {
            let (dst, members) = batch.group(g);
            let dst = NodeId(dst as usize);
            let mut ctx = Ctx::with_buffer(dst, std::mem::take(&mut engine.outbox_pool));
            for &i in members {
                let i = i as usize;
                let (_, _, link, payload) = batch.event(i);
                let from = engine.links[link as usize].from;
                let msg = engine.arena.take(payload);
                engine.nodes[dst.index()].on_message(from, msg, &mut ctx);
                let start = out_rows.len() as u32;
                for out in ctx.drain_outbox() {
                    out_rows.push((out.to, out.priority, out.class, engine.arena.alloc(out.msg)));
                }
                out_span[i] = (start, out_rows.len() as u32 - start);
            }
            engine.outbox_pool = ctx.into_buffer();
            engine.update_done(dst);
        }

        // Pass 3 — effects, in exact global seq order: every send and ack
        // draws its seq at precisely the position the one-at-a-time engine
        // drew it, so the schedule is bit-identical.
        for (i, &(start, count)) in out_span.iter().enumerate() {
            let (seq, tag, link, payload) = batch.event(i);
            let edge = DirectedEdgeId(link);
            match tag {
                Tag::Deliver => {
                    let rows = &out_rows[start as usize..(start + count) as usize];
                    engine.delivery_effects(seq, edge, rows)?;
                }
                Tag::Ack => {
                    if let Some(tr) = engine.trace.as_mut() {
                        tr.on_ack(seq);
                    }
                    engine.links[link as usize].in_flight = false;
                    engine.try_inject(edge);
                }
                Tag::Drop => {
                    engine.arena.take(payload);
                    engine.dropped += 1;
                    engine.links[link as usize].in_flight = false;
                    engine.try_inject(edge);
                }
            }
        }
    }

    // Quiescence means no event is scheduled and no link queue is non-empty
    // (a queued message always has an ack or drop pending to release it), so
    // every arena handle must have been taken back — the engine-level leak
    // check behind the unit-level one in `arena::tests`. Runs through an
    // [`EngineSlab`] promote this into a hard assertion.
    debug_assert_eq!(engine.arena.live(), 0, "a finished run must return every arena handle");

    engine.metrics.time_to_output = engine.time_all_done.map(|t| t as f64 / TICKS_PER_UNIT as f64);
    engine.metrics.time_to_quiescence = engine.now as f64 / TICKS_PER_UNIT as f64;

    let report = AsyncReport {
        metrics: engine.metrics,
        nodes: engine.nodes,
        overflow_events: engine.sched.overflow_scheduled(),
        peak_live_handles: engine.arena.peak_live() as u64,
        arena_bytes: engine.arena.bytes() as u64,
        max_batch: engine.max_batch,
        batched_ticks: 0,
        pool_dispatches: 0,
        dropped_events: engine.dropped,
        fault_transitions: engine.faults.as_ref().map_or(0, FaultState::transitions),
        trace: engine.trace.map(TraceState::finish),
    };
    // Hand the recyclable halves back for the next run.
    parts.links = engine.links;
    parts.arena = engine.arena;
    parts.done_flags = engine.done_flags;
    parts.outbox_pool = engine.outbox_pool;
    parts.touched = engine.touched;
    Ok((report, engine.sched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MessageClass;

    /// Asynchronous flooding: node 0 floods a token; each node records the hop count
    /// of the first copy it receives (which may exceed the true distance under
    /// adversarial delays — flooding is not a correct BFS, which is the point of the
    /// synchronizer). Borrows its neighbor slice from the graph.
    #[derive(Debug)]
    struct Flood<'g> {
        me: NodeId,
        neighbors: &'g [NodeId],
        hops: Option<u64>,
    }

    impl<'g> Flood<'g> {
        fn new(graph: &'g Graph, me: NodeId) -> Self {
            Flood { me, neighbors: graph.neighbors(me), hops: None }
        }
    }

    impl Protocol for Flood<'_> {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if self.me == NodeId(0) {
                self.hops = Some(0);
                for &u in self.neighbors {
                    ctx.send(u, 1);
                }
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
            if self.hops.is_none() {
                self.hops = Some(msg);
                for &u in self.neighbors {
                    ctx.send(u, msg + 1);
                }
            }
        }

        fn is_done(&self) -> bool {
            self.hops.is_some()
        }
    }

    #[test]
    fn flood_reaches_every_node_under_every_adversary() {
        let g = Graph::grid(4, 4);
        for delay in DelayModel::standard_suite(5) {
            let report =
                run_async(&g, delay.clone(), |v| Flood::new(&g, v), RunOptions::default()).unwrap();
            assert!(
                report.nodes.iter().all(|n| n.hops.is_some()),
                "all nodes reached under {delay:?}"
            );
            assert!(report.metrics.time_to_output.is_some());
            assert!(report.metrics.total_messages() > 0);
            assert_eq!(report.metrics.acks, report.metrics.events);
        }
    }

    #[test]
    fn uniform_delay_flood_time_matches_distance_bound() {
        let g = Graph::path(8);
        let report =
            run_async(&g, DelayModel::uniform(), |v| Flood::new(&g, v), RunOptions::default())
                .unwrap();
        // Under uniform unit delays every hop costs exactly one unit, so the last
        // node (distance 7) is done at time 7.
        let t = report.metrics.time_to_output.unwrap();
        assert!((t - 7.0).abs() < 1e-9, "time was {t}");
    }

    #[test]
    fn adversarial_delays_can_mislead_naive_flooding() {
        // On a cycle, make links incident to low-index nodes slow: the token then
        // reaches the far side the "long way around" first, giving wrong hop counts.
        // This demonstrates why a synchronizer is needed at all.
        let g = Graph::cycle(8);
        let report =
            run_async(&g, DelayModel::slow_cut(4), |v| Flood::new(&g, v), RunOptions::default())
                .unwrap();
        let hops: Vec<u64> = report.nodes.iter().map(|n| n.hops.unwrap()).collect();
        let true_dist = ds_graph::metrics::bfs_distances(&g, NodeId(0));
        let mismatches =
            hops.iter().zip(true_dist.iter()).filter(|(h, d)| **h != d.unwrap() as u64).count();
        assert!(mismatches > 0, "expected the adversary to distort naive flooding");
    }

    #[test]
    fn ack_discipline_serializes_a_link() {
        /// Node 0 sends `k` messages to node 1 at start; node 1 counts arrivals.
        #[derive(Debug)]
        struct Burst {
            me: NodeId,
            received: u64,
        }
        impl Protocol for Burst {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if self.me == NodeId(0) {
                    for _ in 0..5 {
                        ctx.send(NodeId(1), ());
                    }
                }
            }
            fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Ctx<()>) {
                self.received += 1;
            }
            fn is_done(&self) -> bool {
                self.me == NodeId(0) || self.received == 5
            }
        }
        let g = Graph::path(2);
        let report = run_async(
            &g,
            DelayModel::uniform(),
            |me| Burst { me, received: 0 },
            RunOptions::default(),
        )
        .unwrap();
        // Each of the 5 messages must wait for the previous message's ack: delivery i
        // completes at time 2i+1, so the last arrives at time 9.
        let t = report.metrics.time_to_output.unwrap();
        assert!((t - 9.0).abs() < 1e-9, "time was {t}");
        assert_eq!(report.metrics.total_messages(), 5);
    }

    #[test]
    fn priorities_order_queued_messages() {
        /// Node 0 queues a low-priority then a high-priority message; node 1 records
        /// the arrival order.
        #[derive(Debug)]
        struct Prio {
            me: NodeId,
            order: Vec<u8>,
        }
        impl Protocol for Prio {
            type Message = u8;
            fn on_start(&mut self, ctx: &mut Ctx<u8>) {
                if self.me == NodeId(0) {
                    ctx.send_with(NodeId(1), 9, 9, MessageClass::Algorithm);
                    ctx.send_with(NodeId(1), 1, 1, MessageClass::Algorithm);
                    ctx.send_with(NodeId(1), 5, 5, MessageClass::Algorithm);
                }
            }
            fn on_message(&mut self, _from: NodeId, msg: u8, _ctx: &mut Ctx<u8>) {
                self.order.push(msg);
            }
            fn is_done(&self) -> bool {
                self.me == NodeId(0) || self.order.len() == 3
            }
        }
        let g = Graph::path(2);
        let report = run_async(
            &g,
            DelayModel::uniform(),
            |me| Prio { me, order: Vec::new() },
            RunOptions::default(),
        )
        .unwrap();
        // All three messages are queued before the link transmits, so they are
        // delivered in ascending priority order regardless of send order.
        assert_eq!(report.nodes[1].order, vec![1, 5, 9]);
    }

    #[test]
    fn outage_model_exercises_the_overflow_heap_deterministically() {
        // The composite outage adversary assigns multi-τ delays, so deliveries
        // land beyond the wheel's one-τ horizon and must park in the overflow
        // heap — which no single-τ model ever reaches. The schedule must stay
        // byte-identical across repeat runs and across schedulers.
        let g = Graph::grid(6, 6);
        let delay = DelayModel::outage(11, 4, 2);
        let run = |scheduler: SchedulerKind| {
            let report = run_async(
                &g,
                delay.clone(),
                |v| Flood::new(&g, v),
                RunOptions { scheduler, ..RunOptions::default() },
            )
            .expect("outage run");
            let hops: Vec<Option<u64>> = report.nodes.iter().map(|n| n.hops).collect();
            (hops, report.metrics, report.overflow_events)
        };
        let (hops_a, metrics_a, overflow_a) = run(SchedulerKind::TimingWheel);
        assert!(hops_a.iter().all(Option::is_some), "flood completes despite outages");
        assert!(overflow_a > 0, "multi-τ delays must park events beyond the horizon");
        // Repeat run: bit-identical.
        let (hops_b, metrics_b, overflow_b) = run(SchedulerKind::TimingWheel);
        assert_eq!(hops_a, hops_b);
        assert_eq!(metrics_a, metrics_b);
        assert_eq!(overflow_a, overflow_b);
        // The heap scheduler has no horizon (overflow 0) but must produce the
        // exact same simulated execution.
        let (hops_h, metrics_h, overflow_h) = run(SchedulerKind::BinaryHeap);
        assert_eq!(hops_a, hops_h);
        assert_eq!(metrics_a, metrics_h);
        assert_eq!(overflow_h, 0);
    }

    #[test]
    fn single_unit_models_never_overflow() {
        let g = Graph::grid(4, 4);
        for delay in DelayModel::standard_suite(3) {
            let report =
                run_async(&g, delay.clone(), |v| Flood::new(&g, v), RunOptions::default()).unwrap();
            assert_eq!(report.overflow_events, 0, "{delay:?} stayed within one τ");
        }
    }

    #[test]
    fn serial_engines_report_zero_batching_and_pool_counters() {
        // `batched_ticks` and `pool_dispatches` are sharded-engine internals;
        // the wheel and heap engines must pin them at exactly zero so bench
        // consumers can rely on "0 means the feature was off or inapplicable".
        let g = Graph::grid(4, 4);
        for scheduler in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let report = run_async(
                &g,
                DelayModel::uniform(),
                |v| Flood::new(&g, v),
                RunOptions { scheduler, ..RunOptions::default() },
            )
            .unwrap();
            assert_eq!(report.batched_ticks, 0, "{scheduler:?}");
            assert_eq!(report.pool_dispatches, 0, "{scheduler:?}");
            assert_eq!(report.dropped_events, 0, "{scheduler:?}: no fault plan, no drops");
            assert_eq!(report.fault_transitions, 0, "{scheduler:?}");
        }
    }

    #[test]
    fn a_severed_link_drops_in_flight_messages_and_recovery_readmits() {
        use crate::fault::FaultPlan;
        // Node 0 floods a path of 3. Cutting link {0,1} just after start kills
        // the first hop mid-flight, so nodes 1 and 2 never learn anything ...
        let g = Graph::path(3);
        let cut = FaultPlan::new().link_down(1, NodeId(0), NodeId(1));
        let report = run_async(
            &g,
            DelayModel::uniform(),
            |v| Flood::new(&g, v),
            RunOptions {
                faults: Some(&cut),
                scheduler: SchedulerKind::TimingWheel,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.nodes[1].hops, None);
        assert_eq!(report.nodes[2].hops, None);
        assert!(report.dropped_events > 0);
        assert_eq!(report.fault_transitions, 1);
        assert!(report.metrics.time_to_output.is_none(), "partial run has no completion time");
        // ... while a cut that heals within the first hop's flight time only
        // delays nothing: uniform delay is a full τ, the link is back at half
        // of it, and retransmission is not modeled — the dropped copy is lost
        // for good, but traffic injected after recovery flows again.
        let heal =
            FaultPlan::new().link_down(1, NodeId(1), NodeId(2)).link_up(2500, NodeId(1), NodeId(2));
        let report = run_async(
            &g,
            DelayModel::uniform(),
            |v| Flood::new(&g, v),
            RunOptions {
                faults: Some(&heal),
                scheduler: SchedulerKind::TimingWheel,
                ..RunOptions::default()
            },
        )
        .unwrap();
        // Node 1 still hears from node 0 (that link was never cut)...
        assert_eq!(report.nodes[1].hops, Some(1));
        // ...but its relay died on the severed link, and Flood never resends.
        assert_eq!(report.nodes[2].hops, None);
        assert_eq!(report.fault_transitions, 2);
    }

    #[test]
    fn a_node_crashed_at_tick_zero_never_starts() {
        use crate::fault::FaultPlan;
        let g = Graph::path(3);
        let plan = FaultPlan::new().node_crash(0, NodeId(0));
        let report = run_async(
            &g,
            DelayModel::uniform(),
            |v| Flood::new(&g, v),
            RunOptions {
                faults: Some(&plan),
                scheduler: SchedulerKind::TimingWheel,
                ..RunOptions::default()
            },
        )
        .unwrap();
        // The source never ran `on_start`: nothing was ever sent.
        assert!(report.nodes.iter().all(|n| n.hops.is_none()));
        assert_eq!(report.metrics.total_messages(), 0);
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn an_empty_fault_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let g = Graph::grid(4, 4);
        for delay in DelayModel::standard_suite(9) {
            let plain =
                run_async(&g, delay.clone(), |v| Flood::new(&g, v), RunOptions::default()).unwrap();
            let empty = FaultPlan::new();
            let faulted = run_async(
                &g,
                delay.clone(),
                |v| Flood::new(&g, v),
                RunOptions {
                    faults: Some(&empty),
                    scheduler: SchedulerKind::TimingWheel,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            let plain_hops: Vec<_> = plain.nodes.iter().map(|n| n.hops).collect();
            let faulted_hops: Vec<_> = faulted.nodes.iter().map(|n| n.hops).collect();
            assert_eq!(plain_hops, faulted_hops, "{delay:?}");
            assert_eq!(plain.metrics, faulted.metrics, "{delay:?}");
            assert_eq!(faulted.dropped_events, 0);
        }
    }

    #[test]
    fn event_limit_aborts_livelock() {
        #[derive(Debug)]
        struct PingPong {
            me: NodeId,
        }
        impl Protocol for PingPong {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if self.me == NodeId(0) {
                    ctx.send(NodeId(1), ());
                }
            }
            fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Ctx<()>) {
                ctx.send(from, ());
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = Graph::path(2);
        let err = run_async(
            &g,
            DelayModel::uniform(),
            |me| PingPong { me },
            RunOptions {
                limits: SimLimits { max_events: 100, ..SimLimits::default() },
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 100 });
    }

    #[test]
    fn sending_to_non_neighbor_is_rejected() {
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
        let g = Graph::path(3);
        let err = run_async(&g, DelayModel::uniform(), |me| Bad { me }, RunOptions::default())
            .unwrap_err();
        assert_eq!(err, SimError::NotNeighbor { from: NodeId(0), to: NodeId(2) });
    }
}

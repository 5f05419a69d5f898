//! Callback wrappers for the traced pass.
//!
//! [`Timed`] wraps a synchronizer protocol (det, α or β) and [`TimedAlg`] wraps
//! the event-driven algorithm inside it. Both time every callback with
//! `Instant`, read the per-thread allocation counters of [`crate::alloc`]
//! around it, and add the deltas into their own node. [`Timed`] also tallies
//! every delivered message by mechanism. After the run the benchmark sums the
//! nodes of `AsyncReport::nodes`, so no per-event data is kept.
//!
//! Wrapping changes no message, priority or order: the wrapped run executes
//! the same schedule as the unwrapped one, which the benchmark checks.

use crate::alloc;
use ds_graph::NodeId;
use ds_netsim::event_driven::{EventDriven, PulseCtx};
use ds_netsim::protocol::{Ctx, Protocol};
use ds_sync::alpha::{AlphaMsg, AlphaSynchronizer};
use ds_sync::beta::{BetaMsg, BetaSynchronizer};
use ds_sync::{DetSynchronizer, SyncMsg};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Message mechanisms, the suffixes of the `sync.msgs.*` metrics.
pub const MECHANISMS: [&str; 9] = [
    "alg",
    "alg_ack",
    "decision",
    "safe",
    "goahead_exec",
    "goahead_recipient",
    "reg",
    "barrier_a",
    "barrier_b",
];

/// Maps a synchronizer message to its index in [`MECHANISMS`].
pub trait Mechanism {
    fn mechanism(&self) -> usize;
}

impl<M> Mechanism for SyncMsg<M> {
    fn mechanism(&self) -> usize {
        match self {
            SyncMsg::Alg { .. } => 0,
            SyncMsg::AlgAck { .. } => 1,
            SyncMsg::Decision { .. } => 2,
            SyncMsg::Safe { .. } => 3,
            SyncMsg::GoAheadExec { .. } => 4,
            SyncMsg::GoAheadRecipient { .. } => 5,
            SyncMsg::Reg { .. } => 6,
            SyncMsg::BarrierAUp { .. } | SyncMsg::BarrierADown { .. } => 7,
            SyncMsg::BarrierBUp { .. } | SyncMsg::BarrierBDown { .. } => 8,
        }
    }
}

/// α: a safety notice is the `safe` mechanism.
impl<M> Mechanism for AlphaMsg<M> {
    fn mechanism(&self) -> usize {
        match self {
            AlphaMsg::Alg { .. } => 0,
            AlphaMsg::Ack { .. } => 1,
            AlphaMsg::Safe { .. } => 3,
        }
    }
}

/// β: the convergecast is `safe`, the root's broadcast is `goahead_exec`.
impl<M> Mechanism for BetaMsg<M> {
    fn mechanism(&self) -> usize {
        match self {
            BetaMsg::Alg { .. } => 0,
            BetaMsg::Ack { .. } => 1,
            BetaMsg::Ready { .. } => 3,
            BetaMsg::NextPulse { .. } => 4,
        }
    }
}

/// Time and allocations charged to one layer on one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Cost {
    pub fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }

    pub fn minus(self, other: Cost) -> Cost {
        Cost {
            ns: self.ns.saturating_sub(other.ns),
            allocs: self.allocs.saturating_sub(other.allocs),
            bytes: self.bytes.saturating_sub(other.bytes),
        }
    }
}

/// Measures the cost of `f` on the calling thread.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (a0, b0) = alloc::local();
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let (a1, b1) = alloc::local();
    (r, Cost { ns, allocs: a1 - a0, bytes: b1 - b0 })
}

/// Callback time per OS thread, for the busiest-worker figure of the sharded
/// engine. Each thread registers its counter on its first callback; counters
/// of finished threads stay registered and are zeroed with the rest.
static THREAD_BUSY: Mutex<Vec<Arc<AtomicU64>>> = Mutex::new(Vec::new());

thread_local! {
    static BUSY: Arc<AtomicU64> = {
        let counter = Arc::new(AtomicU64::new(0));
        THREAD_BUSY.lock().expect("thread busy table poisoned").push(Arc::clone(&counter));
        counter
    };
}

fn charge_thread(ns: u64) {
    BUSY.with(|b| b.fetch_add(ns, Relaxed));
}

/// Zeroes the per-thread callback counters; call before a traced run.
pub fn reset_thread_busy() {
    for b in THREAD_BUSY.lock().expect("thread busy table poisoned").iter() {
        b.store(0, Relaxed);
    }
}

/// Callback time of the busiest thread since [`reset_thread_busy`], in ns.
pub fn max_thread_busy() -> u64 {
    let table = THREAD_BUSY.lock().expect("thread busy table poisoned");
    table.iter().map(|b| b.load(Relaxed)).max().unwrap_or(0)
}

/// An event-driven algorithm whose callbacks are timed.
#[derive(Debug)]
pub struct TimedAlg<A> {
    inner: A,
    cost: Cost,
}

impl<A> TimedAlg<A> {
    /// Builds the algorithm through `make`, charging its construction.
    pub fn build(make: impl FnOnce() -> A) -> Self {
        let (inner, cost) = measure(make);
        TimedAlg { inner, cost }
    }

    pub fn cost(&self) -> Cost {
        self.cost
    }
}

impl<A: EventDriven> EventDriven for TimedAlg<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn on_init(&mut self, ctx: &mut PulseCtx<Self::Msg>) {
        let ((), cost) = measure(|| self.inner.on_init(ctx));
        self.cost.add(cost);
    }

    fn on_pulse(&mut self, received: &[(NodeId, Self::Msg)], ctx: &mut PulseCtx<Self::Msg>) {
        let ((), cost) = measure(|| self.inner.on_pulse(received, ctx));
        self.cost.add(cost);
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }
}

/// Read access to the wrapped algorithm of a synchronizer node.
pub trait Wraps<A> {
    fn alg(&self) -> &A;
}

impl<A: EventDriven> Wraps<A> for DetSynchronizer<A> {
    fn alg(&self) -> &A {
        self.algorithm()
    }
}

impl<A: EventDriven> Wraps<A> for AlphaSynchronizer<'_, A> {
    fn alg(&self) -> &A {
        self.algorithm()
    }
}

impl<A: EventDriven> Wraps<A> for BetaSynchronizer<A> {
    fn alg(&self) -> &A {
        self.algorithm()
    }
}

/// A synchronizer protocol whose callbacks are timed and whose deliveries
/// are tallied by mechanism.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    /// Construction plus every callback, nested algorithm included.
    cost: Cost,
    msgs: [u64; MECHANISMS.len()],
    /// `is_done` takes `&self`, so its time accumulates through a cell.
    done_ns: Cell<u64>,
}

impl<P> Timed<P> {
    /// Builds the node through `make`, charging its construction.
    pub fn build(make: impl FnOnce() -> P) -> Self {
        let (inner, cost) = measure(make);
        charge_thread(cost.ns);
        Timed { inner, cost, msgs: [0; MECHANISMS.len()], done_ns: Cell::new(0) }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn charge(&mut self, cost: Cost) {
        self.cost.add(cost);
        charge_thread(cost.ns);
    }
}

impl<P: Protocol> Protocol for Timed<P>
where
    P::Message: Mechanism,
{
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Message>) {
        let ((), cost) = measure(|| self.inner.on_start(ctx));
        self.charge(cost);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<Self::Message>) {
        self.msgs[msg.mechanism()] += 1;
        let ((), cost) = measure(|| self.inner.on_message(from, msg, ctx));
        self.charge(cost);
    }

    fn is_done(&self) -> bool {
        let t0 = Instant::now();
        let done = self.inner.is_done();
        let ns = t0.elapsed().as_nanos() as u64;
        self.done_ns.set(self.done_ns.get() + ns);
        charge_thread(ns);
        done
    }
}

/// Sums of one traced run's nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Synchronizer callbacks and construction, nested algorithm included.
    pub callbacks: Cost,
    /// The nested algorithm alone.
    pub alg: Cost,
    pub msgs: [u64; MECHANISMS.len()],
}

impl Tally {
    /// Sums the wrapped nodes of a finished run.
    pub fn of<P, A>(nodes: &[Timed<P>]) -> Tally
    where
        P: Wraps<TimedAlg<A>>,
    {
        let mut t = Tally::default();
        for node in nodes {
            t.callbacks.add(node.cost);
            t.callbacks.ns += node.done_ns.get();
            t.alg.add(node.inner.alg().cost());
            for (sum, n) in t.msgs.iter_mut().zip(node.msgs) {
                *sum += n;
            }
        }
        t
    }

    pub fn add(&mut self, other: &Tally) {
        self.callbacks.add(other.callbacks);
        self.alg.add(other.alg);
        for (sum, n) in self.msgs.iter_mut().zip(other.msgs) {
            *sum += n;
        }
    }

    /// The synchronizer's own share: callbacks minus the nested algorithm.
    pub fn sync_self(&self) -> Cost {
        self.callbacks.minus(self.alg)
    }
}

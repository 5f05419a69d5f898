//! The traced pass: one run rebuilt through the public engine entry points
//! with the [`crate::wrap`] wrappers, and the per-layer figures derived from it.

use crate::alloc;
use crate::report::Report;
use crate::wrap::{self, Mechanism, Tally, Timed, TimedAlg, Wraps, MECHANISMS};
use ds_algos::bfs::{BfsAlgorithm, BfsOutput};
use ds_graph::{Graph, NodeId};
use ds_netsim::protocol::Protocol;
use ds_netsim::EventDriven;
use ds_netsim::{
    run_async_faulted, run_async_sharded_faulted_with, DelayModel, FaultPlan, RunMetrics,
    SchedulerKind, ShardedOptions, SimLimits, ThreadMode,
};
use ds_sync::alpha::AlphaSynchronizer;
use ds_sync::beta::{BetaSynchronizer, SpanningTree};
use ds_sync::{DetSynchronizer, SynchronizerConfig};
use std::sync::Arc;
use std::time::Instant;

/// A BFS-from-node-0 instance under the callback wrapper.
pub type Bfs<'g> = TimedAlg<BfsAlgorithm<'g>>;

/// Which synchronizer a traced run wraps.
pub enum Wrapped<'a> {
    Det(Arc<SynchronizerConfig>),
    Alpha,
    Beta(&'a Arc<SpanningTree>),
}

/// What one traced run observed.
pub struct TracedRun {
    pub wall_s: f64,
    /// Callback time of the busiest thread (the only thread, when serial).
    pub busy_max_s: f64,
    pub heap: alloc::Totals,
    pub tally: Tally,
    pub metrics: RunMetrics,
    pub outputs: Vec<Option<BfsOutput>>,
    pub violations: u64,
    pub max_batch: u64,
    pub overflow_events: u64,
    pub peak_live_handles: u64,
    pub arena_bytes: u64,
    pub pool_dispatches: u64,
    pub batched_ticks: u64,
    pub dropped_events: u64,
    pub fault_transitions: u64,
}

/// Ordering violations of a finished node (only det counts them).
trait Violations {
    fn violations(&self) -> u64 {
        0
    }
}

impl<A: EventDriven> Violations for DetSynchronizer<A> {
    fn violations(&self) -> u64 {
        self.ordering_violations()
    }
}
impl<A: EventDriven> Violations for AlphaSynchronizer<'_, A> {}
impl<A: EventDriven> Violations for BetaSynchronizer<A> {}

/// One wrapped run of BFS from node 0 under `sync` on the engine `scheduler`
/// selects (the sharded engine with its worker threads, like a session).
pub fn run(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    scheduler: SchedulerKind,
    sync: &Wrapped<'_>,
    max_pulse: u64,
) -> Result<TracedRun, String> {
    let alg = |v: NodeId| TimedAlg::build(|| BfsAlgorithm::new(graph, v, &[NodeId(0)]));
    match sync {
        Wrapped::Det(cfg) => run_with(graph, delay, faults, scheduler, |v| {
            Timed::build(|| DetSynchronizer::new(v, alg(v), Arc::clone(cfg)))
        }),
        Wrapped::Alpha => run_with(graph, delay, faults, scheduler, |v| {
            Timed::build(|| AlphaSynchronizer::new(graph, v, alg(v), max_pulse))
        }),
        Wrapped::Beta(tree) => run_with(graph, delay, faults, scheduler, |v| {
            Timed::build(|| BetaSynchronizer::new(Arc::clone(tree), v, alg(v), max_pulse))
        }),
    }
}

fn run_with<'g, P>(
    graph: &'g Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    scheduler: SchedulerKind,
    make: impl FnMut(NodeId) -> Timed<P>,
) -> Result<TracedRun, String>
where
    P: Protocol + Wraps<Bfs<'g>> + Violations + Send,
    P::Message: Mechanism + Send,
{
    let limits = SimLimits::default();
    wrap::reset_thread_busy();
    alloc::start();
    let t0 = Instant::now();
    let result = match scheduler {
        SchedulerKind::Sharded { shards, workers } => run_async_sharded_faulted_with(
            graph,
            delay,
            faults,
            make,
            limits,
            ShardedOptions { workers, threads: ThreadMode::Auto, ..ShardedOptions::new(shards) },
        ),
        kind => run_async_faulted(graph, delay, faults, make, limits, kind),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let heap = alloc::stop();
    let report = result.map_err(|e| format!("traced run failed: {e}"))?;
    Ok(TracedRun {
        wall_s,
        busy_max_s: wrap::max_thread_busy() as f64 / 1e9,
        heap,
        tally: Tally::of(&report.nodes),
        outputs: report.nodes.iter().map(|n| n.inner().alg().output()).collect(),
        violations: report.nodes.iter().map(|n| n.inner().violations()).sum(),
        metrics: report.metrics,
        max_batch: report.max_batch,
        overflow_events: report.overflow_events,
        peak_live_handles: report.peak_live_handles,
        arena_bytes: report.arena_bytes,
        pool_dispatches: report.pool_dispatches,
        batched_ticks: report.batched_ticks,
        dropped_events: report.dropped_events,
        fault_transitions: report.fault_transitions,
    })
}

/// Adds the `sync.*`, `algos.*`, `netsim.*` and `alloc.*` per-layer metrics
/// of a set of traced runs (summed; the heap peak is the largest), and checks
/// that the mechanism tally accounts for every delivery.
pub fn layer_metrics(report: &mut Report, runs: &[TracedRun]) {
    let mut tally = Tally::default();
    let (mut events, mut acks, mut netsim_s, mut heap_allocs) = (0u64, 0u64, 0.0, 0u64);
    let mut peak_heap = 0u64;
    for r in runs {
        tally.add(&r.tally);
        events += r.metrics.events;
        acks += r.metrics.acks;
        netsim_s += (r.wall_s - r.busy_max_s).max(0.0);
        heap_allocs += r.heap.allocs;
        peak_heap = peak_heap.max(r.heap.peak_live);
    }
    let per_event = |x: f64| x / events.max(1) as f64;
    let sync = tally.sync_self();
    report.layer("sync.self_s", sync.ns as f64 / 1e9, "s");
    report.layer("sync.ns_per_event", per_event(sync.ns as f64), "ns");
    report.layer("sync.allocs_per_event", per_event(sync.allocs as f64), "allocs/event");
    report.layer("sync.alloc_bytes_per_event", per_event(sync.bytes as f64), "B/event");
    for (name, n) in MECHANISMS.iter().zip(tally.msgs) {
        report.layer(&format!("sync.msgs.{name}"), n as f64, "count");
    }
    report.layer("algos.self_s", tally.alg.ns as f64 / 1e9, "s");
    report.layer("netsim.self_s", netsim_s, "s");
    report.layer("netsim.ns_per_event", per_event(netsim_s * 1e9), "ns");
    let netsim_allocs = heap_allocs.saturating_sub(tally.callbacks.allocs);
    report.layer("netsim.allocs_per_event", per_event(netsim_allocs as f64), "allocs/event");
    report.layer("netsim.events", events as f64, "count");
    report.layer("netsim.acks", acks as f64, "count");
    let max_of = |f: fn(&TracedRun) -> u64| runs.iter().map(f).max().unwrap_or(0) as f64;
    let sum_of = |f: fn(&TracedRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    report.layer("netsim.max_batch", max_of(|r| r.max_batch), "count");
    report.layer("netsim.overflow_events", sum_of(|r| r.overflow_events), "count");
    report.layer("netsim.peak_live_handles", max_of(|r| r.peak_live_handles), "count");
    report.layer("netsim.arena_bytes", max_of(|r| r.arena_bytes), "B");
    report.layer("alloc.peak_heap_mb", peak_heap as f64 / 1e6, "MB");
    let delivered: u64 = tally.msgs.iter().sum();
    report.check(
        delivered == events,
        format!("mechanism tally {delivered} != delivered events {events}"),
    );
}

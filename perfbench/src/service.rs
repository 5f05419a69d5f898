//! The service-mix workload: one client submits batches of requests to a
//! `SessionPool` and waits for each (a closed loop).

use crate::calib::Calibration;
use crate::report::{median, peak_rss_mb, reset_peak_rss, trim_heap, Report};
use crate::spans::Spans;
use crate::traced::{self, TracedRun, Wrapped};
use ds_algos::bfs::{BfsAlgorithm, BfsOutput};
use ds_graph::{Graph, NodeId};
use ds_netsim::{run_sync, DelayModel, FaultPlan, RunMetrics, SchedulerKind};
use ds_sync::beta::SpanningTree;
use ds_sync::executor::{RunHealth, SynchronizedRun};
use ds_sync::{
    ServiceRequest, Session, SessionError, SessionPool, SyncKind, SynchronizerConfig,
    SynchronizerParams,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Requests per batch.
const BATCH: usize = 8;
/// The client cycles through this many batches: 72 requests, eight per
/// (graph, synchronizer) pair.
const CYCLE_BATCHES: usize = 9;
/// Pool worker threads.
const WORKERS: usize = 2;
/// Requests rebuilt through the wrappers in the traced pass.
const TRACED_REQUESTS: usize = 16;
/// The client sets up afresh, untimed by the batch clock, before every
/// this many batches.
const SETUP_EVERY: usize = 3;
/// Timed cover-cache hits behind `service.cache_lookup_s`.
const LOOKUPS: usize = 100;
/// Churn of a faulted request: link outages and node crashes within the
/// first 100 τ of the run.
const CHURN_EPISODES: usize = 4;
const CHURN_CRASHES: usize = 1;
const CHURN_SPAN_TICKS: u64 = 100_000;

fn graphs() -> [Graph; 3] {
    [Graph::grid(32, 32), Graph::torus(32, 32), Graph::random_regular(1024, 4, 11)]
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
}

/// One request, as drawn from the seed.
#[derive(Clone)]
struct Spec {
    graph: usize,
    /// 0 det, 1 α, 2 β.
    kind: usize,
    /// Jitter seed, or `None` for uniform delays.
    jitter: Option<u64>,
    /// Churn seed, for the one faulted request of each batch.
    churn: Option<u64>,
}

/// Draws the cycle, stratified so that a batch's cost depends on the seed
/// little more than its requests do: each batch holds every (graph,
/// synchronizer) pair but one, and every pair appears eight times, four with
/// uniform and four with jittered delays. The seed picks which pair each
/// batch leaves out, which requests are jittered and with what seed, the
/// order within a batch, and the one request per batch that carries a churn
/// plan.
fn draw(seed: u64) -> Vec<Spec> {
    let mut state = seed;
    let mut delays: Vec<Vec<bool>> = (0..9)
        .map(|_| {
            let mut d = vec![false, false, false, false, true, true, true, true];
            shuffle(&mut d, &mut state);
            d
        })
        .collect();
    // Batch `b` leaves out synchronizer `b % 3` on graph `left_out[b % 3][b / 3]`.
    let left_out: Vec<[usize; 3]> = (0..3)
        .map(|_| {
            let mut graphs = [0, 1, 2];
            shuffle(&mut graphs, &mut state);
            graphs
        })
        .collect();
    let mut specs = Vec::with_capacity(BATCH * CYCLE_BATCHES);
    for b in 0..CYCLE_BATCHES {
        let mut batch = Vec::with_capacity(BATCH);
        for kind in 0..3 {
            for graph in 0..3 {
                if kind == b % 3 && graph == left_out[kind][b / 3] {
                    continue;
                }
                let jittered = delays[kind * 3 + graph].pop().expect("eight per pair");
                let jitter = jittered.then(|| splitmix(&mut state));
                batch.push(Spec { graph, kind, jitter, churn: None });
            }
        }
        shuffle(&mut batch, &mut state);
        let at = (splitmix(&mut state) % BATCH as u64) as usize;
        batch[at].churn = Some(splitmix(&mut state));
        specs.extend(batch);
    }
    specs
}

/// The seed-independent warm-up batch: det on every graph, so the cover
/// cache holds all three configs, plus α and β, so the slab bank holds
/// engine state for every message type.
fn warm_up() -> Vec<Spec> {
    [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2)]
        .into_iter()
        .map(|(graph, kind)| Spec { graph, kind, jitter: None, churn: None })
        .collect()
}

impl Spec {
    fn delay(&self) -> DelayModel {
        self.jitter.map_or_else(DelayModel::uniform, DelayModel::jitter)
    }

    fn sync_kind(&self) -> SyncKind {
        match self.kind {
            0 => SyncKind::DetAuto,
            1 => SyncKind::Alpha,
            _ => SyncKind::Beta { root: NodeId(0) },
        }
    }

    fn faults(&self, graph: &Graph) -> Option<FaultPlan> {
        self.churn.map(|seed| {
            FaultPlan::random_churn(graph, seed, CHURN_EPISODES, CHURN_CRASHES, CHURN_SPAN_TICKS)
        })
    }

    fn request<'g>(&self, graphs: &'g [Graph; 3]) -> ServiceRequest<'g> {
        let graph = &graphs[self.graph];
        let req = ServiceRequest::on(graph).delay(self.delay()).synchronizer(self.sync_kind());
        match self.faults(graph) {
            Some(plan) => req.faults(plan),
            None => req,
        }
    }

    /// The same request as a standalone session.
    fn standalone(&self, graph: &Graph) -> Result<SynchronizedRun<BfsOutput>, SessionError> {
        let mut session = Session::on(graph).delay(self.delay()).synchronizer(self.sync_kind());
        if let Some(plan) = self.faults(graph) {
            session = session.faults(plan);
        }
        session.run(|v| BfsAlgorithm::new(graph, v, &[NodeId(0)]))
    }
}

/// The observable result of a request, compared for bit-identity.
#[derive(Clone, PartialEq)]
struct Fingerprint {
    outputs: Vec<Option<BfsOutput>>,
    metrics: RunMetrics,
    violations: u64,
    dropped: u64,
    transitions: u64,
    health: RunHealth,
}

impl Fingerprint {
    fn of(run: &SynchronizedRun<BfsOutput>) -> Self {
        Fingerprint {
            outputs: run.outputs.clone(),
            metrics: run.metrics.clone(),
            violations: run.ordering_violations,
            dropped: run.dropped_events,
            transitions: run.fault_transitions,
            health: run.health.clone(),
        }
    }

    fn matches_traced(&self, t: &TracedRun) -> bool {
        self.outputs == t.outputs
            && self.metrics == t.metrics
            && self.violations == t.violations
            && self.dropped == t.dropped_events
            && self.transitions == t.fault_transitions
    }
}

type BatchResult = Vec<Result<SynchronizedRun<BfsOutput>, SessionError>>;

fn run_batch(pool: &SessionPool, graphs: &[Graph; 3], specs: &[Spec]) -> BatchResult {
    let requests: Vec<ServiceRequest<'_>> = specs.iter().map(|s| s.request(graphs)).collect();
    let of: Vec<&Graph> = specs.iter().map(|s| &graphs[s.graph]).collect();
    let of = &of;
    pool.run_batch(&requests, move |i, v| BfsAlgorithm::new(of[i], v, &[NodeId(0)]))
}

/// Ground truth of one graph: BFS outputs, `T(A)` and `M(A)`.
struct Truth {
    outputs: Vec<Option<BfsOutput>>,
    rounds: u64,
    messages: u64,
}

pub fn run(seed: u64, seconds: u64, trace: bool, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let specs = draw(seed);
    let batches: Vec<&[Spec]> = specs.chunks(BATCH).collect();
    let warm = warm_up();

    // Set-up: graph builds, a fresh pool and one warm-up batch. The first
    // provides the pool the client uses; later ones, interleaved with the
    // timed batches, are only timed.
    let set_up = |spans: &mut Spans| {
        let root = spans.open("setup", None);
        let (graphs, graph_s) = spans.time("graph.build", Some(root), graphs);
        let pool = SessionPool::new(WORKERS);
        let (_, batch_s) = spans.time("batch", Some(root), || run_batch(&pool, &graphs, &warm));
        spans.close(root);
        (graphs, pool, graph_s, graph_s + batch_s)
    };
    let mut calib = Calibration::new();
    calib.sample(WORKERS);
    let (graphs, pool, graph_s, setup_s) = set_up(spans);
    let (mut graph_times, mut setup) = (vec![graph_s], vec![setup_s]);

    // Ground truth per graph, timed as the `sync_engine` layer.
    let root = spans.open("truth", None);
    let mut sync_s = 0.0;
    let truth: Vec<Truth> = graphs
        .iter()
        .map(|g| {
            let (r, s) = spans.time("sync_engine.run", Some(root), || {
                run_sync(g, |v| BfsAlgorithm::new(g, v, &[NodeId(0)]), 1_000_000)
                    .expect("ground-truth run")
            });
            sync_s += s;
            Truth {
                outputs: r.outputs(),
                rounds: r.rounds_to_quiescence.max(1),
                messages: r.messages,
            }
        })
        .collect();
    spans.close(root);

    // The closed loop. Every request is checked: unfaulted ones against the
    // ground truth, and every one against its first-cycle result, which the
    // verification pass below checks against a standalone session.
    let root = spans.open("timed", None);
    let mut first: Vec<Option<Fingerprint>> = vec![None; specs.len()];
    let (mut batch_times, mut rss) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while batch_times.len() < CYCLE_BATCHES || t0.elapsed().as_secs() < seconds {
        let b = batch_times.len() % CYCLE_BATCHES;
        calib.sample(WORKERS);
        if batch_times.len() % SETUP_EVERY == SETUP_EVERY - 1 {
            let (_, _, graph_s, setup_s) = set_up(spans);
            graph_times.push(graph_s);
            setup.push(setup_s);
        }
        trim_heap();
        reset_peak_rss();
        let (results, dt) =
            spans.time("batch", Some(root), || run_batch(&pool, &graphs, batches[b]));
        rss.push(peak_rss_mb());
        batch_times.push(dt);
        for (k, result) in results.iter().enumerate() {
            let i = b * BATCH + k;
            let spec = &specs[i];
            report.attempted += 1;
            let ok = match result {
                Ok(run) => {
                    let fp = Fingerprint::of(run);
                    let truthful = spec.churn.is_some()
                        || (run.outputs == truth[spec.graph].outputs
                            && run.ordering_violations == 0);
                    let repeatable = first[i].as_ref().is_none_or(|f| *f == fp);
                    first[i].get_or_insert(fp);
                    truthful && repeatable
                }
                Err(e) => {
                    eprintln!("request {i} failed: {e}");
                    false
                }
            };
            report.failed += u64::from(!ok);
        }
    }
    spans.close(root);

    // Verification: each request of the cycle, standalone.
    let root = spans.open("verify", None);
    for (i, spec) in specs.iter().enumerate() {
        let (result, _) = spans.time("run", Some(root), || spec.standalone(&graphs[spec.graph]));
        let same =
            matches!((&result, &first[i]), (Ok(run), Some(fp)) if Fingerprint::of(run) == *fp);
        if !same {
            eprintln!("request {i}: pooled result differs from its standalone session");
            report.failed += 1;
        }
    }
    spans.close(root);

    // Overheads: per (graph, synchronizer, delay) pair, the mean over its
    // unfaulted requests; then the mean over pairs, so every pair weighs
    // the same whichever requests the seed faulted.
    let mut pairs: BTreeMap<(usize, usize, bool), (f64, f64, f64)> = BTreeMap::new();
    let (mut dropped, mut transitions) = (0u64, 0u64);
    for (spec, fp) in specs.iter().zip(&first) {
        let Some(fp) = fp else { continue };
        if spec.churn.is_some() {
            dropped += fp.dropped;
            transitions += fp.transitions;
            continue;
        }
        let t = &truth[spec.graph];
        let pair = pairs.entry((spec.graph, spec.kind, spec.jitter.is_some())).or_default();
        pair.0 += fp.metrics.time_to_output.unwrap_or(f64::NAN) / t.rounds as f64;
        pair.1 += fp.metrics.total_messages() as f64 / t.messages.max(1) as f64;
        pair.2 += 1.0;
    }
    let mean_over_pairs = |f: fn(&(f64, f64, f64)) -> f64| {
        pairs.values().map(|p| f(p) / p.2).sum::<f64>() / pairs.len().max(1) as f64
    };
    let batch_s = median(&batch_times);
    // Recycled engine slabs grow to the largest request they serve, so the
    // resident set climbs over the first cycles; report the loop's peak.
    report.e2e("peak_rss_mb", rss.iter().copied().fold(0.0, f64::max), "MB");
    // Throughput per full cycle of the mix, median over the cycles run.
    let cycle_rates: Vec<f64> = batch_times
        .chunks_exact(CYCLE_BATCHES)
        .map(|c| specs.len() as f64 / c.iter().sum::<f64>())
        .collect();
    calib.report(&mut report, batch_s, median(&setup), median(&cycle_rates));
    report.e2e("time_overhead", mean_over_pairs(|p| p.0), "x");
    report.e2e("message_overhead", mean_over_pairs(|p| p.1), "x");
    report.info("batch_s", batch_s, "s");
    report.check(dropped > 0 && transitions > 0, "faulted requests dropped nothing");

    if !trace {
        return report;
    }
    let cache = pool.cache();
    let (hits, misses) = (cache.hits(), cache.misses());
    let bank = pool.bank();
    let reuse = bank.reuses() as f64 / bank.checkouts().max(1) as f64;

    report.layer("graph.build_s", median(&graph_times), "s");
    report.layer("sync_engine.run_s", sync_s, "s");
    let root = spans.open("covers", None);
    let cfgs: Vec<_> = graphs
        .iter()
        .zip(&truth)
        .map(|(g, t)| {
            spans.time("covers.build", Some(root), || SynchronizerConfig::build(g, t.rounds))
        })
        .collect();
    spans.close(root);
    report.layer("covers.build_s", cfgs.iter().map(|c| c.1).sum(), "s");
    let levels = || cfgs.iter().flat_map(|(c, _)| c.covers.iter());
    let layers = cfgs.iter().map(|(c, _)| c.covers.layers()).max().unwrap_or(0);
    report.layer("covers.layers", layers as f64, "count");
    report.layer(
        "covers.clusters",
        levels().map(|c| c.cluster_count()).sum::<usize>() as f64,
        "count",
    );
    let max_membership = levels().map(|c| c.max_membership()).max().unwrap_or(0);
    report.layer("covers.max_membership", max_membership as f64, "count");
    report.layer(
        "covers.max_height",
        levels().map(|c| c.max_height()).max().unwrap_or(0) as f64,
        "count",
    );

    // Traced pass over the first requests of the cycle, serially, each next
    // to the same run untraced with its synchronizer prebuilt.
    let root = spans.open("traced", None);
    let trees: Vec<_> = graphs.iter().map(|g| SpanningTree::bfs(g, NodeId(0))).collect();
    let (mut runs, mut plain_s) = (Vec::new(), 0.0);
    for (i, spec) in specs.iter().enumerate().take(TRACED_REQUESTS) {
        let graph = &graphs[spec.graph];
        let cfg = &cfgs[spec.graph].0;
        let (wrapped, kind) = match spec.kind {
            0 => (Wrapped::Det(cfg.clone()), SyncKind::Det(cfg.clone())),
            1 => (Wrapped::Alpha, SyncKind::Alpha),
            _ => (Wrapped::Beta(&trees[spec.graph]), SyncKind::Beta { root: NodeId(0) }),
        };
        let faults = spec.faults(graph);
        let rounds = truth[spec.graph].rounds;
        let mut plain =
            Session::on(graph).delay(spec.delay()).synchronizer(kind).pulse_bound(rounds);
        if let Some(plan) = &faults {
            plain = plain.faults(plan.clone());
        }
        let (_, dt) = spans
            .time("run", Some(root), || plain.run(|v| BfsAlgorithm::new(graph, v, &[NodeId(0)])));
        plain_s += dt;
        let (result, _) = spans.time("run", Some(root), || {
            traced::run(
                graph,
                spec.delay(),
                faults.as_ref(),
                SchedulerKind::TimingWheel,
                &wrapped,
                rounds,
            )
        });
        match result {
            Ok(t) => {
                let same = first[i].as_ref().is_some_and(|fp| fp.matches_traced(&t));
                report.check(same, format!("traced request {i} diverged from its pooled run"));
                runs.push(t);
            }
            Err(e) => report.check(false, e),
        }
    }
    spans.close(root);
    traced::layer_metrics(&mut report, &runs);
    for name in ["sharded.pool_dispatches", "sharded.batched_ticks"] {
        report.layer(name, 0.0, "count");
    }
    for name in ["sharded.busy_max_s", "sharded.serial_s"] {
        report.layer(name, 0.0, "s");
    }
    report.layer("sharded.speedup", 0.0, "x");

    report.layer("service.cache_hits", hits as f64, "count");
    report.layer("service.cache_misses", misses as f64, "count");
    let grid = &graphs[0];
    let params = SynchronizerParams { max_pulse: truth[0].rounds };
    cache.get_or_build(grid, params);
    let lookups: Vec<f64> = (0..LOOKUPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cache.get_or_build(grid, params));
            t.elapsed().as_secs_f64()
        })
        .collect();
    report.layer("service.cache_lookup_s", median(&lookups), "s");
    report.layer("recycle.slab_reuse_ratio", reuse, "ratio");

    // Single-threaded baseline: the same cycle on an inline pool.
    let inline = SessionPool::new(0);
    run_batch(&inline, &graphs, &warm);
    let root = spans.open("inline", None);
    let t = Instant::now();
    for batch in &batches {
        spans.time("batch", Some(root), || run_batch(&inline, &graphs, batch));
    }
    let inline_rate = specs.len() as f64 / t.elapsed().as_secs_f64();
    spans.close(root);
    let pooled_rate = cycle_rates[0];
    report.layer("service.inline_requests_per_s", inline_rate, "1/s");
    report.layer(
        "service.parallel_efficiency",
        pooled_rate / (WORKERS as f64 * inline_rate),
        "ratio",
    );
    report.layer("fault.dropped_events", dropped as f64, "count");
    report.layer("fault.transitions", transitions as f64, "count");
    let traced_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    report.layer("trace.overhead", traced_s / plain_s, "x");
    report
}

/// The service-only per-layer metrics, as 0 on workloads that do not run
/// the service layer.
pub fn absent_layers(report: &mut Report) {
    for (name, unit) in [
        ("service.cache_hits", "count"),
        ("service.cache_misses", "count"),
        ("service.cache_lookup_s", "s"),
        ("recycle.slab_reuse_ratio", "ratio"),
        ("service.inline_requests_per_s", "1/s"),
        ("service.parallel_efficiency", "ratio"),
        ("fault.dropped_events", "count"),
        ("fault.transitions", "count"),
    ] {
        report.layer(name, 0.0, unit);
    }
}

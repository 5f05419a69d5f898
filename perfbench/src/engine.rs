//! The three single-run workloads: one synchronized BFS per sample, driven
//! through `Session::run`, on a fixed graph with seeded delays.

use crate::calib::Calibration;
use crate::report::{median, peak_rss_mb, reset_peak_rss, Report};
use crate::spans::Spans;
use crate::traced::{self, Wrapped};
use ds_algos::bfs::{BfsAlgorithm, BfsOutput};
use ds_graph::{Graph, NodeId};
use ds_netsim::{run_sync, DelayModel, SchedulerKind};
use ds_sync::{Session, SyncKind, SynchronizerConfig};
use std::sync::Arc;
use std::time::Instant;

/// Side of the square grid or torus every engine workload runs on.
pub const SIDE: usize = 64;

/// Timed runs continue past `--seconds` until there are at least this many.
const MIN_SAMPLES: usize = 3;
/// The sharded engine of the sharded pass: two shards on two workers.
const SHARDED: SchedulerKind = SchedulerKind::Sharded { shards: 2, workers: 2 };
/// Untraced sharded runs behind `sharded.speedup`.
const SHARDED_RUNS: usize = 3;

/// One engine workload. Timed runs use the default serial timing wheel.
pub struct EngineWorkload {
    pub det: bool,
    pub torus: bool,
    pub jitter: bool,
    /// Whether the traced pass also runs the sharded engine.
    pub sharded_pass: bool,
}

/// What set-up produced: the graph, its ground truth and the synchronizer.
struct Setup {
    graph: Graph,
    truth: Vec<Option<BfsOutput>>,
    rounds: u64,
    messages: u64,
    cfg: Option<Arc<SynchronizerConfig>>,
}

fn bfs(graph: &Graph, v: NodeId) -> BfsAlgorithm<'_> {
    BfsAlgorithm::new(graph, v, &[NodeId(0)])
}

/// Graph build, ground-truth `run_sync`, and (det only) a cold
/// `SynchronizerConfig::build`; returns the set-up and its three timings.
fn set_up(w: &EngineWorkload, spans: &mut Spans) -> (Setup, [f64; 3]) {
    let root = spans.open("setup", None);
    let (graph, graph_s) = spans.time("graph.build", Some(root), || {
        if w.torus {
            Graph::torus(SIDE, SIDE)
        } else {
            Graph::grid(SIDE, SIDE)
        }
    });
    let (sync, sync_s) = spans.time("sync_engine.run", Some(root), || {
        run_sync(&graph, |v| bfs(&graph, v), 1_000_000).expect("ground-truth run")
    });
    let rounds = sync.rounds_to_quiescence.max(1);
    let (cfg, covers_s) = if w.det {
        let (cfg, s) =
            spans.time("covers.build", Some(root), || SynchronizerConfig::build(&graph, rounds));
        (Some(cfg), s)
    } else {
        (None, 0.0)
    };
    spans.close(root);
    let setup = Setup { truth: sync.outputs(), messages: sync.messages.max(1), rounds, cfg, graph };
    (setup, [graph_s, sync_s, covers_s])
}

pub fn run(w: &EngineWorkload, seed: u64, seconds: u64, trace: bool, spans: &mut Spans) -> Report {
    let mut report = Report::default();

    // The first set-up provides the graph and synchronizer. Later ones,
    // interleaved with the timed runs so that both see the same host
    // conditions, are only timed.
    let mut calib = Calibration::new();
    calib.sample(1);
    let (setup, t) = set_up(w, spans);
    let mut times = vec![t];
    let graph = &setup.graph;
    let delay = if w.jitter { DelayModel::jitter(seed) } else { DelayModel::uniform() };
    let kind = match &setup.cfg {
        Some(cfg) => SyncKind::Det(Arc::clone(cfg)),
        None => SyncKind::Alpha,
    };
    let session = |scheduler| {
        Session::on(graph)
            .delay(delay.clone())
            .scheduler(scheduler)
            .synchronizer(kind.clone())
            .pulse_bound(setup.rounds)
    };

    // Timed runs, after one untimed warm-up run; every run is checked.
    let timed = session(SchedulerKind::TimingWheel);
    let root = spans.open("timed", None);
    let (mut samples, mut rss) = (Vec::new(), Vec::new());
    let mut last = None;
    let t0 = Instant::now();
    for i in 0.. {
        if i > MIN_SAMPLES && t0.elapsed().as_secs() >= seconds {
            break;
        }
        calib.sample(1);
        if i > 0 {
            times.push(set_up(w, spans).1);
        }
        reset_peak_rss();
        let (result, dt) = spans.time("run", Some(root), || timed.run(|v| bfs(graph, v)));
        report.attempted += 1;
        match result {
            Ok(run) if run.outputs == setup.truth && run.ordering_violations == 0 => {
                if i > 0 {
                    samples.push(dt);
                    rss.push(peak_rss_mb());
                }
                last = Some(run);
            }
            Ok(_) => report.failed += 1,
            Err(e) => {
                eprintln!("run failed: {e}");
                report.failed += 1;
            }
        }
    }
    spans.close(root);
    let Some(last) = last else {
        report.check(false, "every timed run failed");
        return report;
    };
    let col = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let setup_s = median(&times.iter().map(|t| t.iter().sum()).collect::<Vec<_>>());
    let run_s = median(&samples);
    let rates: Vec<f64> = samples.iter().map(|dt| 1.0 / dt).collect();
    calib.report(&mut report, run_s, setup_s, median(&rates));
    report.e2e("peak_rss_mb", median(&rss), "MB");
    let tto = last.metrics.time_to_output.unwrap_or(f64::NAN);
    report.e2e("time_overhead", tto / setup.rounds as f64, "x");
    report.e2e(
        "message_overhead",
        last.metrics.total_messages() as f64 / setup.messages as f64,
        "x",
    );

    if !trace {
        return report;
    }
    report.layer("graph.build_s", col(0), "s");
    report.layer("sync_engine.run_s", col(1), "s");
    report.layer("covers.build_s", col(2), "s");
    let covers = setup.cfg.as_ref().map(|c| &c.covers);
    let layers = covers.map_or(0, |c| c.layers());
    let over = |f: fn(&ds_covers::SparseCover) -> usize, max: bool| {
        let it = covers.into_iter().flat_map(|c| c.iter()).map(f);
        (if max { it.max().unwrap_or(0) } else { it.sum() }) as f64
    };
    report.layer("covers.layers", layers as f64, "count");
    report.layer("covers.clusters", over(|c| c.cluster_count(), false), "count");
    report.layer("covers.max_membership", over(|c| c.max_membership(), true), "count");
    report.layer("covers.max_height", over(|c| c.max_height(), true), "count");

    // Traced pass: the same run through the wrappers must reproduce the
    // untraced one exactly.
    let wrapped = match &setup.cfg {
        Some(cfg) => Wrapped::Det(Arc::clone(cfg)),
        None => Wrapped::Alpha,
    };
    let root = spans.open("traced", None);
    let mut traced_run = |scheduler| {
        let (t, _) = spans.time("run", Some(root), || {
            traced::run(graph, delay.clone(), None, scheduler, &wrapped, setup.rounds)
        });
        let t = t?;
        let same = t.metrics == last.metrics
            && t.outputs == last.outputs
            && t.violations == last.ordering_violations;
        Ok::<_, String>((t, same))
    };
    let serial = traced_run(SchedulerKind::TimingWheel);
    let sharded = w.sharded_pass.then(|| traced_run(SHARDED));
    spans.close(root);
    let traced = match serial {
        Ok((t, same)) => {
            report.check(same, "traced pass diverged from the untraced run");
            t
        }
        Err(e) => {
            report.check(false, e);
            return report;
        }
    };
    traced::layer_metrics(&mut report, std::slice::from_ref(&traced));

    // The sharded pass: the same run on the sharded engine, wrapped for the
    // busiest worker's callback time, then untraced for its wall time.
    let (mut dispatches, mut batched, mut busy, mut serial_s, mut speedup) = (0, 0, 0.0, 0.0, 0.0);
    match sharded {
        Some(Ok((t, same))) => {
            report.check(same, "sharded traced pass diverged from the serial run");
            let on_shards = session(SHARDED);
            let walls: Vec<f64> = (0..SHARDED_RUNS)
                .map(|_| {
                    let (r, dt) = spans.time("run", None, || on_shards.run(|v| bfs(graph, v)));
                    report.check(
                        r.is_ok_and(|r| r.metrics == last.metrics),
                        "sharded run diverged from the serial run",
                    );
                    dt
                })
                .collect();
            (dispatches, batched) = (t.pool_dispatches, t.batched_ticks);
            (busy, serial_s, speedup) =
                (t.busy_max_s, t.wall_s - t.busy_max_s, run_s / median(&walls));
        }
        Some(Err(e)) => report.check(false, e),
        None => {}
    }
    report.layer("sharded.pool_dispatches", dispatches as f64, "count");
    report.layer("sharded.batched_ticks", batched as f64, "count");
    report.layer("sharded.busy_max_s", busy, "s");
    report.layer("sharded.serial_s", serial_s, "s");
    report.layer("sharded.speedup", speedup, "x");
    crate::service::absent_layers(&mut report);
    report.layer("trace.overhead", traced.wall_s / run_s, "x");
    report
}

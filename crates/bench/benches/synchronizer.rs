//! Micro-benchmarks, one per reproduced quantity that is fast enough to run
//! repeatedly: cover construction, registration-abstraction round trips, and a full
//! synchronized BFS on a small graph (driven through `Session` like every other
//! execution in the workspace). The larger sweeps live in the `exp_*` binaries.
//!
//! The workspace builds without external crates, so this is a `harness = false`
//! bench with a small hand-rolled timing loop instead of criterion: each case is
//! warmed up, then timed over enough iterations to fill ~0.2 s, and the per-iteration
//! median of several samples is reported.

use ds_algos::bfs::BfsAlgorithm;
use ds_covers::builder::build_sparse_cover;
use ds_graph::{Graph, NodeId};
use ds_netsim::delay::DelayModel;
use ds_sync::registration::{RegAction, RegMsg, RegistrationInstance};
use ds_sync::session::{Session, SyncKind};
use std::time::{Duration, Instant};

/// Times `f` and prints its per-iteration median over `SAMPLES` samples.
fn bench(name: &str, mut f: impl FnMut()) {
    const SAMPLES: usize = 7;
    const TARGET: Duration = Duration::from_millis(200);

    // Warm-up and iteration-count calibration.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(1));
    let iters = (TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;

    let mut per_iter: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed() / iters
        })
        .collect();
    per_iter.sort();
    println!(
        "{name:<40} {:>12.3?} / iter  ({iters} iters x {SAMPLES} samples)",
        per_iter[SAMPLES / 2]
    );
}

fn bench_cover_construction() {
    let graph = Graph::random_connected(64, 0.05, 3);
    bench("sparse_cover_d4_n64", || {
        let cover = build_sparse_cover(&graph, 4);
        assert!(cover.cluster_count() > 0);
    });
}

fn bench_registration_roundtrip() {
    // One register/deregister cycle on a path cluster tree of depth 32, driven
    // directly (Lemma 3.4: O(h) messages). Instances are one-shot, so each
    // iteration starts from a clone of a prebuilt template; the clone is the only
    // setup inside the timed loop.
    let template: Vec<RegistrationInstance> = (0..33usize)
        .map(|v| {
            let parent = if v == 0 { None } else { Some(NodeId(v - 1)) };
            let children = if v == 32 { vec![] } else { vec![NodeId(v + 1)] };
            RegistrationInstance::new(parent, &children)
        })
        .collect();
    bench("registration_roundtrip_depth32", || {
        let mut nodes = template.clone();
        let mut queue: Vec<(usize, usize, RegMsg)> = Vec::new();
        let apply = |from: usize, acts: Vec<RegAction>, queue: &mut Vec<(usize, usize, RegMsg)>| {
            for a in acts {
                if let RegAction::Send { to, msg } = a {
                    queue.push((from, to.index(), msg));
                }
            }
        };
        let mut actions = Vec::new();
        nodes[32].register(&mut actions);
        apply(32, actions, &mut queue);
        let mut deregistered = false;
        loop {
            if queue.is_empty() {
                if deregistered {
                    break;
                }
                deregistered = true;
                let mut acts = Vec::new();
                nodes[32].deregister(&mut acts);
                apply(32, acts, &mut queue);
                continue;
            }
            let (from, to, msg) = queue.remove(0);
            let mut acts = Vec::new();
            nodes[to].on_message(NodeId(from), msg, &mut acts);
            apply(to, acts, &mut queue);
        }
    });
}

fn bench_synchronized_bfs() {
    let graph = Graph::grid(5, 5);
    // Build the synchronizer configuration once, outside the timed loop: with
    // `DetAuto` every iteration would also run the synchronous ground truth and
    // rebuild the sparse cover (benchmarked separately above), conflating three
    // quantities into one number.
    let bound = ds_graph::metrics::diameter(&graph).expect("connected") as u64 + 1;
    let cfg = ds_sync::synchronizer::SynchronizerConfig::build(&graph, bound);
    let session = Session::on(&graph)
        .delay(DelayModel::jitter(1))
        .synchronizer(SyncKind::Det(cfg))
        .pulse_bound(bound);
    bench("synchronized_bfs_grid5x5_jitter", || {
        let run = session.run(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)])).unwrap();
        assert!(run.outputs.iter().all(Option::is_some));
    });
}

fn main() {
    println!("== synchronizer micro-benchmarks");
    bench_cover_construction();
    bench_registration_roundtrip();
    bench_synchronized_bfs();
}

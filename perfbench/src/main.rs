//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (BFS from node 0 throughout; the seed sets the delay jitter and
//! the service mix, the graphs are fixed):
//!
//! * `det-grid-jitter` — det synchronizer, 64×64 grid, jittered delays;
//! * `alpha-torus-jitter` — α synchronizer, 64×64 torus, jittered delays;
//! * `det-torus-uniform` — det, 64×64 torus, uniform delays, so ticks are
//!   wide; its traced pass also runs the sharded engine (two shards on two
//!   workers) for the `sharded.*` metrics;
//! * `service-mix` — closed-loop batches of eight requests to a two-worker
//!   `SessionPool`.
//!
//! Each run times runs (or batches) for `--seconds`, with set-up repeated
//! between them, and checks every output. End-to-end times are medians in
//! host-calibrated reference seconds (see [`calib`]); their wall-clock values
//! are printed too. It prints every metric as a `name value unit` line and
//! ends with one JSON line: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of a traced pass that runs after the timed runs. With
//! `--trace 1` the layer-boundary spans are also written as Chrome
//! trace-event JSON to `perfbench/out/<workload>.trace.json`.

mod alloc;
mod calib;
mod engine;
mod report;
mod service;
mod spans;
mod traced;
mod wrap;

use engine::EngineWorkload;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 4] =
    ["det-grid-jitter", "alpha-torus-jitter", "det-torus-uniform", "service-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = spans::Spans::new();
    let engine =
        |det, torus, jitter, sharded_pass| EngineWorkload { det, torus, jitter, sharded_pass };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut report = match args.workload.as_str() {
        "det-grid-jitter" => {
            let w = engine(true, false, true, false);
            engine::run(&w, seed, seconds, trace, &mut spans)
        }
        "alpha-torus-jitter" => {
            let w = engine(false, true, true, false);
            engine::run(&w, seed, seconds, trace, &mut spans)
        }
        "det-torus-uniform" => {
            let w = engine(true, true, false, true);
            engine::run(&w, seed, seconds, trace, &mut spans)
        }
        _ => service::run(seed, seconds, trace, &mut spans),
    };
    if trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}.trace.json", args.workload);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.info("available_parallelism", cores as f64, "count");
    report.print(trace);
    ExitCode::SUCCESS
}

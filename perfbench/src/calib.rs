//! Host-speed calibration of the end-to-end times.
//!
//! The shared 2-vCPU host this benchmark was tuned on changes speed in phases
//! of tens of minutes: the same α run took 0.45 s in one phase and 0.20 s in
//! the next, far beyond any regression bound, and the switch can fall between
//! two sets of runs. So every end-to-end time is reported in *reference
//! seconds*. Before each timed sample a fixed kernel (a pointer chase through
//! a 1 MiB cyclic permutation, then an integer hash chain) is timed on as many
//! threads as the workload keeps busy, and a wall time `t` is reported as
//! `t · REFERENCE_S / k`, where `k` is the run's median kernel time. The
//! kernel shares no code with the program, so a program change moves the
//! reported time as it moves wall time, while a host phase slows kernel and
//! program alike and largely cancels (measured: a 2.1× phase change in α's
//! wall time left 1.13× after calibration). The wall-clock medians are printed
//! next to the calibrated ones.

use crate::report::{median, Report};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the host when it ran at full speed; a calibrated
/// time is the wall time the sample would have taken there.
const REFERENCE_S: f64 = 0.010;
/// Permutation entries: 1 MiB of `u32`.
const ENTRIES: usize = 1 << 18;
const CHASE_STEPS: usize = 1 << 20;
const HASH_STEPS: u64 = 1 << 21;

pub struct Calibration {
    next: Vec<u32>,
    times: Vec<f64>,
}

impl Calibration {
    /// Builds the kernel's permutation: one cycle through every entry
    /// (Sattolo's shuffle), so the chase never settles in a short loop.
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut state = 0x5eed_u64;
        for i in (1..ENTRIES).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % i);
        }
        let mut next = vec![0u32; ENTRIES];
        for w in 0..ENTRIES {
            next[order[w] as usize] = order[(w + 1) % ENTRIES];
        }
        Calibration { next, times: Vec::new() }
    }

    /// Times the kernel once on each of `threads` threads at the same time,
    /// recording the wall time until all are done: a workload that keeps
    /// several cores busy is slowed by the slowest of them.
    pub fn sample(&mut self, threads: usize) {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(|| kernel(&self.next));
            }
            kernel(&self.next);
        });
        self.times.push(t0.elapsed().as_secs_f64());
    }

    /// Median kernel time of this run, in seconds.
    fn kernel_s(&self) -> f64 {
        median(&self.times)
    }

    /// Converts a wall time of this run into reference seconds.
    fn seconds(&self, wall_s: f64) -> f64 {
        wall_s * REFERENCE_S / self.kernel_s()
    }

    /// Reports the timed end-to-end metrics in reference units, and their
    /// wall-clock values and the kernel time as information.
    pub fn report(&self, report: &mut Report, run_s: f64, setup_s: f64, per_s: f64) {
        report.e2e("run_s", self.seconds(run_s), "s");
        report.e2e("setup_s", self.seconds(setup_s), "s");
        report.e2e("requests_per_s", per_s / self.seconds(1.0), "1/s");
        report.info("run_wall_s", run_s, "s");
        report.info("setup_wall_s", setup_s, "s");
        report.info("requests_per_wall_s", per_s, "1/s");
        report.info("calibration_kernel_s", self.kernel_s(), "s");
    }
}

fn kernel(next: &[u32]) {
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    let mut h = u64::from(black_box(at));
    for i in 0..black_box(HASH_STEPS) {
        h = (h ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23);
    }
    black_box(h);
}

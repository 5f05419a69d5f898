//! Metric collection, statistics and output.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one benchmark run measured.
#[derive(Default)]
pub struct Report {
    /// Timed runs (engine workloads) or timed requests (service mix).
    pub attempted: u64,
    /// Attempted units that errored or produced wrong outputs.
    pub failed: u64,
    /// Failed whole-run checks (traced pass, mechanism tally, fault path).
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed, but in neither result set.
    pub info: Vec<Metric>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric { name: name.to_string(), value, unit });
    }

    /// Records a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints every metric as a `name value unit` line, then the result line:
    /// one JSON object holding the end-to-end metrics, or with `traced` the
    /// per-layer ones.
    pub fn print(&self, traced: bool) {
        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        let fail_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<34} {fail_rate:>18} ratio", "fail_rate");
        for m in [&self.end_to_end, &self.info, &self.per_layer].into_iter().flatten() {
            println!("{:<34} {:>18} {}", m.name, m.value, m.unit);
        }
        let chosen = if traced { &self.per_layer } else { &self.end_to_end };
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in chosen.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Median of `xs` (mean of the middle pair for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Returns free heap memory to the OS (glibc `malloc_trim`), so that a
/// following high-water mark counts what the measured work holds resident
/// rather than what earlier work left cached in the allocator's arenas.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain byte count, only walks
        // and shrinks the allocator's own free lists under its locks, and may
        // be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's resident-set high-water mark of this process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Resident-set high-water mark since the last [`reset_peak_rss`], in MB
/// (10^6 bytes); 0 where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

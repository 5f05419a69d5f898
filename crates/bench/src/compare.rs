//! Baseline comparison for the E9 performance artifact.
//!
//! `exp_perf --compare BENCH_synchronizer.json` reruns the matrix and diffs it
//! against a previously committed artifact: per-scenario throughput deltas, plus
//! two failure classes that make the comparison exit non-zero —
//!
//! * a **throughput regression**: a matched scenario slower than the baseline by
//!   more than the tolerance (20 % by default) — catches accidental hot-path
//!   pessimizations,
//! * an **event-count mismatch**: a matched scenario processing a different
//!   number of delivery events — the engine is deterministic, so this means the
//!   simulated *schedule* changed, which a pure performance PR must never do,
//! * a **setup regression**: a matched scenario whose one-off setup cost
//!   (`setup_ms`: cover construction for the det scenarios) grew by more than the
//!   same tolerance — catches pessimizations of `SynchronizerConfig::build`,
//!   which `events_per_sec` deliberately excludes.
//!
//! Scenarios present on only one side (new tiers, retired tiers, smoke subsets)
//! are listed but never fail the comparison.
//!
//! The workspace has no external dependencies, so this module carries a minimal
//! recursive-descent JSON parser — the read-side counterpart of [`crate::json`] —
//! that understands exactly the artifact schema (`DESIGN.md` §4.1).

use crate::perf::PerfRecord;
use crate::table::{render_table, Row};
use std::collections::BTreeMap;

/// Default allowed per-scenario throughput drop before the comparison fails.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

// ---------------------------------------------------------------------------
// Minimal JSON parsing (read-side of `crate::json`)
// ---------------------------------------------------------------------------

/// A parsed JSON value with owned keys (the emitter's [`crate::json::Json`] uses
/// static keys and cannot represent parsed documents).
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(fields) => fields.get(key),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end of input"))? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_literal("true", Value::Bool(true)),
            b'f' => self.parse_literal("false", Value::Bool(false)),
            b'n' => self.parse_literal("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {lit}")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>().map(Value::Num).map_err(|_| self.error("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied().ok_or_else(|| self.error("unclosed string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc =
                        self.bytes.get(self.pos).ok_or_else(|| self.error("unclosed escape"))?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                b => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.error("truncated UTF-8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| self.error("bad UTF-8"))?);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            fields.insert(key, self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Baseline artifact
// ---------------------------------------------------------------------------

/// One scenario of a previously recorded `BENCH_synchronizer.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineScenario {
    /// Delivery events processed — must be identical across engine refactors.
    pub events: u64,
    /// Recorded throughput.
    pub events_per_sec: f64,
    /// Recorded one-off setup cost in milliseconds (0 for non-det scenarios).
    pub setup_ms: f64,
}

/// A parsed baseline artifact: scenario id → recorded numbers.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// `mode` field of the artifact (`full` or `smoke`).
    pub mode: String,
    /// Scenario id → recorded numbers, sorted by id.
    pub scenarios: BTreeMap<String, BaselineScenario>,
}

impl Baseline {
    /// Parses a `det-synchronizer-bench/v6` artifact, the schema of every
    /// committed baseline. Older schemas are rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        const SUPPORTED: &str = "det-synchronizer-bench/v6";
        let mut parser = Parser::new(text);
        let root = parser.parse_value()?;
        let schema = root.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SUPPORTED {
            return Err(format!("unsupported baseline schema {schema:?}"));
        }
        let mode = root.get("mode").and_then(Value::as_str).unwrap_or("unknown").to_string();
        let Some(Value::Arr(raw)) = root.get("scenarios") else {
            return Err("baseline has no scenarios array".into());
        };
        let mut scenarios = BTreeMap::new();
        for s in raw {
            let id = s
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("scenario without an id")?
                .to_string();
            let events =
                s.get("events").and_then(Value::as_f64).ok_or("scenario without events")?;
            let eps = s
                .get("events_per_sec")
                .and_then(Value::as_f64)
                .ok_or("scenario without events_per_sec")?;
            let setup_ms =
                s.get("setup_ms").and_then(Value::as_f64).ok_or("scenario without setup_ms")?;
            scenarios.insert(
                id,
                BaselineScenario { events: events as u64, events_per_sec: eps, setup_ms },
            );
        }
        Ok(Baseline { mode, scenarios })
    }
}

// ---------------------------------------------------------------------------
// Comparison report
// ---------------------------------------------------------------------------

/// One matched scenario in a [`CompareReport`].
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Scenario id.
    pub scenario: String,
    /// Recorded numbers from the baseline artifact.
    pub baseline: BaselineScenario,
    /// Events processed by the current run.
    pub events: u64,
    /// Throughput of the current run.
    pub events_per_sec: f64,
    /// One-off setup cost of the current run, milliseconds.
    pub setup_ms: f64,
}

impl CompareRow {
    /// Current throughput over baseline throughput (> 1 is faster).
    pub fn speedup(&self) -> f64 {
        self.events_per_sec / self.baseline.events_per_sec.max(1e-12)
    }
}

/// Result of diffing a fresh E9 run against a recorded baseline.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Matched scenarios, in run order.
    pub rows: Vec<CompareRow>,
    /// Scenario ids present in the run but not in the baseline (new tiers).
    pub only_current: Vec<String>,
    /// Scenario ids present in the baseline but not in the run (smoke subsets).
    pub only_baseline: Vec<String>,
    /// Allowed relative throughput drop before a row counts as a regression.
    pub tolerance: f64,
}

/// Scenarios whose *current* wall time is below this are excluded from the
/// throughput regression check: below ~50 ms, run-to-run noise on a warm machine
/// exceeds the tolerance, so flagging them would make the check flaky (CI runs
/// the smoke matrix, whose scenarios are all this small — there the comparison
/// acts as a pure schedule-determinism check). The gate deliberately looks at
/// the current side only: a genuine pessimization of a fast scenario pushes its
/// current wall time *above* the floor and is still caught. The event-count
/// check applies regardless.
const MIN_COMPARABLE_WALL_SECONDS: f64 = 0.05;

/// Same noise floor for the setup-cost check, in the milliseconds the setup field
/// is recorded in: a setup regression is only flagged when the *current* setup
/// takes at least this long (pessimizing a fast setup pushes it above the floor).
const MIN_COMPARABLE_SETUP_MS: f64 = 50.0;

impl CompareRow {
    fn wall_seconds(&self) -> f64 {
        self.events as f64 / self.events_per_sec.max(1e-12)
    }
}

impl CompareReport {
    /// Matched scenarios slower than the baseline by more than the tolerance,
    /// excluding scenarios too short for a meaningful wall-clock measurement.
    pub fn regressions(&self) -> Vec<&CompareRow> {
        self.rows
            .iter()
            .filter(|r| {
                r.speedup() < 1.0 - self.tolerance
                    && r.wall_seconds() >= MIN_COMPARABLE_WALL_SECONDS
            })
            .collect()
    }

    /// Matched scenarios whose event counts differ — the simulated schedule
    /// changed, which the deterministic engine must never do under refactors.
    pub fn event_mismatches(&self) -> Vec<&CompareRow> {
        self.rows.iter().filter(|r| r.events != r.baseline.events).collect()
    }

    /// Matched scenarios whose one-off setup cost grew by more than the
    /// tolerance, excluding scenarios whose current setup is under the 50 ms
    /// noise floor.
    pub fn setup_regressions(&self) -> Vec<&CompareRow> {
        self.rows
            .iter()
            .filter(|r| {
                r.setup_ms >= MIN_COMPARABLE_SETUP_MS
                    && r.setup_ms > r.baseline.setup_ms * (1.0 + self.tolerance)
            })
            .collect()
    }

    /// Whether the comparison should exit zero.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
            && self.event_mismatches().is_empty()
            && self.setup_regressions().is_empty()
    }

    /// Whether the *machine-independent* part of the comparison passed: at
    /// least one scenario matched the baseline and none of the matches drifted
    /// in event count. This is the `--events-only` gate CI uses — runners and
    /// the artifact-recording machine differ (and burstable hosts wobble run
    /// to run by more than any sane tolerance), so wall-clock and setup deltas
    /// are informational there, while a changed schedule fails everywhere.
    /// An empty match set fails too: a renamed tier or a stale CI filter must
    /// not turn the schedule-identity gate into a silent no-op.
    pub fn schedule_ok(&self) -> bool {
        !self.rows.is_empty() && self.event_mismatches().is_empty()
    }

    /// Renders the full human-readable delta report.
    pub fn render(&self) -> String {
        let rows: Vec<Row> = self
            .rows
            .iter()
            .map(|r| Row {
                label: r.scenario.clone(),
                values: vec![
                    ("base_ev/s", r.baseline.events_per_sec),
                    ("new_ev/s", r.events_per_sec),
                    ("speedup", r.speedup()),
                    ("delta%", (r.speedup() - 1.0) * 100.0),
                    ("base_setup", r.baseline.setup_ms),
                    ("new_setup", r.setup_ms),
                    ("events_ok", if r.events == r.baseline.events { 1.0 } else { 0.0 }),
                ],
            })
            .collect();
        let mut out = render_table("E9 baseline comparison", &rows);
        for id in &self.only_current {
            out.push_str(&format!("  new scenario (no baseline): {id}\n"));
        }
        for id in &self.only_baseline {
            out.push_str(&format!("  baseline scenario not rerun: {id}\n"));
        }
        let mismatches = self.event_mismatches();
        for r in &mismatches {
            out.push_str(&format!(
                "  EVENT COUNT MISMATCH {}: baseline {} vs current {} — the schedule changed\n",
                r.scenario, r.baseline.events, r.events
            ));
        }
        let regressions = self.regressions();
        for r in &regressions {
            out.push_str(&format!(
                "  REGRESSION {}: {:.0} -> {:.0} ev/s ({:+.1}%)\n",
                r.scenario,
                r.baseline.events_per_sec,
                r.events_per_sec,
                (r.speedup() - 1.0) * 100.0
            ));
        }
        let setup_regressions = self.setup_regressions();
        for r in &setup_regressions {
            out.push_str(&format!(
                "  SETUP REGRESSION {}: {:.0} -> {:.0} ms\n",
                r.scenario, r.baseline.setup_ms, r.setup_ms
            ));
        }
        out.push_str(&format!(
            "verdict: {} ({} matched, {} regressions > {:.0}%, {} event mismatches, \
             {} setup regressions)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.rows.len(),
            regressions.len(),
            self.tolerance * 100.0,
            mismatches.len(),
            setup_regressions.len()
        ));
        out
    }
}

/// Diffs freshly measured `records` against `baseline` with the given tolerance
/// (see [`DEFAULT_TOLERANCE`]).
pub fn compare_against_baseline(
    records: &[PerfRecord],
    baseline: &Baseline,
    tolerance: f64,
) -> CompareReport {
    let mut report = CompareReport { tolerance, ..CompareReport::default() };
    let mut seen = std::collections::BTreeSet::new();
    for r in records {
        seen.insert(r.scenario.clone());
        match baseline.scenarios.get(&r.scenario) {
            Some(&b) => report.rows.push(CompareRow {
                scenario: r.scenario.clone(),
                baseline: b,
                events: r.events,
                events_per_sec: r.events_per_sec,
                setup_ms: r.setup_ms,
            }),
            None => report.only_current.push(r.scenario.clone()),
        }
    }
    report.only_baseline =
        baseline.scenarios.keys().filter(|id| !seen.contains(*id)).cloned().collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::render_artifact;

    fn record(scenario: &str, events: u64, eps: f64) -> PerfRecord {
        PerfRecord {
            scenario: scenario.into(),
            family: "grid".into(),
            n: 16,
            m: 24,
            synchronizer: "det".into(),
            adversary: "uniform".into(),
            threads: 1,
            workers: 1,
            pulse_bound: 5,
            sync_rounds: 5,
            sync_messages: 10,
            setup_ms: 0.0,
            wall_seconds: events as f64 / eps,
            events,
            batched_ticks: 0,
            dropped_events: 0,
            fault_transitions: 0,
            peak_live_handles: 0,
            arena_bytes: 0,
            max_batch: 0,
            events_per_sec: eps,
            messages: 10,
            algorithm_messages: 10,
            control_messages: 0,
            acks: events,
            time_overhead: 1.0,
            message_overhead: 1.0,
        }
    }

    #[test]
    fn roundtrips_the_emitters_artifact() {
        let records = vec![record("grid/16/det/uniform", 100, 5e5)];
        let baseline = Baseline::parse(&render_artifact("full", &records)).expect("parse");
        assert_eq!(baseline.mode, "full");
        assert_eq!(
            baseline.scenarios["grid/16/det/uniform"],
            BaselineScenario { events: 100, events_per_sec: 5e5, setup_ms: 0.0 }
        );
    }

    #[test]
    fn rejects_foreign_schemas() {
        assert!(Baseline::parse("{\"schema\": \"something/v9\"}").is_err());
        assert!(Baseline::parse("{\"schema\": \"det-synchronizer-bench/v5\"}").is_err());
        assert!(Baseline::parse("{not json").is_err());
    }

    #[test]
    fn parses_strings_numbers_and_escapes() {
        let mut p = Parser::new(r#"{"a": [1, -2.5e3, "x\n\"yA"], "b": {"k": true}}"#);
        let v = p.parse_value().expect("parse");
        let Value::Arr(items) = v.get("a").unwrap() else { panic!("a is an array") };
        assert_eq!(items[0], Value::Num(1.0));
        assert_eq!(items[1], Value::Num(-2500.0));
        assert_eq!(items[2], Value::Str("x\n\"yA".into()));
        assert_eq!(v.get("b").unwrap().get("k"), Some(&Value::Bool(true)));
    }

    #[test]
    fn flags_regressions_and_event_mismatches() {
        let old = vec![
            record("grid/16/det/uniform", 100_000, 1e6),
            record("grid/16/det/jitter", 100_000, 1e6),
            record("grid/16/alpha/uniform", 50, 1e6),
            record("cycle/9/det/uniform", 42, 1e6),
        ];
        let baseline = Baseline::parse(&render_artifact("full", &old)).expect("parse");
        let new = vec![
            record("grid/16/det/uniform", 100_000, 1.5e6), // faster: fine
            record("grid/16/det/jitter", 100_000, 0.7e6),  // -30%: regression
            record("grid/16/alpha/uniform", 51, 1e6),      // schedule changed
            record("torus/16/det/uniform", 10, 1e6),       // new tier: listed only
        ];
        let report = compare_against_baseline(&new, &baseline, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(!report.schedule_ok(), "an event mismatch must fail events-only mode too");
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].scenario, "grid/16/det/jitter");
        assert_eq!(report.event_mismatches().len(), 1);
        assert_eq!(report.event_mismatches()[0].scenario, "grid/16/alpha/uniform");
        assert_eq!(report.only_current, vec!["torus/16/det/uniform".to_string()]);
        assert_eq!(report.only_baseline, vec!["cycle/9/det/uniform".to_string()]);
        let text = report.render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("REGRESSION grid/16/det/jitter"));
        assert!(text.contains("EVENT COUNT MISMATCH grid/16/alpha/uniform"));
    }

    #[test]
    fn pessimizing_a_fast_scenario_is_still_caught() {
        // Baseline wall 8ms (below the noise floor) but the current run takes
        // 400ms: the current-side gate keeps genuine pessimizations visible.
        let old = vec![record("grid/256/det/uniform", 80_000, 1e7)];
        let baseline = Baseline::parse(&render_artifact("full", &old)).expect("parse");
        let new = vec![record("grid/256/det/uniform", 80_000, 2e5)];
        let report = compare_against_baseline(&new, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(report.regressions().len(), 1);
        assert!(!report.passed());
        assert!(report.schedule_ok(), "a pure wall-clock regression passes events-only mode");
        // The reverse: a noisy sub-floor current measurement never fails.
        let new = vec![record("grid/256/det/uniform", 80_000, 5e6)];
        let report = compare_against_baseline(&new, &baseline, DEFAULT_TOLERANCE);
        assert!(report.passed());
    }

    fn with_setup(mut r: PerfRecord, setup_ms: f64) -> PerfRecord {
        r.setup_ms = setup_ms;
        r
    }

    #[test]
    fn setup_regressions_fail_above_the_noise_floor() {
        let old = vec![
            with_setup(record("grid/4096/det/uniform", 1000, 1e6), 120.0),
            with_setup(record("grid/256/det/uniform", 100, 1e6), 4.0),
        ];
        let baseline = Baseline::parse(&render_artifact("full", &old)).expect("parse");
        // 120 ms -> 300 ms: a real setup regression.
        let new = vec![
            with_setup(record("grid/4096/det/uniform", 1000, 1e6), 300.0),
            // 4 ms -> 8 ms: doubled, but under the 50 ms floor — noise, not a fail.
            with_setup(record("grid/256/det/uniform", 100, 1e6), 8.0),
        ];
        let report = compare_against_baseline(&new, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(report.setup_regressions().len(), 1);
        assert_eq!(report.setup_regressions()[0].scenario, "grid/4096/det/uniform");
        assert!(!report.passed());
        assert!(report.render().contains("SETUP REGRESSION grid/4096/det/uniform"));
        // A sub-floor *baseline* that blows past the floor now is still caught.
        let new = vec![with_setup(record("grid/256/det/uniform", 100, 1e6), 400.0)];
        let report = compare_against_baseline(&new, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(report.setup_regressions().len(), 1);
        // Zero matched scenarios (a renamed tier, a stale CI filter) must fail
        // the events-only gate rather than pass vacuously.
        let report = compare_against_baseline(
            &[record("renamed/16/det/uniform", 1, 1e6)],
            &baseline,
            DEFAULT_TOLERANCE,
        );
        assert!(report.rows.is_empty());
        assert!(!report.schedule_ok(), "an empty match set must not pass events-only mode");
        // Setup improvements pass.
        let new = vec![with_setup(record("grid/4096/det/uniform", 1000, 1e6), 60.0)];
        let report = compare_against_baseline(&new, &baseline, DEFAULT_TOLERANCE);
        assert!(report.passed());
    }

    #[test]
    fn within_tolerance_slowdowns_pass() {
        let old = vec![record("grid/16/det/uniform", 100_000, 1e6)];
        let baseline = Baseline::parse(&render_artifact("smoke", &old)).expect("parse");
        let new = vec![record("grid/16/det/uniform", 100_000, 0.85e6)];
        let report = compare_against_baseline(&new, &baseline, DEFAULT_TOLERANCE);
        assert!(report.passed());
        assert!(report.render().contains("PASS"));
    }
}

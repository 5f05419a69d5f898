//! Coarse layer-boundary spans, kept in memory and written once as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).

use ds_bench::json::Json;
use std::time::Instant;

struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: f64,
    end_us: Option<f64>,
}

/// An in-memory span log; span ids are their index plus one.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { t0: Instant::now(), spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_us = self.now_us();
        self.spans.push(Span { id, parent, name, start_us, end_us: None });
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: u64) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id as usize - 1];
        span.end_us = Some(end);
        (end - span.start_us) / 1e6
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    /// Renders every closed span as a complete ("X") trace event.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .filter_map(|s| {
                let end = s.end_us?;
                Some(Json::Obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(end - s.start_us)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::Obj(vec![
                            ("id", Json::Int(s.id)),
                            ("parent", s.parent.map_or(Json::Null, Json::Int)),
                        ]),
                    ),
                ]))
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
        ])
        .render()
    }
}

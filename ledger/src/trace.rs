//! In-memory spans recorded from the ledger's own files, around calls into
//! each layer's public functions, and written out once at exit.
//!
//! A span's parent is the span that *caused* it. For the replayed op itself
//! that is a real enclosing interval; for the layer probes it is logical:
//! the same input is fed, after the op returns, to successively narrower
//! public entry points on side instances (service → durable `Cqms` → RAM
//! `Cqms` → profiler → parse / execute / extract), each parented to the next
//! wider one. A span's self time is therefore its duration minus the
//! durations of its direct children — for real nesting that is the usual
//! definition, for the probe chain it is the cost the wider layer adds over
//! the narrower one.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// `round × 1_000_000 + op index`: spans of one request share it.
    pub op_id: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its result, the span id and the
    /// span's duration in microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (id, us) = self.record(name, parent, op_id, start, end);
        (out, id, us)
    }

    /// Record a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> (SpanId, f64) {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            op_id,
        });
        (id, (end - start).as_secs_f64() * 1e6)
    }

    /// Per span name: count, total µs and self µs (duration minus direct
    /// children), sorted by name.
    pub fn self_time_table(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_us += dur as f64 / 1e3;
            // A probe chain can measure a narrower layer slower than the
            // wider one on a noisy call; self time is floored at zero.
            row.self_us += dur.saturating_sub(children) as f64 / 1e3;
        }
        table
    }

    /// `{"spans": [[name, start_ns, end_ns, parent, op_id], …],
    ///   "self_time": {name: {count, total_us, self_us}}}`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_string()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    Json::Num(s.op_id as f64),
                ])
            })
            .collect();
        let self_time = self
            .self_time_table()
            .into_iter()
            .map(|(name, row)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Num(row.count as f64)),
                        ("total_us", Json::Num(row.total_us)),
                        ("self_us", Json::Num(row.self_us)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            (
                "span_columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op_id"]
                        .iter()
                        .map(|c| Json::Str((*c).to_string()))
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(spans)),
            ("self_time", Json::Obj(self_time)),
        ])
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                op_id: 1,
            },
            Span {
                name: "layer",
                start_ns: 100,
                end_ns: 700,
                parent: Some(0),
                op_id: 1,
            },
            Span {
                name: "leaf",
                start_ns: 200,
                end_ns: 300,
                parent: Some(1),
                op_id: 1,
            },
            Span {
                name: "leaf",
                start_ns: 300,
                end_ns: 500,
                parent: Some(1),
                op_id: 1,
            },
        ];
        let table = t.self_time_table();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(table["op"].self_us, 0.4));
        assert!(close(table["layer"].self_us, 0.3));
        let leaf = table["leaf"];
        assert_eq!(leaf.count, 2);
        assert!(close(leaf.total_us, 0.3) && close(leaf.self_us, 0.3));
    }
}

//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::time`], which returns the call's
//! duration whether or not tracing is on; with tracing on it also keeps a
//! [`Span`] (name, start, end, parent, operation id) in memory. At exit the
//! spans are written as Chrome trace-event JSON, which opens in Perfetto,
//! and folded into per-layer self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies one span; children name their parent by it.
pub type SpanId = u64;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// The operation (query run, request, round) the span belongs to.
    pub op: u64,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
    /// Small per-thread number, for the trace viewer's lanes.
    pub thread: u64,
}

/// Times calls and, when enabled, records them as spans.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` and return its result and
    /// duration. `f` receives the span's id, to parent the spans it opens.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = f(id);
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id,
                parent,
                name,
                op,
                start: start - self.origin,
                end: end - self.origin,
                thread: THREAD.with(|t| *t),
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
        (result, end - start)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// What recording one span costs, measured on a throwaway tracer.
pub fn span_cost() -> Duration {
    const SPANS: u32 = 10_000;
    let tracer = Tracer::new(true);
    let start = Instant::now();
    for i in 0..SPANS {
        tracer.time("calibrate", None, i as u64, |_| ());
    }
    start.elapsed() / SPANS
}

/// Each span's duration minus the part of it its children cover (children
/// may overlap one another, e.g. concurrent clients under one round).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, Duration> {
    let mut children: BTreeMap<SpanId, Vec<(Duration, Duration)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = Duration::ZERO;
            let mut intervals: Vec<(Duration, Duration)> = children
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|&(s, e)| (s.max(span.start), e.min(span.end)))
                .filter(|(s, e)| s < e)
                .collect();
            intervals.sort();
            let mut reach = span.start;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.id, (span.end - span.start).saturating_sub(covered))
        })
        .collect()
}

/// Per span name: (number of spans, total duration, total self time).
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, (u64, Duration, Duration)> {
    let selves = self_times(spans);
    let mut table: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
    for span in spans {
        let row = table.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.end - span.start;
        row.2 += selves[&span.id];
    }
    table
}

/// The spans as Chrome trace-event JSON (complete events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            span.name,
            span.thread,
            span.start.as_secs_f64() * 1e6,
            (span.end - span.start).as_secs_f64() * 1e6,
            span.id,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.op,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, ms: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start: Duration::from_millis(ms.0),
            end: Duration::from_millis(ms.1),
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "round", (0, 100)),
            // Overlapping children count once; a child outliving its parent
            // is clipped to the parent.
            span(2, Some(1), "query", (10, 40)),
            span(3, Some(1), "query", (30, 60)),
            span(4, Some(1), "query", (90, 120)),
            span(5, Some(2), "engine.submit", (15, 20)),
        ];
        let selves = self_times(&spans);
        assert_eq!(selves[&1], Duration::from_millis(40));
        assert_eq!(selves[&2], Duration::from_millis(25));
        assert_eq!(selves[&5], Duration::from_millis(5));
        let table = layer_table(&spans);
        assert_eq!(table["query"].0, 3);
        assert_eq!(table["query"].1, Duration::from_millis(90));
        assert_eq!(table["query"].2, Duration::from_millis(85));
    }

    #[test]
    fn tracer_records_parents_only_when_enabled() {
        let tracer = Tracer::new(true);
        let ((), _) = tracer.time("round", None, 7, |round| {
            tracer.time("query", Some(round), 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        let json = chrome_trace(&spans);
        assert!(json.contains("\"name\":\"query\"") && json.contains("\"ph\":\"X\""));

        let off = Tracer::new(false);
        let (value, _) = off.time("query", None, 0, |_| 3);
        assert_eq!(value, 3);
        assert!(off.spans().is_empty());
    }
}

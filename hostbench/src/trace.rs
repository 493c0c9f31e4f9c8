//! In-memory span recorder for the traced run.
//!
//! One span per call the benchmark makes into a layer: name, start,
//! end, parent span and a point or request id. Spans stay in memory
//! until the run ends and are then written out in one file. A layer's
//! self time is its spans' duration minus the part of each span's
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runner.sweep`.
    pub name: String,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Point index or request number the span belongs to.
    pub id: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken by the caller to tracer time.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&self, name: &str, parent: Option<SpanId>, id: u64) -> Option<SpanId> {
        let now = self.now();
        self.push(name, now, now, parent, id)
    }

    /// Closes an open span now.
    pub fn end(&self, span: Option<SpanId>) {
        if let (Some(spans), Some(SpanId(i))) = (&self.spans, span) {
            let now = self.now();
            spans.lock().expect("span list lock")[i].end = now;
        }
    }

    /// Records a finished span with explicit times.
    pub fn record(
        &self,
        name: &str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        id: u64,
    ) -> Option<SpanId> {
        self.push(name, start, end.max(start), parent, id)
    }

    fn push(
        &self,
        name: &str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        id: u64,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut v = spans.lock().expect("span list lock");
        v.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: parent.map(|SpanId(i)| i),
            id,
        });
        Some(SpanId(v.len() - 1))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span list lock").clone())
            .unwrap_or_default()
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `children` (each clipped to the interval).
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_time: u64,
}

/// Total and self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let dur = s.end - s.start;
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total += dur;
        e.self_time += dur - covered(s.start, s.end, kids);
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.id
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn coverage_is_the_union_of_clipped_children() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping children (two workers) count once.
        assert_eq!(covered(0, 100, &[(10, 50), (20, 60)]), 50);
        // Nested and touching intervals merge.
        assert_eq!(covered(0, 100, &[(10, 50), (20, 30), (50, 70)]), 60);
        // Children are clipped to the parent interval.
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered(10, 20, &[(30, 40)]), 0);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("sweep", 0, 100, None),
            span("point", 10, 60, Some(0)),
            span("point", 40, 90, Some(0)),
            span("sim", 10, 30, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["sweep"],
            LayerTime {
                count: 1,
                total: 100,
                self_time: 20
            }
        );
        // Point 1 loses 20 ns to its child; point 2 has none.
        assert_eq!(
            t["point"],
            LayerTime {
                count: 2,
                total: 100,
                self_time: 80
            }
        );
        assert_eq!(t["sim"].self_time, 20);
    }

    #[test]
    fn tracer_records_only_when_enabled() {
        let off = Tracer::new(false);
        assert_eq!(off.begin("x", None, 0), None);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        let a = on.begin("a", None, 7);
        let b = on.record("b", 5, 3, a, 8);
        on.end(a);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        // An end before the start is clamped to a zero-length span.
        assert_eq!(spans[1].start, spans[1].end);
        assert!(b.is_some());
        assert!(spans[0].end >= spans[0].start);
        assert!(spans_json(&spans).contains("\"name\":\"b\""));
    }
}

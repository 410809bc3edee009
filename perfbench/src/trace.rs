//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer: its name (`<layer>.<what>`),
//! start and end on the run's clock, the span that caused it, and the
//! operation it belongs to. Spans are kept in memory while the run
//! measures and written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Operation id of spans that belong to no timed operation (one-off
/// probes after the measured loop). They are written out but left out
/// of per-operation self times.
pub const PROBE: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the run's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer is the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans against a shared origin. Each thread keeps its own
/// tracer; [`Tracer::absorb`] merges them when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now, so children can name it as their parent
    /// before it ends; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.at(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, op);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == PROBE {
                "\"probe\"".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children (overlapping children count once,
/// and a child sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut parts: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            parts.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in parts {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                }
                reach = reach.max(b);
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Mean self time per operation of each layer, over the spans of timed
/// operations (probes excluded).
pub fn layer_self_per_op(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut ops = std::collections::BTreeSet::new();
    let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.op == PROBE {
            continue;
        }
        ops.insert(s.op);
        *per_layer.entry(s.layer()).or_default() += t;
    }
    let n = ops.len().max(1) as f64;
    per_layer.values_mut().for_each(|t| *t /= n);
    per_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = vec![
            span("bench.op", 0.0, 10.0, None),
            span("graph.parse", 0.0, 2.0, Some(0)),
            span("engine.run", 2.0, 9.0, Some(0)),
            span("engine.first_merge", 2.0, 5.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 1.0), "op self {}", t[0]);
        assert!(close(t[1], 2.0));
        assert!(close(t[2], 4.0));
        assert!(close(t[3], 3.0));
        let per_layer = layer_self_per_op(&spans);
        assert!(close(per_layer["bench"], 1.0));
        assert!(close(per_layer["engine"], 7.0));
        // Self times of a tree add up to the root's duration.
        assert!(close(t.iter().sum::<f64>(), 10.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("serve.request", 0.0, 10.0, None),
            span("serve.connect", 1.0, 4.0, Some(0)),
            span("serve.connect", 3.0, 6.0, Some(0)),
            span("serve.connect", 5.0, 5.5, Some(0)),
            // Sticks out past its parent: only 8..10 is covered.
            span("serve.connect", 8.0, 12.0, Some(0)),
        ];
        let t = self_times(&spans);
        // Covered: 1..6 and 8..10 = 7 of 10.
        assert!(close(t[0], 3.0), "self {}", t[0]);
    }

    #[test]
    fn probes_are_left_out_and_ops_are_averaged() {
        let mut spans = vec![
            span("graph.parse", 0.0, 1.0, None),
            span("graph.parse", 1.0, 4.0, None),
            span("decode.verify", 4.0, 50.0, None),
        ];
        spans[1].op = 1;
        spans[2].op = PROBE;
        let per_layer = layer_self_per_op(&spans);
        assert!(close(per_layer["graph"], 2.0));
        assert!(!per_layer.contains_key("decode"));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("bench.op", None, 0);
        a.close(root);
        let mut b = Tracer::new(origin);
        let r = b.open("serve.request", None, 1);
        b.time("serve.connect", Some(r), 1, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}

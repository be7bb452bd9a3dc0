//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer; spans inside the libraries are a later issue. A recorder
//! belongs to one thread; recorders are merged when the run ends and
//! written as one JSON object per line.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is an index into the same recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// A per-thread recorder. Disabled (the timed run), `begin`/`end` cost one
/// branch and record nothing.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every recorder of a run so their clocks agree.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            recording: enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records every `every`-th request of a high-rate loop: call with the
    /// request's index before its first span.
    pub fn sample(&mut self, index: u64, every: u64) {
        self.recording = self.enabled && index.is_multiple_of(every);
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request_id: u64) -> usize {
        if !self.recording {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if !self.recording {
            return;
        }
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a child span and returns its result.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request_id);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let lo = span.start_ns.max(p.start_ns);
            let hi = span.end_ns.min(p.end_ns);
            if hi > lo {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in intervals.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Median self time per span name, in nanoseconds, sorted by name.
pub fn median_self_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let selfs = self_times(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, Vec<u64>> = Default::default();
    for (span, self_ns) in spans.iter().zip(selfs) {
        by_name.entry(span.name).or_default().push(self_ns);
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, crate::stats::median_u64(&v), v.len()))
        .collect()
}

/// Writes one JSON object per span: name, start_ns, end_ns, self_ns,
/// parent (line index or null), request_id.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in spans.iter().zip(selfs) {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
             \"parent\": {}, \"request_id\": {}}}",
            span.name, span.start_ns, span.end_ns, self_ns, parent, span.request_id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("engine", 40, 90, Some(0)),
            span("kernel", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two shards run side by side under one batch.
        let spans = vec![
            span("batch", 0, 100, None),
            span("shard", 10, 60, Some(0)),
            span("shard", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span("p", 10, 50, None), span("c", 0, 70, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", None, 1);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn sampling_records_whole_requests_only() {
        let mut t = Tracer::new(true, Instant::now());
        for request in 0..8u64 {
            t.sample(request, 4);
            let root = t.begin("request", None, request);
            let child = t.begin("call", Some(root), request);
            t.end(child);
            t.end(root);
        }
        let ids: Vec<u64> = t.spans().iter().map(|s| s.request_id).collect();
        assert_eq!(ids, vec![0, 0, 4, 4]);
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let root = a.begin("a", None, 0);
        a.end(root);
        let mut b = Tracer::new(true, origin);
        let r = b.begin("b", None, 1);
        let c = b.begin("c", Some(r), 1);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}

//! The outside-in layer trace: spans recorded around the benchmark's own
//! calls into each layer's public functions, plus counters read at the same
//! boundaries.
//!
//! Spans are kept in memory during a traced pass and folded into per-layer
//! totals after it. Span timestamps come from [`Instant`] (a vDSO read of a
//! few tens of ns, against a few hundred for the CPU-clock system call); a
//! pass's span times are converted to CPU terms with that pass's CPU/wall
//! ratio when they are folded.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `testbed.rewind`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same pass.
    pub parent: Option<usize>,
    /// Work unit (test, sequence, corpus entry, case) the span belongs to.
    pub unit: u64,
}

/// Records spans and counters for one traced pass at a time.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
    counters: BTreeMap<&'static str, (f64, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans begun from now on with work unit `id`.
    pub fn set_unit(&mut self, id: u64) {
        self.unit = id;
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Adds one sample to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let c = self.counters.entry(name).or_insert((0.0, 0));
        c.0 += value;
        c.1 += 1;
    }

    /// Hands over this pass's spans and counters and starts a new pass.
    pub fn take(&mut self) -> (Vec<Span>, BTreeMap<&'static str, (f64, u64)>) {
        assert!(self.open.is_empty(), "a span is still open at the end of a pass");
        (std::mem::take(&mut self.spans), std::mem::take(&mut self.counters))
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (children may nest further, touch or overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name span totals, in CPU nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub self_ns: f64,
    pub inclusive_ns: f64,
    pub calls: u64,
}

/// Span and counter totals over every traced pass of a run.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub spans: BTreeMap<&'static str, SpanTotals>,
    pub counters: BTreeMap<&'static str, (f64, u64)>,
}

impl LayerTotals {
    /// Folds one pass's spans and counters in. `cpu_per_wall` converts the
    /// pass's span (wall) times to CPU terms.
    pub fn fold(
        &mut self,
        spans: &[Span],
        counters: &BTreeMap<&'static str, (f64, u64)>,
        cpu_per_wall: f64,
    ) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let t = self.spans.entry(s.name).or_default();
            t.self_ns += own as f64 * cpu_per_wall;
            t.inclusive_ns += (s.end_ns - s.start_ns) as f64 * cpu_per_wall;
            t.calls += 1;
        }
        for (name, (sum, n)) in counters {
            let c = self.counters.entry(name).or_insert((0.0, 0));
            c.0 += sum;
            c.1 += n;
        }
    }

    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per call of span `name`, ns (0 when never called).
    pub fn self_ns_per_call(&self, name: &str) -> f64 {
        let t = self.span(name);
        if t.calls == 0 {
            0.0
        } else {
            t.self_ns / t.calls as f64
        }
    }

    /// Sum of counter `name` (0 when never counted).
    pub fn sum(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.0)
    }

    /// Mean sample of counter `name` (0 when never counted).
    pub fn mean(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
    }
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete events on one track, timestamps in µs.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"unit\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.unit
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, unit: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            // Two adjacent children: [10, 30) and [30, 50).
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)),
            // A grandchild inside `b` counts against `b`, not `unit`.
            span("c", 35, 45, Some(2)),
            span("d", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 20 - 10, 20, 10, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let spans = vec![
            span("p", 10, 50, None),
            span("x", 0, 20, Some(0)),  // sticks out before the parent
            span("y", 15, 30, Some(0)), // overlaps x
            span("z", 45, 60, Some(0)), // sticks out after the parent
        ];
        // Covered: [10, 30) and [45, 50) = 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn tracer_nests_and_folds_in_cpu_terms() {
        let mut tr = Tracer::new();
        tr.set_unit(7);
        let outer = tr.begin("outer");
        let v = tr.span("inner", || 41 + 1);
        tr.end(outer);
        tr.count("dirty_pages", 3.0);
        tr.count("dirty_pages", 5.0);
        assert_eq!(v, 42);
        let (spans, counters) = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, 7);
        let mut totals = LayerTotals::default();
        totals.fold(&spans, &counters, 0.5);
        let inner = totals.span("inner");
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.self_ns, (spans[1].end_ns - spans[1].start_ns) as f64 * 0.5);
        assert_eq!(totals.mean("dirty_pages"), 4.0);
        assert_eq!(totals.sum("absent"), 0.0);
        let json = chrome_trace(&spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"), "{json}");
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut tr = Tracer::new();
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a);
    }
}

//! Typed metrics registry with OpenMetrics and JSONL renderers.
//!
//! The campaign layers collect raw numbers contention-free per worker
//! (plain `u64` fields in `skrt`'s `LocalMetrics`, log2 histograms from
//! [`crate::histogram`]) and fold them deterministically once per worker
//! at shard end. This module is the export side of that pipeline: the
//! folded totals are pushed into a [`TelemetryRegistry`] as typed
//! families — counters, gauges, log2 histograms — and rendered as
//! OpenMetrics text (`--metrics-out`) or JSONL snapshot lines.
//!
//! The registry is build-once/render-once: it never sits on a hot path,
//! so it can afford owned strings and label vectors. Nothing here feeds
//! back into execution — exports are observationally transparent by
//! construction.

use crate::histogram::{LatencyHistogram, HIST_BUCKETS};
use crate::perfetto::json_escape;
use std::fmt::Write as _;

/// The three OpenMetrics family types the campaign stack exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample value within a family.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Int(u64),
    Float(f64),
    Hist(LatencyHistogram),
}

#[derive(Clone, Debug, PartialEq)]
struct Sample {
    labels: Vec<(String, String)>,
    value: Value,
}

/// A metric family: one name/kind/help triple plus its samples (one per
/// label set).
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

/// Inclusive upper bound of log2 histogram bucket `i`, or `None` for the
/// last (overflow) bucket. Bucket 0 holds exactly 0 µs; bucket `i` holds
/// `[2^(i-1), 2^i)`, so its largest representable value is `2^i - 1`.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HIST_BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// Typed metrics registry. Push folded campaign totals in, render
/// OpenMetrics text or JSONL snapshots out.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryRegistry {
    families: Vec<Family>,
}

impl TelemetryRegistry {
    pub fn new() -> Self {
        TelemetryRegistry::default()
    }

    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Number of families registered so far.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    pub fn push_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, help, MetricKind::Counter, labels, Value::Int(value));
    }

    pub fn push_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, help, MetricKind::Gauge, labels, Value::Float(value));
    }

    pub fn push_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &LatencyHistogram,
    ) {
        self.push(name, help, MetricKind::Histogram, labels, Value::Hist(*hist));
    }

    fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        v: Value,
    ) {
        debug_assert!(valid_metric_name(name), "invalid metric name: {name}");
        debug_assert!(
            labels.iter().all(|(k, _)| valid_label_name(k)),
            "invalid label name in {labels:?}"
        );
        let labels: Vec<(String, String)> =
            labels.iter().map(|&(k, val)| (k.to_string(), val.to_string())).collect();
        let sample = Sample { labels, value: v };
        if let Some(fam) = self.families.iter_mut().find(|f| f.name == name) {
            debug_assert_eq!(fam.kind, kind, "metric {name} re-registered with a different kind");
            fam.samples.push(sample);
            return;
        }
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: vec![sample],
        });
    }

    /// Render the registry as OpenMetrics text (one `# TYPE`/`# HELP`
    /// block per family, `# EOF` terminator).
    pub fn render_openmetrics(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
            for s in &fam.samples {
                match (&s.value, fam.kind) {
                    (Value::Int(v), MetricKind::Counter) => {
                        let _ =
                            writeln!(out, "{}_total{} {v}", fam.name, label_set(&s.labels, None));
                    }
                    (Value::Int(v), _) => {
                        let _ = writeln!(out, "{}{} {v}", fam.name, label_set(&s.labels, None));
                    }
                    (Value::Float(v), MetricKind::Counter) => {
                        let _ = writeln!(
                            out,
                            "{}_total{} {}",
                            fam.name,
                            label_set(&s.labels, None),
                            float_value(*v)
                        );
                    }
                    (Value::Float(v), _) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            fam.name,
                            label_set(&s.labels, None),
                            float_value(*v)
                        );
                    }
                    (Value::Hist(h), _) => render_openmetrics_hist(&mut out, fam, &s.labels, h),
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// Render the registry as JSONL: one `{"type":"telemetry",...}` line
    /// per sample.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            for s in &fam.samples {
                let _ = write!(
                    out,
                    "{{\"type\":\"telemetry\",\"metric\":\"{}\",\"kind\":\"{}\"",
                    json_escape(&fam.name),
                    fam.kind.as_str()
                );
                out.push_str(",\"labels\":{");
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
                }
                out.push('}');
                match &s.value {
                    Value::Int(v) => {
                        let _ = write!(out, ",\"value\":{v}");
                    }
                    Value::Float(v) => {
                        let _ = write!(out, ",\"value\":{}", float_value(*v));
                    }
                    Value::Hist(h) => {
                        let _ = write!(
                            out,
                            ",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                            h.count, h.total_us, h.max_us
                        );
                        for (i, b) in h.buckets.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{b}");
                        }
                        out.push(']');
                    }
                }
                out.push_str("}\n");
            }
        }
        out
    }
}

fn render_openmetrics_hist(
    out: &mut String,
    fam: &Family,
    labels: &[(String, String)],
    h: &LatencyHistogram,
) {
    let mut cumulative = 0u64;
    for i in 0..HIST_BUCKETS {
        cumulative += h.buckets[i];
        let le = match bucket_upper_bound(i) {
            Some(bound) => bound.to_string(),
            None => "+Inf".to_string(),
        };
        let _ = writeln!(
            out,
            "{}_bucket{} {cumulative}",
            fam.name,
            label_set(labels, Some(("le", &le)))
        );
    }
    let _ = writeln!(out, "{}_sum{} {}", fam.name, label_set(labels, None), h.total_us);
    let _ = writeln!(out, "{}_count{} {}", fam.name, label_set(labels, None), h.count);
}

fn label_set(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Plain `{}` for floats renders the shortest roundtrip form, but
/// OpenMetrics consumers expect a decimal point or exponent on gauges;
/// integers-as-floats therefore get an explicit `.0`.
fn float_value(v: f64) -> String {
    if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render_as_openmetrics() {
        let mut reg = TelemetryRegistry::new();
        reg.push_counter("skrt_tests_executed", "Tests executed.", &[], 42);
        reg.push_counter("skrt_verdicts", "Verdicts by class.", &[("class", "pass")], 40);
        reg.push_counter("skrt_verdicts", "Verdicts by class.", &[("class", "abort")], 2);
        reg.push_gauge("skrt_tests_per_sec", "Throughput.", &[], 1234.5);
        let text = reg.render_openmetrics();
        assert!(text.contains("# TYPE skrt_tests_executed counter\n"));
        assert!(text.contains("skrt_tests_executed_total 42\n"));
        assert!(text.contains("skrt_verdicts_total{class=\"pass\"} 40\n"));
        assert!(text.contains("skrt_verdicts_total{class=\"abort\"} 2\n"));
        assert!(text.contains("# TYPE skrt_tests_per_sec gauge\n"));
        assert!(text.contains("skrt_tests_per_sec 1234.5\n"));
        assert!(text.ends_with("# EOF\n"));
        // The two verdict samples share one family header.
        assert_eq!(text.matches("# TYPE skrt_verdicts counter").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_log2_bounds() {
        let mut h = LatencyHistogram::default();
        h.observe(0); // bucket 0, le="0"
        h.observe(1); // bucket 1, le="1"
        h.observe(3); // bucket 2, le="3"
        h.observe(100_000); // overflow bucket, le="+Inf"
        let mut reg = TelemetryRegistry::new();
        reg.push_histogram("skrt_latency_us", "Latency.", &[("hypercall", "set_timer")], &h);
        let text = reg.render_openmetrics();
        assert!(text.contains("# TYPE skrt_latency_us histogram\n"));
        assert!(text.contains("skrt_latency_us_bucket{hypercall=\"set_timer\",le=\"0\"} 1\n"));
        assert!(text.contains("skrt_latency_us_bucket{hypercall=\"set_timer\",le=\"1\"} 2\n"));
        assert!(text.contains("skrt_latency_us_bucket{hypercall=\"set_timer\",le=\"3\"} 3\n"));
        assert!(text.contains("skrt_latency_us_bucket{hypercall=\"set_timer\",le=\"16383\"} 3\n"));
        assert!(text.contains("skrt_latency_us_bucket{hypercall=\"set_timer\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("skrt_latency_us_sum{hypercall=\"set_timer\"} 100004\n"));
        assert!(text.contains("skrt_latency_us_count{hypercall=\"set_timer\"} 4\n"));
    }

    #[test]
    fn bucket_upper_bounds_match_observe_boundaries() {
        // Every bucket's inclusive upper bound must land in that bucket,
        // and bound+1 in the next — the le edges and the observe()
        // bucketing must agree exactly.
        for i in 0..HIST_BUCKETS - 1 {
            let bound = bucket_upper_bound(i).unwrap();
            let mut h = LatencyHistogram::default();
            h.observe(bound);
            assert_eq!(h.buckets[i], 1, "upper bound {bound} must land in bucket {i}");
            let mut h2 = LatencyHistogram::default();
            h2.observe(bound + 1);
            assert_eq!(h2.buckets[i + 1], 1, "bound+1 {} must land in bucket {}", bound + 1, i + 1);
        }
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), None, "last bucket is +Inf");
    }

    #[test]
    fn jsonl_snapshot_has_one_line_per_sample() {
        let mut h = LatencyHistogram::default();
        h.observe(7);
        let mut reg = TelemetryRegistry::new();
        reg.push_counter("skrt_steals", "Stolen runs.", &[], 3);
        reg.push_histogram("skrt_phase_us", "Phase timer.", &[("phase", "rewind")], &h);
        let jsonl = reg.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"metric\":\"skrt_steals\""));
        assert!(lines[0].contains("\"value\":3"));
        assert!(lines[1].contains("\"kind\":\"histogram\""));
        assert!(lines[1].contains("\"labels\":{\"phase\":\"rewind\"}"));
        assert!(lines[1].contains("\"count\":1,\"sum\":7,\"max\":7"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = TelemetryRegistry::new();
        reg.push_counter("m", "h", &[("k", "a\"b\\c")], 1);
        let text = reg.render_openmetrics();
        assert!(text.contains("m_total{k=\"a\\\"b\\\\c\"} 1"));
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("skrt_tests"));
        assert!(valid_metric_name("_x:y9"));
        assert!(!valid_metric_name("9skrt"));
        assert!(!valid_metric_name("skrt-tests"));
        assert!(!valid_metric_name(""));
        assert!(valid_label_name("class"));
        assert!(!valid_label_name("le-x"));
    }
}

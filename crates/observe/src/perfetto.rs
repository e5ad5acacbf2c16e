//! Chrome trace-event JSON writer (the `trace.json` format Perfetto and
//! `chrome://tracing` load). Purely string-building; no I/O.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Escapes `s` for a JSON string literal: quotes, backslashes and
/// control characters. The one escaper behind every JSON the stack
/// writes (trace events, telemetry, the campaign trace sink).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Streaming builder for a `traceEvents` JSON document.
///
/// Tracks per-`(pid, tid)` open `B` spans so that orphan `E` events are
/// dropped and dangling `B` spans are auto-closed by
/// [`finish`](ChromeTraceWriter::finish) — the output always has matched,
/// properly nested span pairs.
pub struct ChromeTraceWriter {
    out: String,
    any: bool,
    open: HashMap<(u64, u64), Vec<String>>,
    last_ts: u64,
}

impl Default for ChromeTraceWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceWriter {
    pub fn new() -> Self {
        ChromeTraceWriter {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
            any: false,
            open: HashMap::new(),
            last_ts: 0,
        }
    }

    fn emit(&mut self, body: &str) {
        if self.any {
            self.out.push_str(",\n");
        }
        self.any = true;
        self.out.push_str(body);
    }

    /// Name a process track (metadata event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let body = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        );
        self.emit(&body);
    }

    /// Name a thread track (metadata event).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let body = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        );
        self.emit(&body);
    }

    /// Open a duration span (`ph: B`).
    pub fn begin(&mut self, pid: u64, tid: u64, ts: u64, name: &str, args: Option<&str>) {
        let ts = self.clamp(ts);
        let name = json_escape(name);
        let args = args.map(|a| format!(",\"args\":{a}")).unwrap_or_default();
        let body = format!(
            "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\"{args}}}"
        );
        self.emit(&body);
        self.open.entry((pid, tid)).or_default().push(name);
    }

    /// Close the innermost open span on `(pid, tid)`. An `E` without a
    /// matching `B` is silently dropped.
    pub fn end(&mut self, pid: u64, tid: u64, ts: u64) {
        let ts = self.clamp(ts);
        let Some(name) = self.open.get_mut(&(pid, tid)).and_then(|s| s.pop()) else {
            return;
        };
        let body =
            format!("{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\"}}");
        self.emit(&body);
    }

    /// Self-contained span (`ph: X`).
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        name: &str,
        args: Option<&str>,
    ) {
        let ts = self.clamp(ts);
        let args = args.map(|a| format!(",\"args\":{a}")).unwrap_or_default();
        let body = format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":\"{}\"{args}}}",
            json_escape(name)
        );
        self.emit(&body);
    }

    /// Thread-scoped instant event (`ph: i`).
    pub fn instant(&mut self, pid: u64, tid: u64, ts: u64, name: &str, args: Option<&str>) {
        let ts = self.clamp(ts);
        let args = args.map(|a| format!(",\"args\":{a}")).unwrap_or_default();
        let body = format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"{}\"{args}}}",
            json_escape(name)
        );
        self.emit(&body);
    }

    /// Counter track sample (`ph: C`). Perfetto renders one stacked
    /// area chart per `(pid, name)` track from these.
    pub fn counter(&mut self, pid: u64, tid: u64, ts: u64, name: &str, value: f64) {
        let ts = self.clamp(ts);
        let body = format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"{}\",\"args\":{{\"value\":{value}}}}}",
            json_escape(name)
        );
        self.emit(&body);
    }

    /// Close every open span on `(pid, tid)` at `ts` (innermost first).
    pub fn close_open(&mut self, pid: u64, tid: u64, ts: u64) {
        while self.open.get(&(pid, tid)).is_some_and(|s| !s.is_empty()) {
            self.end(pid, tid, ts);
        }
    }

    /// Emitted timestamps are kept globally non-decreasing; span pairing
    /// guarantees this for well-formed input, and the clamp makes the
    /// invariant unconditional for validators.
    fn clamp(&mut self, ts: u64) -> u64 {
        let ts = ts.max(self.last_ts);
        self.last_ts = ts;
        ts
    }

    /// Auto-close any still-open spans and return the final JSON document.
    pub fn finish(mut self) -> String {
        let open: Vec<(u64, u64)> = self.open.keys().copied().collect();
        let ts = self.last_ts;
        for (pid, tid) in open {
            self.close_open(pid, tid, ts);
        }
        self.out.push_str("\n]}\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_matched_spans_and_valid_json_shape() {
        let mut w = ChromeTraceWriter::new();
        w.process_name(1, "campaign");
        w.thread_name(1, 2, "partition \"A\"");
        w.begin(1, 2, 10, "slot", None);
        w.begin(1, 2, 12, "XM_set_timer", Some("{\"nr\":19}"));
        w.end(1, 2, 17);
        w.instant(1, 2, 18, "hm", None);
        w.end(1, 2, 20);
        w.end(1, 2, 21); // orphan: dropped
        let json = w.finish();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("partition \\\"A\\\""));
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut w = ChromeTraceWriter::new();
        w.begin(1, 1, 5, "outer", None);
        w.begin(1, 1, 6, "inner", None);
        let json = w.finish();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        // innermost closed first
        let inner_e = json.find("\"E\",\"pid\":1,\"tid\":1,\"ts\":6,\"name\":\"inner\"");
        assert!(inner_e.is_some());
    }

    #[test]
    fn counter_samples_render_with_value_args() {
        let mut w = ChromeTraceWriter::new();
        w.counter(1, 100, 10, "coverage_cells", 512.0);
        w.counter(1, 100, 20, "execs_per_sec", 1250.5);
        let json = w.finish();
        assert!(json.contains(
            "\"ph\":\"C\",\"pid\":1,\"tid\":100,\"ts\":10,\"name\":\"coverage_cells\",\"args\":{\"value\":512}"
        ));
        assert!(json.contains("\"name\":\"execs_per_sec\",\"args\":{\"value\":1250.5}"));
    }

    #[test]
    fn timestamps_never_regress() {
        let mut w = ChromeTraceWriter::new();
        w.instant(1, 1, 100, "a", None);
        w.instant(1, 1, 50, "b", None);
        let json = w.finish();
        assert!(json.contains("\"ts\":100,\"s\":\"t\",\"name\":\"b\""));
    }
}

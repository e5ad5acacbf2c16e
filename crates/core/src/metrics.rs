//! Campaign observability: per-worker plain counters aggregated into a
//! [`MetricsReport`], plus an optional JSONL per-test trace sink.
//!
//! The counters live outside the determinism surface on purpose: two
//! campaigns that execute the same spec produce identical records and
//! identical rendered tables whatever the thread count, while the
//! metrics capture run-specific facts (wall-clock, throughput, cache
//! effectiveness) that naturally differ between runs.

use crate::classify::CrashClass;
use crate::exec::{CampaignResult, TestRecord};
use flightrec::{LatencyHistogram, TelemetryRegistry};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Executor phases timed by the self-profiler. Timers run only when the
/// flight recorder is on (an observability run); the plain campaign hot
/// path never reads a clock for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Arena rewind: restoring the persistent workspace to the boot image.
    Rewind = 0,
    /// `step_major_frames`: driving the simulated kernel forward.
    Frames = 1,
    /// Oracle expectation lookup/computation.
    Oracle = 2,
    /// Delta-debugging shrink of a diverging sequence.
    Shrink = 3,
}

pub(crate) const N_PHASES: usize = 4;

impl Phase {
    pub(crate) const ALL: [Phase; N_PHASES] =
        [Phase::Rewind, Phase::Frames, Phase::Oracle, Phase::Shrink];

    pub(crate) fn label(self) -> &'static str {
        match self {
            Phase::Rewind => "arena_rewind",
            Phase::Frames => "step_major_frames",
            Phase::Oracle => "oracle",
            Phase::Shrink => "shrink",
        }
    }
}

/// Per-worker plain counters — the hot path's contention-free metrics.
///
/// Workers tally into these unsynchronised fields per test; each
/// worker's set is folded into [`CampaignMetrics`] exactly once, after
/// the workers join (see [`CampaignMetrics::merge_local`]). No shared
/// atomics are touched per test, so metrics bookkeeping costs the same
/// at 1 thread and at 16.
#[derive(Debug, Default)]
pub(crate) struct LocalMetrics {
    tests_executed: u64,
    class_counts: [u64; 6],
    snapshot_clones: u64,
    fresh_boots: u64,
    phase: [LatencyHistogram; N_PHASES],
    suite_nanos: Vec<u64>,
}

impl LocalMetrics {
    pub(crate) fn new(n_suites: usize) -> Self {
        LocalMetrics { suite_nanos: vec![0; n_suites], ..Default::default() }
    }

    /// Telemetry hot path for the self-profiler: one log2-histogram
    /// observation on plain per-worker state. Never allocates.
    #[inline]
    pub(crate) fn note_phase(&mut self, phase: Phase, took: Duration) {
        self.phase[phase as usize].observe(took.as_micros() as u64);
    }

    pub(crate) fn note_snapshot_clone(&mut self) {
        self.snapshot_clones += 1;
    }

    pub(crate) fn note_fresh_boot(&mut self) {
        self.fresh_boots += 1;
    }

    pub(crate) fn note_record(&mut self, record: &TestRecord, took: Duration) {
        self.tests_executed += 1;
        self.class_counts[record.classification.class.index()] += 1;
        if let Some(s) = self.suite_nanos.get_mut(record.case.suite_index) {
            *s += took.as_nanos() as u64;
        }
    }

    /// Case-less variant for the sequence campaign (suite index 0 holds
    /// every sequence).
    pub(crate) fn note_outcome(&mut self, class: CrashClass, took: Duration) {
        self.tests_executed += 1;
        self.class_counts[class.index()] += 1;
        if let Some(s) = self.suite_nanos.first_mut() {
            *s += took.as_nanos() as u64;
        }
    }
}

/// Run totals, folded from every worker's [`LocalMetrics`].
#[derive(Debug)]
pub(crate) struct CampaignMetrics {
    tests_executed: AtomicU64,
    class_counts: [AtomicU64; 6],
    snapshot_clones: AtomicU64,
    fresh_boots: AtomicU64,
    /// Per-phase self-profile histograms. A mutex, not atomics: it is
    /// taken once per worker (in [`CampaignMetrics::merge_local`]), never
    /// on the per-test path.
    phase: Mutex<[LatencyHistogram; N_PHASES]>,
    /// Execution nanoseconds accumulated per suite (campaign-order index).
    suite_nanos: Vec<AtomicU64>,
}

impl CampaignMetrics {
    pub(crate) fn new(n_suites: usize) -> Self {
        CampaignMetrics {
            tests_executed: AtomicU64::new(0),
            class_counts: Default::default(),
            snapshot_clones: AtomicU64::new(0),
            fresh_boots: AtomicU64::new(0),
            phase: Mutex::new([LatencyHistogram::default(); N_PHASES]),
            suite_nanos: (0..n_suites).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Folds a worker's [`LocalMetrics`] into the totals — called once per
    /// worker after the run, keeping shared state off the per-test path.
    pub(crate) fn merge_local(&self, local: &LocalMetrics) {
        self.tests_executed.fetch_add(local.tests_executed, Ordering::Relaxed);
        for (shared, v) in self.class_counts.iter().zip(local.class_counts) {
            shared.fetch_add(v, Ordering::Relaxed);
        }
        self.snapshot_clones.fetch_add(local.snapshot_clones, Ordering::Relaxed);
        self.fresh_boots.fetch_add(local.fresh_boots, Ordering::Relaxed);
        if local.phase.iter().any(|h| h.count > 0) {
            let mut shared = self.phase.lock().expect("phase profile mutex poisoned");
            for (s, l) in shared.iter_mut().zip(&local.phase) {
                s.merge(l);
            }
        }
        for (shared, v) in self.suite_nanos.iter().zip(&local.suite_nanos) {
            shared.fetch_add(*v, Ordering::Relaxed);
        }
    }

    /// Folds the live counters into a plain snapshot.
    pub(crate) fn finish(&self, wall: Duration, threads: usize) -> MetricsReport {
        let phase = self.phase.lock().expect("phase profile mutex poisoned");
        let phases = Phase::ALL
            .iter()
            .filter(|&&p| phase[p as usize].count > 0)
            .map(|&p| PhaseRow { name: p.label().to_string(), hist: phase[p as usize] })
            .collect();
        MetricsReport {
            tests_executed: self.tests_executed.load(Ordering::Relaxed),
            class_counts: std::array::from_fn(|i| self.class_counts[i].load(Ordering::Relaxed)),
            snapshot_clones: self.snapshot_clones.load(Ordering::Relaxed),
            fresh_boots: self.fresh_boots.load(Ordering::Relaxed),
            phases,
            suite_nanos: self.suite_nanos.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            wall,
            threads,
            ..Default::default()
        }
    }
}

/// Aggregated campaign metrics, available once the campaign finishes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Tests executed (equals the spec's total on a completed run).
    pub tests_executed: u64,
    /// Per-class tallies, indexed by [`CrashClass::index`].
    pub class_counts: [u64; 6],
    /// Tests served by rewinding a snapshot arena.
    pub snapshot_clones: u64,
    /// Tests that required a full fresh boot.
    pub fresh_boots: u64,
    /// Always 0: every test executes. Kept so readers of the report
    /// written when a per-worker result memo existed still compile.
    pub memo_hits: u64,
    /// Always 0, like [`MetricsReport::memo_hits`].
    pub memo_misses: u64,
    /// Oracle expectation cache hits across all workers.
    pub oracle_hits: u64,
    /// Oracle expectation cache misses (one per distinct raw invocation
    /// per worker).
    pub oracle_misses: u64,
    /// Work-stealing: chunks a worker claimed from another worker's range.
    pub steals: u64,
    /// Executor self-profile: per-phase log2 timing histograms. Empty
    /// unless the campaign ran with recording enabled.
    pub phases: Vec<PhaseRow>,
    /// Execution nanoseconds accumulated per suite, in campaign order
    /// (sums of per-test times, so the total exceeds wall-clock when
    /// running parallel).
    pub suite_nanos: Vec<u64>,
    /// End-to-end campaign wall-clock.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Per-hypercall latency rows built from the flight recorder. Empty
    /// unless the campaign ran with recording enabled.
    pub hc_latency: Vec<HcLatencyRow>,
}

/// One executor phase's merged timing distribution across all workers
/// (wall-clock µs, [`Phase`] granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label (`arena_rewind`, `step_major_frames`, `oracle`,
    /// `shrink`).
    pub name: String,
    /// Log2 duration histogram in µs.
    pub hist: LatencyHistogram,
}

/// Merged latency distribution of one hypercall across all workers,
/// in simulated (modelled-cost) microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HcLatencyRow {
    /// Hypercall number.
    pub nr: u32,
    /// `XM_*` service name.
    pub name: String,
    /// Dispatches observed.
    pub count: u64,
    /// Sum of per-dispatch costs (µs).
    pub total_us: u64,
    /// Worst single dispatch (µs).
    pub max_us: u64,
    /// Log2 cost buckets (see [`flightrec::histogram`]).
    pub buckets: [u64; flightrec::HIST_BUCKETS],
}

impl HcLatencyRow {
    /// Mean dispatch cost in µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Folds a merged [`flightrec::HistogramSet`] into report rows, one per
/// hypercall that dispatched at least once, in hypercall-number order.
pub fn latency_rows(set: &flightrec::HistogramSet) -> Vec<HcLatencyRow> {
    set.nonzero()
        .map(|(nr, h)| HcLatencyRow {
            nr,
            name: xtratum::hypercall::HypercallId::from_u32(nr)
                .map(|id| id.name().to_string())
                .unwrap_or_else(|| format!("hypercall#{nr}")),
            count: h.count,
            total_us: h.total_us,
            max_us: h.max_us,
            buckets: h.buckets,
        })
        .collect()
}

impl MetricsReport {
    /// Tally for one class.
    pub fn count(&self, class: CrashClass) -> u64 {
        self.class_counts[class.index()]
    }

    /// Campaign throughput in tests per second of wall-clock.
    pub fn tests_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.tests_executed as f64 / secs
        } else {
            0.0
        }
    }

    /// Human-readable run summary (intentionally separate from the
    /// deterministic campaign report).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign metrics: {} tests in {:.3}s ({:.0} tests/sec, {} threads)\n",
            self.tests_executed,
            self.wall.as_secs_f64(),
            self.tests_per_sec(),
            self.threads,
        ));
        out.push_str(&format!(
            "  boots: {} snapshot clones, {} fresh boots\n",
            self.snapshot_clones, self.fresh_boots
        ));
        let lookups = self.oracle_hits + self.oracle_misses;
        let hit_pct =
            if lookups > 0 { 100.0 * self.oracle_hits as f64 / lookups as f64 } else { 0.0 };
        out.push_str(&format!(
            "  oracle cache: {} hits / {} lookups ({hit_pct:.1}%)\n",
            self.oracle_hits, lookups
        ));
        if self.steals > 0 {
            out.push_str(&format!("  work stealing: {} chunks stolen\n", self.steals));
        }
        let classes: Vec<String> = CrashClass::ALL
            .iter()
            .filter(|c| self.count(**c) > 0)
            .map(|c| format!("{} {}", c.label(), self.count(*c)))
            .collect();
        out.push_str(&format!("  classes: {}\n", classes.join(", ")));
        if !self.hc_latency.is_empty() {
            out.push_str("  hypercall latency (simulated µs, from flight recorder):\n");
            for row in &self.hc_latency {
                out.push_str(&format!(
                    "    {:<28} {:>8} calls  mean {:>7.1}  max {:>7}\n",
                    row.name,
                    row.count,
                    row.mean_us(),
                    row.max_us
                ));
            }
        }
        if !self.phases.is_empty() {
            out.push_str("  executor self-profile (wall µs, from phase timers):\n");
            for row in &self.phases {
                out.push_str(&format!(
                    "    {:<28} {:>8} spans  mean {:>7.1}  max {:>7}  total {:>9}\n",
                    row.name,
                    row.hist.count,
                    row.hist.mean_us(),
                    row.hist.max_us,
                    row.hist.total_us
                ));
            }
        }
        out
    }

    /// Builds the typed telemetry registry from this report: every
    /// counter, gauge and latency/phase histogram as an OpenMetrics
    /// family, ready for [`TelemetryRegistry::render_openmetrics`] or
    /// [`TelemetryRegistry::render_jsonl`]. `job` tags the snapshot via
    /// an `skrt_campaign_info` gauge.
    pub fn telemetry(&self, job: &str) -> TelemetryRegistry {
        let mut reg = TelemetryRegistry::new();
        reg.push_gauge("skrt_campaign_info", "Campaign snapshot marker.", &[("job", job)], 1.0);
        reg.push_counter("skrt_tests_executed", "Tests executed.", &[], self.tests_executed);
        for class in CrashClass::ALL {
            let label = class.label().to_ascii_lowercase();
            reg.push_counter(
                "skrt_verdicts",
                "Verdicts by crash classification.",
                &[("class", &label)],
                self.count(class),
            );
        }
        reg.push_counter(
            "skrt_snapshot_clones",
            "Tests served by rewinding a snapshot arena.",
            &[],
            self.snapshot_clones,
        );
        reg.push_counter(
            "skrt_fresh_boots",
            "Tests that required a full fresh boot.",
            &[],
            self.fresh_boots,
        );
        reg.push_counter("skrt_oracle_hits", "Oracle cache hits.", &[], self.oracle_hits);
        reg.push_counter("skrt_oracle_misses", "Oracle cache misses.", &[], self.oracle_misses);
        reg.push_counter("skrt_steals", "Work-stealing chunk claims.", &[], self.steals);
        reg.push_gauge("skrt_threads", "Worker threads used.", &[], self.threads as f64);
        reg.push_gauge(
            "skrt_wall_seconds",
            "End-to-end campaign wall-clock.",
            &[],
            self.wall.as_secs_f64(),
        );
        reg.push_gauge(
            "skrt_tests_per_sec",
            "Campaign throughput (tests per wall-clock second).",
            &[],
            self.tests_per_sec(),
        );
        for row in &self.hc_latency {
            let hist = LatencyHistogram {
                buckets: row.buckets,
                count: row.count,
                total_us: row.total_us,
                max_us: row.max_us,
            };
            reg.push_histogram(
                "skrt_hypercall_latency_us",
                "Per-hypercall dispatch cost (simulated µs).",
                &[("hypercall", &row.name)],
                &hist,
            );
        }
        for row in &self.phases {
            reg.push_histogram(
                "skrt_phase_duration_us",
                "Executor self-profile phase timings (wall µs).",
                &[("phase", &row.name)],
                &row.hist,
            );
        }
        reg
    }
}

/// Minimal JSON string escaping for the trace sink.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One trace line per record, in campaign order — deterministic given the
/// spec and build, whatever the thread count.
pub fn trace_line(index: usize, record: &TestRecord) -> String {
    format!(
        concat!(
            "{{\"type\":\"test\",\"index\":{},\"suite\":{},\"case\":{},",
            "\"call\":\"{}\",\"class\":\"{}\",\"cause\":\"{:?}\",",
            "\"expected\":\"{:?}\",\"observed\":\"{:?}\"}}"
        ),
        index,
        record.case.suite_index,
        record.case.case_index,
        json_escape(&record.case.display_call()),
        record.classification.class.label(),
        record.classification.cause,
        record.expectation.outcome,
        record.observation.first(),
    )
}

/// Writes the JSONL trace for a finished campaign: one `"test"` line per
/// record (deterministic) followed by one `"metrics"` summary line
/// (run-specific).
pub fn write_trace(path: &Path, result: &CampaignResult) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for (i, r) in result.records.iter().enumerate() {
        writeln!(w, "{}", trace_line(i, r))?;
    }
    let m = &result.metrics;
    writeln!(
        w,
        concat!(
            "{{\"type\":\"metrics\",\"tests\":{},\"wall_ns\":{},\"tests_per_sec\":{:.1},",
            "\"threads\":{},\"snapshot_clones\":{},\"fresh_boots\":{},",
            "\"oracle_hits\":{},\"oracle_misses\":{}}}"
        ),
        m.tests_executed,
        m.wall.as_nanos(),
        m.tests_per_sec(),
        m.threads,
        m.snapshot_clones,
        m.fresh_boots,
        m.oracle_hits,
        m.oracle_misses,
    )?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_arithmetic() {
        let mut r = MetricsReport {
            tests_executed: 100,
            wall: Duration::from_secs(2),
            oracle_hits: 75,
            oracle_misses: 25,
            ..Default::default()
        };
        r.class_counts[CrashClass::Pass.index()] = 90;
        r.class_counts[CrashClass::Silent.index()] = 10;
        assert_eq!(r.tests_per_sec(), 50.0);
        assert_eq!(r.count(CrashClass::Pass), 90);
        assert_eq!(r.count(CrashClass::Silent), 10);
        let text = r.render();
        assert!(text.contains("100 tests"), "{text}");
        assert!(text.contains("75 hits / 100 lookups (75.0%)"), "{text}");
        assert!(text.contains("Pass 90, Silent 10"), "{text}");
    }

    #[test]
    fn telemetry_registry_covers_every_counter_family() {
        let mut r = MetricsReport {
            tests_executed: 10,
            wall: Duration::from_secs(1),
            steals: 2,
            threads: 4,
            ..Default::default()
        };
        r.class_counts[CrashClass::Pass.index()] = 10;
        r.phases.push(PhaseRow {
            name: "arena_rewind".to_string(),
            hist: {
                let mut h = LatencyHistogram::default();
                h.observe(5);
                h
            },
        });
        let text = r.telemetry("unit-test").render_openmetrics();
        for family in [
            "skrt_campaign_info",
            "skrt_tests_executed",
            "skrt_verdicts",
            "skrt_snapshot_clones",
            "skrt_fresh_boots",
            "skrt_oracle_hits",
            "skrt_oracle_misses",
            "skrt_steals",
            "skrt_threads",
            "skrt_wall_seconds",
            "skrt_tests_per_sec",
            "skrt_phase_duration_us",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "missing family {family}");
        }
        assert!(text.contains("skrt_campaign_info{job=\"unit-test\"} 1.0"));
        assert!(text.contains("skrt_verdicts_total{class=\"pass\"} 10"));
        assert!(text.contains("skrt_steals_total 2"));
        assert!(text.contains("skrt_phase_duration_us_count{phase=\"arena_rewind\"} 1"));
        assert!(text.ends_with("# EOF\n"));
        let jsonl = r.telemetry("unit-test").render_jsonl();
        assert!(jsonl.lines().count() >= 14);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"type\":\"telemetry\"")));
    }

    #[test]
    fn zero_wall_throughput_is_finite() {
        let r = MetricsReport::default();
        assert_eq!(r.tests_per_sec(), 0.0);
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}

//! Campaign observability: per-worker plain counters folded into a
//! [`MetricsReport`], plus an optional JSONL per-test trace sink.
//!
//! Every worker tallies into its own [`LocalMetrics`] (plain `u64`s and
//! inline log2 histograms, no sharing). After the parallel driver joins
//! its workers, one thread adds the workers' sets together
//! ([`LocalMetrics::merge`]) and builds the report
//! ([`LocalMetrics::report`]); nothing here is shared while the workers
//! run, so there are no atomics and no locks.
//!
//! The counters live outside the determinism surface on purpose: two
//! campaigns that execute the same spec produce identical records and
//! identical rendered tables whatever the thread count, while the
//! metrics capture run-specific facts (wall-clock, throughput, cache
//! effectiveness) that naturally differ between runs.

use crate::classify::CrashClass;
use crate::exec::{CampaignResult, TestRecord};
use flightrec::{json_escape, HistogramSet, LatencyHistogram, TelemetryRegistry};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Executor phases timed by the self-profiler. Timers run only when the
/// worker self-profiles (an observability run with the flight recorder
/// on); the plain campaign hot path never reads a clock.
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
/// Workers tally into these unsynchronised fields per test; the sets are
/// added together once, after the workers join. Nothing shared is
/// touched per test, so metrics bookkeeping costs the same at 1 thread
/// and at 16.
#[derive(Debug, Default)]
pub(crate) struct LocalMetrics {
    tests_executed: u64,
    class_counts: [u64; 6],
    snapshot_clones: u64,
    fresh_boots: u64,
    phase: [LatencyHistogram; N_PHASES],
    /// Whether this worker times its phases (fixed at construction).
    profile: bool,
}

impl LocalMetrics {
    /// Counters at zero; `profile` switches the phase timers on.
    pub(crate) fn new(profile: bool) -> Self {
        LocalMetrics { profile, ..Default::default() }
    }

    /// Opens a phase span: the current instant when self-profiling,
    /// `None` (and no clock read) otherwise. Close it with
    /// [`end_span`](Self::end_span).
    #[inline]
    pub(crate) fn start_span(&self) -> Option<Instant> {
        self.profile.then(Instant::now)
    }

    /// Closes a span opened by [`start_span`](Self::start_span), timing
    /// it into `phase`. A `None` span is a no-op.
    #[inline]
    pub(crate) fn end_span(&mut self, phase: Phase, span: Option<Instant>) {
        if let Some(t) = span {
            self.note_phase(phase, t.elapsed());
        }
    }

    /// One log2-histogram observation on plain per-worker state, rounded
    /// to the nearest µs. Never allocates.
    #[inline]
    fn note_phase(&mut self, phase: Phase, took: Duration) {
        self.phase[phase as usize].observe(((took.as_nanos() + 500) / 1000) as u64);
    }

    pub(crate) fn note_snapshot_clone(&mut self) {
        self.snapshot_clones += 1;
    }

    pub(crate) fn note_fresh_boot(&mut self) {
        self.fresh_boots += 1;
    }

    /// One finished test (case, sequence, candidate or check case).
    pub(crate) fn note_outcome(&mut self, class: CrashClass) {
        self.tests_executed += 1;
        self.class_counts[class.index()] += 1;
    }

    /// Adds another worker's counters into these: plain adds, run on the
    /// one thread that joined the workers.
    pub(crate) fn merge(&mut self, other: &LocalMetrics) {
        self.tests_executed += other.tests_executed;
        for (c, o) in self.class_counts.iter_mut().zip(other.class_counts) {
            *c += o;
        }
        self.snapshot_clones += other.snapshot_clones;
        self.fresh_boots += other.fresh_boots;
        for (h, o) in self.phase.iter_mut().zip(&other.phase) {
            h.merge(o);
        }
    }

    /// The report for these (merged) counters plus the merged
    /// per-hypercall latency histograms: one row per timed phase and per
    /// hypercall that dispatched at least once, in phase and
    /// hypercall-number order. Wall-clock, threads and steals are left
    /// for the caller.
    pub(crate) fn report(&self, latency: &HistogramSet) -> MetricsReport {
        let phases = Phase::ALL
            .iter()
            .map(|&p| PhaseRow { name: p.label().to_string(), hist: self.phase[p as usize] })
            .filter(|row| row.hist.count > 0)
            .collect();
        let hc_latency = latency
            .nonzero()
            .map(|(nr, &hist)| HcLatencyRow {
                nr,
                name: xtratum::hypercall::HypercallId::from_u32(nr)
                    .map(|id| id.name().to_string())
                    .unwrap_or_else(|| format!("hypercall#{nr}")),
                hist,
            })
            .collect();
        MetricsReport {
            tests_executed: self.tests_executed,
            class_counts: self.class_counts,
            snapshot_clones: self.snapshot_clones,
            fresh_boots: self.fresh_boots,
            phases,
            hc_latency,
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
#[derive(Debug, Clone, PartialEq)]
pub struct HcLatencyRow {
    /// Hypercall number.
    pub nr: u32,
    /// `XM_*` service name.
    pub name: String,
    /// Log2 dispatch-cost histogram in µs.
    pub hist: LatencyHistogram,
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
                    row.hist.count,
                    row.hist.mean_us(),
                    row.hist.max_us
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
            reg.push_histogram(
                "skrt_hypercall_latency_us",
                "Per-hypercall dispatch cost (simulated µs).",
                &[("hypercall", &row.name)],
                &row.hist,
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

    /// Phase spans round to the nearest µs: a sub-µs span is not a 0 µs
    /// one, and many short spans total what they took.
    #[test]
    fn phase_timer_rounds_to_nearest_us() {
        let mut m = LocalMetrics::new(true);
        m.note_phase(Phase::Rewind, Duration::from_nanos(600));
        m.note_phase(Phase::Oracle, Duration::from_nanos(400));
        for _ in 0..1000 {
            m.note_phase(Phase::Frames, Duration::from_nanos(900));
        }
        let r = m.report(&HistogramSet::new(0));
        let row = |name: &str| r.phases.iter().find(|p| p.name == name).unwrap().hist;
        assert_eq!((row("arena_rewind").count, row("arena_rewind").total_us), (1, 1));
        assert_eq!((row("oracle").count, row("oracle").total_us), (1, 0));
        assert_eq!(row("step_major_frames").total_us, 1000);
    }

    /// Merging is plain addition, and the report keeps only the phases
    /// and hypercalls that were observed, in phase / hypercall order.
    #[test]
    fn merge_adds_and_report_keeps_observed_rows() {
        let mut a = LocalMetrics::new(false);
        assert_eq!(a.start_span(), None, "a non-profiling worker never reads the clock");
        a.note_outcome(CrashClass::Pass);
        a.note_snapshot_clone();
        a.note_fresh_boot();
        let mut b = LocalMetrics::new(true);
        b.note_outcome(CrashClass::Silent);
        b.note_outcome(CrashClass::Pass);
        b.note_snapshot_clone();
        b.note_phase(Phase::Shrink, Duration::from_micros(3));
        b.note_phase(Phase::Rewind, Duration::from_micros(2));
        let mut total = LocalMetrics::new(false);
        total.merge(&a);
        total.merge(&b);
        let mut latency = HistogramSet::new(64);
        latency.observe(xtratum::hypercall::HypercallId::GetTime as u32, 7);
        let r = total.report(&latency);
        assert_eq!(r.tests_executed, 3);
        assert_eq!((r.count(CrashClass::Pass), r.count(CrashClass::Silent)), (2, 1));
        assert_eq!((r.snapshot_clones, r.fresh_boots), (2, 1));
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["arena_rewind", "shrink"]);
        assert_eq!(r.hc_latency.len(), 1);
        assert_eq!(r.hc_latency[0].name, "XM_get_time");
        assert_eq!((r.hc_latency[0].hist.count, r.hc_latency[0].hist.max_us), (1, 7));
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

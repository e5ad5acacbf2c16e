//! Campaign drivers, the combined report, and single-test triage.

use crate::paper::paper_campaign;
use eagleeye::EagleEye;
use skrt::exec::{run_campaign, run_single_test, CampaignOptions, CampaignResult, TestRecord};
use skrt::flight::{render_timeline, FlightNames, TestFlight, DEFAULT_RING_CAPACITY};
use skrt::issues::Issue;
use skrt::report::{
    campaign_table, distribution, render_distribution, render_issues, render_table, CampaignTable,
    Distribution,
};
use skrt::suite::CampaignSpec;
use skrt::testbed::Testbed;
use xtratum::vuln::KernelBuild;

/// Everything a campaign run produces, ready for printing or comparison.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The specification executed.
    pub spec: CampaignSpec,
    /// Raw results.
    pub result: CampaignResult,
    /// Table III.
    pub table: CampaignTable,
    /// Fig. 8.
    pub distribution: Distribution,
    /// Section IV issue bulletins.
    pub issues: Vec<Issue>,
}

impl CampaignReport {
    /// Renders the full text report (Table III + Fig. 8 + issues).
    /// Deterministic: byte-identical for the same spec and build,
    /// whatever the thread count (run metrics are rendered separately by
    /// [`CampaignReport::render_metrics`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Robustness campaign — {}\nKernel build: {}\n\n",
            self.spec.name,
            self.result.build.label()
        ));
        out.push_str(&render_table(&self.table));
        out.push('\n');
        out.push_str(&render_distribution(&self.distribution));
        out.push('\n');
        out.push_str(&render_issues(&self.issues));
        out
    }

    /// This run's execution metrics (throughput, boots, cache hits).
    pub fn metrics(&self) -> &skrt::metrics::MetricsReport {
        &self.result.metrics
    }

    /// The trace-write failure, if a JSONL trace was requested and could
    /// not be written.
    pub fn trace_error(&self) -> Option<&str> {
        self.result.trace_error.as_deref()
    }

    /// Renders the run-specific metrics summary.
    pub fn render_metrics(&self) -> String {
        self.result.metrics.render()
    }
}

/// Runs the full 2662-test paper campaign on the EagleEye testbed with
/// explicit executor options (snapshot reuse, chunking, trace sink).
pub fn run_paper_campaign_with(opts: &CampaignOptions) -> CampaignReport {
    let spec = paper_campaign();
    let result = run_campaign(&EagleEye, &spec, opts);
    let table = campaign_table(&spec, &result);
    let dist = distribution(&spec);
    let issues = result.issues();
    CampaignReport { spec, result, table, distribution: dist, issues }
}

/// Runs the full 2662-test paper campaign on the EagleEye testbed.
pub fn run_paper_campaign(build: KernelBuild, threads: usize) -> CampaignReport {
    run_paper_campaign_with(&CampaignOptions { build, threads, ..Default::default() })
}

/// Runs the fully automatic cartesian sweep — every hypercall in the API
/// header crossed with its full dictionary product (61 suites, 4976
/// tests) — with explicit executor options. This is the `campaign sweep`
/// CLI mode; [`CampaignOptions::max_tests`] scales the run up (cycling)
/// or down (truncating) for `--tests N`.
pub fn run_sweep_campaign_with(opts: &CampaignOptions) -> Result<CampaignReport, String> {
    let api = skrt::apispec::api_header_doc();
    let spec = crate::files::automatic_campaign(&api, &crate::paper_dictionary())?;
    let result = run_campaign(&EagleEye, &spec, opts);
    let table = campaign_table(&spec, &result);
    let dist = distribution(&spec);
    let issues = result.issues();
    Ok(CampaignReport { spec, result, table, distribution: dist, issues })
}

/// Partition display names for the EagleEye testbed, for rendering
/// flight-recorder events.
pub fn eagleeye_flight_names() -> FlightNames {
    FlightNames {
        partitions: EagleEye::config().partitions.iter().map(|p| p.name.clone()).collect(),
    }
}

/// One re-executed test with its flight recording, for `skrt-repro
/// triage`.
#[derive(Debug, Clone)]
pub struct TriageReport {
    /// Which case (index within the hypercall's concatenated suites).
    pub case_index: usize,
    /// The re-executed, re-classified test.
    pub record: TestRecord,
    /// Everything the flight recorder saw during the re-run.
    pub flight: TestFlight,
    /// Partition names for rendering.
    pub names: FlightNames,
}

impl TriageReport {
    /// True when the verdict warrants a timeline dump (the kernel or the
    /// whole system died, or had to restart).
    pub fn is_severe(&self) -> bool {
        use skrt::classify::CrashClass;
        matches!(
            self.record.classification.class,
            CrashClass::Catastrophic | CrashClass::Restart | CrashClass::Abort
        )
    }

    /// Renders the triage dump: verdict, the last `last_n` flight events,
    /// and the final kernel state.
    pub fn render(&self, last_n: usize) -> String {
        let mut out = String::new();
        let r = &self.record;
        out.push_str(&format!(
            "triage: case #{} {}\nverdict: {} ({:?})\n",
            self.case_index,
            r.case.display_call(),
            r.classification.class.label(),
            r.classification.cause,
        ));
        out.push_str(&format!(
            "\nflight recorder — last {} of {} events:\n",
            last_n.min(self.flight.events.len()),
            self.flight.events.len()
        ));
        out.push_str(&render_timeline(&self.flight, &self.names, last_n));
        let s = &r.observation.summary;
        out.push_str("\nfinal kernel state:\n");
        out.push_str(&format!(
            "  kernel: {}\n",
            s.kernel_halt_reason.as_deref().unwrap_or("running normally")
        ));
        out.push_str(&format!("  simulator: {:?}\n", s.sim_health));
        out.push_str(&format!(
            "  frames completed: {}, cold resets: {}, warm resets: {}, HM events: {}\n",
            s.frames_completed,
            s.cold_resets,
            s.warm_resets,
            s.hm_log.len()
        ));
        for (id, status) in s.partition_final.iter().enumerate() {
            out.push_str(&format!("  {}: {:?}\n", self.names.partition(id as u16), status));
        }
        if !s.console.is_empty() {
            out.push_str("  console tail:\n");
            for line in s.console.lines().rev().take(5).collect::<Vec<_>>().iter().rev() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }
}

/// Re-runs the `case_index`-th test case of `hypercall`'s paper suites
/// with the flight recorder enabled, on a fresh boot (so the recording
/// covers the complete real sequence, boot included). Returns `None`
/// when the index is out of range.
pub fn triage_case(
    build: KernelBuild,
    hypercall: xtratum::hypercall::HypercallId,
    case_index: usize,
) -> Option<TriageReport> {
    let full = paper_campaign();
    let mut spec = CampaignSpec::new(format!("{} triage", hypercall.name()));
    for s in full.suites.into_iter().filter(|s| s.hypercall == hypercall) {
        spec.push(s);
    }
    let case = spec.all_cases().into_iter().nth(case_index)?;
    let ctx = EagleEye.oracle_context(build);
    flightrec::enable(DEFAULT_RING_CAPACITY);
    let record = run_single_test(&EagleEye, &ctx, build, &case);
    flightrec::record_timeless(
        flightrec::EventKind::TestEnd,
        flightrec::NO_PARTITION,
        record.classification.class.index() as u32,
        0,
        0,
    );
    let drained = flightrec::drain();
    flightrec::disable();
    Some(TriageReport {
        case_index,
        record,
        flight: TestFlight { index: case_index, events: drained.events, dropped: drained.dropped },
        names: eagleeye_flight_names(),
    })
}

/// Runs only the suites of one hypercall (fast, for examples and benches).
pub fn run_hypercall_suites(
    build: KernelBuild,
    hypercall: xtratum::hypercall::HypercallId,
    threads: usize,
) -> CampaignReport {
    let full = paper_campaign();
    let mut spec = CampaignSpec::new(format!("{} suites", hypercall.name()));
    for s in full.suites.into_iter().filter(|s| s.hypercall == hypercall) {
        spec.push(s);
    }
    let result =
        run_campaign(&EagleEye, &spec, &CampaignOptions { build, threads, ..Default::default() });
    let table = campaign_table(&spec, &result);
    let dist = distribution(&spec);
    let issues = result.issues();
    CampaignReport { spec, result, table, distribution: dist, issues }
}

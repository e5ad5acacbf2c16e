//! The telemetry layer must be observationally transparent: live-stats
//! heartbeats, the OpenMetrics/JSONL snapshot export and the
//! self-profiler are all *readers* of the run, never participants.
//! Turning any of them on must not change a byte of the deterministic
//! result surface, at any thread count, with or without the flight
//! recorder.

use eagleeye::EagleEye;
use skrt::exec::{run_campaign, CampaignOptions, CampaignResult, LiveStats};
use skrt::fuzz::FuzzOptions;
use skrt::report::{campaign_table, distribution, render_distribution, render_table};
use skrt::suite::CampaignSpec;
use std::path::PathBuf;
use std::time::Duration;
use xm_campaign::fuzz::{run_eagleeye_fuzz, FuzzReport};
use xtratum::hypercall::HypercallId;
use xtratum::vuln::KernelBuild;

/// A fresh heartbeat sink path per call; runs in this file overlap in
/// time, so the names carry a caller-chosen tag.
fn sink(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("skrt_telemetry_{}_{tag}.jsonl", std::process::id()))
}

fn subset() -> CampaignSpec {
    let full = xm_campaign::paper_campaign();
    let mut spec = CampaignSpec::new("telemetry subset");
    for s in full.suites {
        if matches!(
            s.hypercall,
            HypercallId::SetTimer | HypercallId::Multicall | HypercallId::MemoryCopy
        ) {
            spec.push(s);
        }
    }
    spec
}

/// Deterministic surface of a campaign: every record's classification
/// plus the rendered Table III / Fig. 8.
fn surface(spec: &CampaignSpec, result: &CampaignResult) -> String {
    let mut out = String::new();
    for r in &result.records {
        out.push_str(&r.case.display_call());
        out.push_str(&format!(
            " {:?}/{:?}/{:?}\n",
            r.classification,
            r.observation.first(),
            r.param_signature
        ));
    }
    out.push_str(&render_table(&campaign_table(spec, result)));
    out.push_str(&render_distribution(&distribution(spec)));
    out
}

/// Campaign results are byte-identical with live-stats streaming on or
/// off across threads 1/4/16 × recorder — a sub-second interval forces
/// real mid-run heartbeats, so the emitter thread and the workers'
/// progress folds demonstrably run while the surface stays untouched.
#[test]
fn live_stats_is_observationally_transparent_for_campaigns() {
    let spec = subset();
    let base = run_campaign(
        &EagleEye,
        &spec,
        &CampaignOptions { build: KernelBuild::Legacy, threads: 1, ..Default::default() },
    );
    let base_surface = surface(&spec, &base);
    for threads in [1usize, 4, 16] {
        for record in [true, false] {
            let path = sink(&format!("camp_{threads}_{record}"));
            let live = run_campaign(
                &EagleEye,
                &spec,
                &CampaignOptions {
                    build: KernelBuild::Legacy,
                    threads,
                    record,
                    live_stats: Some(LiveStats::new(path.clone(), Duration::from_millis(1))),
                    ..Default::default()
                },
            );
            let stream = std::fs::read_to_string(&path).expect("heartbeat sink written");
            let _ = std::fs::remove_file(&path);
            assert_eq!(live.live_stats_error, None);
            assert_eq!(
                base_surface,
                surface(&spec, &live),
                "live-stats divergence at threads={threads} record={record}"
            );
            // The stream really happened and ends with the final line,
            // which has counted every test.
            let last = stream.lines().last().expect("at least the final heartbeat");
            assert!(last.contains("\"final\":true"), "unterminated stream: {last}");
            let done = format!("\"tests_done\":{}", spec.total_tests());
            assert!(last.contains(&done), "final heartbeat must count every test: {last}");
        }
    }
}

/// Rendering the telemetry registry (the `--metrics-out` export) is a
/// pure read of the folded metrics: exporting both formats leaves the
/// result untouched, and the OpenMetrics text carries the counters the
/// CI validator requires, terminated by `# EOF`.
#[test]
fn metrics_export_is_a_pure_read() {
    let spec = subset();
    let opts = CampaignOptions { build: KernelBuild::Legacy, threads: 4, ..Default::default() };
    let result = run_campaign(&EagleEye, &spec, &opts);
    let before = surface(&spec, &result);

    let registry = result.metrics.telemetry("telemetry-test");
    let prom = registry.render_openmetrics();
    let jsonl = registry.render_jsonl();

    assert_eq!(before, surface(&spec, &result), "export perturbed the result");
    for family in
        ["skrt_campaign_info", "skrt_tests_executed", "skrt_verdicts", "skrt_wall_seconds"]
    {
        assert!(prom.contains(family), "OpenMetrics snapshot lacks {family}:\n{prom}");
        assert!(jsonl.contains(family), "JSONL snapshot lacks {family}");
    }
    assert!(prom.ends_with("# EOF\n"), "missing OpenMetrics terminator");
    // Repeated export of the same result is itself deterministic.
    assert_eq!(prom, result.metrics.telemetry("telemetry-test").render_openmetrics());
}

fn fuzz_run(threads: usize, record: bool, live: Option<LiveStats>) -> FuzzReport {
    run_eagleeye_fuzz(&FuzzOptions {
        seed: 7,
        threads,
        max_execs: 150,
        batch: 32,
        record,
        live_stats: live,
        ..FuzzOptions::default()
    })
}

/// Deterministic surface of a fuzz run: corpus files, coverage map and
/// the rendered report (which now includes the coverage-introspection
/// section — occupancy curve, corpus composition, hottest edges).
fn fuzz_surface(report: &FuzzReport) -> String {
    let mut out = String::new();
    for entry in &report.result.corpus {
        out.push_str(&entry.file_name());
        out.push('\n');
        out.push_str(&entry.render());
    }
    out.push_str(&report.result.map.render());
    out.push_str(&report.render());
    out
}

/// Fuzz campaigns are byte-identical with the live heartbeat on or off
/// across threads and the recorder toggle. The driver emits between
/// rounds from already-folded state, so this pins that the stream can
/// never observe (or induce) anything the plain run would not.
#[test]
fn live_stats_is_observationally_transparent_for_fuzzing() {
    let base = fuzz_surface(&fuzz_run(1, false, None));
    assert!(!base.is_empty());
    for threads in [1usize, 4, 16] {
        for record in [false, true] {
            let path = sink(&format!("fuzz_{threads}_{record}"));
            let report =
                fuzz_run(threads, record, Some(LiveStats::new(path.clone(), Duration::ZERO)));
            let stream = std::fs::read_to_string(&path).expect("heartbeat sink written");
            let _ = std::fs::remove_file(&path);
            assert_eq!(report.result.live_stats_error, None);
            assert_eq!(
                base,
                fuzz_surface(&report),
                "fuzz live-stats divergence at threads={threads} record={record}"
            );
            // Interval zero → one heartbeat per round plus the final line.
            let lines: Vec<&str> = stream.lines().collect();
            assert_eq!(lines.len(), report.result.rounds.len() + 1);
            assert!(lines.last().unwrap().contains("\"final\":true"));
            assert!(lines.iter().all(|l| l.contains("\"type\":\"fuzz_live\"")));
        }
    }
}

/// An unwritable heartbeat sink must never fail or perturb the run: the
/// error is captured in `live_stats_error` and the campaign completes
/// with an identical surface.
#[test]
fn live_stats_sink_errors_are_captured_not_fatal() {
    let spec = subset();
    let opts = |live| CampaignOptions {
        build: KernelBuild::Legacy,
        threads: 2,
        live_stats: live,
        ..Default::default()
    };
    let plain = run_campaign(&EagleEye, &spec, &opts(None));
    let bad_path = std::env::temp_dir().join("skrt_no_such_dir").join("x").join("live.jsonl");
    let broken = run_campaign(
        &EagleEye,
        &spec,
        &opts(Some(LiveStats::new(bad_path, Duration::from_millis(1)))),
    );
    let err = broken.live_stats_error.as_deref().expect("sink failure must be reported");
    assert!(err.contains("skrt_no_such_dir"), "error should name the path: {err}");
    assert_eq!(surface(&spec, &plain), surface(&spec, &broken));
}

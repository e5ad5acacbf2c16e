//! The telemetry layer must be observationally transparent: live-stats
//! heartbeats, the OpenMetrics/JSONL snapshot export and the
//! self-profiler are all *readers* of the run, never participants.
//! Turning any of them on must not change a byte of the deterministic
//! result surface, at any thread count, with or without the flight
//! recorder.

use eagleeye::EagleEye;
use skrt::exec::{run_campaign, CampaignOptions, CampaignResult, LiveStats};
use skrt::fuzz::FuzzOptions;
use skrt::metrics::MetricsReport;
use skrt::report::{campaign_table, distribution, render_distribution, render_table};
use skrt::sequence::SequenceOptions;
use skrt::suite::CampaignSpec;
use skrt::{run_check, CheckOptions, CheckScope};
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

    // The fuzzer writes through the same sink.
    let bad_path = std::env::temp_dir().join("skrt_no_such_dir").join("y").join("fuzz.jsonl");
    let broken = fuzz_run(2, false, Some(LiveStats::new(bad_path, Duration::ZERO)));
    let err = broken.result.live_stats_error.as_deref().expect("sink failure must be reported");
    assert!(err.contains("skrt_no_such_dir"), "error should name the path: {err}");
    assert_eq!(fuzz_surface(&fuzz_run(2, false, None)), fuzz_surface(&broken));
}

/// The thread-independent part of a folded report: tests executed,
/// per-class tallies, snapshot clones, and each phase's span count (not
/// its time).
type FoldFacts = (u64, [u64; 6], u64, Vec<(String, u64)>);

fn fold_facts(m: &MetricsReport) -> FoldFacts {
    let spans = m.phases.iter().map(|p| (p.name.clone(), p.hist.count)).collect();
    (m.tests_executed, m.class_counts, m.snapshot_clones, spans)
}

/// Folding the workers' counters is exact: across threads 1/4/16 every
/// mode reports the same tests, verdict tallies, snapshot clones and
/// (with the recorder on) phase span counts, and one fresh boot per
/// worker — per configuration for `check`, which boots each
/// configuration's arena once and fresh-boots each finding's re-verdict.
#[test]
fn metrics_fold_is_exact_across_thread_counts() {
    let spec = subset();
    let mut seen: [Option<FoldFacts>; 4] = Default::default();
    for threads in [1usize, 4, 16] {
        let campaign = run_campaign(
            &EagleEye,
            &spec,
            &CampaignOptions { threads, record: true, ..Default::default() },
        )
        .metrics;
        let sequences = xm_campaign::run_eagleeye_sequences(
            3,
            40,
            6,
            &SequenceOptions { threads, record: true, ..Default::default() },
        )
        .result
        .metrics;
        let fuzz = fuzz_run(threads, true, None).result.metrics;
        let check = run_check(&CheckOptions {
            scope: CheckScope { partitions: 2, slots: 2, horizon: 4 },
            threads,
            record: true,
            ..Default::default()
        });
        // One arena boot per configuration, plus one fresh-boot
        // re-verdict per case whose arena run found something (arena and
        // fresh runs agree, so those are exactly the reported findings).
        let findings = check.findings().len() as u64;
        assert!(findings > 0, "the legacy build has counterexamples at this scope");
        assert_eq!(
            check.metrics.fresh_boots,
            check.configs as u64 + findings,
            "check at {threads} threads"
        );
        for (mode, m) in [("campaign", &campaign), ("sequences", &sequences), ("fuzz", &fuzz)] {
            assert_eq!(m.fresh_boots, m.threads as u64, "{mode}: one boot per worker");
            assert!(m.threads > 1 || threads == 1, "{mode} ran on {} threads", m.threads);
            assert!(!m.phases.is_empty(), "{mode}: recording runs self-profile");
        }
        assert_eq!(campaign.tests_executed, spec.total_tests());
        assert_eq!(campaign.snapshot_clones, campaign.tests_executed);
        for (slot, m) in seen.iter_mut().zip([&campaign, &sequences, &fuzz, &check.metrics]) {
            let facts = fold_facts(m);
            match slot {
                None => *slot = Some(facts),
                Some(first) => assert_eq!(*first, facts, "fold differs at {threads} threads"),
            }
        }
    }
}

/// The value of `"key":N` in a heartbeat line.
fn live_field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag).unwrap_or_else(|| panic!("{key} missing from {line}")) + tag.len();
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} is not a count in {line}"))
}

/// The campaign's final heartbeat agrees with the folded report: the
/// emitter samples its own progress counters, so this pins that they
/// and the fold count the same tests, verdicts and snapshot clones.
#[test]
fn final_heartbeat_matches_folded_metrics() {
    let spec = subset();
    for threads in [1usize, 4] {
        let path = sink(&format!("fold_{threads}"));
        let result = run_campaign(
            &EagleEye,
            &spec,
            &CampaignOptions {
                threads,
                live_stats: Some(LiveStats::new(path.clone(), Duration::from_millis(1))),
                ..Default::default()
            },
        );
        let stream = std::fs::read_to_string(&path).expect("heartbeat sink written");
        let _ = std::fs::remove_file(&path);
        let last = stream.lines().last().expect("final heartbeat");
        let m = &result.metrics;
        assert_eq!(live_field(last, "tests_done"), m.tests_executed, "{last}");
        assert_eq!(live_field(last, "snapshot_clones"), m.snapshot_clones, "{last}");
        for class in skrt::CrashClass::ALL {
            let key = class.label().to_ascii_lowercase();
            assert_eq!(live_field(last, &key), m.count(class), "{key} in {last}");
        }
    }
}

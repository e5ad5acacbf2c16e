//! End-to-end checks for the flight-recorder trace pipeline: a recorded
//! campaign must export a Chrome/Perfetto trace that passes the repo's
//! own validator (`scripts/check_trace_json.py`), the campaign CLI
//! must exit non-zero when a requested trace cannot be written, every
//! recorded campaign mode's kept flights are pinned byte-for-byte, and no
//! campaign driver touches its caller's recorder.

use eagleeye::EagleEye;
use flightrec::{Event, EventKind};
use skrt::exec::{run_campaign, CampaignOptions};
use skrt::flight::{export_chrome_trace, FlightLog};
use skrt::fuzz::FuzzOptions;
use skrt::metrics::MetricsReport;
use skrt::sequence::SequenceOptions;
use skrt::suite::CampaignSpec;
use skrt::{run_check, CheckOptions};
use std::process::Command;
use testkit::fnv1a;
use xm_campaign::fuzz::run_eagleeye_fuzz;
use xm_campaign::sequences::run_eagleeye_sequences;
use xm_campaign::{eagleeye_flight_names, paper_campaign};
use xtratum::hypercall::HypercallId;
use xtratum::vuln::KernelBuild;

fn small_spec() -> CampaignSpec {
    // Two defective hypercalls (slot overruns, kernel halts, resets) and
    // one robust one — enough outcome variety to exercise every exporter
    // track kind without running the whole 2662-test campaign in debug.
    let full = paper_campaign();
    let mut spec = CampaignSpec::new("flight trace subset");
    for s in full.suites {
        if matches!(
            s.hypercall,
            HypercallId::SetTimer | HypercallId::ResetSystem | HypercallId::HmSeek
        ) {
            spec.push(s);
        }
    }
    spec
}

#[test]
fn recorded_campaign_exports_a_trace_the_validator_accepts() {
    let spec = small_spec();
    let result = run_campaign(
        &EagleEye,
        &spec,
        &CampaignOptions {
            build: KernelBuild::Legacy,
            threads: 2,
            record: true,
            ..Default::default()
        },
    );
    let flight = result.flight.as_ref().expect("recorded run keeps a flight log");
    assert_eq!(flight.tests.len() as u64, spec.total_tests());
    let json = export_chrome_trace(flight, &result.records, &eagleeye_flight_names());

    let path = std::env::temp_dir().join("skrt_flight_trace_test.json");
    std::fs::write(&path, &json).expect("write trace");
    let out = Command::new("python3")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/check_trace_json.py"))
        .arg(&path)
        .output()
        .expect("python3 is available (CI and dev images ship it)");
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "validator rejected the exported trace:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check_trace_json: OK"), "unexpected validator output: {stdout}");
}

/// A failed `--trace` write must surface as a non-zero exit and a
/// message on stderr — CI jobs depend on that to fail loudly instead of
/// silently dropping the artifact.
#[test]
fn campaign_cli_exits_nonzero_when_trace_cannot_be_written() {
    let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
        .args([
            "campaign",
            "--build",
            "patched",
            "--threads",
            "4",
            "--trace",
            "/nonexistent-skrt-dir/trace.jsonl",
        ])
        .output()
        .expect("run skrt-repro");
    assert!(!out.status.success(), "CLI must fail when the trace path is unwritable");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write trace"),
        "stderr must explain the trace failure, got: {stderr}"
    );
}

/// FNV-1a over a recorded run's flight surface: every kept flight's
/// index, drop count and events, then the per-hypercall latency rows
/// `(nr, count, total_us, max_us)`. Returns the flight count with it.
fn flight_pin(flight: Option<&FlightLog>, metrics: &MetricsReport) -> (usize, u64) {
    let flight = flight.expect("recorded run keeps a flight log");
    let mut bytes = Vec::new();
    for f in &flight.tests {
        bytes.extend((f.index as u64).to_le_bytes());
        bytes.extend(f.dropped.to_le_bytes());
        bytes.extend((f.events.len() as u64).to_le_bytes());
        for e in &f.events {
            bytes.extend(e.t_us.to_le_bytes());
            bytes.push(e.kind as u8);
            bytes.extend(e.partition.to_le_bytes());
            bytes.extend(e.code.to_le_bytes());
            bytes.extend(e.a.to_le_bytes());
            bytes.extend(e.b.to_le_bytes());
        }
    }
    for row in &metrics.hc_latency {
        bytes.extend(row.nr.to_le_bytes());
        for v in [row.hist.count, row.hist.total_us, row.hist.max_us] {
            bytes.extend(v.to_le_bytes());
        }
    }
    (flight.tests.len(), fnv1a(&bytes))
}

/// Golden pins of the legacy recordings at two threads: the executor,
/// sequences and fuzz (shrink on and off), and the isolation checker.
/// Cross-thread equality alone cannot catch a recording change every
/// thread count shares; these pins do.
#[test]
fn legacy_recordings_are_pinned() {
    let build = KernelBuild::Legacy;
    let mut got = Vec::new();

    let opts = CampaignOptions { build, threads: 2, record: true, ..Default::default() };
    let r = run_campaign(&EagleEye, &small_spec(), &opts);
    got.push(("campaign", flight_pin(r.flight.as_ref(), &r.metrics)));

    for shrink in [true, false] {
        let opts =
            SequenceOptions { build, threads: 2, record: true, shrink, ..Default::default() };
        let r = run_eagleeye_sequences(1, 150, 8, &opts).result;
        got.push((
            if shrink { "sequences" } else { "sequences/no-shrink" },
            flight_pin(r.flight.as_ref(), &r.metrics),
        ));

        let opts = FuzzOptions {
            build,
            seed: 7,
            max_execs: 150,
            batch: 32,
            threads: 2,
            record: true,
            shrink,
            ..FuzzOptions::default()
        };
        let r = run_eagleeye_fuzz(&opts).result;
        got.push((
            if shrink { "fuzz" } else { "fuzz/no-shrink" },
            flight_pin(r.flight.as_ref(), &r.metrics),
        ));
    }

    let r = run_check(&CheckOptions { build, threads: 2, record: true, ..Default::default() });
    got.push(("check", flight_pin(r.flight.as_ref(), &r.metrics)));

    let want = [
        ("campaign", (65, 0xe680_2de3_3aa9_b9b0)),
        ("sequences", (150, 0x230b_c589_e7ec_529b)),
        ("fuzz", (31, 0x9b13_de35_7a08_89f5)),
        ("sequences/no-shrink", (150, 0x6a86_4869_a7a7_cee5)),
        ("fuzz/no-shrink", (31, 0x0698_2cb4_d2c8_db36)),
        ("check", (160, 0xc10c_07a4_6462_86bd)),
    ];
    assert_eq!(got, want);
}

/// Every campaign driver is transparent to its caller's flight recorder.
/// Called from a thread whose recorder is on and already holds events
/// (and has dropped some), each returns exactly what it returns to a
/// caller whose recorder is off — records, renderings and kept flights —
/// and leaves the caller's window (events, drop count, active flag) as
/// it found it.
#[test]
fn drivers_leave_the_callers_recorder_untouched() {
    let build = KernelBuild::Legacy;
    let campaign = |threads| {
        let opts = CampaignOptions { build, threads, record: true, ..Default::default() };
        let r = run_campaign(&EagleEye, &small_spec(), &opts);
        format!("{:?}\n{:?}", r.records, flight_pin(r.flight.as_ref(), &r.metrics))
    };
    let sequences = |threads| {
        let opts = SequenceOptions { build, threads, record: true, ..Default::default() };
        let report = run_eagleeye_sequences(1, 40, 6, &opts);
        let r = &report.result;
        let pin = flight_pin(r.flight.as_ref(), &r.metrics);
        format!("{}\n{:?}\n{pin:?}", report.render(), r.records)
    };
    let fuzz = |threads| {
        let opts = FuzzOptions {
            build,
            seed: 7,
            max_execs: 96,
            batch: 32,
            threads,
            record: true,
            ..FuzzOptions::default()
        };
        let report = run_eagleeye_fuzz(&opts);
        let r = &report.result;
        let corpus: Vec<String> = r.corpus.iter().map(|e| e.render()).collect();
        let pin = flight_pin(r.flight.as_ref(), &r.metrics);
        format!("{}\n{}\n{corpus:?}\n{pin:?}", report.render(), r.map.render())
    };
    let check = |threads| {
        let r = run_check(&CheckOptions { build, threads, record: true, ..Default::default() });
        let pin = flight_pin(r.flight.as_ref(), &r.metrics);
        format!("{:?}\n{pin:?}", r.cases)
    };
    let drivers: [(&str, &dyn Fn(usize) -> String); 4] =
        [("campaign", &campaign), ("sequences", &sequences), ("fuzz", &fuzz), ("check", &check)];
    for (name, run) in drivers {
        for threads in [1, 4] {
            flightrec::disable();
            let off = run(threads);
            // The caller's window: enabled, four buffered events, two drops.
            flightrec::enable(4);
            let mine: Vec<Event> = (1..=6)
                .map(|t| Event { t_us: t, kind: EventKind::Ops, partition: 1, code: 9, a: t, b: 0 })
                .collect();
            flightrec::replay(&mine);
            let on = run(threads);
            let active = flightrec::active();
            let window = flightrec::drain();
            flightrec::disable();
            assert_eq!(on, off, "{name} at {threads} threads");
            assert!(active, "{name} at {threads} threads disabled the caller's recorder");
            assert_eq!(window.events, mine[2..], "{name} at {threads} threads");
            assert_eq!(window.dropped, 2, "{name} at {threads} threads");
        }
    }
}

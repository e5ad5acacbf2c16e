//! Determinism contract of the coverage-guided fuzzer: a run is a pure
//! function of (seed, alphabet, options) — thread count and the
//! recorder toggle must not change a single byte of the corpus, the
//! coverage map, the findings or the rendered report. On top of that,
//! every corpus entry must replay from its serialized form to the exact
//! coverage signature recorded at discovery time, and every candidate
//! must really execute, so the coverage map sees its flight stream.

use eagleeye::EagleEye;
use skrt::fuzz::{parse_steps, replay_coverage, FuzzOptions};
use xm_campaign::fuzz::{finding_signature, run_eagleeye_fuzz, FuzzReport};
use xtratum::vuln::KernelBuild;

fn run(seed: u64, threads: usize, record: bool) -> FuzzReport {
    run_eagleeye_fuzz(&FuzzOptions {
        seed,
        threads,
        max_execs: 150,
        batch: 32,
        record,
        ..FuzzOptions::default()
    })
}

/// The full deterministic surface of a report, serialized: corpus files,
/// coverage map and findings (via the rendered report, which covers the
/// rediscovery table and every triage bundle).
fn surface(report: &FuzzReport) -> String {
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

#[test]
fn thread_count_and_recorder_do_not_change_the_run() {
    let baseline = surface(&run(7, 1, false));
    assert!(!baseline.is_empty());
    for (threads, record) in [(4, false), (16, false), (1, true), (4, true), (16, true)] {
        let report = run(7, threads, record);
        // Every candidate executes: the map sees each one's flight stream.
        assert_eq!(report.result.metrics.tests_executed, report.result.execs);
        let other = surface(&report);
        assert_eq!(baseline, other, "fuzz run diverged at threads={threads} record={record}");
    }
}

/// Every corpus entry survives a serialize → parse → replay round trip
/// with the exact coverage signature recorded at discovery time, on a
/// fresh kernel boot. This is what makes corpus files reproducers and
/// the corpus portable across runs.
#[test]
fn corpus_entries_replay_to_their_recorded_signature() {
    let report = run(7, 4, false);
    assert!(!report.result.corpus.is_empty());
    let steps_per_slot = FuzzOptions::default().steps_per_slot;
    for entry in &report.result.corpus {
        let steps = parse_steps(&entry.render()).expect("corpus entry reparses");
        assert_eq!(steps, entry.steps, "entry {} reparse mismatch", entry.id);
        let (coverage, _) = replay_coverage(&EagleEye, KernelBuild::Legacy, &steps, steps_per_slot);
        assert_eq!(
            coverage.signature, entry.signature,
            "entry {} (exec {}) replayed to a different coverage signature",
            entry.id, entry.exec_index
        );
    }
}

/// Findings are deduplicated into signatures identically across thread
/// counts (a weaker but more legible restatement of the byte-equality
/// test above, and the property CI's rediscovery gate relies on).
#[test]
fn signatures_and_first_hits_are_thread_invariant() {
    let a = run(11, 1, false);
    let b = run(11, 16, true);
    assert_eq!(a.first_hits(), b.first_hits());
    let sigs_a: Vec<_> = a.result.findings.iter().map(finding_signature).collect();
    let sigs_b: Vec<_> = b.result.findings.iter().map(finding_signature).collect();
    assert_eq!(sigs_a, sigs_b);
}

/// A recorded run keeps one closed flight per finding: filed under the
/// finding's `exec_index`, loss-free, and ending in the `TestEnd` event
/// that carries the finding's class.
#[test]
fn recorded_run_keeps_one_closed_flight_per_finding() {
    let report = run(7, 4, true);
    let findings = &report.result.findings;
    assert!(!findings.is_empty(), "legacy fuzzing must find divergences");
    let flight = report.result.flight.as_ref().expect("recording retains flights");
    assert_eq!(flight.tests.len(), findings.len());
    for (f, finding) in flight.tests.iter().zip(findings) {
        assert_eq!(f.index as u64, finding.exec_index);
        assert_eq!(f.dropped, 0, "exec {}: triage flights must be loss-free", f.index);
        let last = f.events.last().expect("a flight has events");
        assert_eq!(last.kind, flightrec::EventKind::TestEnd, "exec {} never closed", f.index);
        assert_eq!(last.code as usize, finding.verdict.classification.class.index());
    }
}

/// FNV-1a over a rendered surface: a hash that stays stable across Rust
/// releases (unlike `DefaultHasher`), so the pins below can be literals.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Golden pins of the legacy console report, with and without
/// shrinking, so both per-finding body shapes (minimal reproducer and
/// unshrunk steps) are held byte-for-byte, not only across thread
/// counts.
#[test]
fn legacy_fuzz_render_is_pinned() {
    for (shrink, pin) in [(true, 0x2108_9f4d_5ef1_d0b8), (false, 0x4a10_cf5e_3119_c1d0)] {
        let report = run_eagleeye_fuzz(&FuzzOptions {
            seed: 7,
            max_execs: 150,
            batch: 32,
            shrink,
            ..FuzzOptions::default()
        });
        let rendered = report.render();
        assert_eq!(fnv1a(rendered.as_bytes()), pin, "shrink={shrink} render drifted:\n{rendered}");
    }
}

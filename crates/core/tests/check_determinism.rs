//! The exhaustive checker's deterministic result surface: counterexample
//! lists and verdicts must be byte-identical across worker thread counts
//! and recorder settings.

use skrt::{run_check, CheckOptions, CheckResult};
use xtratum::vuln::KernelBuild;

/// The deterministic surface, rendered: every case with its config,
/// probe, steps, verdict, violations and minimal reproducer. Metrics and
/// flights are intentionally excluded (wall-clock and retention detail).
fn surface(res: &CheckResult) -> String {
    format!("{:#?}", res.cases)
}

#[test]
fn results_are_byte_identical_across_threads_and_recording() {
    for build in [KernelBuild::Legacy, KernelBuild::Patched] {
        let reference = surface(&run_check(&CheckOptions {
            build,
            threads: 1,
            record: false,
            ..Default::default()
        }));
        for threads in [4, 16] {
            let got = surface(&run_check(&CheckOptions {
                build,
                threads,
                record: false,
                ..Default::default()
            }));
            assert_eq!(got, reference, "{build:?} diverged at {threads} threads");
        }
        // Flight retention must not perturb the result surface either.
        let got = surface(&run_check(&CheckOptions {
            build,
            threads: 4,
            record: true,
            ..Default::default()
        }));
        assert_eq!(got, reference, "{build:?} diverged with recording on");
    }
}

#[test]
fn recording_keeps_one_flight_per_finding() {
    let res = run_check(&CheckOptions {
        build: KernelBuild::Legacy,
        threads: 2,
        record: true,
        ..Default::default()
    });
    let flight = res.flight.as_ref().expect("recording retains flights");
    assert_eq!(flight.tests.len(), res.findings().len());
    // Each retained flight replays the finding's minimal reproducer.
    for f in &flight.tests {
        assert!(res.cases[f.index].is_finding(), "flight kept for a passing case {}", f.index);
        assert!(!f.events.is_empty());
        assert_eq!(f.dropped, 0, "triage flights must be loss-free");
    }
}

/// A recorded check self-profiles like the other campaign modes: its
/// evaluations and shrinks land in the phase timers. An unrecorded one
/// reads no clock, so it reports no phases.
#[test]
fn recording_profiles_evaluations_and_shrinks() {
    let run = |record| {
        run_check(&CheckOptions {
            build: KernelBuild::Legacy,
            threads: 2,
            record,
            ..Default::default()
        })
    };
    let recorded = run(true);
    let spans = |name: &str| {
        let row = recorded.metrics.phases.iter().find(|p| p.name == name);
        row.map_or(0, |p| p.hist.count)
    };
    assert!(spans("step_major_frames") > 0, "{:?}", recorded.metrics.phases);
    assert!(spans("shrink") > 0, "{:?}", recorded.metrics.phases);
    assert!(run(false).metrics.phases.is_empty());
}

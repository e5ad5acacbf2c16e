//! End-to-end validation of the stateful sequence campaign: on the
//! legacy build a modest seeded campaign must rediscover the paper's
//! injected defects as *minimal* sequences, and on the patched build the
//! differential state oracle must stay completely silent.

use skrt::classify::{Cause, CrashClass};
use skrt::fuzz::FuzzOptions;
use skrt::sequence::SequenceOptions;
use testkit::fnv1a;
use xm_campaign::fuzz::{finding_signature, run_eagleeye_fuzz, stateful_defect_signatures};
use xm_campaign::sequences::{run_eagleeye_sequences, signature_of, SequenceReport};
use xm_campaign::write_forensics_bundle;
use xtratum::hypercall::HypercallId;
use xtratum::observe::ResetKind;
use xtratum::vuln::KernelBuild;

fn legacy_report() -> SequenceReport {
    run_eagleeye_sequences(
        1,
        150,
        8,
        &SequenceOptions { build: KernelBuild::Legacy, ..Default::default() },
    )
}

/// The three paper defects the issue's acceptance criteria name: the
/// multicall temporal-isolation break and both `XM_set_timer` defects.
/// Each must surface, attributed to the right hypercall, with a minimal
/// reproducer of at most 3 steps.
#[test]
fn legacy_rediscovers_required_defects_as_minimal_sequences() {
    let report = legacy_report();
    let divergences = report.result.divergences();
    assert!(!divergences.is_empty(), "legacy campaign found nothing:\n{}", report.render());

    let has = |class: CrashClass, cause_ok: &dyn Fn(&Cause) -> bool, id: HypercallId| {
        divergences.iter().any(|rec| {
            let sig = signature_of(rec);
            sig.classification.class == class
                && cause_ok(&sig.classification.cause)
                && sig.hypercall == Some(id)
                && rec.minimal.as_ref().is_some_and(|m| m.steps.len() <= 3)
        })
    };

    // XM_multicall: a 2048-entry batch overruns FDIR's 60 ms plan-0 slot
    // (81.92 ms of entry decoding) — the temporal isolation break.
    assert!(
        has(CrashClass::Restart, &|c| *c == Cause::TemporalOverrun, HypercallId::Multicall),
        "multicall temporal break not rediscovered:\n{}",
        report.render()
    );
    // XM_set_timer defect 1: HW-clock interval 1 µs => vtimer handler
    // re-entry => kernel trap => system halt.
    assert!(
        has(CrashClass::Catastrophic, &|c| *c == Cause::KernelHalt, HypercallId::SetTimer),
        "set_timer kernel-halt defect not rediscovered:\n{}",
        report.render()
    );
    // XM_set_timer defect 2: EXEC-clock interval 1 µs => IRQ flood =>
    // simulator death.
    assert!(
        has(CrashClass::Catastrophic, &|c| *c == Cause::SimulatorCrash, HypercallId::SetTimer),
        "set_timer simulator-crash defect not rediscovered:\n{}",
        report.render()
    );
    // Bonus Table III defects reachable from the same alphabet: the
    // legacy mode&1 decode of XM_reset_system turns documented invalid
    // modes into real system resets.
    assert!(
        has(
            CrashClass::Catastrophic,
            &|c| matches!(c, Cause::UnexpectedSystemReset(ResetKind::Cold | ResetKind::Warm)),
            HypercallId::ResetSystem
        ),
        "reset_system mode-decode defect not rediscovered:\n{}",
        report.render()
    );
}

/// Every diverging sequence must come with a shrunk reproducer that
/// still reproduces (same classification when re-run), and shrinking
/// must actually reduce: no minimal reproducer is longer than its
/// original sequence.
#[test]
fn every_divergence_ships_a_faithful_minimal_reproducer() {
    let report = legacy_report();
    let divergences = report.result.divergences();
    assert!(!divergences.is_empty());
    for rec in &divergences {
        let m = rec
            .minimal
            .as_ref()
            .unwrap_or_else(|| panic!("divergence #{} has no minimal reproducer", rec.spec.index));
        assert!(!m.steps.is_empty(), "#{}: empty reproducer", rec.spec.index);
        assert!(
            m.steps.len() <= rec.spec.steps.len(),
            "#{}: reproducer grew ({} > {})",
            rec.spec.index,
            m.steps.len(),
            rec.spec.steps.len()
        );
        assert_eq!(
            m.verdict.classification,
            rec.verdict.classification,
            "#{}: minimal reproducer no longer reproduces the verdict\n{}",
            rec.spec.index,
            report.render()
        );
        assert!(
            !m.verdict.state_diff.is_empty(),
            "#{}: triage bundle has no state-diff evidence",
            rec.spec.index
        );
    }
}

/// Fuzz mode: the coverage-guided fuzzer must rediscover **all seven**
/// canonical stateful defect signatures on the legacy build within a
/// bounded candidate-execution budget, and every one must shrink to a
/// single-step reproducer.
#[test]
fn fuzzer_rediscovers_all_seven_signatures_within_budget() {
    let report =
        run_eagleeye_fuzz(&FuzzOptions { seed: 1, max_execs: 600, ..FuzzOptions::default() });
    for (sig, first) in report.first_hits() {
        assert!(
            first.is_some(),
            "signature {sig:?} not rediscovered within 600 executions:\n{}",
            report.render()
        );
    }
    // Every canonical signature shrinks to one step.
    for sig in stateful_defect_signatures() {
        let best = report
            .result
            .findings
            .iter()
            .filter(|f| finding_signature(f) == sig)
            .filter_map(|f| f.minimal.as_ref())
            .map(|m| m.steps.len())
            .min();
        assert_eq!(best, Some(1), "signature {sig:?} did not shrink to one step");
    }
}

/// Fuzz mode on the patched build: the same budget must come back
/// completely clean — any finding would be an oracle (or fuzzer) bug.
#[test]
fn fuzzer_stays_silent_on_patched() {
    let report = run_eagleeye_fuzz(&FuzzOptions {
        seed: 1,
        max_execs: 600,
        build: KernelBuild::Patched,
        ..FuzzOptions::default()
    });
    assert_eq!(report.result.execs, 600);
    assert!(
        report.result.findings.is_empty(),
        "patched build diverged under fuzzing:\n{}",
        report.render()
    );
    // Coverage still accumulates on a clean build: the map is feedback,
    // not a defect detector.
    assert!(report.result.map.fill() > 0);
    assert!(!report.result.corpus.is_empty());
}

/// The patched build must be divergence-free under the same campaign:
/// the reference state machine models every alphabet entry exactly, so
/// any verdict here would be an oracle bug, not a kernel bug.
#[test]
fn patched_build_stays_silent() {
    let report = run_eagleeye_sequences(
        1,
        150,
        8,
        &SequenceOptions { build: KernelBuild::Patched, ..Default::default() },
    );
    assert_eq!(
        report.result.divergences().len(),
        0,
        "patched build diverged:\n{}",
        report.render()
    );
    assert!(report
        .result
        .records
        .iter()
        .all(|r| r.verdict.classification.class == CrashClass::Pass));
}

/// Golden pins of the legacy console report, with and without
/// shrinking, so both per-finding body shapes (minimal reproducer and
/// unshrunk steps) are held byte-for-byte, not only across thread
/// counts.
#[test]
fn legacy_sequence_render_is_pinned() {
    let no_shrink = run_eagleeye_sequences(
        1,
        150,
        8,
        &SequenceOptions { build: KernelBuild::Legacy, shrink: false, ..Default::default() },
    );
    for (report, pin) in
        [(legacy_report(), 0xe2b6_a07b_5a42_7529), (no_shrink, 0x329e_4d29_5af2_4dab)]
    {
        let rendered = report.render();
        assert_eq!(fnv1a(rendered.as_bytes()), pin, "render drifted:\n{rendered}");
    }
}

/// Golden pin of a legacy `campaign report` bundle's per-finding files
/// (every `finding-NNN/report.md` and `repro.seq`, in order), at the
/// CLI's defaults: seed 1, 120 sequences x 8 steps, recording on.
#[test]
fn legacy_forensics_bundle_findings_are_pinned() {
    let opts = SequenceOptions { build: KernelBuild::Legacy, record: true, ..Default::default() };
    let report = run_eagleeye_sequences(1, 120, 8, &opts);
    let dir = std::env::temp_dir().join(format!("skrt-bundle-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = write_forensics_bundle(&dir, "sequences-legacy", &report).expect("bundle writes");
    let mut surface = Vec::new();
    for n in 0..summary.findings {
        for file in ["report.md", "repro.seq"] {
            let path = dir.join(format!("finding-{n:03}/{file}"));
            surface.extend(std::fs::read(&path).unwrap_or_else(|e| panic!("{path:?}: {e}")));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(summary.findings, 43);
    assert_eq!(fnv1a(&surface), 0x6789_9a81_054c_908c);
}

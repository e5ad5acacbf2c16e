//! The shared triage stage's flight retention, exercised through the
//! sequence campaign on a small-scope `check` testbed: every record keeps
//! one flight, and a diverging record's flight is the loss-free replay of
//! its minimal reproducer, closed with the record's class.

use flightrec::EventKind;
use skrt::check::CALLER;
use skrt::{
    enumerate_configs, generate_sequences, probes_for, run_sequence_campaign, AlphabetEntry,
    CheckScope, CheckTestbed, SequenceOptions,
};
use xtratum::vuln::KernelBuild;

#[test]
fn diverging_records_keep_their_minimal_reproducers_flight() {
    let cfg = enumerate_configs(&CheckScope::default())
        .into_iter()
        .find(|c| c.caller_scheduled())
        .expect("some configuration schedules the caller");
    // The alphabet is every probe step of the configuration, defect
    // probes included, so a good share of the sequences diverge.
    let alphabet: Vec<AlphabetEntry> = probes_for(&cfg)
        .into_iter()
        .flat_map(|p| p.steps)
        .map(|call| AlphabetEntry { call, weight: 1 })
        .collect();
    let specs = generate_sequences(&alphabet, 3, 40, 4);
    let opts = SequenceOptions {
        build: KernelBuild::Legacy,
        threads: 2,
        record: true,
        ..SequenceOptions::default()
    };
    let res = run_sequence_campaign(&CheckTestbed::new(cfg), &specs, &opts);

    let flight = res.flight.as_ref().expect("recording retains flights");
    assert_eq!(flight.tests.len(), res.records.len(), "one flight per record");
    let mut diverging = 0;
    for (f, rec) in flight.tests.iter().zip(&res.records) {
        assert_eq!(f.index, rec.spec.index);
        if !rec.is_divergence() {
            continue;
        }
        diverging += 1;
        let m = rec.minimal.as_ref().expect("diverging records shrink");
        assert_eq!(f.dropped, 0, "sequence {}: triage flights must be loss-free", f.index);
        let (first, last) = (f.events.first().unwrap(), f.events.last().unwrap());
        assert_eq!((first.kind, first.code as usize), (EventKind::TestBegin, f.index));
        assert_eq!(last.kind, EventKind::TestEnd, "sequence {} never closed", f.index);
        assert_eq!(last.code as usize, rec.verdict.classification.class.index());
        // The caller's hypercalls are the minimal reproducer's, in order:
        // the flight replays it, not the generated sequence.
        let issued: Vec<u32> = f
            .events
            .iter()
            .filter(|e| e.kind == EventKind::HypercallEnter && e.partition == CALLER as u16)
            .map(|e| e.code)
            .collect();
        let repro: Vec<u32> = m.steps.iter().map(|s| s.id as u32).collect();
        assert!(!issued.is_empty(), "sequence {}: no caller hypercall recorded", f.index);
        assert!(
            repro.starts_with(&issued),
            "sequence {}: flight issued {issued:?}, minimal reproducer is {repro:?}",
            f.index
        );
    }
    assert!(diverging > 0, "the legacy build must diverge for this test to bite");
}

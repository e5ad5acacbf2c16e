//! `sequences`: stateful lockstep traffic with shrinking.
//!
//! One pass is `run_sequence_campaign` over 500 seeded 8-step sequences
//! from the curated EagleEye alphabet, judged by the stepwise differential
//! oracle. About a third of the sequences diverge on the legacy build, and
//! each divergence is re-judged at one step per slot and ddmin-shrunk, so
//! shrinking is about half of a pass: this is the shrink-heavy workload
//! (`sweep` is its bypass). The seed drives sequence generation.

use super::{
    boot_arena, count_advances, count_flight, ratio, rewind, steps_text, Digest, Workload, BUILD,
};
use crate::reference::Reference;
use crate::trace::Tracer;
use eagleeye::EagleEye;
use skrt::flight::DEFAULT_RING_CAPACITY;
use skrt::sequence::{
    run_one_sequence, run_sequence_campaign, MinimalRepro, SequenceCampaignResult, SequenceOptions,
    SequenceRecord, SequenceSpec,
};
use skrt::shrink::shrink_sequence;
use skrt::testbed::Testbed;

const COUNT: usize = 500;
const STEPS: usize = 8;
/// The seed the pins below hold for.
const PINNED_SEED: u64 = 1;
const PINNED_DIVERGENCES: usize = 175;
const PINNED_DIGEST: u64 = 0xdbd9_8b34_87c1_acd6;
/// Distinct defect signatures among the divergences, sorted: the seven
/// stateful signatures of the legacy build.
const PINNED_SIGNATURES: &[&str] = &[
    "Abort UnhandledServiceException @ XM_multicall",
    "Catastrophic KernelHalt @ XM_set_timer",
    "Catastrophic SimulatorCrash @ XM_set_timer",
    "Catastrophic UnexpectedSystemReset(Cold) @ XM_reset_system",
    "Catastrophic UnexpectedSystemReset(Warm) @ XM_reset_system",
    "Restart TemporalOverrun @ XM_multicall",
    "Silent WrongSuccess @ XM_set_timer",
];

pub struct Sequences;

pub struct SequencesInput {
    specs: Vec<SequenceSpec>,
}

fn options() -> SequenceOptions {
    SequenceOptions { build: BUILD, threads: 1, ..SequenceOptions::default() }
}

fn digest(records: &[SequenceRecord]) -> u64 {
    let mut d = Digest::new();
    for r in records {
        let v = &r.verdict;
        d.add(r.spec.index)
            .add(v.classification.class.label())
            .add(format_args!("{:?} {:?}", v.classification.cause, v.failing_step))
            .add(r.steps_executed);
        if let Some(m) = &r.minimal {
            d.add(steps_text(&m.steps))
                .add(format_args!("{:?} {:?}", m.verdict.classification, m.verdict.failing_step))
                .add(m.evals);
        }
    }
    d.finish()
}

fn signatures(records: &[SequenceRecord]) -> Vec<String> {
    let mut sigs: Vec<String> = records
        .iter()
        .filter(|r| r.is_divergence())
        .map(|r| {
            let sig = xm_campaign::sequences::signature_of(r);
            format!(
                "{} {:?} @ {}",
                sig.classification.class.label(),
                sig.classification.cause,
                sig.hypercall.map_or("-", |h| h.name())
            )
        })
        .collect();
    sigs.sort();
    sigs.dedup();
    sigs
}

impl Workload for Sequences {
    const UNIT: &'static str = "steps";
    type Input = SequencesInput;
    type Output = SequenceCampaignResult;

    fn setup(seed: u64) -> SequencesInput {
        let specs = xm_campaign::eagleeye_sequence_specs(seed, COUNT, STEPS);
        let snap = EagleEye.snapshot(BUILD).expect("EagleEye guests are cloneable");
        std::hint::black_box(snap.workspace());
        SequencesInput { specs }
    }

    fn pass(input: &SequencesInput) -> SequenceCampaignResult {
        run_sequence_campaign(&EagleEye, &input.specs, &options())
    }

    fn units(input: &SequencesInput) -> u64 {
        input.specs.iter().map(|s| s.steps.len() as u64).sum()
    }

    fn digest(out: &SequenceCampaignResult) -> u64 {
        digest(&out.records)
    }

    fn check_pins(seed: u64, out: &SequenceCampaignResult) -> Result<(), String> {
        if seed != PINNED_SEED {
            return Ok(());
        }
        let divergences = out.divergences().len();
        let d = digest(&out.records);
        let sigs = signatures(&out.records);
        if divergences != PINNED_DIVERGENCES || d != PINNED_DIGEST || sigs != PINNED_SIGNATURES {
            return Err(format!(
                "sequences seed {seed}: {divergences} divergences, digest {d:#018x}, \
                 signatures {sigs:?}; pinned {PINNED_DIVERGENCES}, {PINNED_DIGEST:#018x}, \
                 {PINNED_SIGNATURES:?}"
            ));
        }
        Ok(())
    }

    fn traced(input: &SequencesInput, _untraced: &SequenceCampaignResult, tr: &mut Tracer) -> u64 {
        let tb = EagleEye;
        let part = tb.test_partition();
        let ctx = tb.oracle_context(BUILD);
        let opts = options();
        let (snap, mut ws) = boot_arena(tr, &tb);
        let mut records = Vec::with_capacity(input.specs.len());
        for spec in &input.specs {
            tr.set_unit(spec.index as u64);
            let unit = tr.begin("unit");
            rewind(tr, &mut ws, &snap, part);
            let (kernel, guests) = ws.parts();
            let advances = kernel.advance_stats();
            let main = tr.span("sequence.eval", || {
                run_one_sequence(&tb, &ctx, kernel, guests, &spec.steps, opts.steps_per_slot)
            });
            count_advances(tr, kernel, advances);
            let mut record = SequenceRecord {
                spec: spec.clone(),
                verdict: main.verdict,
                steps_executed: main.steps_executed,
                outcomes: main.outcomes,
                minimal: None,
            };
            if record.is_divergence() {
                // The one-step-per-slot re-judgement is authoritative.
                rewind(tr, &mut ws, &snap, part);
                let (kernel, guests) = ws.parts();
                let refined = tr.span("sequence.refine", || {
                    run_one_sequence(&tb, &ctx, kernel, guests, &spec.steps, 1)
                });
                record.verdict = refined.verdict;
                record.steps_executed = refined.steps_executed;
                record.outcomes = refined.outcomes;
            }
            if record.is_divergence() && opts.shrink {
                let target = record.verdict.classification;
                let s = tr.begin("shrink");
                let out = shrink_sequence(
                    &spec.steps,
                    |cand| {
                        if cand.is_empty() {
                            return false;
                        }
                        rewind(tr, &mut ws, &snap, part);
                        let (kernel, guests) = ws.parts();
                        let eval = tr.span("shrink.eval", || {
                            run_one_sequence(&tb, &ctx, kernel, guests, cand, 1)
                        });
                        eval.verdict.classification == target
                    },
                    opts.shrink_budget,
                );
                tr.end(s);
                tr.count("shrink.evals", out.evals as f64);
                rewind(tr, &mut ws, &snap, part);
                let (kernel, guests) = ws.parts();
                let minimal_eval = tr.span("sequence.refine", || {
                    run_one_sequence(&tb, &ctx, kernel, guests, &out.steps, 1)
                });
                record.minimal = Some(MinimalRepro {
                    steps: out.steps,
                    verdict: minimal_eval.verdict,
                    evals: out.evals,
                    removed_steps: out.removed_steps,
                    shrunk_args: out.shrunk_args,
                });
            }
            records.push(record);
            tr.end(unit);
        }
        digest(&records)
    }

    fn host_reference(seed: u64) -> Reference {
        Reference::sequences(seed, COUNT, STEPS)
    }

    fn facts(input: &SequencesInput, out: &SequenceCampaignResult, tr: &mut Tracer) {
        let m = &out.metrics;
        tr.count("exec.memo_hit_ratio", ratio(m.memo_hits, m.memo_hits + m.memo_misses));
        tr.count("exec.oracle_cache_hit_ratio", 0.0);
        let diverging = out.records.iter().filter(|r| r.is_divergence()).count();
        tr.count("divergence_ratio", ratio(diverging as u64, out.records.len() as u64));

        // The campaign runs with the recorder off; count the main
        // evaluations' events in a separate recorder-on pass.
        let tb = EagleEye;
        let part = tb.test_partition();
        let ctx = tb.oracle_context(BUILD);
        let snap = tb.snapshot(BUILD).expect("EagleEye guests are cloneable");
        let mut ws = snap.workspace();
        let steps_per_slot = options().steps_per_slot;
        flightrec::enable(DEFAULT_RING_CAPACITY);
        for spec in &input.specs {
            ws.restore(&snap, Some(part));
            let _ = flightrec::drain();
            let (kernel, guests) = ws.parts();
            run_one_sequence(&tb, &ctx, kernel, guests, &spec.steps, steps_per_slot);
            count_flight(tr, &flightrec::drain().events);
        }
        flightrec::disable();
    }
}

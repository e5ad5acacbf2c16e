//! `fuzz`: coverage-guided search with the flight recorder on for every
//! execution.
//!
//! One pass is `run_fuzz` over the trigger-free benchmark alphabet with a
//! budget of 6000 candidate executions (the setup of the
//! `fuzz_rediscovery` bench). Its work goes to mutation, execution,
//! flight-recorder draining, coverage folding and corpus growth; findings
//! are few, so shrinking is a small share. `sweep` only takes the
//! recorder's disabled branch. The seed is the fuzzer's master seed.
//!
//! The traced pass replays the pass's own final corpus: one mutator call
//! per entry (fresh draw or mutation of its recorded parent), then the
//! entry's execution, drain and coverage fold against the final map. Every
//! replayed entry must reproduce its recorded coverage signature and be
//! non-novel against that map.

use super::{
    boot_arena, censored_median, count_advances, count_flight, ratio, rewind, steps_text, Digest,
    Workload, BUILD,
};
use crate::reference::Reference;
use crate::trace::Tracer;
use eagleeye::EagleEye;
use flightrec::coverage::EdgeTrace;
use skrt::flight::DEFAULT_RING_CAPACITY;
use skrt::fuzz::{run_fuzz, FuzzOptions, FuzzResult, Mutator, Origin};
use skrt::sequence::{run_one_sequence, AlphabetEntry, SeqRng};
use skrt::testbed::Testbed;
use xm_campaign::{finding_signature, stateful_defect_signatures};

const MAX_EXECS: u64 = 6000;
/// The seed the pins below hold for.
const PINNED_SEED: u64 = 1;
const PINNED_CORPUS: usize = 2690;
const PINNED_MAP_CELLS: usize = 5059;
const PINNED_FINDINGS: usize = 101;
/// First execution hitting each canonical stateful signature.
const PINNED_FIRST_HITS: &[Option<u64>] =
    &[Some(2037), Some(5716), Some(417), Some(1250), Some(371), Some(557), Some(704)];
const PINNED_DIGEST: u64 = 0xeb20_6cfd_8ec6_2015;

pub struct Fuzz;

pub struct FuzzInput {
    alphabet: Vec<AlphabetEntry>,
    opts: FuzzOptions,
}

fn first_hits(out: &FuzzResult) -> Vec<Option<u64>> {
    stateful_defect_signatures()
        .into_iter()
        .map(|sig| out.findings.iter().find(|f| finding_signature(f) == sig).map(|f| f.exec_index))
        .collect()
}

impl Workload for Fuzz {
    const UNIT: &'static str = "execs";
    type Input = FuzzInput;
    type Output = FuzzResult;

    fn setup(seed: u64) -> FuzzInput {
        let alphabet = xm_campaign::fuzz_benchmark_alphabet();
        let opts = FuzzOptions {
            build: BUILD,
            threads: 1,
            seed,
            max_execs: MAX_EXECS,
            ..FuzzOptions::default()
        };
        std::hint::black_box(Mutator::new(&alphabet, opts.max_steps));
        let snap = EagleEye.snapshot(BUILD).expect("EagleEye guests are cloneable");
        std::hint::black_box(snap.workspace());
        FuzzInput { alphabet, opts }
    }

    fn pass(input: &FuzzInput) -> FuzzResult {
        run_fuzz(&EagleEye, &input.alphabet, &input.opts)
    }

    fn units(input: &FuzzInput) -> u64 {
        input.opts.max_execs
    }

    fn digest(out: &FuzzResult) -> u64 {
        let mut d = Digest::new();
        d.add(out.execs).add(out.map.fill());
        for e in &out.corpus {
            d.add(e.id)
                .add(steps_text(&e.steps))
                .add(e.signature)
                .add(e.new_cells)
                .add(e.exec_index)
                .add(format_args!("{:?}", e.origin));
        }
        for f in &out.findings {
            let v = &f.verdict;
            d.add(f.exec_index)
                .add(f.round)
                .add(v.classification.class.label())
                .add(format_args!("{:?} {:?}", v.classification.cause, v.failing_step))
                .add(f.steps_executed);
            if let Some(m) = &f.minimal {
                d.add(steps_text(&m.steps)).add(m.evals);
            }
        }
        d.finish()
    }

    fn check_pins(seed: u64, out: &FuzzResult) -> Result<(), String> {
        if seed != PINNED_SEED {
            return Ok(());
        }
        let hits = first_hits(out);
        let d = Self::digest(out);
        if out.corpus.len() != PINNED_CORPUS
            || out.map.fill() != PINNED_MAP_CELLS
            || out.findings.len() != PINNED_FINDINGS
            || hits != PINNED_FIRST_HITS
            || d != PINNED_DIGEST
        {
            return Err(format!(
                "fuzz seed {seed}: corpus {}, map {}, findings {}, first hits {hits:?}, digest \
                 {d:#018x}; pinned {PINNED_CORPUS}, {PINNED_MAP_CELLS}, {PINNED_FINDINGS}, \
                 {PINNED_FIRST_HITS:?}, {PINNED_DIGEST:#018x}",
                out.corpus.len(),
                out.map.fill(),
                out.findings.len()
            ));
        }
        Ok(())
    }

    fn traced(input: &FuzzInput, untraced: &FuzzResult, tr: &mut Tracer) -> u64 {
        let tb = EagleEye;
        let part = tb.test_partition();
        let ctx = tb.oracle_context(BUILD);
        let opts = &input.opts;
        let (snap, mut ws) = boot_arena(tr, &tb);
        let mutator = Mutator::new(&input.alphabet, opts.max_steps);
        let corpus = &untraced.corpus;
        let mut map = untraced.map.clone();
        let mut edges = EdgeTrace::new();
        let mut d = Digest::new();
        flightrec::enable(DEFAULT_RING_CAPACITY);
        for (i, entry) in corpus.iter().enumerate() {
            tr.set_unit(i as u64);
            let unit = tr.begin("unit");
            let mut rng = SeqRng::new(opts.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let candidate = tr.span("fuzz.candidate", || match entry.origin {
                Origin::Fresh => mutator.fresh_sequence(&mut rng, opts.steps),
                Origin::Mutant { parent, .. } => {
                    mutator.mutate(&mut rng, &corpus[parent].steps, &entry.steps).steps
                }
            });
            std::hint::black_box(candidate);
            rewind(tr, &mut ws, &snap, part);
            let _ = flightrec::drain();
            let (kernel, guests) = ws.parts();
            let advances = kernel.advance_stats();
            let eval = tr.span("fuzz.exec", || {
                run_one_sequence(&tb, &ctx, kernel, guests, &entry.steps, opts.steps_per_slot)
            });
            count_advances(tr, kernel, advances);
            let drained = tr.span("flightrec.drain", flightrec::drain);
            count_flight(tr, &drained.events);
            let (signature, novel) = tr.span("coverage.fold", || {
                edges.begin();
                for e in &drained.events {
                    edges.observe_event(e);
                }
                for &h in &eval.frame_digests {
                    edges.observe_token(h);
                }
                let cov = edges.finish();
                (cov.signature, map.observe(&cov))
            });
            d.add(signature).add(novel);
            tr.end(unit);
        }
        flightrec::disable();
        d.finish()
    }

    fn traced_expected(out: &FuzzResult) -> u64 {
        let mut d = Digest::new();
        for e in &out.corpus {
            d.add(e.signature).add(0);
        }
        d.finish()
    }

    fn traced_units(_input: &FuzzInput, untraced: &FuzzResult) -> u64 {
        untraced.corpus.len() as u64
    }

    fn host_reference(seed: u64) -> Reference {
        Reference::fuzz(seed, MAX_EXECS)
    }

    fn facts(_input: &FuzzInput, out: &FuzzResult, tr: &mut Tracer) {
        tr.count("exec.memo_hit_ratio", 0.0);
        tr.count("exec.oracle_cache_hit_ratio", 0.0);
        tr.count("divergence_ratio", ratio(out.findings.len() as u64, out.execs));
        tr.count("fuzz.novel_ratio", ratio(out.corpus.len() as u64, out.execs));
        tr.count("fuzz.corpus_size", out.corpus.len() as f64);
        tr.count("fuzz.map_cells", out.map.fill() as f64);
        let hits = first_hits(out);
        tr.count("fuzz.rediscovery_execs_p50", censored_median(&hits, out.execs));
        tr.count("fuzz.signatures_found", hits.iter().flatten().count() as f64);
    }
}

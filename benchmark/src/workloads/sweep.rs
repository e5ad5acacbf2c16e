//! `sweep`: single-call traffic over the full cartesian invocation space.
//!
//! One pass is `run_campaign` over the automatic campaign built from the
//! API header and the paper's dictionary: 4976 tests, each an arena rewind,
//! four simulated major frames, and an oracle/classify verdict. Nothing is
//! shrunk, and no raw invocation repeats, so the executor's memo and oracle
//! cache never hit: this is the workload that bypasses shrinking and
//! memoization. The seed is ignored: the space is enumerated exhaustively.

use super::{boot_arena, count_advances, count_flight, ratio, rewind, Digest, Workload, BUILD};
use crate::reference::Reference;
use crate::trace::Tracer;
use eagleeye::EagleEye;
use skrt::classify::{classify, CrashClass};
use skrt::exec::{run_campaign, CampaignOptions, CampaignResult, TestRecord};
use skrt::flight::DEFAULT_RING_CAPACITY;
use skrt::mutant::{take_invocations, MutantGuest};
use skrt::observe::TestObservation;
use skrt::oracle::OracleCache;
use skrt::suite::{CampaignSpec, TestCase};
use skrt::testbed::Testbed;

/// Tests in the automatic campaign.
const PINNED_TESTS: usize = 4976;
/// Raised issues (deduplicated failing tests) on the legacy build. The
/// paper's 2662-test campaign raises 9; the full space raises 8.
const PINNED_ISSUES: usize = 8;
/// Digest over every (suite, case, class, cause) and the raised issues.
const PINNED_DIGEST: u64 = 0x9faa_e297_ba6d_03d0;

pub struct Sweep;

pub struct SweepInput {
    spec: CampaignSpec,
    cases: Vec<TestCase>,
}

fn options() -> CampaignOptions {
    CampaignOptions { build: BUILD, threads: 1, ..CampaignOptions::default() }
}

fn digest(records: &[TestRecord]) -> u64 {
    let mut d = Digest::new();
    for r in records {
        d.add(r.case.suite_index)
            .add(r.case.case_index)
            .add(r.classification.class.label())
            .add(format_args!("{:?}", r.classification.cause));
    }
    for issue in skrt::issues::deduplicate(records) {
        d.add(issue.key.hypercall.name())
            .add(issue.key.class.label())
            .add(format_args!("{:?} {:?}", issue.key.cause, issue.key.param))
            .add(issue.tests.len());
    }
    d.finish()
}

impl Workload for Sweep {
    const UNIT: &'static str = "tests";
    type Input = SweepInput;
    type Output = CampaignResult;

    fn setup(_seed: u64) -> SweepInput {
        let api = skrt::apispec::api_header_doc();
        let spec = xm_campaign::automatic_campaign(&api, &xm_campaign::paper_dictionary())
            .expect("the automatic campaign builds from the in-code spec tables");
        let cases = spec.all_cases();
        let snap = EagleEye.snapshot(BUILD).expect("EagleEye guests are cloneable");
        std::hint::black_box(snap.workspace());
        SweepInput { spec, cases }
    }

    fn pass(input: &SweepInput) -> CampaignResult {
        run_campaign(&EagleEye, &input.spec, &options())
    }

    fn units(input: &SweepInput) -> u64 {
        input.cases.len() as u64
    }

    fn digest(out: &CampaignResult) -> u64 {
        digest(&out.records)
    }

    fn check_pins(_seed: u64, out: &CampaignResult) -> Result<(), String> {
        let issues = out.issues().len();
        let d = digest(&out.records);
        if out.records.len() != PINNED_TESTS || issues != PINNED_ISSUES || d != PINNED_DIGEST {
            return Err(format!(
                "sweep: {} tests, {issues} issues, digest {d:#018x}; pinned {PINNED_TESTS} \
                 tests, {PINNED_ISSUES} issues, digest {PINNED_DIGEST:#018x}",
                out.records.len()
            ));
        }
        Ok(())
    }

    fn traced(input: &SweepInput, _untraced: &CampaignResult, tr: &mut Tracer) -> u64 {
        let tb = EagleEye;
        let part = tb.test_partition();
        let ctx = tb.oracle_context(BUILD);
        let (snap, mut ws) = boot_arena(tr, &tb);
        let mut cache = OracleCache::new(&ctx);
        let mut records = Vec::with_capacity(input.cases.len());
        for (i, case) in input.cases.iter().enumerate() {
            tr.set_unit(i as u64);
            let unit = tr.begin("unit");
            let raw = case.raw();
            let expectation = tr.span("oracle.expect", || cache.expect(&raw));
            rewind(tr, &mut ws, &snap, part);
            let (kernel, guests) = ws.parts();
            guests.set(part, Box::new(MutantGuest::new(raw, tb.prologue())));
            // One frame at a time is the loop `step_major_frames(_, 4)` runs.
            let advances = kernel.advance_stats();
            tr.span("xtratum.frame_first", || kernel.step_major_frames(guests, 1));
            for _ in 1..tb.frames_per_test() {
                tr.span("xtratum.frame_steady", || kernel.step_major_frames(guests, 1));
            }
            count_advances(tr, kernel, advances);
            let observation = tr.span("observe.summary", || TestObservation {
                invocations: take_invocations(guests, part),
                summary: kernel.summary(),
            });
            let classification = tr.span("classify", || classify(&observation, &expectation, part));
            let param_signature = ctx.param_signature(&expectation, &case.dataset);
            records.push(TestRecord {
                case: case.clone(),
                observation,
                expectation,
                classification,
                param_signature,
            });
            tr.end(unit);
        }
        digest(&records)
    }

    fn host_reference(_seed: u64) -> Reference {
        Reference::sweep()
    }

    fn facts(input: &SweepInput, out: &CampaignResult, tr: &mut Tracer) {
        let m = &out.metrics;
        tr.count("exec.memo_hit_ratio", ratio(m.memo_hits, m.memo_hits + m.memo_misses));
        tr.count(
            "exec.oracle_cache_hit_ratio",
            ratio(m.oracle_hits, m.oracle_hits + m.oracle_misses),
        );
        let failing =
            out.records.iter().filter(|r| r.classification.class != CrashClass::Pass).count();
        tr.count("divergence_ratio", ratio(failing as u64, out.records.len() as u64));

        // The campaign runs with the recorder off; count its events in a
        // separate recorder-on pass over the same tests.
        let tb = EagleEye;
        let part = tb.test_partition();
        let snap = tb.snapshot(BUILD).expect("EagleEye guests are cloneable");
        let mut ws = snap.workspace();
        flightrec::enable(DEFAULT_RING_CAPACITY);
        for case in &input.cases {
            ws.restore(&snap, Some(part));
            let _ = flightrec::drain();
            let (kernel, guests) = ws.parts();
            guests.set(part, Box::new(MutantGuest::new(case.raw(), tb.prologue())));
            kernel.step_major_frames(guests, tb.frames_per_test());
            count_flight(tr, &flightrec::drain().events);
        }
        flightrec::disable();
    }
}

//! `check`: boot-heavy traffic over the small-scope configuration space.
//!
//! One pass is `run_check` at the default scope: 56 configurations, each
//! booted from scratch (there is no shared snapshot), 372 probe cases run
//! in lockstep with the reference model, every kernel isolation invariant
//! checked against the flight-recorder stream, and every counterexample
//! re-verdicted on a fresh boot and shrunk. It is the bypass for changes
//! to arena rewind and prefix snapshots. The seed is ignored: the space is
//! enumerated exhaustively.

use super::{
    boot_arena, count_advances, count_flight, ratio, rewind, steps_text, Digest, Workload, BUILD,
};
use crate::reference::Reference;
use crate::trace::Tracer;
use leon3_sim::addrspace::AccessCtx;
use skrt::check::{
    check_invariants, enumerate_configs, legacy_rediscovery_targets, part_base, probes_for,
    run_check, CheckCaseRecord, CheckConfig, CheckOptions, CheckProbe, CheckResult, CheckTestbed,
    InvariantKind, InvariantViolation, CALLER, PART_SIZE,
};
use skrt::classify::{Classification, CrashClass};
use skrt::flight::DEFAULT_RING_CAPACITY;
use skrt::oracle::OracleContext;
use skrt::sequence::{run_one_sequence_bounded, MinimalRepro, SequenceVerdict};
use skrt::shrink::shrink_sequence;
use skrt::testbed::Testbed;
use std::collections::BTreeSet;
use xtratum::guest::GuestSet;
use xtratum::hypercall::RawHypercall;
use xtratum::kernel::XmKernel;

const PINNED_CONFIGS: usize = 56;
const PINNED_CASES: usize = 372;
const PINNED_COUNTEREXAMPLES: usize = 160;
/// Configurations in which each known legacy defect is rediscovered.
const PINNED_CONFIGS_PER_DEFECT: usize = 32;
const PINNED_DIGEST: u64 = 0x57ce_0349_4b9d_5e80;

pub struct Check;

pub struct CheckInput {
    configs: Vec<CheckConfig>,
    probes: Vec<Vec<CheckProbe>>,
    opts: CheckOptions,
}

fn digest(configs: usize, cases: &[CheckCaseRecord]) -> u64 {
    let mut d = Digest::new();
    d.add(configs);
    for c in cases {
        let v = &c.verdict;
        d.add(c.index)
            .add(c.config.index)
            .add(c.probe)
            .add(v.classification.class.label())
            .add(format_args!("{:?} {:?}", v.classification.cause, v.failing_step))
            .add(c.steps_executed);
        for viol in &c.violations {
            d.add(viol.kind.label()).add(&viol.detail);
        }
        if let Some(m) = &c.minimal {
            d.add(steps_text(&m.steps))
                .add(format_args!("{:?} {:?}", m.verdict.classification, m.verdict.failing_step))
                .add(m.evals);
        }
    }
    d.finish()
}

/// What makes a case a finding; shrinking preserves it.
#[derive(PartialEq)]
enum FindingSig {
    Oracle(Classification),
    Invariant(Vec<InvariantKind>),
}

fn finding_sig(verdict: &SequenceVerdict, violations: &[InvariantViolation]) -> Option<FindingSig> {
    if verdict.classification.class != CrashClass::Pass {
        return Some(FindingSig::Oracle(verdict.classification));
    }
    if violations.is_empty() {
        return None;
    }
    let kinds: BTreeSet<InvariantKind> = violations.iter().map(|v| v.kind).collect();
    Some(FindingSig::Invariant(kinds.into_iter().collect()))
}

struct CaseRun {
    verdict: SequenceVerdict,
    steps_executed: usize,
    violations: Vec<InvariantViolation>,
}

fn victim_memory(kernel: &XmKernel, cfg: &CheckConfig) -> Vec<Vec<u8>> {
    (1..cfg.n_partitions)
        .map(|p| {
            kernel
                .machine
                .mem
                .read_bytes(AccessCtx::Kernel, part_base(p), PART_SIZE)
                .expect("configured partition memory is kernel-readable")
        })
        .collect()
}

/// One lockstep evaluation with its isolation witnesses and invariants.
/// `main` marks a unit's first evaluation, whose flight is counted.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    tr: &mut Tracer,
    tb: &CheckTestbed,
    ctx: &OracleContext,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    steps: &[RawHypercall],
    horizon: usize,
    main: bool,
) -> CaseRun {
    let cfg = tb.config();
    let before = tr.span("check.witness", || victim_memory(kernel, cfg));
    let _ = flightrec::drain();
    let advances = kernel.advance_stats();
    let eval = tr.span("sequence.eval", || {
        run_one_sequence_bounded(tb, ctx, kernel, guests, steps, 1, horizon)
    });
    let drained = tr.span("flightrec.drain", flightrec::drain);
    if main {
        count_advances(tr, kernel, advances);
        count_flight(tr, &drained.events);
    }
    let (after, ports) = tr.span("check.witness", || {
        let ports: Vec<usize> = (1..cfg.n_partitions).map(|p| kernel.port_count(p)).collect();
        (victim_memory(kernel, cfg), ports)
    });
    let violations = tr.span("check.invariants", || {
        check_invariants(cfg, &drained.events, &before, &after, &ports)
    });
    CaseRun { verdict: eval.verdict, steps_executed: eval.steps_executed, violations }
}

impl Workload for Check {
    const UNIT: &'static str = "cases";
    type Input = CheckInput;
    type Output = CheckResult;

    fn setup(_seed: u64) -> CheckInput {
        let opts = CheckOptions { build: BUILD, threads: 1, ..CheckOptions::default() };
        let configs = enumerate_configs(&opts.scope);
        let probes: Vec<Vec<CheckProbe>> = configs.iter().map(probes_for).collect();
        for cfg in &configs {
            let snap =
                CheckTestbed::new(cfg.clone()).snapshot(BUILD).expect("check guests are cloneable");
            std::hint::black_box(snap.workspace());
        }
        CheckInput { configs, probes, opts }
    }

    fn pass(input: &CheckInput) -> CheckResult {
        run_check(&input.opts)
    }

    fn units(input: &CheckInput) -> u64 {
        input.probes.iter().map(|p| p.len() as u64).sum()
    }

    fn digest(out: &CheckResult) -> u64 {
        digest(out.configs, &out.cases)
    }

    fn check_pins(_seed: u64, out: &CheckResult) -> Result<(), String> {
        let findings = out.findings();
        let per_defect: Vec<usize> = legacy_rediscovery_targets()
            .iter()
            .map(|(_, matches)| {
                let configs: BTreeSet<usize> =
                    findings.iter().filter(|c| matches(c)).map(|c| c.config.index).collect();
                configs.len()
            })
            .collect();
        let d = Self::digest(out);
        if out.configs != PINNED_CONFIGS
            || out.cases.len() != PINNED_CASES
            || findings.len() != PINNED_COUNTEREXAMPLES
            || per_defect.iter().any(|&n| n != PINNED_CONFIGS_PER_DEFECT)
            || d != PINNED_DIGEST
        {
            return Err(format!(
                "check: {} configs, {} cases, {} counterexamples, configs per defect \
                 {per_defect:?}, digest {d:#018x}; pinned {PINNED_CONFIGS}, {PINNED_CASES}, \
                 {PINNED_COUNTEREXAMPLES}, {PINNED_CONFIGS_PER_DEFECT} each, \
                 {PINNED_DIGEST:#018x}",
                out.configs,
                out.cases.len(),
                findings.len()
            ));
        }
        Ok(())
    }

    fn traced(input: &CheckInput, _untraced: &CheckResult, tr: &mut Tracer) -> u64 {
        let opts = &input.opts;
        let horizon = opts.scope.horizon as usize;
        let mut cases = Vec::new();
        flightrec::enable(DEFAULT_RING_CAPACITY);
        for (cfg, probes) in input.configs.iter().zip(&input.probes) {
            let tb = CheckTestbed::new(cfg.clone());
            let ctx = tb.oracle_context(BUILD);
            let (snap, mut ws) = boot_arena(tr, &tb);
            let _ = flightrec::drain();
            for probe in probes {
                let index = cases.len();
                tr.set_unit(index as u64);
                let unit = tr.begin("unit");
                rewind(tr, &mut ws, &snap, CALLER);
                let (kernel, guests) = ws.parts();
                let main = evaluate(tr, &tb, &ctx, kernel, guests, &probe.steps, horizon, true);
                let record = |run: CaseRun, minimal: Option<MinimalRepro>| CheckCaseRecord {
                    index,
                    config: cfg.clone(),
                    probe: probe.name,
                    steps: probe.steps.clone(),
                    verdict: run.verdict,
                    steps_executed: run.steps_executed,
                    violations: run.violations,
                    minimal,
                };
                if finding_sig(&main.verdict, &main.violations).is_none() {
                    cases.push(record(main, None));
                    tr.end(unit);
                    continue;
                }
                // Authoritative re-verdict on a fresh boot.
                let (mut fk, mut fg) = tr.span("testbed.boot", || tb.boot(BUILD));
                let fresh = evaluate(tr, &tb, &ctx, &mut fk, &mut fg, &probe.steps, horizon, false);
                let Some(sig) = finding_sig(&fresh.verdict, &fresh.violations) else {
                    cases.push(record(fresh, None));
                    tr.end(unit);
                    continue;
                };
                let minimal = (probe.steps.len() > 1).then(|| {
                    let s = tr.begin("shrink");
                    let out = shrink_sequence(
                        &probe.steps,
                        |cand| {
                            if cand.is_empty() {
                                return false;
                            }
                            rewind(tr, &mut ws, &snap, CALLER);
                            let (kernel, guests) = ws.parts();
                            match &sig {
                                FindingSig::Oracle(target) => {
                                    let _ = flightrec::drain();
                                    let eval = tr.span("shrink.eval", || {
                                        run_one_sequence_bounded(
                                            &tb, &ctx, kernel, guests, cand, 1, horizon,
                                        )
                                    });
                                    let _ = flightrec::drain();
                                    eval.verdict.classification == *target
                                }
                                FindingSig::Invariant(_) => {
                                    let run = evaluate(
                                        tr, &tb, &ctx, kernel, guests, cand, horizon, false,
                                    );
                                    finding_sig(&run.verdict, &run.violations).as_ref()
                                        == Some(&sig)
                                }
                            }
                        },
                        opts.shrink_budget,
                    );
                    tr.end(s);
                    tr.count("shrink.evals", out.evals as f64);
                    rewind(tr, &mut ws, &snap, CALLER);
                    let (kernel, guests) = ws.parts();
                    let _ = flightrec::drain();
                    let meval = tr.span("sequence.refine", || {
                        run_one_sequence_bounded(&tb, &ctx, kernel, guests, &out.steps, 1, horizon)
                    });
                    let _ = flightrec::drain();
                    MinimalRepro {
                        steps: out.steps,
                        verdict: meval.verdict,
                        evals: out.evals,
                        removed_steps: out.removed_steps,
                        shrunk_args: out.shrunk_args,
                    }
                });
                cases.push(record(fresh, minimal));
                tr.end(unit);
            }
        }
        flightrec::disable();
        digest(input.configs.len(), &cases)
    }

    fn host_reference(_seed: u64) -> Reference {
        Reference::check()
    }

    fn facts(_input: &CheckInput, out: &CheckResult, tr: &mut Tracer) {
        let findings = out.findings().len();
        tr.count("exec.memo_hit_ratio", 0.0);
        tr.count("exec.oracle_cache_hit_ratio", 0.0);
        tr.count("divergence_ratio", ratio(findings as u64, out.cases.len() as u64));
        tr.count("check.counterexamples", findings as f64);
    }
}

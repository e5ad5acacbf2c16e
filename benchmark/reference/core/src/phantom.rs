//! Phantom parameters (paper Section V).
//!
//! "This exercise did not consider test cases for hypercalls with no
//! parameters. ... The Ballista project proposes the use of phantom
//! parameters: a dummy module that sets the appropriate system state with
//! a phantom parameter before calling the module under test."
//!
//! A [`PhantomParam`] is exactly that state-setting step. The phantom
//! library below drives the kernel into distinct states (timer armed,
//! IPC traffic queued, HM log populated, interrupts masked, heavy CPU
//! load) before each invocation of a parameter-less hypercall, extending
//! the fault model to the 10 hypercalls Table III leaves untested.

use crate::classify::{classify_terminal_only, Classification};
use crate::mutant::MutantGuest;
use crate::observe::TestObservation;
use crate::oracle::OracleContext;
use crate::testbed::Testbed;
use xtratum::guest::PartitionApi;
use xtratum::hypercall::{HypercallId, RawHypercall, ALL_HYPERCALLS};
use xtratum::vuln::KernelBuild;

/// A named system-state setter executed before the call under test.
#[derive(Debug, Clone, Copy)]
pub struct PhantomParam {
    /// Phantom value name (reported as if it were a parameter value).
    pub name: &'static str,
    /// The state-setting action.
    pub setup: fn(&mut PartitionApi<'_>),
}

fn ph_nominal(_api: &mut PartitionApi<'_>) {}

fn ph_timer_armed(api: &mut PartitionApi<'_>) {
    let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::SetTimer, vec![0, 1, 1000]));
}

fn ph_hm_pressure(api: &mut PartitionApi<'_>) {
    for code in 0..8u64 {
        let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::HmRaiseEvent, vec![code]));
    }
}

fn ph_irqs_masked(api: &mut PartitionApi<'_>) {
    let _ = api.hypercall(&RawHypercall::new_unchecked(
        HypercallId::SetIrqMask,
        vec![0xFFFE, 0xFFFF_FFFF],
    ));
}

fn ph_cpu_load(api: &mut PartitionApi<'_>) {
    // Burn most of the remaining slot before the call.
    let burn = api.remaining_us().saturating_sub(1_000);
    api.consume(burn);
}

/// The standard phantom library: five distinct pre-call system states.
pub fn phantom_library() -> Vec<PhantomParam> {
    vec![
        PhantomParam { name: "NOMINAL", setup: ph_nominal },
        PhantomParam { name: "TIMER_ARMED", setup: ph_timer_armed },
        PhantomParam { name: "HM_PRESSURE", setup: ph_hm_pressure },
        PhantomParam { name: "IRQS_MASKED", setup: ph_irqs_masked },
        PhantomParam { name: "CPU_LOAD", setup: ph_cpu_load },
    ]
}

/// The parameter-less hypercalls the phantom extension targets.
pub fn parameterless_hypercalls() -> Vec<HypercallId> {
    ALL_HYPERCALLS.iter().filter(|d| d.params.is_empty()).map(|d| d.id).collect()
}

/// Result of one phantom test.
#[derive(Debug, Clone)]
pub struct PhantomRecord {
    /// Hypercall under test.
    pub hypercall: HypercallId,
    /// Phantom value applied.
    pub phantom: &'static str,
    /// Observation.
    pub observation: TestObservation,
    /// HM-only classification (the oracle's state model does not hold
    /// under phantom-perturbed state, so only terminal rules apply).
    pub classification: Classification,
}

/// Runs one parameter-less hypercall under one phantom state.
pub fn run_phantom_test<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    build: KernelBuild,
    hypercall: HypercallId,
    phantom: &PhantomParam,
) -> PhantomRecord {
    let (mut kernel, mut guests) = testbed.boot(build);
    let raw = RawHypercall::new_unchecked(hypercall, []);
    let mutant = MutantGuest::new(raw, testbed.prologue()).with_pre_call(phantom.setup);
    guests.set(testbed.test_partition(), Box::new(mutant));
    kernel.step_major_frames(&mut guests, testbed.frames_per_test());
    let invocations = crate::mutant::take_invocations(&mut guests, testbed.test_partition());
    let observation = TestObservation { invocations, summary: kernel.into_summary() };
    let expectation = ctx.expect(&raw);
    let classification =
        classify_terminal_only(&observation, &expectation, testbed.test_partition());
    PhantomRecord { hypercall, phantom: phantom.name, observation, classification }
}

/// Runs the full phantom campaign: every parameter-less hypercall under
/// every phantom state.
pub fn run_phantom_campaign<T: Testbed + ?Sized>(
    testbed: &T,
    build: KernelBuild,
) -> Vec<PhantomRecord> {
    let ctx = testbed.oracle_context(build);
    let mut out = Vec::new();
    for hc in parameterless_hypercalls() {
        for ph in phantom_library() {
            out.push(run_phantom_test(testbed, &ctx, build, hc, &ph));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_distinct_names() {
        let lib = phantom_library();
        assert_eq!(lib.len(), 5);
        let mut names: Vec<_> = lib.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn ten_parameterless_targets() {
        let targets = parameterless_hypercalls();
        assert_eq!(targets.len(), 10);
        assert!(targets.contains(&HypercallId::HaltSystem));
        assert!(targets.contains(&HypercallId::IdleSelf));
    }
}

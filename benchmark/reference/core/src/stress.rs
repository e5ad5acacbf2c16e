//! State-based stress conditions (paper Section V).
//!
//! "Multiple references mention that robustness results are different
//! when the system under test is subjected to different states and
//! different stress conditions. Phantom parameters could be used in this
//! case to set the separation kernel into a particular stressful state
//! before invoking the test calls."
//!
//! A [`StressScenario`] perturbs kernel state before every test
//! invocation; [`run_stressed_case`] re-executes an ordinary test case
//! under a scenario, classifying with the terminal (HM-only) rules —
//! under stressed state the oracle's return-code model no longer applies,
//! which is exactly the limitation the paper discusses.

use crate::classify::{classify_terminal_only, Classification};
use crate::mutant::MutantGuest;
use crate::observe::TestObservation;
use crate::oracle::OracleContext;
use crate::suite::TestCase;
use crate::testbed::Testbed;
use xtratum::guest::PartitionApi;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::vuln::KernelBuild;

/// Stress scenarios applied before each invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StressScenario {
    /// No perturbation (baseline).
    Nominal,
    /// Saturate the caller's outbound IPC channels.
    IpcSaturation,
    /// Fill the HM log with application events.
    HmLogPressure,
    /// Keep a fast (but legal) periodic timer armed.
    TimerLoad,
    /// Burn almost the whole slot before the call.
    CpuStarvation,
}

impl StressScenario {
    /// All scenarios.
    pub const ALL: [StressScenario; 5] = [
        StressScenario::Nominal,
        StressScenario::IpcSaturation,
        StressScenario::HmLogPressure,
        StressScenario::TimerLoad,
        StressScenario::CpuStarvation,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            StressScenario::Nominal => "nominal",
            StressScenario::IpcSaturation => "ipc-saturation",
            StressScenario::HmLogPressure => "hm-log-pressure",
            StressScenario::TimerLoad => "timer-load",
            StressScenario::CpuStarvation => "cpu-starvation",
        }
    }

    /// The pre-call state setter for this scenario.
    pub fn setup(self) -> fn(&mut PartitionApi<'_>) {
        match self {
            StressScenario::Nominal => st_nominal,
            StressScenario::IpcSaturation => st_ipc,
            StressScenario::HmLogPressure => st_hm,
            StressScenario::TimerLoad => st_timer,
            StressScenario::CpuStarvation => st_cpu,
        }
    }
}

fn st_nominal(_api: &mut PartitionApi<'_>) {}

fn st_ipc(api: &mut PartitionApi<'_>) {
    // Hammer descriptor space: flush everything, then re-send on every
    // plausible outbound descriptor until the queues push back.
    for desc in 0..4i64 {
        for _ in 0..8 {
            let _ = api.hypercall(&RawHypercall::new_unchecked(
                HypercallId::SendQueuingMessage,
                vec![desc as u64, 0, 8],
            ));
        }
    }
}

fn st_hm(api: &mut PartitionApi<'_>) {
    for code in 0..32u64 {
        let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::HmRaiseEvent, vec![code]));
    }
}

fn st_timer(api: &mut PartitionApi<'_>) {
    let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::SetTimer, vec![0, 1, 200]));
}

fn st_cpu(api: &mut PartitionApi<'_>) {
    let burn = api.remaining_us().saturating_sub(2_000);
    api.consume(burn);
}

/// One stressed execution.
#[derive(Debug, Clone)]
pub struct StressRecord {
    /// The scenario applied.
    pub scenario: StressScenario,
    /// The test case.
    pub case: TestCase,
    /// What was observed.
    pub observation: TestObservation,
    /// HM-only classification.
    pub classification: Classification,
}

/// Re-executes one test case under a stress scenario.
pub fn run_stressed_case<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    build: KernelBuild,
    case: &TestCase,
    scenario: StressScenario,
) -> StressRecord {
    let (mut kernel, mut guests) = testbed.boot(build);
    let mutant = MutantGuest::new(case.raw(), testbed.prologue()).with_pre_call(scenario.setup());
    guests.set(testbed.test_partition(), Box::new(mutant));
    kernel.step_major_frames(&mut guests, testbed.frames_per_test());
    let invocations = crate::mutant::take_invocations(&mut guests, testbed.test_partition());
    let observation = TestObservation { invocations, summary: kernel.into_summary() };
    let expectation = ctx.expect(&case.raw());
    let classification =
        classify_terminal_only(&observation, &expectation, testbed.test_partition());
    StressRecord { scenario, case: case.clone(), observation, classification }
}

/// Runs a set of cases under every scenario, returning all records.
pub fn run_stress_sweep<T: Testbed + ?Sized>(
    testbed: &T,
    build: KernelBuild,
    cases: &[TestCase],
) -> Vec<StressRecord> {
    let ctx = testbed.oracle_context(build);
    let mut out = Vec::new();
    for scenario in StressScenario::ALL {
        for case in cases {
            out.push(run_stressed_case(testbed, &ctx, build, case, scenario));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_labels_distinct() {
        let mut labels: Vec<_> = StressScenario::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}

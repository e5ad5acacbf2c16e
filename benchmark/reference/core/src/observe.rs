//! Per-test observations (paper Section III.C: what gets logged).
//!
//! "During each test execution, the following are monitored and logged:
//! return codes, exception handlers, partition and separation kernel
//! statuses, operations undertaken by the fault monitoring and handling
//! mechanism."

use xtratum::kernel::NoReturnKind;
use xtratum::observe::RunSummary;

/// Outcome of one invocation of the test hypercall (the test call is
/// invoked at least once per major frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invocation {
    /// The hypercall returned this code.
    Returned(i32),
    /// The hypercall did not return to the caller.
    NoReturn(NoReturnKind),
}

/// Everything observed while executing one test case.
#[derive(Debug, Clone)]
pub struct TestObservation {
    /// Outcome of each invocation, in order.
    pub invocations: Vec<Invocation>,
    /// Kernel/machine observation summary for the whole run.
    pub summary: RunSummary,
}

impl TestObservation {
    /// The first invocation's outcome (the one the oracle predicts), if
    /// the test call executed at all.
    pub fn first(&self) -> Option<Invocation> {
        self.invocations.first().copied()
    }

    /// All returned codes.
    pub fn returned_codes(&self) -> impl Iterator<Item = i32> + '_ {
        self.invocations.iter().filter_map(|i| match i {
            Invocation::Returned(c) => Some(*c),
            _ => None,
        })
    }

    /// True if the test hypercall never executed (e.g. the partition was
    /// dead before its first slot) — a "test fails to return" situation.
    pub fn never_ran(&self) -> bool {
        self.invocations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leon3_sim::machine::SimHealth;

    fn summary() -> RunSummary {
        RunSummary {
            frames_completed: 4,
            kernel_halt_reason: None,
            sim_health: SimHealth::Running,
            hm_log: vec![],
            ops_log: vec![],
            partition_final: vec![],
            console: String::new(),
            cold_resets: 0,
            warm_resets: 0,
        }
    }

    #[test]
    fn accessors() {
        let obs = TestObservation {
            invocations: vec![
                Invocation::Returned(0),
                Invocation::Returned(-3),
                Invocation::NoReturn(NoReturnKind::CallerHalted),
            ],
            summary: summary(),
        };
        assert_eq!(obs.first(), Some(Invocation::Returned(0)));
        assert_eq!(obs.returned_codes().collect::<Vec<_>>(), vec![0, -3]);
        assert!(!obs.never_ran());
    }

    #[test]
    fn never_ran_detection() {
        let obs = TestObservation { invocations: vec![], summary: summary() };
        assert!(obs.never_ran());
        assert_eq!(obs.first(), None);
    }
}

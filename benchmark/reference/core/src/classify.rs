//! CRASH-scale classification (paper Section III.C).
//!
//! "The Ballista project categorizes test results according to the CRASH
//! (Catastrophic, Restart, Abort, Silent, Hindering) severity scale."
//!
//! Observed behaviour is compared against the oracle's [`Expectation`].
//! The terminal rules (simulator death, kernel halt, unexpected system
//! reset, HM containment on the test partition) fire regardless of return
//! codes — those are the failures the kernel health monitor flags. The
//! return-code comparison at the end is the "manual cross-check" the
//! paper defers to future work (our oracle automates it), producing the
//! Silent and Hindering classes.

use crate::observe::{Invocation, TestObservation};
use crate::oracle::{Expectation, ExpectedOutcome, NoReturnExpect};
use leon3_sim::machine::SimHealth;
use xtratum::hm::HmEventKind;
use xtratum::kernel::NoReturnKind;
use xtratum::observe::{OpsEvent, ResetKind};
use xtratum::retcode::XmRet;

/// The CRASH severity scale, plus `Pass` for robust outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CrashClass {
    /// The test behaved as documented.
    Pass,
    /// "A test should never crash the system" — kernel state corruption,
    /// system-level reset/halt, or simulator death.
    Catastrophic,
    /// "A test should never hang" — the testing task stopped responding
    /// or required a restart to recover.
    Restart,
    /// "A test should never crash the testing task" — irregular task
    /// termination.
    Abort,
    /// "A test should always report exceptional situations" — a
    /// reportable error was not indicated.
    Silent,
    /// "A test should never report incorrect error codes".
    Hindering,
}

impl CrashClass {
    /// Every class, in scale order.
    pub const ALL: [CrashClass; 6] = [
        CrashClass::Pass,
        CrashClass::Catastrophic,
        CrashClass::Restart,
        CrashClass::Abort,
        CrashClass::Silent,
        CrashClass::Hindering,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            CrashClass::Pass => "Pass",
            CrashClass::Catastrophic => "Catastrophic",
            CrashClass::Restart => "Restart",
            CrashClass::Abort => "Abort",
            CrashClass::Silent => "Silent",
            CrashClass::Hindering => "Hindering",
        }
    }

    /// Position in [`CrashClass::ALL`] (used for dense per-class
    /// counters).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Root-cause tag attached to a classification (drives issue grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cause {
    /// Robust behaviour.
    None,
    /// The simulator itself died (the TSIM crash).
    SimulatorCrash,
    /// The separation kernel halted unexpectedly (e.g. kernel stack
    /// overflow in the timer handler).
    KernelHalt,
    /// An undocumented whole-system reset was performed.
    UnexpectedSystemReset(ResetKind),
    /// The kernel trapped while servicing the call and the HM had to
    /// contain the testing partition.
    UnhandledServiceException,
    /// The call broke temporal isolation (slot overrun).
    TemporalOverrun,
    /// The testing task stopped responding (unexpected suspension, idle,
    /// or it never ran).
    PartitionHang,
    /// A success code was reported where the manual requires an error.
    WrongSuccess,
    /// A wrong (or missing) error code was reported.
    WrongErrorCode,
}

/// A classified test outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// CRASH class.
    pub class: CrashClass,
    /// Root cause tag.
    pub cause: Cause,
}

impl Classification {
    fn pass() -> Self {
        Classification { class: CrashClass::Pass, cause: Cause::None }
    }
}

/// Classifies one observation against its expectation.
pub fn classify(obs: &TestObservation, exp: &Expectation, test_partition: u32) -> Classification {
    classify_inner(obs, exp, test_partition, true)
}

/// HM-only classification: applies the terminal rules (simulator death,
/// kernel halt, unexpected reset, HM containment, hang) but skips the
/// return-code cross-check. This is the paper's baseline pipeline —
/// Silent and Hindering failures are invisible to it — and the right mode
/// for stressed/phantom runs where the oracle's first-invocation state
/// model does not hold.
pub fn classify_terminal_only(
    obs: &TestObservation,
    exp: &Expectation,
    test_partition: u32,
) -> Classification {
    classify_inner(obs, exp, test_partition, false)
}

fn classify_inner(
    obs: &TestObservation,
    exp: &Expectation,
    test_partition: u32,
    check_return_codes: bool,
) -> Classification {
    let s = &obs.summary;

    // 1. Simulator death is always catastrophic.
    if matches!(s.sim_health, SimHealth::Crashed { .. }) {
        return Classification { class: CrashClass::Catastrophic, cause: Cause::SimulatorCrash };
    }

    // 2. Kernel halt: only XM_halt_system may do this by design.
    if s.kernel_halt_reason.is_some() {
        if exp.outcome == ExpectedOutcome::NoReturn(NoReturnExpect::SystemHalt) {
            return Classification::pass();
        }
        return Classification { class: CrashClass::Catastrophic, cause: Cause::KernelHalt };
    }

    // 3. System resets must match the documented reset outcome.
    if s.cold_resets + s.warm_resets > 0 {
        let performed = s
            .ops_log
            .iter()
            .find_map(|r| match &r.event {
                OpsEvent::SystemReset { performed, .. } => Some(*performed),
                _ => None,
            })
            .unwrap_or(if s.cold_resets > 0 { ResetKind::Cold } else { ResetKind::Warm });
        let expected_kind = match exp.outcome {
            ExpectedOutcome::NoReturn(NoReturnExpect::SystemColdReset) => Some(ResetKind::Cold),
            ExpectedOutcome::NoReturn(NoReturnExpect::SystemWarmReset) => Some(ResetKind::Warm),
            _ => None,
        };
        if expected_kind == Some(performed) {
            return Classification::pass();
        }
        return Classification {
            class: CrashClass::Catastrophic,
            cause: Cause::UnexpectedSystemReset(performed),
        };
    }

    // 4. HM containment of the testing partition: a trap during the call
    //    is an abort of the testing task.
    let hm_trap = s.hm_log.iter().any(|e| {
        e.partition == Some(test_partition)
            && matches!(e.kind, HmEventKind::PartitionTrap { .. } | HmEventKind::KernelTrap { .. })
    });
    if hm_trap {
        return Classification {
            class: CrashClass::Abort,
            cause: Cause::UnhandledServiceException,
        };
    }

    // 5. Temporal isolation violations require restarting the partition.
    let overrun = s.hm_log.iter().any(|e| {
        e.partition == Some(test_partition) && matches!(e.kind, HmEventKind::SchedOverrun { .. })
    });
    if overrun {
        return Classification { class: CrashClass::Restart, cause: Cause::TemporalOverrun };
    }

    // 6. The test never executed at all.
    let Some(first) = obs.first() else {
        return Classification { class: CrashClass::Restart, cause: Cause::PartitionHang };
    };

    // 7. Return-code comparison (the oracle cross-check).
    if !check_return_codes {
        // Unexpected no-return outcomes still matter in HM-only mode
        // (they are visible in partition statuses), but code mismatches
        // are not.
        if let Invocation::NoReturn(kind) = first {
            let expected_no_return = matches!(exp.outcome, ExpectedOutcome::NoReturn(_));
            if !expected_no_return {
                return match kind {
                    NoReturnKind::CallerHalted | NoReturnKind::Fault => Classification {
                        class: CrashClass::Abort,
                        cause: Cause::UnhandledServiceException,
                    },
                    _ => Classification { class: CrashClass::Restart, cause: Cause::PartitionHang },
                };
            }
        }
        return Classification::pass();
    }
    match first {
        Invocation::NoReturn(kind) => {
            let matches_expected = matches!(
                (&exp.outcome, kind),
                (
                    ExpectedOutcome::NoReturn(NoReturnExpect::CallerHalted),
                    NoReturnKind::CallerHalted
                ) | (
                    ExpectedOutcome::NoReturn(NoReturnExpect::CallerSuspended),
                    NoReturnKind::CallerSuspended
                ) | (
                    ExpectedOutcome::NoReturn(NoReturnExpect::CallerIdled),
                    NoReturnKind::CallerIdled
                ) | (
                    ExpectedOutcome::NoReturn(NoReturnExpect::CallerReset),
                    NoReturnKind::CallerReset
                ) | (
                    ExpectedOutcome::NoReturn(NoReturnExpect::CallerShutdown),
                    NoReturnKind::CallerShutdown
                )
            );
            if matches_expected {
                Classification::pass()
            } else {
                match kind {
                    NoReturnKind::CallerHalted | NoReturnKind::Fault => Classification {
                        class: CrashClass::Abort,
                        cause: Cause::UnhandledServiceException,
                    },
                    _ => Classification { class: CrashClass::Restart, cause: Cause::PartitionHang },
                }
            }
        }
        Invocation::Returned(code) => match exp.outcome {
            ExpectedOutcome::Ret(expected) => {
                if code == expected.code() {
                    Classification::pass()
                } else if expected != XmRet::Ok && code >= 0 {
                    Classification { class: CrashClass::Silent, cause: Cause::WrongSuccess }
                } else {
                    Classification { class: CrashClass::Hindering, cause: Cause::WrongErrorCode }
                }
            }
            ExpectedOutcome::RetValue(v) => {
                if code == v {
                    Classification::pass()
                } else {
                    Classification { class: CrashClass::Hindering, cause: Cause::WrongErrorCode }
                }
            }
            ExpectedOutcome::RetNonNegative => {
                if code >= 0 {
                    Classification::pass()
                } else {
                    Classification { class: CrashClass::Hindering, cause: Cause::WrongErrorCode }
                }
            }
            ExpectedOutcome::NoReturn(_) => {
                // The operation should have taken effect (and not
                // returned) but did return.
                Classification { class: CrashClass::Hindering, cause: Cause::WrongErrorCode }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtratum::hm::{HmAction, HmLogEntry};
    use xtratum::observe::{OpsRecord, RunSummary};

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

    fn obs(invocations: Vec<Invocation>, summary: RunSummary) -> TestObservation {
        TestObservation { invocations, summary }
    }

    fn exp_ret(code: XmRet) -> Expectation {
        Expectation { outcome: ExpectedOutcome::Ret(code), violated_param: None }
    }

    #[test]
    fn matching_return_passes() {
        let o = obs(vec![Invocation::Returned(0)], summary());
        let c = classify(&o, &exp_ret(XmRet::Ok), 0);
        assert_eq!(c.class, CrashClass::Pass);
    }

    #[test]
    fn silent_when_success_replaces_error() {
        // The negative-interval finding: expected XM_INVALID_PARAM, got OK.
        let o = obs(vec![Invocation::Returned(0)], summary());
        let c = classify(&o, &exp_ret(XmRet::InvalidParam), 0);
        assert_eq!(c.class, CrashClass::Silent);
        assert_eq!(c.cause, Cause::WrongSuccess);
    }

    #[test]
    fn hindering_when_wrong_error_code() {
        let o = obs(vec![Invocation::Returned(XmRet::PermError.code())], summary());
        let c = classify(&o, &exp_ret(XmRet::InvalidParam), 0);
        assert_eq!(c.class, CrashClass::Hindering);
        // ... and an error when success was documented is also hindering.
        let o2 = obs(vec![Invocation::Returned(-3)], summary());
        assert_eq!(classify(&o2, &exp_ret(XmRet::Ok), 0).class, CrashClass::Hindering);
    }

    #[test]
    fn simulator_crash_is_catastrophic() {
        let mut s = summary();
        s.sim_health = SimHealth::Crashed { reason: "timer trap storm".into(), at: 1 };
        let o = obs(vec![Invocation::Returned(0)], s);
        let c = classify(&o, &exp_ret(XmRet::Ok), 0);
        assert_eq!(c.class, CrashClass::Catastrophic);
        assert_eq!(c.cause, Cause::SimulatorCrash);
    }

    #[test]
    fn kernel_halt_is_catastrophic_unless_commanded() {
        let mut s = summary();
        s.kernel_halt_reason = Some("HM fatal".into());
        let o = obs(vec![Invocation::Returned(0)], s.clone());
        assert_eq!(classify(&o, &exp_ret(XmRet::Ok), 0).cause, Cause::KernelHalt);
        // XM_halt_system is documented to halt.
        let e = Expectation {
            outcome: ExpectedOutcome::NoReturn(NoReturnExpect::SystemHalt),
            violated_param: None,
        };
        let o2 = obs(vec![Invocation::NoReturn(NoReturnKind::SystemHalt)], s);
        assert_eq!(classify(&o2, &e, 0).class, CrashClass::Pass);
    }

    #[test]
    fn unexpected_reset_is_catastrophic_with_kind() {
        let mut s = summary();
        s.cold_resets = 1;
        s.ops_log.push(OpsRecord {
            time: 5,
            event: OpsEvent::SystemReset { requested_mode: 2, performed: ResetKind::Cold, by: 0 },
        });
        let o = obs(vec![Invocation::NoReturn(NoReturnKind::SystemColdReset)], s);
        let c = classify(&o, &exp_ret(XmRet::InvalidParam), 0);
        assert_eq!(c.class, CrashClass::Catastrophic);
        assert_eq!(c.cause, Cause::UnexpectedSystemReset(ResetKind::Cold));
    }

    #[test]
    fn expected_reset_passes() {
        let mut s = summary();
        s.warm_resets = 1;
        s.ops_log.push(OpsRecord {
            time: 5,
            event: OpsEvent::SystemReset { requested_mode: 1, performed: ResetKind::Warm, by: 0 },
        });
        let e = Expectation {
            outcome: ExpectedOutcome::NoReturn(NoReturnExpect::SystemWarmReset),
            violated_param: None,
        };
        let o = obs(vec![Invocation::NoReturn(NoReturnKind::SystemWarmReset)], s);
        assert_eq!(classify(&o, &e, 0).class, CrashClass::Pass);
    }

    #[test]
    fn hm_trap_on_test_partition_is_abort() {
        let mut s = summary();
        s.hm_log.push(HmLogEntry {
            time: 1,
            kind: HmEventKind::PartitionTrap { tt: 9, addr: Some(0) },
            partition: Some(0),
            action: HmAction::HaltPartition,
        });
        let o = obs(vec![Invocation::NoReturn(NoReturnKind::CallerHalted)], s);
        let c = classify(&o, &exp_ret(XmRet::InvalidParam), 0);
        assert_eq!(c.class, CrashClass::Abort);
        assert_eq!(c.cause, Cause::UnhandledServiceException);
    }

    #[test]
    fn traps_on_other_partitions_do_not_flag_the_test() {
        let mut s = summary();
        s.hm_log.push(HmLogEntry {
            time: 1,
            kind: HmEventKind::PartitionTrap { tt: 9, addr: Some(0) },
            partition: Some(3),
            action: HmAction::HaltPartition,
        });
        let o = obs(vec![Invocation::Returned(0)], s);
        assert_eq!(classify(&o, &exp_ret(XmRet::Ok), 0).class, CrashClass::Pass);
    }

    #[test]
    fn overrun_is_restart() {
        let mut s = summary();
        s.hm_log.push(HmLogEntry {
            time: 1,
            kind: HmEventKind::SchedOverrun { overrun_us: 31_925 },
            partition: Some(0),
            action: HmAction::ResetPartitionWarm,
        });
        let o = obs(vec![Invocation::Returned(0)], s);
        let c = classify(&o, &exp_ret(XmRet::Ok), 0);
        assert_eq!(c.class, CrashClass::Restart);
        assert_eq!(c.cause, Cause::TemporalOverrun);
    }

    #[test]
    fn never_ran_is_restart_hang() {
        let o = obs(vec![], summary());
        let c = classify(&o, &exp_ret(XmRet::Ok), 0);
        assert_eq!(c.class, CrashClass::Restart);
        assert_eq!(c.cause, Cause::PartitionHang);
    }

    #[test]
    fn expected_self_operations_pass() {
        for (nr, kind) in [
            (NoReturnExpect::CallerHalted, NoReturnKind::CallerHalted),
            (NoReturnExpect::CallerSuspended, NoReturnKind::CallerSuspended),
            (NoReturnExpect::CallerIdled, NoReturnKind::CallerIdled),
            (NoReturnExpect::CallerReset, NoReturnKind::CallerReset),
            (NoReturnExpect::CallerShutdown, NoReturnKind::CallerShutdown),
        ] {
            let e = Expectation { outcome: ExpectedOutcome::NoReturn(nr), violated_param: None };
            let o = obs(vec![Invocation::NoReturn(kind)], summary());
            assert_eq!(classify(&o, &e, 0).class, CrashClass::Pass, "{nr:?}");
        }
    }

    #[test]
    fn unexpected_suspension_is_restart() {
        let o = obs(vec![Invocation::NoReturn(NoReturnKind::CallerSuspended)], summary());
        let c = classify(&o, &exp_ret(XmRet::Ok), 0);
        assert_eq!(c.class, CrashClass::Restart);
        assert_eq!(c.cause, Cause::PartitionHang);
    }

    #[test]
    fn ret_value_and_nonnegative() {
        let e = Expectation { outcome: ExpectedOutcome::RetValue(3), violated_param: None };
        assert_eq!(
            classify(&obs(vec![Invocation::Returned(3)], summary()), &e, 0).class,
            CrashClass::Pass
        );
        assert_eq!(
            classify(&obs(vec![Invocation::Returned(2)], summary()), &e, 0).class,
            CrashClass::Hindering
        );
        let e2 = Expectation { outcome: ExpectedOutcome::RetNonNegative, violated_param: None };
        assert_eq!(
            classify(&obs(vec![Invocation::Returned(9)], summary()), &e2, 0).class,
            CrashClass::Pass
        );
        assert_eq!(
            classify(&obs(vec![Invocation::Returned(-3)], summary()), &e2, 0).class,
            CrashClass::Hindering
        );
    }

    #[test]
    fn labels() {
        assert_eq!(CrashClass::Catastrophic.label(), "Catastrophic");
        assert_eq!(CrashClass::Pass.label(), "Pass");
    }
}

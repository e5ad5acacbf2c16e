//! Issue deduplication: turning failing tests into *raised issues*.
//!
//! Table III counts "Raised Issues" per category: distinct robustness
//! vulnerabilities, not failing test cases ("some of which share common
//! robustness vulnerabilities"). Two failing tests belong to the same
//! issue when they exercise the same missing check: same hypercall, same
//! root cause, and the same responsible-parameter signature (from the
//! masking analysis — all invalid pointers at one position collapse into
//! one class, scalar values stay distinct).

use crate::classify::{Cause, CrashClass};
use crate::exec::TestRecord;
use crate::oracle::ParamClass;
use xtratum::hypercall::HypercallId;

/// The grouping key of an issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IssueKey {
    /// The defective hypercall.
    pub hypercall: HypercallId,
    /// Failure class observed.
    pub class: CrashClass,
    /// Root cause tag.
    pub cause: Cause,
    /// Responsible parameter signature (index + value class), if the
    /// oracle attributed the failure to a parameter.
    pub param: Option<(usize, ParamClass)>,
}

/// One deduplicated robustness issue.
#[derive(Debug, Clone)]
pub struct Issue {
    /// Grouping key.
    pub key: IssueKey,
    /// Indices (into the record list) of the tests that raised it.
    pub tests: Vec<usize>,
    /// A representative failing call, e.g. `XM_set_timer(0, 1, 1)`.
    pub example_call: String,
    /// Human-readable description for the issue bulletin.
    pub description: String,
}

impl Issue {
    /// The Table III category this issue belongs to.
    pub fn category(&self) -> xtratum::hypercall::Category {
        self.key.hypercall.category()
    }
}

/// Deduplicates failing records into issues, in first-seen order.
pub fn deduplicate(records: &[TestRecord]) -> Vec<Issue> {
    let mut issues: Vec<Issue> = Vec::new();
    for (idx, rec) in records.iter().enumerate() {
        if rec.classification.class == CrashClass::Pass {
            continue;
        }
        let key = IssueKey {
            hypercall: rec.case.hypercall,
            class: rec.classification.class,
            cause: rec.classification.cause,
            param: rec.param_signature,
        };
        if let Some(existing) = issues.iter_mut().find(|i| i.key == key) {
            existing.tests.push(idx);
        } else {
            let description = describe(&key, &rec.case.display_call());
            issues.push(Issue {
                key,
                tests: vec![idx],
                example_call: rec.case.display_call(),
                description,
            });
        }
    }
    issues
}

fn describe(key: &IssueKey, example: &str) -> String {
    let what = match key.cause {
        Cause::SimulatorCrash => "crashes the target-system simulator".to_string(),
        Cause::KernelHalt => "halts the separation kernel (fatal kernel-context trap)".to_string(),
        Cause::UnexpectedSystemReset(kind) => format!(
            "performs an undocumented system {} reset instead of returning XM_INVALID_PARAM",
            match kind {
                xtratum::observe::ResetKind::Cold => "cold",
                xtratum::observe::ResetKind::Warm => "warm",
            }
        ),
        Cause::UnhandledServiceException => {
            "causes an unhandled exception while the kernel services the call".to_string()
        }
        Cause::TemporalOverrun => "breaks temporal isolation (scheduling slot overrun)".to_string(),
        Cause::PartitionHang => "leaves the testing task unresponsive".to_string(),
        Cause::WrongSuccess => {
            "silently reports success where the manual requires an error code".to_string()
        }
        Cause::WrongErrorCode => "reports an incorrect return code".to_string(),
        Cause::None => "behaves unexpectedly".to_string(),
    };
    let via = match key.param {
        Some((i, ParamClass::InvalidPointer)) => {
            format!(" when parameter #{} is an invalid pointer", i + 1)
        }
        Some((i, ParamClass::Value(_))) => {
            format!(" for the injected value of parameter #{}", i + 1)
        }
        None => String::new(),
    };
    format!("[{}] {} {}{} (e.g. {})", key.class.label(), key.hypercall.name(), what, via, example)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classification;
    use crate::dictionary::TestValue;
    use crate::observe::TestObservation;
    use crate::oracle::{Expectation, ExpectedOutcome};
    use crate::suite::TestCase;
    use leon3_sim::machine::SimHealth;
    use xtratum::observe::{ResetKind, RunSummary};
    use xtratum::retcode::XmRet;

    fn record(
        hc: HypercallId,
        vals: Vec<TestValue>,
        class: CrashClass,
        cause: Cause,
        param: Option<(usize, ParamClass)>,
    ) -> TestRecord {
        TestRecord {
            case: TestCase { hypercall: hc, dataset: vals, suite_index: 0, case_index: 0 },
            observation: TestObservation {
                invocations: vec![],
                summary: RunSummary {
                    frames_completed: 0,
                    kernel_halt_reason: None,
                    sim_health: SimHealth::Running,
                    hm_log: vec![],
                    ops_log: vec![],
                    partition_final: vec![],
                    console: String::new(),
                    cold_resets: 0,
                    warm_resets: 0,
                },
            },
            expectation: Expectation {
                outcome: ExpectedOutcome::Ret(XmRet::Ok),
                violated_param: param.map(|(i, _)| i),
            },
            classification: Classification { class, cause },
            param_signature: param,
        }
    }

    #[test]
    fn passes_produce_no_issues() {
        let recs = vec![record(HypercallId::GetTime, vec![], CrashClass::Pass, Cause::None, None)];
        assert!(deduplicate(&recs).is_empty());
    }

    #[test]
    fn scalar_values_stay_distinct_pointer_classes_merge() {
        let recs = vec![
            // reset_system(2) and reset_system(16): distinct issues.
            record(
                HypercallId::ResetSystem,
                vec![TestValue::scalar(2)],
                CrashClass::Catastrophic,
                Cause::UnexpectedSystemReset(ResetKind::Cold),
                Some((0, ParamClass::Value(2))),
            ),
            record(
                HypercallId::ResetSystem,
                vec![TestValue::scalar(16)],
                CrashClass::Catastrophic,
                Cause::UnexpectedSystemReset(ResetKind::Cold),
                Some((0, ParamClass::Value(16))),
            ),
            // two multicall invalid-pointer failures at position 0: merge.
            record(
                HypercallId::Multicall,
                vec![TestValue::bad_ptr(0, "NULL"), TestValue::good_ptr(1, "V")],
                CrashClass::Abort,
                Cause::UnhandledServiceException,
                Some((0, ParamClass::InvalidPointer)),
            ),
            record(
                HypercallId::Multicall,
                vec![TestValue::bad_ptr(1, "UNALIGNED"), TestValue::good_ptr(1, "V")],
                CrashClass::Abort,
                Cause::UnhandledServiceException,
                Some((0, ParamClass::InvalidPointer)),
            ),
        ];
        let issues = deduplicate(&recs);
        assert_eq!(issues.len(), 3);
        assert_eq!(issues[2].tests, vec![2, 3]);
    }

    #[test]
    fn cause_distinguishes_issues_on_same_hypercall() {
        let recs = vec![
            record(
                HypercallId::SetTimer,
                vec![],
                CrashClass::Catastrophic,
                Cause::KernelHalt,
                None,
            ),
            record(
                HypercallId::SetTimer,
                vec![],
                CrashClass::Catastrophic,
                Cause::SimulatorCrash,
                None,
            ),
            record(
                HypercallId::SetTimer,
                vec![],
                CrashClass::Catastrophic,
                Cause::KernelHalt,
                None,
            ),
        ];
        let issues = deduplicate(&recs);
        assert_eq!(issues.len(), 2);
        assert_eq!(issues[0].tests, vec![0, 2]);
    }

    #[test]
    fn descriptions_are_informative() {
        let recs = vec![record(
            HypercallId::ResetSystem,
            vec![TestValue::scalar(2)],
            CrashClass::Catastrophic,
            Cause::UnexpectedSystemReset(ResetKind::Cold),
            Some((0, ParamClass::Value(2))),
        )];
        let issues = deduplicate(&recs);
        let d = &issues[0].description;
        assert!(d.contains("XM_reset_system"), "{d}");
        assert!(d.contains("cold"), "{d}");
        assert!(d.contains("Catastrophic"), "{d}");
        assert_eq!(issues[0].category(), xtratum::hypercall::Category::SystemManagement);
    }
}

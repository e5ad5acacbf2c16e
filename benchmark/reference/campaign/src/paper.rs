//! The exact Table III campaign specification.
//!
//! Per-category totals (pinned by tests, matching the paper):
//!
//! | Category                      | Total | Tested | Tests | Issues (legacy) |
//! |-------------------------------|------:|-------:|------:|-------:|
//! | System Management             |  3    | 2      |    8  | 3 |
//! | Partition Management          | 10    | 6      |  236  | 0 |
//! | Time Management               |  2    | 2      |   34  | 3 |
//! | Plan Management               |  2    | 1      |    2  | 0 |
//! | Inter-Partition Communication | 10    | 8      |  598  | 0 |
//! | Memory Management             |  2    | 1      |  991  | 0 |
//! | Health Monitor Management     |  5    | 3      |   64  | 0 |
//! | Trace Management              |  5    | 4      |  428  | 0 |
//! | Interrupt Management          |  5    | 4      |  172  | 0 |
//! | Miscellaneous                 |  5    | 3      |   41  | 3 |
//! | Sparc V8 Specific             | 12    | 5      |   88  | 0 |
//! | **Total**                     | **61**| **39** | **2662** | **9** |

use eagleeye::map::*;
use skrt::dictionary::{Dictionary, PointerProfile, TestValue};
use skrt::suite::{CampaignSpec, TestSuite};
use xtratum::hypercall::HypercallId as H;

/// The pointer profile instantiating the dictionaries on EagleEye.
pub fn pointer_profile() -> PointerProfile {
    PointerProfile { valid_scratch: SCRATCH, kernel_space: KERNEL_PTR, unmapped_top: UNMAPPED_TOP }
}

/// The paper's default dictionary on the EagleEye memory map.
pub fn paper_dictionary() -> Dictionary {
    Dictionary::paper_defaults(pointer_profile())
}

// --- value-set builders -----------------------------------------------------

fn s32(vals: &[i32]) -> Vec<TestValue> {
    vals.iter().map(|&v| TestValue::scalar(v as i64 as u64)).collect()
}

fn u32v(vals: &[u32]) -> Vec<TestValue> {
    vals.iter().map(|&v| TestValue::scalar(v as u64)).collect()
}

fn ptr(vals: &[(u32, bool, &'static str)]) -> Vec<TestValue> {
    vals.iter()
        .map(|&(addr, valid, label)| {
            if valid {
                TestValue::good_ptr(addr as u64, label)
            } else {
                TestValue::bad_ptr(addr as u64, label)
            }
        })
        .collect()
}

/// The standard five-value pointer set (NULL, unaligned, valid scratch,
/// kernel space, unmapped top).
fn ptr5() -> Vec<TestValue> {
    pointer_profile().standard_values()
}

/// A seven-value pointer set (two valid, five invalid) for wider suites.
fn ptr7() -> Vec<TestValue> {
    ptr(&[
        (0, false, "NULL"),
        (1, false, "UNALIGNED"),
        (2, false, "UNALIGNED2"),
        (SCRATCH, true, "VALID"),
        (SCRATCH_HI, true, "VALID_HI"),
        (KERNEL_PTR, false, "KERNEL_SPACE"),
        (UNMAPPED_TOP, false, "UNMAPPED"),
    ])
}

/// An eight-value pointer set for the trace-read suite.
fn ptr8() -> Vec<TestValue> {
    ptr(&[
        (0, false, "NULL"),
        (1, false, "UNALIGNED"),
        (2, false, "UNALIGNED2"),
        (SCRATCH, true, "VALID"),
        (SCRATCH_HI, true, "VALID_HI"),
        (KERNEL_PTR, false, "KERNEL_SPACE"),
        (KERNEL_PTR_HI, false, "KERNEL_SPACE2"),
        (UNMAPPED_TOP, false, "UNMAPPED"),
    ])
}

fn suite(hc: H, matrix: Vec<Vec<TestValue>>) -> TestSuite {
    TestSuite::with_matrix(hc, matrix).expect("campaign matrix arity")
}

/// Builds the full 2662-test campaign.
///
/// ```
/// let spec = xm_campaign::paper_campaign();
/// assert_eq!(spec.total_tests(), 2662);
/// assert_eq!(spec.tested_hypercalls().len(), 39);
/// ```
pub fn paper_campaign() -> CampaignSpec {
    let dict = paper_dictionary();
    let default = |hc: H| TestSuite::from_dictionary(hc, &dict).expect("dictionary covers API");
    let s32_default = || dict.values("xm_s32_t").to_vec();
    let u32_default = || dict.values("xm_u32_t").to_vec();

    let mut c = CampaignSpec::new("XtratuM robustness campaign (Table III)");

    // --- System Management: 8 tests -----------------------------------------
    c.push(default(H::ResetSystem)); // 5
    c.push(suite(
        H::GetSystemStatus,
        vec![ptr(&[
            (0, false, "NULL"),
            (SCRATCH, true, "VALID"),
            (KERNEL_PTR, false, "KERNEL_SPACE"),
        ])],
    )); // 3

    // --- Partition Management: 236 tests -------------------------------------
    c.push(default(H::HaltPartition)); // 8
    c.push(default(H::ResetPartition)); // 8*5*5 = 200 (the Fig. 2 signature)
    c.push(default(H::SuspendPartition)); // 8
    c.push(default(H::ResumePartition)); // 8
    c.push(default(H::ShutdownPartition)); // 8
    c.push(suite(
        H::GetPartitionStatus,
        vec![s32(&[0, -1]), ptr(&[(0, false, "NULL"), (SCRATCH, true, "VALID")])],
    )); // 4

    // --- Time Management: 34 tests -------------------------------------------
    c.push(suite(
        H::GetTime,
        vec![u32v(&[0, 1, 2]), ptr(&[(0, false, "NULL"), (SCRATCH, true, "VALID")])],
    )); // 6
    c.push(suite(
        H::SetTimer,
        vec![
            u32v(&[0, 1]),
            vec![TestValue::scalar(1), TestValue::scalar(1_000_000)],
            dict.values("xmTime_t").to_vec(), // 7 incl. LLONG_MIN / 1 / 49 / 50
        ],
    )); // 2*2*7 = 28

    // --- Plan Management: 2 tests ---------------------------------------------
    c.push(suite(H::SwitchSchedPlan, vec![s32(&[1, -1]), ptr(&[(SCRATCH, true, "VALID")])])); // 2

    // --- Inter-Partition Communication: 598 tests -----------------------------
    c.push(suite(
        H::CreateSamplingPort,
        vec![
            ptr(&[
                (0, false, "NULL"),
                (1, false, "UNALIGNED"),
                (PTR_NAME_GYRO, true, "NAME_GYRO"),
                (KERNEL_PTR, false, "KERNEL_SPACE"),
                (UNMAPPED_TOP, false, "UNMAPPED"),
            ]),
            u32_default(),
            u32v(&[0, 1, 2]),
        ],
    )); // 5*5*3 = 75
    c.push(suite(H::WriteSamplingMessage, vec![s32_default(), ptr5(), u32_default()])); // 8*5*5 = 200
    c.push(suite(
        H::ReadSamplingMessage,
        vec![
            s32(&[0, -1]),
            ptr5(),
            u32_default(),
            ptr(&[(0, false, "NULL"), (SCRATCH_HI, true, "VALID_HI")]),
        ],
    )); // 2*5*5*2 = 100
    c.push(suite(
        H::CreateQueuingPort,
        vec![
            ptr(&[
                (0, false, "NULL"),
                (1, false, "UNALIGNED"),
                (PTR_NAME_TM, true, "NAME_TM"),
                (KERNEL_PTR, false, "KERNEL_SPACE"),
                (UNMAPPED_TOP, false, "UNMAPPED"),
            ]),
            u32v(&[4, 16]),
            u32v(&[32, 0]),
            u32v(&[0, 1, 2]),
        ],
    )); // 5*2*2*3 = 60
    c.push(suite(
        H::SendQueuingMessage,
        vec![s32(&[2, -1, 16]), ptr5(), u32v(&[0, 1, 16, 32, u32::MAX])],
    )); // 3*5*5 = 75
    c.push(suite(
        H::ReceiveQueuingMessage,
        vec![
            s32(&[3, -1, 0]),
            ptr(&[
                (0, false, "NULL"),
                (1, false, "UNALIGNED"),
                (SCRATCH, true, "VALID"),
                (UNMAPPED_TOP, false, "UNMAPPED"),
            ]),
            u32v(&[16, 32]),
            ptr(&[(0, false, "NULL"), (SCRATCH_HI, true, "VALID_HI")]),
        ],
    )); // 3*4*2*2 = 48
    c.push(suite(H::GetSamplingPortStatus, vec![s32(&[0, 2, -1, 16]), ptr5()])); // 20
    c.push(suite(H::GetQueuingPortStatus, vec![s32(&[2, 0, -1, 16]), ptr5()])); // 20

    // --- Memory Management: 991 tests (two suites over XM_memory_copy) --------
    let addr10 = ptr(&[
        (0, false, "NULL"),
        (1, false, "UNALIGNED"),
        (3, false, "UNALIGNED3"),
        (SCRATCH, true, "VALID"),
        (SCRATCH_HI, true, "VALID_HI"),
        (BATCH_START, true, "VALID_LOW"),
        (KERNEL_PTR, false, "KERNEL_SPACE"),
        (KERNEL_PTR_HI, false, "KERNEL_SPACE2"),
        (part_base(AOCS), false, "FOREIGN_PARTITION"),
        (UNMAPPED_TOP, false, "UNMAPPED"),
    ]);
    c.push(
        suite(
            H::MemoryCopy,
            vec![
                addr10.clone(),
                addr10.clone(),
                u32v(&[0, 1, 2, 4, 16, 256, 4096, 65535, u32::MAX]),
            ],
        )
        .labelled("A"),
    ); // 10*10*9 = 900
    let mut addr13 = addr10;
    addr13.extend(ptr(&[
        (2, false, "UNALIGNED2"),
        (SCRATCH + 0x40, true, "VALID_OFF"),
        (part_base(HK), false, "FOREIGN_PARTITION2"),
    ]));
    c.push(
        suite(
            H::MemoryCopy,
            vec![
                addr13,
                ptr(&[
                    (0, false, "NULL"),
                    (SCRATCH, true, "VALID"),
                    (SCRATCH_HI, true, "VALID_HI"),
                    (BATCH_START, true, "VALID_LOW"),
                    (KERNEL_PTR, false, "KERNEL_SPACE"),
                    (part_base(TMTC), false, "FOREIGN_PARTITION"),
                    (UNMAPPED_TOP, false, "UNMAPPED"),
                ]),
                u32v(&[4096]),
            ],
        )
        .labelled("B"),
    ); // 13*7*1 = 91

    // --- Health Monitor Management: 64 tests ----------------------------------
    c.push(suite(H::HmRead, vec![ptr5(), u32_default()])); // 25
    c.push(suite(H::HmSeek, vec![s32_default(), u32v(&[0, 1, 2, 3])])); // 32
    c.push(suite(H::HmStatus, vec![ptr7()])); // 7

    // --- Trace Management: 428 tests -------------------------------------------
    c.push(suite(H::TraceOpen, vec![s32(&[i32::MIN, -16, -1, 0, 1, 2, 4, 16, i32::MAX])])); // 9
    c.push(suite(H::TraceEvent, vec![u32_default(), ptr7()])); // 35
    c.push(suite(H::TraceRead, vec![s32_default(), ptr8()])); // 64
    c.push(suite(H::TraceSeek, vec![s32_default(), s32_default(), u32v(&[0, 1, 2, 3, 16])])); // 320

    // --- Interrupt Management: 172 tests ----------------------------------------
    c.push(suite(
        H::RouteIrq,
        vec![u32_default(), u32_default(), u32v(&[0, 1, 16, 255, u32::MAX])],
    )); // 125
    c.push(suite(H::ClearIrqMask, vec![u32_default(), u32_default()])); // 25
    c.push(suite(H::SetIrqMask, vec![u32v(&[0, 2, 16, u32::MAX]), u32v(&[0, 1, 16, u32::MAX])])); // 16
    c.push(suite(H::SetIrqPend, vec![u32v(&[0, 2, 16]), u32v(&[0, u32::MAX])])); // 6

    // --- Miscellaneous: 41 tests --------------------------------------------------
    let mc_ptr = ptr(&[
        (0, false, "NULL"),
        (1, false, "UNALIGNED"),
        (BATCH_START, true, "BATCH_START"),
        (BATCH_END, true, "BATCH_END"),
        (UNMAPPED_TOP, false, "UNMAPPED"),
    ]);
    c.push(suite(H::Multicall, vec![mc_ptr.clone(), mc_ptr])); // 25
    c.push(suite(H::FlushCache, vec![u32v(&[0, 1, 2, 3, 16, u32::MAX])])); // 6
    c.push(suite(H::GetGidByName, vec![ptr5(), u32v(&[0, 1])])); // 10

    // --- Sparc V8 Specific: 88 tests ------------------------------------------------
    c.push(suite(H::SparcAtomicAdd, vec![ptr5(), u32_default()])); // 25
    c.push(suite(H::SparcAtomicAnd, vec![ptr5(), u32_default()])); // 25
    c.push(suite(
        H::SparcAtomicOr,
        vec![
            ptr(&[
                (0, false, "NULL"),
                (SCRATCH, true, "VALID"),
                (KERNEL_PTR, false, "KERNEL_SPACE"),
                (UNMAPPED_TOP, false, "UNMAPPED"),
            ]),
            u32v(&[0, 1, 16, u32::MAX]),
        ],
    )); // 16
    c.push(suite(
        H::SparcInPort,
        vec![u32v(&[0, 3, 4, u32::MAX]), ptr(&[(0, false, "NULL"), (SCRATCH, true, "VALID")])],
    )); // 8
    c.push(suite(
        H::SparcOutPort,
        vec![u32v(&[0, 1, 2, 3, 4, 16, u32::MAX]), u32v(&[0, u32::MAX])],
    )); // 14

    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use skrt::report::distribution;
    use xtratum::hypercall::Category;

    /// Table III, column by column.
    #[test]
    fn per_category_test_counts_match_table_iii() {
        let c = paper_campaign();
        let per = c.tests_per_category();
        let expect = [
            (Category::SystemManagement, 8),
            (Category::PartitionManagement, 236),
            (Category::TimeManagement, 34),
            (Category::PlanManagement, 2),
            (Category::InterPartitionCommunication, 598),
            (Category::MemoryManagement, 991),
            (Category::HealthMonitorManagement, 64),
            (Category::TraceManagement, 428),
            (Category::InterruptManagement, 172),
            (Category::Miscellaneous, 41),
            (Category::SparcSpecific, 88),
        ];
        for (cat, n) in expect {
            assert_eq!(per.get(&cat).copied().unwrap_or(0), n, "{cat}");
        }
        assert_eq!(c.total_tests(), 2662);
    }

    #[test]
    fn hypercalls_tested_match_table_iii() {
        let c = paper_campaign();
        assert_eq!(c.tested_hypercalls().len(), 39);
        let per = c.tested_per_category();
        let expect = [
            (Category::SystemManagement, 2),
            (Category::PartitionManagement, 6),
            (Category::TimeManagement, 2),
            (Category::PlanManagement, 1),
            (Category::InterPartitionCommunication, 8),
            (Category::MemoryManagement, 1),
            (Category::HealthMonitorManagement, 3),
            (Category::TraceManagement, 4),
            (Category::InterruptManagement, 4),
            (Category::Miscellaneous, 3),
            (Category::SparcSpecific, 5),
        ];
        for (cat, n) in expect {
            assert_eq!(per.get(&cat).copied().unwrap_or(0), n, "{cat}");
        }
    }

    /// Fig. 8: 64 % of hypercalls tested; just below half of the untested
    /// ones take no parameters.
    #[test]
    fn distribution_matches_fig8() {
        let d = distribution(&paper_campaign());
        assert_eq!(d.tested, 39);
        assert_eq!(d.total(), 61);
        assert_eq!(d.tested_percent(), 63); // 39/61 = 63.9 % — "64 per cent"
        assert_eq!(d.untested_parameterless, 10);
        assert_eq!(d.untested_with_params, 12);
        assert_eq!(d.parameterless_share_of_untested_percent(), 45); // "just below 50%"
    }

    #[test]
    fn defect_triggering_datasets_are_present() {
        let c = paper_campaign();
        let calls: Vec<String> = c.all_cases().iter().map(|t| t.raw().to_string()).collect();
        for needle in [
            "XM_reset_system(2)",
            "XM_reset_system(16)",
            "XM_reset_system(4294967295)",
            "XM_set_timer(0, 1, 1)",
            "XM_set_timer(1, 1, 1)",
            "XM_set_timer(0, 1, -9223372036854775808)",
            "XM_set_timer(1, 1, -9223372036854775808)",
        ] {
            assert!(calls.iter().any(|c| c == needle), "missing {needle}");
        }
        // The multicall batch combination that breaks temporal isolation.
        let mc = format!("XM_multicall({:#010x}, {:#010x})", BATCH_START, BATCH_END);
        assert!(calls.contains(&mc), "missing {mc}");
    }

    #[test]
    fn dictionary_uses_paper_value_sets() {
        let d = paper_dictionary();
        assert_eq!(d.values("xm_u32_t").len(), 5);
        assert_eq!(d.values("xm_s32_t").len(), 8);
    }
}

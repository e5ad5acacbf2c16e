//! Fault-masking analysis (paper Fig. 7 and Section IV.B).
//!
//! "In hypercalls with more than one input parameter, masking can occur
//! if parameter validity checks are done on one parameter and not the
//! others. ... the invalid first parameter in Case 1 is said to mask a
//! second-parameter robustness failure."
//!
//! Given a suite and the oracle, this module computes, per dataset, the
//! set of *individually invalid* parameters and which one the kernel's
//! canonical check order actually blames — every other invalid parameter
//! in that dataset was **masked**. The campaign counters show how well a
//! value matrix avoids masking (the reason Table II mixes valid and
//! invalid values).

use crate::dictionary::TestValue;
use crate::oracle::OracleContext;
use crate::suite::TestSuite;
use xtratum::hypercall::RawHypercall;

/// Masking statistics for one parameter position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParamMaskStats {
    /// Datasets in which this parameter's value was individually invalid.
    pub invalid_occurrences: u64,
    /// ... of which this parameter was the one actually blamed.
    pub blamed: u64,
    /// ... of which an earlier parameter's check masked this one.
    pub masked: u64,
}

/// Masking analysis for a whole suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskingReport {
    /// Hypercall name.
    pub hypercall: &'static str,
    /// Per-parameter statistics.
    pub params: Vec<ParamMaskStats>,
    /// Datasets whose parameters are all individually valid.
    pub fully_valid_datasets: u64,
}

/// True if value `v` at parameter position `i` is *individually* invalid:
/// substituting it into an otherwise fully valid dataset makes the oracle
/// blame parameter `i`.
pub fn param_value_invalid(
    ctx: &OracleContext,
    suite: &TestSuite,
    valid_example: &[TestValue],
    i: usize,
    v: TestValue,
) -> bool {
    let mut ds: Vec<TestValue> = valid_example.to_vec();
    if i >= ds.len() {
        return false;
    }
    ds[i] = v;
    let hc = RawHypercall::new_unchecked(
        suite.hypercall,
        ds.iter().map(|t| t.raw).collect::<Vec<u64>>(),
    );
    ctx.expect(&hc).violated_param == Some(i)
}

/// Runs the masking analysis over every dataset of a suite.
///
/// `valid_example` must be a dataset the oracle considers fully valid
/// (every campaign value matrix contains at least one — that is the
/// anti-masking design rule).
pub fn analyze(
    ctx: &OracleContext,
    suite: &TestSuite,
    valid_example: &[TestValue],
) -> Result<MaskingReport, String> {
    let n = suite.matrix.len();
    if valid_example.len() != n {
        return Err(format!(
            "valid example has {} values, {} takes {}",
            valid_example.len(),
            suite.hypercall.name(),
            n
        ));
    }
    let hc_valid = RawHypercall::new_unchecked(
        suite.hypercall,
        valid_example.iter().map(|t| t.raw).collect::<Vec<u64>>(),
    );
    if ctx.expect(&hc_valid).violated_param.is_some() {
        return Err("the provided 'valid example' dataset is not actually valid".into());
    }

    // Per-parameter, per-value individual validity (memoised).
    let mut invalid_value: Vec<Vec<bool>> = Vec::with_capacity(n);
    for (i, values) in suite.matrix.iter().enumerate() {
        invalid_value.push(
            values.iter().map(|&v| param_value_invalid(ctx, suite, valid_example, i, v)).collect(),
        );
    }

    let mut params = vec![ParamMaskStats::default(); n];
    let mut fully_valid = 0u64;
    // Walk datasets by odometer index so we can reuse the memoised
    // per-value validity.
    let mut idx = vec![0usize; n];
    loop {
        let invalid: Vec<usize> = (0..n).filter(|&i| invalid_value[i][idx[i]]).collect();
        if invalid.is_empty() {
            fully_valid += 1;
        } else {
            let ds: Vec<TestValue> = (0..n).map(|i| suite.matrix[i][idx[i]]).collect();
            let hc = RawHypercall::new_unchecked(
                suite.hypercall,
                ds.iter().map(|t| t.raw).collect::<Vec<u64>>(),
            );
            let blamed = ctx.expect(&hc).violated_param;
            for &i in &invalid {
                params[i].invalid_occurrences += 1;
                if blamed == Some(i) {
                    params[i].blamed += 1;
                } else {
                    params[i].masked += 1;
                }
            }
        }
        // odometer
        let mut done = true;
        for slot in (0..n).rev() {
            idx[slot] += 1;
            if idx[slot] < suite.matrix[slot].len() {
                done = false;
                break;
            }
            idx[slot] = 0;
        }
        if done || n == 0 {
            break;
        }
    }
    Ok(MaskingReport {
        hypercall: suite.hypercall.name(),
        params,
        fully_valid_datasets: fully_valid,
    })
}

/// Renders the Fig. 7 two-case demonstration for a two-parameter call:
/// Case 1 (invalid, invalid) → robust error blaming parameter 1; Case 2
/// (valid, invalid) → whatever parameter 2's check yields.
pub fn fig7_demo(
    ctx: &OracleContext,
    suite: &TestSuite,
    valid: &[TestValue],
    invalid: &[TestValue],
) -> Result<String, String> {
    if suite.matrix.len() < 2 || valid.len() < 2 || invalid.len() < 2 {
        return Err("fig7_demo needs a hypercall with at least two parameters".into());
    }
    let name = suite.hypercall.name();
    let case1 = RawHypercall::new_unchecked(suite.hypercall, vec![invalid[0].raw, invalid[1].raw]);
    let case2 = RawHypercall::new_unchecked(suite.hypercall, vec![valid[0].raw, invalid[1].raw]);
    let e1 = ctx.expect(&case1);
    let e2 = ctx.expect(&case2);
    Ok(format!(
        "Case 1: {name}(<invalid>, <invalid>) -> blamed parameter: {:?}\n\
         Case 2: {name}(<valid>, <invalid>)   -> blamed parameter: {:?}\n\
         An invalid first parameter masks the second parameter's check:\n\
         only Case 2 can expose a second-parameter robustness failure.",
        e1.violated_param, e2.violated_param
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::TestValue;
    use xtratum::config::{PortDirection, PortKind};
    use xtratum::hypercall::HypercallId;
    use xtratum::vuln::KernelBuild;

    fn ctx() -> OracleContext {
        OracleContext {
            build: KernelBuild::Legacy,
            caller: 0,
            caller_is_system: true,
            partition_count: 5,
            partition_names: vec!["FDIR".into()],
            channels: vec![],
            plan_ids: vec![0],
            caller_mem: vec![(0x4010_0000, 0x1_0000)],
            min_timer_interval: 50,
            ports: vec![PortInfo0()],
            known_strings: vec![],
            hm_entries_at_first: 1,
            trace_entries_at_first: 0,
            io_port_count: 4,
        }
    }

    #[allow(non_snake_case)]
    fn PortInfo0() -> crate::oracle::PortInfo {
        crate::oracle::PortInfo {
            desc: 0,
            name: "x".into(),
            kind: PortKind::Sampling,
            direction: PortDirection::Destination,
            max_msg_size: 16,
            max_msgs: 0,
            pending_msg_len: Some(16),
        }
    }

    fn reset_partition_suite() -> TestSuite {
        // partitionId: {-1 (invalid), 1 (valid)}
        // resetMode:   {16 (invalid), 0 (valid)}
        // status:      {0 (always valid)}
        TestSuite::with_matrix(
            HypercallId::ResetPartition,
            vec![
                vec![TestValue::scalar(-1i32 as u32 as u64), TestValue::scalar(1)],
                vec![TestValue::scalar(16), TestValue::scalar(0)],
                vec![TestValue::scalar(0)],
            ],
        )
        .unwrap()
    }

    fn valid_example() -> Vec<TestValue> {
        vec![TestValue::scalar(1), TestValue::scalar(0), TestValue::scalar(0)]
    }

    #[test]
    fn masking_counts_match_hand_computation() {
        let report = analyze(&ctx(), &reset_partition_suite(), &valid_example()).unwrap();
        // Datasets: (-1,16,0) (-1,0,0) (1,16,0) (1,0,0).
        // param0 invalid twice, blamed both times (checked first).
        assert_eq!(report.params[0].invalid_occurrences, 2);
        assert_eq!(report.params[0].blamed, 2);
        assert_eq!(report.params[0].masked, 0);
        // param1 invalid twice, masked once by param0.
        assert_eq!(report.params[1].invalid_occurrences, 2);
        assert_eq!(report.params[1].blamed, 1);
        assert_eq!(report.params[1].masked, 1);
        // param2 never invalid.
        assert_eq!(report.params[2].invalid_occurrences, 0);
        assert_eq!(report.fully_valid_datasets, 1);
    }

    #[test]
    fn param_value_invalid_probes_single_positions() {
        let suite = reset_partition_suite();
        let c = ctx();
        assert!(param_value_invalid(
            &c,
            &suite,
            &valid_example(),
            0,
            TestValue::scalar(-1i32 as u32 as u64)
        ));
        assert!(!param_value_invalid(&c, &suite, &valid_example(), 0, TestValue::scalar(1)));
        assert!(param_value_invalid(&c, &suite, &valid_example(), 1, TestValue::scalar(16)));
        assert!(!param_value_invalid(&c, &suite, &valid_example(), 1, TestValue::scalar(1)));
    }

    #[test]
    fn rejects_bogus_valid_example() {
        let suite = reset_partition_suite();
        let bad = vec![
            TestValue::scalar(-1i32 as u32 as u64),
            TestValue::scalar(0),
            TestValue::scalar(0),
        ];
        assert!(analyze(&ctx(), &suite, &bad).is_err());
        let short = vec![TestValue::scalar(1)];
        assert!(analyze(&ctx(), &suite, &short).is_err());
    }

    #[test]
    fn fig7_demo_renders() {
        let suite = reset_partition_suite();
        let valid = valid_example();
        let invalid = vec![
            TestValue::scalar(-1i32 as u32 as u64),
            TestValue::scalar(16),
            TestValue::scalar(0),
        ];
        let text = fig7_demo(&ctx(), &suite, &valid, &invalid).unwrap();
        assert!(text.contains("Case 1"), "{text}");
        assert!(text.contains("Some(0)"), "{text}");
        assert!(text.contains("Some(1)"), "{text}");
    }
}

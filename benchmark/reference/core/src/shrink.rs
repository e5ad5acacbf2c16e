//! Sequence minimization for the stateful campaign (see [`crate::sequence`]).
//!
//! When a sequence diverges from the reference state machine, the raw
//! reproducer carries every step the generator happened to draw — most of
//! them irrelevant. [`shrink_sequence`] minimizes it in two phases:
//!
//! 1. **Step removal** — delta debugging over the step list: try dropping
//!    contiguous chunks (halving granularity down to single steps) and
//!    keep every candidate that still reproduces the failure;
//! 2. **Value shrinking** — rewrite each argument of each surviving step
//!    toward the dictionary's canonical scalars (`0`, then `1`), keeping
//!    rewrites that preserve the failure.
//!
//! The predicate is caller-supplied (`true` = "still fails the same
//! way"), so the algorithm is a pure function of the predicate and the
//! input — unit-testable without booting a kernel. Shrinking a
//! fixed-point input is a no-op by construction: every candidate either
//! strictly shortens the sequence or changes an argument word, so a
//! sequence on which all candidates fail is returned unchanged.

use xtratum::hypercall::RawHypercall;

/// Canonical scalar targets tried, in order, for every argument word.
/// These are the dictionary's "trivially valid" values; shrinking towards
/// them keeps minimal reproducers readable and stable across seeds.
const CANONICAL_WORDS: [u64; 2] = [0, 1];

/// Result of minimizing one failing sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkOutcome {
    /// The minimized sequence (never empty when the input reproduced).
    pub steps: Vec<RawHypercall>,
    /// Predicate evaluations spent.
    pub evals: usize,
    /// Steps removed from the input.
    pub removed_steps: usize,
    /// Argument words rewritten to a canonical scalar.
    pub shrunk_args: usize,
}

/// Minimizes `steps` under `reproduces`, spending at most `max_evals`
/// predicate evaluations. The caller guarantees that `reproduces(steps)`
/// is `true`; the predicate must be deterministic.
pub fn shrink_sequence(
    steps: &[RawHypercall],
    mut reproduces: impl FnMut(&[RawHypercall]) -> bool,
    max_evals: usize,
) -> ShrinkOutcome {
    let mut cur: Vec<RawHypercall> = steps.to_vec();
    let mut evals = 0usize;
    let mut removed_steps = 0usize;
    let mut shrunk_args = 0usize;

    // Phase 1: delta-debug step removal. Chunk sizes halve from half the
    // sequence down to 1; repeat at granularity 1 until a full pass makes
    // no progress, so the result is removal-minimal ("1-minimal").
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < cur.len() && evals < max_evals {
            let hi = (i + chunk).min(cur.len());
            if hi - i == cur.len() {
                // Never try the empty sequence; an empty reproducer is
                // meaningless for a step-indexed verdict.
                i = hi;
                continue;
            }
            let mut candidate = cur.clone();
            candidate.drain(i..hi);
            evals += 1;
            if reproduces(&candidate) {
                removed_steps += hi - i;
                cur = candidate;
                progressed = true;
                // Retry the same position: the next chunk shifted down.
            } else {
                i = hi;
            }
        }
        if evals >= max_evals {
            break;
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !progressed {
            break;
        }
    }

    // Phase 2: argument shrinking towards canonical scalars, first-fit
    // per word. Arity is fixed by the API table, so only values move.
    'outer: for step in 0..cur.len() {
        let arity = cur[step].args().len();
        for arg in 0..arity {
            for target in CANONICAL_WORDS {
                if cur[step].args()[arg] == target {
                    break; // already canonical (0 beats 1)
                }
                if evals >= max_evals {
                    break 'outer;
                }
                let mut words: Vec<u64> = cur[step].args().to_vec();
                words[arg] = target;
                let mut candidate = cur.clone();
                candidate[step] = RawHypercall::new_unchecked(cur[step].id, &words);
                evals += 1;
                if reproduces(&candidate) {
                    cur = candidate;
                    shrunk_args += 1;
                    break;
                }
            }
        }
    }

    ShrinkOutcome { steps: cur, evals, removed_steps, shrunk_args }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtratum::hypercall::HypercallId;

    fn call(id: HypercallId, args: &[u64]) -> RawHypercall {
        RawHypercall::new_unchecked(id, args)
    }

    /// The classic delta-debugging scenario: only one step matters.
    #[test]
    fn removes_irrelevant_steps() {
        let steps = vec![
            call(HypercallId::GetTime, &[0, 0x4010_8000]),
            call(HypercallId::SetTimer, &[0, 1, 1]),
            call(HypercallId::HmStatus, &[0x4010_8000]),
            call(HypercallId::GetPlanStatus, &[0x4010_8000]),
        ];
        let out = shrink_sequence(
            &steps,
            |cand| cand.iter().any(|s| s.id == HypercallId::SetTimer),
            1000,
        );
        assert_eq!(out.steps.len(), 1);
        assert_eq!(out.steps[0].id, HypercallId::SetTimer);
        assert_eq!(out.removed_steps, 3);
    }

    /// Shrinking an already-minimal input must be an exact no-op.
    #[test]
    fn idempotent_on_minimal_input() {
        let minimal = vec![call(HypercallId::SetTimer, &[0, 1, 1])];
        let failing = minimal.clone();
        let out = shrink_sequence(&minimal, move |cand| cand == failing.as_slice(), 1000);
        assert_eq!(out.steps, minimal);
        assert_eq!(out.removed_steps, 0);
        assert_eq!(out.shrunk_args, 0);
        // And shrinking the output again changes nothing (fixed point).
        let failing2 = out.steps.clone();
        let again = shrink_sequence(&out.steps, move |cand| cand == failing2.as_slice(), 1000);
        assert_eq!(again.steps, out.steps);
    }

    /// Values move toward 0/1 only while the failure is preserved.
    #[test]
    fn shrinks_argument_values_canonically() {
        let steps = vec![call(HypercallId::SetTimer, &[0, 987, 13])];
        // "Fails" whenever the interval argument stays nonzero.
        let out = shrink_sequence(&steps, |cand| cand[0].args()[2] != 0, 1000);
        assert_eq!(out.steps[0].args(), &[0, 0, 1]);
        assert_eq!(out.shrunk_args, 2);
    }

    /// The empty candidate is never proposed even when everything else
    /// reproduces, and the eval budget is a hard stop.
    #[test]
    fn never_empty_and_respects_budget() {
        let steps = vec![
            call(HypercallId::GetTime, &[0, 0]),
            call(HypercallId::GetTime, &[1, 0]),
            call(HypercallId::GetTime, &[0, 4]),
        ];
        let out = shrink_sequence(&steps, |_| true, 1000);
        assert_eq!(out.steps.len(), 1, "everything reproduces => single step survives");

        let capped = shrink_sequence(&steps, |_| true, 0);
        assert_eq!(capped.steps, steps, "zero budget => input returned unchanged");
        assert_eq!(capped.evals, 0);
    }

    /// Removal reaches 1-minimality: a pair where each element alone does
    /// NOT reproduce stays intact, while a removable third goes away.
    #[test]
    fn keeps_interdependent_pairs() {
        let a = call(HypercallId::SuspendPartition, &[1]);
        let b = call(HypercallId::ResumePartition, &[1]);
        let noise = call(HypercallId::GetTime, &[0, 0]);
        let steps = vec![a, noise, b];
        let out = shrink_sequence(
            &steps,
            |cand| {
                cand.iter().any(|s| s.id == HypercallId::SuspendPartition)
                    && cand.iter().any(|s| s.id == HypercallId::ResumePartition)
            },
            1000,
        );
        assert_eq!(out.steps.len(), 2);
        assert_eq!(out.steps[0].id, HypercallId::SuspendPartition);
        assert_eq!(out.steps[1].id, HypercallId::ResumePartition);
        assert_eq!(out.removed_steps, 1);
    }
}

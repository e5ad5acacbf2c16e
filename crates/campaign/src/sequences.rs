//! Stateful sequence campaigns on the EagleEye testbed.
//!
//! Where [`crate::paper`] reconstructs the paper's single-call campaign,
//! this module drives `skrt::sequence`: seeded multi-hypercall sequences
//! drawn from a curated EagleEye dictionary alphabet, judged by the
//! stepwise differential state oracle, with failing sequences minimized
//! to shrunk reproducers.
//!
//! The alphabet is deliberately *mostly well-formed*: state-changing
//! calls whose documented effects the reference model tracks (partition
//! mode changes, timer arming, plan switches, HM log traffic), salted
//! with the dictionary's boundary datasets (invalid ids, kernel-space
//! pointers, degenerate timer programs). Sequences over it exercise
//! call *interactions* — the paper's Table III defects all resurface as
//! minimal sequences, and the patched build must stay divergence-free.
//!
//! It also holds the findings layer the sequence, fuzz and `check`
//! reports share: the [`Finding`] view of a judged finding, its
//! [`DefectSignature`] ([`signature_of`]), the rediscovery table and the
//! console report's findings tail.

use eagleeye::map::{
    AOCS, BATCH_END, BATCH_START, HK, KERNEL_PTR, PAYLOAD, PTR_NAME_GYRO, PTR_NAME_TM, SCRATCH,
    SCRATCH_HI,
};
use eagleeye::EagleEye;
use skrt::check::CheckCaseRecord;
use skrt::classify::{Classification, CrashClass};
use skrt::fuzz::FuzzFinding;
use skrt::sequence::{
    generate_sequences, run_sequence_campaign, AlphabetEntry, MinimalRepro, SequenceCampaignResult,
    SequenceOptions, SequenceRecord, SequenceSpec, SequenceVerdict,
};
use std::fmt::Write as _;
use xtratum::hypercall::{HypercallId, RawHypercall};

fn entry(id: HypercallId, args: &[u64], weight: u32) -> AlphabetEntry {
    AlphabetEntry { call: RawHypercall::new_unchecked(id, args), weight }
}

/// The curated EagleEye sequence alphabet: weighted dictionary entries
/// covering every stateful subsystem the reference model tracks, plus
/// the boundary datasets the paper's defects hide behind.
///
/// Deliberately excluded: self-halting calls on the test partition
/// (`XM_idle_self`, `XM_suspend_self`, self-targeted halt/suspend/
/// shutdown) and documented whole-system resets — each would end most
/// sequences at step 1 and drown the interesting interleavings.
pub fn eagleeye_sequence_alphabet() -> Vec<AlphabetEntry> {
    use HypercallId as H;
    let s = SCRATCH as u64;
    let sh = SCRATCH_HI as u64;
    let kp = KERNEL_PTR as u64;
    vec![
        // Time management: benign probes and the Table III timer defects.
        entry(H::GetTime, &[0, s], 3),
        entry(H::GetTime, &[1, s], 3),
        entry(H::GetTime, &[5, s], 2),
        entry(H::GetTime, &[0, kp], 2),
        entry(H::SetTimer, &[0, 50, 1_000_000], 2),
        entry(H::SetTimer, &[1, 50, 1_000_000], 2),
        entry(H::SetTimer, &[0, 1, 0], 2),
        entry(H::SetTimer, &[0, 50, 49], 2),
        entry(H::SetTimer, &[2, 1, 1], 2),
        entry(H::SetTimer, &[0, 1, 1], 1),
        entry(H::SetTimer, &[1, 1, 1], 1),
        entry(H::SetTimer, &[0, 1, (-1_000_000i64) as u64], 1),
        // Multicall: empty batch, small batch, inverted range, the
        // 2048-entry temporal bomb, and the kernel-trap bad pointer.
        entry(H::Multicall, &[s, s], 2),
        entry(H::Multicall, &[BATCH_START as u64, BATCH_START as u64 + 64], 2),
        entry(H::Multicall, &[BATCH_END as u64, BATCH_START as u64], 2),
        entry(H::Multicall, &[BATCH_START as u64, BATCH_END as u64], 1),
        entry(H::Multicall, &[0, 64], 1),
        // System management: the mode-decode defect datasets only.
        entry(H::ResetSystem, &[2], 1),
        entry(H::ResetSystem, &[0xFFFF_FFFF], 1),
        // Partition management over the *other* partitions.
        entry(H::HaltPartition, &[AOCS as u64], 1),
        entry(H::HaltPartition, &[7], 2),
        entry(H::SuspendPartition, &[AOCS as u64], 2),
        entry(H::SuspendPartition, &[HK as u64], 2),
        entry(H::SuspendPartition, &[7], 2),
        entry(H::ResumePartition, &[AOCS as u64], 2),
        entry(H::ResumePartition, &[HK as u64], 2),
        entry(H::ResumePartition, &[7], 2),
        entry(H::ShutdownPartition, &[PAYLOAD as u64], 1),
        entry(H::ShutdownPartition, &[7], 2),
        entry(H::ResetPartition, &[AOCS as u64, 1, 0], 2),
        entry(H::ResetPartition, &[AOCS as u64, 0, 0], 2),
        entry(H::ResetPartition, &[PAYLOAD as u64, 2, 0], 2),
        entry(H::ResetPartition, &[7, 0, 0], 2),
        entry(H::GetPartitionStatus, &[AOCS as u64, s], 3),
        entry(H::GetPartitionStatus, &[7, s], 2),
        entry(H::GetPartitionStatus, &[0, kp], 2),
        entry(H::GetSystemStatus, &[s], 3),
        // Plan management: legal switches, bad ids, bad pointers.
        entry(H::SwitchSchedPlan, &[1, s], 1),
        entry(H::SwitchSchedPlan, &[0, s], 1),
        entry(H::SwitchSchedPlan, &[5, s], 2),
        entry(H::SwitchSchedPlan, &[1, kp], 2),
        entry(H::GetPlanStatus, &[s], 3),
        entry(H::GetPlanStatus, &[kp], 2),
        // IPC on the prologue's ports (0=GyroData dst, 1=FdirStatus src).
        entry(H::CreateSamplingPort, &[PTR_NAME_GYRO as u64, 16, 1], 2),
        entry(H::CreateSamplingPort, &[PTR_NAME_TM as u64, 16, 0], 2),
        entry(H::WriteSamplingMessage, &[1, s, 8], 3),
        entry(H::WriteSamplingMessage, &[0, s, 16], 2),
        entry(H::WriteSamplingMessage, &[9, s, 8], 2),
        entry(H::ReadSamplingMessage, &[0, sh, 16, s], 3),
        entry(H::ReadSamplingMessage, &[3, s, 16, sh], 2),
        // Health monitoring: the cursor state machine.
        entry(H::HmStatus, &[s], 3),
        entry(H::HmRead, &[s, 1], 3),
        entry(H::HmRead, &[s, 8], 2),
        entry(H::HmRead, &[kp, 1], 2),
        entry(H::HmRead, &[s, 0], 2),
        entry(H::HmSeek, &[0, 0], 3),
        entry(H::HmSeek, &[0, 2], 2),
        entry(H::HmSeek, &[(-1i64) as u64, 1], 2),
        entry(H::HmSeek, &[0, 7], 2),
        entry(H::HmRaiseEvent, &[0xAB], 2),
        // Miscellaneous probes.
        entry(H::GetGidByName, &[PTR_NAME_GYRO as u64, 1], 2),
        entry(H::GetGidByName, &[PTR_NAME_TM as u64, 0], 2),
        entry(H::WriteConsole, &[s, 16], 2),
        entry(H::WriteConsole, &[s, 0], 2),
        entry(H::MemoryCopy, &[sh, s, 16], 2),
        entry(H::MemoryCopy, &[s, s, 0], 2),
        entry(H::FlushCache, &[1], 2),
        entry(H::FlushCache, &[0], 2),
        entry(H::SparcGetPsr, &[], 2),
        entry(H::SparcSetPil, &[3], 2),
    ]
}

/// A deduplicated defect signature: the CRASH verdict plus the hypercall
/// the divergence is attributed to (from the minimal reproducer when one
/// exists). Two sequences tripping the same kernel defect collapse onto
/// the same signature even when the surrounding steps differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefectSignature {
    /// CRASH class (ordinal) and cause of the divergence.
    pub classification: Classification,
    /// The call at the attributed failing step.
    pub hypercall: Option<HypercallId>,
}

/// A judged finding — a diverging sequence, a fuzz finding or a `check`
/// counterexample — as the signature, report and bundle code reads it.
pub trait Finding {
    /// Its campaign index (the one its flight is filed under), generated
    /// steps, minimal reproducer when shrinking ran, and authoritative
    /// verdict.
    fn parts(&self) -> (usize, &[RawHypercall], Option<&MinimalRepro>, &SequenceVerdict);
    /// Steps executed in the authoritative evaluation.
    fn steps_executed(&self) -> usize;
}

impl Finding for SequenceRecord {
    fn parts(&self) -> (usize, &[RawHypercall], Option<&MinimalRepro>, &SequenceVerdict) {
        (self.spec.index, &self.spec.steps, self.minimal.as_ref(), &self.verdict)
    }
    fn steps_executed(&self) -> usize {
        self.steps_executed
    }
}

impl Finding for FuzzFinding {
    fn parts(&self) -> (usize, &[RawHypercall], Option<&MinimalRepro>, &SequenceVerdict) {
        (self.exec_index as usize, &self.steps, self.minimal.as_ref(), &self.verdict)
    }
    fn steps_executed(&self) -> usize {
        self.steps_executed
    }
}

impl Finding for CheckCaseRecord {
    fn parts(&self) -> (usize, &[RawHypercall], Option<&MinimalRepro>, &SequenceVerdict) {
        (self.index, &self.steps, self.minimal.as_ref(), &self.verdict)
    }
    fn steps_executed(&self) -> usize {
        self.steps_executed
    }
}

impl<F: Finding + ?Sized> Finding for &F {
    fn parts(&self) -> (usize, &[RawHypercall], Option<&MinimalRepro>, &SequenceVerdict) {
        (**self).parts()
    }
    fn steps_executed(&self) -> usize {
        (**self).steps_executed()
    }
}

/// The reproducer a finding ships: the minimal steps when shrinking ran,
/// the generated steps otherwise.
pub(crate) fn repro_steps<F: Finding + ?Sized>(finding: &F) -> &[RawHypercall] {
    let (_, steps, minimal, _) = finding.parts();
    minimal.map_or(steps, |m| &m.steps)
}

/// The signature of one finding: its authoritative classification, and
/// the call its reproducer fails at (the minimal reproducer's failing
/// step when shrinking ran, the generated steps' otherwise).
pub fn signature_of<F: Finding + ?Sized>(finding: &F) -> DefectSignature {
    let (_, _, minimal, verdict) = finding.parts();
    let steps = repro_steps(finding);
    let hypercall = minimal
        .map_or(verdict, |m| &m.verdict)
        .failing_step
        .and_then(|i| steps.get(i.min(steps.len().saturating_sub(1))))
        .map(|hc| hc.id);
    DefectSignature { classification: verdict.classification, hypercall }
}

/// One row of the rediscovery table: a defect signature, how many
/// sequences hit it, and the shortest minimal reproducer found.
#[derive(Debug, Clone)]
pub struct RediscoveryRow {
    /// The deduplicated signature.
    pub signature: DefectSignature,
    /// Diverging sequences collapsing onto it.
    pub sequences: usize,
    /// Shortest minimal reproducer (campaign order breaks ties).
    pub example: Vec<RawHypercall>,
}

/// An executed sequence campaign plus everything the CLI renders.
#[derive(Debug, Clone)]
pub struct SequenceReport {
    /// Campaign seed (the `--seed` value, not a per-sequence seed).
    pub seed: u64,
    /// Raw results, in campaign order.
    pub result: SequenceCampaignResult,
}

impl SequenceReport {
    /// The rediscovery table over the divergences.
    pub fn rediscovery_rows(&self) -> Vec<RediscoveryRow> {
        rediscovery_rows(self.result.divergences())
    }

    /// Renders the campaign report. Deterministic: derived only from the
    /// records (never from run metrics), so the same seed and build yield
    /// byte-identical output whatever the thread count or recorder
    /// settings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let r = &self.result;
        out.push_str(&format!(
            "Sequence campaign — seed {}, {} sequences x {} steps\nKernel build: {}\n\n",
            self.seed,
            r.records.len(),
            r.steps_per_sequence,
            r.build.label()
        ));

        // CRASH distribution over sequences.
        let mut counts = [0usize; CrashClass::ALL.len()];
        for rec in &r.records {
            counts[rec.verdict.classification.class.index()] += 1;
        }
        out.push_str("verdicts:\n");
        for class in CrashClass::ALL {
            out.push_str(&format!("  {:<14} {}\n", class.label(), counts[class.index()]));
        }

        let divergences = r.divergences();
        out.push_str(&format!("\ndivergences: {}\n", divergences.len()));
        if !divergences.is_empty() {
            render_findings(&mut out, "sequences", &divergences, |rec| {
                format!("#{} (seed {:#018x})", rec.spec.index, rec.spec.seed)
            });
        }
        out
    }
}

/// The rediscovery table over `findings`: one row per signature, sorted
/// by severity (class ordinal, then cause/hypercall order).
pub(crate) fn rediscovery_rows<F: Finding>(
    findings: impl IntoIterator<Item = F>,
) -> Vec<RediscoveryRow> {
    let mut rows: Vec<RediscoveryRow> = Vec::new();
    for f in findings {
        let sig = signature_of(&f);
        let steps = repro_steps(&f);
        match rows.iter_mut().find(|r| r.signature == sig) {
            Some(row) => {
                row.sequences += 1;
                if steps.len() < row.example.len() {
                    row.example = steps.to_vec();
                }
            }
            None => {
                rows.push(RediscoveryRow { signature: sig, sequences: 1, example: steps.to_vec() })
            }
        }
    }
    rows.sort_by_key(|r| (r.signature.classification.class.index(), format!("{:?}", r.signature)));
    rows
}

/// The findings tail of the sequence and fuzz console reports: the
/// shrink statistics (counting `noun`), the rediscovered-signature table
/// and one triage bundle per finding, each headed by `header(finding)`.
pub(crate) fn render_findings<F: Finding>(
    out: &mut String,
    noun: &str,
    findings: &[F],
    header: impl Fn(&F) -> String,
) {
    let (mut shrunk, mut orig, mut min_total, mut evals) = (0, 0, 0, 0);
    for (_, steps, minimal, _) in findings.iter().map(Finding::parts) {
        if let Some(m) = minimal {
            shrunk += 1;
            orig += steps.len();
            min_total += m.steps.len();
            evals += m.evals;
        }
    }
    if shrunk > 0 {
        let _ = writeln!(
            out,
            "shrinking: {shrunk} {noun}, {orig} -> {min_total} steps total, {evals} re-executions"
        );
    }

    out.push_str("\nrediscovered defect signatures:\n");
    for row in rediscovery_rows(findings) {
        let call = row.signature.hypercall.map_or("<none>", |h| h.name());
        let _ = writeln!(
            out,
            "  {:<14} {:<24} @ {:<28} x{:<5} min {} step(s)",
            row.signature.classification.class.label(),
            format!("{:?}", row.signature.classification.cause),
            call,
            row.sequences,
            row.example.len()
        );
    }

    out.push_str("\ntriage bundles:\n");
    for f in findings {
        render_triage_bundle(out, &header(f), f);
    }
}

/// One finding's triage bundle: `header`, the verdict and failing step,
/// then the minimal reproducer (or the unshrunk steps up to the failing
/// one) with the failing step marked `>`, and its state diff.
fn render_triage_bundle(out: &mut String, header: &str, finding: &impl Finding) {
    let (_, steps, minimal, verdict) = finding.parts();
    let _ = writeln!(
        out,
        "\n{header}: {} ({:?}) at step {}",
        verdict.classification.class.label(),
        verdict.classification.cause,
        verdict.failing_step.map(|s| s.to_string()).unwrap_or_else(|| "?".into()),
    );
    let (shown, verdict) = match minimal {
        Some(m) => {
            let _ = writeln!(
                out,
                "  minimal reproducer ({} of {} steps, {} args canonicalized, {} evals):",
                m.steps.len(),
                steps.len(),
                m.shrunk_args,
                m.evals
            );
            (m.steps.as_slice(), &m.verdict)
        }
        None => (&steps[..steps.len().min(finding.steps_executed() + 1)], verdict),
    };
    for (i, step) in shown.iter().enumerate() {
        let marker = if verdict.failing_step == Some(i) { ">" } else { " " };
        let _ = writeln!(out, "  {marker} {i}: {step}");
    }
    for line in &verdict.state_diff {
        let _ = writeln!(out, "    {line}");
    }
}

/// Generates and executes a sequence campaign on the EagleEye testbed.
pub fn run_eagleeye_sequences(
    seed: u64,
    count: usize,
    steps: usize,
    opts: &SequenceOptions,
) -> SequenceReport {
    let specs = generate_sequences(&eagleeye_sequence_alphabet(), seed, count, steps);
    let result = run_sequence_campaign(&EagleEye, &specs, opts);
    SequenceReport { seed, result }
}

/// The generated specs alone (for determinism tests and tooling).
pub fn eagleeye_sequence_specs(seed: u64, count: usize, steps: usize) -> Vec<SequenceSpec> {
    generate_sequences(&eagleeye_sequence_alphabet(), seed, count, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_is_weighted_and_mostly_modelled() {
        let alphabet = eagleeye_sequence_alphabet();
        assert!(alphabet.len() >= 60, "alphabet covers the stateful subsystems");
        assert!(alphabet.iter().all(|e| e.weight > 0));
        // The arity of every entry matches the API table, so generated
        // sequences are always structurally well-formed.
        for e in &alphabet {
            assert_eq!(
                e.call.args().len(),
                e.call.id.def().params.len(),
                "arity mismatch for {}",
                e.call
            );
        }
        // The defect-bearing calls are present.
        for id in [HypercallId::SetTimer, HypercallId::Multicall, HypercallId::ResetSystem] {
            assert!(alphabet.iter().any(|e| e.call.id == id), "{id:?} missing");
        }
        // No instant self-terminating calls: they would end most
        // sequences at step 1.
        for e in &alphabet {
            assert!(
                !matches!(e.call.id, HypercallId::IdleSelf | HypercallId::SuspendSelf),
                "self-terminating {} in alphabet",
                e.call
            );
        }
    }

    #[test]
    fn spec_generation_is_prefix_stable() {
        let a = eagleeye_sequence_specs(1, 10, 8);
        let b = eagleeye_sequence_specs(1, 30, 8);
        assert_eq!(&b[..10], &a[..]);
    }
}

//! Coverage-guided fuzzing campaigns on the EagleEye testbed.
//!
//! Thin campaign-layer driver over `skrt::fuzz`: runs the greybox
//! sequence fuzzer against the curated EagleEye alphabet from
//! [`crate::sequences`], dedupes findings into the same
//! [`DefectSignature`] space the legacy/patched rediscovery table uses,
//! and renders the CLI report plus the JSONL stats stream.
//!
//! The module also carries the canonical list of the seven stateful
//! defect signatures the legacy build exhibits
//! ([`stateful_defect_signatures`]) and a paired rediscovery probe
//! (fuzz vs pure-random sequence campaign, [`fuzz_rediscovery`] /
//! [`random_rediscovery`]) used by the `fuzz_rediscovery` benchmark and
//! EXPERIMENTS §A10.

use crate::sequences::{eagleeye_sequence_alphabet, signature_of, DefectSignature, RediscoveryRow};
use eagleeye::map::{BATCH_END, BATCH_START};
use eagleeye::EagleEye;
use skrt::classify::{Cause, Classification, CrashClass};
use skrt::fuzz::{run_fuzz, FuzzFinding, FuzzOptions, FuzzResult};
use skrt::sequence::{generate_sequences, run_sequence_campaign, AlphabetEntry, SequenceOptions};
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::observe::ResetKind;
use xtratum::vuln::KernelBuild;

/// The seven stateful defect signatures the legacy build exhibits under
/// sequence testing (the sequence-campaign rediscovery table), in
/// severity order. Every rediscovery assertion — the fuzz smoke test,
/// the CI gate, the benchmark — measures against this list.
pub fn stateful_defect_signatures() -> Vec<DefectSignature> {
    let sig = |class, cause, id| DefectSignature {
        classification: Classification { class, cause },
        hypercall: Some(id),
    };
    vec![
        sig(CrashClass::Catastrophic, Cause::KernelHalt, HypercallId::SetTimer),
        sig(CrashClass::Catastrophic, Cause::SimulatorCrash, HypercallId::SetTimer),
        sig(
            CrashClass::Catastrophic,
            Cause::UnexpectedSystemReset(ResetKind::Cold),
            HypercallId::ResetSystem,
        ),
        sig(
            CrashClass::Catastrophic,
            Cause::UnexpectedSystemReset(ResetKind::Warm),
            HypercallId::ResetSystem,
        ),
        sig(CrashClass::Restart, Cause::TemporalOverrun, HypercallId::Multicall),
        sig(CrashClass::Abort, Cause::UnhandledServiceException, HypercallId::Multicall),
        sig(CrashClass::Silent, Cause::WrongSuccess, HypercallId::SetTimer),
    ]
}

/// The signature of one fuzz finding — same attribution rule as
/// [`signature_of`]: the minimal reproducer (when shrinking ran) names
/// the failing call, the original verdict names the classification.
pub fn finding_signature(f: &FuzzFinding) -> DefectSignature {
    let (steps, verdict) = match &f.minimal {
        Some(m) => (&m.steps, &m.verdict),
        None => (&f.steps, &f.verdict),
    };
    let hypercall = verdict
        .failing_step
        .and_then(|i| steps.get(i.min(steps.len().saturating_sub(1))))
        .map(|hc| hc.id);
    DefectSignature { classification: f.verdict.classification, hypercall }
}

/// Hottest-edge cells shown in the introspection section and streamed
/// in the `fuzz_summary` stats line.
const HOTTEST_N: usize = 8;

/// An executed fuzzing campaign plus everything the CLI renders.
#[derive(Debug)]
pub struct FuzzReport {
    /// Raw fuzzer output.
    pub result: FuzzResult,
}

impl FuzzReport {
    /// The rediscovery table over the findings, same shape and sort as
    /// the sequence campaign's.
    pub fn rediscovery_rows(&self) -> Vec<RediscoveryRow> {
        let mut rows: Vec<RediscoveryRow> = Vec::new();
        for f in &self.result.findings {
            let sig = finding_signature(f);
            let steps = f.minimal.as_ref().map(|m| &m.steps).unwrap_or(&f.steps);
            match rows.iter_mut().find(|r| r.signature == sig) {
                Some(row) => {
                    row.sequences += 1;
                    if steps.len() < row.example.len() {
                        row.example = steps.clone();
                    }
                }
                None => rows.push(RediscoveryRow {
                    signature: sig,
                    sequences: 1,
                    example: steps.clone(),
                }),
            }
        }
        rows.sort_by_key(|r| {
            (r.signature.classification.class.index(), format!("{:?}", r.signature))
        });
        rows
    }

    /// First candidate-execution index (1-based) that hit each canonical
    /// stateful signature, in [`stateful_defect_signatures`] order.
    /// `None` marks a signature the run never reached.
    pub fn first_hits(&self) -> Vec<(DefectSignature, Option<u64>)> {
        stateful_defect_signatures()
            .into_iter()
            .map(|sig| {
                let first = self
                    .result
                    .findings
                    .iter()
                    .find(|f| finding_signature(f) == sig)
                    .map(|f| f.exec_index);
                (sig, first)
            })
            .collect()
    }

    /// Renders the campaign report. Deterministic: derived only from the
    /// corpus, map and findings (never from run metrics or wall-clock),
    /// so the same seed and build yield byte-identical output whatever
    /// the thread count or recorder setting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let r = &self.result;
        out.push_str(&format!(
            "Fuzzing campaign — seed {}, {} candidate executions in {} rounds\nKernel build: {}\n\n",
            r.seed,
            r.execs,
            r.rounds.len(),
            r.build.label()
        ));
        out.push_str(&format!(
            "coverage: {} map cells ({:.2}% fill), {} corpus entries\n",
            r.map.fill(),
            r.map.fill_ratio() * 100.0,
            r.corpus.len()
        ));
        out.push_str(&self.render_introspection());

        out.push_str(&format!("\nfindings: {}\n", r.findings.len()));
        if r.findings.is_empty() {
            return out;
        }

        let shrunk: Vec<_> = r.findings.iter().filter_map(|f| f.minimal.as_ref()).collect();
        if !shrunk.is_empty() {
            let orig: usize =
                r.findings.iter().filter(|f| f.minimal.is_some()).map(|f| f.steps.len()).sum();
            let min_total: usize = shrunk.iter().map(|m| m.steps.len()).sum();
            let evals: usize = shrunk.iter().map(|m| m.evals).sum();
            out.push_str(&format!(
                "shrinking: {} findings, {} -> {} steps total, {} re-executions\n",
                shrunk.len(),
                orig,
                min_total,
                evals
            ));
        }

        out.push_str("\nrediscovered defect signatures:\n");
        for row in self.rediscovery_rows() {
            let call = row
                .signature
                .hypercall
                .map(|h| h.name().to_string())
                .unwrap_or_else(|| "<none>".into());
            out.push_str(&format!(
                "  {:<14} {:<24} @ {:<28} x{:<5} min {} step(s)\n",
                row.signature.classification.class.label(),
                format!("{:?}", row.signature.classification.cause),
                call,
                row.sequences,
                row.example.len()
            ));
        }

        out.push_str("\ntriage bundles:\n");
        for f in &r.findings {
            out.push_str(&render_finding(f));
        }
        out
    }

    /// Coverage introspection: the occupancy curve, corpus composition
    /// (origin, size, novelty, age) and the hottest map cells.
    /// Deterministic — derived only from rounds, corpus and map.
    pub fn render_introspection(&self) -> String {
        let r = &self.result;
        let mut out = String::new();
        if let (Some(first), Some(last)) = (r.rounds.first(), r.rounds.last()) {
            out.push_str(&format!(
                "occupancy: {:.4}% -> {:.4}% over {} rounds",
                first.occupancy * 100.0,
                last.occupancy * 100.0,
                r.rounds.len()
            ));
            if last.rounds_since_novel > 0 {
                out.push_str(&format!(
                    " (plateau: {} round(s) since novel coverage)",
                    last.rounds_since_novel
                ));
            }
            out.push('\n');
        }
        if !r.corpus.is_empty() {
            let fresh =
                r.corpus.iter().filter(|e| matches!(e.origin, skrt::fuzz::Origin::Fresh)).count();
            let steps: Vec<usize> = r.corpus.iter().map(|e| e.steps.len()).collect();
            let novelty: Vec<usize> = r.corpus.iter().map(|e| e.new_cells).collect();
            out.push_str(&format!(
                "corpus: {} fresh + {} mutants, {:.1} mean / {} max steps, \
                 {:.1} mean new cells, newest at exec {}\n",
                fresh,
                r.corpus.len() - fresh,
                steps.iter().sum::<usize>() as f64 / steps.len() as f64,
                steps.iter().max().expect("non-empty corpus"),
                novelty.iter().sum::<usize>() as f64 / novelty.len() as f64,
                r.corpus.last().expect("non-empty corpus").exec_index
            ));
        }
        let hottest = r.map.hottest(HOTTEST_N);
        if !hottest.is_empty() {
            out.push_str("hottest edges (cell: executions touching it):\n");
            for (cell, touches) in hottest {
                out.push_str(&format!("  {cell:>5}: {touches}\n"));
            }
        }
        out
    }

    /// The JSONL stats stream: one `fuzz_round` line per round and a
    /// final `fuzz_summary` line. Wall-clock fields are reporting only;
    /// everything else is deterministic for a fixed seed and budget.
    pub fn stats_jsonl(&self) -> String {
        let mut out = String::new();
        let r = &self.result;
        for s in &r.rounds {
            out.push_str(&format!(
                "{{\"type\":\"fuzz_round\",\"round\":{},\"execs\":{},\"corpus\":{},\"map_cells\":{},\"novel\":{},\"findings\":{},\"occupancy\":{:.6},\"rounds_since_novel\":{},\"wall_ms\":{:.3}}}\n",
                s.round,
                s.execs,
                s.corpus,
                s.map_cells,
                s.novel,
                s.findings,
                s.occupancy,
                s.rounds_since_novel,
                s.wall.as_secs_f64() * 1e3,
            ));
        }
        let signatures = self.rediscovery_rows().len();
        let wall = r.metrics.wall.as_secs_f64();
        let rate = if wall > 0.0 { r.execs as f64 / wall } else { 0.0 };
        let fresh =
            r.corpus.iter().filter(|e| matches!(e.origin, skrt::fuzz::Origin::Fresh)).count();
        let mean_steps = if r.corpus.is_empty() {
            0.0
        } else {
            r.corpus.iter().map(|e| e.steps.len()).sum::<usize>() as f64 / r.corpus.len() as f64
        };
        let max_steps = r.corpus.iter().map(|e| e.steps.len()).max().unwrap_or(0);
        let hottest: Vec<String> = r
            .map
            .hottest(HOTTEST_N)
            .into_iter()
            .map(|(cell, touches)| format!("{{\"cell\":{cell},\"touches\":{touches}}}"))
            .collect();
        let plateau = r.rounds.last().map(|s| s.rounds_since_novel).unwrap_or(0);
        out.push_str(&format!(
            "{{\"type\":\"fuzz_summary\",\"build\":\"{}\",\"seed\":{},\"execs\":{},\"corpus\":{},\"corpus_fresh\":{},\"corpus_mutants\":{},\"corpus_mean_steps\":{:.2},\"corpus_max_steps\":{},\"map_cells\":{},\"map_fill\":{:.6},\"plateau_rounds\":{},\"hottest\":[{}],\"findings\":{},\"signatures\":{},\"wall_ms\":{:.3},\"execs_per_sec\":{:.1}}}\n",
            r.build.label(),
            r.seed,
            r.execs,
            r.corpus.len(),
            fresh,
            r.corpus.len() - fresh,
            mean_steps,
            max_steps,
            r.map.fill(),
            r.map.fill_ratio(),
            plateau,
            hottest.join(","),
            r.findings.len(),
            signatures,
            wall * 1e3,
            rate,
        ));
        out
    }

    /// Perfetto counter tracks for the trace exporter: coverage-map
    /// cells and per-round throughput, sampled once per round on the
    /// cumulative round wall-clock axis.
    pub fn counter_series(&self) -> Vec<skrt::flight::CounterSeries> {
        let mut cells =
            skrt::flight::CounterSeries { name: "coverage_cells".into(), ..Default::default() };
        let mut rate =
            skrt::flight::CounterSeries { name: "execs_per_sec".into(), ..Default::default() };
        let mut ts = 0u64;
        let mut prev_execs = 0u64;
        for s in &self.result.rounds {
            ts += (s.wall.as_micros() as u64).max(1);
            cells.samples.push((ts, s.map_cells as f64));
            let secs = s.wall.as_secs_f64();
            let round_execs = s.execs - prev_execs;
            prev_execs = s.execs;
            let r = if secs > 0.0 { round_execs as f64 / secs } else { 0.0 };
            rate.samples.push((ts, r));
        }
        vec![cells, rate]
    }
}

fn render_finding(f: &FuzzFinding) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n#exec {} (round {}): {} ({:?}) at step {}\n",
        f.exec_index,
        f.round,
        f.verdict.classification.class.label(),
        f.verdict.classification.cause,
        f.verdict.failing_step.map(|s| s.to_string()).unwrap_or_else(|| "?".into()),
    ));
    match &f.minimal {
        Some(m) => {
            out.push_str(&format!(
                "  minimal reproducer ({} of {} steps, {} args canonicalized, {} evals):\n",
                m.steps.len(),
                f.steps.len(),
                m.shrunk_args,
                m.evals
            ));
            for (i, step) in m.steps.iter().enumerate() {
                let marker = if m.verdict.failing_step == Some(i) { ">" } else { " " };
                out.push_str(&format!("  {marker} {i}: {step}\n"));
            }
            for line in &m.verdict.state_diff {
                out.push_str(&format!("    {line}\n"));
            }
        }
        None => {
            for (i, step) in f.steps.iter().enumerate().take(f.steps_executed + 1) {
                let marker = if f.verdict.failing_step == Some(i) { ">" } else { " " };
                out.push_str(&format!("  {marker} {i}: {step}\n"));
            }
            for line in &f.verdict.state_diff {
                out.push_str(&format!("    {line}\n"));
            }
        }
    }
    out
}

/// Runs the coverage-guided fuzzer on the EagleEye testbed with the
/// curated sequence alphabet.
pub fn run_eagleeye_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let result = run_fuzz(&EagleEye, &eagleeye_sequence_alphabet(), opts);
    FuzzReport { result }
}

// ---------------------------------------------------------------------------
// Paired rediscovery probe (fuzz vs pure-random baseline)
// ---------------------------------------------------------------------------

/// The curated alphabet with every defect-trigger dataset removed: no
/// 1 µs timer intervals, no negative intervals, no 2048-entry multicall
/// bomb or bad batch pointer, no invalid reset modes. A documented warm
/// reset is added back as the benign `XM_reset_system` anchor.
///
/// The curated alphabet hands the defect triggers out as literal
/// entries, so pure-random draws rediscover all seven signatures within
/// a dozen sequences and there is nothing left for search to improve
/// on. This variant is the actual *search problem* the rediscovery
/// benchmark measures: the magic argument values exist only in the
/// mutation engine's boundary-word pool and the alphabet's unrelated
/// arguments, so a strategy has to synthesize them — which pure-random
/// generation (verbatim entry draws) cannot do at all.
pub fn fuzz_benchmark_alphabet() -> Vec<AlphabetEntry> {
    let triggers: &[(HypercallId, &[u64])] = &[
        (HypercallId::SetTimer, &[0, 1, 1]),
        (HypercallId::SetTimer, &[1, 1, 1]),
        (HypercallId::SetTimer, &[0, 1, (-1_000_000i64) as u64]),
        (HypercallId::Multicall, &[BATCH_START as u64, BATCH_END as u64]),
        (HypercallId::Multicall, &[0, 64]),
        (HypercallId::ResetSystem, &[2]),
        (HypercallId::ResetSystem, &[0xFFFF_FFFF]),
    ];
    let mut out: Vec<AlphabetEntry> = eagleeye_sequence_alphabet()
        .into_iter()
        .filter(|e| !triggers.iter().any(|(id, args)| e.call.id == *id && e.call.args() == *args))
        .collect();
    out.push(AlphabetEntry {
        call: RawHypercall::new_unchecked(HypercallId::ResetSystem, [0u64]),
        weight: 1,
    });
    out
}

/// Executions-to-rediscovery of the canonical stateful signatures under
/// one search strategy, for the benchmark and EXPERIMENTS §A10.
#[derive(Debug, Clone)]
pub struct RediscoveryProbe {
    /// First 1-based execution index hitting each canonical signature
    /// (in [`stateful_defect_signatures`] order), `None` if never hit.
    pub first_hits: Vec<(DefectSignature, Option<u64>)>,
    /// Executions actually performed.
    pub execs: u64,
}

impl RediscoveryProbe {
    /// Signatures found within the budget.
    pub fn found(&self) -> usize {
        self.first_hits.iter().filter(|(_, hit)| hit.is_some()).count()
    }

    /// Median executions-to-rediscovery over the signatures that were
    /// found (missing ones excluded; check [`Self::found`] separately).
    pub fn median_execs(&self) -> Option<u64> {
        let mut hits: Vec<u64> = self.first_hits.iter().filter_map(|(_, h)| *h).collect();
        if hits.is_empty() {
            return None;
        }
        hits.sort_unstable();
        Some(hits[hits.len() / 2])
    }
}

/// Coverage-guided rediscovery over the benchmark alphabet: how many
/// candidate executions the fuzzer needs to hit each canonical
/// signature on the legacy build when the triggers must be synthesized
/// by mutation.
pub fn fuzz_rediscovery(seed: u64, budget: u64, threads: usize) -> RediscoveryProbe {
    let opts = FuzzOptions { seed, max_execs: budget, threads, ..FuzzOptions::default() };
    let result = run_fuzz(&EagleEye, &fuzz_benchmark_alphabet(), &opts);
    let report = FuzzReport { result };
    RediscoveryProbe { first_hits: report.first_hits(), execs: report.result.execs }
}

/// Pure-random baseline over the same benchmark alphabet: independent
/// seeded sequences with the fuzzer's fresh-candidate length, no
/// mutation, no coverage feedback. Shrinking stays on so signature
/// attribution matches the fuzzer's.
pub fn random_rediscovery(seed: u64, budget: u64, threads: usize) -> RediscoveryProbe {
    let fuzz_defaults = FuzzOptions::default();
    let specs =
        generate_sequences(&fuzz_benchmark_alphabet(), seed, budget as usize, fuzz_defaults.steps);
    let opts = SequenceOptions {
        build: KernelBuild::Legacy,
        threads,
        steps_per_slot: fuzz_defaults.steps_per_slot,
        ..SequenceOptions::default()
    };
    let result = run_sequence_campaign(&EagleEye, &specs, &opts);
    let first_hits = stateful_defect_signatures()
        .into_iter()
        .map(|sig| {
            let first = result
                .records
                .iter()
                .filter(|rec| {
                    rec.verdict.classification.class != CrashClass::Pass && signature_of(rec) == sig
                })
                .map(|rec| rec.spec.index as u64 + 1)
                .next();
            (sig, first)
        })
        .collect();
    RediscoveryProbe { first_hits, execs: specs.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_signatures_are_seven_and_distinct() {
        let sigs = stateful_defect_signatures();
        assert_eq!(sigs.len(), 7);
        for (i, a) in sigs.iter().enumerate() {
            for b in &sigs[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Severity order: class ordinals are non-decreasing.
        for pair in sigs.windows(2) {
            assert!(pair[0].classification.class.index() <= pair[1].classification.class.index());
        }
    }

    #[test]
    fn short_fuzz_run_renders_and_streams_stats() {
        let opts =
            FuzzOptions { seed: 3, max_execs: 48, batch: 16, threads: 2, ..FuzzOptions::default() };
        let report = run_eagleeye_fuzz(&opts);
        assert_eq!(report.result.execs, 48);
        let rendered = report.render();
        assert!(rendered.contains("Fuzzing campaign — seed 3"));
        assert!(rendered.contains("coverage:"));
        assert!(rendered.contains("occupancy:"), "{rendered}");
        assert!(rendered.contains("corpus:"), "{rendered}");
        assert!(rendered.contains("hottest edges"), "{rendered}");
        let stats = report.stats_jsonl();
        assert_eq!(stats.lines().count(), report.result.rounds.len() + 1);
        let summary = stats.lines().last().unwrap();
        assert!(summary.contains("\"type\":\"fuzz_summary\""));
        for key in [
            "\"corpus_fresh\":",
            "\"corpus_mutants\":",
            "\"corpus_mean_steps\":",
            "\"corpus_max_steps\":",
            "\"plateau_rounds\":",
            "\"hottest\":[{\"cell\":",
        ] {
            assert!(summary.contains(key), "missing {key} in {summary}");
        }
        for line in stats.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            if line.contains("fuzz_round") {
                assert!(line.contains("\"occupancy\":"), "{line}");
                assert!(line.contains("\"rounds_since_novel\":"), "{line}");
            }
        }
        // Counter tracks: one sample per round on each of the two series.
        let series = report.counter_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name, "coverage_cells");
        assert_eq!(series[0].samples.len(), report.result.rounds.len());
        assert_eq!(series[1].samples.len(), report.result.rounds.len());
        // Occupancy is monotone non-decreasing across rounds.
        for pair in report.result.rounds.windows(2) {
            assert!(pair[1].occupancy >= pair[0].occupancy);
        }
    }

    #[test]
    fn random_probe_indexes_are_one_based_and_bounded() {
        let probe = random_rediscovery(1, 60, 2);
        assert_eq!(probe.execs, 60);
        for (_, hit) in &probe.first_hits {
            if let Some(h) = hit {
                assert!((1..=60).contains(h));
            }
        }
    }
}

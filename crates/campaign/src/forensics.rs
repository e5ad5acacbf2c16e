//! Self-contained triage forensics bundles (`campaign report`).
//!
//! A bundle is a directory a finding can be investigated from without
//! the repository checked out: the shrunk reproducer in the corpus-file
//! format `parse_steps` reads back, the `StateDigest` diff at the first
//! bad step, a Perfetto trace of the minimal run, the final kernel
//! state from a replay of the reproducer, latency histograms, and an
//! OpenMetrics snapshot of the producing run — all indexed from a
//! rendered markdown summary.

use crate::runner::eagleeye_flight_names;
use crate::sequences::{repro_steps, signature_of, Finding, SequenceReport};
use eagleeye::EagleEye;
use skrt::flight::{export_chrome_trace, FlightLog, FlightNames};
use skrt::fuzz::render_steps;
use skrt::metrics::MetricsReport;
use skrt::sequence::{run_one_sequence, SequenceRecord};
use skrt::testbed::Testbed;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use xtratum::hypercall::RawHypercall;
use xtratum::vuln::KernelBuild;

/// What [`write_forensics_bundle`] produced, for the CLI to report.
#[derive(Debug, Clone)]
pub struct BundleSummary {
    /// Bundle root directory.
    pub root: PathBuf,
    /// Divergences the bundle documents.
    pub findings: usize,
    /// Bundle-relative paths written, in write order.
    pub files: Vec<PathBuf>,
}

/// A bundle directory being written, and the bundle-relative paths
/// written so far (for `summary.md` to index).
pub(crate) struct Bundle {
    root: PathBuf,
    files: Vec<PathBuf>,
}

impl Bundle {
    /// Creates `dir` and writes the run's `metrics.prom` and
    /// `telemetry.jsonl` snapshots.
    pub(crate) fn create(dir: &Path, job: &str, metrics: &MetricsReport) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut bundle = Bundle { root: dir.to_path_buf(), files: Vec::new() };
        let registry = metrics.telemetry(job);
        bundle.put("metrics.prom", &registry.render_openmetrics())?;
        bundle.put("telemetry.jsonl", &registry.render_jsonl())?;
        Ok(bundle)
    }

    fn put(&mut self, rel: &str, contents: &str) -> io::Result<()> {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(&path, contents)?;
        self.files.push(PathBuf::from(rel));
        Ok(())
    }

    /// Writes finding `n`'s directory: its reproducer as `repro.seq`
    /// under `header`, `report` as `report.md`, and the finding's flight,
    /// when `flights` kept one, as `trace.json`.
    pub(crate) fn put_finding(
        &mut self,
        n: usize,
        finding: &impl Finding,
        header: &str,
        report: &str,
        flights: Option<&FlightLog>,
        names: &FlightNames,
    ) -> io::Result<()> {
        let mut seq = format!("# {header}\n");
        render_steps(&mut seq, repro_steps(finding));
        self.put(&format!("finding-{n:03}/repro.seq"), &seq)?;
        self.put(&format!("finding-{n:03}/report.md"), report)?;
        let index = finding.parts().0;
        let flight = flights.and_then(|log| log.tests.iter().find(|f| f.index == index));
        if let Some(flight) = flight {
            let single = FlightLog { tests: vec![flight.clone()] };
            let json = export_chrome_trace(&single, &[], names);
            self.put(&format!("finding-{n:03}/trace.json"), &json)?;
        }
        Ok(())
    }

    /// Appends the bundle's contents to `summary`, writes it as
    /// `summary.md` and reports what was written.
    pub(crate) fn finish(
        mut self,
        mut summary: String,
        findings: usize,
    ) -> io::Result<BundleSummary> {
        summary.push_str("\n## Bundle contents\n\n");
        for f in &self.files {
            let _ = writeln!(summary, "- `{}`", f.display());
        }
        summary.push_str("- `summary.md`\n");
        self.put("summary.md", &summary)?;
        Ok(BundleSummary { root: self.root, findings, files: self.files })
    }
}

/// Appends the sections every finding report shares: the reproducer
/// (minimal, or the first `shown` generated steps under `unshrunk`), the
/// StateDigest diff at the first bad step (`no_diff` when the verdict
/// has none) and the reproducer's final kernel state, replayed on a
/// fresh boot of `testbed`.
pub(crate) fn render_repro_sections<T: Testbed + ?Sized>(
    out: &mut String,
    finding: &impl Finding,
    (unshrunk, shown): (&str, usize),
    no_diff: &str,
    testbed: &T,
    build: KernelBuild,
) {
    let (_, steps, minimal, verdict) = finding.parts();
    match minimal {
        Some(m) => {
            let _ = writeln!(
                out,
                "\n## Minimal reproducer ({} of {} steps, {} args canonicalized, {} evals)\n",
                m.steps.len(),
                steps.len(),
                m.shrunk_args,
                m.evals
            );
            render_step_list(out, &m.steps, m.verdict.failing_step);
        }
        None => {
            let _ = writeln!(out, "\n## {unshrunk}\n");
            render_step_list(out, &steps[..shown.min(steps.len())], verdict.failing_step);
        }
    }

    out.push_str("\n## StateDigest diff at first bad step\n\n```\n");
    if verdict.state_diff.is_empty() {
        let _ = writeln!(out, "{no_diff}");
    } else {
        for line in &verdict.state_diff {
            let _ = writeln!(out, "{line}");
        }
    }
    out.push_str("```\n");

    let repro = repro_steps(finding);
    let ctx = testbed.oracle_context(build);
    let (mut kernel, mut guests) = testbed.boot(build);
    let eval = run_one_sequence(testbed, &ctx, &mut kernel, &mut guests, repro, 1);
    let digest = kernel.state_digest(testbed.test_partition());
    out.push_str("\n## Final kernel state (reproducer replay)\n\n```\n");
    let _ =
        writeln!(out, "steps executed: {} of {}\n\n{digest:#?}", eval.steps_executed, repro.len());
    out.push_str("```\n");

    out.push_str("\nFiles: `repro.seq` (replayable steps)");
    out.push_str(", `trace.json` (Perfetto, when the run recorded)\n");
}

/// A fenced step list, the failing step marked `>`.
fn render_step_list(out: &mut String, steps: &[RawHypercall], failing: Option<usize>) {
    out.push_str("```\n");
    for (i, step) in steps.iter().enumerate() {
        let marker = if failing == Some(i) { ">" } else { " " };
        let _ = writeln!(out, "{marker} {i}: {step}");
    }
    out.push_str("```\n");
}

fn render_finding_markdown(n: usize, rec: &SequenceRecord, build: KernelBuild) -> String {
    let mut out = String::new();
    let sig = signature_of(rec);
    let _ = writeln!(
        out,
        "# Finding {n:03} — {} ({:?})\n",
        rec.verdict.classification.class.label(),
        rec.verdict.classification.cause
    );
    let _ =
        writeln!(out, "- campaign sequence: #{} (seed {:#018x})", rec.spec.index, rec.spec.seed);
    let _ = writeln!(
        out,
        "- attributed hypercall: {}",
        sig.hypercall.map(|h| h.name().to_string()).unwrap_or_else(|| "<none>".into())
    );
    let _ = writeln!(
        out,
        "- failing step: {}",
        rec.verdict.failing_step.map(|s| s.to_string()).unwrap_or_else(|| "?".into())
    );
    let _ = writeln!(out, "- steps executed: {}", rec.steps_executed);
    render_repro_sections(
        &mut out,
        rec,
        ("Sequence (unshrunk)", rec.steps_executed + 1),
        "(terminal verdict — no surviving state to diff)",
        &EagleEye,
        build,
    );
    out
}

/// The `## Hypercall latency` table (when the run recorded) and the
/// `## Run metrics` block of a bundle summary.
pub(crate) fn render_metrics_markdown(out: &mut String, metrics: &MetricsReport) {
    if !metrics.hc_latency.is_empty() {
        out.push_str("\n## Hypercall latency (µs)\n\n");
        out.push_str("| hypercall | count | mean | max |\n|---|---|---|---|\n");
        for row in &metrics.hc_latency {
            let h = &row.hist;
            let _ =
                writeln!(out, "| {} | {} | {:.1} | {} |", row.name, h.count, h.mean_us(), h.max_us);
        }
    }
    out.push_str("\n## Run metrics\n\n```\n");
    out.push_str(&metrics.render());
    out.push_str("```\n");
}

fn render_summary_markdown(job: &str, report: &SequenceReport, findings: usize) -> String {
    let r = &report.result;
    let mut out = String::new();
    let _ = writeln!(out, "# Campaign forensics bundle — {job}\n");
    let _ = writeln!(
        out,
        "- build: {}\n- seed: {}\n- sequences: {}\n- steps per sequence: {}\n- divergences: {findings}\n",
        r.build.label(),
        report.seed,
        r.records.len(),
        r.steps_per_sequence
    );

    out.push_str("## Rediscovered defect signatures\n\n");
    let rows = report.rediscovery_rows();
    if rows.is_empty() {
        out.push_str("None — the build matched the reference model everywhere.\n");
    } else {
        out.push_str("| class | cause | hypercall | sequences | min steps |\n");
        out.push_str("|---|---|---|---|---|\n");
        for row in &rows {
            let _ = writeln!(
                out,
                "| {} | {:?} | {} | {} | {} |",
                row.signature.classification.class.label(),
                row.signature.classification.cause,
                row.signature
                    .hypercall
                    .map(|h| h.name().to_string())
                    .unwrap_or_else(|| "<none>".into()),
                row.sequences,
                row.example.len()
            );
        }
    }

    render_metrics_markdown(&mut out, &r.metrics);
    out
}

/// Writes a self-contained forensics bundle for every divergence in a
/// (recorded) sequence campaign: `metrics.prom` + `telemetry.jsonl`
/// snapshots at the root, one `finding-NNN/` directory per divergence
/// (`report.md`, `repro.seq`, `trace.json` when a flight exists), and
/// an indexing `summary.md`.
pub fn write_forensics_bundle(
    dir: &Path,
    job: &str,
    report: &SequenceReport,
) -> io::Result<BundleSummary> {
    let r = &report.result;
    let mut bundle = Bundle::create(dir, job, &r.metrics)?;
    let divergences = r.divergences();
    for (n, rec) in divergences.iter().enumerate() {
        let header = format!(
            "sequence {} seed {:#018x} class {}",
            rec.spec.index,
            rec.spec.seed,
            rec.verdict.classification.class.label()
        );
        let md = render_finding_markdown(n, rec, r.build);
        bundle.put_finding(n, rec, &header, &md, r.flight.as_ref(), &eagleeye_flight_names())?;
    }
    let summary = render_summary_markdown(job, report, divergences.len());
    bundle.finish(summary, divergences.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequences::run_eagleeye_sequences;
    use skrt::fuzz::parse_steps;
    use skrt::sequence::SequenceOptions;
    use xtratum::vuln::KernelBuild;

    fn bundle_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skrt-forensics-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn legacy_bundle_is_self_contained() {
        let opts = SequenceOptions {
            build: KernelBuild::Legacy,
            threads: 2,
            record: true,
            ..SequenceOptions::default()
        };
        let report = run_eagleeye_sequences(7, 30, 8, &opts);
        assert!(
            !report.result.divergences().is_empty(),
            "legacy run must diverge for the bundle test to bite"
        );
        let dir = bundle_dir("legacy");
        let summary = write_forensics_bundle(&dir, "seq-legacy", &report).expect("bundle writes");
        assert_eq!(summary.findings, report.result.divergences().len());

        // Root snapshots.
        let prom = fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("# TYPE skrt_tests_executed counter"));
        assert!(prom.trim_end().ends_with("# EOF"));
        let md = fs::read_to_string(dir.join("summary.md")).unwrap();
        assert!(md.contains("# Campaign forensics bundle — seq-legacy"));
        assert!(md.contains("| class | cause | hypercall |"));
        assert!(md.contains("Hypercall latency"), "recorded run carries latency rows:\n{md}");

        // Per-finding artifacts: replayable repro, markdown report with
        // the digest diff and final state, and a Perfetto trace.
        let f0 = dir.join("finding-000");
        let seq = fs::read_to_string(f0.join("repro.seq")).unwrap();
        let parsed = parse_steps(&seq).expect("repro.seq parses back");
        assert!(!parsed.is_empty());
        let rep = fs::read_to_string(f0.join("report.md")).unwrap();
        assert!(rep.contains("## StateDigest diff at first bad step"));
        assert!(rep.contains("## Final kernel state"));
        let trace = fs::read_to_string(f0.join("trace.json")).unwrap();
        assert!(trace.starts_with("{\"displayTimeUnit\""));

        // The summary indexes every written file.
        for f in &summary.files {
            assert!(dir.join(f).exists(), "{} missing", f.display());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn patched_bundle_has_no_findings() {
        let opts = SequenceOptions {
            build: KernelBuild::Patched,
            threads: 2,
            ..SequenceOptions::default()
        };
        let report = run_eagleeye_sequences(7, 10, 6, &opts);
        let dir = bundle_dir("patched");
        let summary = write_forensics_bundle(&dir, "seq-patched", &report).expect("bundle writes");
        assert_eq!(summary.findings, 0);
        let md = fs::read_to_string(dir.join("summary.md")).unwrap();
        assert!(md.contains("None — the build matched the reference model everywhere."));
        assert!(!dir.join("finding-000").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

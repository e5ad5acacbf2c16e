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
use crate::sequences::{signature_of, SequenceReport};
use eagleeye::EagleEye;
use skrt::flight::{export_chrome_trace, FlightLog};
use skrt::sequence::{run_one_sequence, SequenceRecord};
use skrt::testbed::Testbed;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use xtratum::hypercall::RawHypercall;

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

pub(crate) fn put(
    root: &Path,
    files: &mut Vec<PathBuf>,
    rel: &str,
    contents: &str,
) -> io::Result<()> {
    let path = root.join(rel);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(&path, contents)?;
    files.push(PathBuf::from(rel));
    Ok(())
}

/// Steps in the corpus-file format [`skrt::fuzz::parse_steps`] reads
/// back: one `XM_name hexarg …` line per step.
pub(crate) fn render_steps_file(header: &str, steps: &[RawHypercall]) -> String {
    let mut out = format!("# {header}\n");
    for step in steps {
        out.push_str(step.id.name());
        for a in step.args() {
            let _ = write!(out, " {a:#x}");
        }
        out.push('\n');
    }
    out
}

/// The reproducer the bundle ships: the minimal steps when shrinking
/// ran, the generated steps otherwise.
fn repro_steps(rec: &SequenceRecord) -> &[RawHypercall] {
    rec.minimal.as_ref().map(|m| m.steps.as_slice()).unwrap_or(&rec.spec.steps)
}

/// Replays the reproducer on a fresh EagleEye boot and renders the
/// kernel's final architectural state digest.
fn render_final_state(rec: &SequenceRecord, report: &SequenceReport) -> String {
    let testbed = &EagleEye;
    let ctx = testbed.oracle_context(report.result.build);
    let (mut kernel, mut guests) = testbed.boot(report.result.build);
    let eval = run_one_sequence(testbed, &ctx, &mut kernel, &mut guests, repro_steps(rec), 1);
    let digest = kernel.state_digest(testbed.test_partition());
    format!(
        "steps executed: {} of {}\n\n{digest:#?}\n",
        eval.steps_executed,
        repro_steps(rec).len()
    )
}

fn render_finding_markdown(n: usize, rec: &SequenceRecord, report: &SequenceReport) -> String {
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

    match &rec.minimal {
        Some(m) => {
            let _ = writeln!(
                out,
                "\n## Minimal reproducer ({} of {} steps, {} args canonicalized, {} evals)\n",
                m.steps.len(),
                rec.spec.steps.len(),
                m.shrunk_args,
                m.evals
            );
            out.push_str("```\n");
            for (i, step) in m.steps.iter().enumerate() {
                let marker = if m.verdict.failing_step == Some(i) { ">" } else { " " };
                let _ = writeln!(out, "{marker} {i}: {step}");
            }
            out.push_str("```\n");
        }
        None => {
            let _ = writeln!(out, "\n## Sequence (unshrunk)\n");
            out.push_str("```\n");
            for (i, step) in rec.spec.steps.iter().enumerate().take(rec.steps_executed + 1) {
                let marker = if rec.verdict.failing_step == Some(i) { ">" } else { " " };
                let _ = writeln!(out, "{marker} {i}: {step}");
            }
            out.push_str("```\n");
        }
    }

    out.push_str("\n## StateDigest diff at first bad step\n\n```\n");
    if rec.verdict.state_diff.is_empty() {
        out.push_str("(terminal verdict — no surviving state to diff)\n");
    } else {
        for line in &rec.verdict.state_diff {
            let _ = writeln!(out, "{line}");
        }
    }
    out.push_str("```\n");

    out.push_str("\n## Final kernel state (reproducer replay)\n\n```\n");
    out.push_str(&render_final_state(rec, report));
    out.push_str("```\n");

    out.push_str("\nFiles: `repro.seq` (replayable steps)");
    out.push_str(", `trace.json` (Perfetto, when the run recorded)\n");
    out
}

fn render_summary_markdown(
    job: &str,
    report: &SequenceReport,
    findings: usize,
    files: &[PathBuf],
) -> String {
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

    if !r.metrics.hc_latency.is_empty() {
        out.push_str("\n## Hypercall latency (µs)\n\n");
        out.push_str("| hypercall | count | mean | max |\n|---|---|---|---|\n");
        for row in &r.metrics.hc_latency {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {} |",
                row.name,
                row.count,
                row.mean_us(),
                row.max_us
            );
        }
    }

    out.push_str("\n## Run metrics\n\n```\n");
    out.push_str(&r.metrics.render());
    out.push_str("```\n");

    out.push_str("\n## Bundle contents\n\n");
    for f in files {
        let _ = writeln!(out, "- `{}`", f.display());
    }
    let _ = writeln!(out, "- `summary.md`");
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
    fs::create_dir_all(dir)?;
    let mut files: Vec<PathBuf> = Vec::new();

    let registry = report.result.metrics.telemetry(job);
    put(dir, &mut files, "metrics.prom", &registry.render_openmetrics())?;
    put(dir, &mut files, "telemetry.jsonl", &registry.render_jsonl())?;

    let divergences = report.result.divergences();
    for (n, rec) in divergences.iter().enumerate() {
        let header = format!(
            "sequence {} seed {:#018x} class {}",
            rec.spec.index,
            rec.spec.seed,
            rec.verdict.classification.class.label()
        );
        put(
            dir,
            &mut files,
            &format!("finding-{n:03}/repro.seq"),
            &render_steps_file(&header, repro_steps(rec)),
        )?;
        put(
            dir,
            &mut files,
            &format!("finding-{n:03}/report.md"),
            &render_finding_markdown(n, rec, report),
        )?;
        if let Some(log) = &report.result.flight {
            if let Some(flight) = log.tests.iter().find(|f| f.index == rec.spec.index) {
                let single = FlightLog { tests: vec![flight.clone()] };
                let json = export_chrome_trace(&single, &[], &eagleeye_flight_names());
                put(dir, &mut files, &format!("finding-{n:03}/trace.json"), &json)?;
            }
        }
    }

    let summary = render_summary_markdown(job, report, divergences.len(), &files);
    put(dir, &mut files, "summary.md", &summary)?;
    Ok(BundleSummary { root: dir.to_path_buf(), findings: divergences.len(), files })
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

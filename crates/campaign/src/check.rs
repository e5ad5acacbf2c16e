//! `campaign check` — report rendering and forensics bundles for the
//! exhaustive small-scope isolation checker ([`skrt::check`]).
//!
//! The checker's counterexamples are first-class findings: each one
//! ships through the same triage pipeline as fuzz/sequence divergences
//! — a replayable `repro.seq` in the corpus-file format, a markdown
//! report with the oracle verdict, the kernel-side invariant witnesses
//! and a final-state replay, plus a Perfetto trace when the run
//! recorded — all indexed from a rendered summary.

use crate::forensics::{put, render_metrics_markdown, render_steps_file, BundleSummary};
use skrt::check::{legacy_rediscovery_targets, CheckCaseRecord, CheckResult, CheckTestbed};
use skrt::flight::{export_chrome_trace, FlightLog, FlightNames};
use skrt::sequence::run_one_sequence;
use skrt::testbed::Testbed;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use xtratum::hypercall::RawHypercall;
use xtratum::vuln::KernelBuild;

/// Partition names for flight rendering: the checker's partitions are
/// anonymous (`part0` is the caller), sized to the scope's maximum.
pub fn check_flight_names(max_partitions: u32) -> FlightNames {
    FlightNames { partitions: (0..max_partitions).map(|p| format!("part{p}")).collect() }
}

/// The reproducer a finding ships: the shrunk steps when shrinking
/// succeeded, the probe's generated steps otherwise.
fn repro_steps(case: &CheckCaseRecord) -> &[RawHypercall] {
    case.minimal.as_ref().map(|m| m.steps.as_slice()).unwrap_or(&case.steps)
}

/// Replays the reproducer on a fresh boot of the finding's exact
/// configuration and renders the final architectural state digest.
fn render_final_state(case: &CheckCaseRecord, build: KernelBuild) -> String {
    let testbed = CheckTestbed::new(case.config.clone());
    let ctx = testbed.oracle_context(build);
    let (mut kernel, mut guests) = testbed.boot(build);
    let eval = run_one_sequence(&testbed, &ctx, &mut kernel, &mut guests, repro_steps(case), 1);
    let digest = kernel.state_digest(testbed.test_partition());
    format!(
        "steps executed: {} of {}\n\n{digest:#?}\n",
        eval.steps_executed,
        repro_steps(case).len()
    )
}

fn render_finding_markdown(n: usize, case: &CheckCaseRecord, build: KernelBuild) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Finding {n:03} — {} ({:?})\n",
        case.crash_class().label(),
        case.verdict.classification.cause
    );
    let _ = writeln!(out, "- configuration: {}", case.config.describe());
    let _ = writeln!(out, "- probe: {} (case #{})", case.probe, case.index);
    let _ = writeln!(
        out,
        "- failing step: {}",
        case.verdict.failing_step.map(|s| s.to_string()).unwrap_or_else(|| "?".into())
    );
    let _ = writeln!(out, "- steps executed: {}", case.steps_executed);

    if !case.violations.is_empty() {
        out.push_str("\n## Isolation invariant witnesses (kernel-side)\n\n");
        for v in &case.violations {
            let _ = writeln!(out, "- **{}** — {}", v.kind.label(), v.detail);
        }
    }

    match &case.minimal {
        Some(m) => {
            let _ = writeln!(
                out,
                "\n## Minimal reproducer ({} of {} steps, {} args canonicalized, {} evals)\n",
                m.steps.len(),
                case.steps.len(),
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
            let _ = writeln!(out, "\n## Probe steps (unshrunk)\n");
            out.push_str("```\n");
            for (i, step) in case.steps.iter().enumerate() {
                let marker = if case.verdict.failing_step == Some(i) { ">" } else { " " };
                let _ = writeln!(out, "{marker} {i}: {step}");
            }
            out.push_str("```\n");
        }
    }

    out.push_str("\n## StateDigest diff at first bad step\n\n```\n");
    if case.verdict.state_diff.is_empty() {
        out.push_str("(terminal verdict or invariant-only finding — no oracle diff)\n");
    } else {
        for line in &case.verdict.state_diff {
            let _ = writeln!(out, "{line}");
        }
    }
    out.push_str("```\n");

    out.push_str("\n## Final kernel state (reproducer replay)\n\n```\n");
    out.push_str(&render_final_state(case, build));
    out.push_str("```\n");

    out.push_str("\nFiles: `repro.seq` (replayable steps)");
    out.push_str(", `trace.json` (Perfetto, when the run recorded)\n");
    out
}

/// The `campaign check` console report: scope and enumeration counts,
/// the verdict histogram, the invariant-witness tally, and — on the
/// legacy build — the known-defect rediscovery table.
pub fn render_check_report(res: &CheckResult) -> String {
    let mut out = String::new();
    let findings = res.findings();
    let _ = writeln!(out, "# Small-scope isolation check — {} build\n", res.build.label());
    let _ = writeln!(
        out,
        "- scope: ≤{} partitions, ≤{} slots/MAF, horizon {} frames",
        res.scope.partitions, res.scope.slots, res.scope.horizon
    );
    let _ = writeln!(out, "- configurations enumerated: {}", res.configs);
    let _ = writeln!(out, "- cases executed: {}", res.cases.len());
    let _ = writeln!(out, "- counterexamples: {}", findings.len());

    let mut by_class: BTreeMap<&'static str, usize> = BTreeMap::new();
    for case in &res.cases {
        *by_class.entry(case.crash_class().label()).or_default() += 1;
    }
    out.push_str("\n## Verdicts\n\n| class | cases |\n|---|---|\n");
    for (label, n) in &by_class {
        let _ = writeln!(out, "| {label} | {n} |");
    }

    let mut by_invariant: BTreeMap<&'static str, usize> = BTreeMap::new();
    for case in &res.cases {
        for v in &case.violations {
            *by_invariant.entry(v.kind.label()).or_default() += 1;
        }
    }
    if !by_invariant.is_empty() {
        out.push_str("\n## Isolation invariant witnesses\n\n| invariant | cases |\n|---|---|\n");
        for (label, n) in &by_invariant {
            let _ = writeln!(out, "| {label} | {n} |");
        }
    }

    if res.build == KernelBuild::Legacy {
        let expressing = res
            .cases
            .iter()
            .filter(|c| c.probe == "baseline")
            .filter(|c| c.config.caller_scheduled())
            .count();
        out.push_str("\n## Known-defect rediscovery (by construction)\n\n");
        out.push_str("| defect | configs found | configs expressing |\n|---|---|---|\n");
        for (label, matches) in legacy_rediscovery_targets() {
            let hits = findings.iter().filter(|c| matches(c)).count();
            let _ = writeln!(out, "| {label} | {hits} | {expressing} |");
        }
    }

    render_metrics_markdown(&mut out, &res.metrics);
    out
}

/// Writes a self-contained forensics bundle for every counterexample
/// the checker produced: `metrics.prom` + `telemetry.jsonl` snapshots
/// at the root, one `finding-NNN/` directory per counterexample
/// (`report.md`, `repro.seq`, `trace.json` when a flight exists), and
/// an indexing `summary.md` embedding the console report.
pub fn write_check_bundle(dir: &Path, job: &str, res: &CheckResult) -> io::Result<BundleSummary> {
    fs::create_dir_all(dir)?;
    let mut files: Vec<PathBuf> = Vec::new();

    let registry = res.metrics.telemetry(job);
    put(dir, &mut files, "metrics.prom", &registry.render_openmetrics())?;
    put(dir, &mut files, "telemetry.jsonl", &registry.render_jsonl())?;

    let names = check_flight_names(res.scope.partitions);
    let findings = res.findings();
    for (n, case) in findings.iter().enumerate() {
        let header = format!(
            "check case {} config [{}] probe {} class {}",
            case.index,
            case.config.describe(),
            case.probe,
            case.crash_class().label()
        );
        put(
            dir,
            &mut files,
            &format!("finding-{n:03}/repro.seq"),
            &render_steps_file(&header, repro_steps(case)),
        )?;
        put(
            dir,
            &mut files,
            &format!("finding-{n:03}/report.md"),
            &render_finding_markdown(n, case, res.build),
        )?;
        if let Some(log) = &res.flight {
            if let Some(flight) = log.tests.iter().find(|f| f.index == case.index) {
                let single = FlightLog { tests: vec![flight.clone()] };
                let json = export_chrome_trace(&single, &[], &names);
                put(dir, &mut files, &format!("finding-{n:03}/trace.json"), &json)?;
            }
        }
    }

    let mut summary = render_check_report(res);
    summary.push_str("\n## Bundle contents\n\n");
    for f in &files {
        let _ = writeln!(summary, "- `{}`", f.display());
    }
    summary.push_str("- `summary.md`\n");
    put(dir, &mut files, "summary.md", &summary)?;
    Ok(BundleSummary { root: dir.to_path_buf(), findings: findings.len(), files })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skrt::check::{run_check, CheckOptions};
    use skrt::fuzz::parse_steps;
    use skrt::CrashClass;

    fn bundle_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skrt-check-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The full round trip: checker counterexample → bundle → the
    /// shipped `repro.seq` parses back and replays to the finding's
    /// classification on a fresh boot of its exact configuration.
    #[test]
    fn legacy_check_bundle_round_trips_reproducers() {
        let opts = CheckOptions {
            build: KernelBuild::Legacy,
            threads: 2,
            record: true,
            ..Default::default()
        };
        let res = run_check(&opts);
        assert!(!res.findings().is_empty(), "legacy check must find counterexamples");
        let dir = bundle_dir("legacy");
        let summary = write_check_bundle(&dir, "check-legacy", &res).expect("bundle writes");
        assert_eq!(summary.findings, res.findings().len());

        let md = fs::read_to_string(dir.join("summary.md")).unwrap();
        assert!(md.contains("# Small-scope isolation check — XtratuM (legacy"));
        assert!(md.contains("## Known-defect rediscovery"));
        let prom = fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.trim_end().ends_with("# EOF"));

        for (n, case) in res.findings().iter().enumerate() {
            let f = dir.join(format!("finding-{n:03}"));
            let seq = fs::read_to_string(f.join("repro.seq")).unwrap();
            let steps = parse_steps(&seq).expect("repro.seq parses back");
            assert_eq!(steps.len(), repro_steps(case).len());

            // Replay on a fresh boot of the finding's configuration:
            // same classification as the recorded verdict.
            let tb = CheckTestbed::new(case.config.clone());
            let ctx = tb.oracle_context(res.build);
            let (mut kernel, mut guests) = tb.boot(res.build);
            let eval = run_one_sequence(&tb, &ctx, &mut kernel, &mut guests, &steps, 1);
            let expected = case
                .minimal
                .as_ref()
                .map(|m| m.verdict.classification)
                .unwrap_or(case.verdict.classification);
            assert_eq!(
                eval.verdict.classification,
                expected,
                "finding {n} ({} / {}) did not replay",
                case.config.describe(),
                case.probe
            );

            let rep = fs::read_to_string(f.join("report.md")).unwrap();
            assert!(rep.contains("## Final kernel state"));
            if !case.violations.is_empty() {
                assert!(rep.contains("## Isolation invariant witnesses"));
            }
            assert!(f.join("trace.json").exists(), "recorded run ships traces");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn patched_check_bundle_is_clean() {
        let opts = CheckOptions { build: KernelBuild::Patched, threads: 2, ..Default::default() };
        let res = run_check(&opts);
        assert!(res.cases.iter().all(|c| c.crash_class() == CrashClass::Pass));
        let dir = bundle_dir("patched");
        let summary = write_check_bundle(&dir, "check-patched", &res).expect("bundle writes");
        assert_eq!(summary.findings, 0);
        assert!(!dir.join("finding-000").exists());
        let md = fs::read_to_string(dir.join("summary.md")).unwrap();
        assert!(md.contains("- counterexamples: 0"));
        let _ = fs::remove_dir_all(&dir);
    }
}

//! `campaign check` — report rendering and forensics bundles for the
//! exhaustive small-scope isolation checker ([`skrt::check`]).
//!
//! The checker's counterexamples are first-class findings: each one
//! ships through the same triage pipeline as fuzz/sequence divergences
//! — a replayable `repro.seq` in the corpus-file format, a markdown
//! report with the oracle verdict, the kernel-side invariant witnesses
//! and a final-state replay, plus a Perfetto trace when the run
//! recorded — all indexed from a rendered summary.

use crate::forensics::{render_metrics_markdown, render_repro_sections, Bundle, BundleSummary};
use skrt::check::{legacy_rediscovery_targets, CheckCaseRecord, CheckResult, CheckTestbed};
use skrt::flight::FlightNames;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use xtratum::vuln::KernelBuild;

/// Partition names for flight rendering: the checker's partitions are
/// anonymous (`part0` is the caller), sized to the scope's maximum.
pub fn check_flight_names(max_partitions: u32) -> FlightNames {
    FlightNames { partitions: (0..max_partitions).map(|p| format!("part{p}")).collect() }
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
    render_repro_sections(
        &mut out,
        case,
        ("Probe steps (unshrunk)", case.steps.len()),
        "(terminal verdict or invariant-only finding — no oracle diff)",
        &CheckTestbed::new(case.config.clone()),
        build,
    );
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
    let mut bundle = Bundle::create(dir, job, &res.metrics)?;
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
        let md = render_finding_markdown(n, case, res.build);
        bundle.put_finding(n, case, &header, &md, res.flight.as_ref(), &names)?;
    }
    bundle.finish(render_check_report(res), findings.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forensics::repro_steps;
    use skrt::check::{run_check, CheckOptions};
    use skrt::fuzz::parse_steps;
    use skrt::sequence::run_one_sequence;
    use skrt::testbed::Testbed;
    use skrt::CrashClass;
    use std::fs;
    use std::path::PathBuf;

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

//! `skrt-repro` — command-line front-end for the robustness-testing
//! toolset.
//!
//! ```text
//! skrt-repro campaign [--build legacy|patched] [--threads N] [--trace FILE] [--record FILE]
//! skrt-repro campaign sweep [--tests N] [--build ...]         full cartesian invocation space
//! skrt-repro campaign sequences [--seed N] [--count N] [--steps N] [--build ...]
//! skrt-repro campaign fuzz [--seed N] [--execs N] [--time SECS] [--corpus-dir DIR] [--build ...]
//! skrt-repro campaign check [--partitions N] [--slots N] [--horizon N] [--build ...]
//! skrt-repro campaign report [--out DIR] [--build ...]       triage forensics bundle
//! skrt-repro sweep    [--build legacy|patched]      file-driven automatic sweep
//! skrt-repro suite <XM_hypercall> [--build ...]     one hypercall's suites
//! skrt-repro mutant <XM_hypercall> <case-index>     print the C fault placeholder
//! skrt-repro triage <XM_hypercall> <case-index>     re-run one test with the flight recorder
//! skrt-repro specgen [--out DIR]                    write the two XML spec files
//! skrt-repro tables                                 print Tables I and II
//! ```

use eagleeye::EagleEye;
use skrt::apispec::{api_header_doc, data_type_doc};
use skrt::exec::{run_campaign, CampaignOptions};
use skrt::mutant::MutantSpec;
use skrt::report::{
    campaign_table, distribution, render_distribution, render_issues, render_table,
};
use skrt::suite::CampaignSpec;
use skrt::{LiveStats, MetricsReport};
use xm_campaign::{
    automatic_campaign, paper_campaign, paper_dictionary, run_paper_campaign,
    run_paper_campaign_with,
};
use xtratum::hypercall::HypercallId;
use xtratum::vuln::KernelBuild;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("mutant") => cmd_mutant(&args[1..]),
        Some("triage") => cmd_triage(&args[1..]),
        Some("specgen") => cmd_specgen(&args[1..]),
        Some("coverage") => cmd_coverage(&args[1..]),
        Some("tables") => Ok(cmd_tables()),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", usage());
            Ok(0)
        }
        Some(other) => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    }));
}

fn usage() -> &'static str {
    "skrt-repro — separation kernel robustness testing (XtratuM case study)\n\
     \n\
     USAGE:\n\
     \x20 skrt-repro campaign [--build legacy|patched] [--threads N]\n\
     \x20                     [--trace FILE] [--record FILE]\n\
     \x20                     [--metrics] [--metrics-out FILE]\n\
     \x20                     [--live-stats FILE [--live-interval SECS]]\n\
     \x20     Run the full 2662-test Table III campaign on the EagleEye testbed.\n\
     \x20     --trace writes a JSONL per-test trace; --record runs the kernel\n\
     \x20     flight recorder and writes a Perfetto/Chrome trace.json (open at\n\
     \x20     https://ui.perfetto.dev); --metrics prints run counters (with\n\
     \x20     per-hypercall latency and executor phase timers when recording);\n\
     \x20     --metrics-out exports the telemetry registry (OpenMetrics text for\n\
     \x20     .prom paths, JSONL otherwise); --live-stats streams heartbeat JSONL\n\
     \x20     (throughput, ETA, verdicts) while running. Results are\n\
     \x20     byte-identical with telemetry on or off.\n\
     \x20 skrt-repro campaign sweep [--tests N] [--build legacy|patched] [--threads N]\n\
     \x20                     [--trace FILE] [--record FILE] [--metrics]\n\
     \x20     Run the full cartesian invocation space: every hypercall in the API\n\
     \x20     header crossed with its complete dictionary product (61 suites,\n\
     \x20     4976 tests) instead of the sampled 2662. --tests N scales the run:\n\
     \x20     truncates below 4976, cycles the case list deterministically above\n\
     \x20     it (e.g. --tests 1000000 for a soak run); every test executes.\n\
     \x20 skrt-repro campaign sequences [--seed N] [--count N] [--steps N]\n\
     \x20                     [--build legacy|patched] [--threads N]\n\
     \x20                     [--record FILE] [--no-shrink]\n\
     \x20                     [--metrics] [--metrics-out FILE]\n\
     \x20     Run a stateful sequence campaign: seeded multi-hypercall sequences\n\
     \x20     judged step-by-step by the differential state oracle; failures are\n\
     \x20     shrunk to minimal reproducers with a state-diff triage bundle.\n\
     \x20     Exit code 1 when any sequence diverges. --record keeps the minimal\n\
     \x20     reproducers' flight recordings as a Perfetto trace.\n\
     \x20 skrt-repro campaign fuzz [--seed N] [--execs N] [--time SECS]\n\
     \x20                     [--build legacy|patched] [--threads N] [--batch N]\n\
     \x20                     [--steps N] [--corpus-dir DIR] [--stats FILE]\n\
     \x20                     [--record FILE] [--no-shrink] [--metrics]\n\
     \x20                     [--metrics-out FILE] [--replay FILE]\n\
     \x20                     [--live-stats FILE [--live-interval SECS]]\n\
     \x20     Coverage-guided greybox sequence fuzzing: hypercall/HM/scheduler\n\
     \x20     flight streams and per-frame state digests feed an edge-coverage\n\
     \x20     map; coverage-novel sequences join an evolving corpus that seeds\n\
     \x20     the mutation engine. Fully deterministic for a fixed seed and\n\
     \x20     --execs budget, whatever the thread count. --corpus-dir writes one\n\
     \x20     replayable file per corpus entry; --stats streams per-round JSONL\n\
     \x20     (with coverage occupancy, corpus composition, hottest edges and\n\
     \x20     the rounds-since-novel plateau signal); --record adds coverage and\n\
     \x20     throughput counter tracks to the Perfetto trace; --replay\n\
     \x20     re-executes one corpus/finding file and prints the verdict.\n\
     \x20     Exit code 1 when any divergence is found.\n\
     \x20 skrt-repro campaign check [--build legacy|patched] [--partitions N]\n\
     \x20                     [--slots N] [--horizon N] [--threads N] [--out DIR]\n\
     \x20                     [--record FILE] [--metrics] [--metrics-out FILE]\n\
     \x20     Exhaustive small-scope isolation model checking: enumerate EVERY\n\
     \x20     configuration up to the scope bound (partition counts, cyclic-plan\n\
     \x20     slot assignments, channel topologies) and run kernel + state model\n\
     \x20     in lockstep over a per-config probe set, asserting temporal and\n\
     \x20     spatial isolation invariants against the kernel independently of\n\
     \x20     the oracle. Counterexamples are re-verdicted from a fresh boot,\n\
     \x20     shrunk to minimal reproducers, and — with --out — shipped as a\n\
     \x20     self-contained forensics bundle. Results are byte-identical across\n\
     \x20     thread counts. Exit code 1 when any counterexample is found.\n\
     \x20 skrt-repro campaign report [--out DIR] [--build legacy|patched] [--seed N]\n\
     \x20                     [--count N] [--steps N] [--threads N]\n\
     \x20     Run a recorded sequence campaign and write a self-contained triage\n\
     \x20     forensics bundle: per-divergence directories with the shrunk\n\
     \x20     reproducer (repro.seq), a markdown report (StateDigest diff at the\n\
     \x20     first bad step, final kernel state), a Perfetto trace, plus run-wide\n\
     \x20     OpenMetrics/JSONL telemetry snapshots and an indexing summary.md.\n\
     \x20     Exit code 1 when the bundle documents any divergence.\n\
     \x20 skrt-repro sweep [--build legacy|patched]\n\
     \x20     Run the fully automatic file-driven sweep over all 61 hypercalls.\n\
     \x20 skrt-repro suite <XM_hypercall> [--build legacy|patched]\n\
     \x20     Run only the campaign suites of one hypercall, with per-test detail.\n\
     \x20 skrt-repro mutant <XM_hypercall> <case-index>\n\
     \x20     Print the generated C fault-placeholder source for one dataset.\n\
     \x20 skrt-repro triage <XM_hypercall> <case-index> [--build legacy|patched]\n\
     \x20                   [--last N] [--record FILE]\n\
     \x20     Re-run one campaign case with the flight recorder on; when the\n\
     \x20     verdict is Catastrophic/Restart/Abort, dump the last N events\n\
     \x20     (default 40) and the final kernel state. --record also writes the\n\
     \x20     single-test Perfetto trace.\n\
     \x20 skrt-repro specgen [--out DIR]\n\
     \x20     Write specs/xm_api.xml and specs/xm_datatypes.xml (Figs. 2-3).\n\
     \x20 skrt-repro coverage [--build legacy|patched]\n\
     \x20     Response-coverage report: distinct kernel responses per hypercall.\n\
     \x20 skrt-repro tables\n\
     \x20     Print Table I (data types) and Table II (test-value example).\n"
}

fn parse_build(args: &[String]) -> Result<KernelBuild, String> {
    match flag_value(args, "--build").as_deref() {
        None | Some("legacy") => Ok(KernelBuild::Legacy),
        Some("patched") => Ok(KernelBuild::Patched),
        Some(other) => Err(format!("unknown build '{other}' (use legacy|patched)")),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The most cases one campaign runs (`--tests`, `--count`): the parallel
/// executor indexes them with `u32`.
const MAX_CASES: usize = u32::MAX as usize;

/// `flag N`: `default` when the flag is absent, an error when its value
/// is missing or does not parse.
fn num_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    if !has_flag(args, flag) {
        return Ok(default);
    }
    let value = flag_value(args, flag).ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: '{value}' is not a valid number"))
}

/// A duration flag's value: a positive number of seconds that fits a
/// `Duration` (`inf`, `nan` and `1e300` do not).
fn positive_secs(value: &str) -> Option<std::time::Duration> {
    let secs = value.parse::<f64>().ok().filter(|&v| v > 0.0)?;
    std::time::Duration::try_from_secs_f64(secs).ok()
}

/// `--live-stats FILE [--live-interval SECS]` (default 1 s).
fn parse_live_stats(args: &[String]) -> Result<Option<LiveStats>, String> {
    let Some(path) = flag_value(args, "--live-stats") else {
        return Ok(None);
    };
    let interval = match flag_value(args, "--live-interval") {
        Some(s) => {
            positive_secs(&s).ok_or("--live-interval must be a positive number of seconds")?
        }
        None => std::time::Duration::from_secs(1),
    };
    Ok(Some(LiveStats::new(path.into(), interval)))
}

/// The flags every `campaign` mode shares, parsed once, and the post-run
/// steps they drive.
struct RunFlags {
    build: KernelBuild,
    /// `--threads N` (0 = one per available core).
    threads: usize,
    /// `--record FILE`: Perfetto trace destination.
    record: Option<String>,
    /// `--metrics`: print run counters.
    metrics: bool,
    /// `--metrics-out FILE`: telemetry snapshot destination.
    metrics_out: Option<String>,
    live_stats: Option<LiveStats>,
}

impl RunFlags {
    /// Parses the shared flags. `live` says whether the mode streams
    /// `--live-stats`; the others reject the flag instead of ignoring it.
    fn parse(args: &[String], live: bool) -> Result<Self, String> {
        if !live && has_flag(args, "--live-stats") {
            return Err("--live-stats is only available in `campaign`, `campaign sweep` \
                        and `campaign fuzz`"
                .into());
        }
        Ok(RunFlags {
            build: parse_build(args)?,
            threads: num_flag(args, "--threads", 0)?,
            record: flag_value(args, "--record"),
            metrics: has_flag(args, "--metrics"),
            metrics_out: flag_value(args, "--metrics-out"),
            live_stats: parse_live_stats(args)?,
        })
    }

    /// The steps every mode runs after its own report: the Perfetto trace
    /// (`perfetto` builds it, only when `--record` was given), the
    /// live-stats outcome, the `--metrics-out` snapshot tagged `job`, the
    /// `--metrics` printout, and the wall-clock line.
    fn finish(
        &self,
        job: &str,
        metrics: &MetricsReport,
        perfetto: impl FnOnce() -> Option<String>,
        live_stats_error: Option<&str>,
    ) -> Result<(), String> {
        if let Some(path) = &self.record {
            if let Some(json) = perfetto() {
                std::fs::write(path, json)
                    .map_err(|e| format!("cannot write Perfetto trace {path}: {e}"))?;
                println!("wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
            }
        }
        if let Some(e) = live_stats_error {
            eprintln!("warning: live-stats stream failed: {e}");
        } else if let Some(l) = &self.live_stats {
            println!("wrote live stats to {}", l.path.display());
        }
        if let Some(path) = &self.metrics_out {
            // OpenMetrics text for `.prom` paths, JSONL snapshots otherwise.
            let registry = metrics.telemetry(job);
            let text = if path.ends_with(".prom") {
                registry.render_openmetrics()
            } else {
                registry.render_jsonl()
            };
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote telemetry snapshot to {path}");
        }
        if self.metrics {
            println!();
            print!("{}", metrics.render());
        }
        println!("\ncompleted in {:.2?}", metrics.wall);
        Ok(())
    }
}

fn cmd_campaign(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("sequences") => return cmd_sequences(&args[1..]),
        Some("fuzz") => return cmd_fuzz(&args[1..]),
        Some("check") => return cmd_check(&args[1..]),
        Some("report") => return cmd_report(&args[1..]),
        _ => {}
    }
    let sweep = args.first().map(String::as_str) == Some("sweep");
    let args = if sweep { &args[1..] } else { args };
    let flags = RunFlags::parse(args, true)?;
    let max_tests = match flag_value(args, "--tests") {
        Some(_) if !sweep => {
            return Err("--tests is only available in `campaign sweep` mode".into())
        }
        Some(t) => match t.parse::<usize>() {
            Ok(n) if (1..=MAX_CASES).contains(&n) => Some(n),
            _ => {
                return Err(format!(
                    "campaign sweep: --tests must be a positive integer of at most {MAX_CASES}"
                ))
            }
        },
        None => None,
    };
    let opts = CampaignOptions {
        build: flags.build,
        threads: flags.threads,
        trace_path: flag_value(args, "--trace").map(Into::into),
        record: flags.record.is_some(),
        max_tests,
        live_stats: flags.live_stats.clone(),
    };
    let report = if sweep {
        xm_campaign::run_sweep_campaign_with(&opts)?
    } else {
        run_paper_campaign_with(&opts)
    };
    if sweep {
        println!(
            "campaign sweep: {} suites, {} tests executed, build {:?}\n",
            report.spec.suites.len(),
            report.result.records.len(),
            flags.build,
        );
    }
    match flag_value(args, "--format").as_deref() {
        None | Some("text") => print!("{}", report.render()),
        Some("md" | "markdown") => {
            println!("## Table III — {}\n", flags.build.label());
            print!("{}", skrt::report::render_table_markdown(&report.table));
            println!();
            print!("{}", skrt::report::render_issues_markdown(&report.issues));
        }
        Some(other) => return Err(format!("unknown format '{other}' (use text|md)")),
    }
    if let Some(path) = flag_value(args, "--csv") {
        let csv = skrt::report::records_to_csv(&report.result);
        std::fs::write(&path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote per-test records to {path}");
    }
    if let Some(e) = report.trace_error() {
        return Err(e.to_string());
    } else if let Some(path) = &opts.trace_path {
        println!("wrote JSONL trace to {}", path.display());
    }
    flags.finish(
        if sweep { "sweep" } else { "campaign" },
        report.metrics(),
        || {
            let flight = report.result.flight.as_ref()?;
            let names = xm_campaign::eagleeye_flight_names();
            Some(skrt::flight::export_chrome_trace(flight, &report.result.records, &names))
        },
        report.result.live_stats_error.as_deref(),
    )?;
    Ok(i32::from(!report.issues.is_empty()))
}

fn cmd_sequences(args: &[String]) -> Result<i32, String> {
    let flags = RunFlags::parse(args, false)?;
    let seed = num_flag(args, "--seed", 1)?;
    let count = num_flag(args, "--count", 500)?;
    let steps = num_flag(args, "--steps", 8)?;
    if steps == 0 || count == 0 {
        return Err("campaign sequences: --count and --steps must be positive".into());
    }
    if count > MAX_CASES {
        return Err(format!("campaign sequences: --count must be at most {MAX_CASES}"));
    }
    let opts = skrt::sequence::SequenceOptions {
        build: flags.build,
        threads: flags.threads,
        record: flags.record.is_some(),
        shrink: !has_flag(args, "--no-shrink"),
        ..Default::default()
    };
    let report = xm_campaign::run_eagleeye_sequences(seed, count, steps, &opts);
    print!("{}", report.render());
    flags.finish(
        "sequences",
        &report.result.metrics,
        || {
            let flight = report.result.flight.as_ref()?;
            let names = xm_campaign::eagleeye_flight_names();
            Some(skrt::flight::export_chrome_trace(flight, &[], &names))
        },
        None,
    )?;
    Ok(i32::from(!report.result.divergences().is_empty()))
}

/// `campaign check`: exhaustively enumerate the small-scope
/// configuration space and verify the kernel's isolation invariants in
/// lockstep with the state oracle.
fn cmd_check(args: &[String]) -> Result<i32, String> {
    let flags = RunFlags::parse(args, false)?;
    let defaults = skrt::CheckScope::default();
    let scope = skrt::CheckScope {
        partitions: num_flag(args, "--partitions", defaults.partitions)?,
        slots: num_flag(args, "--slots", defaults.slots)?,
        horizon: num_flag(args, "--horizon", defaults.horizon)?,
    };
    if scope.partitions == 0 || scope.slots == 0 || scope.horizon == 0 {
        return Err("campaign check: --partitions, --slots and --horizon must be positive".into());
    }
    if scope.partitions > 4 || scope.slots > 3 {
        return Err("campaign check: scope too large for exhaustive enumeration \
                    (max 4 partitions, 3 slots/MAF)"
            .into());
    }
    let out_dir = flag_value(args, "--out");
    let opts = skrt::CheckOptions {
        build: flags.build,
        scope,
        threads: flags.threads,
        record: flags.record.is_some() || out_dir.is_some(),
        ..Default::default()
    };
    let res = skrt::run_check(&opts);
    print!("{}", xm_campaign::render_check_report(&res));
    if let Some(out) = &out_dir {
        let job = format!("check-{}", build_tag(flags.build));
        let bundle = xm_campaign::write_check_bundle(std::path::Path::new(out), &job, &res)
            .map_err(|e| format!("cannot write bundle {out}: {e}"))?;
        println!(
            "\nforensics bundle: {} counterexample(s), {} file(s) under {}",
            bundle.findings,
            bundle.files.len(),
            bundle.root.display()
        );
        println!("start at {}/summary.md", bundle.root.display());
    }
    flags.finish(
        "check",
        &res.metrics,
        || {
            let flight = res.flight.as_ref()?;
            let names = xm_campaign::check_flight_names(res.scope.partitions);
            Some(skrt::flight::export_chrome_trace(flight, &[], &names))
        },
        None,
    )?;
    Ok(i32::from(!res.findings().is_empty()))
}

fn build_tag(build: KernelBuild) -> &'static str {
    match build {
        KernelBuild::Legacy => "legacy",
        KernelBuild::Patched => "patched",
    }
}

/// `campaign report`: run a recorded sequence campaign and write a
/// self-contained forensics bundle for every divergence.
fn cmd_report(args: &[String]) -> Result<i32, String> {
    let flags = RunFlags::parse(args, false)?;
    let out = flag_value(args, "--out").unwrap_or_else(|| "forensics".into());
    let seed = num_flag(args, "--seed", 1)?;
    let count = num_flag(args, "--count", 120)?;
    let steps = num_flag(args, "--steps", 8)?;
    if steps == 0 || count == 0 {
        return Err("campaign report: --count and --steps must be positive".into());
    }
    if count > MAX_CASES {
        return Err(format!("campaign report: --count must be at most {MAX_CASES}"));
    }
    let opts = skrt::sequence::SequenceOptions {
        build: flags.build,
        threads: flags.threads,
        record: true,
        ..Default::default()
    };
    let report = xm_campaign::run_eagleeye_sequences(seed, count, steps, &opts);
    let job = format!("sequences-{}", build_tag(flags.build));
    let bundle = xm_campaign::write_forensics_bundle(std::path::Path::new(&out), &job, &report)
        .map_err(|e| format!("cannot write bundle {out}: {e}"))?;
    println!(
        "forensics bundle: {} finding(s), {} file(s) under {}",
        bundle.findings,
        bundle.files.len(),
        bundle.root.display()
    );
    for f in &bundle.files {
        println!("  {}", f.display());
    }
    println!("start at {}/summary.md", bundle.root.display());
    Ok(i32::from(bundle.findings > 0))
}

fn cmd_fuzz(args: &[String]) -> Result<i32, String> {
    let flags = RunFlags::parse(args, true)?;

    // Replay mode: re-execute one corpus/finding file and report.
    if let Some(path) = flag_value(args, "--replay") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let steps = skrt::parse_steps(&text).map_err(|e| format!("{path}: {e}"))?;
        // Same steps-per-slot as the fuzzer's coverage-producing
        // evaluation, so the printed signature matches the corpus header.
        let steps_per_slot = skrt::FuzzOptions::default().steps_per_slot;
        let (coverage, verdict) =
            skrt::replay_coverage(&EagleEye, flags.build, &steps, steps_per_slot);
        println!("replay {path} on {} ({} steps):", flags.build.label(), steps.len());
        for (i, step) in steps.iter().enumerate() {
            let marker = if verdict.failing_step == Some(i) { ">" } else { " " };
            println!("  {marker} {i}: {step}");
        }
        println!(
            "verdict: {} ({:?})",
            verdict.classification.class.label(),
            verdict.classification.cause
        );
        for line in &verdict.state_diff {
            println!("    {line}");
        }
        println!(
            "coverage signature: {:016x} ({} cells)",
            coverage.signature,
            coverage.cells.len()
        );
        return Ok(i32::from(verdict.classification.class != skrt::CrashClass::Pass));
    }

    let max_time = match flag_value(args, "--time") {
        Some(t) => Some(
            positive_secs(&t)
                .ok_or("campaign fuzz: --time must be a positive number of seconds")?,
        ),
        None => None,
    };
    let defaults = skrt::FuzzOptions::default();
    let opts = skrt::FuzzOptions {
        build: flags.build,
        threads: flags.threads,
        seed: num_flag(args, "--seed", 1)?,
        max_execs: num_flag(args, "--execs", 1000)?,
        max_time,
        steps: num_flag(args, "--steps", defaults.steps)?,
        batch: num_flag(args, "--batch", defaults.batch)?,
        record: flags.record.is_some(),
        shrink: !has_flag(args, "--no-shrink"),
        live_stats: flags.live_stats.clone(),
        ..defaults
    };
    if opts.max_execs == 0 || opts.steps == 0 || opts.batch == 0 {
        return Err("campaign fuzz: --execs, --steps and --batch must be positive".into());
    }

    let report = xm_campaign::run_eagleeye_fuzz(&opts);
    print!("{}", report.render());

    if let Some(dir) = flag_value(args, "--corpus-dir") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for entry in &report.result.corpus {
            let path = dir.join(entry.file_name());
            std::fs::write(&path, entry.render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        println!("\nwrote {} corpus entries to {}", report.result.corpus.len(), dir.display());
    }
    if let Some(path) = flag_value(args, "--stats") {
        std::fs::write(&path, report.stats_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote JSONL stats to {path}");
    }
    flags.finish(
        "fuzz",
        &report.result.metrics,
        || {
            // Counter tracks ride along: coverage growth and per-round
            // throughput under the minimal-reproducer flights.
            let flight = report.result.flight.as_ref()?;
            Some(skrt::flight::export_chrome_trace_with_counters(
                flight,
                &[],
                &xm_campaign::eagleeye_flight_names(),
                &report.counter_series(),
            ))
        },
        report.result.live_stats_error.as_deref(),
    )?;
    Ok(i32::from(!report.result.findings.is_empty()))
}

fn cmd_sweep(args: &[String]) -> Result<i32, String> {
    let build = parse_build(args)?;
    let api = api_header_doc();
    let dict = paper_dictionary();
    let spec = automatic_campaign(&api, &dict)?;
    println!(
        "automatic sweep: {} suites, {} tests, build {build:?}",
        spec.suites.len(),
        spec.total_tests()
    );
    let result = run_campaign(&EagleEye, &spec, &CampaignOptions { build, ..Default::default() });
    let table = campaign_table(&spec, &result);
    print!("{}", render_table(&table));
    println!();
    print!("{}", render_distribution(&distribution(&spec)));
    println!();
    let issues = result.issues();
    print!("{}", render_issues(&issues));
    Ok(i32::from(!issues.is_empty()))
}

fn cmd_suite(args: &[String]) -> Result<i32, String> {
    let Some(name) = args.first() else {
        return Err("suite: missing hypercall name (e.g. XM_set_timer)".into());
    };
    let id = HypercallId::by_name(name).ok_or_else(|| format!("unknown hypercall '{name}'"))?;
    let build = parse_build(&args[1..])?;
    let report = xm_campaign::runner::run_hypercall_suites(build, id, 0);
    if report.result.records.is_empty() {
        println!("{name} is not part of the Table III campaign (untested hypercall).");
        return Ok(0);
    }
    for rec in &report.result.records {
        println!(
            "{:<52} expected {:<34} observed {:<34} => {}",
            rec.case.display_call(),
            format!("{:?}", rec.expectation.outcome),
            format!("{:?}", rec.observation.first()),
            rec.classification.class.label()
        );
    }
    println!();
    print!("{}", render_issues(&report.issues));
    Ok(i32::from(!report.issues.is_empty()))
}

fn cmd_mutant(args: &[String]) -> Result<i32, String> {
    let (Some(name), Some(idx)) = (args.first(), args.get(1)) else {
        return Err("mutant: usage: mutant <XM_hypercall> <case-index>".into());
    };
    let id = HypercallId::by_name(name).ok_or_else(|| format!("unknown hypercall '{name}'"))?;
    let idx: usize = idx.parse().map_err(|_| "mutant: case-index must be a number")?;
    let full = paper_campaign();
    let mut spec = CampaignSpec::new("mutant");
    for s in full.suites.into_iter().filter(|s| s.hypercall == id) {
        spec.push(s);
    }
    let cases = spec.all_cases();
    if cases.is_empty() {
        return Err(format!("{name} has no campaign suites"));
    }
    let Some(case) = cases.into_iter().nth(idx) else {
        return Err(format!("case-index out of range (suite has {} datasets)", spec.total_tests()));
    };
    print!("{}", MutantSpec::new(case).emit_c_source());
    Ok(0)
}

fn cmd_triage(args: &[String]) -> Result<i32, String> {
    let (Some(name), Some(idx)) = (args.first(), args.get(1)) else {
        return Err("triage: usage: triage <XM_hypercall> <case-index> [--build legacy|patched] \
                    [--last N] [--record FILE]"
            .into());
    };
    let id = HypercallId::by_name(name).ok_or_else(|| format!("unknown hypercall '{name}'"))?;
    let idx: usize = idx.parse().map_err(|_| "triage: case-index must be a number")?;
    let build = parse_build(&args[2..])?;
    let last_n = num_flag(args, "--last", 40)?;
    let report = xm_campaign::triage_case(build, id, idx)
        .ok_or_else(|| format!("{name} case-index {idx} is out of range"))?;
    if report.is_severe() {
        print!("{}", report.render(last_n));
    } else {
        println!(
            "triage: case #{} {}\nverdict: {} — no failure timeline to dump (use --last to inspect anyway)",
            report.case_index,
            report.record.case.display_call(),
            report.record.classification.class.label(),
        );
        if has_flag(args, "--last") {
            print!("{}", report.render(last_n));
        }
    }
    if let Some(path) = flag_value(args, "--record") {
        let mut flight = report.flight.clone();
        flight.index = 0;
        let log = skrt::flight::FlightLog { tests: vec![flight] };
        let json = skrt::flight::export_chrome_trace(
            &log,
            std::slice::from_ref(&report.record),
            &report.names,
        );
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write Perfetto trace {path}: {e}"))?;
        println!("wrote Perfetto trace to {path}");
    }
    Ok(0)
}

fn cmd_specgen(args: &[String]) -> Result<i32, String> {
    let out = flag_value(args, "--out").unwrap_or_else(|| "specs".into());
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let api = api_header_doc().to_xml();
    let dt = data_type_doc(&paper_dictionary()).to_xml();
    let camp = xm_campaign::campaign_to_xml(&paper_campaign());
    for (name, content) in
        [("xm_api.xml", &api), ("xm_datatypes.xml", &dt), ("xm_campaign.xml", &camp)]
    {
        let path = format!("{out}/{name}");
        std::fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} ({} bytes)", content.len());
    }
    Ok(0)
}

fn cmd_coverage(args: &[String]) -> Result<i32, String> {
    let build = parse_build(args)?;
    let report = run_paper_campaign(build, 0);
    let rows = skrt::report::response_coverage(&report.result);
    print!("{}", skrt::report::render_coverage(&rows));
    Ok(0)
}

fn cmd_tables() -> i32 {
    println!("TABLE I — XTRATUM DATA TYPES");
    for t in xtratum::types::XM_TYPES {
        println!(
            "  {:<14} {:>3} bits  {:<20} {}",
            t.name,
            t.bits,
            t.ansi_c,
            t.extends.map(|e| format!("extends {e}")).unwrap_or_default()
        );
    }
    println!("\nTABLE II — xm_s32_t TEST VALUE SET");
    for v in paper_dictionary().values("xm_s32_t") {
        println!("  {:>12}  {}", v.as_s32(), v.label.unwrap_or("*"));
    }
    0
}

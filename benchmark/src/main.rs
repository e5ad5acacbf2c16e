//! `skrt-bench`: runs one campaign-mode workload and prints its metrics.
//!
//! ```text
//! skrt-bench --workload <sweep|sequences|fuzz|check|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` (the default) the run sets up the workload, runs one
//! warm-up pass, then times passes on the process CPU clock until
//! `--seconds` have passed and at least 100 passes have run (so the 90th
//! percentile has ten samples beyond it), or twice `--seconds` at most. Each pass is followed by the
//! same campaign mode on the frozen copy of the program
//! (`skrt_benchmark::reference`), and `throughput` is taken from the
//! median ratio of their CPU times. The
//! set-up is repeated 20 times, spread over the run. With `--trace 1` the
//! run alternates untraced passes with traced ones and reports per-layer
//! metrics; the last traced pass's spans are written as a Chrome trace to
//! `trace_<workload>.json` in this package's directory.
//!
//! Every metric is printed as `workload metric value unit`; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 1 when any output was wrong, 2 on a usage error.

use skrt_benchmark::json::quote;
use skrt_benchmark::measure::{
    cpu_ns, median, min_samples_for, peak_rss_mb, percentile, samples_beyond,
};
use skrt_benchmark::reference::Reference;
use skrt_benchmark::trace::{chrome_trace, LayerTotals, Span, Tracer};
use skrt_benchmark::workloads::{
    check::Check, dispatch_probe, fuzz::Fuzz, sequences::Sequences, sweep::Sweep, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["sweep", "sequences", "fuzz", "check"];
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUP_REPS: usize = 20;
/// Percentile reported beside the median, and the samples it needs beyond it.
const TAIL_Q: f64 = 0.9;
const TAIL_BEYOND: usize = 10;
/// Hard stop for the pass loop, well inside the 180 s a run may take.
const MAX_LOOP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(a)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one workload run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The metrics the final JSON line carries.
    metrics: Vec<Metric>,
    /// Printed, not part of the JSON line.
    info: Vec<Metric>,
}

/// Runs `f`, turning a panic into an error, and times it on the CPU and
/// wall clocks.
fn timed<T>(f: impl FnOnce() -> T) -> (Result<T, String>, u64, Duration) {
    let (c0, w0) = (cpu_ns(), Instant::now());
    let r = catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    });
    (r, cpu_ns() - c0, w0.elapsed())
}

fn run<W: Workload>(workload: &str, a: &Args) -> Outcome {
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        info: Vec::new(),
    };

    // The frozen copy's run of the same set-up and pass, timed right next to
    // each live one; untraced runs only.
    let host = (!a.trace).then(|| W::host_reference(a.seed));
    let mut setup_ns = Vec::new();
    let mut setup_ratio = Vec::new();
    let mut ref_setup_ns = Vec::new();
    let mut time_setup = |setup_ns: &mut Vec<f64>| {
        let t = cpu_ns();
        let input = W::setup(a.seed);
        let live = cpu_ns() - t;
        setup_ns.push(live as f64);
        if let Some(host) = &host {
            let frozen = host.run_setup();
            ref_setup_ns.push(frozen as f64);
            setup_ratio.push(live as f64 / frozen as f64);
        }
        input
    };
    let input = time_setup(&mut setup_ns);

    // Every timed pass must reproduce the warm-up pass.
    out.attempted += 1;
    let warm = match timed(|| W::pass(&input)).0 {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.errors.push(format!("warm-up pass panicked: {e}"));
            return out;
        }
    };
    if let Err(e) = W::check_pins(a.seed, &warm) {
        out.errors.push(format!("pinned outputs differ: {e}"));
    }
    // The program's own peak: set-up plus one pass, before the reference
    // campaign adds its allocations to the process.
    let peak_rss = peak_rss_mb();
    let want = W::digest(&warm);
    let want_traced = W::traced_expected(&warm);
    let units = W::units(&input) as f64;
    let traced_units = W::traced_units(&input, &warm) as f64;

    let mut tr = Tracer::new();
    let mut totals = LayerTotals::default();
    let mut last_spans: Vec<Span> = Vec::new();
    let (mut traced_cpu_ns, mut traced_passes) = (0.0, 0u64);
    let mut traced_per_unit = Vec::new();
    if a.trace {
        W::facts(&input, &warm, &mut tr);
        dispatch_probe(&mut tr);
    }

    let min_passes = if a.trace { 1 } else { min_samples_for(TAIL_Q, TAIL_BEYOND) };
    let (mut cpu_ms, mut wall_ms, mut ref_ratio, mut ref_ms) = (vec![], vec![], vec![], vec![]);
    let mut order = 0x2545_f491_4f6c_dd1d_u64;
    let start = Instant::now();
    loop {
        // Stop after `--seconds` once the pass floor is met, and at twice
        // `--seconds` regardless, so slow passes cannot stretch a run.
        let elapsed = start.elapsed().as_secs_f64();
        let enough = cpu_ms.len() >= min_passes || elapsed >= 2.0 * a.seconds;
        if (elapsed >= a.seconds && enough) || start.elapsed() >= MAX_LOOP {
            break;
        }
        // Set-up repeats are spread over the run, so their median spans
        // the host's fast and slow phases alike.
        let due = setup_ns.len() as f64 / SETUP_REPS as f64 * a.seconds;
        if !a.trace && setup_ns.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            std::hint::black_box(time_setup(&mut setup_ns));
        }
        // The frozen pass runs just before or just after the live one, in a
        // pseudo-random order, so a neighbour's periodic load cannot line
        // up with one side of every pair.
        order ^= order << 13;
        order ^= order >> 7;
        order ^= order << 17;
        let frozen_first = host.as_ref().filter(|_| order & 1 == 1).map(Reference::run_pass);
        out.attempted += 1;
        let (r, cpu, wall) = timed(|| W::pass(&input));
        match r.map(|o| W::digest(&o)) {
            Ok(d) if d == want => {
                cpu_ms.push(cpu as f64 / 1e6);
                wall_ms.push(wall.as_secs_f64() * 1e3);
                if let Some(host) = &host {
                    let r = frozen_first.unwrap_or_else(|| host.run_pass());
                    ref_ms.push(r as f64 / 1e6);
                    ref_ratio.push(cpu as f64 / r as f64);
                }
            }
            Ok(d) => {
                out.failed += 1;
                out.errors.push(format!("pass digest {d:#018x} != warm-up {want:#018x}"));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("pass panicked: {e}"));
            }
        }
        if !a.trace {
            continue;
        }
        out.attempted += 1;
        let (r, cpu, wall) = timed(|| W::traced(&input, &warm, &mut tr));
        match r {
            Ok(d) if d == want_traced => {
                let (spans, counters) = tr.take();
                totals.fold(&spans, &counters, cpu as f64 / wall.as_nanos().max(1) as f64);
                traced_cpu_ns += cpu as f64;
                traced_passes += 1;
                traced_per_unit.push(cpu as f64 / traced_units);
                last_spans = spans;
            }
            Ok(d) => {
                out.failed += 1;
                out.errors.push(format!(
                    "traced digest {d:#018x} != untraced {want_traced:#018x}: the traced \
                     driver does not measure the real program"
                ));
                tr.take();
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("traced pass panicked: {e}"));
                flightrec::disable();
                tr = Tracer::new();
            }
        }
    }
    if cpu_ms.is_empty() || (a.trace && traced_passes == 0) {
        out.errors.push("no pass reproduced the warm-up output".into());
        return out;
    }

    let p50 = median(&cpu_ms);
    out.info = vec![
        Metric { name: "passes", value: cpu_ms.len() as f64, unit: "count" },
        Metric { name: "units_per_pass", value: units, unit: W::UNIT },
        Metric { name: "pass_ms_p10", value: percentile(&cpu_ms, 1.0 - TAIL_Q), unit: "ms" },
        Metric { name: "pass_ms_p50", value: p50, unit: "ms" },
        Metric { name: "pass_ms_p90", value: percentile(&cpu_ms, TAIL_Q), unit: "ms" },
        Metric {
            name: "p90_samples_beyond",
            value: samples_beyond(cpu_ms.len(), TAIL_Q) as f64,
            unit: "count",
        },
        Metric { name: "throughput_cpu", value: units / (p50 / 1e3), unit: "units/s" },
        Metric {
            name: "throughput_wall",
            value: units / (median(&wall_ms) / 1e3),
            unit: "units/s",
        },
        Metric {
            name: "cpu_share",
            value: cpu_ms.iter().sum::<f64>() / wall_ms.iter().sum::<f64>(),
            unit: "ratio",
        },
        Metric {
            name: "failed_share",
            value: out.failed as f64 / out.attempted as f64,
            unit: "ratio",
        },
    ];
    if a.trace {
        let path = format!("{}/trace_{workload}.json", env!("CARGO_MANIFEST_DIR"));
        if let Err(e) = std::fs::write(&path, chrome_trace(&last_spans)) {
            eprintln!("could not write {path}: {e}");
        }
        let traced_units_total = traced_units * traced_passes as f64;
        let overhead = median(&traced_per_unit) / (p50 * 1e6 / units);
        out.metrics = per_layer(&totals, traced_units_total, traced_cpu_ns, overhead);
    } else {
        let host = host.as_ref().expect("untraced runs time the frozen copy");
        out.info.push(Metric { name: "reference_ms_p50", value: median(&ref_ms), unit: "ms" });
        out.info.push(Metric { name: "setup_cpu_s", value: median(&setup_ns) / 1e9, unit: "s" });
        out.info.push(Metric {
            name: "reference_setup_cpu_s",
            value: median(&ref_setup_ns) / 1e9,
            unit: "s",
        });
        // Each pass and set-up is divided by the frozen copy's run of the
        // same work, timed right next to it, in the same phase of the host.
        out.metrics = vec![
            Metric { name: "throughput", value: units / median(&ref_ratio), unit: "units/ref" },
            Metric { name: "setup_s", value: host.setup_seconds(median(&setup_ratio)), unit: "s" },
            Metric { name: "peak_rss_mb", value: peak_rss, unit: "MB" },
        ];
    }
    out
}

/// The per-layer metrics, from the traced passes' totals. A layer the
/// workload's traced driver never calls reads 0.
fn per_layer(t: &LayerTotals, units: f64, traced_cpu_ns: f64, overhead: f64) -> Vec<Metric> {
    let us = |name: &str| t.self_ns_per_call(name) / 1e3;
    let ns = |name: &str| t.self_ns_per_call(name);
    let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let (adv_q, adv_p) = (t.sum("leon3.advances_quiescent"), t.sum("leon3.advances_processed"));
    let shrink = t.span("shrink");
    let layer_self: f64 =
        t.spans.iter().filter(|(name, _)| **name != "unit").map(|(_, s)| s.self_ns).sum();
    let mut m = vec![
        Metric { name: "testbed.boot_us", value: us("testbed.boot"), unit: "us" },
        Metric { name: "testbed.snapshot_us", value: us("testbed.snapshot"), unit: "us" },
        Metric { name: "testbed.rewind_us", value: us("testbed.rewind"), unit: "us" },
        Metric { name: "testbed.dirty_pages", value: t.mean("testbed.dirty_pages"), unit: "count" },
        Metric { name: "xtratum.frame_first_us", value: us("xtratum.frame_first"), unit: "us" },
        Metric { name: "xtratum.frame_steady_us", value: us("xtratum.frame_steady"), unit: "us" },
        Metric {
            name: "xtratum.hypercalls_per_unit",
            value: per(t.sum("xtratum.hypercalls"), t.sum("flightrec.units")),
            unit: "count",
        },
    ];
    for (name, key) in DISPATCH_METRICS {
        m.push(Metric { name, value: t.mean(key), unit: "ns" });
    }
    m.extend([
        Metric { name: "leon3.advances_quiescent", value: per(adv_q, units), unit: "count" },
        Metric { name: "leon3.advances_processed", value: per(adv_p, units), unit: "count" },
        Metric { name: "leon3.horizon_hit_ratio", value: per(adv_q, adv_q + adv_p), unit: "ratio" },
        Metric { name: "oracle.expect_ns", value: ns("oracle.expect"), unit: "ns" },
        Metric { name: "classify.ns", value: ns("classify"), unit: "ns" },
        Metric { name: "observe.summary_ns", value: ns("observe.summary"), unit: "ns" },
        Metric { name: "exec.memo_hit_ratio", value: t.mean("exec.memo_hit_ratio"), unit: "ratio" },
        Metric {
            name: "exec.oracle_cache_hit_ratio",
            value: t.mean("exec.oracle_cache_hit_ratio"),
            unit: "ratio",
        },
        Metric { name: "sequence.eval_us", value: us("sequence.eval"), unit: "us" },
        Metric { name: "sequence.refine_us", value: us("sequence.refine"), unit: "us" },
        Metric {
            name: "sequence.divergence_ratio",
            value: t.mean("divergence_ratio"),
            unit: "ratio",
        },
        Metric {
            name: "shrink.us_per_finding",
            value: per(shrink.inclusive_ns, shrink.calls as f64) / 1e3,
            unit: "us",
        },
        Metric { name: "shrink.evals_per_finding", value: t.mean("shrink.evals"), unit: "count" },
        Metric { name: "shrink.eval_us", value: us("shrink.eval"), unit: "us" },
        Metric { name: "fuzz.candidate_ns", value: ns("fuzz.candidate"), unit: "ns" },
        Metric { name: "fuzz.exec_us", value: us("fuzz.exec"), unit: "us" },
        Metric { name: "fuzz.novel_ratio", value: t.mean("fuzz.novel_ratio"), unit: "ratio" },
        Metric { name: "fuzz.corpus_size", value: t.mean("fuzz.corpus_size"), unit: "count" },
        Metric { name: "fuzz.map_cells", value: t.mean("fuzz.map_cells"), unit: "count" },
        Metric {
            name: "fuzz.rediscovery_execs_p50",
            value: t.mean("fuzz.rediscovery_execs_p50"),
            unit: "execs",
        },
        Metric {
            name: "fuzz.signatures_found",
            value: t.mean("fuzz.signatures_found"),
            unit: "count",
        },
        Metric {
            name: "flightrec.events_per_unit",
            value: per(t.sum("flightrec.events"), t.sum("flightrec.units")),
            unit: "count",
        },
        Metric { name: "flightrec.drain_us", value: us("flightrec.drain"), unit: "us" },
        Metric { name: "coverage.fold_us", value: us("coverage.fold"), unit: "us" },
        Metric { name: "check.witness_us", value: us("check.witness"), unit: "us" },
        Metric { name: "check.invariants_us", value: us("check.invariants"), unit: "us" },
        Metric {
            name: "check.counterexamples",
            value: t.mean("check.counterexamples"),
            unit: "count",
        },
        Metric {
            name: "driver.self_us_per_unit",
            value: per(traced_cpu_ns - layer_self, units) / 1e3,
            unit: "us",
        },
        Metric { name: "trace_overhead", value: overhead, unit: "ratio" },
    ]);
    m
}

/// Per-category dispatch metrics and the counters `dispatch_probe` fills.
const DISPATCH_METRICS: [(&str, &str); 11] = [
    ("xtratum.dispatch_ns.system", "dispatch.system"),
    ("xtratum.dispatch_ns.partition", "dispatch.partition"),
    ("xtratum.dispatch_ns.time", "dispatch.time"),
    ("xtratum.dispatch_ns.plan", "dispatch.plan"),
    ("xtratum.dispatch_ns.ipc", "dispatch.ipc"),
    ("xtratum.dispatch_ns.memory", "dispatch.memory"),
    ("xtratum.dispatch_ns.hm", "dispatch.hm"),
    ("xtratum.dispatch_ns.trace", "dispatch.trace"),
    ("xtratum.dispatch_ns.interrupt", "dispatch.interrupt"),
    ("xtratum.dispatch_ns.misc", "dispatch.misc"),
    ("xtratum.dispatch_ns.sparc", "dispatch.sparc"),
];

fn report(workload: &str, out: &Outcome) -> ExitCode {
    for m in out.metrics.iter().chain(&out.info) {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        eprintln!("{workload}: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{}:{{\"value\":{v},\"unit\":{}}}", quote(m.name), quote(m.unit))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in a process of its own, so one
/// workload's heap and caches never colour another's numbers.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: skrt-bench --workload <sweep|sequences|fuzz|check|all> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let out = match a.workload.as_str() {
        "all" => return run_all(&a),
        "sweep" => run::<Sweep>("sweep", &a),
        "sequences" => run::<Sequences>("sequences", &a),
        "fuzz" => run::<Fuzz>("fuzz", &a),
        _ => run::<Check>("check", &a),
    };
    report(&a.workload, &out)
}

//! `compare`: collects sets of benchmark runs and compares them.
//!
//! ```text
//! compare collect --bench EXE [--against EXE] --out FILE [--out-against FILE]
//!                 [--runs N] [--seed0 N] [--seconds S] [--trace 0|1] [--workloads a,b]
//! compare agree FIRST.jsonl SECOND.jsonl [--spec BENCHMARK.json]
//! compare diff PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! `collect` runs each workload once per seed (`--runs` seeds from
//! `--seed0`) and appends one line per run to `--out`. With `--against` it
//! runs a second executable on the same seeds, alternating which side of
//! each pair runs first, into `--out-against`.
//!
//! `agree` checks two sets of runs of the same code: every end-to-end
//! median within its bound, every spread (but `setup_s`'s) within its
//! bound, every count equal. `diff` applies the gain and regression rules
//! of `skrt_benchmark::compare` to a parent and a change. Both print one
//! row per workload and exit 1 when a check fails.

use skrt_benchmark::compare::{
    agree, counts_equal, judge, load_spec, paired, parse_runs, run_line, MetricSpec, Run, Verdict,
};
use skrt_benchmark::measure::{median, relative_iqr};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::process::{Command, ExitCode};

const WORKLOADS: &str = "sweep,sequences,fuzz,check";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            out.push(&args[i]);
            i += 1;
        }
    }
    out
}

fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs(&text).map_err(|e| format!("{path}: {e}"))
}

fn read_spec(args: &[String]) -> Result<Vec<MetricSpec>, String> {
    let path = flag(args, "--spec").unwrap_or_else(|| {
        if std::path::Path::new("BENCHMARK.json").exists() {
            "BENCHMARK.json".into()
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").into()
        }
    });
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    load_spec(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs one benchmark invocation and returns its last stdout line.
fn run_once(
    exe: &str,
    workload: &str,
    seed: u64,
    seconds: &str,
    trace: &str,
) -> Result<String, String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", seconds])
        .args(["--trace", trace])
        .output()
        .map_err(|e| format!("{exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !last.starts_with('{') {
        return Err(format!(
            "{exe} --workload {workload} --seed {seed}: no result ({})",
            out.status
        ));
    }
    Ok(last)
}

fn collect(args: &[String]) -> Result<bool, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("collect needs {name}"));
    let mut sides = vec![(need("--bench")?, need("--out")?)];
    if let Some(exe) = flag(args, "--against") {
        sides.push((exe, need("--out-against")?));
    }
    let runs: u64 =
        flag(args, "--runs").unwrap_or("10".into()).parse().map_err(|e| format!("--runs: {e}"))?;
    let seed0: u64 =
        flag(args, "--seed0").unwrap_or("1".into()).parse().map_err(|e| format!("--seed0: {e}"))?;
    let seconds = flag(args, "--seconds").unwrap_or("20".into());
    let trace = flag(args, "--trace").unwrap_or("0".into());
    let workloads = flag(args, "--workloads").unwrap_or(WORKLOADS.into());
    let mut files = Vec::new();
    for (_, path) in &sides {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        files.push(f);
    }
    let mut all_ok = true;
    for i in 0..runs {
        let seed = seed0 + i;
        for w in workloads.split(',') {
            // Alternate which side of a pair runs first.
            let mut order: Vec<usize> = (0..sides.len()).collect();
            if i % 2 == 1 {
                order.reverse();
            }
            for s in order {
                eprintln!("collect: {} --workload {w} --seed {seed}", sides[s].0);
                match run_once(&sides[s].0, w, seed, &seconds, &trace) {
                    Ok(line) => writeln!(files[s], "{}", run_line(w, seed, &line))
                        .map_err(|e| format!("{}: {e}", sides[s].1))?,
                    Err(e) => {
                        eprintln!("collect: {e}");
                        all_ok = false;
                    }
                }
            }
        }
    }
    Ok(all_ok)
}

/// Change of the median from `from` to `to`, in percent.
fn change_pct(from: &[f64], to: &[f64]) -> f64 {
    (median(to) / median(from) - 1.0) * 100.0
}

fn workloads_of(a: &[Run], b: &[Run]) -> Vec<String> {
    let seen: BTreeSet<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    WORKLOADS.split(',').filter(|w| seen.contains(w)).map(str::to_string).collect()
}

fn correct_cell(a: &[Run], b: &[Run], w: &str) -> (String, bool) {
    let runs: Vec<&Run> = a.iter().chain(b).filter(|r| r.workload == w).collect();
    let good = runs.iter().filter(|r| r.correct && r.failed == 0).count();
    let total = runs.len();
    (format!("correct {good}/{total}"), good == total)
}

/// Exact comparison of the count metrics present in both sets.
fn counts_cell(spec: &[MetricSpec], a: &[Run], b: &[Run], w: &str) -> (String, bool) {
    let mut compared = 0;
    let mut differing = Vec::new();
    for m in spec.iter().filter(|m| m.is_count()) {
        let (xa, xb) = paired(a, b, w, &m.name);
        if xa.is_empty() {
            continue;
        }
        compared += 1;
        if !counts_equal(&xa, &xb) {
            differing.push(m.name.clone());
        }
    }
    if compared == 0 {
        return ("counts: none in both sets".into(), true);
    }
    if differing.is_empty() {
        (format!("counts: {compared} exact"), true)
    } else {
        (format!("counts DIFFER: {}", differing.join(",")), false)
    }
}

fn agree_cmd(args: &[String]) -> Result<bool, String> {
    let pos = positional(args);
    let [fa, fb] = pos[..] else { return Err("agree takes two run files".into()) };
    let (a, b) = (read_runs(fa)?, read_runs(fb)?);
    let spec = read_spec(args)?;
    println!("agree: {fa} vs {fb}");
    let mut all_ok = true;
    for w in workloads_of(&a, &b) {
        let mut cells = Vec::new();
        for m in &spec {
            let Some(bound) = m.bound else { continue };
            let (xa, xb) = paired(&a, &b, &w, &m.name);
            if xa.is_empty() {
                continue;
            }
            let res = agree(&xa, &xb, bound, m.name == "setup_s");
            all_ok &= res.is_ok();
            cells.push(format!(
                "{} {} {:+.2}% [iqr {:.2}%/{:.2}%, n {}]",
                m.name,
                if res.is_ok() { "ok" } else { "DISAGREE" },
                change_pct(&xa, &xb),
                relative_iqr(&xa) * 100.0,
                relative_iqr(&xb) * 100.0,
                xa.len()
            ));
            if let Err(e) = res {
                cells.push(format!("({e})"));
            }
        }
        for (cell, ok) in [counts_cell(&spec, &a, &b, &w), correct_cell(&a, &b, &w)] {
            all_ok &= ok;
            cells.push(cell);
        }
        println!("{w}: {}", cells.join(" | "));
    }
    println!("{}", if all_ok { "AGREE" } else { "DISAGREE" });
    Ok(all_ok)
}

fn diff_cmd(args: &[String]) -> Result<bool, String> {
    let pos = positional(args);
    let [fa, fb] = pos[..] else { return Err("diff takes two run files".into()) };
    let (base, change) = (read_runs(fa)?, read_runs(fb)?);
    let spec = read_spec(args)?;
    println!("diff: parent {fa} vs change {fb}");
    let mut no_regression = true;
    for w in workloads_of(&base, &change) {
        let mut cells = Vec::new();
        for m in &spec {
            let Some(bound) = m.bound else { continue };
            let (xb, xc) = paired(&base, &change, &w, &m.name);
            if xb.is_empty() {
                continue;
            }
            let v = judge(&xb, &xc, m.lower_is_better, bound);
            let label = match &v {
                Verdict::Win => "win".to_string(),
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed => "REGRESSED".to_string(),
                Verdict::Unresolved(why) => format!("unresolved ({why})"),
            };
            no_regression &= v != Verdict::Regressed;
            cells.push(format!(
                "{} {label} {:+.2}% [n {}]",
                m.name,
                change_pct(&xb, &xc),
                xb.len()
            ));
        }
        for (cell, _) in [counts_cell(&spec, &base, &change, &w), correct_cell(&base, &change, &w)]
        {
            cells.push(cell);
        }
        println!("{w}: {}", cells.join(" | "));
    }
    Ok(no_regression)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("collect") => collect(rest),
        Some("agree") => agree_cmd(rest),
        Some("diff") => diff_cmd(rest),
        _ => Err("usage: compare <collect|agree|diff> ... (see the source header)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

//! Rules for comparing two sets of benchmark runs.
//!
//! A set of runs is a JSONL file, one run per line:
//! `{"workload": "sweep", "seed": 3, "result": {<the run's last line>}}`.
//! Runs of two sets pair up by workload and seed.
//!
//! - A gain is claimed only when at least ten pairs were run, the change
//!   wins at least nine tenths of them (ties count for neither side), and
//!   the medians differ by more than the parent's interquartile range.
//! - A metric regressed when its median is worse than the parent's by
//!   more than the metric's bound. When the parent's own spread is wider
//!   than the bound, the metric is unresolved unless every run of the
//!   change reads better than every run of the parent.
//! - Counts are compared exactly.

use crate::json::{self, Json};
use crate::measure::{median, quartiles, relative_iqr};
use std::collections::BTreeMap;

/// Fewest pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Counts repeat exactly on the same inputs; they compare exactly.
    pub fn is_count(&self) -> bool {
        matches!(self.unit.as_str(), "count" | "execs")
    }
}

/// The end-to-end and per-layer metrics of a `BENCHMARK.json`.
pub fn load_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(text)?;
    let mut out = Vec::new();
    for (section, gated) in [("end_to_end", true), ("per_layer", false)] {
        for m in doc.get(section).map(Json::as_arr).unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let name = field("name").ok_or(format!("{section} metric without a name"))?;
            let bound = m.get("bound").and_then(Json::as_f64);
            if gated && bound.is_none() {
                return Err(format!("end-to-end metric {name} has no bound"));
            }
            out.push(MetricSpec {
                unit: field("unit").unwrap_or_default(),
                lower_is_better: field("better").as_deref() == Some("lower"),
                bound,
                name,
            });
        }
    }
    Ok(out)
}

/// One run of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a set of runs (JSONL).
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let result = v.get("result").ok_or(format!("line {}: no result", i + 1))?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .map(|m| {
                m.iter().filter_map(|(k, x)| Some((k.clone(), x.get("value")?.as_f64()?))).collect()
            })
            .unwrap_or_default();
        runs.push(Run {
            workload: v.get("workload").and_then(Json::as_str).unwrap_or_default().to_string(),
            seed: v.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            correct: result.get("correct").and_then(Json::as_bool).unwrap_or(false),
            failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            metrics,
        });
    }
    Ok(runs)
}

/// The run line a set-of-runs file stores.
pub fn run_line(workload: &str, seed: u64, result_json: &str) -> String {
    format!("{{\"workload\":{},\"seed\":{seed},\"result\":{result_json}}}", json::quote(workload))
}

/// Values of `metric` from the runs of `a` and `b` that pair up (same
/// workload and seed), in seed order.
pub fn paired(a: &[Run], b: &[Run], workload: &str, metric: &str) -> (Vec<f64>, Vec<f64>) {
    let index = |runs: &[Run]| -> BTreeMap<u64, f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| Some((r.seed, *r.metrics.get(metric)?)))
            .collect()
    };
    let (ia, ib) = (index(a), index(b));
    ia.iter().filter_map(|(seed, &x)| Some((x, *ib.get(seed)?))).unzip()
}

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The gain rule holds.
    Win,
    /// Not worse than the parent by more than the bound; no gain claimed.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Too few pairs, or a spread wider than the bound.
    Unresolved(String),
}

fn better(x: f64, than: f64, lower_is_better: bool) -> bool {
    if lower_is_better {
        x < than
    } else {
        x > than
    }
}

/// How much worse `x` is than `base`, as a share of `base` (negative when
/// better).
pub fn worse_by(x: f64, base: f64, lower_is_better: bool) -> f64 {
    let d = if lower_is_better { x - base } else { base - x };
    if base == 0.0 {
        if d == 0.0 {
            0.0
        } else {
            d.signum() * f64::INFINITY
        }
    } else {
        d / base.abs()
    }
}

/// Judges paired runs of a parent (`base`) and a change: `base[i]` and
/// `change[i]` ran as one pair.
pub fn judge(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    assert_eq!(base.len(), change.len(), "runs must pair up");
    let n = base.len();
    if n < MIN_PAIRS {
        return Verdict::Unresolved(format!("{n} pairs, fewer than {MIN_PAIRS}"));
    }
    let wins = base.iter().zip(change).filter(|&(&b, &c)| better(c, b, lower_is_better)).count();
    let (mb, mc) = (median(base), median(change));
    let [q1, _, q3] = quartiles(base);
    if wins * 10 >= n * 9 && (mc - mb).abs() > q3 - q1 && better(mc, mb, lower_is_better) {
        return Verdict::Win;
    }
    if relative_iqr(base) > bound {
        let worst_change =
            change.iter().copied().reduce(|x, y| if better(x, y, lower_is_better) { y } else { x });
        let best_base =
            base.iter().copied().reduce(|x, y| if better(x, y, lower_is_better) { x } else { y });
        return match (worst_change, best_base) {
            (Some(c), Some(b)) if better(c, b, lower_is_better) => Verdict::Ok,
            _ => Verdict::Unresolved(format!(
                "parent spread {:.1}% is wider than the {:.1}% bound",
                relative_iqr(base) * 100.0,
                bound * 100.0
            )),
        };
    }
    if worse_by(mc, mb, lower_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Checks two sets of runs of the same code against a metric's bound:
/// the medians differ by at most the bound, and (unless `spread_exempt`)
/// each set's spread stays within it.
pub fn agree(a: &[f64], b: &[f64], bound: f64, spread_exempt: bool) -> Result<(), String> {
    if a.len() < 2 || b.len() < 2 {
        return Err(format!("{} and {} runs; need at least two each", a.len(), b.len()));
    }
    let (ma, mb) = (median(a), median(b));
    let diff = worse_by(mb, ma, true).abs();
    if diff > bound {
        return Err(format!(
            "medians {ma:.6} and {mb:.6} differ by {:.1}% > {:.1}%",
            diff * 100.0,
            bound * 100.0
        ));
    }
    if !spread_exempt {
        for (label, xs) in [("first", a), ("second", b)] {
            let s = relative_iqr(xs);
            if s > bound {
                return Err(format!(
                    "{label} set spread {:.1}% > {:.1}%",
                    s * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    Ok(())
}

/// Whether two paired count series repeat exactly.
pub fn counts_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn clear_gain_wins() {
        let base = series(100.0, 1.0); // 100..109, IQR 5.5
        let change: Vec<f64> = base.iter().map(|b| b - 20.0).collect();
        assert_eq!(judge(&base, &change, true, 0.1), Verdict::Win);
        // Higher-is-better metrics mirror it.
        let up: Vec<f64> = base.iter().map(|b| b + 20.0).collect();
        assert_eq!(judge(&base, &up, false, 0.1), Verdict::Win);
    }

    #[test]
    fn gain_needs_nine_of_ten_pairs() {
        let base = series(100.0, 1.0);
        let mut change: Vec<f64> = base.iter().map(|b| b - 20.0).collect();
        change[0] = 200.0;
        change[1] = 200.0; // two losses: 8/10 wins
        assert_eq!(judge(&base, &change, true, 0.5), Verdict::Ok);
        change[1] = 80.0; // one loss: 9/10 wins
        assert_eq!(judge(&base, &change, true, 0.5), Verdict::Win);
    }

    #[test]
    fn gain_needs_median_shift_beyond_parent_iqr() {
        let base = series(100.0, 1.0); // IQR 5.5
        let change: Vec<f64> = base.iter().map(|b| b - 5.0).collect(); // wins 10/10, shift 5
        assert_eq!(judge(&base, &change, true, 0.1), Verdict::Ok);
        let change: Vec<f64> = base.iter().map(|b| b - 6.0).collect(); // shift 6 > 5.5
        assert_eq!(judge(&base, &change, true, 0.1), Verdict::Win);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = series(100.0, 1.0);
        assert_eq!(judge(&base, &base, true, 0.1), Verdict::Ok);
    }

    #[test]
    fn regression_beyond_bound_is_flagged() {
        let base = series(100.0, 0.1);
        let slower: Vec<f64> = base.iter().map(|b| b * 1.12).collect();
        assert_eq!(judge(&base, &slower, true, 0.10), Verdict::Regressed);
        let a_bit: Vec<f64> = base.iter().map(|b| b * 1.05).collect();
        assert_eq!(judge(&base, &a_bit, true, 0.10), Verdict::Ok);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_separated() {
        let base = series(50.0, 10.0); // 50..140: relative IQR ~ 0.58
        let change: Vec<f64> = base.iter().map(|b| b * 1.01).collect();
        assert!(matches!(judge(&base, &change, true, 0.1), Verdict::Unresolved(_)));
        let faster: Vec<f64> = (0..10).map(|i| 40.0 - i as f64).collect();
        assert_eq!(judge(&base, &faster, true, 0.1), Verdict::Win);
        // Every change run beats every parent run, but the gain rule's
        // median shift is not met: not a regression, not a gain.
        let base = vec![10.0, 10.5, 11.0, 11.5, 12.0, 100.0, 100.0, 100.0, 100.0, 100.0];
        let change = vec![9.9; 10];
        assert_eq!(judge(&base, &change, true, 0.1), Verdict::Ok);
    }

    #[test]
    fn too_few_pairs_are_unresolved() {
        let base = vec![1.0; 9];
        assert!(matches!(judge(&base, &base, true, 0.1), Verdict::Unresolved(_)));
    }

    #[test]
    fn agree_checks_medians_and_spreads() {
        let a = series(100.0, 0.2);
        let b: Vec<f64> = a.iter().map(|x| x * 1.03).collect();
        assert!(agree(&a, &b, 0.10, false).is_ok());
        let far: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert!(agree(&a, &far, 0.10, false).is_err());
        let noisy = series(50.0, 10.0);
        assert!(agree(&noisy, &noisy, 0.10, false).is_err());
        assert!(agree(&noisy, &noisy, 0.10, true).is_ok());
        assert!(counts_equal(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!counts_equal(&[1.0, 2.0], &[1.0, 3.0]));
    }

    #[test]
    fn runs_and_spec_parse() {
        let spec = load_spec(
            r#"{"end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "n", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.len(), 2);
        assert!(spec[0].lower_is_better && spec[0].bound == Some(0.1));
        assert!(spec[1].is_count() && spec[1].bound.is_none());
        let line = run_line(
            "sweep",
            3,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"t":{"value":1.5,"unit":"ms"}}}"#,
        );
        let runs = parse_runs(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].seed, runs[0].correct), (3, true));
        assert_eq!(runs[0].metrics["t"], 1.5);
        let (a, b) = paired(&runs[..1], &runs[1..], "sweep", "t");
        assert_eq!((a, b), (vec![1.5], vec![1.5]));
    }
}

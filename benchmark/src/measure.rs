//! The process CPU clock, peak memory, and the order statistics every
//! metric is reported with.

use std::ffi::c_long;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    // libc is already linked by std, so no crate is needed for this.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in nanoseconds.
///
/// Unlike wall-clock time, this leaves out the time the process waits for
/// a CPU. It still includes the slowdown that neighbours on a shared core
/// cause, which [`crate::reference`] cancels. It is a system call (a few
/// hundred ns), so spans use [`std::time::Instant`] instead.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q < 1) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Fewest samples for which percentile `q` still has `beyond` samples
/// above it: the timed-pass floor that keeps `pass_ms_p90` meaningful.
pub fn min_samples_for(q: f64, beyond: usize) -> usize {
    (1..).find(|&n| samples_beyond(n, q) >= beyond).expect("some sample count suffices")
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them (the
/// default "exclusive" method), so spreads match the ones a reader
/// computes from the raw values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is checked against.
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m.abs()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_is_monotonic_and_advances_under_load() {
        let mut prev = cpu_ns();
        for _ in 0..1000 {
            let now = cpu_ns();
            assert!(now >= prev, "CPU clock went backwards: {prev} -> {now}");
            prev = now;
        }
        let start = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let spent = cpu_ns() - start;
        assert!(spent > 1_000_000, "20M multiply-adds took only {spent} ns of CPU");
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(101, 0.9), 10);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(min_samples_for(0.9, 10), 100);
        assert_eq!(min_samples_for(0.5, 10), 20);
        assert_eq!(min_samples_for(0.99, 10), 1000);
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // Two samples extrapolate: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((relative_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0; 10]), 0.0);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 0.0);
    }
}

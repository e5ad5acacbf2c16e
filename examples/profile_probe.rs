//! Ad-hoc phase profiler for the campaign hot path (not part of the
//! shipped toolset; run with `cargo run --release --example profile_probe`).
//!
//! Splits a test two ways: on an arena captured at boot, and on the
//! prefix arena the executor uses (captured just before the test
//! partition's first slot). The difference is the first-frame work of the
//! partitions scheduled before FDIR, now paid once per worker.

use eagleeye::EagleEye;
use skrt::testbed::{BootSnapshot, Testbed, Workspace};
use std::hint::black_box;
use std::time::Instant;
use xtratum::vuln::KernelBuild;

const BUILD: KernelBuild = KernelBuild::Legacy;

fn us(ns: u128, n: usize) -> f64 {
    ns as f64 / n as f64 / 1e3
}

fn main() {
    let spec = xm_campaign::paper_campaign();
    let cases = spec.all_cases();
    let ctx = EagleEye.oracle_context(BUILD);
    let part = EagleEye.test_partition();
    let boot = EagleEye.snapshot(BUILD).unwrap();

    let n = 2000usize;

    // Phase 1: workspace materialisation (one per worker, off the hot
    // path) and bare restore cost.
    let t = Instant::now();
    let mut ws = boot.workspace();
    println!("workspace materialise: {:.2} us", t.elapsed().as_nanos() as f64 / 1e3);
    let t = Instant::now();
    for _ in 0..n {
        ws.restore(&boot, Some(part));
    }
    println!("restore (clean): {:.2} us", us(t.elapsed().as_nanos(), n));

    // Phase 2: seed-style fresh boot per test, for scale.
    let t = Instant::now();
    for case in cases.iter().take(200) {
        black_box(skrt::exec::run_single_test(&EagleEye, &ctx, BUILD, case));
    }
    println!("fresh-boot test: {:.2} us", us(t.elapsed().as_nanos(), 200));

    // Phase 3: the one-off prefix, per worker — boot to FDIR's first slot.
    let runs = 200;
    let mut t_prefix = 0u128;
    for _ in 0..runs {
        let mut s = EagleEye.snapshot(BUILD).unwrap();
        let t = Instant::now();
        s.step_until_slot_of(part);
        t_prefix += t.elapsed().as_nanos();
    }
    println!("prefix (once per worker): {:.2} us", us(t_prefix, runs));
    let mut prefix = EagleEye.snapshot(BUILD).unwrap();
    prefix.step_until_slot_of(part);

    // Phase 4: per-test split on each arena.
    for (label, snapshot) in [("boot arena", &boot), ("prefix arena", &prefix)] {
        println!("{label}:");
        split(snapshot, &mut snapshot.workspace(), &ctx, &cases, n);
    }
}

/// Runs `n` campaign tests on `ws`, rewound to `snapshot` before each,
/// and prints the phase split: dirty pages rewound, restore, the first
/// (possibly partial) frame, the steady frames, summary and classify,
/// plus the event-horizon split — how many kernel time advances
/// collapsed to the quiescent fast path vs walked the full
/// expiry-processing path, and how advance-call counts distribute across
/// tests.
fn split(
    snapshot: &BootSnapshot,
    ws: &mut Workspace,
    ctx: &skrt::oracle::OracleContext,
    cases: &[skrt::suite::TestCase],
    n: usize,
) {
    let part = EagleEye.test_partition();
    let mut dirty_pages = 0usize;
    let mut t_restore = 0u128;
    let mut t_first = 0u128;
    let mut t_steady = 0u128;
    let mut t_sum = 0u128;
    let mut t_cls = 0u128;
    let mut adv_quiescent = 0u64;
    let mut adv_processed = 0u64;
    // advance calls per test, bucketed in powers of two: [1,2), [2,4), ...
    let mut adv_histogram = [0u64; 16];
    ws.restore(snapshot, Some(part));
    let (base_q, base_p) = ws.parts().0.advance_stats();
    for case in cases.iter().take(n) {
        let expectation = ctx.expect(&case.raw());
        dirty_pages += ws.parts().0.machine.mem.dirty_pages();
        let t0 = Instant::now();
        ws.restore(snapshot, Some(part));
        let t1 = Instant::now();
        let (kernel, guests) = ws.parts();
        let mutant = skrt::mutant::MutantGuest::new(case.raw(), EagleEye.prologue());
        guests.set(part, Box::new(mutant));
        kernel.step_major_frames(guests, 1);
        let t2 = Instant::now();
        kernel.step_major_frames(guests, EagleEye.frames_per_test() - 1);
        let t3 = Instant::now();
        // The workspace restore copies the snapshot's counters back, so
        // the post-step deltas *are* this test's advance counts.
        let (q, p) = kernel.advance_stats();
        let (dq, dp) = (q - base_q, p - base_p);
        adv_quiescent += dq;
        adv_processed += dp;
        let bucket = (64 - (dq + dp).max(1).leading_zeros() as usize).min(adv_histogram.len()) - 1;
        adv_histogram[bucket] += 1;
        let invocations = skrt::mutant::take_invocations(guests, part);
        let observation = skrt::observe::TestObservation { invocations, summary: kernel.summary() };
        let t4 = Instant::now();
        let classification = skrt::classify::classify(&observation, &expectation, part);
        let t5 = Instant::now();
        t_restore += (t1 - t0).as_nanos();
        t_first += (t2 - t1).as_nanos();
        t_steady += (t3 - t2).as_nanos();
        t_sum += (t4 - t3).as_nanos();
        t_cls += (t5 - t4).as_nanos();
        black_box((observation, classification));
    }
    println!("  dirty pages: {:.2} per test", dirty_pages as f64 / n as f64);
    println!("  restore:     {:.2} us", us(t_restore, n));
    println!("  first frame: {:.2} us", us(t_first, n));
    println!(
        "  steady:      {:.2} us ({} frames)",
        us(t_steady, n),
        EagleEye.frames_per_test() - 1
    );
    println!("  summary:     {:.2} us", us(t_sum, n));
    println!("  classify:    {:.2} us", us(t_cls, n));
    let total = adv_quiescent + adv_processed;
    println!(
        "  advances:    {total} over {n} tests ({adv_quiescent} quiescent / {adv_processed} processed, {:.1}% horizon hits)",
        adv_quiescent as f64 / total.max(1) as f64 * 100.0
    );
    println!("  advance-calls-per-test histogram (log2 buckets):");
    for (i, &count) in adv_histogram.iter().enumerate() {
        if count > 0 {
            println!("    [{:>5}, {:>5}): {count}", 1u64 << i, 1u64 << (i + 1));
        }
    }
}

//! Ad-hoc phase profiler for the campaign hot path (not part of the
//! shipped toolset; run with `cargo run --release --example profile_probe`).
//!
//! Splits a test two ways: on an arena captured at boot, and on the
//! prefix arena the executor uses (captured just before the test
//! partition's first slot). The difference is the first-frame work of the
//! partitions scheduled before FDIR, now paid once per worker.
//!
//! Then splits a small-scope `check` case: the spatial witness both ways
//! (before/after byte images vs the pages dirtied since the rewind), the
//! lockstep run, the isolation invariants, and for findings the
//! fresh-boot re-verdict and the shrink. The benchmark's traced `check`
//! driver times its own byte-image witness, so only this split shows the
//! dirty-page witness.
//!
//! Last, splits the lockstep judge: the benchmark's 500 seeded `sequences`
//! inputs on the prefix arena, each run once rendering its verdict
//! evidence (the public `run_one_sequence`, which the benchmark's traced
//! driver times) and once classify-only (what the campaigns' main
//! evaluations and shrink predicates run), in µs and allocations per run.

use eagleeye::EagleEye;
use skrt::check::{
    check_invariants, enumerate_configs, part_base, probes_for, CheckScope, CheckTestbed,
    InvariantViolation, CALLER, PART_SIZE,
};
use skrt::flight::DEFAULT_RING_CAPACITY;
use skrt::sequence::{lockstep, run_one_sequence_bounded, Evidence};
use skrt::testbed::{BootSnapshot, Testbed, Workspace};
use skrt::{shrink_sequence, Classification, CrashClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

const BUILD: KernelBuild = KernelBuild::Legacy;

/// Counts the process's allocations (and reallocations) for the lockstep
/// split.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

    check_split();
    lockstep_split(&prefix, &ctx);
}

/// Runs the benchmark's `sequences` inputs (seed 1, 500 × 8 steps) on the
/// prefix arena, rendering and classify-only, at the main evaluation's
/// four steps per slot and the refine/shrink runs' one, and prints µs and
/// allocations per run.
fn lockstep_split(prefix: &BootSnapshot, ctx: &skrt::oracle::OracleContext) {
    let part = EagleEye.test_partition();
    let specs = xm_campaign::eagleeye_sequence_specs(1, 500, 8);
    let mut ws = prefix.workspace();
    println!("lockstep ({} sequences, prefix arena):", specs.len());
    for steps_per_slot in [4, 1] {
        for (label, evidence) in
            [("rendering", Evidence::Render), ("classify-only", Evidence::Skip)]
        {
            let (mut t, mut allocs, mut diverged) = (0u128, 0u64, 0usize);
            for spec in &specs {
                ws.restore(prefix, Some(part));
                let (kernel, guests) = ws.parts();
                let a = ALLOCS.load(Ordering::Relaxed);
                let t0 = Instant::now();
                let eval = lockstep(
                    &EagleEye,
                    ctx,
                    kernel,
                    guests,
                    &spec.steps,
                    steps_per_slot,
                    0,
                    evidence,
                );
                t += t0.elapsed().as_nanos();
                allocs += ALLOCS.load(Ordering::Relaxed) - a;
                diverged += (eval.verdict.classification.class != CrashClass::Pass) as usize;
                black_box(eval);
            }
            println!(
                "  {steps_per_slot} step(s)/slot, {label:<13} {:.2} us, {:.1} allocs per run \
                 ({diverged} diverge)",
                us(t, specs.len()),
                allocs as f64 / specs.len() as f64
            );
        }
    }
}

/// Victim memory images (partitions 1..n), as the byte-image witness
/// copies them.
fn victim_images(kernel: &XmKernel, n_partitions: u32) -> Vec<Vec<u8>> {
    let mem = &kernel.machine.mem;
    let ctx = leon3_sim::addrspace::AccessCtx::Kernel;
    (1..n_partitions).map(|p| mem.read_bytes(ctx, part_base(p), PART_SIZE).unwrap()).collect()
}

/// Runs every case of the default `check` scope once on a prefix arena
/// per configuration, mirroring `skrt::check`'s case lifecycle, and
/// prints the per-case split.
fn check_split() {
    let scope = CheckScope::default();
    let horizon = scope.horizon as usize;
    let (mut cases, mut findings, mut shrinks, mut evals) = (0usize, 0usize, 0usize, 0usize);
    let [mut t_images, mut t_dirty, mut t_run, mut t_inv, mut t_fresh, mut t_shrink] = [0u128; 6];
    flightrec::enable(DEFAULT_RING_CAPACITY);
    for cfg in enumerate_configs(&scope) {
        let n = cfg.n_partitions;
        let tb = CheckTestbed::new(cfg.clone());
        let ctx = tb.oracle_context(BUILD);
        let mut snapshot = tb.snapshot(BUILD).unwrap();
        let ((), prefix) = flightrec::capture(|| snapshot.step_until_slot_of(CALLER));
        let mut ws = snapshot.workspace();
        let rewound = |ws: &mut Workspace| {
            let _ = flightrec::drain();
            ws.restore(&snapshot, Some(CALLER));
            flightrec::replay(&prefix.events);
        };
        for probe in probes_for(&cfg) {
            cases += 1;
            rewound(&mut ws);
            let (kernel, guests) = ws.parts();
            let t0 = Instant::now();
            let before = victim_images(kernel, n);
            let t1 = Instant::now();
            let eval =
                run_one_sequence_bounded(&tb, &ctx, kernel, guests, &probe.steps, 1, horizon);
            let events = flightrec::drain().events;
            let t2 = Instant::now();
            let ports: Vec<usize> = (1..n).map(|p| kernel.port_count(p)).collect();
            let temporal = check_invariants(&cfg, &events, &[], &[], &ports);
            let t3 = Instant::now();
            let after = victim_images(kernel, n);
            let by_images = check_invariants(&cfg, &[], &before, &after, &[]).len();
            let t4 = Instant::now();
            let by_dirty = (1..n)
                .filter_map(|p| {
                    let src = &snapshot.kernel().machine.mem;
                    kernel.machine.mem.diff_dirty(src, part_base(p), PART_SIZE).unwrap()
                })
                .count();
            let t5 = Instant::now();
            assert_eq!(by_dirty, by_images, "witnesses disagree on {}", cfg.describe());
            t_images += (t1 - t0 + (t4 - t3)).as_nanos();
            t_run += (t2 - t1).as_nanos();
            t_inv += (t3 - t2).as_nanos();
            t_dirty += (t5 - t4).as_nanos();
            // The finding signature the shrinker preserves: the oracle's
            // classification, else the violated invariant kinds.
            let signature = |class: Classification, violations: &[InvariantViolation]| {
                let mut kinds: Vec<_> = violations.iter().map(|v| v.kind).collect();
                kinds.sort_unstable();
                kinds.dedup();
                (class, if class.class == CrashClass::Pass { kinds } else { vec![] })
            };
            let target = signature(eval.verdict.classification, &temporal);
            if target.0.class == CrashClass::Pass && temporal.is_empty() && by_images == 0 {
                continue;
            }
            findings += 1;
            let t = Instant::now();
            let _ = flightrec::drain();
            let (mut fk, mut fg) = tb.boot(BUILD);
            let before = victim_images(&fk, n);
            run_one_sequence_bounded(&tb, &ctx, &mut fk, &mut fg, &probe.steps, 1, horizon);
            let events = flightrec::drain().events;
            let after = victim_images(&fk, n);
            black_box(check_invariants(&cfg, &events, &before, &after, &ports));
            t_fresh += t.elapsed().as_nanos();
            if probe.steps.len() > 1 {
                let t = Instant::now();
                let out = shrink_sequence(
                    &probe.steps,
                    |cand| {
                        rewound(&mut ws);
                        let (kernel, guests) = ws.parts();
                        let e =
                            run_one_sequence_bounded(&tb, &ctx, kernel, guests, cand, 1, horizon);
                        let events = flightrec::drain().events;
                        let ports: Vec<usize> = (1..n).map(|p| kernel.port_count(p)).collect();
                        let violations = check_invariants(&cfg, &events, &[], &[], &ports);
                        signature(e.verdict.classification, &violations) == target
                    },
                    96,
                );
                t_shrink += t.elapsed().as_nanos();
                shrinks += 1;
                evals += out.evals;
            }
        }
    }
    flightrec::disable();
    println!("check ({cases} cases, {findings} findings, {shrinks} shrunk in {evals} evals):");
    println!("  witness, byte images: {:.2} us per case", us(t_images, cases));
    println!("  witness, dirty pages: {:.2} us per case", us(t_dirty, cases));
    println!("  lockstep run:         {:.2} us per case", us(t_run, cases));
    println!("  invariants:           {:.2} us per case", us(t_inv, cases));
    println!("  fresh re-verdict:     {:.2} us per finding", us(t_fresh, findings));
    println!("  shrink:               {:.2} us per shrunk finding", us(t_shrink, shrinks));
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

//! Allocation-budget regression test for the campaign hot path.
//!
//! The zero-allocation work on the kernel hot path (sink-based timer
//! advancement, lazily rendered halt reasons, scratch-buffer IPC, inline
//! hypercall arguments, guest-owned invocation logs) is only protected if
//! a regression shows up in CI. This test counts global allocations for
//! one steady-state test executed from a boot snapshot — the exact
//! per-test path of the campaign engine — and pins them under a budget.
//!
//! The measured path also covers the event-horizon bookkeeping (scalar
//! compares and counter bumps, nothing heap-borne) and the staged
//! sampling-port writes: the nominal AOCS/FDIR guests publish samples
//! every frame, so each counted test stages and commits port traffic
//! through the per-channel `SampleStage` buffers. Those buffers reach
//! their high-water capacity during warm-up and are reused (`clear`
//! keeps capacity) afterwards, so the budget below is unchanged from
//! before staging existed — that *is* the pin.
//!
//! The budget is deliberately ~50% above the measured steady state so it
//! catches reintroduced per-slot/per-expiry allocation (dozens to
//! hundreds per test) without flaking on allocator-library noise.

use skrt::classify::CrashClass;
use skrt::mutant::{take_invocations, MutantGuest};
use skrt::observe::TestObservation;
use skrt::sequence::run_one_sequence;
use skrt::testbed::Testbed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::vuln::KernelBuild;

/// The allocation counter is process-global, so tests that open a
/// counting window must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the counting window. A test that failed while holding it
/// poisons the lock; the next test still runs and reports its own result.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the measuring thread, so allocations made meanwhile
    /// by other threads (the test harness's own) are never counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn set_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state per-test allocation ceiling on the snapshot path.
/// Measured at this pin: ~70 per test (was ~279 before the hot path went
/// allocation-free). A reintroduced per-slot, per-expiry or per-hypercall
/// allocation moves the count by dozens to hundreds and trips this
/// immediately.
const BUDGET: u64 = 110;

/// Per-run allocation ceiling for a passing lockstep run on a warm
/// prefix arena. Measured at this pin: 9 per run, flat in the step count
/// (the reference model's three vectors, the outcome and frame-digest
/// vectors, and the four port names the prologue reads). The ~50%
/// headroom absorbs allocator noise; a per-frame allocation adds one per
/// frame and also breaks the 8-vs-16-step equality below.
const LOCKSTEP_RUN_BUDGET: u64 = 14;

/// The flat-snapshot rewind — `Workspace::restore`, the operation the
/// campaign engine runs between every two tests on the same worker —
/// must be exactly allocation-free once the workspace is warm. It is a
/// bounded memcpy of dirty pages plus field-by-field scalar restores;
/// any allocation here is per-test overhead multiplied by the whole
/// campaign, so the pin is zero, not a budget.
#[test]
fn workspace_restore_is_allocation_free_after_warmup() {
    let _serial = serial();
    let testbed = eagleeye::EagleEye;
    let spec = xm_campaign::paper_campaign();
    let cases = spec.all_cases();
    let snapshot = testbed.snapshot(KernelBuild::Legacy).expect("EagleEye snapshots");
    let part = testbed.test_partition();
    let mut ws = snapshot.workspace();

    let run_one = |ws: &mut skrt::testbed::Workspace, case: &skrt::suite::TestCase| {
        let (kernel, guests) = ws.parts();
        guests.set(part, Box::new(MutantGuest::new(case.raw(), testbed.prologue())));
        kernel.step_major_frames(guests, testbed.frames_per_test());
        assert!(!take_invocations(guests, part).is_empty());
    };

    // Warm-up: the same cases the measured loop will run, so every
    // lazily grown scratch buffer (message scratch, recycled port
    // queues, dirty-page list) reaches the high-water capacity those
    // cases need, and each measured restore has genuinely dirty pages
    // to rewind.
    for case in cases.iter().take(50) {
        ws.restore(&snapshot, Some(part));
        run_one(&mut ws, case);
    }

    let mut restores = 0u64;
    ALLOCS.store(0, Ordering::SeqCst);
    for case in cases.iter().take(50) {
        set_counting(true);
        ws.restore(&snapshot, Some(part));
        set_counting(false);
        restores += 1;
        run_one(&mut ws, case); // dirty the arena again, outside the window
    }
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "Workspace::restore allocated {count} times across {restores} warm rewinds; \
         the flat-snapshot restore path must be a pure copy-back"
    );
}

/// The executor's arenas sit at the test partition's first slot, and with
/// the recorder on every rewind is followed by a replay of the events the
/// skipped prefix recorded. Rewind plus replay — the whole per-test
/// arena reset of a recording worker — must stay allocation-free: the
/// replay pushes `Copy` events into the ring preallocated by `enable`.
#[test]
fn prefix_rewind_and_event_replay_are_allocation_free() {
    let _serial = serial();
    let testbed = eagleeye::EagleEye;
    let cases = xm_campaign::paper_campaign().all_cases();
    let part = testbed.test_partition();
    let mut snapshot = testbed.snapshot(KernelBuild::Legacy).expect("EagleEye snapshots");
    let ((), prefix) = flightrec::capture(|| snapshot.step_until_slot_of(part));
    assert!(!prefix.events.is_empty(), "the EagleEye prefix runs four partitions' slots");
    let mut ws = snapshot.workspace();

    flightrec::enable(skrt::flight::DEFAULT_RING_CAPACITY);
    let mut allocs = 0u64;
    for (i, case) in cases.iter().take(100).enumerate() {
        let measured = i >= 50; // the first 50 warm every buffer
        ALLOCS.store(0, Ordering::SeqCst);
        set_counting(measured);
        ws.restore(&snapshot, Some(part));
        flightrec::replay(&prefix.events);
        set_counting(false);
        allocs += ALLOCS.load(Ordering::SeqCst);
        let (kernel, guests) = ws.parts();
        guests.set(part, Box::new(MutantGuest::new(case.raw(), testbed.prologue())));
        kernel.step_major_frames(guests, testbed.frames_per_test());
        let drained = flightrec::drain();
        assert!(drained.events.len() > prefix.events.len());
    }
    flightrec::disable();
    assert_eq!(allocs, 0, "prefix rewind + event replay allocated {allocs} times over 50 tests");
}

/// The telemetry hot path — the per-test bookkeeping each worker does in
/// its `LocalMetrics` (plain counter bumps plus log2-histogram
/// `observe` calls for phase timers and hypercall latency) — must be
/// exactly allocation-free. Histogram buckets are fixed-size inline
/// arrays and counters are plain `u64`s, so the pin is zero: any
/// allocation here would be per-test overhead inside the existing
/// 110-alloc budget and would erode it silently.
#[test]
fn telemetry_hot_path_is_allocation_free() {
    use flightrec::{HistogramSet, LatencyHistogram};
    let _serial = serial();

    // Built outside the window, like a worker's LocalMetrics: the set is
    // sized once per worker, then only observed into per test.
    let mut phase = [LatencyHistogram::default(), LatencyHistogram::default()];
    let mut latency = HistogramSet::new(64);
    let mut tests_executed = 0u64;
    let mut class_counts = [0u64; 6];

    ALLOCS.store(0, Ordering::SeqCst);
    set_counting(true);
    for i in 0..10_000u64 {
        tests_executed += 1;
        class_counts[(i % 6) as usize] += 1;
        phase[(i % 2) as usize].observe(i % 20_000); // spans every log2 bucket
        latency.observe((i % 64) as u32, i % 1_000);
    }
    set_counting(false);
    let count = ALLOCS.load(Ordering::SeqCst);

    std::hint::black_box((&phase, &latency, tests_executed, class_counts));
    assert_eq!(
        count, 0,
        "telemetry bookkeeping allocated {count} times across 10k observations; \
         counter bumps and histogram observes must stay heap-free"
    );
}

#[test]
fn snapshot_path_steady_state_allocations_stay_in_budget() {
    let _serial = serial();
    let testbed = eagleeye::EagleEye;
    let spec = xm_campaign::paper_campaign();
    // A representative non-resetting case: XM_set_timer with an ordinary
    // dataset. Reset/halt datasets re-run boot prologues and have a
    // legitimately different (larger) profile.
    let case = spec
        .all_cases()
        .into_iter()
        .find(|c| {
            c.hypercall == xtratum::hypercall::HypercallId::SetTimer
                && c.dataset.iter().all(|v| v.raw == 1)
        })
        .expect("campaign contains an all-ones XM_set_timer dataset");

    let snapshot = testbed.snapshot(KernelBuild::Legacy).expect("EagleEye snapshots");
    let run_once = || {
        let (mut kernel, mut guests) = snapshot.instantiate();
        guests.set(
            testbed.test_partition(),
            Box::new(MutantGuest::new(case.raw(), testbed.prologue())),
        );
        kernel.step_major_frames(&mut guests, testbed.frames_per_test());
        let invocations = take_invocations(&mut guests, testbed.test_partition());
        TestObservation { invocations, summary: kernel.into_summary() }
    };

    // Warm-up: fills lazily grown scratch capacities (kernel message
    // scratch, recycled IPC buffers) so the counted runs see the steady
    // state a campaign worker reaches after its first few tests.
    for _ in 0..3 {
        assert!(!run_once().invocations.is_empty());
    }

    const RUNS: u64 = 5;
    let measure = || {
        ALLOCS.store(0, Ordering::SeqCst);
        set_counting(true);
        for _ in 0..RUNS {
            std::hint::black_box(run_once());
        }
        set_counting(false);
        ALLOCS.load(Ordering::SeqCst) / RUNS
    };

    // Phase 1: flight recorder compiled in but disabled — the default
    // campaign configuration. The budget is unchanged from before the
    // recorder existed, which pins "disabled costs zero allocations"
    // (its hot-path contribution is one thread-local boolean branch).
    assert!(!flightrec::active(), "recorder must start disabled");
    let per_test = measure();
    assert!(
        per_test <= BUDGET,
        "snapshot-path test now allocates {per_test} times per test (budget {BUDGET}); \
         something reintroduced allocation on the hot path \
         (recorder disabled — recording must not cost anything here)"
    );

    // Phase 2: recorder enabled. Events land in the preallocated ring
    // (records are Copy), so the per-test count must stay within the very
    // same budget: only enable() and drain() may allocate, never the
    // record path itself. Both stay outside the counting window.
    flightrec::enable(skrt::flight::DEFAULT_RING_CAPACITY);
    assert!(!run_once().invocations.is_empty()); // warm the enabled path
    let per_test_enabled = measure();
    let drained = flightrec::drain();
    flightrec::disable();
    assert!(!drained.events.is_empty(), "enabled runs must have recorded events");
    assert!(
        per_test_enabled <= BUDGET,
        "recorder-enabled test allocates {per_test_enabled} times per test (budget {BUDGET}); \
         the record path must write into the preallocated ring without allocating"
    );
}

/// The lockstep judge compares and hashes the kernel's state in place and
/// borrows each frame's invocations, so a frame allocates nothing: a
/// passing sequence through the public `run_one_sequence` at one step
/// per slot allocates as often over 16 steps as over 8, and stays within
/// a small per-run budget.
#[test]
fn lockstep_frames_are_allocation_free() {
    let _serial = serial();
    let testbed = eagleeye::EagleEye;
    let build = KernelBuild::Legacy;
    let ctx = testbed.oracle_context(build);
    let part = testbed.test_partition();
    let mut snapshot = testbed.snapshot(build).expect("EagleEye snapshots");
    snapshot.step_until_slot_of(part);
    let mut ws = snapshot.workspace();
    let get_time = RawHypercall::new_unchecked(HypercallId::GetTime, [0, eagleeye::SCRATCH as u64]);
    let steps = [get_time; 16];

    let mut run = |n: usize| {
        ws.restore(&snapshot, Some(part));
        let (kernel, guests) = ws.parts();
        ALLOCS.store(0, Ordering::SeqCst);
        set_counting(true);
        let eval = run_one_sequence(&testbed, &ctx, kernel, guests, &steps[..n], 1);
        set_counting(false);
        assert_eq!(eval.verdict.classification.class, CrashClass::Pass, "{n} steps");
        assert_eq!(eval.steps_executed, n);
        assert!(eval.frame_digests.len() >= n, "one step per slot: a frame per step");
        ALLOCS.load(Ordering::SeqCst)
    };
    // Warm-up: the arena's guest and scratch buffers reach the capacity
    // the longest run needs.
    // Warm-up: the arena's guest buffers and the kernel's recycled
    // queuing-port message buffers reach the capacity the longest run
    // needs (the pool settles after a few runs).
    for _ in 0..8 {
        run(16);
    }
    let (short, long) = (run(8), run(16));
    assert_eq!(short, long, "8 more frames allocated {} more times", long as i64 - short as i64);
    assert!(
        long <= LOCKSTEP_RUN_BUDGET,
        "a passing lockstep run allocates {long} times (budget {LOCKSTEP_RUN_BUDGET})"
    );
}

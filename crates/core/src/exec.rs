//! Test generation and execution phase (paper Section III.B, steps 1–6),
//! and the one parallel driver every campaign mode runs on.
//!
//! For every test case the executor:
//!
//! 1. materialises a booted testbed — normally by **rewinding a
//!    per-worker [`Workspace`]** to a snapshot taken once per worker
//!    inside the test partition's first slot, after its prologue (see
//!    [`Booter`]): the other partitions' first-frame work and the
//!    prologue are identical in every test, so they are simulated once,
//!    not per test. The snapshot's memory is flat,
//!    so the rewind is one bounded copy of the 256-byte blocks the
//!    last test wrote, plus
//!    capacity-preserving `clone_from`s, with no per-test allocation or
//!    refcount traffic. Falls back to a fresh boot when the testbed's
//!    guests are not cloneable. Tests never observe another test's
//!    state, so independence (what lets the campaign run embarrassingly
//!    parallel) is preserved;
//! 2. installs the mutant (fault placeholder) into the test partition;
//! 3. runs the configured number of cyclic schedules ("the test call is
//!    invoked at least once per major frame");
//! 4. logs return codes and partition/kernel health;
//! 5. classifies the outcome against the oracle.
//!
//! **The run-window rule.** A test's log (§III.C) is the flight-recorder
//! window its worker's `Booter` opens: every rewind or fresh boot it
//! hands out first resets the thread's recorder, then records
//! `TestBegin(index)` when the run is a kept flight, then boots or
//! rewinds. Every campaign mode runs on the `Booter`, so no caller
//! drains to discard another run's events; a caller drains only to
//! consume its own window (a kept flight, fuzz coverage, `check`'s
//! invariants).
//!
//! [`par_indexed`] is the parallel driver behind [`run_campaign`], the
//! sequence campaign, the fuzzer's rounds and the isolation checker. Each
//! of those drivers runs on one thread of its own
//! (`on_campaign_thread`). `par_indexed` runs one worker per entry of a
//! caller-owned worker-state slice — worker 0 on the driver's thread, the
//! rest on `std::thread::scope` threads — and distributes indices by
//! **work stealing**: the index space is pre-split into one contiguous
//! range per worker, each packed into a single `AtomicU64`
//! ([`WorkStealQueues`]). A worker pops chunk-sized runs off the *front*
//! of its own range with a CAS; once empty it steals runs from the *back*
//! of a victim's range, so no worker idles while another still holds
//! work. Every index is claimed exactly once, runs carry their start
//! index, and the result reassembles by sorting runs — results are
//! byte-identical whatever the thread count or steal schedule. Metrics
//! tally into per-worker [`WorkerLog`]s (plain integers and inline
//! histograms); [`fold_logs`] adds them into one [`MetricsReport`] on the
//! driver's thread once the workers join, so no counter is shared while
//! they run (see [`crate::metrics`]). The one exception is
//! `--live-stats`: a campaign's heartbeat thread samples
//! [`LiveProgress`], the only state workers publish mid-run, and writes
//! it through the same [`LiveSink`] the fuzzer uses.

use crate::classify::CrashClass;
use crate::classify::{classify, Classification};
use crate::flight::{FlightLog, TestFlight, DEFAULT_RING_CAPACITY};
use crate::issues::{deduplicate, Issue};
use crate::metrics::{write_trace, LocalMetrics, MetricsReport, Phase};
use crate::mutant::MutantGuest;
use crate::observe::TestObservation;
use crate::oracle::{Expectation, OracleContext, ParamClass};
use crate::suite::{CampaignSpec, TestCase};
use crate::testbed::{BootSnapshot, Testbed, Workspace};
use flightrec::{Event, EventKind, NO_PARTITION};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtratum::guest::GuestSet;
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

/// One executed-and-classified test.
#[derive(Debug, Clone)]
pub struct TestRecord {
    /// What was injected.
    pub case: TestCase,
    /// What was observed.
    pub observation: TestObservation,
    /// What the manual said should happen.
    pub expectation: Expectation,
    /// CRASH classification.
    pub classification: Classification,
    /// Responsible-parameter signature for issue grouping.
    pub param_signature: Option<(usize, ParamClass)>,
}

/// Campaign execution options.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Kernel build to test.
    pub build: KernelBuild,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// When set, write a JSONL per-test trace here after the run.
    pub trace_path: Option<PathBuf>,
    /// Run the flight recorder: each worker records kernel/executor
    /// events into a preallocated ring, drained per test into
    /// [`CampaignResult::flight`] and folded into per-hypercall latency
    /// histograms. Off by default; the disabled path costs one branch
    /// per instrumentation point and zero allocations.
    pub record: bool,
    /// Scale the campaign to exactly this many tests: truncate the case
    /// list when smaller, cycle it from the start when larger (the
    /// `campaign sweep --tests N` mode; repeated cases keep their
    /// original suite/case indices and are executed again). `None` runs
    /// the spec as-is.
    pub max_tests: Option<usize>,
    /// Stream heartbeat JSONL lines while the campaign runs
    /// (`--live-stats`). Workers fold each finished test into shared
    /// atomics (only when this is set) that a dedicated emitter thread
    /// samples, so the deterministic result surface is untouched:
    /// records, tables and traces are byte-identical on and off.
    pub live_stats: Option<LiveStats>,
}

/// Live progress streaming configuration (`--live-stats`).
#[derive(Debug, Clone)]
pub struct LiveStats {
    /// JSONL heartbeat sink path.
    pub path: PathBuf,
    /// Emission interval (the final line is always written).
    pub interval: Duration,
}

impl LiveStats {
    pub fn new(path: PathBuf, interval: Duration) -> Self {
        LiveStats { path, interval }
    }
}

/// An open heartbeat stream: the JSONL file, the emission cadence and the
/// first error. Errors are captured, never propagated — a broken
/// heartbeat sink must never fail or perturb a run — and each one names
/// the sink's path. After an error the sink is closed and writes are
/// no-ops.
pub(crate) struct LiveSink {
    cfg: LiveStats,
    out: Option<std::io::BufWriter<std::fs::File>>,
    last_emit: Instant,
    error: Option<String>,
}

impl LiveSink {
    /// Creates (truncates) `cfg.path`; an open failure is captured like a
    /// write failure.
    pub(crate) fn open(cfg: &LiveStats) -> Self {
        let mut sink =
            LiveSink { cfg: cfg.clone(), out: None, last_emit: Instant::now(), error: None };
        match std::fs::File::create(&cfg.path) {
            Ok(f) => sink.out = Some(std::io::BufWriter::new(f)),
            Err(e) => sink.fail(e),
        }
        sink
    }

    /// The configured emission interval.
    pub(crate) fn interval(&self) -> Duration {
        self.cfg.interval
    }

    /// True when a heartbeat is owed: the sink is open and the interval
    /// has elapsed since the last line.
    pub(crate) fn due(&self) -> bool {
        self.out.is_some() && self.last_emit.elapsed() >= self.cfg.interval
    }

    /// Writes and flushes one line. Returns whether the sink is still
    /// open.
    pub(crate) fn write(&mut self, line: &str) -> bool {
        let Some(w) = self.out.as_mut() else { return false };
        self.last_emit = Instant::now();
        if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
            self.fail(e);
        }
        self.out.is_some()
    }

    /// The first error the sink hit, if any.
    pub(crate) fn into_error(self) -> Option<String> {
        self.error
    }

    fn fail(&mut self, e: std::io::Error) {
        self.out = None;
        self.error.get_or_insert_with(|| {
            format!("failed to write live stats {}: {e}", self.cfg.path.display())
        });
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            build: KernelBuild::Legacy,
            threads: 0,
            trace_path: None,
            record: false,
            max_tests: None,
            live_stats: None,
        }
    }
}

/// A completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Which build was tested.
    pub build: KernelBuild,
    /// All records, in campaign order.
    pub records: Vec<TestRecord>,
    /// Run metrics (wall-clock, throughput, cache/boot counters). Not
    /// part of the deterministic result surface.
    pub metrics: MetricsReport,
    /// Error rendering/writing the JSONL trace, if one was requested and
    /// failed. The records themselves are unaffected.
    pub trace_error: Option<String>,
    /// Error writing the live-stats heartbeat stream, if one was
    /// requested and failed. The records themselves are unaffected.
    pub live_stats_error: Option<String>,
    /// Per-test flight recordings, present when the campaign ran with
    /// [`CampaignOptions::record`]. Like `metrics`, not part of the
    /// deterministic result surface.
    pub flight: Option<FlightLog>,
}

impl CampaignResult {
    /// Deduplicated raised issues.
    pub fn issues(&self) -> Vec<Issue> {
        deduplicate(&self.records)
    }

    /// Number of failing (non-Pass) tests.
    pub fn failing_tests(&self) -> usize {
        self.records.iter().filter(|r| r.classification.class != CrashClass::Pass).count()
    }
}

/// Executes one test case against a freshly booted testbed instance. This
/// is the reference the campaign engine's snapshot rewind is tested
/// against: [`run_campaign`] must produce the identical record.
pub fn run_single_test<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    build: KernelBuild,
    case: &TestCase,
) -> TestRecord {
    let (mut kernel, mut guests) = testbed.boot(build);
    let expectation = ctx.expect(&case.raw());
    let part = testbed.test_partition();
    guests.set(part, Box::new(MutantGuest::new(case.raw(), testbed.prologue())));
    kernel.step_major_frames(&mut guests, testbed.frames_per_test());
    let invocations = crate::mutant::take_invocations(&mut guests, part);
    let observation = TestObservation { invocations, summary: kernel.into_summary() };
    let classification = classify(&observation, &expectation, part);
    let param_signature = ctx.param_signature(&expectation, &case.dataset);
    TestRecord { case: case.clone(), observation, expectation, classification, param_signature }
}

/// Runs one case on a worker's [`Booter`]: open the case's run window
/// (filed under `flight` when recording) and rewind to the prefix
/// snapshot (skipping the test partition's guest, replaced next),
/// install the mutant, run, summarise by reference. Produces a record
/// byte-identical to [`run_single_test`] — the restore rebuilds the
/// exact state a run from boot reaches after the test partition's
/// prologue, the mutant learns from the kernel that it ran, and
/// [`XmKernel::summary`] equals [`XmKernel::into_summary`] — without the
/// per-test boot or the re-run of the shared prefix.
fn execute<T: Testbed + ?Sized>(
    testbed: &T,
    booter: &mut Booter<'_, T>,
    local: &mut LocalMetrics,
    ctx: &OracleContext,
    expectation: Expectation,
    case: &TestCase,
    flight: Option<usize>,
) -> TestRecord {
    let part = testbed.test_partition();
    let (kernel, guests) = booter.booted(local, flight);
    guests.set(part, Box::new(MutantGuest::new(case.raw(), testbed.prologue())));
    let span = local.start_span();
    kernel.step_major_frames(guests, testbed.frames_per_test());
    local.end_span(Phase::Frames, span);
    let invocations = crate::mutant::take_invocations(guests, part);
    let observation = TestObservation { invocations, summary: kernel.summary() };
    let classification = classify(&observation, &expectation, part);
    let param_signature = ctx.param_signature(&expectation, &case.dataset);
    TestRecord { case: case.clone(), observation, expectation, classification, param_signature }
}

/// A worker's source of booted `(kernel, guests)` pairs, each already run
/// up to the test partition's first slot and through its prologue there.
/// It boots once, runs that shared prefix once, and keeps one persistent
/// [`Workspace`] rewound to the prefix state before every evaluation (the
/// flat-arena fast path: no per-evaluation deep copy, and no
/// per-evaluation re-run of the other partitions' first-frame work or of
/// the prologue). When the testbed cannot snapshot (its guests are not
/// cloneable), it fresh-boots into a scratch slot per evaluation instead.
pub(crate) struct Booter<'t, T: ?Sized> {
    testbed: &'t T,
    build: KernelBuild,
    arena: Option<Arena>,
    scratch: Option<(XmKernel, GuestSet)>,
}

/// A prefix snapshot, the workspace rewound to it, and the flight events
/// the prefix recorded, replayed after each rewind so a recording sees
/// the same stream as a run from boot. `inside` says whether the prefix
/// ends inside the test partition's slot, after its prologue: it does
/// unless the kernel refused to open the slot
/// ([`XmKernel::enter_slot_of`]), and then each run's guest runs the
/// prologue itself.
struct Arena {
    snapshot: BootSnapshot,
    workspace: Workspace,
    prefix: Vec<Event>,
    inside: bool,
}

impl<'t, T: Testbed + ?Sized> Booter<'t, T> {
    pub(crate) fn new(testbed: &'t T, build: KernelBuild, local: &mut LocalMetrics) -> Self {
        local.note_fresh_boot();
        let part = testbed.test_partition();
        let arena = testbed.snapshot(build).map(|mut snapshot| {
            // A private recording window: the caller's ring is untouched.
            let (inside, prefix) = flightrec::capture(|| {
                snapshot.step_until_slot_of(part);
                snapshot.enter_slot_of(part, testbed.prologue())
            });
            let workspace = snapshot.workspace();
            Arena { snapshot, workspace, prefix: prefix.events, inside }
        });
        Booter { testbed, build, arena, scratch: None }
    }

    /// Opens a run window and hands back a booted pair rewound to the
    /// prefix state (or, when the testbed cannot snapshot, freshly
    /// booted into the scratch slot). The test partition's guest is
    /// skipped on restore — every caller immediately replaces it. The
    /// window opens before the rewind: this thread's recorder is reset,
    /// `TestBegin(index)` is recorded when a flight index is given, then
    /// the `SnapshotClone` marker and the prefix's replayed events
    /// follow, so a recording sees the same stream as a run from boot.
    pub(crate) fn booted(
        &mut self,
        local: &mut LocalMetrics,
        flight: Option<usize>,
    ) -> (&mut XmKernel, &mut GuestSet) {
        let (kernel, guests, _) = self.booted_from(local, flight);
        (kernel, guests)
    }

    /// [`booted`](Self::booted), plus the snapshot kernel an arena pair
    /// was just rewound to (`None` for a fresh boot). Until the pair
    /// runs, its memory equals the snapshot's and no block is dirty, so a
    /// caller can diff the blocks a run wrote against the snapshot.
    pub(crate) fn booted_from(
        &mut self,
        local: &mut LocalMetrics,
        flight: Option<usize>,
    ) -> (&mut XmKernel, &mut GuestSet, Option<&XmKernel>) {
        open_window(flight);
        let Some(arena) = self.arena.as_mut() else {
            local.note_fresh_boot();
            local.note_prologue(false);
            let pair = self.scratch.insert(self.testbed.boot(self.build));
            return (&mut pair.0, &mut pair.1, None);
        };
        local.note_snapshot_clone();
        local.note_prologue(arena.inside);
        flightrec::record_timeless(EventKind::SnapshotClone, NO_PARTITION, 0, 0, 0);
        let span = local.start_span();
        arena.workspace.restore(&arena.snapshot, Some(self.testbed.test_partition()));
        local.end_span(Phase::Rewind, span);
        flightrec::replay(&arena.prefix);
        let (kernel, guests) = arena.workspace.parts();
        (kernel, guests, Some(arena.snapshot.kernel()))
    }

    /// The flight events the arena's prefix recorded, which every run
    /// window replays right after its `SnapshotClone` marker; `None` when
    /// the testbed cannot snapshot and each run boots afresh.
    pub(crate) fn prefix_events(&self) -> Option<&[Event]> {
        self.arena.as_ref().map(|arena| arena.prefix.as_slice())
    }
}

/// Opens one run window on this thread's recorder: everything recorded
/// before it is discarded, and a kept flight (`flight` is its campaign
/// index) starts with its `TestBegin`.
fn open_window(flight: Option<usize>) {
    flightrec::clear();
    if let Some(index) = flight {
        flightrec::record(0, EventKind::TestBegin, NO_PARTITION, index as u32, 0, 0);
    }
}

/// The bookkeeping every campaign worker keeps on plain, unshared state:
/// metrics counters, its drained per-test flights, and the
/// hypercall-latency histograms folded from them. Folded once per run by
/// [`fold_logs`].
pub(crate) struct WorkerLog {
    pub(crate) local: LocalMetrics,
    pub(crate) flights: Vec<TestFlight>,
    pub(crate) hist: flightrec::HistogramSet,
}

impl WorkerLog {
    /// An empty log; `profile` switches the worker's phase timers on.
    pub(crate) fn new(profile: bool) -> Self {
        WorkerLog {
            local: LocalMetrics::new(profile),
            flights: Vec::new(),
            hist: flightrec::HistogramSet::new(64),
        }
    }

    /// Closes one test's recording window: stamps the terminal `TestEnd`
    /// event, drains the worker's ring, folds hypercall costs into the
    /// latency histograms and files the flight under its campaign index.
    pub(crate) fn end_flight(&mut self, index: usize, class: CrashClass) {
        flightrec::record_timeless(EventKind::TestEnd, NO_PARTITION, class.index() as u32, 0, 0);
        let drained = flightrec::drain();
        self.fold_latency(&drained.events);
        self.flights.push(TestFlight { index, events: drained.events, dropped: drained.dropped });
    }

    /// Folds the modelled cost of every hypercall in `events` into the
    /// latency histograms.
    pub(crate) fn fold_latency(&mut self, events: &[Event]) {
        for e in events {
            if e.kind == EventKind::HypercallExit {
                self.hist.observe(e.code, e.b);
            }
        }
    }
}

/// Folds the workers' logs and the run's steal count into its metrics
/// report and, when recording, its flight log in campaign order (flights
/// are filed under their campaign index, so sorting undoes the steal
/// schedule). Runs once, on the thread that joined the workers, so the
/// fold is plain addition.
pub(crate) fn fold_logs(
    logs: impl IntoIterator<Item = WorkerLog>,
    steals: u64,
    record: bool,
    started: Instant,
) -> (MetricsReport, Option<FlightLog>) {
    let mut total = LocalMetrics::new(false);
    let mut hist = flightrec::HistogramSet::new(64);
    let mut flights = Vec::new();
    let mut threads = 0;
    for log in logs {
        threads += 1;
        total.merge(&log.local);
        hist.merge(&log.hist);
        flights.extend(log.flights);
    }
    let report = MetricsReport { wall: started.elapsed(), threads, steals, ..total.report(&hist) };
    let flight = record.then(|| {
        flights.sort_by_key(|f| f.index);
        FlightLog { tests: flights }
    });
    (report, flight)
}

/// Packs a contiguous, not-yet-claimed index range `[lo, hi)` into one
/// word: `lo` in the low 32 bits, `hi` in the high 32.
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

fn unpack(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// Claims up to `chunk` indices from one packed range with a CAS loop —
/// from the front (the owner's side) or the back (the thief's side).
/// Returns the claimed `[lo, hi)` run, or `None` when the range is empty.
fn claim(slot: &AtomicU64, chunk: usize, front: bool) -> Option<(usize, usize)> {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            return None;
        }
        let take = (chunk as u32).min(hi - lo);
        let (next, run) = if front {
            (pack(lo + take, hi), (lo as usize, (lo + take) as usize))
        } else {
            (pack(lo, hi - take), ((hi - take) as usize, hi as usize))
        };
        match slot.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return Some(run),
            Err(actual) => cur = actual,
        }
    }
}

/// Work-stealing distribution of an index space: one contiguous range
/// per worker, each packed `lo|hi` into a single `AtomicU64`. The owner
/// pops chunk-sized runs off the front; a worker whose range is empty
/// steals runs off the back of a victim's range. Every index is claimed
/// exactly once (the CAS publishes a strictly shrinking range, so there
/// is no ABA hazard), which is what keeps results independent of the
/// steal schedule: results are reassembled by run start index, not by
/// execution order.
struct WorkStealQueues {
    ranges: Vec<AtomicU64>,
}

impl WorkStealQueues {
    /// Splits `[0, n)` evenly (front-loaded remainder) across `n_workers`
    /// ranges.
    fn new(n: usize, n_workers: usize) -> Self {
        assert!(n <= u32::MAX as usize, "index must fit u32");
        let per = n / n_workers;
        let extra = n % n_workers;
        let mut lo = 0usize;
        let ranges = (0..n_workers)
            .map(|w| {
                let hi = lo + per + usize::from(w < extra);
                let slot = AtomicU64::new(pack(lo as u32, hi as u32));
                lo = hi;
                slot
            })
            .collect();
        WorkStealQueues { ranges }
    }

    /// Next run `(lo, hi, stolen)` for worker `w`: the front of its own
    /// range, else stolen from the back of the first non-empty victim
    /// (scanned starting after `w` so thieves spread across victims).
    fn next(&self, w: usize, chunk: usize) -> Option<(usize, usize, bool)> {
        if let Some((lo, hi)) = claim(&self.ranges[w], chunk, true) {
            return Some((lo, hi, false));
        }
        let n = self.ranges.len();
        (1..n).find_map(|off| {
            claim(&self.ranges[(w + off) % n], chunk, false).map(|(lo, hi)| (lo, hi, true))
        })
    }
}

/// Worker threads for `n` work items: `requested` (0 = one per available
/// core), never more than there are items, never fewer than one.
pub(crate) fn resolve_threads(requested: usize, n: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        requested
    };
    threads.min(n).max(1)
}

/// Indices per work-stealing run: ~8 runs per worker balances load
/// without shredding locality.
fn resolve_chunk(n: usize, n_threads: usize) -> usize {
    (n / (n_threads * 8)).clamp(1, 64)
}

/// Runs `body` for every index in `0..n`, one worker per entry of
/// `workers`, and returns the results in index order.
///
/// Worker 0 runs on the calling thread — in a driver, the campaign's own
/// thread (see [`on_campaign_thread`]) — inside a [`flightrec::isolated`]
/// window, so it starts like a fresh thread and leaves the caller's
/// recorder as it found it. Workers 1.. each get a scoped thread. Each
/// worker first calls `start` on its state; the value it returns is
/// scratch handed to every `body` call on that worker. The flight
/// recorder is thread-local, so enabling it belongs in `start`; the boot
/// events of a per-worker arena booted there belong to no test and go
/// with the first run window. The `workers` entries outlive the call, so
/// state such as the fuzzer's boot arenas persists from one call to the
/// next. A run claimed from another worker's range adds one to `steals`
/// (once per run, never per item). Results depend only on `body`, never
/// on the thread count or the steal schedule. A panic in `body` or
/// `start` comes out of the call with its original payload.
pub(crate) fn par_indexed<W, S, R>(
    n: usize,
    workers: &mut [W],
    steals: &AtomicU64,
    start: impl Fn(&mut W) -> S + Sync,
    body: impl Fn(&mut W, &mut S, usize) -> R + Sync,
) -> Vec<R>
where
    W: Send,
    R: Send,
{
    let n_workers = workers.len();
    let (first, rest) = workers.split_first_mut().expect("par_indexed needs at least one worker");
    let chunk = resolve_chunk(n, n_workers);
    let queues = WorkStealQueues::new(n, n_workers);
    let run = |w: usize, state: &mut W| {
        let mut scratch = start(state);
        let mut runs = Vec::new();
        while let Some((lo, hi, stolen)) = queues.next(w, chunk) {
            if stolen {
                steals.fetch_add(1, Ordering::Relaxed);
            }
            runs.push((lo, (lo..hi).map(|i| body(state, &mut scratch, i)).collect::<Vec<R>>()));
        }
        runs
    };
    let run = &run;
    let mut runs = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (1..).zip(rest).map(|(w, state)| scope.spawn(move || run(w, state))).collect();
        let mut runs = flightrec::isolated(|| run(0, first));
        for h in handles {
            runs.extend(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        runs
    });
    runs.sort_unstable_by_key(|&(lo, _)| lo);
    // Sized once: a flattening `collect` would grow from a zero size hint.
    let mut out = Vec::with_capacity(n);
    for (_, r) in runs {
        out.extend(r);
    }
    out
}

/// Runs a campaign driver's whole body `f` on one scoped thread of its
/// own and returns its result; a panic in `f` comes out with its original
/// payload. The campaign's worker 0 runs on this thread (see
/// [`par_indexed`]), so a driver that calls `par_indexed` once per round
/// starts one thread for the campaign, not one per round, and the
/// caller's thread — its recorder, its heap — is left as it was.
pub(crate) fn on_campaign_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        scope.spawn(f).join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// Shared in-flight progress counters behind `--live-stats`. With live
/// stats on, workers fold every finished test into these; the emitter
/// thread samples them on its interval. They are the only counters the
/// emitter can read while the workers run — the per-worker logs are
/// folded only after they join — and nothing on the result path ever
/// reads them.
#[derive(Debug, Default)]
struct LiveProgress {
    done: AtomicU64,
    classes: [AtomicU64; 6],
    snapshot_clones: AtomicU64,
    steals: AtomicU64,
    stop: AtomicBool,
}

impl LiveProgress {
    fn note_test(&self, class: CrashClass, snapshot_clone: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.classes[class.index()].fetch_add(1, Ordering::Relaxed);
        if snapshot_clone {
            self.snapshot_clones.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One heartbeat JSONL line from the shared progress counters.
fn live_line(
    seq: u64,
    elapsed: Duration,
    progress: &LiveProgress,
    total: usize,
    fin: bool,
) -> String {
    let done = progress.done.load(Ordering::Relaxed);
    let elapsed_ms = elapsed.as_millis() as u64;
    let rate = if elapsed_ms > 0 { done as f64 / (elapsed_ms as f64 / 1000.0) } else { 0.0 };
    let remaining = (total as u64).saturating_sub(done);
    let eta_ms = if rate > 0.0 { (remaining as f64 / rate * 1000.0) as u64 } else { 0 };
    let mut line = format!(
        "{{\"type\":\"live\",\"seq\":{seq},\"elapsed_ms\":{elapsed_ms},\
         \"tests_done\":{done},\"tests_total\":{total},\
         \"tests_per_sec\":{rate:.1},\"eta_ms\":{eta_ms}"
    );
    for class in CrashClass::ALL {
        let count = progress.classes[class.index()].load(Ordering::Relaxed);
        line.push_str(&format!(",\"{}\":{count}", class.label().to_ascii_lowercase()));
    }
    line.push_str(&format!(
        ",\"snapshot_clones\":{},\"steals\":{},\"final\":{fin}}}",
        progress.snapshot_clones.load(Ordering::Relaxed),
        progress.steals.load(Ordering::Relaxed),
    ));
    line
}

/// Starts the heartbeat emitter: it writes one line per interval until
/// `progress.stop` is set, then a final line. It never touches worker
/// state, so results are byte-identical with or without it. The handle
/// yields the sink error, if writing failed.
fn spawn_emitter(
    cfg: &LiveStats,
    progress: Arc<LiveProgress>,
    total: usize,
    started: Instant,
) -> std::thread::JoinHandle<Option<String>> {
    let mut sink = LiveSink::open(cfg);
    std::thread::spawn(move || {
        for seq in 0.. {
            let stopping = progress.stop.load(Ordering::Acquire);
            let line = live_line(seq, started.elapsed(), &progress, total, stopping);
            if !sink.write(&line) || stopping {
                break;
            }
            std::thread::park_timeout(sink.interval());
        }
        sink.into_error()
    })
}

/// Executes a whole campaign, in parallel, preserving campaign order in
/// the result.
pub fn run_campaign<T: Testbed + ?Sized>(
    testbed: &T,
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> CampaignResult {
    on_campaign_thread(|| campaign_body(testbed, spec, opts))
}

/// [`run_campaign`], on the campaign's own thread.
fn campaign_body<T: Testbed + ?Sized>(
    testbed: &T,
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> CampaignResult {
    let started = Instant::now();
    let mut cases = spec.all_cases();
    if let Some(n) = opts.max_tests {
        if n <= cases.len() {
            cases.truncate(n);
        } else if !cases.is_empty() {
            let base = cases.len();
            for i in base..n {
                let cycled = cases[i % base].clone();
                cases.push(cycled);
            }
        }
    }
    let ctx = testbed.oracle_context(opts.build);
    let progress = Arc::new(LiveProgress::default());
    let emitter = opts
        .live_stats
        .as_ref()
        .map(|cfg| spawn_emitter(cfg, Arc::clone(&progress), cases.len(), started));

    let mut logs: Vec<WorkerLog> = (0..resolve_threads(opts.threads, cases.len()))
        .map(|_| WorkerLog::new(opts.record))
        .collect();
    let records = par_indexed(
        cases.len(),
        &mut logs,
        &progress.steals,
        |log| {
            // One snapshot + workspace per worker: guest trait objects are
            // Send but not Sync, so the prototype cannot be shared across
            // threads — but one boot and one prefix per worker (instead of
            // one per test) is all it costs, and the workspace is rewound
            // (never re-cloned) per test.
            if opts.record {
                flightrec::enable(DEFAULT_RING_CAPACITY);
            }
            Booter::new(testbed, opts.build, &mut log.local)
        },
        |log, booter, i| {
            let case = &cases[i];
            let local = &mut log.local;
            let span = local.start_span();
            let expectation = ctx.expect(&case.raw());
            local.end_span(Phase::Oracle, span);
            let rec =
                execute(testbed, booter, local, &ctx, expectation, case, opts.record.then_some(i));
            local.note_outcome(rec.classification.class);
            if opts.record {
                log.end_flight(i, rec.classification.class);
            }
            if opts.live_stats.is_some() {
                progress.note_test(rec.classification.class, booter.arena.is_some());
            }
            rec
        },
    );
    debug_assert_eq!(records.len(), cases.len());

    let live_stats_error = emitter.and_then(|h| {
        progress.stop.store(true, Ordering::Release);
        h.thread().unpark();
        h.join().expect("live-stats emitter panicked")
    });
    let steals = progress.steals.load(Ordering::Relaxed);
    let (report, flight) = fold_logs(logs, steals, opts.record, started);
    let mut result = CampaignResult {
        build: opts.build,
        records,
        metrics: report,
        trace_error: None,
        live_stats_error,
        flight,
    };
    if let Some(path) = &opts.trace_path {
        if let Err(e) = write_trace(path, &result) {
            result.trace_error = Some(format!("failed to write trace {}: {e}", path.display()));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = CampaignOptions::default();
        assert_eq!(o.build, KernelBuild::Legacy);
        assert_eq!(o.threads, 0);
        assert!(o.trace_path.is_none());
        assert!(!o.record);
        assert!(o.max_tests.is_none());
        assert!(o.live_stats.is_none());
    }

    #[test]
    fn live_line_shape_and_eta() {
        let p = LiveProgress::default();
        for _ in 0..48 {
            p.note_test(CrashClass::Pass, true);
        }
        p.note_test(CrashClass::Silent, true);
        p.note_test(CrashClass::Silent, false);
        p.steals.store(3, Ordering::Relaxed);
        let line = live_line(7, Duration::from_secs(1), &p, 100, false);
        assert!(line.starts_with("{\"type\":\"live\",\"seq\":7,"));
        assert!(line.contains("\"tests_done\":50,\"tests_total\":100"));
        assert!(line.contains("\"tests_per_sec\":50.0"), "{line}");
        assert!(line.contains("\"eta_ms\":1000"), "{line}");
        assert!(line.contains("\"pass\":48"));
        assert!(line.contains("\"silent\":2"));
        assert!(line.contains("\"snapshot_clones\":49"));
        assert!(line.contains("\"steals\":3"));
        assert!(line.ends_with("\"final\":false}"));
        let done = live_line(8, Duration::from_secs(2), &p, 100, true);
        assert!(done.ends_with("\"final\":true}"));
    }

    /// Open and write failures are both captured, close the sink, and
    /// name its path.
    #[test]
    fn live_sink_errors_name_the_path() {
        let missing = std::env::temp_dir().join("skrt_no_such_dir").join("live.jsonl");
        let mut sink = LiveSink::open(&LiveStats::new(missing, Duration::ZERO));
        assert!(!sink.due() && !sink.write("{}"));
        let err = sink.into_error().expect("open failure captured");
        assert!(err.contains("skrt_no_such_dir"), "{err}");
        // Every write to /dev/full fails (ENOSPC) once flushed.
        let full = std::path::Path::new("/dev/full");
        if full.exists() {
            let mut sink = LiveSink::open(&LiveStats::new(full.into(), Duration::ZERO));
            assert!(sink.due());
            assert!(!sink.write("{}"), "a failed write closes the sink");
            let err = sink.into_error().expect("write failure captured");
            assert!(err.contains("/dev/full"), "{err}");
        }
    }

    #[test]
    fn steal_origin_is_reported() {
        let q = WorkStealQueues::new(20, 2);
        // Worker 1 drains its own half first (not stolen), then steals
        // from worker 0's range.
        let mut own = 0;
        let mut stolen = 0;
        while let Some((_, _, theft)) = q.next(1, 5) {
            if theft {
                stolen += 1;
            } else {
                own += 1;
            }
        }
        assert_eq!(own, 2, "worker 1's own 10 cases in 2 chunks");
        assert_eq!(stolen, 2, "worker 0's 10 cases stolen in 2 chunks");
    }

    #[test]
    fn work_steal_covers_every_index_exactly_once() {
        let q = WorkStealQueues::new(100, 4);
        let mut seen = [false; 100];
        // One thief drains all four ranges: its own from the front, the
        // victims' from the back.
        while let Some((lo, hi, _)) = q.next(2, 7) {
            assert!(lo < hi && hi <= 100);
            for s in &mut seen[lo..hi] {
                assert!(!*s, "index claimed twice");
                *s = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index claimed");
    }

    #[test]
    fn work_steal_empty_and_concurrent() {
        assert_eq!(WorkStealQueues::new(0, 3).next(0, 8), None);
        // Hammer one queue set from several threads; the union of claims
        // must partition the index space.
        let q = WorkStealQueues::new(10_000, 8);
        let mut claims: Vec<(usize, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|w| {
                    let q = &q;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some((lo, hi, _)) = q.next(w, 13) {
                            mine.push((lo, hi));
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        claims.sort_unstable();
        let mut next = 0;
        for (lo, hi) in claims {
            assert_eq!(lo, next, "gap or overlap at {lo}");
            next = hi;
        }
        assert_eq!(next, 10_000);
    }

    #[test]
    fn thread_and_chunk_resolution() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(16, 3), 3);
        assert_eq!(resolve_threads(2, 0), 1);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_chunk(2662, 8), 41);
        assert_eq!(resolve_chunk(5, 8), 1);
        assert_eq!(resolve_chunk(1_000_000, 2), 64);
    }

    #[test]
    fn par_indexed_returns_index_order_and_keeps_worker_state() {
        // Per-worker counters persist across calls; results come back in
        // index order whatever the thread count. Worker 0 runs on the
        // calling thread, every other worker off it, and a `start` that
        // enables the recorder leaves the caller's window as it found it:
        // here enabled, two buffered events, one drop.
        let caller = std::thread::current().id();
        flightrec::enable(2);
        for t in [1, 2, 3] {
            flightrec::record(t, EventKind::Ops, 0, 0, 0, 0);
        }
        for threads in [1usize, 3, 8] {
            // (items run, the threads `start` and `body` ran on)
            let mut workers = vec![(0usize, Vec::new()); threads];
            let steals = AtomicU64::new(0);
            for round in 0..2 {
                let out = par_indexed(
                    100,
                    &mut workers,
                    &steals,
                    |(_, ran_on)| {
                        ran_on.push(std::thread::current().id());
                        flightrec::enable(DEFAULT_RING_CAPACITY);
                        0usize
                    },
                    |(count, ran_on), scratch, i| {
                        *count += 1;
                        *scratch += 1;
                        ran_on.push(std::thread::current().id());
                        flightrec::record(99, EventKind::SlotBegin, 0, 0, 0, 0);
                        i * 2 + round
                    },
                );
                assert_eq!(out, (0..100).map(|i| i * 2 + round).collect::<Vec<_>>());
            }
            assert_eq!(workers.iter().map(|w| w.0).sum::<usize>(), 200, "every item ran once");
            for (w, (_, ran_on)) in workers.iter().enumerate() {
                assert!(
                    ran_on.iter().all(|&id| (id == caller) == (w == 0)),
                    "worker {w} of {threads} ran on the wrong thread"
                );
            }
        }
        assert!(flightrec::active());
        let window = flightrec::drain();
        assert_eq!(window.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(window.dropped, 1);
        flightrec::disable();
    }

    #[test]
    fn panics_come_out_of_the_drivers_with_their_payload() {
        let payload = |r: std::thread::Result<_>| {
            *r.expect_err("the panic must come out").downcast::<&str>().expect("original payload")
        };
        for threads in [1usize, 3] {
            // Index 0 starts on the calling thread's worker, 99 on the last.
            for bad in [0usize, 99] {
                let mut workers = vec![(); threads];
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    par_indexed(
                        100,
                        &mut workers,
                        &AtomicU64::new(0),
                        |_| (),
                        |_, _, i| assert!(i != bad, "body panicked"),
                    )
                }));
                assert_eq!(payload(run), "body panicked", "index {bad} at {threads} threads");
            }
        }
        let caller = std::thread::current().id();
        assert_ne!(on_campaign_thread(|| std::thread::current().id()), caller);
        let run = std::panic::catch_unwind(|| on_campaign_thread(|| panic!("driver panicked")));
        assert_eq!(payload(run), "driver panicked");
    }
}

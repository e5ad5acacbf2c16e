//! Test generation and execution phase (paper Section III.B, steps 1–6),
//! and the one parallel driver every campaign mode runs on.
//!
//! For every test case the executor:
//!
//! 1. materialises a booted testbed — normally by **rewinding a
//!    per-worker [`Workspace`]** to a snapshot taken once per worker
//!    just before the test partition's first slot (see [`Booter`]): the
//!    other partitions' first-frame work is identical in every test, so
//!    it is simulated once, not per test. The snapshot's memory is flat,
//!    so the rewind is one bounded dirty-page copy plus
//!    capacity-preserving `clone_from`s, with no per-test allocation or
//!    refcount traffic. Falls back to a fresh boot when the testbed's
//!    guests are not cloneable. Tests never observe another test's
//!    state, so independence (what lets the campaign run embarrassingly
//!    parallel) is preserved;
//! 2. installs the mutant (fault placeholder) into the test partition;
//! 3. runs the configured number of cyclic schedules ("the test call is
//!    invoked at least once per major frame");
//! 4. logs return codes and partition/kernel health;
//! 5. classifies the outcome against the oracle (cached per worker —
//!    datasets repeat magic values across suites).
//!
//! [`par_indexed`] is the parallel driver behind [`run_campaign`], the
//! sequence campaign, the fuzzer's rounds and the isolation checker. It
//! runs one `std::thread::scope` worker per entry of a caller-owned
//! worker-state slice and distributes indices by **work stealing**: the
//! index space is pre-split into one contiguous range per worker, each
//! packed into a single `AtomicU64` ([`WorkStealQueues`]). A worker pops
//! chunk-sized runs off the *front* of its own range with a CAS; once
//! empty it steals runs from the *back* of a victim's range, so no
//! worker idles while another still holds work. Every index is claimed
//! exactly once, runs carry their start index, and the result reassembles
//! by sorting runs — results are byte-identical whatever the thread count
//! or steal schedule. Metrics tally into per-worker [`WorkerLog`]s
//! (plain integers) folded once after the run, keeping shared atomics off
//! the hot path entirely; the folded counters stream into a
//! [`MetricsReport`] and an optional JSONL trace sink (see
//! [`crate::metrics`]).

use crate::classify::CrashClass;
use crate::classify::{classify, Classification};
use crate::flight::{FlightLog, TestFlight, DEFAULT_RING_CAPACITY};
use crate::issues::{deduplicate, Issue};
use crate::metrics::{
    latency_rows, write_trace, CampaignMetrics, LocalMetrics, MetricsReport, Phase,
};
use crate::mutant::MutantGuest;
use crate::observe::TestObservation;
use crate::oracle::{Expectation, OracleCache, OracleContext, ParamClass};
use crate::suite::{CampaignSpec, TestCase};
use crate::testbed::{BootSnapshot, Testbed, Workspace};
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

/// Runs one case on a worker's [`Booter`]: rewind to the prefix snapshot
/// (skipping the test partition's guest, replaced next), install the
/// mutant, run, summarise by reference. Produces a record byte-identical
/// to [`run_single_test`] — the restore rebuilds the exact state a run
/// from boot reaches at the test partition's first slot, and
/// [`XmKernel::summary`] equals [`XmKernel::into_summary`] — without the
/// per-test boot or the re-run of the shared prefix.
fn execute<T: Testbed + ?Sized>(
    testbed: &T,
    booter: &mut Booter<'_, T>,
    local: &mut LocalMetrics,
    ctx: &OracleContext,
    expectation: Expectation,
    case: &TestCase,
) -> TestRecord {
    let part = testbed.test_partition();
    let profile = booter.profile;
    let (kernel, guests) = booter.booted(local);
    guests.set(part, Box::new(MutantGuest::new(case.raw(), testbed.prologue())));
    // Phase timers only run on observability (recorder-on) campaigns:
    // the plain path stays clock-free beyond the existing per-test stamp.
    if profile {
        let t = Instant::now();
        kernel.step_major_frames(guests, testbed.frames_per_test());
        local.note_phase(Phase::Frames, t.elapsed());
    } else {
        kernel.step_major_frames(guests, testbed.frames_per_test());
    }
    let invocations = crate::mutant::take_invocations(guests, part);
    let observation = TestObservation { invocations, summary: kernel.summary() };
    let classification = classify(&observation, &expectation, part);
    let param_signature = ctx.param_signature(&expectation, &case.dataset);
    TestRecord { case: case.clone(), observation, expectation, classification, param_signature }
}

/// A worker's source of booted `(kernel, guests)` pairs, each already run
/// up to the test partition's first slot. It boots once, runs that shared
/// prefix once, and keeps one persistent [`Workspace`] rewound to the
/// prefix state before every evaluation (the flat-arena fast path: no
/// per-evaluation deep copy, and no per-evaluation re-run of the other
/// partitions' first-frame work). When the testbed cannot snapshot (its
/// guests are not cloneable), it fresh-boots into a scratch slot per
/// evaluation instead.
pub(crate) struct Booter<'t, T: ?Sized> {
    testbed: &'t T,
    build: KernelBuild,
    arena: Option<Arena>,
    scratch: Option<(XmKernel, GuestSet)>,
    /// Time arena rewinds into the self-profile (observability runs only).
    profile: bool,
}

/// A prefix snapshot, the workspace rewound to it, and the flight events
/// the prefix recorded, replayed after each rewind so a recording sees
/// the same stream as a run from boot.
struct Arena {
    snapshot: BootSnapshot,
    workspace: Workspace,
    prefix: Vec<flightrec::Event>,
}

impl<'t, T: Testbed + ?Sized> Booter<'t, T> {
    pub(crate) fn new(
        testbed: &'t T,
        build: KernelBuild,
        profile: bool,
        local: &mut LocalMetrics,
    ) -> Self {
        local.note_fresh_boot();
        let arena = testbed.snapshot(build).map(|mut snapshot| {
            // A private recording window: the caller's ring is untouched.
            let ((), prefix) =
                flightrec::capture(|| snapshot.step_until_slot_of(testbed.test_partition()));
            let workspace = snapshot.workspace();
            Arena { snapshot, workspace, prefix: prefix.events }
        });
        Booter { testbed, build, arena, scratch: None, profile }
    }

    /// A booted pair rewound to the prefix state (or freshly booted). The
    /// test partition's guest is skipped on restore — every caller
    /// immediately replaces it. When recording, the prefix's events are
    /// replayed into the ring after the `SnapshotClone` marker, so callers
    /// that drain must do so *before* this call.
    pub(crate) fn booted(&mut self, local: &mut LocalMetrics) -> (&mut XmKernel, &mut GuestSet) {
        let (kernel, guests, _) = self.booted_from(local);
        (kernel, guests)
    }

    /// [`booted`](Self::booted), plus the snapshot kernel an arena pair
    /// was just rewound to (`None` for a fresh boot). Until the pair
    /// runs, its memory equals the snapshot's and no page is dirty, so a
    /// caller can diff the pages a run wrote against the snapshot.
    pub(crate) fn booted_from(
        &mut self,
        local: &mut LocalMetrics,
    ) -> (&mut XmKernel, &mut GuestSet, Option<&XmKernel>) {
        let skip = self.testbed.test_partition();
        match &mut self.arena {
            Some(arena) => {
                local.note_snapshot_clone();
                flightrec::record_timeless(
                    flightrec::EventKind::SnapshotClone,
                    flightrec::NO_PARTITION,
                    0,
                    0,
                    0,
                );
                if self.profile {
                    let t = Instant::now();
                    arena.workspace.restore(&arena.snapshot, Some(skip));
                    local.note_phase(Phase::Rewind, t.elapsed());
                } else {
                    arena.workspace.restore(&arena.snapshot, Some(skip));
                }
                flightrec::replay(&arena.prefix);
                let (kernel, guests) = arena.workspace.parts();
                (kernel, guests, Some(arena.snapshot.kernel()))
            }
            None => {
                local.note_fresh_boot();
                let pair = self.scratch.insert(self.testbed.boot(self.build));
                (&mut pair.0, &mut pair.1, None)
            }
        }
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
    pub(crate) fn new(n_suites: usize) -> Self {
        WorkerLog {
            local: LocalMetrics::new(n_suites),
            flights: Vec::new(),
            hist: flightrec::HistogramSet::new(64),
        }
    }

    /// Closes one test's recording window: stamps the terminal `TestEnd`
    /// event, drains the worker's ring, folds hypercall costs into the
    /// latency histograms and files the flight under its campaign index.
    pub(crate) fn end_flight(&mut self, index: usize, class: CrashClass) {
        flightrec::record_timeless(
            flightrec::EventKind::TestEnd,
            flightrec::NO_PARTITION,
            class.index() as u32,
            0,
            0,
        );
        let drained = flightrec::drain();
        for e in &drained.events {
            if e.kind == flightrec::EventKind::HypercallExit {
                self.hist.observe(e.code, e.b);
            }
        }
        self.flights.push(TestFlight { index, events: drained.events, dropped: drained.dropped });
    }
}

/// Folds the workers' logs and the run's steal count into its metrics
/// report and, when recording, its flight log in campaign order (flights
/// are filed under their campaign index, so sorting undoes the steal
/// schedule).
pub(crate) fn fold_logs(
    n_suites: usize,
    logs: impl IntoIterator<Item = WorkerLog>,
    steals: u64,
    record: bool,
    started: Instant,
) -> (MetricsReport, Option<FlightLog>) {
    let metrics = CampaignMetrics::new(n_suites);
    let mut flights = Vec::new();
    let mut hist = flightrec::HistogramSet::new(64);
    let mut threads = 0;
    for log in logs {
        threads += 1;
        metrics.merge_local(&log.local);
        flights.extend(log.flights);
        hist.merge(&log.hist);
    }
    let mut report = metrics.finish(started.elapsed(), threads);
    report.steals = steals;
    if record {
        report.hc_latency = latency_rows(&hist);
    }
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

/// Runs `body` for every index in `0..n`, on one scoped thread per entry
/// of `workers`, and returns the results in index order.
///
/// Each thread first calls `start` on its worker state; the value it
/// returns is thread-local scratch handed to every `body` call on that
/// thread. The flight recorder is thread-local, so enabling it — and
/// booting a per-worker arena whose boot events must then be drained —
/// belongs in `start`. The `workers` entries outlive the call, so state
/// such as the fuzzer's boot arenas persists from one call to the next.
/// A run claimed from another worker's range adds one to `steals` (once
/// per run, never per item). Results depend only on `body`, never on the
/// thread count or the steal schedule.
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
    assert!(!workers.is_empty(), "par_indexed needs at least one worker");
    let chunk = resolve_chunk(n, workers.len());
    let queues = WorkStealQueues::new(n, workers.len());
    let (queues, start, body) = (&queues, &start, &body);
    let mut runs: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                scope.spawn(move || {
                    let mut scratch = start(state);
                    let mut runs = Vec::new();
                    while let Some((lo, hi, stolen)) = queues.next(w, chunk) {
                        if stolen {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        runs.push((lo, (lo..hi).map(|i| body(state, &mut scratch, i)).collect()));
                    }
                    runs
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("campaign worker panicked")).collect()
    });
    runs.sort_unstable_by_key(|&(lo, _)| lo);
    runs.into_iter().flat_map(|(_, r)| r).collect()
}

/// Shared in-flight progress counters behind `--live-stats`. With live
/// stats on, workers fold every finished test into these; the emitter
/// thread samples them on its interval. Nothing on the result path ever
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

/// Starts the heartbeat emitter: it writes one line per `cfg.interval`
/// until `progress.stop` is set, then a final line. It never touches
/// worker state, so results are byte-identical with or without it. The
/// handle yields the sink error, if writing failed.
fn spawn_emitter(
    cfg: &LiveStats,
    progress: Arc<LiveProgress>,
    total: usize,
    started: Instant,
) -> std::thread::JoinHandle<Option<String>> {
    let cfg = cfg.clone();
    std::thread::spawn(move || {
        let emit = || -> std::io::Result<()> {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&cfg.path)?);
            for seq in 0.. {
                let stopping = progress.stop.load(Ordering::Acquire);
                writeln!(w, "{}", live_line(seq, started.elapsed(), &progress, total, stopping))?;
                w.flush()?;
                if stopping {
                    break;
                }
                std::thread::park_timeout(cfg.interval);
            }
            Ok(())
        };
        emit().err().map(|e| format!("failed to write live stats {}: {e}", cfg.path.display()))
    })
}

/// A campaign worker's persistent state: its log and its oracle cache.
struct ExecWorker<'c> {
    log: WorkerLog,
    cache: OracleCache<'c>,
}

/// Executes a whole campaign, in parallel, preserving campaign order in
/// the result.
pub fn run_campaign<T: Testbed + ?Sized>(
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
    let n_suites = spec.suites.len();
    let progress = Arc::new(LiveProgress::default());
    let emitter = opts
        .live_stats
        .as_ref()
        .map(|cfg| spawn_emitter(cfg, Arc::clone(&progress), cases.len(), started));

    let mut workers: Vec<ExecWorker> = (0..resolve_threads(opts.threads, cases.len()))
        .map(|_| ExecWorker { log: WorkerLog::new(n_suites), cache: OracleCache::new(&ctx) })
        .collect();
    let records = par_indexed(
        cases.len(),
        &mut workers,
        &progress.steals,
        |w| {
            // One snapshot + workspace per worker: guest trait objects are
            // Send but not Sync, so the prototype cannot be shared across
            // threads — but one boot and one prefix per worker (instead of
            // one per test) is all it costs, and the workspace is rewound
            // (never re-cloned) per test.
            if opts.record {
                flightrec::enable(DEFAULT_RING_CAPACITY);
            }
            let booter = Booter::new(testbed, opts.build, opts.record, &mut w.log.local);
            if opts.record {
                // The per-worker snapshot boot belongs to no test.
                let _ = flightrec::drain();
            }
            booter
        },
        |w, booter, i| {
            let case = &cases[i];
            let t0 = Instant::now();
            let local = &mut w.log.local;
            if opts.record {
                flightrec::record(
                    0,
                    flightrec::EventKind::TestBegin,
                    flightrec::NO_PARTITION,
                    i as u32,
                    0,
                    0,
                );
            }
            let expectation = if opts.record {
                let t = Instant::now();
                let e = w.cache.expect(&case.raw());
                local.note_phase(Phase::Oracle, t.elapsed());
                e
            } else {
                w.cache.expect(&case.raw())
            };
            let rec = execute(testbed, booter, local, &ctx, expectation, case);
            local.note_record(&rec, t0.elapsed());
            if opts.record {
                w.log.end_flight(i, rec.classification.class);
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
    let (oracle_hits, oracle_misses) =
        workers.iter().map(|w| w.cache.stats()).fold((0, 0), |(h, m), s| (h + s.0, m + s.1));
    let steals = progress.steals.load(Ordering::Relaxed);
    let logs = workers.into_iter().map(|w| w.log);
    let (mut report, flight) = fold_logs(n_suites, logs, steals, opts.record, started);
    report.oracle_hits = oracle_hits;
    report.oracle_misses = oracle_misses;
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
        // index order whatever the thread count.
        for threads in [1usize, 3, 8] {
            let mut workers = vec![0usize; threads];
            let steals = AtomicU64::new(0);
            for round in 0..2 {
                let out = par_indexed(
                    100,
                    &mut workers,
                    &steals,
                    |_| 0usize,
                    |count, scratch, i| {
                        *count += 1;
                        *scratch += 1;
                        i * 2 + round
                    },
                );
                assert_eq!(out, (0..100).map(|i| i * 2 + round).collect::<Vec<_>>());
            }
            assert_eq!(workers.iter().sum::<usize>(), 200, "every item ran exactly once");
        }
    }
}

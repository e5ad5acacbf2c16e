//! Test generation and execution phase (paper Section III.B, steps 1–6).
//!
//! For every test case the executor:
//!
//! 1. materialises a booted testbed — normally by **rewinding a
//!    per-worker [`Workspace`]** to the boot snapshot taken once per
//!    `(Testbed, KernelBuild)`: the snapshot's memory is flat, so the
//!    rewind is one bounded dirty-page copy plus capacity-preserving
//!    `clone_from`s, with no per-test allocation or refcount traffic.
//!    Falls back to a fresh boot when the testbed's guests are not
//!    cloneable. Tests never observe another test's state, so
//!    independence (what lets the campaign run embarrassingly parallel)
//!    is preserved;
//! 2. installs the mutant (fault placeholder) into the test partition;
//! 3. runs the configured number of cyclic schedules ("the test call is
//!    invoked at least once per major frame");
//! 4. logs return codes and partition/kernel health;
//! 5. classifies the outcome against the oracle (memoised per worker —
//!    datasets repeat magic values across suites).
//!
//! [`run_campaign`] executes a whole [`CampaignSpec`] across
//! `std::thread::scope` workers using **work stealing**: the case list
//! is pre-split into one contiguous index range per worker, each packed
//! into a single `AtomicU64` ([`WorkStealQueues`]). A worker pops
//! chunk-sized runs off the *front* of its own range with a CAS; once
//! empty it steals runs from the *back* of a victim's range, so no
//! worker idles while another still holds cases. Every index is claimed
//! exactly once, runs carry their start index, and the result reassembles
//! by sorting runs — records are byte-identical whatever the thread count
//! or steal schedule. Metrics tally into per-worker [`LocalMetrics`]
//! (plain integers) merged once per worker, keeping shared atomics off
//! the hot path entirely; the merged counters stream into a
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
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xtratum::guest::GuestSet;
use xtratum::hypercall::RawHypercall;
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
    /// Cases per work chunk (0 = choose automatically from the campaign
    /// size and thread count). Chunking only affects scheduling, never
    /// results.
    pub chunk_size: usize,
    /// Boot once per worker and rewind a persistent workspace to the
    /// booted state per test (default). Off reproduces the seed
    /// executor's fresh-boot-per-test behaviour, kept for benchmarking
    /// the snapshot engine against it.
    pub reuse_snapshot: bool,
    /// When set, write a JSONL per-test trace here after the run.
    pub trace_path: Option<PathBuf>,
    /// Memoize per-worker results keyed on the canonical raw invocation
    /// (default on; the testbed is deterministic, so re-running an
    /// identical raw call on an identical booted clone reproduces the
    /// identical record). `--no-memo` turns this off for A/B runs.
    pub memoize: bool,
    /// Coverage feedback is being collected from the executions: forces
    /// memoization off regardless of `memoize`. A memo hit replays a
    /// cached record without executing anything, so its flight stream
    /// carries no behavioural events and must never be able to mask (or
    /// fabricate) coverage novelty. The fuzzer sets this implicitly.
    pub coverage_feedback: bool,
    /// Run the flight recorder: each worker records kernel/executor
    /// events into a preallocated ring, drained per test into
    /// [`CampaignResult::flight`] and folded into per-hypercall latency
    /// histograms. Off by default; the disabled path costs one branch
    /// per instrumentation point and zero allocations.
    pub record: bool,
    /// Scale the campaign to exactly this many tests: truncate the case
    /// list when smaller, cycle it from the start when larger (the
    /// `campaign sweep --tests N` mode; repeated cases keep their
    /// original suite/case indices). `None` runs the spec as-is.
    pub max_tests: Option<usize>,
    /// Stream heartbeat JSONL lines while the campaign runs
    /// (`--live-stats`). Progress is folded into shared atomics once per
    /// work chunk (never per test) and sampled by a dedicated emitter
    /// thread, so the deterministic result surface is untouched:
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
            chunk_size: 0,
            reuse_snapshot: true,
            trace_path: None,
            memoize: true,
            coverage_feedback: false,
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
        self.records
            .iter()
            .filter(|r| r.classification.class != crate::classify::CrashClass::Pass)
            .count()
    }
}

/// Runs one case on an already-booted `(kernel, guests)` pair.
fn execute_booted<T: Testbed + ?Sized>(
    testbed: &T,
    mut kernel: XmKernel,
    mut guests: GuestSet,
    ctx: &OracleContext,
    expectation: Expectation,
    case: &TestCase,
) -> TestRecord {
    let mutant = MutantGuest::new(case.raw(), testbed.prologue());
    guests.set(testbed.test_partition(), Box::new(mutant));
    kernel.step_major_frames(&mut guests, testbed.frames_per_test());
    let invocations = crate::mutant::take_invocations(&mut guests, testbed.test_partition());
    let observation = TestObservation { invocations, summary: kernel.into_summary() };
    let classification = classify(&observation, &expectation, testbed.test_partition());
    let param_signature = ctx.param_signature(&expectation, &case.dataset);
    TestRecord { case: case.clone(), observation, expectation, classification, param_signature }
}

/// Runs one case in a worker's persistent [`Workspace`]: rewind to the
/// boot snapshot (skipping the test partition's guest, replaced next
/// line), install the mutant, run, summarise by reference. Produces a
/// record byte-identical to [`execute_booted`] on a fresh snapshot clone
/// — the restore rebuilds the exact boot state and
/// [`XmKernel::summary`] equals [`XmKernel::into_summary`] — without the
/// per-test deep copy.
fn execute_in_workspace<T: Testbed + ?Sized>(
    testbed: &T,
    ws: &mut Workspace,
    snapshot: &BootSnapshot,
    ctx: &OracleContext,
    expectation: Expectation,
    case: &TestCase,
    mut profile: Option<&mut LocalMetrics>,
) -> TestRecord {
    let part = testbed.test_partition();
    // Phase timers only run on observability (recorder-on) campaigns:
    // the plain path stays clock-free beyond the existing per-test stamp.
    if let Some(local) = profile.as_deref_mut() {
        let t = Instant::now();
        ws.restore(snapshot, Some(part));
        local.note_phase(Phase::Rewind, t.elapsed());
    } else {
        ws.restore(snapshot, Some(part));
    }
    let (kernel, guests) = ws.parts();
    let mutant = MutantGuest::new(case.raw(), testbed.prologue());
    guests.set(part, Box::new(mutant));
    if let Some(local) = profile {
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

/// Execution outcome of one canonical raw invocation, reusable for every
/// case that injects the same words. Everything here is a pure function
/// of `(build, raw invocation)` on the deterministic testbed; only the
/// per-case metadata (`case`, `param_signature`) is excluded.
struct MemoEntry {
    observation: TestObservation,
    expectation: Expectation,
    classification: Classification,
}

impl MemoEntry {
    /// Reattaches fresh per-case metadata to the memoized outcome. The
    /// parameter signature is recomputed from this case's dataset — two
    /// cases can share raw words yet differ in which parameter carries
    /// the offending value class.
    fn to_record(&self, ctx: &OracleContext, case: &TestCase) -> TestRecord {
        TestRecord {
            case: case.clone(),
            observation: self.observation.clone(),
            expectation: self.expectation,
            classification: self.classification,
            param_signature: ctx.param_signature(&self.expectation, &case.dataset),
        }
    }
}

/// Raw invocations appearing more than once in the campaign — the only
/// keys worth memoizing. Computed once up front so workers don't pay a
/// deep `TestObservation` clone for the (vast) unrepeated majority.
fn repeated_raws(cases: &[TestCase]) -> HashSet<RawHypercall> {
    let mut seen: HashMap<RawHypercall, bool> = HashMap::with_capacity(cases.len());
    for case in cases {
        seen.entry(case.raw()).and_modify(|dup| *dup = true).or_insert(false);
    }
    seen.into_iter().filter_map(|(raw, dup)| dup.then_some(raw)).collect()
}

/// Executes one test case against a fresh testbed instance (the seed
/// executor's path; the campaign engine prefers snapshot clones).
pub fn run_single_test<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    build: KernelBuild,
    case: &TestCase,
) -> TestRecord {
    let (kernel, guests) = testbed.boot(build);
    let expectation = ctx.expect(&case.raw());
    execute_booted(testbed, kernel, guests, ctx, expectation, case)
}

/// Closes one test's recording window: stamps the terminal `TestEnd`
/// event, drains the worker's ring, folds hypercall costs into the
/// latency histograms and files the flight under its campaign index.
fn end_flight(
    index: usize,
    rec: &TestRecord,
    flights: &mut Vec<TestFlight>,
    hist: &mut flightrec::HistogramSet,
) {
    flightrec::record_timeless(
        flightrec::EventKind::TestEnd,
        flightrec::NO_PARTITION,
        rec.classification.class.index() as u32,
        0,
        0,
    );
    let drained = flightrec::drain();
    for e in &drained.events {
        if e.kind == flightrec::EventKind::HypercallExit {
            hist.observe(e.code, e.b);
        }
    }
    flights.push(TestFlight { index, events: drained.events, dropped: drained.dropped });
}

/// Packs a contiguous, not-yet-claimed case index range `[lo, hi)` into
/// one word: `lo` in the low 32 bits, `hi` in the high 32.
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

/// Work-stealing distribution of the case list: one contiguous index
/// range per worker, each packed `lo|hi` into a single `AtomicU64`. The
/// owner pops chunk-sized runs off the front; a worker whose range is
/// empty steals runs off the back of a victim's range. Every index is
/// claimed exactly once (the CAS publishes a strictly shrinking range, so
/// there is no ABA hazard), which is what keeps results independent of
/// the steal schedule: records are reassembled by run start index, not by
/// execution order.
pub(crate) struct WorkStealQueues {
    ranges: Vec<AtomicU64>,
}

impl WorkStealQueues {
    /// Splits `[0, n_cases)` evenly (front-loaded remainder) across
    /// `n_workers` ranges.
    pub(crate) fn new(n_cases: usize, n_workers: usize) -> Self {
        assert!(n_cases <= u32::MAX as usize, "case index must fit u32");
        let per = n_cases / n_workers;
        let extra = n_cases % n_workers;
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

    /// Next run for worker `w`: front of its own range, else stolen from
    /// the back of the first non-empty victim (scanned starting after `w`
    /// so thieves spread across victims).
    pub(crate) fn next(&self, w: usize, chunk: usize) -> Option<(usize, usize)> {
        self.next_with_origin(w, chunk).map(|(lo, hi, _)| (lo, hi))
    }

    /// Like [`WorkStealQueues::next`], additionally reporting whether the
    /// run was stolen from a victim's range (for the steal telemetry).
    pub(crate) fn next_with_origin(&self, w: usize, chunk: usize) -> Option<(usize, usize, bool)> {
        if let Some((lo, hi)) = claim(&self.ranges[w], chunk, true) {
            return Some((lo, hi, false));
        }
        let n = self.ranges.len();
        (1..n).find_map(|off| {
            claim(&self.ranges[(w + off) % n], chunk, false).map(|(lo, hi)| (lo, hi, true))
        })
    }
}

/// Shared in-flight progress counters behind `--live-stats`. Workers fold
/// into these once per work chunk; the emitter thread samples them on its
/// interval. Nothing on the result path ever reads them.
#[derive(Debug, Default)]
pub(crate) struct LiveProgress {
    pub(crate) done: AtomicU64,
    pub(crate) classes: [AtomicU64; 6],
    pub(crate) memo_hits: AtomicU64,
    pub(crate) snapshot_clones: AtomicU64,
    pub(crate) steals: AtomicU64,
}

impl LiveProgress {
    /// Folds one finished chunk's records plus its cache/steal deltas.
    pub(crate) fn fold_chunk(&self, records: &[TestRecord], memo_hits: u64, clones: u64) {
        let mut counts = [0u64; 6];
        for r in records {
            counts[r.classification.class.index()] += 1;
        }
        self.done.fetch_add(records.len() as u64, Ordering::Relaxed);
        for (shared, c) in self.classes.iter().zip(counts) {
            if c > 0 {
                shared.fetch_add(c, Ordering::Relaxed);
            }
        }
        if memo_hits > 0 {
            self.memo_hits.fetch_add(memo_hits, Ordering::Relaxed);
        }
        if clones > 0 {
            self.snapshot_clones.fetch_add(clones, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }
}

/// One heartbeat JSONL line from the shared progress counters.
pub(crate) fn live_line(
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
        ",\"memo_hits\":{},\"snapshot_clones\":{},\"steals\":{},\"final\":{fin}}}",
        progress.memo_hits.load(Ordering::Relaxed),
        progress.snapshot_clones.load(Ordering::Relaxed),
        progress.steals.load(Ordering::Relaxed),
    ));
    line
}

pub(crate) fn resolve_threads(requested: usize, n_cases: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        requested
    };
    n.min(n_cases).max(1)
}

pub(crate) fn resolve_chunk(requested: usize, n_cases: usize, n_threads: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    // ~8 chunks per worker balances load without shredding locality.
    (n_cases / (n_threads * 8)).clamp(1, 64)
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
    let metrics = CampaignMetrics::new(spec.suites.len());

    let n_threads = resolve_threads(opts.threads, cases.len());
    let chunk = resolve_chunk(opts.chunk_size, cases.len(), n_threads);
    let n_suites = spec.suites.len();
    let queues = WorkStealQueues::new(cases.len(), n_threads);
    // Under coverage feedback a memo hit would replay a cached record
    // with an empty flight stream — never memoize there.
    let memoize = opts.memoize && !opts.coverage_feedback;
    let memoizable = if memoize { repeated_raws(&cases) } else { HashSet::new() };

    let mut runs: Vec<(usize, Vec<TestRecord>)> = Vec::new();
    let mut all_flights: Vec<TestFlight> = Vec::new();
    let mut merged_hist = flightrec::HistogramSet::new(64);
    let progress = opts.live_stats.as_ref().map(|_| LiveProgress::default());
    let stop = AtomicBool::new(false);
    let live_error: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        // The heartbeat emitter samples the shared progress atomics on
        // its interval; it never touches worker state, so results are
        // byte-identical with or without it.
        let emitter = opts.live_stats.as_ref().map(|cfg| {
            let (progress, stop, live_error) = (progress.as_ref().unwrap(), &stop, &live_error);
            let total = cases.len();
            scope.spawn(move || {
                let emit = || -> std::io::Result<()> {
                    let file = std::fs::File::create(&cfg.path)?;
                    let mut w = std::io::BufWriter::new(file);
                    let mut seq = 0u64;
                    loop {
                        let stopping = stop.load(Ordering::Acquire);
                        writeln!(
                            w,
                            "{}",
                            live_line(seq, started.elapsed(), progress, total, stopping)
                        )?;
                        w.flush()?;
                        if stopping {
                            return Ok(());
                        }
                        seq += 1;
                        std::thread::park_timeout(cfg.interval);
                    }
                };
                if let Err(e) = emit() {
                    *live_error.lock().expect("live-stats error mutex poisoned") =
                        Some(format!("failed to write live stats {}: {e}", cfg.path.display()));
                }
            })
        });
        let handles: Vec<_> = (0..n_threads)
            .map(|w| {
                let (queues, metrics, cases, ctx, memoizable, progress) =
                    (&queues, &metrics, &cases, &ctx, &memoizable, &progress);
                scope.spawn(move || {
                    // One snapshot + workspace per worker: guest trait
                    // objects are Send but not Sync, so the booted
                    // prototype cannot be shared across threads — but one
                    // boot per worker (instead of one per test) already
                    // removes the dominant cost, and the workspace is
                    // rewound (never re-cloned) per test.
                    if opts.record {
                        flightrec::enable(DEFAULT_RING_CAPACITY);
                    }
                    let mut local = LocalMetrics::new(n_suites);
                    let snapshot = if opts.reuse_snapshot {
                        local.note_fresh_boot();
                        testbed.snapshot(opts.build)
                    } else {
                        None
                    };
                    let mut workspace = snapshot.as_ref().map(|s| s.workspace());
                    if opts.record {
                        // The per-worker snapshot boot belongs to no test.
                        let _ = flightrec::drain();
                    }
                    let mut cache = OracleCache::new(ctx);
                    let mut memo: HashMap<RawHypercall, MemoEntry> = HashMap::new();
                    let mut done: Vec<(usize, Vec<TestRecord>)> = Vec::new();
                    let mut flights: Vec<TestFlight> = Vec::new();
                    let mut hist = flightrec::HistogramSet::new(64);
                    while let Some((lo, hi, stolen)) = queues.next_with_origin(w, chunk) {
                        if stolen {
                            local.note_steal();
                            if let Some(p) = progress {
                                p.note_steal();
                            }
                        }
                        let mut records = Vec::with_capacity(hi - lo);
                        let (mut chunk_memo_hits, mut chunk_clones) = (0u64, 0u64);
                        for (off, case) in cases[lo..hi].iter().enumerate() {
                            let t0 = Instant::now();
                            let raw = case.raw();
                            if opts.record {
                                let idx = (lo + off) as u32;
                                flightrec::record(
                                    0,
                                    flightrec::EventKind::TestBegin,
                                    flightrec::NO_PARTITION,
                                    idx,
                                    0,
                                    0,
                                );
                            }
                            if let Some(entry) = memo.get(&raw) {
                                local.note_memo_hit();
                                chunk_memo_hits += 1;
                                let rec = entry.to_record(ctx, case);
                                local.note_record(&rec, t0.elapsed());
                                if opts.record {
                                    flightrec::record_timeless(
                                        flightrec::EventKind::MemoHit,
                                        flightrec::NO_PARTITION,
                                        0,
                                        0,
                                        0,
                                    );
                                    end_flight(lo + off, &rec, &mut flights, &mut hist);
                                }
                                records.push(rec);
                                continue;
                            }
                            if memoize {
                                local.note_memo_miss();
                            }
                            let expectation = if opts.record {
                                let t = Instant::now();
                                let e = cache.expect(&raw);
                                local.note_phase(Phase::Oracle, t.elapsed());
                                e
                            } else {
                                cache.expect(&raw)
                            };
                            let rec = match (&snapshot, &mut workspace) {
                                (Some(s), Some(ws)) => {
                                    local.note_snapshot_clone();
                                    chunk_clones += 1;
                                    flightrec::record_timeless(
                                        flightrec::EventKind::SnapshotClone,
                                        flightrec::NO_PARTITION,
                                        0,
                                        0,
                                        0,
                                    );
                                    let profile = opts.record.then_some(&mut local);
                                    execute_in_workspace(
                                        testbed,
                                        ws,
                                        s,
                                        ctx,
                                        expectation,
                                        case,
                                        profile,
                                    )
                                }
                                _ => {
                                    local.note_fresh_boot();
                                    let (kernel, guests) = testbed.boot(opts.build);
                                    execute_booted(testbed, kernel, guests, ctx, expectation, case)
                                }
                            };
                            if memoizable.contains(&raw) {
                                memo.insert(
                                    raw,
                                    MemoEntry {
                                        observation: rec.observation.clone(),
                                        expectation: rec.expectation,
                                        classification: rec.classification,
                                    },
                                );
                            }
                            local.note_record(&rec, t0.elapsed());
                            if opts.record {
                                end_flight(lo + off, &rec, &mut flights, &mut hist);
                            }
                            records.push(rec);
                        }
                        if let Some(p) = progress {
                            p.fold_chunk(&records, chunk_memo_hits, chunk_clones);
                        }
                        done.push((lo, records));
                    }
                    let (hits, misses) = cache.stats();
                    metrics.note_oracle(hits, misses);
                    metrics.merge_local(&local);
                    (done, flights, hist)
                })
            })
            .collect();
        for h in handles {
            let (done, f, h) = h.join().expect("campaign worker panicked");
            runs.extend(done);
            all_flights.extend(f);
            merged_hist.merge(&h);
        }
        if let Some(h) = emitter {
            stop.store(true, Ordering::Release);
            h.thread().unpark();
            h.join().expect("live-stats emitter panicked");
        }
    });

    // Runs carry their start index, so sorting reassembles campaign order
    // whatever the steal schedule was.
    runs.sort_unstable_by_key(|&(start, _)| start);
    let records: Vec<TestRecord> = runs.into_iter().flat_map(|(_, r)| r).collect();
    debug_assert_eq!(records.len(), cases.len());

    let flight = opts.record.then(|| {
        all_flights.sort_by_key(|f| f.index);
        FlightLog { tests: all_flights }
    });
    let mut report = metrics.finish(started.elapsed(), n_threads);
    if opts.record {
        report.hc_latency = latency_rows(&merged_hist);
    }
    let mut result = CampaignResult {
        build: opts.build,
        records,
        metrics: report,
        trace_error: None,
        live_stats_error: live_error.into_inner().expect("live-stats error mutex poisoned"),
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
        assert_eq!(o.chunk_size, 0);
        assert!(o.reuse_snapshot);
        assert!(o.trace_path.is_none());
        assert!(o.memoize);
        assert!(!o.coverage_feedback);
        assert!(!o.record);
        assert!(o.max_tests.is_none());
        assert!(o.live_stats.is_none());
    }

    #[test]
    fn live_line_shape_and_eta() {
        let p = LiveProgress::default();
        p.done.store(50, Ordering::Relaxed);
        p.classes[CrashClass::Pass.index()].store(48, Ordering::Relaxed);
        p.classes[CrashClass::Silent.index()].store(2, Ordering::Relaxed);
        p.memo_hits.store(10, Ordering::Relaxed);
        p.steals.store(3, Ordering::Relaxed);
        let line = live_line(7, Duration::from_secs(1), &p, 100, false);
        assert!(line.starts_with("{\"type\":\"live\",\"seq\":7,"));
        assert!(line.contains("\"tests_done\":50,\"tests_total\":100"));
        assert!(line.contains("\"tests_per_sec\":50.0"), "{line}");
        assert!(line.contains("\"eta_ms\":1000"), "{line}");
        assert!(line.contains("\"pass\":48"));
        assert!(line.contains("\"silent\":2"));
        assert!(line.contains("\"memo_hits\":10"));
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
        while let Some((_, _, theft)) = q.next_with_origin(1, 5) {
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
    fn repeated_raws_finds_only_duplicates() {
        use xtratum::hypercall::HypercallId;
        let case = |raw: u64, case_index: u64| TestCase {
            hypercall: HypercallId::HaltPartition,
            dataset: vec![crate::dictionary::TestValue::scalar(raw)],
            suite_index: 0,
            case_index,
        };
        let dups = repeated_raws(&[case(1, 0), case(2, 1), case(1, 2), case(3, 3)]);
        assert_eq!(dups.len(), 1);
        assert!(dups.contains(&case(1, 9).raw()));
    }

    #[test]
    fn memo_keys_distinguish_pointer_width_fields() {
        // Two datasets for a pointer-taking call whose raw words differ
        // only in the high half of the 64-bit injection word. The kernel
        // ABI truncates pointers to 32 bits, but the memo key must stay
        // canonical over the *injected* words, never the truncation.
        use xtratum::hypercall::HypercallId;
        let lo = RawHypercall::new_unchecked(HypercallId::Multicall, [0x4010_0000u64, 0]);
        let hi = RawHypercall::new_unchecked(HypercallId::Multicall, [0xdead_beef_4010_0000u64, 0]);
        assert_ne!(lo, hi);
        let mut memo: HashMap<RawHypercall, u32> = HashMap::new();
        memo.insert(lo, 1);
        memo.insert(hi, 2);
        assert_eq!(memo.len(), 2, "pointer-width variants must not collide");
        assert_eq!(memo.get(&lo), Some(&1));
        assert_eq!(memo.get(&hi), Some(&2));
    }

    #[test]
    fn work_steal_covers_every_index_exactly_once() {
        let q = WorkStealQueues::new(100, 4);
        let mut seen = [false; 100];
        // One thief drains all four ranges: its own from the front, the
        // victims' from the back.
        while let Some((lo, hi)) = q.next(2, 7) {
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
                        while let Some(run) = q.next(w, 13) {
                            mine.push(run);
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
        assert_eq!(resolve_chunk(10, 1000, 4), 10);
        assert_eq!(resolve_chunk(0, 2662, 8), 41);
        assert_eq!(resolve_chunk(0, 5, 8), 1);
        assert_eq!(resolve_chunk(0, 1_000_000, 2), 64);
    }
}

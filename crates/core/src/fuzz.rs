//! Coverage-guided greybox sequence fuzzing with an evolving corpus.
//!
//! The sequence campaign ([`crate::sequence`]) samples the stateful fault
//! space blindly: every sequence is drawn fresh from the weighted
//! alphabet, and nothing learned from one execution informs the next.
//! This module closes the loop. Each executed sequence is reduced to a
//! *coverage signature* by hashing its flight-recorder stream (hypercall
//! enter/exit ids and encoded results, HM actions, scheduler slot
//! transitions, resets/halts) together with the per-frame
//! [`StateDigest`](xtratum::kernel::StateDigest) hashes into a fixed-size
//! edge-coverage map ([`flightrec::coverage`]). Sequences that light up a
//! never-seen `(cell, hit-bucket)` enter an evolving **corpus**; a
//! seeded, prefix-stable **mutation engine** ([`Mutator`]) then spends
//! most of the budget near those interesting inputs instead of drawing
//! blind.
//!
//! # Determinism
//!
//! The fuzzer is round-based so that feedback never races: each round's
//! candidate batch is a pure function of `(seed, round, corpus)`, the
//! candidates execute in parallel on the work-stealing worker pool, and
//! the results fold back into the map/corpus *sequentially, in candidate
//! order* on the driver thread (the fold-at-shard-end discipline from the
//! metrics engine, applied to coverage). Consequences, all pinned by
//! tests:
//!
//! - the corpus, coverage map and findings are byte-identical across
//!   thread counts and recorder settings (the recorder is always enabled
//!   internally — coverage *is* the feedback — so [`FuzzOptions::record`]
//!   only controls whether triage flights are retained);
//! - every candidate executes in full, so each coverage signature comes
//!   from a real flight stream;
//! - every find is byte-reproducible from its corpus entry and
//!   shrinkable by the existing ddmin shrinker ([`crate::shrink`]),
//!   because mutation is prefix-stable: an operator that edits position
//!   `k` never changes steps before `k`.

use crate::classify::CrashClass;
use crate::exec::{
    fold_logs, on_campaign_thread, par_indexed, resolve_threads, Booter, LiveSink, LiveStats,
    WorkerLog,
};
use crate::flight::{FlightLog, DEFAULT_RING_CAPACITY};
use crate::metrics::{MetricsReport, Phase};
use crate::sequence::{
    by_signature, confirm, draw_weighted, lockstep, run_one_sequence, triage_group, triage_stage,
    AlphabetEntry, Evidence, Finding, FindingSig, MinimalRepro, SeqRng, SequenceEval,
    SequenceVerdict, Triage, VerdictAt,
};
use crate::testbed::Testbed;
use flightrec::coverage::{CoverageMap, EdgeTrace, ExecCoverage};
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};
use xtratum::hypercall::{HypercallId, RawHypercall, MAX_RAW_ARGS};
use xtratum::vuln::KernelBuild;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Fuzzing campaign options.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Kernel build to fuzz.
    pub build: KernelBuild,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Master seed: the whole run (corpus, map, findings) is a pure
    /// function of it (plus the alphabet and these options).
    pub seed: u64,
    /// Candidate-execution budget. Refinement and shrink re-runs are
    /// triage, not search, and do not count against it.
    pub max_execs: u64,
    /// Optional wall-clock budget for the search, checked between rounds.
    /// Cutting a run short by time is inherently racy against the clock,
    /// so results are only reproducible when the run ends on `max_execs`.
    /// Triage is not search: the findings are shrunk after the last
    /// round, one signature group at a time, and that stage runs to
    /// completion whatever this budget has left.
    pub max_time: Option<Duration>,
    /// Steps per freshly generated sequence.
    pub steps: usize,
    /// Hard cap on mutated sequence length.
    pub max_steps: usize,
    /// Candidates per round. Larger rounds parallelise better; smaller
    /// rounds feed coverage back sooner.
    pub batch: usize,
    /// Steps the guest issues per slot in the main (coverage-producing)
    /// evaluation; findings are re-judged at one step per slot.
    pub steps_per_slot: usize,
    /// Retain one flight per finding for triage export: the minimal
    /// reproducer's run (the unshrunk steps' without shrinking). Never
    /// affects corpus/map/findings contents.
    pub record: bool,
    /// Minimize findings with the ddmin shrinker (default on).
    pub shrink: bool,
    /// Predicate-evaluation budget per shrink.
    pub shrink_budget: usize,
    /// Live heartbeat stream (JSONL), emitted on the driver thread
    /// between rounds. Never affects corpus/map/findings contents.
    pub live_stats: Option<LiveStats>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            build: KernelBuild::Legacy,
            threads: 0,
            seed: 1,
            max_execs: 1000,
            max_time: None,
            steps: 8,
            max_steps: 16,
            batch: 64,
            steps_per_slot: 4,
            record: false,
            shrink: true,
            shrink_budget: 160,
            live_stats: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation engine
// ---------------------------------------------------------------------------

/// How a candidate was produced (recorded in the corpus for triage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Fresh weighted draw from the alphabet (no parent).
    Fresh,
    /// One argument word of step `k` rewritten.
    ArgMutate,
    /// Step `k` replaced by a fresh draw.
    Replace,
    /// A fresh draw inserted at `k`.
    Insert,
    /// Step `k` deleted.
    Delete,
    /// Step `k` duplicated in place.
    Duplicate,
    /// Prefix of the parent spliced to a suffix of another corpus entry.
    Splice,
    /// Tail from `k` on regenerated from the alphabet.
    TailRegen,
}

impl MutationOp {
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::Fresh => "fresh",
            MutationOp::ArgMutate => "arg_mutate",
            MutationOp::Replace => "replace",
            MutationOp::Insert => "insert",
            MutationOp::Delete => "delete",
            MutationOp::Duplicate => "duplicate",
            MutationOp::Splice => "splice",
            MutationOp::TailRegen => "tail_regen",
        }
    }
}

/// A produced mutant: the steps, the operator, and the first position
/// that may differ from the parent (`steps[..at] == parent[..at]`, the
/// prefix-stability contract the unit tests pin).
#[derive(Debug, Clone)]
pub struct Mutation {
    pub steps: Vec<RawHypercall>,
    pub op: MutationOp,
    pub at: usize,
}

/// Seeded, prefix-stable mutation engine over a weighted alphabet.
///
/// Every operator draws a position `k` and edits only from `k` onwards,
/// so a mutant shares its parent's prefix below the edit point — the
/// property that keeps corpus entries shrinkable and lets the ddmin
/// shrinker's removed-prefix candidates stay meaningful.
pub struct Mutator<'a> {
    alphabet: &'a [AlphabetEntry],
    total_weight: u64,
    /// Argument-word dictionary: every distinct word appearing in the
    /// alphabet plus a few canonical scalars. Sorted, deduplicated —
    /// deterministic for a given alphabet.
    words: Vec<u64>,
    max_steps: usize,
}

impl<'a> Mutator<'a> {
    pub fn new(alphabet: &'a [AlphabetEntry], max_steps: usize) -> Self {
        let total_weight: u64 = alphabet.iter().map(|e| e.weight as u64).sum();
        assert!(total_weight > 0, "fuzz alphabet must have positive total weight");
        let mut words: Vec<u64> =
            alphabet.iter().flat_map(|e| e.call.args().iter().copied()).collect();
        words.extend([0, 1, 2, 0x7FFF_FFFF, 0xFFFF_FFFF, u64::MAX]);
        words.sort_unstable();
        words.dedup();
        Mutator { alphabet, total_weight, words, max_steps: max_steps.max(1) }
    }

    fn fresh_step(&self, rng: &mut SeqRng) -> RawHypercall {
        draw_weighted(self.alphabet, self.total_weight, rng)
    }

    /// A fresh sequence of `steps` weighted draws.
    pub fn fresh_sequence(&self, rng: &mut SeqRng, steps: usize) -> Vec<RawHypercall> {
        (0..steps.clamp(1, self.max_steps)).map(|_| self.fresh_step(rng)).collect()
    }

    fn mutate_word(&self, rng: &mut SeqRng, w: u64) -> u64 {
        match rng.next_u64() % 8 {
            // Dictionary words dominate: swapping in another alphabet
            // argument is what turns e.g. a cold reset into a warm one
            // or an EXEC-clock timer into a HW-clock one.
            0..=3 => self.words[(rng.next_u64() % self.words.len() as u64) as usize],
            4 | 5 => w ^ (1u64 << (rng.next_u64() % 64)),
            6 => w.wrapping_add(1 + rng.next_u64() % 16),
            _ => w.wrapping_sub(1 + rng.next_u64() % 16),
        }
    }

    /// Produce one mutant of `parent`. `other` is the crossover partner
    /// for [`MutationOp::Splice`] (the parent itself when the corpus has
    /// no second entry). The result is never empty and never longer than
    /// `max_steps`.
    pub fn mutate(
        &self,
        rng: &mut SeqRng,
        parent: &[RawHypercall],
        other: &[RawHypercall],
    ) -> Mutation {
        debug_assert!(!parent.is_empty());
        let len = parent.len();
        // Weighted operator pick; infeasible ops (delete at length 1,
        // grow at max length) re-roll onto always-feasible neighbours.
        let mut op = match rng.next_u64() % 13 {
            0..=3 => MutationOp::ArgMutate,
            4 | 5 => MutationOp::Replace,
            6 | 7 => MutationOp::Insert,
            8 => MutationOp::Delete,
            9 => MutationOp::Duplicate,
            10 | 11 => MutationOp::Splice,
            _ => MutationOp::TailRegen,
        };
        if len == 1 && op == MutationOp::Delete {
            op = MutationOp::Replace;
        }
        if len >= self.max_steps && matches!(op, MutationOp::Insert | MutationOp::Duplicate) {
            op = MutationOp::Delete;
        }
        match op {
            MutationOp::ArgMutate => {
                let k = (rng.next_u64() % len as u64) as usize;
                let hc = parent[k];
                if hc.args().is_empty() {
                    // Nothing to mutate on a zero-argument call.
                    return self.replace_at(rng, parent, k);
                }
                let mut args = hc.args().to_vec();
                let slot = (rng.next_u64() % args.len() as u64) as usize;
                args[slot] = self.mutate_word(rng, args[slot]);
                let mut steps = parent.to_vec();
                steps[k] = RawHypercall::new_unchecked(hc.id, args);
                Mutation { steps, op, at: k }
            }
            MutationOp::Replace => {
                let k = (rng.next_u64() % len as u64) as usize;
                self.replace_at(rng, parent, k)
            }
            MutationOp::Insert => {
                let k = (rng.next_u64() % (len as u64 + 1)) as usize;
                let mut steps = parent.to_vec();
                steps.insert(k, self.fresh_step(rng));
                Mutation { steps, op, at: k }
            }
            MutationOp::Delete => {
                let k = (rng.next_u64() % len as u64) as usize;
                let mut steps = parent.to_vec();
                steps.remove(k);
                Mutation { steps, op, at: k }
            }
            MutationOp::Duplicate => {
                let k = (rng.next_u64() % len as u64) as usize;
                let mut steps = parent.to_vec();
                steps.insert(k + 1, steps[k]);
                Mutation { steps, op, at: k + 1 }
            }
            MutationOp::Splice => {
                let k = (rng.next_u64() % len as u64) as usize;
                let donor = if other.is_empty() { parent } else { other };
                let j = (rng.next_u64() % donor.len() as u64) as usize;
                let mut steps: Vec<RawHypercall> = parent[..k].to_vec();
                steps.extend_from_slice(&donor[j..]);
                steps.truncate(self.max_steps);
                if steps.is_empty() {
                    steps.push(self.fresh_step(rng));
                }
                Mutation { steps, op, at: k }
            }
            MutationOp::TailRegen => {
                let k = (rng.next_u64() % len as u64) as usize;
                let room = self.max_steps.saturating_sub(k).max(1);
                let tail = 1 + (rng.next_u64() % room as u64) as usize;
                let mut steps: Vec<RawHypercall> = parent[..k].to_vec();
                for _ in 0..tail {
                    steps.push(self.fresh_step(rng));
                }
                Mutation { steps, op, at: k }
            }
            MutationOp::Fresh => unreachable!("fresh is not drawn by the operator table"),
        }
    }

    fn replace_at(&self, rng: &mut SeqRng, parent: &[RawHypercall], k: usize) -> Mutation {
        let mut steps = parent.to_vec();
        steps[k] = self.fresh_step(rng);
        Mutation { steps, op: MutationOp::Replace, at: k }
    }
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// Where a corpus entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Freshly drawn from the alphabet.
    Fresh,
    /// Mutated from corpus entry `parent` with `op` at position `at`.
    Mutant { parent: usize, op: MutationOp, at: usize },
}

/// One coverage-novel sequence retained in the evolving corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Corpus position (stable: entries are only ever appended).
    pub id: usize,
    /// The steps, replayable verbatim.
    pub steps: Vec<RawHypercall>,
    /// Full-stream coverage signature of the producing execution; a
    /// byte-faithful replay reproduces it exactly.
    pub signature: u64,
    /// `(cell, bucket)` observations that were novel when it was folded.
    pub new_cells: usize,
    /// 1-based candidate-execution index that produced it.
    pub exec_index: u64,
    /// Provenance.
    pub origin: Origin,
}

impl CorpusEntry {
    /// Textual corpus-file form: `#`-prefixed metadata, then one step
    /// per line (`XM_name hexarg hexarg …`). Deterministic; parsed back
    /// by [`parse_steps`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# id {} exec {} sig {:016x} new_cells {}\n",
            self.id, self.exec_index, self.signature, self.new_cells
        ));
        match self.origin {
            Origin::Fresh => out.push_str("# origin fresh\n"),
            Origin::Mutant { parent, op, at } => {
                out.push_str(&format!("# origin parent {} op {} at {}\n", parent, op.name(), at));
            }
        }
        render_steps(&mut out, &self.steps);
        out
    }

    /// Stable corpus file name.
    pub fn file_name(&self) -> String {
        format!("{:06}_{:016x}.seq", self.id, self.signature)
    }
}

/// Appends `steps` in the step-file format [`parse_steps`] reads back:
/// one `XM_name 0xarg …` line per step.
pub fn render_steps(out: &mut String, steps: &[RawHypercall]) {
    for step in steps {
        out.push_str(step.id.name());
        for a in step.args() {
            let _ = write!(out, " {a:#x}");
        }
        out.push('\n');
    }
}

/// Parses the step lines of a corpus entry (metadata lines starting with
/// `#` and blank lines are skipped). Inverse of [`CorpusEntry::render`].
pub fn parse_steps(text: &str) -> Result<Vec<RawHypercall>, String> {
    let mut steps = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("non-empty line has a first token");
        let id = HypercallId::by_name(name)
            .ok_or_else(|| format!("line {}: unknown hypercall {name:?}", n + 1))?;
        let args: Vec<u64> = parts
            .map(|p| {
                let (digits, radix) =
                    p.strip_prefix("0x").map_or((p, 10), |stripped| (stripped, 16));
                u64::from_str_radix(digits, radix)
                    .map_err(|e| format!("line {}: bad argument {p:?}: {e}", n + 1))
            })
            .collect::<Result<_, _>>()?;
        if args.len() > MAX_RAW_ARGS {
            let got = args.len();
            return Err(format!("line {}: at most {MAX_RAW_ARGS} arguments, got {got}", n + 1));
        }
        steps.push(RawHypercall::new_unchecked(id, args));
    }
    if steps.is_empty() {
        return Err("no steps found".into());
    }
    Ok(steps)
}

/// Deterministic rendering of the whole corpus (the byte surface the
/// determinism tests compare across thread counts).
pub fn render_corpus(corpus: &[CorpusEntry]) -> String {
    let mut out = String::new();
    for e in corpus {
        out.push_str(&e.render());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// A diverging sequence discovered by the fuzzer, fully triaged.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// 1-based candidate-execution index that hit it.
    pub exec_index: u64,
    /// Round it was found in.
    pub round: usize,
    /// The candidate's steps as executed.
    pub steps: Vec<RawHypercall>,
    /// Authoritative verdict (one-step-per-slot re-evaluation).
    pub verdict: SequenceVerdict,
    /// Steps executed in the authoritative evaluation.
    pub steps_executed: usize,
    /// ddmin-minimized reproducer, when shrinking is enabled.
    pub minimal: Option<MinimalRepro>,
    /// Wall-clock from campaign start to the end of the finding's round.
    /// Reporting only — not part of the deterministic surface.
    pub wall: Duration,
}

/// Per-round statistics (one JSONL line each in the CLI stats stream).
#[derive(Debug, Clone)]
pub struct RoundStat {
    /// Round index, from 0.
    pub round: usize,
    /// Cumulative candidate executions after this round.
    pub execs: u64,
    /// Corpus size after this round.
    pub corpus: usize,
    /// Coverage-map cells hit after this round.
    pub map_cells: usize,
    /// Coverage-novel candidates folded in this round.
    pub novel: usize,
    /// Cumulative findings after this round.
    pub findings: usize,
    /// Map occupancy after this round, as a fraction of
    /// [`flightrec::coverage::MAP_SIZE`]. Monotone non-decreasing.
    pub occupancy: f64,
    /// Consecutive rounds (including this one) without novel coverage —
    /// the plateau-detection signal. 0 whenever `novel > 0`.
    pub rounds_since_novel: usize,
    /// Wall-clock spent in this round. Reporting only.
    pub wall: Duration,
}

/// A completed fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzResult {
    /// Which build was fuzzed.
    pub build: KernelBuild,
    /// The master seed.
    pub seed: u64,
    /// Candidate executions performed.
    pub execs: u64,
    /// The evolved corpus, in discovery order.
    pub corpus: Vec<CorpusEntry>,
    /// The final coverage map.
    pub map: CoverageMap,
    /// All divergences, in execution order.
    pub findings: Vec<FuzzFinding>,
    /// Per-round statistics.
    pub rounds: Vec<RoundStat>,
    /// Run metrics; not part of the deterministic result surface.
    pub metrics: MetricsReport,
    /// Minimal-reproducer flights per finding (indexed by `exec_index`),
    /// present when recording. Not part of the deterministic surface.
    pub flight: Option<FlightLog>,
    /// First I/O error hit by the live-stats stream, if any. The run
    /// itself is never failed by a heartbeat-sink problem.
    pub live_stats_error: Option<String>,
}

// ---------------------------------------------------------------------------
// Candidate generation (pure function of seed + round + corpus)
// ---------------------------------------------------------------------------

/// One generated candidate: its steps and how they were made.
pub struct Candidate {
    pub steps: Vec<RawHypercall>,
    pub origin: Origin,
}

fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The candidate [`run_fuzz`] executes at `slot` of `round`, given the
/// corpus as it stood when the round began. A pure function of its
/// arguments, so a run's candidates can be rebuilt from its final corpus:
/// round `r` saw the entries found in rounds before it.
pub fn make_candidate(
    opts: &FuzzOptions,
    mutator: &Mutator<'_>,
    corpus: &[CorpusEntry],
    round: usize,
    slot: usize,
) -> Candidate {
    let seed = splitmix(
        opts.seed
            ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (slot as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let mut rng = SeqRng::new(seed);
    // Keep an exploration floor: 1 in 8 candidates is a fresh draw even
    // once the corpus is rich, so the fuzzer never commits entirely to
    // the neighbourhoods it already knows.
    if corpus.is_empty() || rng.next_u64().is_multiple_of(8) {
        return Candidate {
            steps: mutator.fresh_sequence(&mut rng, opts.steps),
            origin: Origin::Fresh,
        };
    }
    // Parent pick, biased to recent entries: new coverage clusters near
    // the frontier, and the frontier is the tail of the corpus.
    let n = corpus.len() as u64;
    let parent = if rng.next_u64().is_multiple_of(2) {
        (n - 1 - rng.next_u64() % n.min(8)) as usize
    } else {
        (rng.next_u64() % n) as usize
    };
    let other = (rng.next_u64() % n) as usize;
    let m = mutator.mutate(&mut rng, &corpus[parent].steps, &corpus[other].steps);
    Candidate { steps: m.steps, origin: Origin::Mutant { parent, op: m.op, at: m.at } }
}

// ---------------------------------------------------------------------------
// Coverage extraction
// ---------------------------------------------------------------------------

/// Folds one execution's drained flight events, then its frame digests,
/// into the window `trace` has open (a new trace's, or one `begin` or
/// `resume` opened) and finishes it into a canonical [`ExecCoverage`].
fn extract_coverage(
    trace: &mut EdgeTrace,
    events: &[flightrec::Event],
    eval: &SequenceEval,
) -> ExecCoverage {
    for e in events {
        trace.observe_event(e);
    }
    for &d in &eval.frame_digests {
        trace.observe_token(d);
    }
    trace.finish()
}

/// Replays a step list exactly as the fuzzer executed it (fresh boot,
/// same steps-per-slot) and returns its coverage and verdict. Manages
/// the calling thread's flight recorder: enables it for the run and
/// disables it after.
pub fn replay_coverage<T: Testbed + ?Sized>(
    testbed: &T,
    build: KernelBuild,
    steps: &[RawHypercall],
    steps_per_slot: usize,
) -> (ExecCoverage, SequenceVerdict) {
    let ctx = testbed.oracle_context(build);
    let (mut kernel, mut guests) = testbed.boot(build);
    flightrec::enable(DEFAULT_RING_CAPACITY);
    let eval = run_one_sequence(testbed, &ctx, &mut kernel, &mut guests, steps, steps_per_slot);
    let drained = flightrec::drain();
    flightrec::disable();
    let mut trace = EdgeTrace::new();
    let cov = extract_coverage(&mut trace, &drained.events, &eval);
    (cov, eval.verdict)
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// One heartbeat JSONL line from already-folded round state.
fn fuzz_live_line(elapsed: Duration, max_execs: u64, last: &RoundStat, fin: bool) -> String {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 { last.execs as f64 / secs } else { 0.0 };
    let eta_ms = if rate > 0.0 && max_execs > last.execs {
        (((max_execs - last.execs) as f64 / rate) * 1000.0) as u64
    } else {
        0
    };
    format!(
        "{{\"type\":\"fuzz_live\",\"elapsed_ms\":{},\"round\":{},\"execs\":{},\
         \"execs_total\":{},\"execs_per_sec\":{:.1},\"eta_ms\":{},\"corpus\":{},\
         \"map_cells\":{},\"occupancy\":{:.6},\"findings\":{},\
         \"rounds_since_novel\":{},\"final\":{}}}",
        elapsed.as_millis(),
        last.round,
        last.execs,
        max_execs,
        rate,
        eta_ms,
        last.corpus,
        last.map_cells,
        last.occupancy,
        last.findings,
        last.rounds_since_novel,
        fin
    )
}

struct CandidateOutcome {
    coverage: ExecCoverage,
    finding: Option<PendingFinding>,
}

struct PendingFinding {
    verdict: SequenceVerdict,
    steps_executed: usize,
    target: FindingSig,
    at: Option<VerdictAt>,
}

/// A fuzz worker's state, kept across rounds: booting is the expensive
/// part, rewinding is the cheap one. Its recorder window — coverage is
/// the feedback signal, so the recorder is always on, independent of
/// `opts.record` — is kept here too: each exec runs in it on whichever
/// thread the round gives the worker, so its ring is allocated once per
/// campaign, not once per round. Every window opens with the arena
/// prefix's events, the same for every exec, so the worker folds them
/// once (`prefix`; `None` without an arena) and each exec resumes from
/// that fold.
struct FuzzWorker<'t, T: ?Sized> {
    booter: Booter<'t, T>,
    log: WorkerLog,
    trace: EdgeTrace,
    prefix: Option<EdgeTrace>,
    window: flightrec::Window,
}

/// Runs a coverage-guided fuzzing campaign over `alphabet` on `testbed`.
///
/// Round-based: candidates are generated from the frozen corpus, executed
/// in parallel (each worker owns a persistent rewindable boot arena and a
/// flight-recorder ring), and folded back sequentially in candidate
/// order. The corpus, map and findings depend only on `(alphabet, opts)`
/// — never on thread count, work-stealing schedule or `opts.record`.
pub fn run_fuzz<T: Testbed + ?Sized>(
    testbed: &T,
    alphabet: &[AlphabetEntry],
    opts: &FuzzOptions,
) -> FuzzResult {
    on_campaign_thread(|| fuzz_body(testbed, alphabet, opts))
}

/// [`run_fuzz`], on the campaign's own thread: worker 0 and its boot
/// arena stay on it from round to round.
fn fuzz_body<T: Testbed + ?Sized>(
    testbed: &T,
    alphabet: &[AlphabetEntry],
    opts: &FuzzOptions,
) -> FuzzResult {
    let started = Instant::now();
    let ctx = testbed.oracle_context(opts.build);
    let mutator = Mutator::new(alphabet, opts.max_steps.max(1));

    let mut workers: Vec<FuzzWorker<'_, T>> = (0..resolve_threads(opts.threads, opts.batch.max(1)))
        .map(|_| {
            let mut log = WorkerLog::new(opts.record);
            let booter = Booter::new(testbed, opts.build, &mut log.local);
            let prefix = booter.prefix_events().map(|events| {
                let mut prefix = EdgeTrace::new();
                events.iter().for_each(|e| prefix.observe_event(e));
                prefix
            });
            let window = flightrec::Window::enabled(DEFAULT_RING_CAPACITY);
            FuzzWorker { booter, log, trace: EdgeTrace::new(), prefix, window }
        })
        .collect();
    let steals = AtomicU64::new(0);

    let mut map = CoverageMap::new();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut findings: Vec<FuzzFinding> = Vec::new();
    // Each finding's signature and verdict point, for the triage stage.
    let mut found: Vec<(FindingSig, Option<VerdictAt>)> = Vec::new();
    let mut rounds: Vec<RoundStat> = Vec::new();
    let mut execs: u64 = 0;
    let mut round = 0usize;
    let mut since_novel = 0usize;

    // Live heartbeats are driver-side: emitted between rounds, so they
    // observe only already-folded state and can never race the fold.
    let mut live = opts.live_stats.as_ref().map(LiveSink::open);

    while execs < opts.max_execs {
        if let Some(t) = opts.max_time {
            if started.elapsed() >= t {
                break;
            }
        }
        let round_started = Instant::now();
        let batch_n = (opts.batch.max(1) as u64).min(opts.max_execs - execs) as usize;
        let candidates: Vec<Candidate> =
            (0..batch_n).map(|slot| make_candidate(opts, &mutator, &corpus, round, slot)).collect();

        let round_base = execs;
        let outcomes = par_indexed(
            batch_n,
            &mut workers,
            &steals,
            |_| (),
            |w, _, slot| {
                let exec_index = round_base + slot as u64 + 1;
                evaluate_candidate(testbed, &ctx, opts, w, exec_index, &candidates[slot].steps)
            },
        );

        // Sequential fold, in candidate order: the only place coverage
        // state mutates, so the evolved corpus is schedule-independent.
        let mut round_novel = 0usize;
        for (slot, o) in outcomes.into_iter().enumerate() {
            let exec_index = round_base + slot as u64 + 1;
            let novel = map.observe(&o.coverage);
            if novel > 0 {
                corpus.push(CorpusEntry {
                    id: corpus.len(),
                    steps: candidates[slot].steps.clone(),
                    signature: o.coverage.signature,
                    new_cells: novel,
                    exec_index,
                    origin: candidates[slot].origin,
                });
                round_novel += 1;
            }
            if let Some(f) = o.finding {
                findings.push(FuzzFinding {
                    exec_index,
                    round,
                    steps: candidates[slot].steps.clone(),
                    verdict: f.verdict,
                    steps_executed: f.steps_executed,
                    minimal: None,
                    wall: started.elapsed(),
                });
                found.push((f.target, f.at));
            }
        }
        execs += batch_n as u64;
        since_novel = if round_novel > 0 { 0 } else { since_novel + 1 };
        rounds.push(RoundStat {
            round,
            execs,
            corpus: corpus.len(),
            map_cells: map.fill(),
            novel: round_novel,
            findings: findings.len(),
            occupancy: map.fill_ratio(),
            rounds_since_novel: since_novel,
            wall: round_started.elapsed(),
        });
        round += 1;
        if let Some(live) = live.as_mut().filter(|l| l.due()) {
            let line = fuzz_live_line(
                started.elapsed(),
                opts.max_execs,
                rounds.last().expect("round just pushed"),
                false,
            );
            live.write(&line);
        }
    }

    if let (Some(live), Some(last)) = (live.as_mut(), rounds.last()) {
        live.write(&fuzz_live_line(started.elapsed(), opts.max_execs, last, true));
    }

    // Triage after the search: one signature group per stage item, in
    // each worker's recorder window.
    let groups = by_signature(found.into_iter().zip(&findings).map(|((sig, at), f)| {
        let flight = opts.record.then_some(f.exec_index as usize);
        Some((sig, Finding { steps: &f.steps, at, shrink: opts.shrink, flight }))
    }));
    let how = Triage { min_frames: 0, budget: opts.shrink_budget, judge: None };
    let triaged = triage_stage(
        &mut workers,
        &steals,
        &groups,
        |_| (),
        |w, group| {
            let FuzzWorker { booter, log, window, .. } = w;
            flightrec::isolated_in(window, || triage_group(testbed, &ctx, booter, log, &how, group))
        },
    );
    for (pos, minimal) in triaged {
        findings[pos].minimal = minimal;
    }

    let logs = workers.into_iter().map(|w| w.log);
    let (report, flight) = fold_logs(logs, steals.into_inner(), opts.record, started);
    FuzzResult {
        build: opts.build,
        seed: opts.seed,
        execs,
        corpus,
        map,
        findings,
        rounds,
        metrics: report,
        flight,
        live_stats_error: live.and_then(LiveSink::into_error),
    }
}

/// Executes one candidate on a worker, in its recorder window:
/// coverage-producing main run, then (on divergence) [`confirm`]: the
/// one-step-per-slot authoritative re-judgement. A finding is triaged
/// after the search.
fn evaluate_candidate<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &crate::oracle::OracleContext,
    opts: &FuzzOptions,
    worker: &mut FuzzWorker<'_, T>,
    exec_index: u64,
    steps: &[RawHypercall],
) -> CandidateOutcome {
    let FuzzWorker { booter, log, trace, prefix, window } = worker;
    flightrec::isolated_in(window, || {
        // The candidate's stream is its run window: everything since boot.
        let (kernel, guests) = booter.booted(&mut log.local, None);
        let span = log.local.start_span();
        // Judged by classification only; a finding's kept verdict is the
        // refined run's below.
        let eval =
            lockstep(testbed, ctx, kernel, guests, steps, opts.steps_per_slot, 0, Evidence::Skip);
        log.local.end_span(Phase::Frames, span);
        let drained = flightrec::drain();
        if opts.record {
            log.fold_latency(&drained.events);
        }
        // The window is the `SnapshotClone` marker, the replayed prefix,
        // then this candidate's own run: fold only the run, unless the
        // ring dropped events from the window's start.
        let (resumed, rest) = match prefix.as_ref().filter(|_| drained.dropped == 0) {
            Some(prefix) => {
                trace.resume(prefix);
                let skipped = 1 + booter.prefix_events().map_or(0, <[_]>::len);
                (prefix.tokens(), &drained.events[skipped..])
            }
            None => {
                trace.begin();
                (0, &drained.events[..])
            }
        };
        let coverage = extract_coverage(trace, rest, &eval);
        log.local.note_coverage_tokens(trace.tokens() - resumed, resumed);
        debug_assert_eq!(
            coverage,
            extract_coverage(&mut EdgeTrace::new(), &drained.events, &eval),
            "prefix-resumed coverage differs from a fold from the window's start"
        );

        let mut finding = None;
        let mut class = eval.verdict.classification.class;
        if class != CrashClass::Pass {
            let how = Triage { min_frames: 0, budget: opts.shrink_budget, judge: None };
            let flight = opts.record.then_some(exec_index as usize);
            let (refined, _, target) =
                confirm(testbed, ctx, booter, &mut log.local, steps, flight, &how);
            class = refined.verdict.classification.class;
            if let Some(target) = target {
                finding = Some(PendingFinding {
                    verdict: refined.verdict,
                    steps_executed: refined.steps_executed,
                    target,
                    at: refined.verdict_at,
                });
            }
        }
        log.local.note_outcome(class);
        CandidateOutcome { coverage, finding }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(id: HypercallId, args: &[u64]) -> RawHypercall {
        RawHypercall::new_unchecked(id, args)
    }

    fn alphabet() -> Vec<AlphabetEntry> {
        vec![
            AlphabetEntry { call: call(HypercallId::GetTime, &[0, 0x4000_0000]), weight: 4 },
            AlphabetEntry { call: call(HypercallId::HmStatus, &[0x4000_0000]), weight: 2 },
            AlphabetEntry { call: call(HypercallId::SetTimer, &[0, 100, 100]), weight: 2 },
            AlphabetEntry { call: call(HypercallId::ResetSystem, &[0]), weight: 1 },
        ]
    }

    #[test]
    fn mutator_is_deterministic() {
        let ab = alphabet();
        let m = Mutator::new(&ab, 16);
        let parent = m.fresh_sequence(&mut SeqRng::new(3), 8);
        let a = m.mutate(&mut SeqRng::new(9), &parent, &parent);
        let b = m.mutate(&mut SeqRng::new(9), &parent, &parent);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.op, b.op);
        assert_eq!(a.at, b.at);
    }

    #[test]
    fn mutations_are_prefix_stable() {
        let ab = alphabet();
        let m = Mutator::new(&ab, 16);
        let mut rng = SeqRng::new(77);
        let parent = m.fresh_sequence(&mut rng, 8);
        let other = m.fresh_sequence(&mut rng, 8);
        for trial in 0..500 {
            let mut r = SeqRng::new(1000 + trial);
            let mutation = m.mutate(&mut r, &parent, &other);
            assert!(
                mutation.at <= parent.len(),
                "{:?}: edit point {} beyond parent length {}",
                mutation.op,
                mutation.at,
                parent.len()
            );
            assert_eq!(
                &mutation.steps[..mutation.at.min(mutation.steps.len())],
                &parent[..mutation.at.min(mutation.steps.len()).min(parent.len())],
                "{:?} at {} must leave the prefix untouched",
                mutation.op,
                mutation.at
            );
            assert!(!mutation.steps.is_empty(), "{:?} produced an empty sequence", mutation.op);
            assert!(
                mutation.steps.len() <= 16,
                "{:?} exceeded max_steps: {}",
                mutation.op,
                mutation.steps.len()
            );
        }
    }

    #[test]
    fn mutation_length_edges_hold() {
        let ab = alphabet();
        let m = Mutator::new(&ab, 4);
        let single = m.fresh_sequence(&mut SeqRng::new(5), 1);
        assert_eq!(single.len(), 1);
        let full = m.fresh_sequence(&mut SeqRng::new(5), 99);
        assert_eq!(full.len(), 4, "fresh sequences clamp to max_steps");
        for trial in 0..300 {
            let mut r = SeqRng::new(trial);
            let a = m.mutate(&mut r, &single, &full);
            assert!(!a.steps.is_empty());
            assert!(a.steps.len() <= 4);
            let b = m.mutate(&mut r, &full, &single);
            assert!(!b.steps.is_empty());
            assert!(b.steps.len() <= 4);
        }
    }

    #[test]
    fn corpus_entry_render_parse_roundtrip() {
        let entry = CorpusEntry {
            id: 12,
            steps: vec![
                call(HypercallId::SetTimer, &[0, 100, u64::MAX]),
                call(HypercallId::GetTime, &[0, 0x4000_0000]),
                call(HypercallId::SparcGetPsr, &[]),
            ],
            signature: 0xDEAD_BEEF_1234_5678,
            new_cells: 9,
            exec_index: 345,
            origin: Origin::Mutant { parent: 3, op: MutationOp::ArgMutate, at: 2 },
        };
        let text = entry.render();
        assert!(text.contains("# id 12 exec 345 sig deadbeef12345678 new_cells 9"));
        assert!(text.contains("# origin parent 3 op arg_mutate at 2"));
        let parsed = parse_steps(&text).expect("roundtrip parses");
        assert_eq!(parsed, entry.steps);
        assert!(entry.file_name().starts_with("000012_"));
    }

    #[test]
    fn parse_steps_rejects_garbage() {
        assert!(parse_steps("").is_err());
        assert!(parse_steps("# only comments\n").is_err());
        assert!(parse_steps("XM_not_a_call 0x1\n").is_err());
        assert!(parse_steps("XM_get_time zzz\n").is_err());
        // More words than the register file holds: an error, not a panic.
        let err = parse_steps("XM_get_time 0\nXM_get_time 1 2 3 4 5 6 7 8\n").unwrap_err();
        assert_eq!(err, "line 2: at most 6 arguments, got 8");
        assert_eq!(parse_steps("XM_get_time 1 2 3 4 5 6\n").unwrap()[0].args().len(), 6);
        // Decimal arguments are accepted too.
        let steps = parse_steps("XM_get_time 0 1073741824\n").unwrap();
        assert_eq!(steps[0].args(), &[0, 0x4000_0000]);
    }

    #[test]
    fn candidate_generation_is_pure() {
        let ab = alphabet();
        let m = Mutator::new(&ab, 16);
        let opts = FuzzOptions { seed: 42, ..FuzzOptions::default() };
        let corpus = vec![CorpusEntry {
            id: 0,
            steps: m.fresh_sequence(&mut SeqRng::new(8), 8),
            signature: 1,
            new_cells: 3,
            exec_index: 1,
            origin: Origin::Fresh,
        }];
        for slot in 0..16 {
            let a = make_candidate(&opts, &m, &corpus, 2, slot);
            let b = make_candidate(&opts, &m, &corpus, 2, slot);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.origin, b.origin);
        }
        // Different slots decorrelate.
        let a = make_candidate(&opts, &m, &corpus, 2, 0);
        let b = make_candidate(&opts, &m, &corpus, 2, 1);
        assert!(a.steps != b.steps || a.origin != b.origin);
        // An empty corpus always yields fresh candidates.
        let fresh = make_candidate(&opts, &m, &[], 0, 5);
        assert_eq!(fresh.origin, Origin::Fresh);
        assert_eq!(fresh.steps.len(), opts.steps);
    }

    #[test]
    fn fuzz_options_defaults() {
        let o = FuzzOptions::default();
        assert_eq!(o.build, KernelBuild::Legacy);
        assert_eq!(o.seed, 1);
        assert_eq!(o.max_execs, 1000);
        assert!(o.max_time.is_none());
        assert_eq!(o.steps, 8);
        assert_eq!(o.max_steps, 16);
        assert_eq!(o.batch, 64);
        assert_eq!(o.steps_per_slot, 4);
        assert!(!o.record);
        assert!(o.shrink);
        assert_eq!(o.shrink_budget, 160);
        assert!(o.live_stats.is_none());
    }

    #[test]
    fn fuzz_live_line_shape_and_plateau_fields() {
        let stat = RoundStat {
            round: 3,
            execs: 256,
            corpus: 12,
            map_cells: 640,
            novel: 0,
            findings: 2,
            occupancy: 640.0 / 16384.0,
            rounds_since_novel: 2,
            wall: Duration::from_millis(5),
        };
        let line = fuzz_live_line(Duration::from_secs(2), 1024, &stat, false);
        assert!(line.starts_with("{\"type\":\"fuzz_live\""));
        assert!(line.contains("\"round\":3"));
        assert!(line.contains("\"execs\":256"));
        assert!(line.contains("\"execs_total\":1024"));
        assert!(line.contains("\"execs_per_sec\":128.0"));
        // 768 remaining execs at 128/s -> 6s ETA.
        assert!(line.contains("\"eta_ms\":6000"));
        assert!(line.contains("\"occupancy\":0.039062"));
        assert!(line.contains("\"rounds_since_novel\":2"));
        assert!(line.ends_with("\"final\":false}"));
        let fin = fuzz_live_line(Duration::from_secs(2), 1024, &stat, true);
        assert!(fin.ends_with("\"final\":true}"));
    }
}

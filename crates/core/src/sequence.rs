//! Stateful sequence campaigns: multi-hypercall fuzzing with a stepwise
//! differential state oracle.
//!
//! The single-call campaign ([`crate::exec`]) injects one hypercall per
//! test and judges it against the first-invocation oracle. This module
//! generalises that to *sequences*: a seeded generator draws N-step
//! hypercall sequences from a weighted dictionary alphabet, a
//! [`SequenceGuest`] replays them from inside the test partition (a few
//! steps per slot), and a small reference state machine ([`StateModel`])
//! is advanced call-by-call in lockstep with the real kernel. After every
//! major frame the model's prediction is diffed against
//! [`xtratum::kernel::XmKernel::state_digest`], so a divergence is
//! localised to the first bad step instead of the whole run.
//!
//! Verdict priority within a frame mirrors [`crate::classify`]'s rule
//! order: terminal signs first (simulator death, kernel halt, unexpected
//! system reset, HM containment of the caller), then the per-step
//! return-code comparison, then the architectural state diff.
//!
//! On any non-Pass verdict the sequence is re-evaluated one step per slot
//! (exact step attribution), minimised by [`crate::shrink`], and the
//! minimal reproducer is re-run — under the flight recorder when
//! [`SequenceOptions::record`] is set — to yield a triage bundle. That
//! triage stage is shared with the fuzz and `check` campaigns.

use crate::classify::{Cause, Classification, CrashClass};
use crate::exec::{fold_logs, par_indexed, resolve_threads, Booter, WorkerLog};
use crate::flight::{FlightLog, DEFAULT_RING_CAPACITY};
use crate::metrics::{LocalMetrics, MetricsReport, Phase};
use crate::observe::Invocation;
use crate::oracle::{Expectation, ExpectedOutcome, NoReturnExpect, OracleContext};
use crate::shrink::shrink_sequence;
use crate::testbed::Testbed;
use std::sync::atomic::AtomicU64;
use std::time::Instant;
use xtratum::guest::{GuestProgram, GuestSet, PartitionApi};
use xtratum::hm::HmEventKind;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::kernel::{KernelState, NoReturnKind, StateDigest, XmKernel};
use xtratum::observe::ResetKind;
use xtratum::partition::PartitionStatus;
use xtratum::retcode::XmRet;
use xtratum::vuln::KernelBuild;

// ---------------------------------------------------------------------------
// Seeded generation
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, dependency-free, and statistically fine for drawing
/// dictionary entries. The generator state is the only thing a campaign
/// needs to be byte-reproducible from `--seed`. Shared with the fuzzer's
/// mutation engine ([`crate::fuzz`]), which needs its draws on the same
/// deterministic footing.
pub struct SeqRng {
    state: u64,
}

impl SeqRng {
    pub fn new(seed: u64) -> Self {
        SeqRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One weighted dictionary entry the generator can draw for a step.
#[derive(Debug, Clone)]
pub struct AlphabetEntry {
    /// The concrete call (hypercall id + dataset words).
    pub call: RawHypercall,
    /// Relative draw weight (0 = never drawn).
    pub weight: u32,
}

/// A generated sequence: `index` is its campaign position, `seed` the
/// per-sequence derived seed (replayable in isolation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceSpec {
    /// Campaign position.
    pub index: usize,
    /// Derived seed this sequence was drawn from.
    pub seed: u64,
    /// The steps, in execution order.
    pub steps: Vec<RawHypercall>,
}

/// Draws `count` sequences of `steps` calls each. One derived seed is
/// split off the outer stream per sequence, so the first `count` specs of
/// a larger campaign with the same seed are identical (prefix stability —
/// growing `--count` never changes already-generated sequences).
pub fn generate_sequences(
    alphabet: &[AlphabetEntry],
    seed: u64,
    count: usize,
    steps: usize,
) -> Vec<SequenceSpec> {
    let total: u64 = alphabet.iter().map(|e| e.weight as u64).sum();
    assert!(total > 0, "sequence alphabet must have positive total weight");
    let mut outer = SeqRng::new(seed);
    (0..count)
        .map(|index| {
            let seq_seed = outer.next_u64();
            let mut rng = SeqRng::new(seq_seed);
            let drawn = (0..steps).map(|_| draw_weighted(alphabet, total, &mut rng)).collect();
            SequenceSpec { index, seed: seq_seed, steps: drawn }
        })
        .collect()
}

/// One weighted draw from the alphabet. `total` must be the positive sum
/// of all weights (precomputed by the caller so bulk draws stay O(n)).
pub(crate) fn draw_weighted(
    alphabet: &[AlphabetEntry],
    total: u64,
    rng: &mut SeqRng,
) -> RawHypercall {
    let mut r = rng.next_u64() % total;
    for e in alphabet {
        if (e.weight as u64) > r {
            return e.call;
        }
        r -= e.weight as u64;
    }
    unreachable!("weighted walk covers the total");
}

// ---------------------------------------------------------------------------
// Sequence guest
// ---------------------------------------------------------------------------

/// Guest program that replays a fixed step list from the test partition,
/// a bounded number of steps per slot, re-running the testbed prologue
/// after every partition (re)boot — exactly what partition flight
/// software would do after an HM-driven restart.
struct SequenceGuest {
    steps: Vec<RawHypercall>,
    prologue: fn(&mut PartitionApi<'_>),
    steps_per_slot: usize,
    results: Vec<Invocation>,
    next: usize,
    last_boot_count: Option<u32>,
}

impl SequenceGuest {
    /// Installs a guest replaying `steps` in `caller`'s slot. A
    /// `SequenceGuest` already there (an arena rewind skips the test
    /// partition's guest) is reset in place, reusing its buffers.
    fn install(
        guests: &mut GuestSet,
        caller: u32,
        steps: &[RawHypercall],
        prologue: fn(&mut PartitionApi<'_>),
        steps_per_slot: usize,
    ) {
        if let Some(g) = installed_guest(guests, caller) {
            g.reset(steps, prologue, steps_per_slot);
            return;
        }
        let mut g = SequenceGuest {
            steps: Vec::new(),
            prologue,
            steps_per_slot,
            results: Vec::new(),
            next: 0,
            last_boot_count: None,
        };
        g.reset(steps, prologue, steps_per_slot);
        guests.set(caller, Box::new(g));
    }

    fn reset(
        &mut self,
        steps: &[RawHypercall],
        prologue: fn(&mut PartitionApi<'_>),
        steps_per_slot: usize,
    ) {
        self.steps.clear();
        self.steps.extend_from_slice(steps);
        self.prologue = prologue;
        self.steps_per_slot = steps_per_slot.max(1);
        self.results.clear();
        self.next = 0;
        self.last_boot_count = None;
    }
}

impl GuestProgram for SequenceGuest {
    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        let bc = api.boot_count();
        if self.last_boot_count != Some(bc) {
            self.last_boot_count = Some(bc);
            (self.prologue)(api);
            if api.ended().is_some() {
                return;
            }
        }
        let mut issued = 0;
        while issued < self.steps_per_slot && self.next < self.steps.len() {
            let idx = self.next;
            self.next += 1;
            issued += 1;
            match api.hypercall(&self.steps[idx]) {
                Ok(code) => self.results.push(Invocation::Returned(code)),
                Err(kind) => {
                    self.results.push(Invocation::NoReturn(kind));
                    return;
                }
            }
            if api.remaining_us() == 0 {
                return;
            }
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

fn installed_guest(guests: &mut GuestSet, caller: u32) -> Option<&mut SequenceGuest> {
    guests.get_mut(caller).and_then(|g| g.as_any_mut()).and_then(|a| a.downcast_mut())
}

// ---------------------------------------------------------------------------
// Reference state machine
// ---------------------------------------------------------------------------

/// The differential oracle's reference state machine. It extends the
/// first-invocation [`OracleContext`] with exactly the architectural
/// state the single-call oracle froze at "first invocation": partition
/// modes, timer arming, plan position, HM log occupancy and the caller's
/// port table. Everything else still delegates to [`OracleContext::expect`].
pub struct StateModel<'a> {
    ctx: &'a OracleContext,
    /// The predicted [`XmKernel::state_digest`], kept in digest form so
    /// the per-frame comparison borrows it instead of collecting it. The
    /// HM log length (`hm_entries`) is not clamped: sequences raise at
    /// most a few entries, far below the kernel's ring capacity.
    state: StateDigest,
    /// The caller was reset (partition or system reset): its next slot
    /// re-runs the prologue (one HM raise, ports re-created).
    caller_reset_pending: bool,
}

impl<'a> StateModel<'a> {
    /// Boot-state model for `ctx`'s testbed.
    pub fn new(ctx: &'a OracleContext) -> Self {
        let n = ctx.partition_count as usize;
        StateModel {
            ctx,
            state: StateDigest {
                alive: true,
                sim_running: true,
                partition_status: vec![PartitionStatus::Ready; n],
                reset_counts: vec![0; n],
                current_plan: ctx.plan_ids.first().copied().unwrap_or(0),
                pending_plan: None,
                hw_timer_armed: vec![false; n],
                exec_timer_owner: None,
                cold_resets: 0,
                warm_resets: 0,
                hm_entries: ctx.hm_entries_at_first,
                hm_cursor: 0,
                caller_ports: ctx.ports.len() as u32,
            },
            caller_reset_pending: false,
        }
    }

    fn valid_partition(&self, id: i32) -> bool {
        id >= 0 && (id as u32) < self.ctx.partition_count
    }

    /// The HM cursor a seek would land on, if valid (live-cursor variant
    /// of the first-invocation rule).
    fn hm_seek_target(&self, hc: &RawHypercall) -> Option<i64> {
        let (offset, whence) = (hc.arg_s32(0) as i64, hc.arg32(1));
        if whence > 2 {
            return None;
        }
        let len = self.state.hm_entries as i64;
        let base = match whence {
            0 => 0,
            1 => self.state.hm_cursor as i64,
            _ => len,
        };
        base.checked_add(offset).filter(|t| (0..=len).contains(t))
    }

    /// Predicts the outcome of `hc` in the *current* model state. Only
    /// the rules that are genuinely stateful are overridden here; all
    /// other calls fall through to the first-invocation oracle, whose
    /// preconditions this model keeps re-established.
    pub fn expect_step(&self, hc: &RawHypercall) -> Expectation {
        use HypercallId as H;
        if hc.id.def().system_only && !self.ctx.caller_is_system {
            return Expectation::err_stateful(XmRet::PermError);
        }
        let caller = self.ctx.caller;
        match hc.id {
            H::HaltPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.state.partition_status[id as usize] == PartitionStatus::Halted {
                    Expectation::err_stateful(XmRet::NoAction)
                } else if id as u32 == caller {
                    Expectation::no_return(NoReturnExpect::CallerHalted)
                } else {
                    Expectation::ok()
                }
            }
            H::SuspendPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    match self.state.partition_status[id as usize] {
                        PartitionStatus::Halted | PartitionStatus::Shutdown => {
                            Expectation::err_stateful(XmRet::InvalidMode)
                        }
                        PartitionStatus::Suspended => Expectation::err_stateful(XmRet::NoAction),
                        _ if id as u32 == caller => {
                            Expectation::no_return(NoReturnExpect::CallerSuspended)
                        }
                        _ => Expectation::ok(),
                    }
                }
            }
            H::ResumePartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    match self.state.partition_status[id as usize] {
                        PartitionStatus::Halted | PartitionStatus::Shutdown => {
                            Expectation::err_stateful(XmRet::InvalidMode)
                        }
                        PartitionStatus::Suspended => Expectation::ok(),
                        _ => Expectation::err_stateful(XmRet::NoAction),
                    }
                }
            }
            H::ShutdownPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.state.partition_status[id as usize] == PartitionStatus::Halted {
                    Expectation::err_stateful(XmRet::InvalidMode)
                } else if id as u32 == caller {
                    Expectation::no_return(NoReturnExpect::CallerShutdown)
                } else {
                    Expectation::ok()
                }
            }
            H::HmRead => {
                let avail = self.state.hm_entries.saturating_sub(self.state.hm_cursor);
                let n = (hc.arg32(1) as u64).min(avail as u64) as u32;
                if n == 0 {
                    Expectation::value(0)
                } else if self.ctx.accessible(hc.arg32(0), n * 16, 4) {
                    Expectation::value(n as i32)
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::HmSeek => {
                if hc.arg32(1) > 2 {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if self.hm_seek_target(hc).is_some() {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            _ => self.ctx.expect(hc),
        }
    }

    /// Advances the model by the *documented* effect of `hc`, given the
    /// prediction just computed for it. Error outcomes have no effect.
    pub fn apply_step(&mut self, hc: &RawHypercall, exp: &Expectation) {
        use HypercallId as H;
        let caller = self.ctx.caller as usize;
        match exp.outcome {
            ExpectedOutcome::NoReturn(nr) => match nr {
                NoReturnExpect::CallerHalted => {
                    self.state.partition_status[caller] = PartitionStatus::Halted
                }
                NoReturnExpect::CallerSuspended => {
                    self.state.partition_status[caller] = PartitionStatus::Suspended
                }
                NoReturnExpect::CallerShutdown => {
                    self.state.partition_status[caller] = PartitionStatus::Shutdown
                }
                NoReturnExpect::CallerReset => self.reset_partition(caller),
                NoReturnExpect::CallerIdled => {} // back to Ready at slot end
                NoReturnExpect::SystemColdReset => self.apply_system_reset(true),
                NoReturnExpect::SystemWarmReset => self.apply_system_reset(false),
                NoReturnExpect::SystemHalt => self.state.alive = false,
            },
            ExpectedOutcome::Ret(XmRet::Ok) => match hc.id {
                H::HaltPartition => {
                    self.state.partition_status[hc.arg_s32(0) as usize] = PartitionStatus::Halted
                }
                H::SuspendPartition => {
                    self.state.partition_status[hc.arg_s32(0) as usize] = PartitionStatus::Suspended
                }
                H::ResumePartition => {
                    self.state.partition_status[hc.arg_s32(0) as usize] = PartitionStatus::Ready
                }
                H::ShutdownPartition => {
                    self.state.partition_status[hc.arg_s32(0) as usize] = PartitionStatus::Shutdown
                }
                H::ResetPartition => self.reset_partition(hc.arg_s32(0) as usize),
                H::SetTimer => {
                    if hc.arg32(0) == 0 {
                        // The dictionary only draws already-past absolute
                        // deadlines, so a one-shot (interval ≤ 0) fires
                        // and disarms within the arming frame; a periodic
                        // timer stays armed.
                        self.state.hw_timer_armed[caller] = hc.arg_s64(2) > 0;
                    } else {
                        self.state.exec_timer_owner = Some(self.ctx.caller);
                    }
                }
                H::SwitchSchedPlan => self.state.pending_plan = Some(hc.arg32(0)),
                H::HmSeek => {
                    if let Some(t) = self.hm_seek_target(hc) {
                        self.state.hm_cursor = t as u32;
                    }
                }
                H::HmRaiseEvent => self.state.hm_entries += 1,
                _ => {}
            },
            ExpectedOutcome::RetValue(n) if hc.id == H::HmRead => {
                self.state.hm_cursor = (self.state.hm_cursor + n as u32).min(self.state.hm_entries);
            }
            ExpectedOutcome::RetNonNegative
                if matches!(hc.id, H::CreateSamplingPort | H::CreateQueuingPort) =>
            {
                self.state.caller_ports += 1;
            }
            _ => {}
        }
    }

    fn reset_partition(&mut self, idx: usize) {
        self.state.partition_status[idx] = PartitionStatus::Ready;
        self.state.reset_counts[idx] += 1;
        self.state.hw_timer_armed[idx] = false;
        if idx == self.ctx.caller as usize {
            self.caller_reset_pending = true;
        }
    }

    fn apply_system_reset(&mut self, cold: bool) {
        for s in &mut self.state.partition_status {
            *s = PartitionStatus::Ready;
        }
        for c in &mut self.state.reset_counts {
            *c += 1;
        }
        for a in &mut self.state.hw_timer_armed {
            *a = false;
        }
        self.state.exec_timer_owner = None;
        self.caller_reset_pending = true;
        if cold {
            self.state.cold_resets += 1;
            self.state.current_plan = self.ctx.plan_ids.first().copied().unwrap_or(0);
            self.state.pending_plan = None;
            // A cold reset destroys all ports; the prologue re-creates
            // the caller's at its next slot (see `begin_caller_slot`).
            self.state.caller_ports = 0;
        } else {
            self.state.warm_resets += 1;
        }
    }

    /// Called when the caller is about to execute steps in a new slot:
    /// accounts for the prologue re-run after a (re)boot — one HM raise,
    /// ports re-created (or confirmed, returning `NoAction`).
    pub fn begin_caller_slot(&mut self) {
        if self.caller_reset_pending {
            self.caller_reset_pending = false;
            self.state.hm_entries += 1;
            self.state.caller_ports = self.ctx.ports.len() as u32;
        }
    }

    /// Major-frame boundary: a pending plan switch takes effect.
    pub fn end_frame(&mut self) {
        if let Some(p) = self.state.pending_plan.take() {
            self.state.current_plan = p;
        }
    }

    /// Whether the model expects the caller to get CPU time at all.
    pub fn caller_schedulable(&self) -> bool {
        self.state.alive && self.state.partition_status[self.ctx.caller as usize].schedulable()
    }

    /// The model's prediction of [`XmKernel::state_digest`].
    pub fn digest(&self) -> &StateDigest {
        &self.state
    }
}

// ---------------------------------------------------------------------------
// Stepwise judgement
// ---------------------------------------------------------------------------

/// Per-step return-code comparison (rule 7 of [`crate::classify`], plus
/// the system-level no-return pairs that `classify` resolves at whole-run
/// level). `None` means the step behaved as documented.
pub(crate) fn judge_step(exp: &Expectation, obs: &Invocation) -> Option<Classification> {
    use ExpectedOutcome as EO;
    use NoReturnExpect as NR;
    match *obs {
        Invocation::NoReturn(kind) => {
            let matches_expected = matches!(
                (exp.outcome, kind),
                (EO::NoReturn(NR::CallerHalted), NoReturnKind::CallerHalted)
                    | (EO::NoReturn(NR::CallerSuspended), NoReturnKind::CallerSuspended)
                    | (EO::NoReturn(NR::CallerIdled), NoReturnKind::CallerIdled)
                    | (EO::NoReturn(NR::CallerReset), NoReturnKind::CallerReset)
                    | (EO::NoReturn(NR::CallerShutdown), NoReturnKind::CallerShutdown)
                    | (EO::NoReturn(NR::SystemColdReset), NoReturnKind::SystemColdReset)
                    | (EO::NoReturn(NR::SystemWarmReset), NoReturnKind::SystemWarmReset)
                    | (EO::NoReturn(NR::SystemHalt), NoReturnKind::SystemHalt)
            );
            if matches_expected {
                None
            } else {
                Some(match kind {
                    NoReturnKind::CallerHalted | NoReturnKind::Fault => Classification {
                        class: CrashClass::Abort,
                        cause: Cause::UnhandledServiceException,
                    },
                    _ => Classification { class: CrashClass::Restart, cause: Cause::PartitionHang },
                })
            }
        }
        Invocation::Returned(code) => match exp.outcome {
            EO::Ret(expected) => {
                if code == expected.code() {
                    None
                } else if expected != XmRet::Ok && code >= 0 {
                    Some(Classification { class: CrashClass::Silent, cause: Cause::WrongSuccess })
                } else {
                    Some(Classification {
                        class: CrashClass::Hindering,
                        cause: Cause::WrongErrorCode,
                    })
                }
            }
            EO::RetValue(v) => (code != v).then_some(Classification {
                class: CrashClass::Hindering,
                cause: Cause::WrongErrorCode,
            }),
            EO::RetNonNegative => (code < 0).then_some(Classification {
                class: CrashClass::Hindering,
                cause: Cause::WrongErrorCode,
            }),
            EO::NoReturn(_) => {
                Some(Classification { class: CrashClass::Hindering, cause: Cause::WrongErrorCode })
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Single-sequence evaluation
// ---------------------------------------------------------------------------

/// The differential oracle's verdict for one sequence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceVerdict {
    /// CRASH classification (`Pass` = no divergence).
    pub classification: Classification,
    /// Step the divergence is attributed to (for terminal and state-diff
    /// verdicts: the last step executed before detection).
    pub failing_step: Option<usize>,
    /// Human-readable divergence evidence: a headline plus the
    /// [`StateDigest::diff`] lines, model-expected vs kernel-observed.
    pub state_diff: Vec<String>,
}

impl SequenceVerdict {
    fn pass() -> Self {
        SequenceVerdict {
            classification: Classification { class: CrashClass::Pass, cause: Cause::None },
            failing_step: None,
            state_diff: Vec::new(),
        }
    }
}

/// One expected/observed pair, in step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The model's prediction at that point in the sequence.
    pub expected: Expectation,
    /// What the kernel did.
    pub observed: Invocation,
}

/// Result of evaluating one sequence on one booted testbed instance.
#[derive(Debug, Clone)]
pub struct SequenceEval {
    /// The stepwise differential verdict.
    pub verdict: SequenceVerdict,
    /// Steps the kernel actually executed.
    pub steps_executed: usize,
    /// Expected/observed per executed step.
    pub outcomes: Vec<StepOutcome>,
    /// [`StateDigest::stable_hash`] of the kernel's observed state after
    /// each major frame, in frame order. The fuzzer folds these into its
    /// coverage stream so architectural-state novelty counts as coverage
    /// even when the event stream alone would collide.
    pub frame_digests: Vec<u64>,
}

/// Runs `steps` on an already-booted `(kernel, guests)` pair, advancing
/// the reference state machine in lockstep and diffing architectural
/// state after every major frame.
///
/// The model is advanced *after* each frame, through exactly the steps
/// the kernel demonstrably executed — so slot-boundary drift (a guest
/// stopping early on a low budget) shifts prediction along with
/// execution instead of producing spurious hang verdicts.
pub fn run_one_sequence<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    steps: &[RawHypercall],
    steps_per_slot: usize,
) -> SequenceEval {
    run_one_sequence_bounded(testbed, ctx, kernel, guests, steps, steps_per_slot, 0)
}

/// [`run_one_sequence`] with a frame floor: the run keeps stepping (and
/// diffing architectural state) for at least `min_frames` major frames
/// even after every step has executed and agreed. The small-scope
/// isolation checker uses this to observe a fixed scheduling horizon —
/// an empty step list then still exercises `min_frames` frames of pure
/// cyclic scheduling. `min_frames == 0` reproduces [`run_one_sequence`]
/// exactly. A verdict or a predicted kernel halt still ends the run
/// early: there is nothing left to observe.
pub fn run_one_sequence_bounded<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    steps: &[RawHypercall],
    steps_per_slot: usize,
    min_frames: usize,
) -> SequenceEval {
    lockstep(testbed, ctx, kernel, guests, steps, steps_per_slot, min_frames, Evidence::Render)
}

/// Whether a lockstep run renders [`SequenceVerdict::state_diff`].
/// Public only so the profiling example can split the two; campaigns
/// choose it internally.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// The headline and [`StateDigest::diff`] lines, for verdicts a
    /// record keeps.
    Render,
    /// None: for runs judged only by their classification, or kept only
    /// when they pass (a passing verdict has no evidence). Everything
    /// else in the [`SequenceEval`] equals a rendering run's.
    Skip,
}

/// The lockstep core behind [`run_one_sequence_bounded`]. Per frame it
/// hashes and compares the kernel's state in place and borrows the
/// frame's invocations, so frames allocate nothing; only a verdict's
/// evidence, when rendered, is formatted.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn lockstep<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    steps: &[RawHypercall],
    steps_per_slot: usize,
    min_frames: usize,
    evidence: Evidence,
) -> SequenceEval {
    let render = evidence == Evidence::Render;
    let caller = testbed.test_partition();
    SequenceGuest::install(guests, caller, steps, testbed.prologue(), steps_per_slot);
    let mut model = StateModel::new(ctx);
    let mut outcomes: Vec<StepOutcome> = Vec::with_capacity(steps.len());
    // Worst case one step per frame, plus slack for prologue re-runs.
    let frame_cap = (steps.len() + 4).max(min_frames);
    let mut frame_digests: Vec<u64> = Vec::with_capacity(frame_cap);
    let mut executed = 0usize;
    let mut verdict: Option<SequenceVerdict> = None;
    // Set when the run may stop with the remaining steps vacuously passed:
    // all steps done, a predicted system halt, or a caller both sides
    // agree is no longer schedulable.
    let mut agreed_end = false;
    // The model's prediction against the kernel's state, for evidence.
    let state_diff = |model: &StateModel<'_>, kernel: &XmKernel| {
        model.digest().diff(&kernel.state_digest(caller))
    };

    for _ in 0..frame_cap {
        let schedulable_before = model.caller_schedulable();
        kernel.step_major_frames(guests, 1);
        let new = &installed_guest(guests, caller).expect("installed above").results[executed..];
        let frame_exec = new.len();

        // Per-step comparison: first mismatch in this frame.
        let mut pairwise: Option<(usize, Classification, Option<String>)> = None;
        if frame_exec > 0 && !schedulable_before {
            pairwise = Some((
                executed,
                Classification { class: CrashClass::Silent, cause: Cause::WrongSuccess },
                render.then(|| {
                    format!(
                        "step {executed} executed although the reference model holds the \
                         caller unschedulable"
                    )
                }),
            ));
        } else if frame_exec > 0 {
            model.begin_caller_slot();
            for (i, obs) in new.iter().enumerate() {
                let hc = &steps[executed + i];
                let exp = model.expect_step(hc);
                model.apply_step(hc, &exp);
                outcomes.push(StepOutcome { expected: exp, observed: *obs });
                if pairwise.is_none() {
                    if let Some(c) = judge_step(&exp, obs) {
                        pairwise = Some((
                            executed + i,
                            c,
                            render.then(|| {
                                format!(
                                    "step {}: {} — expected {:?}, observed {:?}",
                                    executed + i,
                                    hc,
                                    exp.outcome,
                                    obs
                                )
                            }),
                        ));
                    }
                }
            }
        }
        model.end_frame();

        // Terminal signs take precedence over pairwise mismatches,
        // mirroring classify's rule order.
        frame_digests.push(kernel.state_hash(caller));
        let last_step =
            if frame_exec > 0 { Some(executed + frame_exec - 1) } else { executed.checked_sub(1) };
        let predicted = model.digest();
        let (cold_resets, warm_resets) = kernel.system_resets();
        let mut halt_predicted = false;
        let mut terminal: Option<(Classification, Option<String>)> = None;
        if !kernel.sim_running() {
            terminal = Some((
                Classification { class: CrashClass::Catastrophic, cause: Cause::SimulatorCrash },
                render.then(|| "simulator crashed".to_string()),
            ));
        } else if let KernelState::Halted { reason, .. } = kernel.state() {
            if predicted.alive {
                terminal = Some((
                    Classification { class: CrashClass::Catastrophic, cause: Cause::KernelHalt },
                    render.then(|| format!("kernel halted: {reason}")),
                ));
            } else {
                halt_predicted = true;
            }
        } else if cold_resets > predicted.cold_resets || warm_resets > predicted.warm_resets {
            let kind =
                if cold_resets > predicted.cold_resets { ResetKind::Cold } else { ResetKind::Warm };
            terminal = Some((
                Classification {
                    class: CrashClass::Catastrophic,
                    cause: Cause::UnexpectedSystemReset(kind),
                },
                render.then(|| format!("undocumented system {kind:?} reset performed")),
            ));
        } else {
            let hm = kernel.hm_log();
            let lo = (predicted.hm_entries as usize).min(hm.len());
            for e in &hm[lo..] {
                if e.partition != Some(caller) {
                    continue;
                }
                match e.kind {
                    HmEventKind::PartitionTrap { .. } | HmEventKind::KernelTrap { .. } => {
                        terminal = Some((
                            Classification {
                                class: CrashClass::Abort,
                                cause: Cause::UnhandledServiceException,
                            },
                            render.then(|| format!("unpredicted HM containment: {:?}", e.kind)),
                        ));
                        break;
                    }
                    HmEventKind::SchedOverrun { .. } => {
                        terminal = Some((
                            Classification {
                                class: CrashClass::Restart,
                                cause: Cause::TemporalOverrun,
                            },
                            render.then(|| format!("unpredicted temporal violation: {:?}", e.kind)),
                        ));
                        break;
                    }
                    _ => {}
                }
            }
        }

        if let Some((classification, headline)) = terminal {
            let state_diff = headline.map_or_else(Vec::new, |headline| {
                let mut diff = state_diff(&model, kernel);
                diff.insert(0, headline);
                diff
            });
            verdict = Some(SequenceVerdict { classification, failing_step: last_step, state_diff });
        } else if let Some((idx, classification, msg)) = pairwise {
            verdict = Some(SequenceVerdict {
                classification,
                failing_step: Some(idx),
                state_diff: msg.into_iter().collect(),
            });
        } else if !halt_predicted && !kernel.state_matches(caller, predicted) {
            verdict = Some(SequenceVerdict {
                classification: Classification {
                    class: CrashClass::Silent,
                    cause: Cause::WrongSuccess,
                },
                failing_step: last_step,
                state_diff: if render { state_diff(&model, kernel) } else { Vec::new() },
            });
        }

        executed += frame_exec;
        if verdict.is_some() {
            break;
        }
        if halt_predicted {
            // The kernel halted as predicted: no further frame can run.
            agreed_end = true;
            break;
        }
        // The frame floor defers the agreed-end exits: completed steps
        // (or an off-schedule caller) still leave `min_frames` frames of
        // scheduling to observe and diff.
        if frame_digests.len() >= min_frames {
            if executed >= steps.len() {
                agreed_end = true;
                break;
            }
            if frame_exec == 0 && !model.caller_schedulable() {
                // Both sides agree the caller is permanently off-schedule;
                // the remaining steps are vacuous.
                agreed_end = true;
                break;
            }
        }
    }

    let verdict = verdict.unwrap_or_else(|| {
        if agreed_end {
            SequenceVerdict::pass()
        } else {
            SequenceVerdict {
                classification: Classification {
                    class: CrashClass::Restart,
                    cause: Cause::PartitionHang,
                },
                failing_step: Some(executed),
                state_diff: render
                    .then(|| {
                        format!(
                            "sequence stalled after {executed} steps: the caller stopped \
                             issuing calls"
                        )
                    })
                    .into_iter()
                    .collect(),
            }
        }
    });
    SequenceEval { verdict, steps_executed: executed, outcomes, frame_digests }
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Sequence campaign options.
#[derive(Debug, Clone)]
pub struct SequenceOptions {
    /// Kernel build to test.
    pub build: KernelBuild,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Run the flight recorder; failing sequences keep the minimal
    /// reproducer's flight as the triage trace.
    pub record: bool,
    /// Steps the guest issues per slot in the main evaluation. Failing
    /// sequences are re-evaluated at one step per slot regardless, both
    /// for exact attribution and to rule out slot-packing artefacts.
    pub steps_per_slot: usize,
    /// Minimize failing sequences (default on).
    pub shrink: bool,
    /// Predicate-evaluation budget per shrink.
    pub shrink_budget: usize,
}

impl Default for SequenceOptions {
    fn default() -> Self {
        SequenceOptions {
            build: KernelBuild::Legacy,
            threads: 0,
            record: false,
            steps_per_slot: 4,
            shrink: true,
            shrink_budget: 160,
        }
    }
}

/// A minimized reproducer for a diverging sequence.
#[derive(Debug, Clone)]
pub struct MinimalRepro {
    /// The minimal step list (never empty).
    pub steps: Vec<RawHypercall>,
    /// Verdict of re-running the minimal sequence (one step per slot).
    pub verdict: SequenceVerdict,
    /// Shrinker predicate evaluations spent.
    pub evals: usize,
    /// Steps removed from the original sequence.
    pub removed_steps: usize,
    /// Argument words rewritten to canonical scalars.
    pub shrunk_args: usize,
}

/// Where the campaign modes' triage of a finding differs; [`triage`]
/// is otherwise the same for sequences, fuzz and `check`.
pub(crate) struct Triage {
    /// Frame floor of every triage run: `check`'s horizon, 0 otherwise.
    pub(crate) min_frames: usize,
    /// Whether to shrink. Without it no reproducer is built, and a kept
    /// flight is a re-run of the unshrunk steps.
    pub(crate) shrink: bool,
    /// Predicate evaluations per shrink.
    pub(crate) budget: usize,
    /// Campaign index the finding's flight is filed under (`None`: keep
    /// no flight).
    pub(crate) flight: Option<usize>,
}

/// Triages one finding after its authoritative verdict: ddmin-shrinks
/// `steps` while `reproduces` holds on the worker's arena, re-runs the
/// minimal reproducer at one step per slot, and files that run as the
/// finding's flight, closed with the authoritative `class`. Returns the
/// reproducer when shrinking ran.
#[allow(clippy::too_many_arguments)]
pub(crate) fn triage<'t, T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    booter: &mut Booter<'t, T>,
    log: &mut WorkerLog,
    steps: &[RawHypercall],
    class: CrashClass,
    how: Triage,
    mut reproduces: impl FnMut(&mut Booter<'t, T>, &mut LocalMetrics, &[RawHypercall]) -> bool,
) -> Option<MinimalRepro> {
    let Triage { min_frames, shrink, budget, flight } = how;
    if !shrink && flight.is_none() {
        return None;
    }
    let local = &mut log.local;
    let shrunk = shrink.then(|| {
        let span = local.start_span();
        let out = shrink_sequence(steps, |cand| reproduces(booter, local, cand), budget);
        local.end_span(Phase::Shrink, span);
        out
    });
    // Shrink evaluations are scaffolding: only the run below is kept.
    let _ = flightrec::drain();
    if let Some(index) = flight {
        begin_flight(index);
    }
    let (kernel, guests) = booter.booted(local);
    let (repro, evidence) = match &shrunk {
        Some(out) => (out.steps.as_slice(), Evidence::Render),
        None => (steps, Evidence::Skip),
    };
    let eval = lockstep(testbed, ctx, kernel, guests, repro, 1, min_frames, evidence);
    if let Some(index) = flight {
        log.end_flight(index, class);
    }
    shrunk.map(|out| MinimalRepro {
        steps: out.steps,
        verdict: eval.verdict,
        evals: out.evals,
        removed_steps: out.removed_steps,
        shrunk_args: out.shrunk_args,
    })
}

/// The sequence and fuzz campaigns' authoritative re-verdict: the steps
/// re-run on the arena at one step per slot — exact step attribution,
/// and immune to several calls legitimately sharing one slot budget.
pub(crate) fn refine<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    booter: &mut Booter<'_, T>,
    local: &mut LocalMetrics,
    steps: &[RawHypercall],
) -> SequenceEval {
    let (kernel, guests) = booter.booted(local);
    let span = local.start_span();
    let eval = run_one_sequence(testbed, ctx, kernel, guests, steps, 1);
    local.end_span(Phase::Frames, span);
    eval
}

/// The sequence and fuzz campaigns' shrink predicate: a candidate
/// reproduces iff an arena run at one step per slot gives it the
/// `target` classification.
pub(crate) fn same_class<'a, 't, T: Testbed + ?Sized>(
    testbed: &'a T,
    ctx: &'a OracleContext,
    target: Classification,
) -> impl FnMut(&mut Booter<'t, T>, &mut LocalMetrics, &[RawHypercall]) -> bool + 'a {
    move |booter, local, cand| {
        let (kernel, guests) = booter.booted(local);
        let eval = lockstep(testbed, ctx, kernel, guests, cand, 1, 0, Evidence::Skip);
        eval.verdict.classification == target
    }
}

/// Confirms a first-pass divergence for the sequence and fuzz campaigns:
/// the authoritative [`refine`] run, then — when the divergence holds —
/// [`triage`] against its classification. Returns the refined run (even
/// when it downgrades to Pass) and the minimal reproducer.
pub(crate) fn confirm<'t, T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    booter: &mut Booter<'t, T>,
    log: &mut WorkerLog,
    steps: &[RawHypercall],
    how: Triage,
) -> (SequenceEval, Option<MinimalRepro>) {
    let refined = refine(testbed, ctx, booter, &mut log.local, steps);
    let target = refined.verdict.classification;
    if target.class == CrashClass::Pass {
        return (refined, None);
    }
    let reproduces = same_class(testbed, ctx, target);
    let minimal = triage(testbed, ctx, booter, log, steps, target.class, how, reproduces);
    (refined, minimal)
}

/// One generated, executed and judged sequence.
#[derive(Debug, Clone)]
pub struct SequenceRecord {
    /// What was generated.
    pub spec: SequenceSpec,
    /// The authoritative verdict (from the one-step-per-slot evaluation
    /// when the first pass diverged).
    pub verdict: SequenceVerdict,
    /// Steps executed in the authoritative evaluation.
    pub steps_executed: usize,
    /// Expected/observed per executed step.
    pub outcomes: Vec<StepOutcome>,
    /// Present when the sequence diverged and shrinking was enabled.
    pub minimal: Option<MinimalRepro>,
}

impl SequenceRecord {
    /// True when the kernel diverged from the reference state machine.
    pub fn is_divergence(&self) -> bool {
        self.verdict.classification.class != CrashClass::Pass
    }
}

/// A completed sequence campaign.
#[derive(Debug, Clone)]
pub struct SequenceCampaignResult {
    /// Which build was tested.
    pub build: KernelBuild,
    /// Steps per generated sequence.
    pub steps_per_sequence: usize,
    /// All records, in campaign order.
    pub records: Vec<SequenceRecord>,
    /// Run metrics; not part of the deterministic result surface.
    pub metrics: MetricsReport,
    /// Per-sequence flights (minimal-reproducer runs for failures),
    /// present when recording. Not part of the deterministic surface.
    pub flight: Option<FlightLog>,
}

impl SequenceCampaignResult {
    /// The diverging records, in campaign order.
    pub fn divergences(&self) -> Vec<&SequenceRecord> {
        self.records.iter().filter(|r| r.is_divergence()).collect()
    }
}

/// Records the `TestBegin` event that opens the flight filed under
/// campaign index `index`.
fn begin_flight(index: usize) {
    flightrec::record(
        0,
        flightrec::EventKind::TestBegin,
        flightrec::NO_PARTITION,
        index as u32,
        0,
        0,
    );
}

/// Evaluates one spec end-to-end on a worker: main evaluation, then
/// [`confirm`] on divergence. Recording state (when enabled) is managed
/// so only the per-spec window survives: the whole main evaluation for
/// passing sequences, the refined run for sequences it clears, the
/// triage run for diverging ones.
fn evaluate_spec<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    opts: &SequenceOptions,
    booter: &mut Booter<'_, T>,
    log: &mut WorkerLog,
    spec: &SequenceSpec,
) -> SequenceRecord {
    let local = &mut log.local;
    if opts.record {
        begin_flight(spec.index);
    }
    let (kernel, guests) = booter.booted(local);
    let span = local.start_span();
    // Only a passing main verdict is kept: no evidence to render.
    let main =
        lockstep(testbed, ctx, kernel, guests, &spec.steps, opts.steps_per_slot, 0, Evidence::Skip);
    local.end_span(Phase::Frames, span);
    let record = |eval: SequenceEval, minimal| SequenceRecord {
        spec: spec.clone(),
        verdict: eval.verdict,
        steps_executed: eval.steps_executed,
        outcomes: eval.outcomes,
        minimal,
    };
    if main.verdict.classification.class == CrashClass::Pass {
        if opts.record {
            log.end_flight(spec.index, CrashClass::Pass);
        }
        return record(main, None);
    }
    if opts.record {
        // The coarse first pass is not the triage artefact; discard it.
        let _ = flightrec::drain();
        begin_flight(spec.index);
    }

    let how = Triage {
        min_frames: 0,
        shrink: opts.shrink,
        budget: opts.shrink_budget,
        flight: opts.record.then_some(spec.index),
    };
    let (refined, minimal) = confirm(testbed, ctx, booter, log, &spec.steps, how);
    if opts.record && refined.verdict.classification.class == CrashClass::Pass {
        // Cleared by the refined run: that run is the sequence's flight.
        log.end_flight(spec.index, CrashClass::Pass);
    }
    record(refined, minimal)
}

/// Executes a whole sequence campaign, in parallel, preserving campaign
/// order in the result. Runs on [`par_indexed`] like
/// [`crate::exec::run_campaign`]: one prefix snapshot + persistent
/// workspace per worker, per-worker metrics, lock-free hot path.
pub fn run_sequence_campaign<T: Testbed + ?Sized>(
    testbed: &T,
    specs: &[SequenceSpec],
    opts: &SequenceOptions,
) -> SequenceCampaignResult {
    let started = Instant::now();
    let ctx = testbed.oracle_context(opts.build);
    let mut logs: Vec<WorkerLog> = (0..resolve_threads(opts.threads, specs.len()))
        .map(|_| WorkerLog::new(opts.record))
        .collect();
    let steals = AtomicU64::new(0);
    let records = par_indexed(
        specs.len(),
        &mut logs,
        &steals,
        |log| {
            if opts.record {
                flightrec::enable(DEFAULT_RING_CAPACITY);
            }
            let booter = Booter::new(testbed, opts.build, &mut log.local);
            if opts.record {
                // The per-worker snapshot boot belongs to no sequence.
                let _ = flightrec::drain();
            }
            booter
        },
        |log, booter, i| {
            let rec = evaluate_spec(testbed, &ctx, opts, booter, log, &specs[i]);
            log.local.note_outcome(rec.verdict.classification.class);
            rec
        },
    );

    let (report, flight) = fold_logs(logs, steals.into_inner(), opts.record, started);
    SequenceCampaignResult {
        build: opts.build,
        steps_per_sequence: specs.first().map(|s| s.steps.len()).unwrap_or(0),
        records,
        metrics: report,
        flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(id: HypercallId, args: &[u64]) -> RawHypercall {
        RawHypercall::new_unchecked(id, args)
    }

    fn test_ctx() -> OracleContext {
        OracleContext {
            build: KernelBuild::Legacy,
            caller: 0,
            caller_is_system: true,
            partition_count: 3,
            partition_names: vec!["P0".into(), "P1".into(), "P2".into()],
            channels: vec![],
            plan_ids: vec![0, 1],
            caller_mem: vec![(0x4000_0000, 0x1_0000)],
            min_timer_interval: 50,
            ports: vec![],
            known_strings: vec![],
            hm_entries_at_first: 1,
            trace_entries_at_first: 0,
            io_port_count: 4,
        }
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First output of Vigna's splitmix64 for seed 0.
        let mut rng = SeqRng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        // Same seed => same stream; different seed => different stream.
        let a: Vec<u64> = (0..8).map(|_| SeqRng::new(42).state).collect();
        let mut r1 = SeqRng::new(42);
        let mut r2 = SeqRng::new(42);
        let s1: Vec<u64> = (0..8).map(|_| r1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| r2.next_u64()).collect();
        assert_eq!(s1, s2);
        let mut r3 = SeqRng::new(43);
        let s3: Vec<u64> = (0..8).map(|_| r3.next_u64()).collect();
        assert_ne!(s1, s3);
        drop(a);
    }

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let alphabet = vec![
            AlphabetEntry { call: call(HypercallId::GetTime, &[0, 0x4000_0000]), weight: 3 },
            AlphabetEntry { call: call(HypercallId::HmStatus, &[0x4000_0000]), weight: 1 },
            AlphabetEntry { call: call(HypercallId::SetTimer, &[0, 1, 1]), weight: 0 },
        ];
        let a = generate_sequences(&alphabet, 7, 5, 8);
        let b = generate_sequences(&alphabet, 7, 5, 8);
        assert_eq!(a, b, "same seed must generate identical sequences");
        let longer = generate_sequences(&alphabet, 7, 10, 8);
        assert_eq!(&longer[..5], &a[..], "growing --count must not change the prefix");
        assert!(a.iter().all(|s| s.steps.len() == 8));
        // The zero-weight entry is never drawn.
        assert!(longer.iter().flat_map(|s| &s.steps).all(|hc| hc.id != HypercallId::SetTimer));
        // Both positive-weight entries appear somewhere in 80 draws.
        assert!(longer.iter().flat_map(|s| &s.steps).any(|hc| hc.id == HypercallId::GetTime));
        assert!(longer.iter().flat_map(|s| &s.steps).any(|hc| hc.id == HypercallId::HmStatus));
        let other_seed = generate_sequences(&alphabet, 8, 5, 8);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn judge_step_mirrors_classify_pairwise_rules() {
        let ok = Expectation::ok();
        assert_eq!(judge_step(&ok, &Invocation::Returned(0)), None);
        // Expected an error, got success => Silent.
        let err = Expectation::err(XmRet::InvalidParam, 0);
        assert_eq!(judge_step(&err, &Invocation::Returned(0)).unwrap().class, CrashClass::Silent);
        // Wrong error code => Hindering.
        assert_eq!(
            judge_step(&err, &Invocation::Returned(XmRet::PermError.code())).unwrap().class,
            CrashClass::Hindering
        );
        // Expected success, got an error code => Hindering.
        assert_eq!(
            judge_step(&ok, &Invocation::Returned(-3)).unwrap().class,
            CrashClass::Hindering
        );
        // Matching no-return pairs pass.
        let reset = Expectation::no_return(NoReturnExpect::CallerReset);
        assert_eq!(judge_step(&reset, &Invocation::NoReturn(NoReturnKind::CallerReset)), None);
        let cold = Expectation::no_return(NoReturnExpect::SystemColdReset);
        assert_eq!(judge_step(&cold, &Invocation::NoReturn(NoReturnKind::SystemColdReset)), None);
        // Unexpected halt => Abort, unexpected suspension => Restart.
        assert_eq!(
            judge_step(&ok, &Invocation::NoReturn(NoReturnKind::CallerHalted)).unwrap().class,
            CrashClass::Abort
        );
        assert_eq!(
            judge_step(&ok, &Invocation::NoReturn(NoReturnKind::CallerSuspended)).unwrap().class,
            CrashClass::Restart
        );
        // Returned although a no-return was documented => Hindering.
        assert_eq!(
            judge_step(&reset, &Invocation::Returned(0)).unwrap().class,
            CrashClass::Hindering
        );
    }

    #[test]
    fn state_model_tracks_partition_lifecycle() {
        let ctx = test_ctx();
        let mut m = StateModel::new(&ctx);
        let suspend = call(HypercallId::SuspendPartition, &[1]);
        let resume = call(HypercallId::ResumePartition, &[1]);

        // Resume before suspend: stateful NoAction (the base oracle's
        // first-invocation answer happens to agree here).
        let e = m.expect_step(&resume);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::NoAction));

        let e = m.expect_step(&suspend);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&suspend, &e);
        // Second suspend is now a NoAction; resume succeeds.
        assert_eq!(m.expect_step(&suspend).outcome, ExpectedOutcome::Ret(XmRet::NoAction));
        let e = m.expect_step(&resume);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&resume, &e);
        assert_eq!(m.expect_step(&resume).outcome, ExpectedOutcome::Ret(XmRet::NoAction));

        // Halt partition 1, then every control call reports the mode.
        let halt = call(HypercallId::HaltPartition, &[1]);
        let e = m.expect_step(&halt);
        m.apply_step(&halt, &e);
        assert_eq!(m.expect_step(&halt).outcome, ExpectedOutcome::Ret(XmRet::NoAction));
        assert_eq!(m.expect_step(&suspend).outcome, ExpectedOutcome::Ret(XmRet::InvalidMode));
        assert_eq!(m.expect_step(&resume).outcome, ExpectedOutcome::Ret(XmRet::InvalidMode));
        // Reset revives it.
        let reset = call(HypercallId::ResetPartition, &[1, 0, 0]);
        let e = m.expect_step(&reset);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&reset, &e);
        assert_eq!(m.digest().partition_status[1], PartitionStatus::Ready);
        assert_eq!(m.digest().reset_counts[1], 1);
    }

    #[test]
    fn state_model_tracks_hm_cursor_and_system_reset() {
        let ctx = test_ctx();
        let mut m = StateModel::new(&ctx);
        assert_eq!(m.digest().hm_entries, 1);

        // Raise grows the log; a 4-entry read clamps to what is there.
        let raise = call(HypercallId::HmRaiseEvent, &[0xAB]);
        let e = m.expect_step(&raise);
        m.apply_step(&raise, &e);
        let read = call(HypercallId::HmRead, &[0x4000_0000, 4]);
        let e = m.expect_step(&read);
        assert_eq!(e.outcome, ExpectedOutcome::RetValue(2));
        m.apply_step(&read, &e);
        // Cursor at end: further reads return 0, seek-to-start rewinds.
        assert_eq!(m.expect_step(&read).outcome, ExpectedOutcome::RetValue(0));
        let rewind = call(HypercallId::HmSeek, &[0, 0]);
        let e = m.expect_step(&rewind);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&rewind, &e);
        assert_eq!(m.expect_step(&read).outcome, ExpectedOutcome::RetValue(2));
        // Relative seek past the end is rejected against the *live* length.
        let over = call(HypercallId::HmSeek, &[3, 1]);
        assert_eq!(over.arg_s32(0), 3);
        assert_eq!(m.expect_step(&over).outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));

        // A documented cold reset re-initialises everything and the
        // prologue re-run is accounted at the caller's next slot.
        let cold = call(HypercallId::ResetSystem, &[0]);
        let e = m.expect_step(&cold);
        assert_eq!(e.outcome, ExpectedOutcome::NoReturn(NoReturnExpect::SystemColdReset));
        m.apply_step(&cold, &e);
        let d = m.digest();
        assert_eq!(d.cold_resets, 1);
        assert_eq!(d.caller_ports, 0);
        assert_eq!(d.current_plan, 0);
        assert!(d.reset_counts.iter().all(|&c| c == 1));
        m.begin_caller_slot();
        assert_eq!(m.digest().hm_entries, 3, "prologue re-run raises one HM event");
    }

    /// A classify-only lockstep run judges exactly like a rendering one —
    /// same classification, attribution, outcomes and frame digests — on
    /// both builds and both slot packings, diverging sequences included;
    /// it only leaves the evidence out. Seeded sequences over every
    /// small-scope configuration's probe steps plus a few calls that reach
    /// the remaining verdict kinds (simulator crash, HM containment,
    /// caller suspension and resets).
    #[test]
    fn classify_only_runs_judge_like_rendering_runs() {
        use crate::check::{enumerate_configs, probes_for, CheckScope, CheckTestbed};
        let mut diverged = 0usize;
        let mut runs = 0usize;
        for build in [KernelBuild::Legacy, KernelBuild::Patched] {
            for (i, cfg) in enumerate_configs(&CheckScope::default()).into_iter().enumerate() {
                let tb = CheckTestbed::new(cfg.clone());
                let ctx = tb.oracle_context(build);
                let alphabet: Vec<AlphabetEntry> = probes_for(&cfg)
                    .iter()
                    .flat_map(|p| &p.steps)
                    .copied()
                    .chain([
                        call(HypercallId::SetTimer, &[1, 1, 1]),
                        call(HypercallId::Multicall, &[0x2000_0000, 0x2000_0040]),
                        call(HypercallId::SuspendPartition, &[0]),
                        call(HypercallId::HaltPartition, &[1]),
                        call(HypercallId::ResetPartition, &[0, 0, 0]),
                        call(HypercallId::ResetSystem, &[0]),
                    ])
                    .map(|call| AlphabetEntry { call, weight: 1 })
                    .collect();
                for spec in generate_sequences(&alphabet, 0x5EED + i as u64, 3, 6) {
                    for steps_per_slot in [1, 4] {
                        let run = |evidence| {
                            let (mut k, mut g) = tb.boot(build);
                            lockstep(
                                &tb,
                                &ctx,
                                &mut k,
                                &mut g,
                                &spec.steps,
                                steps_per_slot,
                                0,
                                evidence,
                            )
                        };
                        let (full, bare) = (run(Evidence::Render), run(Evidence::Skip));
                        let label =
                            format!("{} seq {} x{steps_per_slot}", cfg.describe(), spec.index);
                        assert_eq!(
                            bare.verdict.classification, full.verdict.classification,
                            "{label}"
                        );
                        assert_eq!(bare.verdict.failing_step, full.verdict.failing_step, "{label}");
                        assert_eq!(bare.steps_executed, full.steps_executed, "{label}");
                        assert_eq!(bare.outcomes, full.outcomes, "{label}");
                        assert_eq!(bare.frame_digests, full.frame_digests, "{label}");
                        // Evidence exactly when a rendering run diverges.
                        let diverges = full.verdict.classification.class != CrashClass::Pass;
                        assert_eq!(full.verdict.state_diff.is_empty(), !diverges, "{label}");
                        assert!(bare.verdict.state_diff.is_empty(), "{label}: rendered evidence");
                        diverged += diverges as usize;
                        runs += 1;
                    }
                }
            }
        }
        assert!(diverged > 20 && diverged < runs, "{diverged} of {runs} runs diverged");
    }

    #[test]
    fn sequence_options_defaults() {
        let o = SequenceOptions::default();
        assert_eq!(o.build, KernelBuild::Legacy);
        assert_eq!(o.threads, 0);
        assert_eq!(o.steps_per_slot, 4);
        assert!(!o.record);
        assert!(o.shrink);
        assert_eq!(o.shrink_budget, 160);
    }
}

//! Small-scope exhaustive isolation checking (the "small scope
//! hypothesis": most isolation defects already manifest in configurations
//! with very few partitions, slots and steps).
//!
//! Where the fuzzer samples the sequence space, the checker *enumerates*
//! it: every cyclic-plan layout of up to `scope.partitions` partitions
//! and `scope.slots` slots per major frame, crossed with every channel
//! topology the scope admits, each driven through a fixed probe set for
//! `scope.horizon` major frames with the kernel and the reference
//! [`StateModel`](crate::sequence::StateModel) in lockstep.
//!
//! On top of the differential oracle the checker asserts the paper's two
//! isolation properties directly against the kernel's flight-recorder
//! stream and architectural state — *independently* of the oracle:
//!
//! - **Temporal isolation**: every slot opens exactly on its plan offset
//!   with its configured owner and duration, closes inside its window,
//!   and no hypercall executes outside an open slot of its partition;
//!   virtual-timer expiries are delivered to the partition that armed
//!   the timer.
//! - **Spatial isolation**: victim partition memory is bit-identical
//!   before and after every run, victims own no ports, and health-monitor
//!   events are attributed to the caller (or to the kernel) only.
//!
//! Any oracle divergence or invariant violation becomes a first-class
//! finding: re-verdicted on a fresh boot (ruling out arena-rewind
//! artefacts), ddmin-shrunk to a minimal reproducer, and surfaced through
//! the same forensics path as fuzzer findings.

use crate::classify::{Cause, Classification, CrashClass};
use crate::exec::{fold_logs, par_indexed, resolve_threads, Booter, WorkerLog};
use crate::flight::{FlightLog, DEFAULT_RING_CAPACITY};
use crate::metrics::MetricsReport;
use crate::oracle::{ChannelView, OracleContext};
use crate::sequence::{
    lockstep, run_one_sequence_bounded, Evidence, MinimalRepro, SequenceVerdict,
};
use crate::shrink::shrink_sequence;
use crate::testbed::Testbed;
use flightrec::{Event, EventKind, NO_PARTITION};
use leon3_sim::addrspace::{AccessCtx, Perms};
use std::sync::atomic::AtomicU64;
use std::time::Instant;
use xtratum::config::{ChannelCfg, MemAreaCfg, PartitionCfg, PlanCfg, PortKind, SlotCfg, XmConfig};
use xtratum::guest::{GuestSet, PartitionApi};
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

/// The checker's caller partition (always partition 0, always system —
/// mirroring FDIR's role on EagleEye).
pub const CALLER: u32 = 0;

/// Per-partition memory window size.
pub const PART_SIZE: u32 = 0x1_0000;

/// Every enumerated slot has the same duration: long enough for a probe
/// step plus the prologue, short enough that the 2048-entry multicall
/// batch overruns it by almost two orders of magnitude.
pub const SLOT_US: u64 = 1_000;

/// Trailing idle gap in every major frame, so the checker also exercises
/// the scheduler's empty-window handling.
pub const GAP_US: u64 = 500;

const NAME_SAMPLING_OFF: u32 = 0x7000;
const NAME_QUEUING_OFF: u32 = 0x7010;
const NAME_BOGUS_OFF: u32 = 0x7020;
const TIME_PTR_OFF: u32 = 0x8000;
const MULTICALL_OFF: u32 = 0x2000;
const MULTICALL_ENTRIES: u32 = 2048;
const CHANNEL_MSG_SIZE: u32 = 16;
const CHANNEL_MAX_MSGS: u32 = 4;

/// Base address of partition `p`'s memory window.
pub fn part_base(p: u32) -> u32 {
    0x4010_0000 + p * PART_SIZE
}

// ---------------------------------------------------------------------------
// Scope and configuration enumeration
// ---------------------------------------------------------------------------

/// Bounds of the exhaustively enumerated configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckScope {
    /// Maximum partition count (1..=partitions all enumerated).
    pub partitions: u32,
    /// Maximum slots per major frame (1..=slots all enumerated).
    pub slots: u32,
    /// Major frames every run is observed for (the temporal horizon).
    pub horizon: u32,
}

impl Default for CheckScope {
    fn default() -> Self {
        CheckScope { partitions: 3, slots: 2, horizon: 6 }
    }
}

/// Channel topology of one enumerated configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelTopology {
    /// No channels: pure scheduling isolation.
    Isolated,
    /// One sampling channel, caller → partition 1.
    Sampling,
    /// The sampling channel plus one queuing channel, partition 1 → caller.
    SamplingQueuing,
}

impl ChannelTopology {
    fn label(self) -> &'static str {
        match self {
            ChannelTopology::Isolated => "isolated",
            ChannelTopology::Sampling => "sampling",
            ChannelTopology::SamplingQueuing => "sampling+queuing",
        }
    }
}

/// One enumerated small-scope configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Position in the enumeration order (deterministic).
    pub index: usize,
    /// Partitions 0..n; partition 0 is the (system) caller.
    pub n_partitions: u32,
    /// Cyclic-plan slot owners, in slot order.
    pub slot_owners: Vec<u32>,
    /// Channel topology.
    pub channels: ChannelTopology,
}

impl CheckConfig {
    /// Major frame length implied by the slot layout.
    pub fn major_frame_us(&self) -> u64 {
        self.slot_owners.len() as u64 * SLOT_US + GAP_US
    }

    /// True when the caller owns at least one slot (probe steps can run).
    pub fn caller_scheduled(&self) -> bool {
        self.slot_owners.contains(&CALLER)
    }

    /// Compact human-readable summary.
    pub fn describe(&self) -> String {
        let owners: Vec<String> = self.slot_owners.iter().map(|o| o.to_string()).collect();
        format!("p{} slots[{}] {}", self.n_partitions, owners.join(","), self.channels.label())
    }
}

/// Enumerates every configuration in `scope`, in a fixed deterministic
/// order: partition count ascending, slot-layout length ascending, slot
/// owners as a mixed-radix counter, channel topology last. Channel
/// topologies beyond [`ChannelTopology::Isolated`] need a second
/// partition to anchor the channel's far end.
pub fn enumerate_configs(scope: &CheckScope) -> Vec<CheckConfig> {
    let mut out = Vec::new();
    for n in 1..=scope.partitions.max(1) {
        for len in 1..=scope.slots.max(1) as usize {
            let layouts = n.pow(len as u32) as u64;
            for code in 0..layouts {
                let mut owners = Vec::with_capacity(len);
                let mut c = code;
                for _ in 0..len {
                    owners.push((c % n as u64) as u32);
                    c /= n as u64;
                }
                let topologies: &[ChannelTopology] = if n >= 2 {
                    &[
                        ChannelTopology::Isolated,
                        ChannelTopology::Sampling,
                        ChannelTopology::SamplingQueuing,
                    ]
                } else {
                    &[ChannelTopology::Isolated]
                };
                for &topo in topologies {
                    out.push(CheckConfig {
                        index: out.len(),
                        n_partitions: n,
                        slot_owners: owners.clone(),
                        channels: topo,
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The enumerated testbed
// ---------------------------------------------------------------------------

/// Writes the port-name strings the create-port probes dereference. Runs
/// on every caller (re)boot; raises no HM event and creates no port, so
/// the oracle's first-invocation state is the boot state.
fn check_prologue(api: &mut PartitionApi<'_>) {
    let base = part_base(CALLER);
    let _ = api.write_bytes(base + NAME_SAMPLING_OFF, b"CKS\0");
    let _ = api.write_bytes(base + NAME_QUEUING_OFF, b"CKQ\0");
    let _ = api.write_bytes(base + NAME_BOGUS_OFF, b"NOPE\0");
}

/// A [`Testbed`] over one enumerated [`CheckConfig`]: idle victim guests,
/// the caller as the sole system partition, one cyclic plan.
#[derive(Debug, Clone)]
pub struct CheckTestbed {
    cfg: CheckConfig,
}

impl CheckTestbed {
    pub fn new(cfg: CheckConfig) -> Self {
        CheckTestbed { cfg }
    }

    /// The enumerated configuration.
    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    /// The static XM configuration this testbed boots.
    pub fn xm_config(&self) -> XmConfig {
        let n = self.cfg.n_partitions;
        let partitions = (0..n)
            .map(|id| PartitionCfg {
                id,
                name: format!("P{id}"),
                system: id == CALLER,
                mem: vec![MemAreaCfg { base: part_base(id), size: PART_SIZE, perms: Perms::RWX }],
            })
            .collect();
        let slots = self
            .cfg
            .slot_owners
            .iter()
            .enumerate()
            .map(|(i, &owner)| SlotCfg {
                partition: owner,
                start_us: i as u64 * SLOT_US,
                duration_us: SLOT_US,
            })
            .collect();
        let mut channels = Vec::new();
        if self.cfg.channels >= ChannelTopology::Sampling {
            channels.push(ChannelCfg {
                name: "CKS".into(),
                kind: PortKind::Sampling,
                max_msg_size: CHANNEL_MSG_SIZE,
                max_msgs: 0,
                source: CALLER,
                destinations: vec![1],
            });
        }
        if self.cfg.channels == ChannelTopology::SamplingQueuing {
            channels.push(ChannelCfg {
                name: "CKQ".into(),
                kind: PortKind::Queuing,
                max_msg_size: CHANNEL_MSG_SIZE,
                max_msgs: CHANNEL_MAX_MSGS,
                source: 1,
                destinations: vec![CALLER],
            });
        }
        XmConfig {
            partitions,
            plans: vec![PlanCfg { id: 0, major_frame_us: self.cfg.major_frame_us(), slots }],
            channels,
            hm_table: XmConfig::default_hm_table(),
            tuning: Default::default(),
        }
    }
}

impl Testbed for CheckTestbed {
    fn boot(&self, build: KernelBuild) -> (XmKernel, GuestSet) {
        let kernel = XmKernel::boot(self.xm_config(), build)
            .expect("enumerated small-scope configurations are statically valid");
        (kernel, GuestSet::idle(self.cfg.n_partitions as usize))
    }

    fn test_partition(&self) -> u32 {
        CALLER
    }

    fn prologue(&self) -> fn(&mut PartitionApi<'_>) {
        check_prologue
    }

    fn oracle_context(&self, build: KernelBuild) -> OracleContext {
        let cfg = self.xm_config();
        let base = part_base(CALLER);
        OracleContext {
            build,
            caller: CALLER,
            caller_is_system: true,
            partition_count: cfg.partitions.len() as u32,
            partition_names: cfg.partitions.iter().map(|p| p.name.clone()).collect(),
            channels: cfg
                .channels
                .iter()
                .map(|c| ChannelView {
                    name: c.name.clone(),
                    kind: c.kind,
                    max_msg_size: c.max_msg_size,
                    max_msgs: c.max_msgs,
                    caller_is_source: c.source == CALLER,
                    caller_is_dest: c.destinations.contains(&CALLER),
                })
                .collect(),
            plan_ids: vec![0],
            caller_mem: vec![(base, PART_SIZE)],
            min_timer_interval: cfg.tuning.min_timer_interval_us,
            ports: vec![],
            known_strings: vec![
                (base + NAME_SAMPLING_OFF, "CKS".into()),
                (base + NAME_QUEUING_OFF, "CKQ".into()),
                (base + NAME_BOGUS_OFF, "NOPE".into()),
            ],
            hm_entries_at_first: 0,
            trace_entries_at_first: 0,
            io_port_count: 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// One named step list driven through a configuration.
#[derive(Debug, Clone)]
pub struct CheckProbe {
    /// Stable probe name (part of the deterministic result surface).
    pub name: &'static str,
    /// The steps, one per caller slot.
    pub steps: Vec<RawHypercall>,
}

/// The probe set for one configuration. The empty `baseline` probe (pure
/// cyclic scheduling for the whole horizon) always runs; step-carrying
/// probes need the caller in the plan, and the channel probes need their
/// channel configured. Payload steps are wrapped in benign `XM_get_time`
/// calls so the shrinker has scaffolding to strip.
pub fn probes_for(cfg: &CheckConfig) -> Vec<CheckProbe> {
    let mut v = vec![CheckProbe { name: "baseline", steps: vec![] }];
    if !cfg.caller_scheduled() {
        return v;
    }
    let base = part_base(CALLER) as u64;
    let gt = || RawHypercall::new_unchecked(HypercallId::GetTime, [0, base + TIME_PTR_OFF as u64]);
    let wrap =
        |name: &'static str, call: RawHypercall| CheckProbe { name, steps: vec![gt(), call, gt()] };
    v.push(CheckProbe { name: "get_time", steps: vec![gt()] });
    v.push(wrap(
        "set_timer_periodic",
        RawHypercall::new_unchecked(HypercallId::SetTimer, [0, 500, 500]),
    ));
    v.push(wrap("set_timer_tiny", RawHypercall::new_unchecked(HypercallId::SetTimer, [0, 1, 1])));
    v.push(wrap(
        "set_timer_negative",
        RawHypercall::new_unchecked(HypercallId::SetTimer, [0, 1, (-50i64) as u64]),
    ));
    let mc_start = base + MULTICALL_OFF as u64;
    let mc_end = mc_start + MULTICALL_ENTRIES as u64 * 8;
    v.push(wrap(
        "multicall_batch",
        RawHypercall::new_unchecked(HypercallId::Multicall, [mc_start, mc_end]),
    ));
    v.push(wrap("reset_invalid_mode", RawHypercall::new_unchecked(HypercallId::ResetSystem, [2])));
    v.push(wrap(
        "reset_huge_mode",
        RawHypercall::new_unchecked(HypercallId::ResetSystem, [0xFFFF_FFFF]),
    ));
    v.push(wrap(
        "create_bogus_port",
        RawHypercall::new_unchecked(
            HypercallId::CreateSamplingPort,
            [base + NAME_BOGUS_OFF as u64, CHANNEL_MSG_SIZE as u64, 0],
        ),
    ));
    if cfg.n_partitions >= 2 {
        v.push(wrap(
            "memory_copy_cross",
            RawHypercall::new_unchecked(HypercallId::MemoryCopy, [part_base(1) as u64, base, 16]),
        ));
    }
    if cfg.channels >= ChannelTopology::Sampling {
        v.push(wrap(
            "create_sampling_port",
            RawHypercall::new_unchecked(
                HypercallId::CreateSamplingPort,
                [base + NAME_SAMPLING_OFF as u64, CHANNEL_MSG_SIZE as u64, 0],
            ),
        ));
    }
    if cfg.channels == ChannelTopology::SamplingQueuing {
        v.push(wrap(
            "create_queuing_port",
            RawHypercall::new_unchecked(
                HypercallId::CreateQueuingPort,
                [
                    base + NAME_QUEUING_OFF as u64,
                    CHANNEL_MAX_MSGS as u64,
                    CHANNEL_MSG_SIZE as u64,
                    1,
                ],
            ),
        ));
    }
    v
}

// ---------------------------------------------------------------------------
// Isolation invariants
// ---------------------------------------------------------------------------

/// The isolation property an observed violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InvariantKind {
    /// A slot opened off its plan offset, with the wrong owner, or with
    /// the wrong duration (temporal).
    SlotOutsidePlan,
    /// A slot closed past the end of its window (temporal).
    SlotOverrun,
    /// A hypercall executed outside an open slot of its partition
    /// (temporal).
    ForeignExecution,
    /// A virtual-timer expiry was delivered to a partition that never
    /// armed a timer (temporal).
    MisattributedTimer,
    /// A victim partition's memory changed across the run (spatial).
    VictimMemoryMutated,
    /// A victim partition owns ports (spatial).
    ForeignPort,
    /// A health-monitor event was attributed to a non-caller partition
    /// (spatial).
    MisattributedHm,
}

impl InvariantKind {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            InvariantKind::SlotOutsidePlan => "slot-outside-plan",
            InvariantKind::SlotOverrun => "slot-overrun",
            InvariantKind::ForeignExecution => "foreign-execution",
            InvariantKind::MisattributedTimer => "misattributed-timer",
            InvariantKind::VictimMemoryMutated => "victim-memory-mutated",
            InvariantKind::ForeignPort => "foreign-port",
            InvariantKind::MisattributedHm => "misattributed-hm",
        }
    }
}

/// One observed isolation violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Evidence (event timestamps, addresses, counts).
    pub detail: String,
}

/// Host-side spatial witness captured around one run: victim memory
/// images (partitions 1..n, in order). The authoritative witness for
/// fresh boots, and the reference [`victim_changes_since`] must match.
fn victim_memory(kernel: &XmKernel, cfg: &CheckConfig) -> Vec<Vec<u8>> {
    (1..cfg.n_partitions)
        .map(|p| {
            kernel
                .machine
                .mem
                .read_bytes(AccessCtx::Kernel, part_base(p), PART_SIZE)
                .expect("configured partition memory is kernel-readable")
        })
        .collect()
}

/// Where victim partition `partition`'s memory changed across a run:
/// the lowest changed address and the number of changed bytes.
struct MemoryChange {
    partition: u32,
    first: usize,
    changed: usize,
}

/// The victim memory changes of a run on an arena pair rewound to
/// `snapshot`: the run started from the snapshot's memory and every store
/// marks its page dirty, so comparing the victim pages dirtied since the
/// rewind against the snapshot finds exactly what the before/after
/// [`victim_memory`] images would, without copying 64 KiB per victim.
fn victim_changes_since<'a>(
    kernel: &'a XmKernel,
    snapshot: &'a XmKernel,
    cfg: &CheckConfig,
) -> impl Iterator<Item = MemoryChange> + 'a {
    (1..cfg.n_partitions).filter_map(|p| {
        let diff = kernel
            .machine
            .mem
            .diff_dirty(&snapshot.machine.mem, part_base(p), PART_SIZE)
            .expect("configured partition memory is kernel-readable")?;
        Some(MemoryChange { partition: p, first: diff.first as usize, changed: diff.changed })
    })
}

/// Victim port counts (partitions 1..n, in order).
fn victim_ports(kernel: &XmKernel, cfg: &CheckConfig) -> Vec<usize> {
    (1..cfg.n_partitions).map(|p| kernel.port_count(p)).collect()
}

/// Checks every isolation invariant for one run: the temporal ones
/// against the drained flight-recorder stream, the spatial ones against
/// the host-side before/after witnesses. Violations are reported in
/// stream order (temporal) then partition order (spatial).
pub fn check_invariants(
    cfg: &CheckConfig,
    events: &[Event],
    mem_before: &[Vec<u8>],
    mem_after: &[Vec<u8>],
    ports_after: &[usize],
) -> Vec<InvariantViolation> {
    let changes = mem_before.iter().zip(mem_after).enumerate().filter(|(_, (b, a))| b != a).map(
        |(i, (before, after))| MemoryChange {
            partition: i as u32 + 1,
            first: part_base(i as u32 + 1) as usize
                + before.iter().zip(after).position(|(a, b)| a != b).unwrap_or(0),
            changed: before.iter().zip(after).filter(|(a, b)| a != b).count(),
        },
    );
    invariants(cfg, events, changes, ports_after)
}

/// [`check_invariants`] over victim memory changes however witnessed.
fn invariants(
    cfg: &CheckConfig,
    events: &[Event],
    mem_changes: impl IntoIterator<Item = MemoryChange>,
    ports_after: &[usize],
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let maf = cfg.major_frame_us();
    let slots = &cfg.slot_owners;

    // The plan's phase is anchored by the first observed slot: boot cost
    // may shift the whole timeline, but every subsequent slot must land
    // on the same modular grid.
    let mut phase: Option<u64> = None;
    // Currently open slot window: (partition, begin, end).
    let mut open: Option<(u16, u64, u64)> = None;
    // Partitions that issued XM_set_timer (attribution set for expiries).
    let mut armed: Vec<u16> = Vec::new();

    for e in events {
        match e.kind {
            EventKind::SlotBegin => {
                let idx = e.code as usize;
                if idx >= slots.len() {
                    out.push(InvariantViolation {
                        kind: InvariantKind::SlotOutsidePlan,
                        detail: format!("t={}µs: slot index {} beyond plan", e.t_us, e.code),
                    });
                } else {
                    let start = idx as u64 * SLOT_US;
                    let this_phase = (e.t_us + maf - start) % maf;
                    let anchor = *phase.get_or_insert(this_phase);
                    if this_phase != anchor {
                        out.push(InvariantViolation {
                            kind: InvariantKind::SlotOutsidePlan,
                            detail: format!(
                                "t={}µs: slot {} off the plan grid (phase {} vs {})",
                                e.t_us, idx, this_phase, anchor
                            ),
                        });
                    }
                    if e.partition != slots[idx] as u16 {
                        out.push(InvariantViolation {
                            kind: InvariantKind::SlotOutsidePlan,
                            detail: format!(
                                "t={}µs: slot {} opened for partition {} (plan owner {})",
                                e.t_us, idx, e.partition, slots[idx]
                            ),
                        });
                    }
                    if e.a != SLOT_US {
                        out.push(InvariantViolation {
                            kind: InvariantKind::SlotOutsidePlan,
                            detail: format!(
                                "t={}µs: slot {} duration {}µs (plan {}µs)",
                                e.t_us, idx, e.a, SLOT_US
                            ),
                        });
                    }
                }
                open = Some((e.partition, e.t_us, e.t_us + e.a));
            }
            EventKind::SlotEnd => {
                if let Some((p, _, end)) = open.take() {
                    if e.t_us > end {
                        out.push(InvariantViolation {
                            kind: InvariantKind::SlotOverrun,
                            detail: format!(
                                "partition {} held slot {} until {}µs, {}µs past its window",
                                p,
                                e.code,
                                e.t_us,
                                e.t_us - end
                            ),
                        });
                    }
                }
            }
            EventKind::HypercallEnter => {
                let inside = matches!(
                    open,
                    Some((p, begin, end)) if p == e.partition && e.t_us >= begin && e.t_us <= end
                );
                if !inside {
                    out.push(InvariantViolation {
                        kind: InvariantKind::ForeignExecution,
                        detail: format!(
                            "t={}µs: partition {} executed hypercall {} outside its slot window",
                            e.t_us, e.partition, e.code
                        ),
                    });
                }
                if e.code == HypercallId::SetTimer as u32 && !armed.contains(&e.partition) {
                    armed.push(e.partition);
                }
            }
            EventKind::VtimerExpiry if !armed.contains(&e.partition) => {
                out.push(InvariantViolation {
                    kind: InvariantKind::MisattributedTimer,
                    detail: format!(
                        "t={}µs: timer expiry delivered to partition {}, which never armed one",
                        e.t_us, e.partition
                    ),
                });
            }
            EventKind::HmEvent if e.partition != NO_PARTITION && e.partition != CALLER as u16 => {
                out.push(InvariantViolation {
                    kind: InvariantKind::MisattributedHm,
                    detail: format!(
                        "t={}µs: HM event attributed to victim partition {}",
                        e.t_us, e.partition
                    ),
                });
            }
            _ => {}
        }
    }

    for change in mem_changes {
        out.push(InvariantViolation {
            kind: InvariantKind::VictimMemoryMutated,
            detail: format!(
                "partition {} memory changed at {:#x} (+{} more byte(s))",
                change.partition,
                change.first,
                change.changed.saturating_sub(1)
            ),
        });
    }
    for (i, &count) in ports_after.iter().enumerate() {
        if count != 0 {
            out.push(InvariantViolation {
                kind: InvariantKind::ForeignPort,
                detail: format!("victim partition {} owns {} port(s)", i + 1, count),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// What made a case a finding — the shrinker preserves this signature.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FindingSig {
    /// The differential oracle diverged.
    Oracle(Classification),
    /// The oracle agreed but an isolation invariant broke.
    Invariant(Vec<InvariantKind>),
}

fn finding_sig(verdict: &SequenceVerdict, violations: &[InvariantViolation]) -> Option<FindingSig> {
    if verdict.classification.class != CrashClass::Pass {
        return Some(FindingSig::Oracle(verdict.classification));
    }
    if violations.is_empty() {
        return None;
    }
    let mut kinds: Vec<InvariantKind> = violations.iter().map(|v| v.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    Some(FindingSig::Invariant(kinds))
}

/// One enumerated, executed and judged check case.
#[derive(Debug, Clone)]
pub struct CheckCaseRecord {
    /// Global case index (deterministic enumeration order).
    pub index: usize,
    /// The configuration this case ran under.
    pub config: CheckConfig,
    /// Probe name.
    pub probe: &'static str,
    /// The probe's full step list.
    pub steps: Vec<RawHypercall>,
    /// Authoritative verdict (fresh-boot re-run when the case diverged).
    pub verdict: SequenceVerdict,
    /// Steps executed in the authoritative evaluation.
    pub steps_executed: usize,
    /// Isolation violations observed in the authoritative evaluation.
    pub violations: Vec<InvariantViolation>,
    /// Present when the case was a finding and had more than one step.
    pub minimal: Option<MinimalRepro>,
}

impl CheckCaseRecord {
    /// True when the case diverged from the oracle or broke an invariant.
    pub fn is_finding(&self) -> bool {
        self.verdict.classification.class != CrashClass::Pass || !self.violations.is_empty()
    }

    /// CRASH class the finding reports (isolation violations the oracle
    /// missed count as Catastrophic: an undetected isolation breach).
    pub fn crash_class(&self) -> CrashClass {
        if self.verdict.classification.class != CrashClass::Pass {
            self.verdict.classification.class
        } else if self.violations.is_empty() {
            CrashClass::Pass
        } else {
            CrashClass::Catastrophic
        }
    }
}

/// Options for one checker run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Kernel build to check.
    pub build: KernelBuild,
    /// Enumeration bounds.
    pub scope: CheckScope,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Keep minimal-reproducer flights for the forensics bundle. The
    /// recorder itself always runs (the invariants need the stream);
    /// this only controls retention, so the deterministic result
    /// surface is identical either way.
    pub record: bool,
    /// Predicate-evaluation budget per shrink.
    pub shrink_budget: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            build: KernelBuild::Legacy,
            scope: CheckScope::default(),
            threads: 0,
            record: false,
            shrink_budget: 96,
        }
    }
}

/// A completed exhaustive check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Which build was checked.
    pub build: KernelBuild,
    /// The enumeration bounds.
    pub scope: CheckScope,
    /// Configurations enumerated.
    pub configs: usize,
    /// All cases, in enumeration order.
    pub cases: Vec<CheckCaseRecord>,
    /// Run metrics; not part of the deterministic result surface.
    pub metrics: MetricsReport,
    /// Minimal-reproducer flights (findings only), present when
    /// recording. Not part of the deterministic surface.
    pub flight: Option<FlightLog>,
}

impl CheckResult {
    /// The findings, in enumeration order.
    pub fn findings(&self) -> Vec<&CheckCaseRecord> {
        self.cases.iter().filter(|c| c.is_finding()).collect()
    }
}

// ---------------------------------------------------------------------------
// Case lifecycle
// ---------------------------------------------------------------------------

struct CaseRun {
    verdict: SequenceVerdict,
    steps_executed: usize,
    violations: Vec<InvariantViolation>,
}

/// One full evaluation on an already-booted pair: spatial witness,
/// lockstep run over the horizon, drained stream, invariants. The caller
/// drains the recorder *before* booting or rewinding the pair: a rewind
/// replays the prefix's events, which belong to the checked stream.
///
/// `snapshot` is the kernel an arena pair was just rewound to: the
/// spatial witness then diffs the victim pages the run dirtied against
/// it. A fresh boot (`None`) compares before/after byte images, the
/// authoritative path; debug builds also run it on arena pairs and
/// assert both witnesses agree.
fn evaluate_once(
    tb: &CheckTestbed,
    ctx: &OracleContext,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    snapshot: Option<&XmKernel>,
    steps: &[RawHypercall],
    horizon: usize,
) -> CaseRun {
    let cfg = tb.config();
    let before = (snapshot.is_none() || cfg!(debug_assertions)).then(|| victim_memory(kernel, cfg));
    // An arena run's verdict is kept only when clean (a finding is
    // re-verdicted on a fresh boot), so only a fresh boot renders evidence.
    let evidence = if snapshot.is_some() { Evidence::Skip } else { Evidence::Render };
    let eval = lockstep(tb, ctx, kernel, guests, steps, 1, horizon, evidence);
    let drained = flightrec::drain();
    let ports = victim_ports(kernel, cfg);
    let images = |kernel: &XmKernel| {
        let before = before.as_deref().expect("captured for byte-image witnesses");
        check_invariants(cfg, &drained.events, before, &victim_memory(kernel, cfg), &ports)
    };
    let violations = match snapshot {
        Some(snapshot) => {
            let changes = victim_changes_since(kernel, snapshot, cfg);
            let violations = invariants(cfg, &drained.events, changes, &ports);
            debug_assert_eq!(violations, images(kernel), "dirty-page witness diverged");
            violations
        }
        None => images(kernel),
    };
    CaseRun { verdict: eval.verdict, steps_executed: eval.steps_executed, violations }
}

fn run_case<'t>(
    tb: &'t CheckTestbed,
    ctx: &OracleContext,
    opts: &CheckOptions,
    booter: &mut Booter<'t, CheckTestbed>,
    log: &mut WorkerLog,
    index: usize,
    probe: &CheckProbe,
) -> CheckCaseRecord {
    let horizon = opts.scope.horizon as usize;

    // Main evaluation on the worker's arena.
    let _ = flightrec::drain();
    let (kernel, guests, snapshot) = booter.booted_from(&mut log.local);
    let main = evaluate_once(tb, ctx, kernel, guests, snapshot, &probe.steps, horizon);

    let record = |run: CaseRun, minimal: Option<MinimalRepro>| CheckCaseRecord {
        index,
        config: tb.config().clone(),
        probe: probe.name,
        steps: probe.steps.clone(),
        verdict: run.verdict,
        steps_executed: run.steps_executed,
        violations: run.violations,
        minimal,
    };

    if finding_sig(&main.verdict, &main.violations).is_none() {
        log.local.note_outcome(CrashClass::Pass);
        return record(main, None);
    }

    // Authoritative re-verdict on a fresh boot: rules out arena-rewind
    // artefacts before a counterexample is reported.
    let _ = flightrec::drain();
    let (mut fk, mut fg) = tb.boot(opts.build);
    log.local.note_fresh_boot();
    let fresh = evaluate_once(tb, ctx, &mut fk, &mut fg, None, &probe.steps, horizon);
    drop((fk, fg));
    let Some(sig) = finding_sig(&fresh.verdict, &fresh.violations) else {
        // The arena run diverged but a fresh boot does not reproduce it:
        // the clean fresh outcome is authoritative.
        log.local.note_outcome(CrashClass::Pass);
        return record(fresh, None);
    };

    let class = match &sig {
        FindingSig::Oracle(c) => c.class,
        FindingSig::Invariant(_) => CrashClass::Catastrophic,
    };

    // Minimize, preserving the finding signature.
    let minimal = if probe.steps.len() > 1 {
        let out = shrink_sequence(
            &probe.steps,
            |cand| {
                if cand.is_empty() {
                    return false;
                }
                let _ = flightrec::drain();
                let (kernel, guests, snapshot) = booter.booted_from(&mut log.local);
                match &sig {
                    FindingSig::Oracle(target) => {
                        let eval =
                            lockstep(tb, ctx, kernel, guests, cand, 1, horizon, Evidence::Skip);
                        eval.verdict.classification == *target
                    }
                    FindingSig::Invariant(_) => {
                        let run = evaluate_once(tb, ctx, kernel, guests, snapshot, cand, horizon);
                        finding_sig(&run.verdict, &run.violations).as_ref() == Some(&sig)
                    }
                }
            },
            opts.shrink_budget,
        );
        // Re-run the minimal reproducer; with retention on, its flight is
        // the triage trace.
        let _ = flightrec::drain();
        if opts.record {
            flightrec::record(0, EventKind::TestBegin, NO_PARTITION, index as u32, 0, 0);
        }
        let (kernel, guests) = booter.booted(&mut log.local);
        let meval = run_one_sequence_bounded(tb, ctx, kernel, guests, &out.steps, 1, horizon);
        if opts.record {
            log.end_flight(index, class);
        }
        Some(MinimalRepro {
            steps: out.steps,
            verdict: meval.verdict,
            evals: out.evals,
            removed_steps: out.removed_steps,
            shrunk_args: out.shrunk_args,
        })
    } else {
        // Nothing to shrink; keep the (≤1-step) probe's own flight.
        if opts.record {
            let _ = flightrec::drain();
            flightrec::record(0, EventKind::TestBegin, NO_PARTITION, index as u32, 0, 0);
            let (kernel, guests) = booter.booted(&mut log.local);
            let _ = lockstep(tb, ctx, kernel, guests, &probe.steps, 1, horizon, Evidence::Skip);
            log.end_flight(index, class);
        }
        None
    };

    log.local.note_outcome(class);
    record(fresh, minimal)
}

// ---------------------------------------------------------------------------
// Parallel driver
// ---------------------------------------------------------------------------

/// Exhaustively checks every configuration in `opts.scope`, in parallel,
/// preserving enumeration order in the result. Runs on [`par_indexed`]
/// with one configuration as the work unit, so a configuration's arena
/// never crosses workers; per-worker metrics, lock-free hot path. The
/// result is byte-identical across thread counts and recorder settings.
pub fn run_check(opts: &CheckOptions) -> CheckResult {
    let started = Instant::now();
    let configs = enumerate_configs(&opts.scope);
    let probe_sets: Vec<Vec<CheckProbe>> = configs.iter().map(probes_for).collect();
    // Global case index of each configuration's first case.
    let mut case_offsets = Vec::with_capacity(configs.len());
    let mut total_cases = 0usize;
    for set in &probe_sets {
        case_offsets.push(total_cases);
        total_cases += set.len();
    }

    let mut logs: Vec<WorkerLog> =
        (0..resolve_threads(opts.threads, configs.len())).map(|_| WorkerLog::new(false)).collect();
    let steals = AtomicU64::new(0);
    let per_config = par_indexed(
        configs.len(),
        &mut logs,
        &steals,
        // The recorder always runs: the temporal invariants are checked
        // against its stream.
        |_| flightrec::enable(DEFAULT_RING_CAPACITY),
        |log, _, ci| {
            let tb = CheckTestbed::new(configs[ci].clone());
            let ctx = tb.oracle_context(opts.build);
            let mut booter = Booter::new(&tb, opts.build, &mut log.local);
            probe_sets[ci]
                .iter()
                .enumerate()
                .map(|(pi, probe)| {
                    run_case(&tb, &ctx, opts, &mut booter, log, case_offsets[ci] + pi, probe)
                })
                .collect::<Vec<_>>()
        },
    );
    let cases: Vec<CheckCaseRecord> = per_config.into_iter().flatten().collect();
    debug_assert_eq!(cases.len(), total_cases);

    let (report, flight) = fold_logs(logs, steals.into_inner(), opts.record, started);
    CheckResult {
        build: opts.build,
        scope: opts.scope,
        configs: configs.len(),
        cases,
        metrics: report,
        flight,
    }
}

/// A known legacy defect the exhaustive small scope must rediscover:
/// a human-readable label plus the predicate matching its findings.
pub type RediscoveryTarget = (&'static str, fn(&CheckCaseRecord) -> bool);

/// Known legacy defects the exhaustive small scope must rediscover by
/// construction: `(label, matcher)` pairs used by reports and CI.
pub fn legacy_rediscovery_targets() -> Vec<RediscoveryTarget> {
    use xtratum::observe::ResetKind;
    vec![
        ("2048-entry multicall temporal break", |c| {
            c.verdict.classification.cause == Cause::TemporalOverrun && c.probe == "multicall_batch"
        }),
        ("reset_system invalid mode -> cold reset", |c| {
            c.verdict.classification.cause == Cause::UnexpectedSystemReset(ResetKind::Cold)
        }),
        ("reset_system huge mode -> warm reset", |c| {
            c.verdict.classification.cause == Cause::UnexpectedSystemReset(ResetKind::Warm)
        }),
        ("tiny timer interval -> kernel halt", |c| {
            c.verdict.classification.cause == Cause::KernelHalt && c.probe == "set_timer_tiny"
        }),
        ("negative timer interval accepted", |c| {
            c.verdict.classification.cause == Cause::WrongSuccess && c.probe == "set_timer_negative"
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_counts_match() {
        let scope = CheckScope::default();
        let a = enumerate_configs(&scope);
        let b = enumerate_configs(&scope);
        assert_eq!(a, b);
        // p1: 2 layouts x 1 topology; p2: 6 x 3; p3: 12 x 3.
        assert_eq!(a.len(), 2 + 18 + 36);
        assert!(a.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn every_enumerated_configuration_is_statically_valid() {
        for cfg in enumerate_configs(&CheckScope::default()) {
            let tb = CheckTestbed::new(cfg.clone());
            assert_eq!(
                tb.xm_config().validate(),
                Vec::<String>::new(),
                "config {} invalid",
                cfg.describe()
            );
        }
    }

    #[test]
    fn probe_sets_depend_on_scheduling_and_topology() {
        let mk = |owners: Vec<u32>, n, topo| CheckConfig {
            index: 0,
            n_partitions: n,
            slot_owners: owners,
            channels: topo,
        };
        // Caller not scheduled: baseline only.
        let p = probes_for(&mk(vec![1], 2, ChannelTopology::Isolated));
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].name, "baseline");
        // Single partition: no cross-partition or channel probes.
        let names: Vec<_> =
            probes_for(&mk(vec![0], 1, ChannelTopology::Isolated)).iter().map(|p| p.name).collect();
        assert!(names.contains(&"multicall_batch"));
        assert!(!names.contains(&"memory_copy_cross"));
        assert!(!names.contains(&"create_sampling_port"));
        // Full topology: everything.
        let names: Vec<_> = probes_for(&mk(vec![0, 1], 2, ChannelTopology::SamplingQueuing))
            .iter()
            .map(|p| p.name)
            .collect();
        assert!(names.contains(&"memory_copy_cross"));
        assert!(names.contains(&"create_sampling_port"));
        assert!(names.contains(&"create_queuing_port"));
    }

    #[test]
    fn invariant_checker_flags_each_kind() {
        let cfg = CheckConfig {
            index: 0,
            n_partitions: 2,
            slot_owners: vec![0, 1],
            channels: ChannelTopology::Isolated,
        };
        let ev = |t, kind, part, code, a| Event { t_us: t, kind, partition: part, code, a, b: 0 };
        let sl = SLOT_US;
        // A clean two-slot frame.
        let clean = vec![
            ev(0, EventKind::SlotBegin, 0, 0, sl),
            ev(10, EventKind::HypercallEnter, 0, HypercallId::GetTime as u32, 0),
            ev(sl, EventKind::SlotEnd, 0, 0, 0),
            ev(sl, EventKind::SlotBegin, 1, 1, sl),
            ev(2 * sl, EventKind::SlotEnd, 1, 1, 0),
        ];
        let mem = vec![vec![0u8; 8]];
        assert!(check_invariants(&cfg, &clean, &mem, &mem, &[0]).is_empty());

        // Overrun: slot 0 closes late.
        let over =
            vec![ev(0, EventKind::SlotBegin, 0, 0, sl), ev(5 * sl, EventKind::SlotEnd, 0, 0, 0)];
        let v = check_invariants(&cfg, &over, &mem, &mem, &[0]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::SlotOverrun), "{v:?}");

        // Wrong owner.
        let wrong = vec![ev(0, EventKind::SlotBegin, 1, 0, sl)];
        let v = check_invariants(&cfg, &wrong, &mem, &mem, &[0]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::SlotOutsidePlan), "{v:?}");

        // Hypercall with no open slot.
        let foreign = vec![ev(7, EventKind::HypercallEnter, 1, 0, 0)];
        let v = check_invariants(&cfg, &foreign, &mem, &mem, &[0]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::ForeignExecution), "{v:?}");

        // Timer expiry without an arming call.
        let timer = vec![ev(9, EventKind::VtimerExpiry, 1, 0, 1)];
        let v = check_invariants(&cfg, &timer, &mem, &mem, &[0]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::MisattributedTimer), "{v:?}");

        // HM attributed to a victim.
        let hm = vec![ev(9, EventKind::HmEvent, 1, 0, 0)];
        let v = check_invariants(&cfg, &hm, &mem, &mem, &[0]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::MisattributedHm), "{v:?}");

        // Spatial: memory mutated, foreign port.
        let v = check_invariants(&cfg, &[], &mem, &[vec![1u8; 8]], &[0]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::VictimMemoryMutated), "{v:?}");
        let v = check_invariants(&cfg, &[], &mem, &mem, &[2]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::ForeignPort), "{v:?}");
    }

    #[test]
    fn slot_phase_is_anchor_relative() {
        // Boot cost shifting the whole grid by a constant is not a
        // violation; drifting off the anchored grid is.
        let cfg = CheckConfig {
            index: 0,
            n_partitions: 1,
            slot_owners: vec![0],
            channels: ChannelTopology::Isolated,
        };
        let maf = cfg.major_frame_us();
        let ev = |t| Event {
            t_us: t,
            kind: EventKind::SlotBegin,
            partition: 0,
            code: 0,
            a: SLOT_US,
            b: 0,
        };
        let shifted = vec![ev(123), ev(123 + maf), ev(123 + 2 * maf)];
        assert!(check_invariants(&cfg, &shifted, &[], &[], &[]).is_empty());
        let drifted = vec![ev(123), ev(123 + maf + 7)];
        let v = check_invariants(&cfg, &drifted, &[], &[], &[]);
        assert!(v.iter().any(|v| v.kind == InvariantKind::SlotOutsidePlan), "{v:?}");
    }

    #[test]
    fn finding_signature_prefers_oracle_and_dedups_invariants() {
        let pass = SequenceVerdict {
            classification: Classification { class: CrashClass::Pass, cause: Cause::None },
            failing_step: None,
            state_diff: vec![],
        };
        assert_eq!(finding_sig(&pass, &[]), None);
        let viol = |k| InvariantViolation { kind: k, detail: String::new() };
        assert_eq!(
            finding_sig(
                &pass,
                &[viol(InvariantKind::SlotOverrun), viol(InvariantKind::SlotOverrun)]
            ),
            Some(FindingSig::Invariant(vec![InvariantKind::SlotOverrun]))
        );
        let div = SequenceVerdict {
            classification: Classification {
                class: CrashClass::Restart,
                cause: Cause::TemporalOverrun,
            },
            failing_step: Some(0),
            state_diff: vec![],
        };
        assert_eq!(
            finding_sig(&div, &[viol(InvariantKind::SlotOverrun)]),
            Some(FindingSig::Oracle(div.classification))
        );
    }

    /// The dirty-page witness reports exactly the violations the byte
    /// images report, on an arena pair mutated in kernel context the way
    /// no default-scope probe does: a store that rewrites the original
    /// bytes (dirty, unchanged), two pages dirtied in descending address
    /// order (the lowest address is reported), a store straddling a page
    /// boundary, stores in both victims, and stores in the caller only.
    /// Each pattern runs on the same arena, rewound in between, so the
    /// rewind's reset of the dirty set is covered too.
    #[test]
    fn dirty_page_witness_matches_byte_images() {
        let cfg = CheckConfig {
            index: 0,
            n_partitions: 3,
            slot_owners: vec![0, 1],
            channels: ChannelTopology::Isolated,
        };
        let tb = CheckTestbed::new(cfg.clone());
        let mut log = WorkerLog::new(false);
        let mut booter = Booter::new(&tb, KernelBuild::Legacy, &mut log.local);
        let (v1, v2) = (part_base(1), part_base(2));
        // (name, kernel-context stores, expected first violation detail)
        type Pattern = (&'static str, Vec<(u32, Vec<u8>)>, Option<&'static str>);
        let patterns: [Pattern; 6] = [
            ("untouched", vec![], None),
            ("rewrite original bytes", vec![(v1 + 0x10, vec![0; 16])], None),
            (
                "descending pages",
                vec![(v1 + 0x9008, vec![7]), (v1 + 0x3004, vec![5, 5])],
                Some("partition 1 memory changed at 0x40113004 (+2 more byte(s))"),
            ),
            (
                "page straddle",
                vec![(v2 + 0x1FFC, vec![0xAA; 8])],
                Some("partition 2 memory changed at 0x40121ffc (+7 more byte(s))"),
            ),
            (
                "both victims",
                vec![(v2 + 0xFFFF, vec![1]), (v1, vec![0, 9, 0, 9])],
                Some("partition 1 memory changed at 0x40110001 (+1 more byte(s))"),
            ),
            ("caller only", vec![(part_base(CALLER), vec![3; 64])], None),
        ];
        for (name, stores, first_detail) in patterns {
            let (kernel, _, snapshot) = booter.booted_from(&mut log.local);
            let snapshot = snapshot.expect("check testbeds snapshot");
            let before = victim_memory(kernel, &cfg);
            for (addr, bytes) in &stores {
                kernel.machine.mem.write_bytes(AccessCtx::Kernel, *addr, bytes).unwrap();
            }
            assert_eq!(kernel.machine.mem.dirty_pages() > 0, !stores.is_empty(), "{name}");
            let after = victim_memory(kernel, &cfg);
            let ports = victim_ports(kernel, &cfg);
            let images = check_invariants(&cfg, &[], &before, &after, &ports);
            let fast = invariants(&cfg, &[], victim_changes_since(kernel, snapshot, &cfg), &ports);
            assert_eq!(fast, images, "{name}");
            assert_eq!(fast.first().map(|v| v.detail.as_str()), first_detail, "{name}");
        }
    }

    /// The invariants read the stream a run from boot records. On an
    /// arena, the caller drains *before* the rewind and the rewind
    /// replays the prefix (the victim slots ahead of the caller's first
    /// one): every probe's stream must then equal a fresh boot's, apart
    /// from the arena's `SnapshotClone` marker.
    #[test]
    fn arena_streams_equal_fresh_boot_streams() {
        let build = KernelBuild::Legacy;
        let scope = CheckScope::default();
        let run = |kernel: &mut XmKernel,
                   guests: &mut GuestSet,
                   tb: &CheckTestbed,
                   p: &CheckProbe| {
            let ctx = tb.oracle_context(build);
            run_one_sequence_bounded(tb, &ctx, kernel, guests, &p.steps, 1, scope.horizon as usize);
            let events = flightrec::drain().events;
            events.into_iter().filter(|e| e.kind != EventKind::SnapshotClone).collect::<Vec<_>>()
        };
        flightrec::enable(DEFAULT_RING_CAPACITY);
        for cfg in enumerate_configs(&scope) {
            let tb = CheckTestbed::new(cfg.clone());
            let mut log = WorkerLog::new(false);
            let mut booter = Booter::new(&tb, build, &mut log.local);
            for probe in probes_for(&cfg) {
                let _ = flightrec::drain();
                let (kernel, guests) = booter.booted(&mut log.local);
                let arena = run(kernel, guests, &tb, &probe);
                let _ = flightrec::drain();
                let (mut kernel, mut guests) = tb.boot(build);
                let fresh = run(&mut kernel, &mut guests, &tb, &probe);
                assert_eq!(arena, fresh, "{}: probe {}", cfg.describe(), probe.name);
            }
        }
        flightrec::disable();
    }
}

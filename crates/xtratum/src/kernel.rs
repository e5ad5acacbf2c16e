//! The separation kernel core: boot, scheduling loop, HM wiring, and the
//! hypercall dispatcher. Individual services live in [`crate::services`].

use crate::config::{PlanCfg, XmConfig};
use crate::guest::{GuestSet, PartitionApi};
use crate::hm::{HealthMonitor, HmAction, HmEventKind, HmLogEntry};
use crate::hypercall::RawHypercall;
use crate::ipc::PortTable;
use crate::irq::IrqRouting;
use crate::observe::{OpsEvent, OpsRecord, ResetKind, RunSummary};
use crate::partition::{PartitionCtl, PartitionStatus};
use crate::sched::Scheduler;
use crate::trace::TraceBuffer;
use crate::types::XM_COLD_RESET;
use crate::vtimer::{process_hw_timer, ProcessOutcome, VTimer};
use crate::vuln::{KernelBuild, VulnFlags};
use leon3_sim::addrspace::{Owner, Perms, Region};
use leon3_sim::machine::{Machine, MachineConfig};
use leon3_sim::{TimeUs, Trap};
use std::sync::Arc;

/// Base address of the hypervisor image/RAM region.
pub const KERNEL_BASE: u32 = 0x4000_0000;
/// Size of the hypervisor region.
pub const KERNEL_SIZE: u32 = 0x1_0000;
/// Base address of the device/IO region.
pub const DEVICE_BASE: u32 = 0x8000_0000;
/// Size of the device region.
pub const DEVICE_SIZE: u32 = 0x1000;
/// Virtual-interrupt bit delivered on virtual-timer expiry.
pub const VIRQ_TIMER: u32 = 1 << 0;
/// Virtual-interrupt bit delivered on partition shutdown request.
pub const VIRQ_SHUTDOWN: u32 = 1 << 1;

/// Why a hypercall did not return to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoReturnKind {
    /// The whole system cold-reset.
    SystemColdReset,
    /// The whole system warm-reset.
    SystemWarmReset,
    /// The whole system halted (`XM_halt_system` or HM action).
    SystemHalt,
    /// The calling partition was halted.
    CallerHalted,
    /// The calling partition suspended itself (or was suspended).
    CallerSuspended,
    /// The calling partition idled until its next slot.
    CallerIdled,
    /// The calling partition was reset.
    CallerReset,
    /// The calling partition entered shutdown.
    CallerShutdown,
    /// The simulator itself died (TSIM-crash analogue).
    SimulatorCrashed,
    /// A memory access faulted but the partition survives (HM action was
    /// Log/Ignore); only produced by the guest memory API, never by the
    /// hypercall path.
    Fault,
}

impl NoReturnKind {
    /// Stable numeric code used in flight-recorder event payloads.
    pub fn flight_code(self) -> u32 {
        match self {
            NoReturnKind::SystemColdReset => 0,
            NoReturnKind::SystemWarmReset => 1,
            NoReturnKind::SystemHalt => 2,
            NoReturnKind::CallerHalted => 3,
            NoReturnKind::CallerSuspended => 4,
            NoReturnKind::CallerIdled => 5,
            NoReturnKind::CallerReset => 6,
            NoReturnKind::CallerShutdown => 7,
            NoReturnKind::SimulatorCrashed => 8,
            NoReturnKind::Fault => 9,
        }
    }

    /// Human-readable name for a [`NoReturnKind::flight_code`] value.
    pub fn flight_name(code: u32) -> &'static str {
        match code {
            0 => "SystemColdReset",
            1 => "SystemWarmReset",
            2 => "SystemHalt",
            3 => "CallerHalted",
            4 => "CallerSuspended",
            5 => "CallerIdled",
            6 => "CallerReset",
            7 => "CallerShutdown",
            8 => "SimulatorCrashed",
            9 => "Fault",
            _ => "?",
        }
    }
}

/// Outcome of a hypercall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HcResult {
    /// The service returned this code to the caller.
    Ret(i32),
    /// The service did not return.
    NoReturn(NoReturnKind),
}

/// Hypercall outcome plus its execution-time cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HcResponse {
    /// Outcome.
    pub result: HcResult,
    /// Execution time charged to the caller (µs).
    pub cost_us: u64,
}

/// Why the kernel halted, kept structured so the hot path never builds
/// the human-readable string eagerly — it is rendered only when a run
/// summary is actually reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaltReason {
    /// `XM_halt_system` was invoked.
    HaltCall,
    /// A fatal HM containment action (`HmAction::HaltSystem`).
    HmFatal(HmEventKind),
}

impl std::fmt::Display for HaltReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaltReason::HaltCall => f.write_str("XM_halt_system"),
            HaltReason::HmFatal(kind) => write!(f, "HM fatal event: {kind:?}"),
        }
    }
}

/// Kernel lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelState {
    /// Operating normally.
    Normal,
    /// Halted (fatal HM action or `XM_halt_system`).
    Halted {
        /// Why.
        reason: HaltReason,
        /// When (µs).
        at: TimeUs,
    },
}

/// SPARC per-partition virtual processor state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SparcCtl {
    pub psr: u32,
    pub pil: u32,
    pub traps_enabled: bool,
}

/// The XtratuM separation kernel instance.
///
/// ```
/// use leon3_sim::addrspace::Perms;
/// use xtratum::config::*;
/// use xtratum::guest::GuestSet;
/// use xtratum::vuln::KernelBuild;
/// use xtratum::kernel::XmKernel;
///
/// let cfg = XmConfig {
///     partitions: vec![PartitionCfg {
///         id: 0,
///         name: "SYS".into(),
///         system: true,
///         mem: vec![MemAreaCfg { base: 0x4010_0000, size: 0x1000, perms: Perms::RWX }],
///     }],
///     plans: vec![PlanCfg {
///         id: 0,
///         major_frame_us: 1_000,
///         slots: vec![SlotCfg { partition: 0, start_us: 0, duration_us: 1_000 }],
///     }],
///     channels: vec![],
///     hm_table: XmConfig::default_hm_table(),
///     tuning: Default::default(),
/// };
/// let mut kernel = XmKernel::boot(cfg, KernelBuild::Patched).unwrap();
/// let summary = kernel.run_major_frames(&mut GuestSet::idle(1), 3);
/// assert!(summary.healthy());
/// assert_eq!(summary.frames_completed, 3);
/// ```
#[derive(Debug, Clone)]
pub struct XmKernel {
    /// The simulated LEON3 board the kernel runs on.
    pub machine: Machine,
    // Arc-shared: immutable after a successful boot, so snapshot
    // clones (one per campaign test) don't re-copy the whole config.
    pub(crate) cfg: Arc<XmConfig>,
    build: KernelBuild,
    pub(crate) flags: VulnFlags,
    state: KernelState,
    pub(crate) parts: Vec<PartitionCtl>,
    pub(crate) sched: Scheduler,
    pub(crate) ports: PortTable,
    pub(crate) hm: HealthMonitor,
    pub(crate) traces: Vec<TraceBuffer>,
    pub(crate) hw_vtimers: Vec<VTimer>,
    pub(crate) routes: IrqRouting,
    pub(crate) ops: Vec<OpsRecord>,
    pub(crate) cold_resets: u32,
    pub(crate) warm_resets: u32,
    pub(crate) exec_timer_owner: Option<u32>,
    pub(crate) cache_state: u32,
    pub(crate) io_ports: [u32; 4],
    pub(crate) sparc: Vec<SparcCtl>,
    hm_reset_flags: Vec<bool>,
    frames_run: u64,
    ops_limit: usize,
    /// Event horizon over the software HW-clock vtimers: a conservative
    /// lower bound (never later than the true minimum) on the earliest
    /// armed `hw_vtimers` expiry, `u64::MAX` when none is armed. Together
    /// with [`Machine::advance_quiescent`]'s exact GPTIMER deadline this
    /// lets `advance_and_process(t)` with `t` below the horizon degenerate
    /// to a single clock assignment. Lowered incrementally at the arm
    /// site, recomputed exactly after each full vtimer scan; a stale (too
    /// low) horizon only costs a redundant scan, never a missed event.
    pub(crate) vtimer_horizon: u64,
    /// Advances satisfied by the event-horizon fast path (pure clock move).
    adv_quiescent: u64,
    /// Advances that ran the full expiry/vtimer processing path.
    adv_processed: u64,
    /// Mid-frame resume point left by [`XmKernel::step_until_slot_of`] or
    /// [`XmKernel::enter_slot_of`]; `None` at a major-frame boundary.
    frame_cursor: Option<FrameCursor>,
}

/// Where a partially run major frame resumes: the frame's start time, the
/// plan it runs (a cold reset inside the frame switches the scheduler to
/// plan 0 but never the frame in flight), the next slot to run and, when
/// that slot is already open, where inside it.
#[derive(Debug, Clone, Copy)]
struct FrameCursor {
    frame_start: TimeUs,
    plan: usize,
    next_slot: usize,
    inside: Option<SlotResume>,
}

/// A slot opened by [`XmKernel::enter_slot_of`], its prologue run: what
/// the rest of the slot needs to continue as if the slot had run in one
/// piece.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotResume {
    /// Budget the prologue consumed.
    pub(crate) consumed_us: u64,
    /// Set when the prologue ended the partition's slot.
    pub(crate) ended: Option<NoReturnKind>,
    /// The partition's boot count the prologue ran at.
    pub(crate) boot: u32,
}

impl XmKernel {
    /// Boots the kernel: validates the configuration, builds the machine's
    /// memory map and initialises all subsystems.
    pub fn boot(cfg: XmConfig, build: KernelBuild) -> Result<Self, Vec<String>> {
        Self::boot_with_flags(cfg, build, build.flags())
    }

    /// Boots with an explicit defect configuration (ablation studies: any
    /// subset of the legacy defects can be enabled individually).
    pub fn boot_with_flags(
        cfg: XmConfig,
        build: KernelBuild,
        flags: VulnFlags,
    ) -> Result<Self, Vec<String>> {
        let errs = cfg.validate();
        if !errs.is_empty() {
            return Err(errs);
        }
        let mut machine = Machine::new(MachineConfig::default());
        let mut map_errs = Vec::new();
        if let Err(e) = machine.mem.add_region(Region {
            name: "xm-kernel".into(),
            base: KERNEL_BASE,
            size: KERNEL_SIZE,
            owner: Owner::Kernel,
            perms: Perms::RW,
        }) {
            map_errs.push(e);
        }
        if let Err(e) = machine.mem.add_region(Region {
            name: "io".into(),
            base: DEVICE_BASE,
            size: DEVICE_SIZE,
            owner: Owner::Device,
            perms: Perms::RW,
        }) {
            map_errs.push(e);
        }
        for p in &cfg.partitions {
            for (i, area) in p.mem.iter().enumerate() {
                if let Err(e) = machine.mem.add_region(Region {
                    name: format!("{}#{}", p.name, i),
                    base: area.base,
                    size: area.size,
                    owner: Owner::Partition(p.id),
                    perms: area.perms,
                }) {
                    map_errs.push(e);
                }
            }
        }
        if !map_errs.is_empty() {
            return Err(map_errs);
        }
        let n = cfg.partitions.len();
        let sched = Scheduler::new(cfg.plans.clone());
        let ports = PortTable::new(&cfg.channels);
        let hm = HealthMonitor::new(cfg.tuning.hm_log_capacity);
        let traces = (0..n).map(|_| TraceBuffer::new(cfg.tuning.trace_capacity)).collect();
        machine.uart.put_str("XtratuM booting...\n");
        Ok(XmKernel {
            machine,
            parts: (0..n as u32).map(PartitionCtl::new).collect(),
            sched,
            ports,
            hm,
            traces,
            hw_vtimers: vec![VTimer::default(); n],
            routes: IrqRouting::default(),
            ops: Vec::new(),
            cold_resets: 0,
            warm_resets: 0,
            exec_timer_owner: None,
            cache_state: 0x3,
            io_ports: [0; 4],
            sparc: vec![SparcCtl { traps_enabled: true, ..Default::default() }; n],
            hm_reset_flags: vec![false; n],
            frames_run: 0,
            ops_limit: 4096,
            vtimer_horizon: u64::MAX,
            adv_quiescent: 0,
            adv_processed: 0,
            frame_cursor: None,
            flags,
            build,
            cfg: Arc::new(cfg),
            state: KernelState::Normal,
        })
    }

    /// Which build is running.
    pub fn kernel_build(&self) -> KernelBuild {
        self.build
    }

    /// The active defect configuration.
    pub fn vuln_flags(&self) -> VulnFlags {
        self.flags
    }

    /// The static configuration.
    pub fn config(&self) -> &XmConfig {
        &self.cfg
    }

    /// Kernel lifecycle state.
    pub fn state(&self) -> &KernelState {
        &self.state
    }

    /// True while both the kernel and the simulator are operational.
    pub fn alive(&self) -> bool {
        matches!(self.state, KernelState::Normal) && self.machine.is_running()
    }

    /// True while the simulator is operational (false after a
    /// TSIM-style crash).
    pub fn sim_running(&self) -> bool {
        self.machine.is_running()
    }

    /// System cold and warm resets performed since boot.
    pub fn system_resets(&self) -> (u32, u32) {
        (self.cold_resets, self.warm_resets)
    }

    /// Halt reason rendered for reporting, if halted.
    pub fn halt_reason(&self) -> Option<String> {
        match &self.state {
            KernelState::Normal => None,
            KernelState::Halted { reason, .. } => Some(reason.to_string()),
        }
    }

    /// Current status of partition `id`.
    pub fn partition_status(&self, id: u32) -> Option<PartitionStatus> {
        self.parts.get(id as usize).map(|p| p.status)
    }

    /// HM log view.
    pub fn hm_log(&self) -> &[HmLogEntry] {
        self.hm.log()
    }

    /// Ops journal view.
    pub fn ops_log(&self) -> &[OpsRecord] {
        &self.ops
    }

    /// Virtual-timer state of partition `id` (diagnostics).
    pub fn hw_vtimer(&self, id: u32) -> Option<&VTimer> {
        self.hw_vtimers.get(id as usize)
    }

    /// Number of ports partition `id` has created (diagnostics).
    pub fn port_count(&self, id: u32) -> usize {
        self.ports.ports_of(id).len()
    }

    pub(crate) fn ops_push(&mut self, event: OpsEvent) {
        if flightrec::active() {
            let part =
                event.flight_partition().map(|p| p as u16).unwrap_or(flightrec::NO_PARTITION);
            flightrec::record(
                self.machine.now(),
                flightrec::EventKind::Ops,
                part,
                event.flight_code(),
                0,
                0,
            );
        }
        if self.ops.len() < self.ops_limit {
            self.ops.push(OpsRecord { time: self.machine.now(), event });
        }
    }

    pub(crate) fn charge_exec(&mut self, part: u32, us: u64) {
        if let Some(p) = self.parts.get_mut(part as usize) {
            p.exec_us += us;
        }
    }

    /// Pending virtual interrupts of partition `part`.
    pub fn pending_virqs(&self, part: u32) -> u32 {
        self.parts.get(part as usize).map(|p| p.pending_virqs).unwrap_or(0)
    }

    /// Acknowledges virtual interrupts; returns the subset that was
    /// actually pending.
    pub fn ack_virqs(&mut self, part: u32, mask: u32) -> u32 {
        match self.parts.get_mut(part as usize) {
            Some(p) => {
                let acked = p.pending_virqs & mask;
                p.pending_virqs &= !mask;
                acked
            }
            None => 0,
        }
    }

    pub(crate) fn partition_was_reset_by_hm(&self, part: u32) -> bool {
        self.hm_reset_flags.get(part as usize).copied().unwrap_or(false)
    }

    /// Per-partition flags the health monitor sets when it resets a
    /// partition, cleared when that partition's next slot opens
    /// (diagnostics).
    pub fn hm_reset_flags(&self) -> &[bool] {
        &self.hm_reset_flags
    }

    /// Permanently halts the kernel.
    pub(crate) fn halt_kernel(&mut self, reason: HaltReason) {
        if matches!(self.state, KernelState::Normal) {
            let code = match &reason {
                HaltReason::HaltCall => 0,
                HaltReason::HmFatal(_) => 1,
            };
            flightrec::record(
                self.machine.now(),
                flightrec::EventKind::KernelHalt,
                flightrec::NO_PARTITION,
                code,
                0,
                0,
            );
            self.machine.uart.put_fmt(format_args!("XM PANIC: {reason}\n"));
            self.state = KernelState::Halted { reason, at: self.machine.now() };
        }
    }

    /// Records an HM event and applies the configured containment action.
    pub(crate) fn hm_event(&mut self, kind: HmEventKind, partition: Option<u32>) -> HmAction {
        let action = self.cfg.hm_table.action(kind.class());
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::HmEvent,
            partition.map(|p| p as u16).unwrap_or(flightrec::NO_PARTITION),
            action.flight_code(),
            crate::services::hm_class_code(&kind) as u64,
            0,
        );
        self.hm.record(HmLogEntry {
            time: self.machine.now(),
            kind: kind.clone(),
            partition,
            action,
        });
        match action {
            HmAction::Log | HmAction::Ignore => {}
            HmAction::HaltPartition => {
                if let Some(p) = partition {
                    if let Some(ctl) = self.parts.get_mut(p as usize) {
                        ctl.status = PartitionStatus::Halted;
                    }
                    self.ops_push(OpsEvent::PartitionHaltedByHm { target: p });
                }
            }
            HmAction::ResetPartitionWarm | HmAction::ResetPartitionCold => {
                if let Some(p) = partition {
                    let mode = if action == HmAction::ResetPartitionCold {
                        crate::types::XM_COLD_RESET
                    } else {
                        crate::types::XM_WARM_RESET
                    };
                    if let Some(ctl) = self.parts.get_mut(p as usize) {
                        ctl.reset(mode, 0);
                    }
                    if let Some(f) = self.hm_reset_flags.get_mut(p as usize) {
                        *f = true;
                    }
                    self.ops_push(OpsEvent::PartitionResetByHm { target: p });
                }
            }
            HmAction::HaltSystem => {
                let reason = HaltReason::HmFatal(kind);
                self.ops_push(OpsEvent::SystemHaltedByHm { reason: reason.to_string() });
                self.halt_kernel(reason);
            }
            HmAction::ResetSystemWarm => {
                self.do_system_reset(ResetKind::Warm);
            }
        }
        action
    }

    /// Performs a system reset. The caller records the ops event (it
    /// knows the requested mode).
    pub(crate) fn do_system_reset(&mut self, kind: ResetKind) {
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::SystemReset,
            flightrec::NO_PARTITION,
            match kind {
                ResetKind::Cold => 0,
                ResetKind::Warm => 1,
            },
            0,
            0,
        );
        match kind {
            ResetKind::Cold => {
                self.cold_resets += 1;
                for p in &mut self.parts {
                    p.reset(XM_COLD_RESET, 0);
                }
                self.ports.reset();
                self.sched.cold_reset();
                for t in &mut self.traces {
                    t.clear();
                }
            }
            ResetKind::Warm => {
                self.warm_resets += 1;
                for p in &mut self.parts {
                    p.reset(crate::types::XM_WARM_RESET, 0);
                }
            }
        }
        for t in &mut self.hw_vtimers {
            t.disarm();
        }
        self.vtimer_horizon = u64::MAX;
        self.exec_timer_owner = None;
        self.machine.timers.disarm(1);
        self.machine.warm_reset();
        self.machine.uart.put_str(match kind {
            ResetKind::Cold => "XM cold reset\n",
            ResetKind::Warm => "XM warm reset\n",
        });
    }

    /// Advances machine time to `t`, delivering hardware-timer interrupts
    /// and processing software (HW-clock) virtual timers. Detects the
    /// legacy `XM_set_timer` kernel-stack overflow and the simulator
    /// trap-storm death.
    pub(crate) fn advance_and_process(&mut self, t: TimeUs) {
        if !self.alive() {
            return;
        }
        // Event-horizon fast path: no GPTIMER unit is due by `t` (exact
        // cached deadline) and no armed vtimer lies at or before
        // `max(t, now)` (the slow path below scans vtimers at the *new*
        // clock, which is `now` even when `t` is in the past) — the whole
        // advance is one clock assignment.
        if self.try_quiescent_advance(t) {
            return;
        }
        self.adv_processed += 1;
        // Allocation-free advance: the sink only needs to know whether the
        // exec-clock unit (hardware unit 1) expired — the per-expiry work
        // below is idempotent, so the distinct-pair stream carries exactly
        // the information the Vec of individual events used to.
        let mut exec_irq: Option<u8> = None;
        self.machine.advance_to_with(t, &mut |unit, irq| {
            if unit == 1 {
                exec_irq = Some(irq);
            }
        });
        if !self.machine.is_running() {
            // The simulator died (trap storm); nothing more to process.
            return;
        }
        // Exec-clock timer deliveries (hardware unit 1).
        if let Some(irq) = exec_irq {
            self.machine.irqmp.ack(irq);
            if let Some(owner) = self.exec_timer_owner {
                if let Some(p) = self.parts.get_mut(owner as usize) {
                    p.pending_virqs |= VIRQ_TIMER;
                    flightrec::record(
                        self.machine.now(),
                        flightrec::EventKind::VtimerExpiry,
                        owner as u16,
                        1,
                        1,
                        0,
                    );
                }
            }
        }
        // Software-managed HW-clock virtual timers. When the horizon says
        // none is due (the slow path was taken for a GPTIMER expiry only),
        // the scan is skipped and the horizon stays valid as-is.
        if self.vtimer_horizon > self.machine.now() {
            return;
        }
        let now_i = self.machine.now() as i64;
        let cost = self.cfg.tuning.vtimer_handler_cost_us as i64;
        let limit = self.cfg.tuning.kernel_stack_frames;
        for idx in 0..self.hw_vtimers.len() {
            let timer = &mut self.hw_vtimers[idx];
            if !timer.due_by(now_i) {
                continue;
            }
            match process_hw_timer(timer, now_i, cost, limit) {
                ProcessOutcome::Done { delivered } => {
                    if delivered > 0 {
                        self.parts[idx].pending_virqs |= VIRQ_TIMER;
                        flightrec::record(
                            self.machine.now(),
                            flightrec::EventKind::VtimerExpiry,
                            idx as u16,
                            0,
                            delivered as u64,
                            0,
                        );
                    }
                }
                ProcessOutcome::StackOverflow { depth, .. } => {
                    // The recursive handler exhausted the kernel stack:
                    // window_overflow in supervisor context — fatal.
                    self.machine.record_trap(Trap::WindowOverflow);
                    self.machine.uart.put_fmt(format_args!(
                        "XM: kernel stack overflow in vtimer handler (depth {depth})\n"
                    ));
                    self.hm_event(
                        HmEventKind::KernelTrap {
                            tt: Trap::WindowOverflow.tt(),
                            addr: None,
                            context: "virtual timer handler recursion",
                        },
                        Some(idx as u32),
                    );
                    return;
                }
            }
        }
        // Processing only pushed expiries later or disarmed timers, so the
        // exact minimum is recomputed here. (The StackOverflow return above
        // leaves the horizon stale-but-conservative, which is safe: too low
        // only costs a redundant scan.)
        self.recompute_vtimer_horizon();
    }

    /// Attempts the event-horizon fast path for an advance to `t`: when no
    /// observable event (GPTIMER unit expiry or armed HW vtimer) lies in
    /// the window, the advance is a single clock assignment. Returns
    /// whether it happened; on `false` nothing was changed.
    fn try_quiescent_advance(&mut self, t: TimeUs) -> bool {
        let from = self.machine.now();
        if self.vtimer_horizon > t.max(from) && self.machine.advance_quiescent(t) {
            self.adv_quiescent += 1;
            debug_assert!(
                self.scan_fires_nothing(from, t),
                "quiescent advance {from} -> {t} skipped a due GPTIMER unit or vtimer"
            );
            true
        } else {
            false
        }
    }

    /// The slow reference for [`Self::try_quiescent_advance`]: whether the
    /// full processing path of an advance from `from` to `t` would fire
    /// nothing. It scans every GPTIMER unit instead of reading the cached
    /// deadline, and every HW vtimer at the new clock instead of reading
    /// the horizon.
    fn scan_fires_nothing(&self, from: TimeUs, t: TimeUs) -> bool {
        let timers = &self.machine.timers;
        let gptimer_due = self.machine.is_running()
            && t > from
            && (0..timers.len())
                .any(|i| timers.unit(i).and_then(|u| u.expiry).is_some_and(|e| e <= t));
        let now = self.machine.now() as i64;
        !gptimer_due && !self.hw_vtimers.iter().any(|v| v.due_by(now))
    }

    /// Recomputes the vtimer horizon exactly from the armed timers.
    pub(crate) fn recompute_vtimer_horizon(&mut self) {
        self.vtimer_horizon = self
            .hw_vtimers
            .iter()
            .filter(|t| t.armed)
            .map(|t| t.next_expiry.max(0) as u64)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// `(quiescent, processed)` advance counts since boot (or the last
    /// restore): how many time advances the event-horizon fast path
    /// satisfied versus how many ran the full expiry/vtimer scan.
    pub fn advance_stats(&self) -> (u64, u64) {
        (self.adv_quiescent, self.adv_processed)
    }

    /// Runs `frames` major frames of the active plan, driving the guest
    /// programs, and returns the observation summary.
    pub fn run_major_frames(&mut self, guests: &mut GuestSet, frames: u32) -> RunSummary {
        self.step_major_frames(guests, frames);
        self.summary()
    }

    /// Runs `frames` major frames without building a summary. Callers that
    /// are done with the kernel afterwards pair this with
    /// [`XmKernel::into_summary`] to avoid copying the observation logs.
    ///
    /// A frame left partly run by [`XmKernel::step_until_slot_of`] is
    /// finished first and counts as the first of the `frames`, so the
    /// call always completes `frames` more frame boundaries.
    pub fn step_major_frames(&mut self, guests: &mut GuestSet, frames: u32) {
        for _ in 0..frames {
            // A slot left open by `enter_slot_of` finishes even when its
            // prologue stopped the kernel, as a slot run in one piece does.
            if !self.alive() && self.frame_cursor.is_none_or(|c| c.inside.is_none()) {
                break;
            }
            let (plan_table, current) = self.sched.current_plan_shared();
            let cursor = self.frame_cursor.take().unwrap_or_else(|| self.fresh_frame(current));
            let plan = &plan_table[cursor.plan];
            let slots = cursor.next_slot..plan.slots.len();
            self.run_slots(guests, plan, cursor.frame_start, slots, cursor.inside);
            if !self.alive() {
                break;
            }
            let frame_end = cursor.frame_start + plan.major_frame_us;
            self.advance_and_process(frame_end.max(self.machine.now()));
            if !self.alive() {
                break;
            }
            self.frames_run += 1;
            if let Some((from, to)) = self.sched.finish_frame() {
                self.ops_push(OpsEvent::PlanSwitched { from, to });
            }
        }
    }

    /// Runs the current major frame up to, not including, partition
    /// `pid`'s first slot in it, and leaves a resume point there that the
    /// next [`XmKernel::step_major_frames`] continues from. The state it
    /// stops in is the one every run of the frame shares up to `pid`'s
    /// first dispatch, whatever `pid`'s guest will do: the prefix a
    /// campaign arena is captured at. Runs nothing when `pid` owns no slot
    /// in the active plan or its first slot is already behind the resume
    /// point (including slot 0 of a fresh frame), and never completes a
    /// frame.
    pub fn step_until_slot_of(&mut self, guests: &mut GuestSet, pid: u32) {
        if !self.alive() {
            return;
        }
        let (plan_table, current) = self.sched.current_plan_shared();
        let cursor = self.frame_cursor.unwrap_or_else(|| self.fresh_frame(current));
        let plan = &plan_table[cursor.plan];
        let Some(target) = plan.slots.iter().position(|s| s.partition == pid) else {
            return;
        };
        if target <= cursor.next_slot {
            return;
        }
        self.run_slots(guests, plan, cursor.frame_start, cursor.next_slot..target, cursor.inside);
        self.frame_cursor = Some(FrameCursor { next_slot: target, inside: None, ..cursor });
    }

    /// Opens the slot [`XmKernel::step_until_slot_of`] stopped before —
    /// partition `pid`'s — runs `prologue` in it as the partition's code,
    /// and leaves a resume point inside the slot: the next
    /// [`XmKernel::step_major_frames`] hands the rest of the slot to
    /// `pid`'s guest, which [`PartitionApi::needs_prologue`] tells that this
    /// boot's prologue has run, then finishes the frame. The state it
    /// stops in is the one every run of the frame shares up to the end of
    /// `pid`'s prologue, whatever `pid`'s guest does after it: the prefix
    /// a campaign arena is captured at.
    ///
    /// Returns whether it did. It refuses, changing nothing, unless the
    /// next slot to run is `pid`'s, `pid` is schedulable, the kernel is
    /// alive, the slot is not already open, and the advance to the slot's
    /// start is quiescent (no timer event the slot would observe first).
    pub fn enter_slot_of(
        &mut self,
        pid: u32,
        prologue: impl FnOnce(&mut PartitionApi<'_>),
    ) -> bool {
        if !self.alive() {
            return false;
        }
        let (plan_table, current) = self.sched.current_plan_shared();
        let cursor = self.frame_cursor.unwrap_or_else(|| self.fresh_frame(current));
        let Some(slot) = plan_table[cursor.plan].slots.get(cursor.next_slot) else {
            return false;
        };
        let start = (cursor.frame_start + slot.start_us).max(self.machine.now());
        if cursor.inside.is_some()
            || slot.partition != pid
            || !self.parts[pid as usize].status.schedulable()
            || !self.try_quiescent_advance(start)
        {
            return false;
        }
        self.open_slot(pid, cursor.next_slot, slot.duration_us);
        let mut api = PartitionApi::new(self, pid, slot.duration_us);
        let boot = api.boot_count();
        prologue(&mut api);
        let inside = SlotResume { consumed_us: api.consumed_us(), ended: api.ended(), boot };
        self.frame_cursor = Some(FrameCursor { inside: Some(inside), ..cursor });
        true
    }

    /// The resume point of a frame of plan `plan` that starts now.
    fn fresh_frame(&self, plan: usize) -> FrameCursor {
        FrameCursor { frame_start: self.machine.now(), plan, next_slot: 0, inside: None }
    }

    /// Hands schedulable partition `pid` the CPU for slot `slot_idx`, the
    /// clock at the slot's start.
    fn open_slot(&mut self, pid: u32, slot_idx: usize, duration_us: u64) {
        self.hm_reset_flags[pid as usize] = false;
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::SlotBegin,
            pid as u16,
            slot_idx as u32,
            duration_us,
            0,
        );
        self.parts[pid as usize].status = PartitionStatus::Running;
    }

    /// Runs slots `slots` of `plan` in the frame that began at
    /// `frame_start`; `inside` resumes the first of them where
    /// [`XmKernel::enter_slot_of`] left it. Stops early when the kernel
    /// dies.
    fn run_slots(
        &mut self,
        guests: &mut GuestSet,
        plan: &PlanCfg,
        frame_start: TimeUs,
        slots: std::ops::Range<usize>,
        mut inside: Option<SlotResume>,
    ) {
        for slot_idx in slots {
            let slot = &plan.slots[slot_idx];
            let slot_start = frame_start + slot.start_us;
            let pid = slot.partition;
            let idx = pid as usize;
            let resumed = inside.take();
            if resumed.is_none() {
                if !self.alive() {
                    return;
                }
                // Idle-slot fast path: an unschedulable partition's slot
                // with no observable event in its window collapses both
                // advances into one horizon-checked clock jump. A
                // quiescent advance cannot change schedulability (or
                // anything else), so pre-checking the status is
                // equivalent to the slow path's advance-then-check
                // ordering; neither path emits SlotBegin/SlotEnd for
                // unschedulable slots.
                if !self.parts[idx].status.schedulable()
                    && self.try_quiescent_advance(slot_start + slot.duration_us)
                {
                    self.hm_reset_flags[idx] = false;
                    continue;
                }
                self.advance_and_process(slot_start.max(self.machine.now()));
                if !self.alive() {
                    return;
                }
                if !self.parts[idx].status.schedulable() {
                    self.hm_reset_flags[idx] = false;
                    self.advance_and_process(
                        (slot_start + slot.duration_us).max(self.machine.now()),
                    );
                    continue;
                }
                self.open_slot(pid, slot_idx, slot.duration_us);
            }
            let consumed = {
                let mut api = match resumed {
                    Some(r) => PartitionApi::resumed(self, pid, slot.duration_us, r),
                    None => PartitionApi::new(self, pid, slot.duration_us),
                };
                guests.run_slot(pid, &mut api);
                api.consumed_us()
            };
            if self.parts[idx].status == PartitionStatus::Running {
                self.parts[idx].status = PartitionStatus::Ready;
            } else if self.parts[idx].status == PartitionStatus::Idle {
                // idle_self lasts until the next slot.
                self.parts[idx].status = PartitionStatus::Ready;
            }
            if !self.alive() {
                return;
            }
            if consumed > slot.duration_us {
                // Temporal isolation violation: the partition held the
                // CPU past its slot, delaying everything after it.
                let overrun = consumed - slot.duration_us;
                self.advance_and_process(slot_start + consumed);
                if !self.alive() {
                    return;
                }
                self.sched.note_overrun();
                self.hm_event(HmEventKind::SchedOverrun { overrun_us: overrun }, Some(pid));
                self.record_slot_end(pid, slot_idx);
            } else {
                self.advance_and_process((slot_start + slot.duration_us).max(self.machine.now()));
                self.record_slot_end(pid, slot_idx);
            }
        }
    }

    /// Flight-records the end of a scheduling slot.
    fn record_slot_end(&self, pid: u32, slot_idx: usize) {
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::SlotEnd,
            pid as u16,
            slot_idx as u32,
            0,
            0,
        );
    }

    /// Restores the whole kernel to `src`'s state in place. `src` must be
    /// the booted prototype this kernel was cloned from (or last restored
    /// to), unmodified since: partition memory comes back through the
    /// dirty-block restore (see
    /// [`AddressSpace::restore_from`](leon3_sim::addrspace::AddressSpace::restore_from)),
    /// everything else through capacity-preserving `clone_from`s. This is
    /// the flat-snapshot reset the campaign executor runs between tests —
    /// one bounded copy, no refcount traffic, allocation-free once the
    /// first restore has warmed the buffers.
    pub fn restore_from(&mut self, src: &Self) {
        // Exhaustive destructuring: adding a field without restoring it
        // becomes a compile error, not a silent determinism bug.
        let XmKernel {
            machine,
            cfg,
            build,
            flags,
            state,
            parts,
            sched,
            ports,
            hm,
            traces,
            hw_vtimers,
            routes,
            ops,
            cold_resets,
            warm_resets,
            exec_timer_owner,
            cache_state,
            io_ports,
            sparc,
            hm_reset_flags,
            frames_run,
            ops_limit,
            vtimer_horizon,
            adv_quiescent,
            adv_processed,
            frame_cursor,
        } = self;
        machine.restore_from(&src.machine);
        // The configuration is shared with `src` since the clone and never
        // changes after boot.
        debug_assert!(Arc::ptr_eq(cfg, &src.cfg), "kernel config mismatch");
        *build = src.build;
        *flags = src.flags;
        state.clone_from(&src.state);
        parts.clone_from(&src.parts);
        sched.clone_from(&src.sched);
        ports.restore_from(&src.ports);
        hm.restore_from(&src.hm);
        debug_assert_eq!(traces.len(), src.traces.len(), "trace stream count mismatch");
        for (t, s) in traces.iter_mut().zip(&src.traces) {
            t.restore_from(s);
        }
        hw_vtimers.clone_from(&src.hw_vtimers);
        routes.clone_from(&src.routes);
        ops.clone_from(&src.ops);
        *cold_resets = src.cold_resets;
        *warm_resets = src.warm_resets;
        *exec_timer_owner = src.exec_timer_owner;
        *cache_state = src.cache_state;
        *io_ports = src.io_ports;
        sparc.clone_from(&src.sparc);
        hm_reset_flags.clone_from(&src.hm_reset_flags);
        *frames_run = src.frames_run;
        *ops_limit = src.ops_limit;
        *vtimer_horizon = src.vtimer_horizon;
        *adv_quiescent = src.adv_quiescent;
        *adv_processed = src.adv_processed;
        *frame_cursor = src.frame_cursor;
    }

    /// Snapshot of everything the harness observes.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            frames_completed: self.frames_run,
            kernel_halt_reason: self.halt_reason(),
            sim_health: self.machine.health().clone(),
            hm_log: self.hm.log().to_vec(),
            ops_log: self.ops.clone(),
            partition_final: self.parts.iter().map(|p| p.status).collect(),
            console: self.machine.uart.captured().to_string(),
            cold_resets: self.cold_resets,
            warm_resets: self.warm_resets,
        }
    }

    /// Consumes the kernel into its observation summary, moving the HM
    /// log, ops journal and console capture instead of cloning them.
    /// Byte-identical to [`XmKernel::summary`]; the campaign executor uses
    /// this because each test discards its kernel right after reading the
    /// summary.
    pub fn into_summary(self) -> RunSummary {
        RunSummary {
            frames_completed: self.frames_run,
            kernel_halt_reason: self.halt_reason(),
            sim_health: self.machine.health().clone(),
            hm_log: self.hm.into_log(),
            ops_log: self.ops,
            partition_final: self.parts.iter().map(|p| p.status).collect(),
            console: self.machine.uart.into_captured(),
            cold_resets: self.cold_resets,
            warm_resets: self.warm_resets,
        }
    }

    /// Hypercall entry point: permission check, dispatch, cost accounting.
    pub fn hypercall(&mut self, caller: u32, hc: &RawHypercall) -> HcResponse {
        let base = self.cfg.tuning.hypercall_cost_us;
        if !self.alive() {
            return HcResponse {
                result: HcResult::NoReturn(if self.machine.is_running() {
                    NoReturnKind::SystemHalt
                } else {
                    NoReturnKind::SimulatorCrashed
                }),
                cost_us: 0,
            };
        }
        if caller as usize >= self.parts.len() {
            return HcResponse {
                result: HcResult::Ret(crate::retcode::XmRet::PermError.code()),
                cost_us: base,
            };
        }
        let def = hc.id.def();
        if def.system_only && !self.cfg.partitions[caller as usize].system {
            return HcResponse {
                result: HcResult::Ret(crate::retcode::XmRet::PermError.code()),
                cost_us: base,
            };
        }
        let (result, extra) = self.dispatch(caller, hc);
        // If the service killed the simulator or halted the kernel,
        // translate the outcome.
        let result = if !self.machine.is_running() {
            HcResult::NoReturn(NoReturnKind::SimulatorCrashed)
        } else if !matches!(self.state, KernelState::Normal) {
            match result {
                HcResult::NoReturn(
                    k @ (NoReturnKind::SystemHalt
                    | NoReturnKind::SystemColdReset
                    | NoReturnKind::SystemWarmReset),
                ) => HcResult::NoReturn(k),
                _ => HcResult::NoReturn(NoReturnKind::SystemHalt),
            }
        } else {
            result
        };
        HcResponse { result, cost_us: base + extra }
    }

    /// Cheap, comparable projection of the kernel's architectural state,
    /// taken from `caller`'s point of view. The sequence campaign's
    /// differential oracle diffs this against its reference state machine
    /// after every frame; every field here must be *exactly* predictable
    /// from documented hypercall semantics alone.
    ///
    /// This collects the digest; the lockstep hot path compares and hashes
    /// the same fields in place ([`state_matches`](Self::state_matches),
    /// [`state_hash`](Self::state_hash)) and keeps this as the renderer and
    /// the reference debug builds check those against.
    pub fn state_digest(&self, caller: u32) -> StateDigest {
        let mut digest = StateDigest::default();
        self.write_state_digest(caller, &mut digest);
        digest
    }

    /// Overwrites `out` with [`state_digest`](Self::state_digest), reusing
    /// its vectors' capacity.
    fn write_state_digest(&self, caller: u32, out: &mut StateDigest) {
        out.alive = self.alive();
        out.sim_running = self.machine.is_running();
        out.partition_status.clear();
        out.partition_status.extend(self.parts.iter().map(|p| p.status));
        out.reset_counts.clear();
        out.reset_counts.extend(self.parts.iter().map(|p| p.reset_count));
        out.current_plan = self.sched.current_plan_id();
        out.pending_plan = self.sched.pending_plan_id();
        out.hw_timer_armed.clear();
        out.hw_timer_armed.extend(self.hw_vtimers.iter().map(|t| t.armed));
        out.exec_timer_owner = self.exec_timer_owner;
        out.cold_resets = self.cold_resets;
        out.warm_resets = self.warm_resets;
        out.hm_entries = self.hm.len() as u32;
        out.hm_cursor = self.hm.cursor as u32;
        out.caller_ports = self.port_count(caller) as u32;
    }

    /// The digest's fields read in place, without collecting them.
    fn digest_fields(
        &self,
        caller: u32,
    ) -> DigestFields<
        impl ExactSizeIterator<Item = PartitionStatus> + '_,
        impl Iterator<Item = u32> + '_,
        impl Iterator<Item = bool> + '_,
    > {
        DigestFields {
            alive: self.alive(),
            sim_running: self.machine.is_running(),
            partition_status: self.parts.iter().map(|p| p.status),
            reset_counts: self.parts.iter().map(|p| p.reset_count),
            current_plan: self.sched.current_plan_id(),
            pending_plan: self.sched.pending_plan_id(),
            hw_timer_armed: self.hw_vtimers.iter().map(|t| t.armed),
            exec_timer_owner: self.exec_timer_owner,
            cold_resets: self.cold_resets,
            warm_resets: self.warm_resets,
            hm_entries: self.hm.len() as u32,
            hm_cursor: self.hm.cursor as u32,
            caller_ports: self.port_count(caller) as u32,
        }
    }

    /// `self.state_digest(caller) == *want`, compared in place: no
    /// allocation, and it stops at the first differing field.
    pub fn state_matches(&self, caller: u32, want: &StateDigest) -> bool {
        let matches = self.digest_fields(caller).matches(want);
        #[cfg(debug_assertions)]
        SHADOW_DIGEST.with_borrow_mut(|d| {
            self.write_state_digest(caller, d);
            debug_assert_eq!(matches, *d == *want, "state_matches diverged from state_digest");
        });
        matches
    }

    /// `self.state_digest(caller).stable_hash()`, folded in place without
    /// collecting the digest.
    pub fn state_hash(&self, caller: u32) -> u64 {
        let hash = self.digest_fields(caller).stable_hash();
        #[cfg(debug_assertions)]
        SHADOW_DIGEST.with_borrow_mut(|d| {
            self.write_state_digest(caller, d);
            debug_assert_eq!(hash, d.stable_hash(), "state_hash diverged from state_digest");
        });
        hash
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// The reference digest debug builds collect to shadow-check
    /// [`XmKernel::state_matches`] and [`XmKernel::state_hash`]. Reused,
    /// so the shadow allocates only while its vectors first grow.
    static SHADOW_DIGEST: std::cell::RefCell<StateDigest> =
        std::cell::RefCell::new(StateDigest::default());
}

/// The [`StateDigest`] fields in declaration order, with the
/// per-partition vectors as iterators: what a collected digest and the
/// kernel itself both present, so one fold hashes either and one
/// comparison matches the kernel against a prediction in place.
struct DigestFields<S, R, A> {
    alive: bool,
    sim_running: bool,
    partition_status: S,
    reset_counts: R,
    current_plan: u32,
    pending_plan: Option<u32>,
    hw_timer_armed: A,
    exec_timer_owner: Option<u32>,
    cold_resets: u32,
    warm_resets: u32,
    hm_entries: u32,
    hm_cursor: u32,
    caller_ports: u32,
}

impl<S, R, A> DigestFields<S, R, A>
where
    S: ExactSizeIterator<Item = PartitionStatus>,
    R: Iterator<Item = u32>,
    A: Iterator<Item = bool>,
{
    /// See [`StateDigest::stable_hash`].
    fn stable_hash(self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut fold = |w: u64| h = (h ^ w).wrapping_mul(PRIME);
        fold(self.alive as u64);
        fold(self.sim_running as u64);
        fold(self.partition_status.len() as u64);
        for s in self.partition_status {
            fold(s as u64);
        }
        for c in self.reset_counts {
            fold(c as u64);
        }
        fold(self.current_plan as u64);
        fold(self.pending_plan.map_or(u64::MAX, u64::from));
        for armed in self.hw_timer_armed {
            fold(armed as u64);
        }
        fold(self.exec_timer_owner.map_or(u64::MAX, u64::from));
        fold(self.cold_resets as u64);
        fold(self.warm_resets as u64);
        fold(self.hm_entries as u64);
        fold(self.hm_cursor as u64);
        fold(self.caller_ports as u64);
        h
    }

    /// Field-wise equality with `want`: scalars first, then the vectors
    /// element by element (lengths included).
    fn matches(self, want: &StateDigest) -> bool {
        self.alive == want.alive
            && self.sim_running == want.sim_running
            && self.current_plan == want.current_plan
            && self.pending_plan == want.pending_plan
            && self.exec_timer_owner == want.exec_timer_owner
            && self.cold_resets == want.cold_resets
            && self.warm_resets == want.warm_resets
            && self.hm_entries == want.hm_entries
            && self.hm_cursor == want.hm_cursor
            && self.caller_ports == want.caller_ports
            && self.partition_status.eq(want.partition_status.iter().copied())
            && self.reset_counts.eq(want.reset_counts.iter().copied())
            && self.hw_timer_armed.eq(want.hw_timer_armed.iter().copied())
    }
}

/// Snapshot of the architectural state compared by the stepwise
/// differential oracle (see [`XmKernel::state_digest`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDigest {
    /// Kernel in `Normal` state and simulator running.
    pub alive: bool,
    /// Simulator operational (false after a TSIM-style crash).
    pub sim_running: bool,
    /// Per-partition scheduling status.
    pub partition_status: Vec<PartitionStatus>,
    /// Per-partition reset counters.
    pub reset_counts: Vec<u32>,
    /// Active scheduling plan id.
    pub current_plan: u32,
    /// Plan switch pending at the next frame boundary.
    pub pending_plan: Option<u32>,
    /// Per-partition HW-clock virtual timer armed flags.
    pub hw_timer_armed: Vec<bool>,
    /// Partition owning the shared EXEC-clock timer unit, if armed.
    pub exec_timer_owner: Option<u32>,
    /// System cold resets performed since boot.
    pub cold_resets: u32,
    /// System warm resets performed since boot.
    pub warm_resets: u32,
    /// Health-monitor log length.
    pub hm_entries: u32,
    /// Health-monitor read cursor.
    pub hm_cursor: u32,
    /// Ports created by the observing partition.
    pub caller_ports: u32,
}

impl StateDigest {
    /// Field-by-field difference against another digest, rendered as
    /// `field: expected X, kernel Y` lines (empty when equal). `self` is
    /// the reference model's prediction, `kernel` the observed state.
    pub fn diff(&self, kernel: &StateDigest) -> Vec<String> {
        let mut out = Vec::new();
        fn push<T: std::fmt::Debug + PartialEq>(out: &mut Vec<String>, name: &str, a: &T, b: &T) {
            if a != b {
                out.push(format!("{name}: expected {a:?}, kernel {b:?}"));
            }
        }
        push(&mut out, "alive", &self.alive, &kernel.alive);
        push(&mut out, "sim_running", &self.sim_running, &kernel.sim_running);
        push(&mut out, "partition_status", &self.partition_status, &kernel.partition_status);
        push(&mut out, "reset_counts", &self.reset_counts, &kernel.reset_counts);
        push(&mut out, "current_plan", &self.current_plan, &kernel.current_plan);
        push(&mut out, "pending_plan", &self.pending_plan, &kernel.pending_plan);
        push(&mut out, "hw_timer_armed", &self.hw_timer_armed, &kernel.hw_timer_armed);
        push(&mut out, "exec_timer_owner", &self.exec_timer_owner, &kernel.exec_timer_owner);
        push(&mut out, "cold_resets", &self.cold_resets, &kernel.cold_resets);
        push(&mut out, "warm_resets", &self.warm_resets, &kernel.warm_resets);
        push(&mut out, "hm_entries", &self.hm_entries, &kernel.hm_entries);
        push(&mut out, "hm_cursor", &self.hm_cursor, &kernel.hm_cursor);
        push(&mut out, "caller_ports", &self.caller_ports, &kernel.caller_ports);
        out
    }

    /// Stable 64-bit hash of every digest field, in declaration order.
    /// The fuzzer folds one of these per major frame into its coverage
    /// stream, so two sequences that drive the kernel through different
    /// architectural states hash differently even when their event
    /// streams agree. Equal digests always hash equal; the value depends
    /// only on field contents (never addresses or iteration order), so
    /// it is reproducible across runs, threads and platforms.
    pub fn stable_hash(&self) -> u64 {
        DigestFields {
            alive: self.alive,
            sim_running: self.sim_running,
            partition_status: self.partition_status.iter().copied(),
            reset_counts: self.reset_counts.iter().copied(),
            current_plan: self.current_plan,
            pending_plan: self.pending_plan,
            hw_timer_armed: self.hw_timer_armed.iter().copied(),
            exec_timer_owner: self.exec_timer_owner,
            cold_resets: self.cold_resets,
            warm_resets: self.warm_resets,
            hm_entries: self.hm_entries,
            hm_cursor: self.hm_cursor,
            caller_ports: self.caller_ports,
        }
        .stable_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemAreaCfg, PartitionCfg, PlanCfg, SlotCfg};
    use crate::hypercall::HypercallId;
    use crate::retcode::XmRet;

    pub(crate) fn test_config() -> XmConfig {
        XmConfig {
            partitions: vec![
                PartitionCfg {
                    id: 0,
                    name: "sys".into(),
                    system: true,
                    mem: vec![MemAreaCfg { base: 0x4010_0000, size: 0x1_0000, perms: Perms::RWX }],
                },
                PartitionCfg {
                    id: 1,
                    name: "app".into(),
                    system: false,
                    mem: vec![MemAreaCfg { base: 0x4020_0000, size: 0x1_0000, perms: Perms::RWX }],
                },
            ],
            plans: vec![PlanCfg {
                id: 0,
                major_frame_us: 100_000,
                slots: vec![
                    SlotCfg { partition: 0, start_us: 0, duration_us: 50_000 },
                    SlotCfg { partition: 1, start_us: 50_000, duration_us: 50_000 },
                ],
            }],
            channels: vec![],
            hm_table: XmConfig::default_hm_table(),
            tuning: Default::default(),
        }
    }

    #[test]
    fn boot_builds_memory_map() {
        let k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        assert!(k.alive());
        assert!(k.machine.mem.region_at(KERNEL_BASE).is_some());
        assert!(k.machine.mem.region_at(0x4010_0000).is_some());
        assert!(k.machine.mem.region_at(0x4020_0000).is_some());
        assert_eq!(k.parts.len(), 2);
    }

    #[test]
    fn boot_rejects_invalid_config() {
        let mut cfg = test_config();
        cfg.partitions.clear();
        assert!(XmKernel::boot(cfg, KernelBuild::Legacy).is_err());
    }

    #[test]
    fn boot_rejects_overlapping_partition_memory() {
        let mut cfg = test_config();
        cfg.partitions[1].mem[0].base = 0x4010_8000; // overlaps partition 0
        let err = XmKernel::boot(cfg, KernelBuild::Legacy).unwrap_err();
        assert!(err.iter().any(|e| e.contains("overlaps")));
    }

    #[test]
    fn run_idle_frames_completes() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let mut guests = GuestSet::idle(2);
        let s = k.run_major_frames(&mut guests, 3);
        assert_eq!(s.frames_completed, 3);
        assert!(s.healthy());
        assert_eq!(k.machine.now(), 300_000);
    }

    #[test]
    fn normal_partition_cannot_call_system_services() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let hc = RawHypercall::new(HypercallId::ResetSystem, vec![0]).unwrap();
        let r = k.hypercall(1, &hc);
        assert_eq!(r.result, HcResult::Ret(XmRet::PermError.code()));
        assert!(k.alive(), "a denied request must not reset the system");
    }

    #[test]
    fn hypercalls_cost_time() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let hc = RawHypercall::new(HypercallId::GetPlanStatus, vec![0]).unwrap();
        let r = k.hypercall(0, &hc);
        assert_eq!(r.cost_us, k.cfg.tuning.hypercall_cost_us);
    }

    /// Calls `XM_get_time` into its own memory once per slot, so every
    /// slot leaves hypercalls, dirty pages and flight events behind.
    struct Clock(u64);

    impl crate::guest::GuestProgram for Clock {
        fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
            let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::GetTime, [0, self.0]));
        }
    }

    fn clock_guests() -> GuestSet {
        let mut guests = GuestSet::idle(2);
        guests.set(0, Box::new(Clock(0x4010_0000)));
        guests.set(1, Box::new(Clock(0x4020_0000)));
        guests
    }

    /// What the harness observes of a kernel: the summary, the advance
    /// stats and the clock.
    fn observed(k: &XmKernel) -> String {
        format!("{:?}|{:?}|{}", k.summary(), k.advance_stats(), k.machine.now())
    }

    /// Steps `n` frames one at a time, returning each frame's digest.
    fn frame_digests(k: &mut XmKernel, guests: &mut GuestSet, n: u32) -> Vec<StateDigest> {
        (0..n)
            .map(|_| {
                k.step_major_frames(guests, 1);
                k.state_digest(1)
            })
            .collect()
    }

    /// A booted kernel run up to `pid`'s first slot.
    fn prefixed(pid: u32) -> (XmKernel, GuestSet) {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let mut guests = clock_guests();
        k.step_until_slot_of(&mut guests, pid);
        (k, guests)
    }

    #[test]
    fn resuming_after_a_prefix_equals_stepping_from_boot() {
        // pid 0 owns slot 0, pid 1 slot 1, pid 7 no slot.
        for pid in [0, 1, 7] {
            for n in 1..=4 {
                let mut boot = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
                let want_digests = frame_digests(&mut boot, &mut clock_guests(), n);
                let want = observed(&boot);

                let (mut k, mut guests) = prefixed(pid);
                assert_eq!(frame_digests(&mut k, &mut guests, n), want_digests, "pid {pid}");
                assert_eq!(observed(&k), want, "pid {pid}, {n} single frames");

                let (mut k, mut guests) = prefixed(pid);
                k.step_major_frames(&mut guests, n);
                assert_eq!(observed(&k), want, "pid {pid}, {n} frames in one call");
            }
        }
    }

    #[test]
    fn prefix_stops_before_the_partitions_first_slot() {
        let (mut k, mut guests) = prefixed(1);
        assert_eq!(k.machine.now(), 50_000, "slot 0 ran to its end");
        assert_eq!(k.summary().frames_completed, 0, "no frame boundary crossed");
        // Stepping again for the same partition is a no-op.
        let before = observed(&k);
        k.step_until_slot_of(&mut guests, 1);
        assert_eq!(observed(&k), before);
    }

    #[test]
    fn empty_prefix_runs_nothing() {
        for pid in [0, 7] {
            let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
            let mut guests = clock_guests();
            let ((), flight) = flightrec::capture(|| k.step_until_slot_of(&mut guests, pid));
            assert!(flight.events.is_empty(), "pid {pid} recorded {:?}", flight.events);
            assert_eq!(k.machine.now(), 0);
            assert_eq!(k.advance_stats(), (0, 0));
            assert!(k.frame_cursor.is_none(), "pid {pid} left a resume point");
        }
    }

    #[test]
    fn restore_carries_the_resume_point() {
        let (proto, _) = prefixed(1);
        let mut want = proto.clone();
        let want_digests = frame_digests(&mut want, &mut clock_guests(), 3);
        let mut ws = proto.clone();
        ws.step_major_frames(&mut clock_guests(), 2);
        ws.restore_from(&proto);
        assert_eq!(frame_digests(&mut ws, &mut clock_guests(), 3), want_digests);
        assert_eq!(observed(&ws), observed(&want));
    }

    type Prologue = fn(&mut PartitionApi<'_>);

    /// Runs its prologue once per boot ([`PartitionApi::needs_prologue`])
    /// then reads the clock into its memory every slot.
    struct Booting {
        prologue: Prologue,
        last: Option<u32>,
        clock_at: u64,
    }

    impl crate::guest::GuestProgram for Booting {
        fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
            if api.needs_prologue(&mut self.last) {
                (self.prologue)(api);
            }
            if api.ended().is_none() {
                let clock = [0, self.clock_at];
                let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::GetTime, clock));
            }
        }
    }

    /// `test_config` plus a sampling channel from partition 1 to 0.
    fn channel_config() -> XmConfig {
        XmConfig {
            channels: vec![crate::config::ChannelCfg {
                name: "S".into(),
                kind: crate::config::PortKind::Sampling,
                max_msg_size: 8,
                max_msgs: 0,
                source: 1,
                destinations: vec![0],
            }],
            ..test_config()
        }
    }

    /// The message [`sampling_prologue`] writes.
    const SAMPLE: &[u8] = b"prologue";

    /// Partition 1's prologue: burns time, creates its sampling port and
    /// writes [`SAMPLE`] (partition 0 is the channel's destination, so its
    /// port and write fail).
    fn sampling_prologue(api: &mut PartitionApi<'_>) {
        let call = |id, args: &[u64]| RawHypercall::new_unchecked(id, args);
        api.consume(700);
        let _ = api.write_bytes(0x4020_0100, b"S\0");
        let _ = api.write_bytes(0x4020_0200, SAMPLE);
        let _ = api.hypercall(&call(HypercallId::CreateSamplingPort, &[0x4020_0100, 8, 0]));
        let _ = api.hypercall(&call(HypercallId::WriteSamplingMessage, &[0, 0x4020_0200, 8]));
    }

    /// Leaves 1 µs of the 50 ms slot, so the guest's call after it
    /// overruns the slot.
    fn busy_prologue(api: &mut PartitionApi<'_>) {
        api.consume(49_999);
    }

    fn suspending_prologue(api: &mut PartitionApi<'_>) {
        let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::SuspendSelf, []));
    }

    fn halting_prologue(api: &mut PartitionApi<'_>) {
        let _ = api.hypercall(&RawHypercall::new_unchecked(HypercallId::HaltSystem, []));
    }

    /// Both partitions run `Booting` guests; `pid`'s has `prologue`.
    fn booting(pid: u32, prologue: Prologue) -> (XmKernel, GuestSet) {
        let k = XmKernel::boot(channel_config(), KernelBuild::Legacy).unwrap();
        let mut guests = GuestSet::idle(2);
        for (p, clock_at) in [(0, 0x4010_0000), (1, 0x4020_0000)] {
            let prologue = if p == pid { prologue } else { |_: &mut PartitionApi<'_>| {} };
            guests.set(p, Box::new(Booting { prologue, last: None, clock_at }));
        }
        (k, guests)
    }

    /// [`observed`], the HM reset flags, `channel_config`'s channel (its
    /// sample and write count) and the clock readings `Booting` guests
    /// stored.
    fn with_flags(k: &XmKernel) -> String {
        let clocks = [0x4010_0000, 0x4020_0000]
            .map(|at| k.machine.mem.read_bytes(leon3_sim::addrspace::AccessCtx::Kernel, at, 8));
        let channel = k.ports.channel(0);
        format!("{}|{:?}|{channel:?}|{clocks:?}", observed(k), k.hm_reset_flags())
    }

    /// `channel_config`'s channel: its sample and how many writes it has
    /// counted.
    fn sample_of(k: &XmKernel) -> (Option<&[u8]>, u64) {
        let channel = k.ports.channel(0).unwrap();
        (channel.sample(), channel.sample_seq)
    }

    /// Stepping on from inside a slot whose prologue `enter_slot_of` ran
    /// equals stepping from boot — also when the prologue wrote a sample
    /// (which, with its write count, is in the channel as soon as the
    /// slot opens and stays there), used up the slot, suspended its
    /// partition or halted the kernel.
    #[test]
    fn entering_a_slot_after_its_prologue_equals_stepping_from_boot() {
        let cases: [(u32, Prologue, Option<&[u8]>); 5] = [
            (1, sampling_prologue, Some(SAMPLE)),
            (0, sampling_prologue, None),
            (1, busy_prologue, None),
            (1, suspending_prologue, None),
            (0, halting_prologue, None),
        ];
        for (pid, prologue, sample) in cases {
            let writes = u64::from(sample.is_some());
            for n in 1..=3 {
                let (mut boot, mut guests) = booting(pid, prologue);
                let want_digests = frame_digests(&mut boot, &mut guests, n);
                let want = with_flags(&boot);
                assert_eq!(sample_of(&boot), (sample, writes), "pid {pid}: from boot");

                let (mut k, mut guests) = booting(pid, prologue);
                k.step_until_slot_of(&mut guests, pid);
                assert!(k.enter_slot_of(pid, prologue), "pid {pid}: the slot opens");
                assert_eq!(k.summary().frames_completed, 0);
                assert_eq!(sample_of(&k), (sample, writes), "pid {pid}: in the slot");
                assert_eq!(frame_digests(&mut k, &mut guests, n), want_digests, "pid {pid}");
                assert_eq!(with_flags(&k), want, "pid {pid}, {n} frames");
            }
        }
    }

    /// `enter_slot_of` refuses, changing nothing, when the next slot is
    /// not the partition's, the partition cannot run, an armed timer is
    /// due at the slot's start, or the slot is already open.
    #[test]
    fn entering_a_slot_refuses_and_changes_nothing() {
        let refuses = |k: &mut XmKernel, label: &str| {
            let before = (with_flags(k), k.state_digest(1), format!("{:?}", k.frame_cursor));
            assert!(!k.enter_slot_of(1, sampling_prologue), "{label}: opened");
            let after = (with_flags(k), k.state_digest(1), format!("{:?}", k.frame_cursor));
            assert_eq!(after, before, "{label}: changed the kernel");
        };
        let (mut k, _) = booting(1, sampling_prologue);
        refuses(&mut k, "slot 0 is partition 0's");

        let (mut k, mut guests) = booting(1, sampling_prologue);
        let suspend = RawHypercall::new_unchecked(HypercallId::SuspendPartition, [1]);
        assert_eq!(k.hypercall(0, &suspend).result, HcResult::Ret(0));
        k.step_until_slot_of(&mut guests, 1);
        refuses(&mut k, "partition 1 is suspended");

        let (mut k, mut guests) = booting(1, sampling_prologue);
        k.step_until_slot_of(&mut guests, 1);
        let past = RawHypercall::new_unchecked(HypercallId::SetTimer, [0, 1, 0]);
        assert_eq!(k.hypercall(1, &past).result, HcResult::Ret(0));
        refuses(&mut k, "a vtimer is due");

        let (mut k, mut guests) = booting(1, sampling_prologue);
        k.step_until_slot_of(&mut guests, 1);
        assert!(k.enter_slot_of(1, sampling_prologue));
        refuses(&mut k, "the slot is open");
    }

    /// A snapshot taken inside a slot carries the sample its prologue
    /// wrote and the write count: a kernel that wrote again and was
    /// restored to it holds them, and stepped on equals a run from boot.
    #[test]
    fn restore_carries_the_prologues_sample() {
        let (mut proto, mut guests) = booting(1, sampling_prologue);
        proto.step_until_slot_of(&mut guests, 1);
        assert!(proto.enter_slot_of(1, sampling_prologue));
        assert_eq!(sample_of(&proto), (Some(SAMPLE), 1), "the prologue's write landed");
        let fresh = || booting(1, sampling_prologue).1;
        let mut from_boot = XmKernel::boot(channel_config(), KernelBuild::Legacy).unwrap();
        let want_digests = frame_digests(&mut from_boot, &mut booting(1, sampling_prologue).1, 3);
        let mut ws = proto.clone();
        ws.step_major_frames(&mut fresh(), 2);
        let write =
            RawHypercall::new_unchecked(HypercallId::WriteSamplingMessage, [0, 0x4020_0100, 2]);
        assert_eq!(ws.hypercall(1, &write).result, HcResult::Ret(0));
        assert_eq!(sample_of(&ws), (Some(&b"S\0"[..]), 2));
        ws.restore_from(&proto);
        assert_eq!(sample_of(&ws), (Some(SAMPLE), 1), "restored");
        assert_eq!(frame_digests(&mut ws, &mut fresh(), 3), want_digests);
        assert_eq!(with_flags(&ws), with_flags(&from_boot));
        assert_eq!(sample_of(&ws), (Some(SAMPLE), 1), "resumed");
    }

    #[test]
    fn unknown_caller_rejected() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let hc = RawHypercall::new(HypercallId::GetPlanStatus, vec![0]).unwrap();
        let r = k.hypercall(9, &hc);
        assert_eq!(r.result, HcResult::Ret(XmRet::PermError.code()));
    }
}

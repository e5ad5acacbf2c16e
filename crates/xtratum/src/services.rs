//! Hypercall service implementations.
//!
//! Every service validates its raw arguments in a *documented, canonical
//! order* — the robustness oracle (`skrt::oracle`) mirrors this order, and
//! the fault-masking analysis (paper Fig. 7) depends on it: a parameter is
//! only reached once every earlier parameter validated successfully.
//!
//! Services marked *legacy-defective* consult [`crate::vuln::VulnFlags`]
//! and reproduce the exact failure behaviours of paper Section IV.

use crate::config::{PortDirection, PortKind};
use crate::hm::HmEventKind;
use crate::hypercall::{HypercallId, RawHypercall};
use crate::ipc::IpcError;
use crate::kernel::{HcResult, NoReturnKind, XmKernel, VIRQ_SHUTDOWN};
use crate::observe::{OpsEvent, ResetKind};
use crate::partition::PartitionStatus;
use crate::retcode::XmRet;
use crate::types::{XM_EXEC_CLOCK, XM_HW_CLOCK};
use leon3_sim::addrspace::{AccessCtx, AccessKind};

/// Numeric encoding of partition status for status hypercalls.
pub fn status_code(s: PartitionStatus) -> u32 {
    match s {
        PartitionStatus::Ready => 1,
        PartitionStatus::Running => 2,
        PartitionStatus::Suspended => 3,
        PartitionStatus::Idle => 4,
        PartitionStatus::Halted => 5,
        PartitionStatus::Shutdown => 6,
    }
}

/// Numeric encoding of HM event classes for `XM_hm_read`.
pub fn hm_class_code(kind: &HmEventKind) -> u32 {
    match kind {
        HmEventKind::PartitionTrap { .. } => 1,
        HmEventKind::KernelTrap { .. } => 2,
        HmEventKind::SchedOverrun { .. } => 3,
        HmEventKind::PartitionRaised { .. } => 4,
    }
}

const OK: HcResult = HcResult::Ret(0);

fn ret(code: XmRet) -> HcResult {
    HcResult::Ret(code.code())
}

fn ipc_err(e: IpcError) -> HcResult {
    ret(match e {
        IpcError::NoSuchChannel | IpcError::GeometryMismatch => XmRet::InvalidConfig,
        IpcError::NotParticipant => XmRet::PermError,
        IpcError::WrongDirection => XmRet::OpNotAllowed,
        IpcError::AlreadyCreated => XmRet::NoAction,
        IpcError::BadDescriptor | IpcError::NotOwner | IpcError::BadSize => XmRet::InvalidParam,
        IpcError::QueueFull | IpcError::Empty => XmRet::NotAvailable,
    })
}

impl XmKernel {
    // ----- caller-context memory helpers (parameter validation) -----

    fn svc_check(
        &self,
        caller: u32,
        addr: u32,
        len: u32,
        align: u32,
        kind: AccessKind,
    ) -> Result<(), XmRet> {
        self.machine
            .mem
            .check(AccessCtx::Partition(caller), addr, len, align, kind)
            .map_err(|_| XmRet::InvalidParam)
    }

    fn svc_read_bytes(&self, caller: u32, addr: u32, len: u32) -> Result<Vec<u8>, XmRet> {
        self.machine
            .mem
            .read_bytes(AccessCtx::Partition(caller), addr, len)
            .map_err(|_| XmRet::InvalidParam)
    }

    fn svc_write_u32s(&mut self, caller: u32, addr: u32, words: &[u32]) -> Result<(), XmRet> {
        // One range check, then consecutive stores — the whole-range
        // validation means partial writes never happen, exactly as the
        // old per-word path guaranteed.
        self.machine
            .mem
            .write_u32s(AccessCtx::Partition(caller), addr, words)
            .map_err(|_| XmRet::InvalidParam)
    }

    fn svc_read_u32(&self, caller: u32, addr: u32) -> Result<u32, XmRet> {
        self.machine
            .mem
            .read_u32(AccessCtx::Partition(caller), addr)
            .map_err(|_| XmRet::InvalidParam)
    }

    fn svc_write_u64(&mut self, caller: u32, addr: u32, v: u64) -> Result<(), XmRet> {
        self.machine
            .mem
            .write_u64(AccessCtx::Partition(caller), addr, v)
            .map_err(|_| XmRet::InvalidParam)
    }

    /// Reads a NUL-terminated name of at most 31 bytes from caller memory
    /// into `buf`, the caller's stack buffer. Scans region-contiguous runs
    /// instead of issuing a permission check per byte; permissions are
    /// uniform within a region, so a fault surfaces at exactly the byte
    /// the per-byte loop would have faulted on, and a NUL inside a
    /// readable run still wins over a fault after it.
    fn svc_read_name<'b>(
        &self,
        caller: u32,
        addr: u32,
        buf: &'b mut [u8; 32],
    ) -> Result<&'b str, XmRet> {
        let mut pos = 0;
        while pos < buf.len() {
            let run = self
                .machine
                .mem
                .read_run(
                    AccessCtx::Partition(caller),
                    addr.wrapping_add(pos as u32),
                    (buf.len() - pos) as u32,
                )
                .map_err(|_| XmRet::InvalidParam)?;
            let nul = run.iter().position(|&b| b == 0);
            let n = nul.unwrap_or(run.len());
            buf[pos..pos + n].copy_from_slice(&run[..n]);
            pos += n;
            if nul.is_some() {
                return std::str::from_utf8(&buf[..pos]).map_err(|_| XmRet::InvalidParam);
            }
        }
        Err(XmRet::InvalidParam) // unterminated
    }

    fn valid_part(&self, id: i32) -> Option<usize> {
        if id >= 0 && (id as usize) < self.parts.len() {
            Some(id as usize)
        } else {
            None
        }
    }

    fn is_system(&self, caller: u32) -> bool {
        self.cfg.partitions[caller as usize].system
    }

    // ----- dispatch -----

    /// Routes a raw hypercall to its service. Returns the outcome and any
    /// extra execution-time cost beyond the fixed hypercall cost.
    pub(crate) fn dispatch(&mut self, caller: u32, hc: &RawHypercall) -> (HcResult, u64) {
        use HypercallId as H;
        match hc.id {
            H::HaltSystem => (self.svc_halt_system(caller), 0),
            H::ResetSystem => (self.svc_reset_system(caller, hc.arg32(0)), 0),
            H::GetSystemStatus => (self.svc_get_system_status(caller, hc.arg32(0)), 0),
            H::HaltPartition => (self.svc_halt_partition(caller, hc.arg_s32(0)), 0),
            H::ResetPartition => {
                (self.svc_reset_partition(caller, hc.arg_s32(0), hc.arg32(1), hc.arg32(2)), 0)
            }
            H::SuspendPartition => (self.svc_suspend_partition(caller, hc.arg_s32(0)), 0),
            H::ResumePartition => (self.svc_resume_partition(caller, hc.arg_s32(0)), 0),
            H::ShutdownPartition => (self.svc_shutdown_partition(caller, hc.arg_s32(0)), 0),
            H::GetPartitionStatus => {
                (self.svc_get_partition_status(caller, hc.arg_s32(0), hc.arg32(1)), 0)
            }
            H::SetPartitionOpMode => (self.svc_set_partition_opmode(caller, hc.arg_s32(0)), 0),
            H::IdleSelf => (self.svc_idle_self(caller), 0),
            H::SuspendSelf => (self.svc_suspend_self(caller), 0),
            H::ParamsGetPct => (self.svc_params_get_pct(caller), 0),
            H::GetTime => (self.svc_get_time(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::SetTimer => {
                (self.svc_set_timer(caller, hc.arg32(0), hc.arg_s64(1), hc.arg_s64(2)), 0)
            }
            H::SwitchSchedPlan => {
                (self.svc_switch_sched_plan(caller, hc.arg_s32(0), hc.arg32(1)), 0)
            }
            H::GetPlanStatus => (self.svc_get_plan_status(caller, hc.arg32(0)), 0),
            H::CreateSamplingPort => (
                self.svc_create_port(
                    caller,
                    hc.arg32(0),
                    hc.arg32(1),
                    None,
                    hc.arg32(2),
                    PortKind::Sampling,
                ),
                0,
            ),
            H::WriteSamplingMessage => {
                let (desc, ptr, size) = (hc.arg_s32(0), hc.arg32(1), hc.arg32(2));
                (self.svc_put_message(caller, desc, ptr, size, PortKind::Sampling), 0)
            }
            H::ReadSamplingMessage => (
                self.svc_read_sampling(
                    caller,
                    hc.arg_s32(0),
                    hc.arg32(1),
                    hc.arg32(2),
                    hc.arg32(3),
                ),
                0,
            ),
            H::CreateQueuingPort => (
                self.svc_create_port(
                    caller,
                    hc.arg32(0),
                    hc.arg32(2),
                    Some(hc.arg32(1)),
                    hc.arg32(3),
                    PortKind::Queuing,
                ),
                0,
            ),
            H::SendQueuingMessage => {
                let (desc, ptr, size) = (hc.arg_s32(0), hc.arg32(1), hc.arg32(2));
                (self.svc_put_message(caller, desc, ptr, size, PortKind::Queuing), 0)
            }
            H::ReceiveQueuingMessage => (
                self.svc_receive_queuing(
                    caller,
                    hc.arg_s32(0),
                    hc.arg32(1),
                    hc.arg32(2),
                    hc.arg32(3),
                ),
                0,
            ),
            H::GetSamplingPortStatus => {
                (self.svc_port_status(caller, hc.arg_s32(0), hc.arg32(1), PortKind::Sampling), 0)
            }
            H::GetQueuingPortStatus => {
                (self.svc_port_status(caller, hc.arg_s32(0), hc.arg32(1), PortKind::Queuing), 0)
            }
            H::FlushPort => (self.svc_flush_port(caller, hc.arg_s32(0)), 0),
            H::FlushAllPorts => (self.svc_flush_all_ports(caller), 0),
            H::MemoryCopy => {
                (self.svc_memory_copy(caller, hc.arg32(0), hc.arg32(1), hc.arg32(2)), 0)
            }
            H::UpdatePage32 => (self.svc_update_page32(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::HmOpen => (self.svc_hm_open(), 0),
            H::HmRead => (self.svc_hm_read(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::HmSeek => (self.svc_hm_seek(hc.arg_s32(0), hc.arg32(1)), 0),
            H::HmStatus => (self.svc_hm_status(caller, hc.arg32(0)), 0),
            H::HmRaiseEvent => (self.svc_hm_raise_event(caller, hc.arg32(0)), 0),
            H::TraceOpen => (self.svc_trace_open(caller, hc.arg_s32(0)), 0),
            H::TraceEvent => (self.svc_trace_event(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::TraceRead => (self.svc_trace_read(caller, hc.arg_s32(0), hc.arg32(1)), 0),
            H::TraceSeek => {
                (self.svc_trace_seek(caller, hc.arg_s32(0), hc.arg_s32(1), hc.arg32(2)), 0)
            }
            H::TraceStatus => (self.svc_trace_status(caller, hc.arg_s32(0), hc.arg32(1)), 0),
            H::ClearIrqMask => (self.svc_clear_irqmask(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::SetIrqMask => (self.svc_set_irqmask(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::SetIrqPend => (self.svc_set_irqpend(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::RouteIrq => (self.svc_route_irq(hc.arg32(0), hc.arg32(1), hc.arg32(2)), 0),
            H::DisableIrqs => (self.svc_disable_irqs(caller), 0),
            H::Multicall => self.svc_multicall(caller, hc.arg32(0), hc.arg32(1)),
            H::FlushCache => (self.svc_flush_cache(hc.arg32(0)), 0),
            H::SetCacheState => (self.svc_set_cache_state(hc.arg32(0)), 0),
            H::GetGidByName => (self.svc_get_gid_by_name(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::WriteConsole => (self.svc_write_console(caller, hc.arg32(0), hc.arg_s32(1)), 0),
            H::SparcAtomicAdd => {
                (self.svc_sparc_atomic(caller, hc.arg32(0), hc.arg32(1), AtomicOp::Add), 0)
            }
            H::SparcAtomicAnd => {
                (self.svc_sparc_atomic(caller, hc.arg32(0), hc.arg32(1), AtomicOp::And), 0)
            }
            H::SparcAtomicOr => {
                (self.svc_sparc_atomic(caller, hc.arg32(0), hc.arg32(1), AtomicOp::Or), 0)
            }
            H::SparcInPort => (self.svc_sparc_inport(caller, hc.arg32(0), hc.arg32(1)), 0),
            H::SparcOutPort => (self.svc_sparc_outport(hc.arg32(0), hc.arg32(1)), 0),
            H::SparcGetPsr => (HcResult::Ret(self.sparc[caller as usize].psr as i32), 0),
            H::SparcSetPsr => (self.svc_sparc_set_psr(caller, hc.arg32(0)), 0),
            H::SparcEnableTraps => (self.svc_sparc_traps(caller, true), 0),
            H::SparcDisableTraps => (self.svc_sparc_traps(caller, false), 0),
            H::SparcSetPil => (self.svc_sparc_set_pil(caller, hc.arg32(0)), 0),
            H::SparcAckIrq => (self.svc_sparc_ackirq(hc.arg32(0)), 0),
            H::SparcIFlush => (self.svc_sparc_iflush(caller, hc.arg32(0), hc.arg32(1)), 0),
        }
    }

    // ----- system management -----

    fn svc_halt_system(&mut self, caller: u32) -> HcResult {
        self.ops_push(OpsEvent::SystemHalt { by: caller });
        self.halt_kernel(crate::kernel::HaltReason::HaltCall);
        HcResult::NoReturn(NoReturnKind::SystemHalt)
    }

    /// Legacy-defective: "XM fails to correctly check the mode parameter
    /// and an unexpected system reset is invoked for invalid modes."
    fn svc_reset_system(&mut self, caller: u32, mode: u32) -> HcResult {
        let kind = if self.flags.reset_system_mode_unchecked {
            // The defective decoder only looks at bit 0.
            if mode & 1 == 1 {
                ResetKind::Warm
            } else {
                ResetKind::Cold
            }
        } else {
            match mode {
                0 => ResetKind::Cold,
                1 => ResetKind::Warm,
                _ => return ret(XmRet::InvalidParam),
            }
        };
        self.ops_push(OpsEvent::SystemReset { requested_mode: mode, performed: kind, by: caller });
        self.do_system_reset(kind);
        HcResult::NoReturn(match kind {
            ResetKind::Cold => NoReturnKind::SystemColdReset,
            ResetKind::Warm => NoReturnKind::SystemWarmReset,
        })
    }

    fn svc_get_system_status(&mut self, caller: u32, ptr: u32) -> HcResult {
        let words = [
            self.cold_resets,
            self.warm_resets,
            self.hm.len() as u32,
            self.sched.frames_completed as u32,
        ];
        match self.svc_write_u32s(caller, ptr, &words) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    // ----- partition management -----

    fn svc_halt_partition(&mut self, caller: u32, id: i32) -> HcResult {
        let Some(idx) = self.valid_part(id) else { return ret(XmRet::InvalidParam) };
        if self.parts[idx].status == PartitionStatus::Halted {
            return ret(XmRet::NoAction);
        }
        self.parts[idx].status = PartitionStatus::Halted;
        self.ops_push(OpsEvent::PartitionHalted { target: idx as u32, by: caller });
        if idx as u32 == caller {
            HcResult::NoReturn(NoReturnKind::CallerHalted)
        } else {
            OK
        }
    }

    fn svc_reset_partition(&mut self, caller: u32, id: i32, mode: u32, status: u32) -> HcResult {
        let Some(idx) = self.valid_part(id) else { return ret(XmRet::InvalidParam) };
        if mode > 1 {
            return ret(XmRet::InvalidParam);
        }
        self.parts[idx].reset(mode, status);
        self.hw_vtimers[idx].disarm();
        self.recompute_vtimer_horizon();
        self.ops_push(OpsEvent::PartitionReset { target: idx as u32, mode, by: caller });
        if idx as u32 == caller {
            HcResult::NoReturn(NoReturnKind::CallerReset)
        } else {
            OK
        }
    }

    fn svc_suspend_partition(&mut self, caller: u32, id: i32) -> HcResult {
        let Some(idx) = self.valid_part(id) else { return ret(XmRet::InvalidParam) };
        match self.parts[idx].status {
            PartitionStatus::Halted | PartitionStatus::Shutdown => ret(XmRet::InvalidMode),
            PartitionStatus::Suspended => ret(XmRet::NoAction),
            _ => {
                self.parts[idx].status = PartitionStatus::Suspended;
                self.ops_push(OpsEvent::PartitionSuspended { target: idx as u32, by: caller });
                if idx as u32 == caller {
                    HcResult::NoReturn(NoReturnKind::CallerSuspended)
                } else {
                    OK
                }
            }
        }
    }

    fn svc_resume_partition(&mut self, caller: u32, id: i32) -> HcResult {
        let Some(idx) = self.valid_part(id) else { return ret(XmRet::InvalidParam) };
        match self.parts[idx].status {
            PartitionStatus::Halted | PartitionStatus::Shutdown => ret(XmRet::InvalidMode),
            PartitionStatus::Suspended => {
                self.parts[idx].status = PartitionStatus::Ready;
                self.ops_push(OpsEvent::PartitionResumed { target: idx as u32, by: caller });
                OK
            }
            _ => ret(XmRet::NoAction),
        }
    }

    fn svc_shutdown_partition(&mut self, caller: u32, id: i32) -> HcResult {
        let Some(idx) = self.valid_part(id) else { return ret(XmRet::InvalidParam) };
        if self.parts[idx].status == PartitionStatus::Halted {
            return ret(XmRet::InvalidMode);
        }
        self.parts[idx].status = PartitionStatus::Shutdown;
        self.parts[idx].pending_virqs |= VIRQ_SHUTDOWN;
        self.ops_push(OpsEvent::PartitionShutdown { target: idx as u32, by: caller });
        if idx as u32 == caller {
            HcResult::NoReturn(NoReturnKind::CallerShutdown)
        } else {
            OK
        }
    }

    fn svc_get_partition_status(&mut self, caller: u32, id: i32, ptr: u32) -> HcResult {
        let Some(idx) = self.valid_part(id) else { return ret(XmRet::InvalidParam) };
        if idx as u32 != caller && !self.is_system(caller) {
            return ret(XmRet::PermError);
        }
        let p = &self.parts[idx];
        let words =
            [status_code(p.status), p.reset_count, p.exec_us as u32, (p.exec_us >> 32) as u32];
        match self.svc_write_u32s(caller, ptr, &words) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    fn svc_set_partition_opmode(&mut self, caller: u32, op: i32) -> HcResult {
        if !(0..=3).contains(&op) {
            return ret(XmRet::InvalidParam);
        }
        self.parts[caller as usize].op_mode = op;
        OK
    }

    fn svc_idle_self(&mut self, caller: u32) -> HcResult {
        self.parts[caller as usize].status = PartitionStatus::Idle;
        HcResult::NoReturn(NoReturnKind::CallerIdled)
    }

    fn svc_suspend_self(&mut self, caller: u32) -> HcResult {
        self.parts[caller as usize].status = PartitionStatus::Suspended;
        self.ops_push(OpsEvent::PartitionSuspended { target: caller, by: caller });
        HcResult::NoReturn(NoReturnKind::CallerSuspended)
    }

    fn svc_params_get_pct(&mut self, caller: u32) -> HcResult {
        self.parts[caller as usize].pct_queried = true;
        OK
    }

    // ----- time management -----

    fn svc_get_time(&mut self, caller: u32, clock: u32, ptr: u32) -> HcResult {
        let value = match clock {
            XM_HW_CLOCK => self.machine.now(),
            XM_EXEC_CLOCK => self.parts[caller as usize].exec_us,
            _ => return ret(XmRet::InvalidParam),
        };
        match self.svc_write_u64(caller, ptr, value) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    /// Legacy-defective (three distinct findings in the paper):
    /// tiny intervals recurse the handler (HW clock → kernel stack
    /// overflow; EXEC clock → hardware trap storm that kills the
    /// simulator), and negative intervals are silently accepted.
    fn svc_set_timer(&mut self, caller: u32, clock: u32, abs: i64, interval: i64) -> HcResult {
        if clock != XM_HW_CLOCK && clock != XM_EXEC_CLOCK {
            return ret(XmRet::InvalidParam);
        }
        if abs < 0 {
            return ret(XmRet::InvalidParam);
        }
        if interval < 0 && !self.flags.set_timer_negative_interval_accepted {
            return ret(XmRet::InvalidParam);
        }
        if interval > 0
            && interval < self.cfg.tuning.min_timer_interval_us
            && !self.flags.set_timer_no_min_interval
        {
            return ret(XmRet::InvalidParam);
        }
        match clock {
            XM_HW_CLOCK => {
                self.hw_vtimers[caller as usize].arm(abs, interval);
                // Keep the event horizon a valid lower bound (`abs >= 0`
                // was validated above). A min-merge suffices here: if the
                // re-arm moved this timer's deadline later, the horizon is
                // merely conservative, which only costs a redundant scan.
                self.vtimer_horizon = self.vtimer_horizon.min(abs as u64);
            }
            _ => {
                // EXEC clock: implemented on the spare hardware timer unit,
                // re-programmed while the partition runs. A 1 µs period
                // floods the interrupt controller — the TSIM crash.
                let expiry = (abs as u64).max(self.machine.now());
                let period = if interval > 0 { Some(interval as u64) } else { None };
                self.exec_timer_owner = Some(caller);
                self.machine.timers.arm(1, expiry.max(self.machine.now() + 1), period);
            }
        }
        OK
    }

    // ----- plan management -----

    fn svc_switch_sched_plan(&mut self, caller: u32, new_plan: i32, cur_ptr: u32) -> HcResult {
        if new_plan < 0 || self.cfg.plans.iter().all(|p| p.id != new_plan as u32) {
            return ret(XmRet::InvalidParam);
        }
        let cur = self.sched.current_plan_id();
        if let Err(e) = self.svc_write_u32s(caller, cur_ptr, &[cur]) {
            return ret(e);
        }
        self.sched.request_switch(new_plan);
        self.ops_push(OpsEvent::PlanSwitchRequested { from: cur, to: new_plan as u32, by: caller });
        OK
    }

    fn svc_get_plan_status(&mut self, caller: u32, ptr: u32) -> HcResult {
        let words = [
            self.sched.current_plan_id(),
            self.sched.pending_plan_id().map(|p| p + 1).unwrap_or(0),
            self.sched.frames_completed as u32,
        ];
        match self.svc_write_u32s(caller, ptr, &words) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    // ----- inter-partition communication -----

    fn svc_create_port(
        &mut self,
        caller: u32,
        name_ptr: u32,
        max_msg_size: u32,
        max_msgs: Option<u32>,
        direction: u32,
        kind: PortKind,
    ) -> HcResult {
        let mut buf = [0; 32];
        let name = match self.svc_read_name(caller, name_ptr, &mut buf) {
            Ok(n) => n,
            Err(e) => return ret(e),
        };
        let dir = match direction {
            0 => PortDirection::Source,
            1 => PortDirection::Destination,
            _ => return ret(XmRet::InvalidParam),
        };
        match self.ports.create_port(caller, name, kind, max_msg_size, max_msgs, dir) {
            Ok(desc) => {
                flightrec::record_timeless(
                    flightrec::EventKind::PortCreated,
                    caller as u16,
                    desc as u32,
                    match dir {
                        PortDirection::Source => 0,
                        PortDirection::Destination => 1,
                    },
                    match kind {
                        PortKind::Sampling => 0,
                        PortKind::Queuing => 1,
                    },
                );
                HcResult::Ret(desc)
            }
            Err(e) => ipc_err(e),
        }
    }

    /// `XM_write_sampling_message` and `XM_send_queuing_message`: the
    /// message is copied once, from the caller's memory straight into the
    /// channel's slot. A bad descriptor, a port of the other kind, a bad
    /// size or an unreadable message is `InvalidParam`, ahead of a wrong
    /// direction (`OpNotAllowed`) and a full queue (`NotAvailable`).
    fn svc_put_message(
        &mut self,
        caller: u32,
        desc: i32,
        msg_ptr: u32,
        size: u32,
        kind: PortKind,
    ) -> HcResult {
        match self.ports.message_slot(caller, desc, kind, size as usize) {
            Ok((channel, slot)) => {
                match self.machine.mem.read_exact(AccessCtx::Partition(caller), msg_ptr, slot) {
                    Ok(()) => {
                        self.ports.land(channel, size as usize);
                        OK
                    }
                    Err(_) => ret(XmRet::InvalidParam),
                }
            }
            Err(e @ (IpcError::WrongDirection | IpcError::QueueFull)) => {
                match self.svc_check(caller, msg_ptr, size, 1, AccessKind::Read) {
                    Ok(()) => ipc_err(e),
                    Err(e) => ret(e),
                }
            }
            Err(e) => ipc_err(e),
        }
    }

    fn svc_read_sampling(
        &mut self,
        caller: u32,
        desc: i32,
        msg_ptr: u32,
        size: u32,
        flags_ptr: u32,
    ) -> HcResult {
        let ctx = AccessCtx::Partition(caller);
        let seq = match self.ports.read_sampling(caller, desc, size) {
            Ok((msg, seq)) => match self.machine.mem.write_bytes(ctx, msg_ptr, msg) {
                Ok(()) => seq,
                Err(_) => return ret(XmRet::InvalidParam),
            },
            Err(e) => return ipc_err(e),
        };
        match self.svc_write_u32s(caller, flags_ptr, &[seq as u32]) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    /// `XM_receive_queuing_message`: the message is dequeued before it is
    /// copied out, so a faulting buffer loses it.
    fn svc_receive_queuing(
        &mut self,
        caller: u32,
        desc: i32,
        msg_ptr: u32,
        size: u32,
        recv_ptr: u32,
    ) -> HcResult {
        let ctx = AccessCtx::Partition(caller);
        let n = match self.ports.receive_queuing(caller, desc, size) {
            Ok(msg) => match self.machine.mem.write_bytes(ctx, msg_ptr, msg) {
                Ok(()) => msg.len() as u32,
                Err(_) => return ret(XmRet::InvalidParam),
            },
            Err(e) => return ipc_err(e),
        };
        match self.svc_write_u32s(caller, recv_ptr, &[n]) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    fn svc_port_status(&mut self, caller: u32, desc: i32, ptr: u32, want: PortKind) -> HcResult {
        let (kind, level, max) = match self.ports.port_status(caller, desc) {
            Ok(s) => s,
            Err(e) => return ipc_err(e),
        };
        if kind != want {
            return ret(XmRet::InvalidParam);
        }
        match self.svc_write_u32s(caller, ptr, &[level, max]) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    fn svc_flush_port(&mut self, caller: u32, desc: i32) -> HcResult {
        match self.ports.flush_port(caller, desc) {
            Ok(_) => OK,
            Err(e) => ipc_err(e),
        }
    }

    fn svc_flush_all_ports(&mut self, caller: u32) -> HcResult {
        self.ports.flush_all(caller);
        OK
    }

    // ----- memory management -----

    fn svc_memory_copy(&mut self, caller: u32, dst: u32, src: u32, size: u32) -> HcResult {
        if size == 0 {
            return ret(XmRet::NoAction);
        }
        // Both ranges must be accessible *to the caller* — this is the
        // validation XM_multicall lacks on the legacy build.
        if self.svc_check(caller, src, size, 1, AccessKind::Read).is_err()
            || self.svc_check(caller, dst, size, 1, AccessKind::Write).is_err()
        {
            return ret(XmRet::InvalidParam);
        }
        match self.machine.mem.copy(AccessCtx::Kernel, dst, src, size) {
            Ok(()) => OK,
            Err(_) => ret(XmRet::InvalidParam),
        }
    }

    fn svc_update_page32(&mut self, caller: u32, addr: u32, value: u32) -> HcResult {
        if self.svc_check(caller, addr, 4, 4, AccessKind::Write).is_err() {
            return ret(XmRet::InvalidParam);
        }
        let _ = self.machine.mem.write_u32(AccessCtx::Kernel, addr, value);
        OK
    }

    // ----- health monitor management -----

    fn svc_hm_open(&mut self) -> HcResult {
        if self.hm.opened {
            return ret(XmRet::NoAction);
        }
        self.hm.opened = true;
        OK
    }

    fn svc_hm_read(&mut self, caller: u32, ptr: u32, count: u32) -> HcResult {
        let avail = self.hm.len().saturating_sub(self.hm.cursor);
        let n = (count as usize).min(avail);
        if n == 0 {
            return HcResult::Ret(0);
        }
        if self.svc_check(caller, ptr, (n * 16) as u32, 4, AccessKind::Write).is_err() {
            return ret(XmRet::InvalidParam);
        }
        let entries = self.hm.read(n);
        let mut words = Vec::with_capacity(n * 4);
        for e in &entries {
            words.push(e.time as u32);
            words.push((e.time >> 32) as u32);
            words.push(hm_class_code(&e.kind));
            words.push(e.partition.map(|p| p + 1).unwrap_or(0));
        }
        match self.svc_write_u32s(caller, ptr, &words) {
            Ok(()) => HcResult::Ret(n as i32),
            Err(e) => ret(e),
        }
    }

    fn svc_hm_seek(&mut self, offset: i32, whence: u32) -> HcResult {
        if whence > 2 {
            return ret(XmRet::InvalidParam);
        }
        match self.hm.seek(offset as i64, whence) {
            Some(_) => OK,
            None => ret(XmRet::InvalidParam),
        }
    }

    fn svc_hm_status(&mut self, caller: u32, ptr: u32) -> HcResult {
        let words = [
            self.hm.len() as u32,
            self.hm.cursor as u32,
            self.hm.dropped as u32,
            (self.hm.dropped >> 32) as u32,
        ];
        match self.svc_write_u32s(caller, ptr, &words) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    fn svc_hm_raise_event(&mut self, caller: u32, code: u32) -> HcResult {
        self.hm_event(HmEventKind::PartitionRaised { code }, Some(caller));
        OK
    }

    // ----- trace management -----

    fn trace_desc_check(&self, caller: u32, td: i32) -> Result<usize, XmRet> {
        let idx = self.valid_part(td).ok_or(XmRet::InvalidParam)?;
        if idx as u32 != caller && !self.is_system(caller) {
            return Err(XmRet::PermError);
        }
        Ok(idx)
    }

    fn svc_trace_open(&mut self, caller: u32, id: i32) -> HcResult {
        match self.trace_desc_check(caller, id) {
            Ok(idx) => HcResult::Ret(idx as i32),
            Err(e) => ret(e),
        }
    }

    fn svc_trace_event(&mut self, caller: u32, bitmask: u32, ptr: u32) -> HcResult {
        if bitmask == 0 {
            return ret(XmRet::NoAction);
        }
        let payload = match self.svc_read_u32(caller, ptr) {
            Ok(v) => v,
            Err(e) => return ret(e),
        };
        let rec = crate::trace::TraceRecord {
            time: self.machine.now(),
            partition: caller,
            bitmask,
            payload,
        };
        self.traces[caller as usize].emit(rec);
        OK
    }

    fn svc_trace_read(&mut self, caller: u32, td: i32, ptr: u32) -> HcResult {
        let idx = match self.trace_desc_check(caller, td) {
            Ok(i) => i,
            Err(e) => return ret(e),
        };
        if self.svc_check(caller, ptr, 16, 4, AccessKind::Write).is_err() {
            return ret(XmRet::InvalidParam);
        }
        let rec = match self.traces[idx].read() {
            Some(r) => r,
            None => return ret(XmRet::NotAvailable),
        };
        let words = [rec.time as u32, (rec.time >> 32) as u32, rec.bitmask, rec.payload];
        match self.svc_write_u32s(caller, ptr, &words) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    fn svc_trace_seek(&mut self, caller: u32, td: i32, offset: i32, whence: u32) -> HcResult {
        let idx = match self.trace_desc_check(caller, td) {
            Ok(i) => i,
            Err(e) => return ret(e),
        };
        if whence > 2 {
            return ret(XmRet::InvalidParam);
        }
        match self.traces[idx].seek(offset as i64, whence) {
            Some(_) => OK,
            None => ret(XmRet::InvalidParam),
        }
    }

    fn svc_trace_status(&mut self, caller: u32, td: i32, ptr: u32) -> HcResult {
        let idx = match self.trace_desc_check(caller, td) {
            Ok(i) => i,
            Err(e) => return ret(e),
        };
        let (len, cap, cursor) = self.traces[idx].status();
        match self.svc_write_u32s(caller, ptr, &[len, cap, cursor]) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    // ----- interrupt management -----

    fn svc_clear_irqmask(&mut self, caller: u32, hw: u32, ext: u32) -> HcResult {
        if !crate::irq::hw_mask_valid(hw) {
            return ret(XmRet::InvalidParam);
        }
        for level in 1..=15u8 {
            if hw & (1 << level) != 0 {
                self.machine.irqmp.unmask(level);
            }
        }
        self.parts[caller as usize].virq_mask |= ext;
        OK
    }

    fn svc_set_irqmask(&mut self, caller: u32, hw: u32, ext: u32) -> HcResult {
        if !crate::irq::hw_mask_valid(hw) {
            return ret(XmRet::InvalidParam);
        }
        for level in 1..=15u8 {
            if hw & (1 << level) != 0 {
                self.machine.irqmp.mask(level);
            }
        }
        self.parts[caller as usize].virq_mask &= !ext;
        OK
    }

    fn svc_set_irqpend(&mut self, caller: u32, hw: u32, ext: u32) -> HcResult {
        if !crate::irq::hw_mask_valid(hw) {
            return ret(XmRet::InvalidParam);
        }
        for level in 1..=15u8 {
            if hw & (1 << level) != 0 {
                self.machine.irqmp.force(level);
            }
        }
        self.parts[caller as usize].pending_virqs |= ext;
        OK
    }

    fn svc_route_irq(&mut self, irq_type: u32, irq: u32, vector: u32) -> HcResult {
        if irq_type > 1 {
            return ret(XmRet::InvalidParam);
        }
        if vector > 255 {
            return ret(XmRet::InvalidParam);
        }
        let ok = match irq_type {
            0 => self.routes.route_hw(irq, vector as u8),
            _ => self.routes.route_ext(irq, vector as u8),
        };
        if ok {
            OK
        } else {
            ret(XmRet::InvalidParam)
        }
    }

    fn svc_disable_irqs(&mut self, caller: u32) -> HcResult {
        self.sparc[caller as usize].pil = 15;
        OK
    }

    // ----- miscellaneous -----

    /// Legacy-defective: "Test calls with invalid pointers ... did not
    /// return an expected invalid parameter return code. The kernel
    /// instead attempted to execute the hypercall leading to unhandled
    /// data access exceptions. Additionally ... such a service may lead
    /// to breaking the temporal isolation."
    fn svc_multicall(&mut self, caller: u32, start: u32, end: u32) -> (HcResult, u64) {
        if self.flags.multicall_removed {
            return (ret(XmRet::UnknownHypercall), 0);
        }
        if end < start {
            return (ret(XmRet::InvalidParam), 0);
        }
        let entries = (end - start) / 8;
        if !self.flags.multicall_no_pointer_validation {
            // Hypothetical fixed-but-present service (ablation builds).
            if entries > 0
                && self.svc_check(caller, start, entries * 8, 8, AccessKind::Read).is_err()
            {
                return (ret(XmRet::InvalidParam), 0);
            }
        }
        if !self.flags.multicall_unbounded_batch && entries > self.cfg.tuning.multicall_max_entries
        {
            return (ret(XmRet::InvalidParam), 0);
        }
        // The defective kernel dereferences every entry in supervisor
        // context without validating the caller's rights; kernel loads
        // have no side effect, so one region-run walk finds how many
        // succeed and the fault the first failing one raises. Batch
        // entries are charged their service cost; their payload
        // semantics are modelled as no-ops (the temporal effect is what
        // the experiment measures).
        let (valid, fault) = self.machine.mem.load_run(start, entries, 8);
        debug_assert_eq!(
            (valid, fault),
            self.machine.mem.load_run_per_entry(start, entries, 8),
            "region-run multicall validation diverged from the per-entry loads"
        );
        let extra = self.cfg.tuning.multicall_entry_cost_us * valid as u64;
        if let Some(fault) = fault {
            let trap = fault.trap();
            self.machine.record_trap(trap);
            self.machine
                .uart
                .put_fmt(format_args!("XM: unhandled {trap} while servicing XM_multicall\n"));
            self.hm_event(
                HmEventKind::PartitionTrap {
                    tt: trap.tt(),
                    addr: match trap {
                        leon3_sim::Trap::DataAccessException { addr } => Some(addr),
                        _ => None,
                    },
                },
                Some(caller),
            );
            let result = if self.partition_status(caller) == Some(PartitionStatus::Halted) {
                HcResult::NoReturn(NoReturnKind::CallerHalted)
            } else if self.partition_was_reset_by_hm(caller) {
                HcResult::NoReturn(NoReturnKind::CallerReset)
            } else {
                ret(XmRet::InvalidParam)
            };
            return (result, extra);
        }
        if entries > 0 {
            self.ops_push(OpsEvent::MulticallExecuted { by: caller, entries });
        }
        (OK, extra)
    }

    fn svc_flush_cache(&mut self, mask: u32) -> HcResult {
        if mask == 0 {
            return ret(XmRet::NoAction);
        }
        if mask & !0x3 != 0 {
            return ret(XmRet::InvalidParam);
        }
        OK
    }

    fn svc_set_cache_state(&mut self, mask: u32) -> HcResult {
        if mask & !0x3 != 0 {
            return ret(XmRet::InvalidParam);
        }
        self.cache_state = mask;
        OK
    }

    fn svc_get_gid_by_name(&mut self, caller: u32, name_ptr: u32, entity: u32) -> HcResult {
        if entity > 1 {
            return ret(XmRet::InvalidParam);
        }
        let mut buf = [0; 32];
        let name = match self.svc_read_name(caller, name_ptr, &mut buf) {
            Ok(n) => n,
            Err(e) => return ret(e),
        };
        let found = match entity {
            0 => self.cfg.partitions.iter().find(|p| p.name == name).map(|p| p.id),
            _ => self.cfg.channels.iter().position(|c| c.name == name).map(|i| i as u32),
        };
        match found {
            Some(id) => HcResult::Ret(id as i32),
            None => ret(XmRet::InvalidConfig),
        }
    }

    fn svc_write_console(&mut self, caller: u32, ptr: u32, len: i32) -> HcResult {
        if !(0..=1024).contains(&len) {
            return ret(XmRet::InvalidParam);
        }
        if len == 0 {
            return ret(XmRet::NoAction);
        }
        let bytes = match self.svc_read_bytes(caller, ptr, len as u32) {
            Ok(b) => b,
            Err(e) => return ret(e),
        };
        for b in bytes {
            self.machine.uart.put_byte(b);
        }
        OK
    }

    // ----- SPARC V8 specific -----

    fn svc_sparc_atomic(&mut self, caller: u32, addr: u32, operand: u32, op: AtomicOp) -> HcResult {
        if self.svc_check(caller, addr, 4, 4, AccessKind::Write).is_err()
            || self.svc_check(caller, addr, 4, 4, AccessKind::Read).is_err()
        {
            return ret(XmRet::InvalidParam);
        }
        let old = self.machine.mem.read_u32(AccessCtx::Kernel, addr).unwrap_or(0);
        let new = match op {
            AtomicOp::Add => old.wrapping_add(operand),
            AtomicOp::And => old & operand,
            AtomicOp::Or => old | operand,
        };
        let _ = self.machine.mem.write_u32(AccessCtx::Kernel, addr, new);
        HcResult::Ret(old as i32)
    }

    fn svc_sparc_inport(&mut self, caller: u32, port: u32, value_ptr: u32) -> HcResult {
        if port >= 4 {
            return ret(XmRet::InvalidParam);
        }
        let v = self.io_ports[port as usize];
        match self.svc_write_u32s(caller, value_ptr, &[v]) {
            Ok(()) => OK,
            Err(e) => ret(e),
        }
    }

    fn svc_sparc_outport(&mut self, port: u32, value: u32) -> HcResult {
        if port >= 4 {
            return ret(XmRet::InvalidParam);
        }
        self.io_ports[port as usize] = value;
        OK
    }

    fn svc_sparc_set_psr(&mut self, caller: u32, psr: u32) -> HcResult {
        self.sparc[caller as usize].psr = psr & 0x00FF_FFFF;
        OK
    }

    fn svc_sparc_traps(&mut self, caller: u32, enabled: bool) -> HcResult {
        self.sparc[caller as usize].traps_enabled = enabled;
        OK
    }

    fn svc_sparc_set_pil(&mut self, caller: u32, level: u32) -> HcResult {
        if level > 15 {
            return ret(XmRet::InvalidParam);
        }
        self.sparc[caller as usize].pil = level;
        OK
    }

    fn svc_sparc_ackirq(&mut self, irq: u32) -> HcResult {
        if !(1..=15).contains(&irq) {
            return ret(XmRet::InvalidParam);
        }
        self.machine.irqmp.ack(irq as u8);
        OK
    }

    fn svc_sparc_iflush(&mut self, caller: u32, addr: u32, size: u32) -> HcResult {
        if size == 0 {
            return ret(XmRet::NoAction);
        }
        if self.svc_check(caller, addr, size, 1, AccessKind::Read).is_err() {
            return ret(XmRet::InvalidParam);
        }
        OK
    }
}

/// SPARC atomic operation selector.
#[derive(Debug, Clone, Copy)]
enum AtomicOp {
    Add,
    And,
    Or,
}

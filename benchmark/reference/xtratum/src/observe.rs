//! Observability: the operations journal and run summaries.
//!
//! The robustness campaign's *log analysis* phase (paper Section III.C)
//! monitors return codes, exception handlers, partition and kernel
//! statuses, and fault-monitor actions. The HM log covers error events;
//! this module adds the **ops journal** — a record of *nominal* kernel
//! operations (service-driven halts, resets, plan switches) — so the
//! analyser can tell a commanded reset from a spurious one.

use crate::hm::HmLogEntry;
use crate::partition::PartitionStatus;
use leon3_sim::machine::SimHealth;
use leon3_sim::TimeUs;

/// Cold or warm, for reset events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResetKind {
    /// Full state re-initialisation.
    Cold,
    /// State-preserving restart.
    Warm,
}

/// One nominal-operations journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum OpsEvent {
    /// `XM_reset_system` was performed. `requested_mode` is the raw
    /// argument — the analyser compares it with `performed` to detect the
    /// legacy mode-decoding defect.
    SystemReset {
        /// Raw `mode` argument.
        requested_mode: u32,
        /// What the kernel actually did.
        performed: ResetKind,
        /// Requesting partition.
        by: u32,
    },
    /// `XM_halt_system` was performed.
    SystemHalt {
        /// Requesting partition.
        by: u32,
    },
    /// The HM (not a hypercall) halted the whole system.
    SystemHaltedByHm {
        /// Short reason, e.g. the trap description.
        reason: String,
    },
    /// A partition was halted via a management hypercall.
    PartitionHalted {
        /// Halted partition.
        target: u32,
        /// Requesting partition.
        by: u32,
    },
    /// A partition was halted by an HM containment action.
    PartitionHaltedByHm {
        /// Halted partition.
        target: u32,
    },
    /// A partition was suspended via hypercall.
    PartitionSuspended {
        /// Suspended partition.
        target: u32,
        /// Requesting partition.
        by: u32,
    },
    /// A partition was resumed via hypercall.
    PartitionResumed {
        /// Resumed partition.
        target: u32,
        /// Requesting partition.
        by: u32,
    },
    /// A partition was reset via hypercall.
    PartitionReset {
        /// Reset partition.
        target: u32,
        /// Requested reset mode.
        mode: u32,
        /// Requesting partition.
        by: u32,
    },
    /// A partition was reset by an HM containment action.
    PartitionResetByHm {
        /// Reset partition.
        target: u32,
    },
    /// A partition entered shutdown via hypercall.
    PartitionShutdown {
        /// Target partition.
        target: u32,
        /// Requesting partition.
        by: u32,
    },
    /// A plan switch was requested.
    PlanSwitchRequested {
        /// Currently active plan.
        from: u32,
        /// Requested plan.
        to: u32,
        /// Requesting partition.
        by: u32,
    },
    /// A plan switch took effect at a frame boundary.
    PlanSwitched {
        /// Previous plan.
        from: u32,
        /// New plan.
        to: u32,
    },
    /// A multicall batch was executed (legacy build only).
    MulticallExecuted {
        /// Calling partition.
        by: u32,
        /// Number of batch entries processed.
        entries: u32,
    },
}

impl OpsEvent {
    /// Stable numeric code used in flight-recorder event payloads.
    pub fn flight_code(&self) -> u32 {
        match self {
            OpsEvent::SystemReset { .. } => 0,
            OpsEvent::SystemHalt { .. } => 1,
            OpsEvent::SystemHaltedByHm { .. } => 2,
            OpsEvent::PartitionHalted { .. } => 3,
            OpsEvent::PartitionHaltedByHm { .. } => 4,
            OpsEvent::PartitionSuspended { .. } => 5,
            OpsEvent::PartitionResumed { .. } => 6,
            OpsEvent::PartitionReset { .. } => 7,
            OpsEvent::PartitionResetByHm { .. } => 8,
            OpsEvent::PartitionShutdown { .. } => 9,
            OpsEvent::PlanSwitchRequested { .. } => 10,
            OpsEvent::PlanSwitched { .. } => 11,
            OpsEvent::MulticallExecuted { .. } => 12,
        }
    }

    /// Human-readable name for a [`OpsEvent::flight_code`] value.
    pub fn flight_name(code: u32) -> &'static str {
        match code {
            0 => "SystemReset",
            1 => "SystemHalt",
            2 => "SystemHaltedByHm",
            3 => "PartitionHalted",
            4 => "PartitionHaltedByHm",
            5 => "PartitionSuspended",
            6 => "PartitionResumed",
            7 => "PartitionReset",
            8 => "PartitionResetByHm",
            9 => "PartitionShutdown",
            10 => "PlanSwitchRequested",
            11 => "PlanSwitched",
            12 => "MulticallExecuted",
            _ => "?",
        }
    }

    /// The partition the event is best attributed to: the target of a
    /// partition-state transition, else the requesting partition.
    pub fn flight_partition(&self) -> Option<u32> {
        match self {
            OpsEvent::SystemReset { by, .. }
            | OpsEvent::SystemHalt { by }
            | OpsEvent::PlanSwitchRequested { by, .. }
            | OpsEvent::MulticallExecuted { by, .. } => Some(*by),
            OpsEvent::PartitionHalted { target, .. }
            | OpsEvent::PartitionHaltedByHm { target }
            | OpsEvent::PartitionSuspended { target, .. }
            | OpsEvent::PartitionResumed { target, .. }
            | OpsEvent::PartitionReset { target, .. }
            | OpsEvent::PartitionResetByHm { target }
            | OpsEvent::PartitionShutdown { target, .. } => Some(*target),
            OpsEvent::SystemHaltedByHm { .. } | OpsEvent::PlanSwitched { .. } => None,
        }
    }
}

/// A timestamped ops record.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsRecord {
    /// When it happened (µs).
    pub time: TimeUs,
    /// What happened.
    pub event: OpsEvent,
}

/// Everything the robustness harness observes from one run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Major frames fully completed before the run ended.
    pub frames_completed: u64,
    /// Final kernel state description (`None` = still running normally).
    pub kernel_halt_reason: Option<String>,
    /// Simulator health at the end of the run.
    pub sim_health: SimHealth,
    /// Full HM log.
    pub hm_log: Vec<HmLogEntry>,
    /// Full ops journal.
    pub ops_log: Vec<OpsRecord>,
    /// Final status of every partition, by id.
    pub partition_final: Vec<PartitionStatus>,
    /// Captured console output.
    pub console: String,
    /// System cold resets performed during the run.
    pub cold_resets: u32,
    /// System warm resets performed during the run.
    pub warm_resets: u32,
}

impl RunSummary {
    /// True if the kernel survived and the simulator is alive.
    pub fn healthy(&self) -> bool {
        self.kernel_halt_reason.is_none() && matches!(self.sim_health, SimHealth::Running)
    }

    /// Convenience: system resets of a given kind recorded in the journal.
    pub fn system_resets(&self, kind: ResetKind) -> impl Iterator<Item = &OpsRecord> {
        self.ops_log.iter().filter(move |r| {
            matches!(&r.event, OpsEvent::SystemReset { performed, .. } if *performed == kind)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunSummary {
        RunSummary {
            frames_completed: 4,
            kernel_halt_reason: None,
            sim_health: SimHealth::Running,
            hm_log: vec![],
            ops_log: vec![
                OpsRecord {
                    time: 10,
                    event: OpsEvent::SystemReset {
                        requested_mode: 2,
                        performed: ResetKind::Cold,
                        by: 0,
                    },
                },
                OpsRecord {
                    time: 20,
                    event: OpsEvent::SystemReset {
                        requested_mode: 1,
                        performed: ResetKind::Warm,
                        by: 0,
                    },
                },
            ],
            partition_final: vec![PartitionStatus::Ready],
            console: String::new(),
            cold_resets: 1,
            warm_resets: 1,
        }
    }

    #[test]
    fn healthy_detection() {
        let mut s = summary();
        assert!(s.healthy());
        s.kernel_halt_reason = Some("hm".into());
        assert!(!s.healthy());
        let mut s2 = summary();
        s2.sim_health = SimHealth::Crashed { reason: "storm".into(), at: 0 };
        assert!(!s2.healthy());
    }

    #[test]
    fn reset_filter() {
        let s = summary();
        assert_eq!(s.system_resets(ResetKind::Cold).count(), 1);
        assert_eq!(s.system_resets(ResetKind::Warm).count(), 1);
    }
}

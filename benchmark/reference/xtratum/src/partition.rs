//! Partition runtime state.

/// Lifecycle state of a partition, as reported by
/// `XM_get_partition_status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStatus {
    /// Schedulable; runs in its slots.
    Ready,
    /// Currently executing (only while inside its slot).
    Running,
    /// Suspended: skips its slots until resumed.
    Suspended,
    /// Waiting for its next slot after `XM_idle_self`.
    Idle,
    /// Permanently stopped (by HM action or management hypercall).
    Halted,
    /// Gracefully shutting down after `XM_shutdown_partition`; treated as
    /// halted by the scheduler once acknowledged.
    Shutdown,
}

impl PartitionStatus {
    /// True if the scheduler should give this partition CPU time.
    pub fn schedulable(self) -> bool {
        matches!(self, PartitionStatus::Ready | PartitionStatus::Running | PartitionStatus::Idle)
    }

    /// Manual-style name.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStatus::Ready => "READY",
            PartitionStatus::Running => "RUNNING",
            PartitionStatus::Suspended => "SUSPENDED",
            PartitionStatus::Idle => "IDLE",
            PartitionStatus::Halted => "HALTED",
            PartitionStatus::Shutdown => "SHUTDOWN",
        }
    }
}

/// Mutable per-partition control block (the kernel-side PCT).
#[derive(Debug, Clone)]
pub struct PartitionCtl {
    /// Partition id.
    pub id: u32,
    /// Lifecycle state.
    pub status: PartitionStatus,
    /// Boot/reset status word (the `status` argument of
    /// `XM_reset_partition` is delivered here).
    pub boot_status: u32,
    /// Number of resets since system boot.
    pub reset_count: u32,
    /// Last reset mode (0 cold / 1 warm).
    pub last_reset_mode: u32,
    /// Accumulated execution time (µs) — the XM_EXEC_CLOCK source.
    pub exec_us: u64,
    /// Pending virtual extended interrupts (bitmask).
    pub pending_virqs: u32,
    /// Virtual interrupt mask (bit set = enabled).
    pub virq_mask: u32,
    /// Operating mode set via `XM_set_partition_opmode`.
    pub op_mode: i32,
    /// Whether `XM_params_get_PCT` was served (diagnostics).
    pub pct_queried: bool,
}

impl PartitionCtl {
    /// Fresh control block for partition `id`.
    pub fn new(id: u32) -> Self {
        PartitionCtl {
            id,
            status: PartitionStatus::Ready,
            boot_status: 0,
            reset_count: 0,
            last_reset_mode: 0,
            exec_us: 0,
            pending_virqs: 0,
            virq_mask: 0,
            op_mode: 0,
            pct_queried: false,
        }
    }

    /// Applies a partition reset. Warm resets preserve accounting;
    /// cold resets clear it.
    pub fn reset(&mut self, mode: u32, boot_status: u32) {
        self.status = PartitionStatus::Ready;
        self.boot_status = boot_status;
        self.reset_count += 1;
        self.last_reset_mode = mode;
        self.pending_virqs = 0;
        if mode == crate::types::XM_COLD_RESET {
            self.exec_us = 0;
            self.virq_mask = 0;
            self.op_mode = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulable_states() {
        assert!(PartitionStatus::Ready.schedulable());
        assert!(PartitionStatus::Idle.schedulable());
        assert!(PartitionStatus::Running.schedulable());
        assert!(!PartitionStatus::Suspended.schedulable());
        assert!(!PartitionStatus::Halted.schedulable());
        assert!(!PartitionStatus::Shutdown.schedulable());
    }

    #[test]
    fn names() {
        assert_eq!(PartitionStatus::Halted.name(), "HALTED");
        assert_eq!(PartitionStatus::Ready.name(), "READY");
    }

    #[test]
    fn warm_reset_preserves_exec_clock() {
        let mut p = PartitionCtl::new(2);
        p.exec_us = 123;
        p.status = PartitionStatus::Halted;
        p.pending_virqs = 0xFF;
        p.reset(crate::types::XM_WARM_RESET, 7);
        assert_eq!(p.status, PartitionStatus::Ready);
        assert_eq!(p.boot_status, 7);
        assert_eq!(p.exec_us, 123);
        assert_eq!(p.pending_virqs, 0);
        assert_eq!(p.reset_count, 1);
        assert_eq!(p.last_reset_mode, 1);
    }

    #[test]
    fn cold_reset_clears_accounting() {
        let mut p = PartitionCtl::new(0);
        p.exec_us = 500;
        p.virq_mask = 3;
        p.op_mode = 9;
        p.reset(crate::types::XM_COLD_RESET, 0);
        assert_eq!(p.exec_us, 0);
        assert_eq!(p.virq_mask, 0);
        assert_eq!(p.op_mode, 0);
    }
}

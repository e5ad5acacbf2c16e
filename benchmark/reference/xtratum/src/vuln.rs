//! Vulnerability configuration: the legacy (as-tested) kernel vs. the
//! patched (post-campaign) kernel.
//!
//! The paper's nine findings were genuine XtratuM defects, each of which
//! the XM development team fixed after the campaign:
//!
//! * `XM_reset_system` "has now been revised ... to return
//!   XM_INVALID_PARAM for invalid modes";
//! * "a minimum interval accepted by XM_set_timer has now been defined
//!   ... XM_INVALID_PARAM for interval values under 50µs";
//! * `XM_set_timer` "has now been modified ... to return
//!   XM_INVALID_PARAM for invalid (negative) intervals";
//! * `XM_multicall` "has been temporarily removed".
//!
//! [`VulnFlags`] exposes each defect individually so ablation benches can
//! toggle them; [`KernelBuild`] provides the two named configurations.

/// Fine-grained defect switches. `true` = the defect is present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VulnFlags {
    /// `XM_reset_system` decides cold/warm from `mode & 1` without range
    /// checking (mode 2/16 → cold reset, 0xFFFFFFFF → warm reset).
    pub reset_system_mode_unchecked: bool,
    /// `XM_set_timer` accepts arbitrarily small positive intervals; tiny
    /// intervals re-enter the timer handler recursively (kernel stack
    /// overflow → XM halt on the HW clock, trap storm → simulator crash
    /// on the EXEC clock).
    pub set_timer_no_min_interval: bool,
    /// `XM_set_timer` accepts negative intervals and reports success.
    pub set_timer_negative_interval_accepted: bool,
    /// `XM_multicall` dereferences its pointer arguments without
    /// validation (unhandled data access exceptions).
    pub multicall_no_pointer_validation: bool,
    /// `XM_multicall` executes unbounded batches (temporal isolation
    /// break).
    pub multicall_unbounded_batch: bool,
    /// `XM_multicall` has been removed entirely (the patched mitigation);
    /// when set, the service returns `XM_UNKNOWN_HYPERCALL`.
    pub multicall_removed: bool,
}

impl VulnFlags {
    /// The kernel as it was when the campaign ran: all defects present.
    pub const LEGACY: VulnFlags = VulnFlags {
        reset_system_mode_unchecked: true,
        set_timer_no_min_interval: true,
        set_timer_negative_interval_accepted: true,
        multicall_no_pointer_validation: true,
        multicall_unbounded_batch: true,
        multicall_removed: false,
    };

    /// The kernel with every documented fix applied.
    pub const PATCHED: VulnFlags = VulnFlags {
        reset_system_mode_unchecked: false,
        set_timer_no_min_interval: false,
        set_timer_negative_interval_accepted: false,
        multicall_no_pointer_validation: false,
        multicall_unbounded_batch: false,
        multicall_removed: true,
    };

    /// Number of defect switches currently enabled.
    pub fn enabled_count(&self) -> usize {
        [
            self.reset_system_mode_unchecked,
            self.set_timer_no_min_interval,
            self.set_timer_negative_interval_accepted,
            self.multicall_no_pointer_validation,
            self.multicall_unbounded_batch,
        ]
        .iter()
        .filter(|b| **b)
        .count()
    }
}

/// Named kernel builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBuild {
    /// The defective kernel the paper tested.
    Legacy,
    /// The kernel with the post-campaign fixes.
    Patched,
}

impl KernelBuild {
    /// The defect switches for this build.
    pub fn flags(self) -> VulnFlags {
        match self {
            KernelBuild::Legacy => VulnFlags::LEGACY,
            KernelBuild::Patched => VulnFlags::PATCHED,
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            KernelBuild::Legacy => "XtratuM (legacy, as tested in the campaign)",
            KernelBuild::Patched => "XtratuM (patched, post-campaign fixes)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_has_all_defects() {
        let f = KernelBuild::Legacy.flags();
        assert_eq!(f.enabled_count(), 5);
        assert!(!f.multicall_removed);
    }

    #[test]
    fn patched_has_none() {
        let f = KernelBuild::Patched.flags();
        assert_eq!(f.enabled_count(), 0);
        assert!(f.multicall_removed);
    }

    #[test]
    fn labels_distinct() {
        assert_ne!(KernelBuild::Legacy.label(), KernelBuild::Patched.label());
    }
}

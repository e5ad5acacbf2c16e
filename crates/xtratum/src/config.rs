//! Static system configuration (the `XM_CF` equivalent).
//!
//! Real XtratuM is configured by an XML file compiled into a binary blob;
//! the separation kernel refuses to boot if the configuration is
//! inconsistent. This module models the parts the campaign needs:
//! partitions with memory areas and privilege level, one or more cyclic
//! plans, IPC channels, the health-monitor action table, and the handful
//! of timing constants the simulation uses.

use crate::hm::{HmAction, HmEventClass, HmTable};
use leon3_sim::addrspace::Perms;

/// One memory area assigned to a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAreaCfg {
    /// Start address.
    pub base: u32,
    /// Size in bytes.
    pub size: u32,
    /// Access permissions granted to the owning partition.
    pub perms: Perms,
}

/// One partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionCfg {
    /// Partition id (also its index; ids must be 0..n contiguous).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// System partitions may manage/monitor the whole system.
    pub system: bool,
    /// Assigned memory areas.
    pub mem: Vec<MemAreaCfg>,
}

/// One slot of a cyclic plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotCfg {
    /// Partition scheduled in this slot.
    pub partition: u32,
    /// Offset from the major frame start (µs).
    pub start_us: u64,
    /// Slot length (µs).
    pub duration_us: u64,
}

/// One cyclic scheduling plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCfg {
    /// Plan id (index into the plan table).
    pub id: u32,
    /// Major frame length (µs); EagleEye uses 250 000.
    pub major_frame_us: u64,
    /// Slots ordered by start time, non-overlapping, within the frame.
    pub slots: Vec<SlotCfg>,
}

/// Direction of a port from its owner's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDirection {
    /// The owner writes/sends.
    Source,
    /// The owner reads/receives.
    Destination,
}

/// Discipline of an IPC channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// Last-message-wins sampling channel.
    Sampling,
    /// Bounded FIFO queuing channel.
    Queuing,
}

/// Largest message a channel may carry, in bytes. A channel's storage is
/// allocated at boot, so [`XmConfig::validate`] bounds it.
pub const MAX_CHANNEL_MSG_SIZE: u32 = 64 * 1024;

/// Largest storage one channel may take, in bytes: `max_msg_size`, times
/// `max_msgs` on a queuing channel.
pub const MAX_CHANNEL_BYTES: u64 = 1024 * 1024;

/// One configured channel between partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelCfg {
    /// Channel/port name (ports attach by name).
    pub name: String,
    /// Sampling or queuing.
    pub kind: PortKind,
    /// Maximum message size in bytes.
    pub max_msg_size: u32,
    /// Queue depth (queuing channels only; must be ≥ 1 there).
    pub max_msgs: u32,
    /// Writing partition.
    pub source: u32,
    /// Reading partitions (sampling may broadcast; queuing has exactly 1).
    pub destinations: Vec<u32>,
}

impl ChannelCfg {
    /// Messages the channel's storage holds: the last one written on a
    /// sampling channel, `max_msgs` on a queuing channel.
    pub(crate) fn slots(&self) -> u32 {
        match self.kind {
            PortKind::Sampling => 1,
            PortKind::Queuing => self.max_msgs,
        }
    }
}

/// Timing/behaviour constants for the simulated kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTuning {
    /// Fixed cost charged to the caller per hypercall (µs).
    pub hypercall_cost_us: u64,
    /// Cost per multicall batch entry (µs) — what breaks temporal
    /// isolation for large batches on the legacy build.
    pub multicall_entry_cost_us: u64,
    /// Kernel stack capacity in nested handler frames; the legacy
    /// `XM_set_timer` recursion overflows this.
    pub kernel_stack_frames: u32,
    /// Simulated execution time of the virtual-timer handler (µs);
    /// intervals at or below this re-enter the handler recursively on the
    /// legacy build.
    pub vtimer_handler_cost_us: u64,
    /// Minimum timer interval accepted by the *patched* build (µs). The
    /// paper: "XM_set_timer will now return XM_INVALID_PARAM for interval
    /// values under 50µs".
    pub min_timer_interval_us: i64,
    /// Maximum multicall batch entries accepted by the patched build.
    pub multicall_max_entries: u32,
    /// HM log capacity (entries).
    pub hm_log_capacity: usize,
    /// Per-partition trace buffer capacity (events).
    pub trace_capacity: usize,
}

impl Default for KernelTuning {
    fn default() -> Self {
        KernelTuning {
            hypercall_cost_us: 5,
            multicall_entry_cost_us: 40,
            kernel_stack_frames: 64,
            vtimer_handler_cost_us: 12,
            min_timer_interval_us: 50,
            multicall_max_entries: 32,
            hm_log_capacity: 256,
            trace_capacity: 128,
        }
    }
}

/// The complete static configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct XmConfig {
    /// Partition table (ids contiguous from 0).
    pub partitions: Vec<PartitionCfg>,
    /// Plan table (plan 0 boots first).
    pub plans: Vec<PlanCfg>,
    /// IPC channels.
    pub channels: Vec<ChannelCfg>,
    /// Health-monitor action table.
    pub hm_table: HmTable,
    /// Simulation tuning constants.
    pub tuning: KernelTuning,
}

impl XmConfig {
    /// Validates the configuration the way XM's offline tool would.
    /// Returns a list of human-readable problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.partitions.is_empty() {
            errs.push("no partitions configured".into());
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.id as usize != i {
                errs.push(format!("partition '{}' id {} != index {}", p.name, p.id, i));
            }
            if p.mem.is_empty() {
                errs.push(format!("partition '{}' has no memory areas", p.name));
            }
            for m in &p.mem {
                if m.size == 0 {
                    errs.push(format!("partition '{}' has a zero-size memory area", p.name));
                }
            }
        }
        if !self.partitions.iter().any(|p| p.system) {
            errs.push("no system partition configured".into());
        }
        if self.plans.is_empty() {
            errs.push("no scheduling plans configured".into());
        }
        for (i, plan) in self.plans.iter().enumerate() {
            if plan.id as usize != i {
                errs.push(format!("plan {} id {} != index {}", i, plan.id, i));
            }
            if plan.major_frame_us == 0 {
                errs.push(format!("plan {} has a zero-length major frame", plan.id));
            }
            let mut cursor = 0u64;
            for (si, s) in plan.slots.iter().enumerate() {
                if s.partition as usize >= self.partitions.len() {
                    errs.push(format!(
                        "plan {} slot {} schedules unknown partition {}",
                        plan.id, si, s.partition
                    ));
                }
                if s.start_us < cursor {
                    errs.push(format!("plan {} slot {} overlaps the previous slot", plan.id, si));
                }
                if s.duration_us == 0 {
                    errs.push(format!("plan {} slot {} has zero duration", plan.id, si));
                }
                cursor = s.start_us + s.duration_us;
            }
            if cursor > plan.major_frame_us {
                errs.push(format!(
                    "plan {} slots ({} µs) exceed the major frame ({} µs)",
                    plan.id, cursor, plan.major_frame_us
                ));
            }
        }
        let mut names = std::collections::HashSet::new();
        for c in &self.channels {
            if !names.insert(c.name.clone()) {
                errs.push(format!("duplicate channel name '{}'", c.name));
            }
            if c.max_msg_size == 0 {
                errs.push(format!("channel '{}' has zero max message size", c.name));
            }
            if c.max_msg_size > MAX_CHANNEL_MSG_SIZE {
                errs.push(format!(
                    "channel '{}' max message size {} exceeds {MAX_CHANNEL_MSG_SIZE} bytes",
                    c.name, c.max_msg_size
                ));
            }
            let bytes = u64::from(c.slots()) * u64::from(c.max_msg_size);
            if bytes > MAX_CHANNEL_BYTES {
                errs.push(format!(
                    "channel '{}' needs {bytes} bytes of storage, over {MAX_CHANNEL_BYTES}",
                    c.name
                ));
            }
            if c.kind == PortKind::Queuing {
                if c.max_msgs == 0 {
                    errs.push(format!("queuing channel '{}' has zero depth", c.name));
                }
                if c.destinations.len() != 1 {
                    errs.push(format!(
                        "queuing channel '{}' must have exactly one destination",
                        c.name
                    ));
                }
            }
            if c.destinations.is_empty() {
                errs.push(format!("channel '{}' has no destinations", c.name));
            }
            let all = c.destinations.iter().chain(std::iter::once(&c.source));
            for p in all {
                if *p as usize >= self.partitions.len() {
                    errs.push(format!("channel '{}' references unknown partition {}", c.name, p));
                }
            }
        }
        errs
    }

    /// Convenience: the default HM table the EagleEye testbed uses.
    pub fn default_hm_table() -> HmTable {
        let mut t = HmTable::default();
        t.set(HmEventClass::PartitionTrap, HmAction::HaltPartition);
        t.set(HmEventClass::KernelTrap, HmAction::HaltSystem);
        t.set(HmEventClass::SchedOverrun, HmAction::ResetPartitionWarm);
        t.set(HmEventClass::PartitionRaised, HmAction::Log);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> XmConfig {
        XmConfig {
            partitions: vec![
                PartitionCfg {
                    id: 0,
                    name: "sys".into(),
                    system: true,
                    mem: vec![MemAreaCfg { base: 0x4010_0000, size: 0x1000, perms: Perms::RWX }],
                },
                PartitionCfg {
                    id: 1,
                    name: "app".into(),
                    system: false,
                    mem: vec![MemAreaCfg { base: 0x4020_0000, size: 0x1000, perms: Perms::RWX }],
                },
            ],
            plans: vec![PlanCfg {
                id: 0,
                major_frame_us: 1000,
                slots: vec![
                    SlotCfg { partition: 0, start_us: 0, duration_us: 400 },
                    SlotCfg { partition: 1, start_us: 500, duration_us: 500 },
                ],
            }],
            channels: vec![ChannelCfg {
                name: "tm".into(),
                kind: PortKind::Queuing,
                max_msg_size: 64,
                max_msgs: 4,
                source: 1,
                destinations: vec![0],
            }],
            hm_table: XmConfig::default_hm_table(),
            tuning: KernelTuning::default(),
        }
    }

    #[test]
    fn minimal_config_is_valid() {
        assert_eq!(minimal().validate(), Vec::<String>::new());
    }

    #[test]
    fn detects_missing_system_partition() {
        let mut c = minimal();
        c.partitions[0].system = false;
        assert!(c.validate().iter().any(|e| e.contains("system partition")));
    }

    #[test]
    fn detects_bad_ids() {
        let mut c = minimal();
        c.partitions[1].id = 5;
        assert!(c.validate().iter().any(|e| e.contains("id 5")));
    }

    #[test]
    fn detects_overlapping_slots() {
        let mut c = minimal();
        c.plans[0].slots[1].start_us = 100; // overlaps slot 0 (0..400)
        assert!(c.validate().iter().any(|e| e.contains("overlaps")));
    }

    #[test]
    fn detects_frame_overflow() {
        let mut c = minimal();
        c.plans[0].slots[1].duration_us = 900; // 500+900 > 1000
        assert!(c.validate().iter().any(|e| e.contains("exceed the major frame")));
    }

    #[test]
    fn detects_unknown_slot_partition() {
        let mut c = minimal();
        c.plans[0].slots[0].partition = 9;
        assert!(c.validate().iter().any(|e| e.contains("unknown partition 9")));
    }

    #[test]
    fn detects_channel_problems() {
        let mut c = minimal();
        c.channels.push(c.channels[0].clone()); // duplicate name
        c.channels[0].max_msgs = 0;
        assert!(c.validate().iter().any(|e| e.contains("duplicate channel")));
        assert!(c.validate().iter().any(|e| e.contains("zero depth")));
    }

    #[test]
    fn detects_queuing_multicast() {
        let mut c = minimal();
        c.channels[0].destinations = vec![0, 1];
        assert!(c.validate().iter().any(|e| e.contains("exactly one destination")));
    }

    #[test]
    fn detects_empty_everything() {
        let c = XmConfig {
            partitions: vec![],
            plans: vec![],
            channels: vec![],
            hm_table: HmTable::default(),
            tuning: KernelTuning::default(),
        };
        let errs = c.validate();
        assert!(errs.iter().any(|e| e.contains("no partitions")));
        assert!(errs.iter().any(|e| e.contains("no scheduling plans")));
    }

    #[test]
    fn tuning_defaults_match_paper_constants() {
        let t = KernelTuning::default();
        assert_eq!(t.min_timer_interval_us, 50); // the documented fix
        assert!(t.vtimer_handler_cost_us < t.min_timer_interval_us as u64);
    }
}

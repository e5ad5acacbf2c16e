//! The XtratuM hypercall API: 61 services in the paper's eleven categories.
//!
//! This table is the authoritative machine-readable equivalent of the
//! campaign's **API Header XML** (Fig. 2): every hypercall with its
//! parameter names, XM data types and pointer flags. Table III's first two
//! columns (hypercall category, total hypercalls) are derived from it and
//! pinned by tests.
//!
//! Hypercalls are *invoked* through [`RawHypercall`]: the id plus one raw
//! 64-bit word per parameter — exactly the representation the data type
//! fault model perturbs. 32-bit parameters use the low word; `xmTime_t`
//! parameters use the full 64 bits (two ABI registers on a real SPARC).

use std::fmt;

/// Table III hypercall categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// System-wide halt/reset/status services.
    SystemManagement,
    /// Partition lifecycle services.
    PartitionManagement,
    /// Clock reads and timer arming.
    TimeManagement,
    /// Cyclic-plan switching and status.
    PlanManagement,
    /// Sampling/queuing port services.
    InterPartitionCommunication,
    /// Spatial-separation services.
    MemoryManagement,
    /// Health-monitor log access.
    HealthMonitorManagement,
    /// Tracing facilities.
    TraceManagement,
    /// Interrupt masking/routing.
    InterruptManagement,
    /// Console, cache, multicall, name service.
    Miscellaneous,
    /// SPARC V8 specific services.
    SparcSpecific,
}

impl Category {
    /// All categories in Table III row order.
    pub const ALL: [Category; 11] = [
        Category::SystemManagement,
        Category::PartitionManagement,
        Category::TimeManagement,
        Category::PlanManagement,
        Category::InterPartitionCommunication,
        Category::MemoryManagement,
        Category::HealthMonitorManagement,
        Category::TraceManagement,
        Category::InterruptManagement,
        Category::Miscellaneous,
        Category::SparcSpecific,
    ];

    /// Row label as printed in Table III.
    pub fn label(self) -> &'static str {
        match self {
            Category::SystemManagement => "System Management",
            Category::PartitionManagement => "Partition Management",
            Category::TimeManagement => "Time Management",
            Category::PlanManagement => "Plan Management",
            Category::InterPartitionCommunication => "Inter-Partition Communication",
            Category::MemoryManagement => "Memory Management",
            Category::HealthMonitorManagement => "Health Monitor Management",
            Category::TraceManagement => "Trace Management",
            Category::InterruptManagement => "Interrupt Management",
            Category::Miscellaneous => "Miscellaneous",
            Category::SparcSpecific => "Sparc V8 Specific",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One parameter of a hypercall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamDef {
    /// Parameter name as in the reference manual.
    pub name: &'static str,
    /// XM data-type name (a Table I row).
    pub ty: &'static str,
    /// True if the parameter is a pointer (`IsPointer="YES"` in Fig. 2).
    pub pointer: bool,
}

/// Static definition of one hypercall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypercallDef {
    /// Identifier (also the multicall batch encoding).
    pub id: HypercallId,
    /// Manual name, e.g. `XM_set_timer`.
    pub name: &'static str,
    /// Table III category.
    pub category: Category,
    /// Parameters in ABI order.
    pub params: &'static [ParamDef],
    /// True if only system partitions may invoke the service.
    pub system_only: bool,
}

macro_rules! p {
    ($name:literal, $ty:literal) => {
        ParamDef { name: $name, ty: $ty, pointer: false }
    };
    ($name:literal, $ty:literal, ptr) => {
        ParamDef { name: $name, ty: $ty, pointer: true }
    };
}

/// Hypercall identifiers. Discriminants are the hypercall numbers used by
/// the trap ABI and by `XM_multicall` batch entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u32)]
#[allow(missing_docs)] // names mirror the manual; the table below documents them
pub enum HypercallId {
    // --- System management ---
    HaltSystem = 0,
    ResetSystem = 1,
    GetSystemStatus = 2,
    // --- Partition management ---
    HaltPartition = 3,
    ResetPartition = 4,
    SuspendPartition = 5,
    ResumePartition = 6,
    ShutdownPartition = 7,
    GetPartitionStatus = 8,
    SetPartitionOpMode = 9,
    IdleSelf = 10,
    SuspendSelf = 11,
    ParamsGetPct = 12,
    // --- Time management ---
    GetTime = 13,
    SetTimer = 14,
    // --- Plan management ---
    SwitchSchedPlan = 15,
    GetPlanStatus = 16,
    // --- Inter-partition communication ---
    CreateSamplingPort = 17,
    WriteSamplingMessage = 18,
    ReadSamplingMessage = 19,
    CreateQueuingPort = 20,
    SendQueuingMessage = 21,
    ReceiveQueuingMessage = 22,
    GetSamplingPortStatus = 23,
    GetQueuingPortStatus = 24,
    FlushPort = 25,
    FlushAllPorts = 26,
    // --- Memory management ---
    MemoryCopy = 27,
    UpdatePage32 = 28,
    // --- Health monitor management ---
    HmOpen = 29,
    HmRead = 30,
    HmSeek = 31,
    HmStatus = 32,
    HmRaiseEvent = 33,
    // --- Trace management ---
    TraceOpen = 34,
    TraceEvent = 35,
    TraceRead = 36,
    TraceSeek = 37,
    TraceStatus = 38,
    // --- Interrupt management ---
    ClearIrqMask = 39,
    SetIrqMask = 40,
    SetIrqPend = 41,
    RouteIrq = 42,
    DisableIrqs = 43,
    // --- Miscellaneous ---
    Multicall = 44,
    FlushCache = 45,
    SetCacheState = 46,
    GetGidByName = 47,
    WriteConsole = 48,
    // --- SPARC V8 specific ---
    SparcAtomicAdd = 49,
    SparcAtomicAnd = 50,
    SparcAtomicOr = 51,
    SparcInPort = 52,
    SparcOutPort = 53,
    SparcGetPsr = 54,
    SparcSetPsr = 55,
    SparcEnableTraps = 56,
    SparcDisableTraps = 57,
    SparcSetPil = 58,
    SparcAckIrq = 59,
    SparcIFlush = 60,
}

/// Every hypercall, in id order. 61 entries — the paper's "Total
/// Hypercalls" column sums to 61 over the eleven categories.
pub const ALL_HYPERCALLS: &[HypercallDef] = &[
    // System management (3)
    HypercallDef {
        id: HypercallId::HaltSystem,
        name: "XM_halt_system",
        category: Category::SystemManagement,
        params: &[],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::ResetSystem,
        name: "XM_reset_system",
        category: Category::SystemManagement,
        params: &[p!("mode", "xm_u32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::GetSystemStatus,
        name: "XM_get_system_status",
        category: Category::SystemManagement,
        params: &[p!("status", "xmAddress_t", ptr)],
        system_only: true,
    },
    // Partition management (10)
    HypercallDef {
        id: HypercallId::HaltPartition,
        name: "XM_halt_partition",
        category: Category::PartitionManagement,
        params: &[p!("partitionId", "xm_s32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::ResetPartition,
        name: "XM_reset_partition",
        category: Category::PartitionManagement,
        params: &[
            p!("partitionId", "xm_s32_t"),
            p!("resetMode", "xm_u32_t"),
            p!("status", "xm_u32_t"),
        ],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::SuspendPartition,
        name: "XM_suspend_partition",
        category: Category::PartitionManagement,
        params: &[p!("partitionId", "xm_s32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::ResumePartition,
        name: "XM_resume_partition",
        category: Category::PartitionManagement,
        params: &[p!("partitionId", "xm_s32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::ShutdownPartition,
        name: "XM_shutdown_partition",
        category: Category::PartitionManagement,
        params: &[p!("partitionId", "xm_s32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::GetPartitionStatus,
        name: "XM_get_partition_status",
        category: Category::PartitionManagement,
        params: &[p!("partitionId", "xm_s32_t"), p!("status", "xmAddress_t", ptr)],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SetPartitionOpMode,
        name: "XM_set_partition_opmode",
        category: Category::PartitionManagement,
        params: &[p!("opMode", "xm_s32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::IdleSelf,
        name: "XM_idle_self",
        category: Category::PartitionManagement,
        params: &[],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SuspendSelf,
        name: "XM_suspend_self",
        category: Category::PartitionManagement,
        params: &[],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::ParamsGetPct,
        name: "XM_params_get_PCT",
        category: Category::PartitionManagement,
        params: &[],
        system_only: false,
    },
    // Time management (2)
    HypercallDef {
        id: HypercallId::GetTime,
        name: "XM_get_time",
        category: Category::TimeManagement,
        params: &[p!("clockId", "xm_u32_t"), p!("time", "xmAddress_t", ptr)],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SetTimer,
        name: "XM_set_timer",
        category: Category::TimeManagement,
        params: &[p!("clockId", "xm_u32_t"), p!("absTime", "xmTime_t"), p!("interval", "xmTime_t")],
        system_only: false,
    },
    // Plan management (2)
    HypercallDef {
        id: HypercallId::SwitchSchedPlan,
        name: "XM_switch_sched_plan",
        category: Category::PlanManagement,
        params: &[p!("newPlanId", "xm_s32_t"), p!("currentPlanId", "xmAddress_t", ptr)],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::GetPlanStatus,
        name: "XM_get_plan_status",
        category: Category::PlanManagement,
        params: &[p!("status", "xmAddress_t", ptr)],
        system_only: false,
    },
    // Inter-partition communication (10)
    HypercallDef {
        id: HypercallId::CreateSamplingPort,
        name: "XM_create_sampling_port",
        category: Category::InterPartitionCommunication,
        params: &[
            p!("portName", "xmAddress_t", ptr),
            p!("maxMsgSize", "xm_u32_t"),
            p!("direction", "xm_u32_t"),
        ],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::WriteSamplingMessage,
        name: "XM_write_sampling_message",
        category: Category::InterPartitionCommunication,
        params: &[
            p!("portDesc", "xm_s32_t"),
            p!("msgPtr", "xmAddress_t", ptr),
            p!("msgSize", "xm_u32_t"),
        ],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::ReadSamplingMessage,
        name: "XM_read_sampling_message",
        category: Category::InterPartitionCommunication,
        params: &[
            p!("portDesc", "xm_s32_t"),
            p!("msgPtr", "xmAddress_t", ptr),
            p!("msgSize", "xm_u32_t"),
            p!("flags", "xmAddress_t", ptr),
        ],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::CreateQueuingPort,
        name: "XM_create_queuing_port",
        category: Category::InterPartitionCommunication,
        params: &[
            p!("portName", "xmAddress_t", ptr),
            p!("maxNoMsgs", "xm_u32_t"),
            p!("maxMsgSize", "xm_u32_t"),
            p!("direction", "xm_u32_t"),
        ],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SendQueuingMessage,
        name: "XM_send_queuing_message",
        category: Category::InterPartitionCommunication,
        params: &[
            p!("portDesc", "xm_s32_t"),
            p!("msgPtr", "xmAddress_t", ptr),
            p!("msgSize", "xm_u32_t"),
        ],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::ReceiveQueuingMessage,
        name: "XM_receive_queuing_message",
        category: Category::InterPartitionCommunication,
        params: &[
            p!("portDesc", "xm_s32_t"),
            p!("msgPtr", "xmAddress_t", ptr),
            p!("msgSize", "xm_u32_t"),
            p!("recvSize", "xmAddress_t", ptr),
        ],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::GetSamplingPortStatus,
        name: "XM_get_sampling_port_status",
        category: Category::InterPartitionCommunication,
        params: &[p!("portDesc", "xm_s32_t"), p!("status", "xmAddress_t", ptr)],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::GetQueuingPortStatus,
        name: "XM_get_queuing_port_status",
        category: Category::InterPartitionCommunication,
        params: &[p!("portDesc", "xm_s32_t"), p!("status", "xmAddress_t", ptr)],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::FlushPort,
        name: "XM_flush_port",
        category: Category::InterPartitionCommunication,
        params: &[p!("portDesc", "xm_s32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::FlushAllPorts,
        name: "XM_flush_all_ports",
        category: Category::InterPartitionCommunication,
        params: &[],
        system_only: false,
    },
    // Memory management (2)
    HypercallDef {
        id: HypercallId::MemoryCopy,
        name: "XM_memory_copy",
        category: Category::MemoryManagement,
        params: &[
            p!("dstAddr", "xmAddress_t"),
            p!("srcAddr", "xmAddress_t"),
            p!("size", "xmSize_t"),
        ],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::UpdatePage32,
        name: "XM_update_page32",
        category: Category::MemoryManagement,
        params: &[p!("pageAddr", "xmAddress_t"), p!("value", "xm_u32_t")],
        system_only: false,
    },
    // Health monitor management (5)
    HypercallDef {
        id: HypercallId::HmOpen,
        name: "XM_hm_open",
        category: Category::HealthMonitorManagement,
        params: &[],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::HmRead,
        name: "XM_hm_read",
        category: Category::HealthMonitorManagement,
        params: &[p!("hmLogPtr", "xmAddress_t", ptr), p!("count", "xm_u32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::HmSeek,
        name: "XM_hm_seek",
        category: Category::HealthMonitorManagement,
        params: &[p!("offset", "xm_s32_t"), p!("whence", "xm_u32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::HmStatus,
        name: "XM_hm_status",
        category: Category::HealthMonitorManagement,
        params: &[p!("status", "xmAddress_t", ptr)],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::HmRaiseEvent,
        name: "XM_hm_raise_event",
        category: Category::HealthMonitorManagement,
        params: &[p!("event", "xm_u32_t")],
        system_only: false,
    },
    // Trace management (5)
    HypercallDef {
        id: HypercallId::TraceOpen,
        name: "XM_trace_open",
        category: Category::TraceManagement,
        params: &[p!("id", "xm_s32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::TraceEvent,
        name: "XM_trace_event",
        category: Category::TraceManagement,
        params: &[p!("bitmask", "xm_u32_t"), p!("event", "xmAddress_t", ptr)],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::TraceRead,
        name: "XM_trace_read",
        category: Category::TraceManagement,
        params: &[p!("traceDesc", "xm_s32_t"), p!("event", "xmAddress_t", ptr)],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::TraceSeek,
        name: "XM_trace_seek",
        category: Category::TraceManagement,
        params: &[p!("traceDesc", "xm_s32_t"), p!("offset", "xm_s32_t"), p!("whence", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::TraceStatus,
        name: "XM_trace_status",
        category: Category::TraceManagement,
        params: &[p!("traceDesc", "xm_s32_t"), p!("status", "xmAddress_t", ptr)],
        system_only: false,
    },
    // Interrupt management (5)
    HypercallDef {
        id: HypercallId::ClearIrqMask,
        name: "XM_clear_irqmask",
        category: Category::InterruptManagement,
        params: &[p!("hwIrqsMask", "xm_u32_t"), p!("extIrqsMask", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SetIrqMask,
        name: "XM_set_irqmask",
        category: Category::InterruptManagement,
        params: &[p!("hwIrqsMask", "xm_u32_t"), p!("extIrqsMask", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SetIrqPend,
        name: "XM_set_irqpend",
        category: Category::InterruptManagement,
        params: &[p!("hwIrqMask", "xm_u32_t"), p!("extIrqMask", "xm_u32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::RouteIrq,
        name: "XM_route_irq",
        category: Category::InterruptManagement,
        params: &[p!("irqType", "xm_u32_t"), p!("irqNr", "xm_u32_t"), p!("vector", "xm_u32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::DisableIrqs,
        name: "XM_disable_irqs",
        category: Category::InterruptManagement,
        params: &[],
        system_only: false,
    },
    // Miscellaneous (5)
    HypercallDef {
        id: HypercallId::Multicall,
        name: "XM_multicall",
        category: Category::Miscellaneous,
        params: &[p!("startAddr", "xmAddress_t", ptr), p!("endAddr", "xmAddress_t", ptr)],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::FlushCache,
        name: "XM_flush_cache",
        category: Category::Miscellaneous,
        params: &[p!("cacheMask", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SetCacheState,
        name: "XM_set_cache_state",
        category: Category::Miscellaneous,
        params: &[p!("cacheMask", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::GetGidByName,
        name: "XM_get_gid_by_name",
        category: Category::Miscellaneous,
        params: &[p!("name", "xmAddress_t", ptr), p!("entityType", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::WriteConsole,
        name: "XM_write_console",
        category: Category::Miscellaneous,
        params: &[p!("buffer", "xmAddress_t", ptr), p!("length", "xm_s32_t")],
        system_only: false,
    },
    // SPARC V8 specific (12)
    HypercallDef {
        id: HypercallId::SparcAtomicAdd,
        name: "XM_sparc_atomic_add",
        category: Category::SparcSpecific,
        params: &[p!("addr", "xmAddress_t", ptr), p!("value", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcAtomicAnd,
        name: "XM_sparc_atomic_and",
        category: Category::SparcSpecific,
        params: &[p!("addr", "xmAddress_t", ptr), p!("mask", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcAtomicOr,
        name: "XM_sparc_atomic_or",
        category: Category::SparcSpecific,
        params: &[p!("addr", "xmAddress_t", ptr), p!("mask", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcInPort,
        name: "XM_sparc_inport",
        category: Category::SparcSpecific,
        params: &[p!("port", "xm_u32_t"), p!("value", "xmAddress_t", ptr)],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::SparcOutPort,
        name: "XM_sparc_outport",
        category: Category::SparcSpecific,
        params: &[p!("port", "xm_u32_t"), p!("value", "xm_u32_t")],
        system_only: true,
    },
    HypercallDef {
        id: HypercallId::SparcGetPsr,
        name: "XM_sparc_get_psr",
        category: Category::SparcSpecific,
        params: &[],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcSetPsr,
        name: "XM_sparc_set_psr",
        category: Category::SparcSpecific,
        params: &[p!("psr", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcEnableTraps,
        name: "XM_sparc_enable_traps",
        category: Category::SparcSpecific,
        params: &[],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcDisableTraps,
        name: "XM_sparc_disable_traps",
        category: Category::SparcSpecific,
        params: &[],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcSetPil,
        name: "XM_sparc_set_pil",
        category: Category::SparcSpecific,
        params: &[p!("level", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcAckIrq,
        name: "XM_sparc_ackirq",
        category: Category::SparcSpecific,
        params: &[p!("irq", "xm_u32_t")],
        system_only: false,
    },
    HypercallDef {
        id: HypercallId::SparcIFlush,
        name: "XM_sparc_iflush",
        category: Category::SparcSpecific,
        params: &[p!("addr", "xmAddress_t"), p!("size", "xmSize_t")],
        system_only: false,
    },
];

impl HypercallId {
    /// Static definition for this id.
    pub fn def(self) -> &'static HypercallDef {
        // ALL_HYPERCALLS is ordered by id, verified by tests.
        &ALL_HYPERCALLS[self as usize]
    }

    /// Manual name, e.g. `XM_set_timer`.
    pub fn name(self) -> &'static str {
        self.def().name
    }

    /// Table III category.
    pub fn category(self) -> Category {
        self.def().category
    }

    /// Number of ABI parameters.
    pub fn param_count(self) -> usize {
        self.def().params.len()
    }

    /// Decodes a raw hypercall number (e.g. from a multicall batch entry).
    pub fn from_u32(n: u32) -> Option<HypercallId> {
        if (n as usize) < ALL_HYPERCALLS.len() {
            Some(ALL_HYPERCALLS[n as usize].id)
        } else {
            None
        }
    }

    /// Looks up a hypercall by manual name.
    pub fn by_name(name: &str) -> Option<HypercallId> {
        ALL_HYPERCALLS.iter().find(|d| d.name == name).map(|d| d.id)
    }
}

/// Largest register-file arity `RawHypercall` can carry inline. The widest
/// entry in the 61-call API table takes 4 parameters; the headroom lets
/// garbage-register models overfill without spilling to the heap.
pub const MAX_RAW_ARGS: usize = 6;

/// A hypercall invocation at the ABI level: the id and one raw 64-bit word
/// per declared parameter. This is the injection surface of the data type
/// fault model — test datasets are exactly these argument words.
///
/// Arguments are stored inline (`Copy`, no heap), so invocations can be
/// built per scheduling slot and used as hash-map keys without allocating.
/// Unused trailing words are kept zeroed so derived `Eq`/`Hash` agree with
/// the visible `args()` slice.
///
/// ```
/// use xtratum::hypercall::{HypercallId, RawHypercall};
///
/// // The paper's Silent finding, as an ABI-level invocation:
/// let hc = RawHypercall::new(HypercallId::SetTimer, [0, 1, i64::MIN as u64]).unwrap();
/// assert_eq!(hc.to_string(), "XM_set_timer(0, 1, -9223372036854775808)");
/// assert_eq!(hc.arg_s64(2), i64::MIN);
///
/// // Arity is checked against the 61-entry API table.
/// assert!(RawHypercall::new(HypercallId::SetTimer, [0]).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawHypercall {
    /// Which service is requested.
    pub id: HypercallId,
    len: u8,
    words: [u64; MAX_RAW_ARGS],
}

impl RawHypercall {
    /// Builds an invocation, checking arity against the API table.
    pub fn new(id: HypercallId, args: impl AsRef<[u64]>) -> Result<Self, String> {
        let args = args.as_ref();
        if args.len() != id.param_count() {
            return Err(format!(
                "{} takes {} parameters, got {}",
                id.name(),
                id.param_count(),
                args.len()
            ));
        }
        Ok(Self::new_unchecked(id, args))
    }

    /// Builds an invocation without arity checking (used to model a caller
    /// that passes garbage registers; the kernel must still cope).
    ///
    /// Panics if `args` exceeds [`MAX_RAW_ARGS`] — more words than any
    /// SPARC register-file convention can pass.
    pub fn new_unchecked(id: HypercallId, args: impl AsRef<[u64]>) -> Self {
        let args = args.as_ref();
        assert!(
            args.len() <= MAX_RAW_ARGS,
            "{} raw args exceed the {MAX_RAW_ARGS}-word register-file model",
            args.len()
        );
        let mut words = [0u64; MAX_RAW_ARGS];
        words[..args.len()].copy_from_slice(args);
        RawHypercall { id, len: args.len() as u8, words }
    }

    /// The raw parameter words (32-bit parameters occupy the low half).
    pub fn args(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }

    /// Parameter `i` as a 32-bit word (low half of the raw word).
    pub fn arg32(&self, i: usize) -> u32 {
        self.args().get(i).copied().unwrap_or(0) as u32
    }

    /// Parameter `i` as a signed 32-bit value.
    pub fn arg_s32(&self, i: usize) -> i32 {
        self.arg32(i) as i32
    }

    /// Parameter `i` as a signed 64-bit value (`xmTime_t`).
    pub fn arg_s64(&self, i: usize) -> i64 {
        self.args().get(i).copied().unwrap_or(0) as i64
    }
}

impl fmt::Display for RawHypercall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.id.name())?;
        let defs = self.id.def().params;
        for (i, a) in self.args().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match defs.get(i) {
                Some(d) if crate::types::type_info(d.ty).map(|t| t.signed).unwrap_or(false) => {
                    if crate::types::type_info(d.ty).unwrap().bits == 64 {
                        write!(f, "{}", *a as i64)?;
                    } else {
                        write!(f, "{}", *a as u32 as i32)?;
                    }
                }
                Some(d) if d.pointer => write!(f, "{:#010x}", *a as u32)?,
                _ => write!(f, "{}", *a as u32)?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn exactly_61_hypercalls() {
        assert_eq!(ALL_HYPERCALLS.len(), 61);
    }

    #[test]
    fn table_iii_category_totals() {
        let mut per: BTreeMap<Category, usize> = BTreeMap::new();
        for d in ALL_HYPERCALLS {
            *per.entry(d.category).or_default() += 1;
        }
        let expect = [
            (Category::SystemManagement, 3),
            (Category::PartitionManagement, 10),
            (Category::TimeManagement, 2),
            (Category::PlanManagement, 2),
            (Category::InterPartitionCommunication, 10),
            (Category::MemoryManagement, 2),
            (Category::HealthMonitorManagement, 5),
            (Category::TraceManagement, 5),
            (Category::InterruptManagement, 5),
            (Category::Miscellaneous, 5),
            (Category::SparcSpecific, 12),
        ];
        for (cat, n) in expect {
            assert_eq!(per[&cat], n, "{cat}");
        }
    }

    #[test]
    fn ids_are_table_indices() {
        for (i, d) in ALL_HYPERCALLS.iter().enumerate() {
            assert_eq!(d.id as usize, i, "{}", d.name);
            assert_eq!(HypercallId::from_u32(i as u32), Some(d.id));
        }
        assert_eq!(HypercallId::from_u32(61), None);
    }

    #[test]
    fn names_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for d in ALL_HYPERCALLS {
            assert!(d.name.starts_with("XM_"), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
    }

    #[test]
    fn parameterless_hypercalls_are_sixteen_percent() {
        // The paper: "hypercalls with no parameters ... amount to 16 per
        // cent of all XM hypercalls" — 10 of 61.
        let n = ALL_HYPERCALLS.iter().filter(|d| d.params.is_empty()).count();
        assert_eq!(n, 10);
        assert_eq!((n * 100) / ALL_HYPERCALLS.len(), 16);
    }

    #[test]
    fn param_types_all_exist_in_table_i() {
        for d in ALL_HYPERCALLS {
            for p in d.params {
                assert!(
                    crate::types::type_info(p.ty).is_some(),
                    "{}: unknown type {}",
                    d.name,
                    p.ty
                );
            }
        }
    }

    #[test]
    fn fig2_signature_matches() {
        let d = HypercallId::ResetPartition.def();
        assert_eq!(d.name, "XM_reset_partition");
        let sig: Vec<(&str, &str, bool)> =
            d.params.iter().map(|p| (p.name, p.ty, p.pointer)).collect();
        assert_eq!(
            sig,
            vec![
                ("partitionId", "xm_s32_t", false),
                ("resetMode", "xm_u32_t", false),
                ("status", "xm_u32_t", false),
            ]
        );
    }

    #[test]
    fn by_name_round_trip() {
        for d in ALL_HYPERCALLS {
            assert_eq!(HypercallId::by_name(d.name), Some(d.id));
        }
        assert_eq!(HypercallId::by_name("XM_nope"), None);
    }

    #[test]
    fn raw_hypercall_arity_checked() {
        assert!(RawHypercall::new(HypercallId::SetTimer, vec![0, 1, 1]).is_ok());
        assert!(RawHypercall::new(HypercallId::SetTimer, vec![0]).is_err());
        assert!(RawHypercall::new(HypercallId::HaltSystem, vec![]).is_ok());
    }

    #[test]
    fn raw_arg_accessors() {
        let hc = RawHypercall::new(HypercallId::SetTimer, vec![1, 1, i64::MIN as u64]).unwrap();
        assert_eq!(hc.arg32(0), 1);
        assert_eq!(hc.arg_s64(2), i64::MIN);
        // missing args read as zero (garbage-register model)
        let short = RawHypercall::new_unchecked(HypercallId::SetTimer, vec![]);
        assert_eq!(short.arg32(0), 0);
        assert_eq!(short.arg_s64(2), 0);
    }

    #[test]
    fn display_formats_signed_and_pointers() {
        let hc = RawHypercall::new(HypercallId::SetTimer, vec![0, 1, i64::MIN as u64]).unwrap();
        assert_eq!(hc.to_string(), "XM_set_timer(0, 1, -9223372036854775808)");
        let mc = RawHypercall::new(HypercallId::Multicall, vec![0, 0x4010_0000]).unwrap();
        assert_eq!(mc.to_string(), "XM_multicall(0x00000000, 0x40100000)");
        let rp = RawHypercall::new(HypercallId::ResetPartition, vec![(-1i32) as u32 as u64, 2, 16])
            .unwrap();
        assert_eq!(rp.to_string(), "XM_reset_partition(-1, 2, 16)");
    }

    #[test]
    fn category_labels_match_table_iii() {
        assert_eq!(Category::InterPartitionCommunication.label(), "Inter-Partition Communication");
        assert_eq!(Category::SparcSpecific.label(), "Sparc V8 Specific");
        assert_eq!(Category::ALL.len(), 11);
    }

    #[test]
    fn system_only_services_include_global_controls() {
        for id in [
            HypercallId::HaltSystem,
            HypercallId::ResetSystem,
            HypercallId::HaltPartition,
            HypercallId::SwitchSchedPlan,
            HypercallId::HmRead,
        ] {
            assert!(id.def().system_only, "{}", id.name());
        }
        assert!(!HypercallId::GetTime.def().system_only);
    }
}

//! `xtratum` — a Rust reimplementation of the XtratuM separation kernel
//! semantics, as exercised by the paper's robustness campaign.
//!
//! XtratuM (XM) is a bare-metal hypervisor providing Time and Space
//! Partitioning for highly critical systems. This crate models the
//! components the paper enumerates (Section IV.A):
//!
//! * memory management (spatial separation) — [`config`], services in
//!   [`kernel`], backed by [`leon3_sim::addrspace`];
//! * scheduling (temporal separation) — [`sched`];
//! * interrupt management — [`irq`];
//! * clock / timer management — [`vtimer`];
//! * inter-partition communication — [`ipc`];
//! * health monitor — [`hm`];
//! * tracing facilities — [`trace`];
//!
//! plus the full **61-hypercall API** in the paper's eleven categories
//! ([`hypercall`]) and the two partition levels (normal / system).
//!
//! # Legacy vs. patched builds
//!
//! The campaign's nine findings were real XtratuM defects that the XM team
//! subsequently fixed. To reproduce the experiment we need the *defective*
//! kernel; to reproduce the fixes we need the *revised* one. [`vuln`]
//! captures both as [`vuln::KernelBuild`] — `Legacy` seeds exactly the
//! vulnerabilities described in Section IV (unchecked `XM_reset_system`
//! mode, `XM_set_timer` minimum-interval recursion / trap storm / negative
//! interval acceptance, `XM_multicall` missing pointer validation and
//! unbounded batches); `Patched` applies the documented fixes.
//!
//! # Execution model
//!
//! Partition code is supplied as [`guest::GuestProgram`] values. The
//! kernel runs a cyclic plan; within a slot the guest receives a
//! [`guest::PartitionApi`] through which it consumes simulated time and
//! issues hypercalls ([`hypercall::RawHypercall`] — raw 64-bit words per
//! parameter, exactly the surface the data type fault model perturbs).

pub mod config;
pub mod guest;
pub mod hm;
pub mod hypercall;
pub mod ipc;
pub mod irq;
pub mod kernel;
pub mod observe;
pub mod partition;
pub mod retcode;
pub mod sched;
pub mod services;
pub mod trace;
pub mod types;
pub mod vtimer;
pub mod vuln;

pub use config::{ChannelCfg, MemAreaCfg, PartitionCfg, PlanCfg, SlotCfg, XmConfig};
pub use guest::{GuestProgram, GuestSet, PartitionApi, SliceState};
pub use hm::{HmAction, HmEventKind, HmLogEntry};
pub use hypercall::{Category, HypercallId, ParamDef, RawHypercall, ALL_HYPERCALLS};
pub use kernel::{KernelState, XmKernel};
pub use observe::{OpsEvent, RunSummary};
pub use partition::PartitionStatus;
pub use retcode::XmRet;
pub use types::XmTime;
pub use vuln::KernelBuild;

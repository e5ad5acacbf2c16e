//! `leon3-sim` — a LEON3/TSIM-flavoured machine substrate.
//!
//! The paper's testbed runs XtratuM on a SPARC LEON3 processor simulated by
//! Aeroflex Gaisler's TSIM. Neither the hardware nor the commercial
//! simulator is available here, so this crate provides the closest
//! synthetic equivalent that exercises the same code paths the robustness
//! campaign observes:
//!
//! * a 32-bit physical **address space** with named regions, per-partition
//!   protection contexts, and alignment checks ([`addrspace`]) — the
//!   substrate for spatial partitioning and for the `XM_multicall` /
//!   `XM_memory_copy` pointer-validation experiments;
//! * the SPARC V8 **trap model** ([`trap`]) — data access exceptions,
//!   window overflow (the kernel-stack overflow vehicle of the
//!   `XM_set_timer` bug), interrupt levels, software traps (hypercalls);
//! * GRLIB-style devices: a two-unit **GPTIMER** ([`timer`]), an **IRQMP**
//!   interrupt controller ([`irqmp`]) and an APBUART console ([`uart`]);
//! * a composed [`machine::Machine`] with a TSIM-like health state: the
//!   simulator itself can *crash* (the paper's `XM_set_timer(1,1,1)` test
//!   kills TSIM with a timer trap storm; we reproduce that as a detected
//!   trap flood), which the robustness classifier treats as its own
//!   terminal outcome.
//!
//! Fidelity note: no SPARC instructions are interpreted. Guest "code" is
//! supplied by the embedding kernel as Rust callables that consume
//! simulated time and raise traps/hypercalls; the data type fault model
//! only observes the ABI boundary, which is fully modelled.

pub mod addrspace;
pub mod irqmp;
pub mod machine;
pub mod timer;
pub mod trap;
pub mod uart;

pub use addrspace::{
    AccessCtx, AccessKind, AddressSpace, MemFault, MemFaultKind, Owner, Perms, Region,
};
pub use machine::{Machine, MachineConfig, SimHealth};
pub use timer::{GpTimer, TimerUnit};
pub use trap::Trap;

/// A 32-bit physical address on the simulated bus.
pub type Addr = u32;

/// Simulated time in microseconds since power-on.
pub type TimeUs = u64;

//! The testbed abstraction (paper Section III.B: "the methodology
//! involves the use of an IMA testbed with dummy partitions defined by
//! the separation kernel under test").
//!
//! A testbed knows how to boot a fresh kernel with its nominal guest
//! programs, which partition hosts the fault placeholders, and what the
//! reference oracle needs to know about the configuration. The `eagleeye`
//! crate provides the paper's instance (the EagleEye TSP spacecraft).

use crate::oracle::OracleContext;
use xtratum::guest::{GuestSet, PartitionApi};
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

/// A booted testbed captured once per worker, the state every test of
/// the worker rewinds its [`Workspace`] to. Booting — config validation,
/// memory-map construction, guest initialisation — is done once, not per
/// test; rewinding to the captured state is a bounded copy and is
/// observationally identical because tests never share a workspace.
///
/// [`Testbed::snapshot`] captures the boot state. The campaign executor
/// then runs it forward with [`BootSnapshot::step_until_slot_of`] to the
/// test partition's first slot and with [`BootSnapshot::enter_slot_of`]
/// through the test partition's prologue in it, so the first-frame work
/// of the partitions scheduled before it, and the prologue every test
/// runs first, are simulated once per worker, not once per test.
pub struct BootSnapshot {
    kernel: XmKernel,
    guests: GuestSet,
}

impl BootSnapshot {
    /// Captures a snapshot from a booted pair. Returns `None` when any
    /// guest is not cloneable (see [`xtratum::guest::GuestProgram::clone_boxed`]).
    pub fn capture(kernel: XmKernel, guests: GuestSet) -> Option<Self> {
        // Verify clonability once up front so `instantiate` can't fail
        // halfway through a campaign.
        guests.try_clone()?;
        Some(BootSnapshot { kernel, guests })
    }

    /// A fresh, independent booted `(kernel, guests)` pair.
    pub fn instantiate(&self) -> (XmKernel, GuestSet) {
        (self.kernel.clone(), self.guests.try_clone().expect("checked in capture"))
    }

    /// Runs the captured state forward to just before partition `pid`'s
    /// first slot (see [`XmKernel::step_until_slot_of`]). `pid`'s guest
    /// never runs, so the state is the same whatever guest a test later
    /// installs there. Call it before materialising workspaces.
    pub fn step_until_slot_of(&mut self, pid: u32) {
        self.kernel.step_until_slot_of(&mut self.guests, pid);
    }

    /// Then opens `pid`'s slot and runs `prologue` in it, leaving the
    /// captured state inside the slot (see [`XmKernel::enter_slot_of`]):
    /// a guest a test installs in `pid` resumes after the prologue
    /// instead of running it. Returns whether it did; on `false` nothing
    /// changed and tests start at the slot's beginning.
    pub fn enter_slot_of(&mut self, pid: u32, prologue: fn(&mut PartitionApi<'_>)) -> bool {
        self.kernel.enter_slot_of(pid, prologue)
    }

    /// The captured kernel: a restored workspace's memory equals its
    /// memory until the workspace runs.
    pub fn kernel(&self) -> &XmKernel {
        &self.kernel
    }

    /// Materialises a worker's persistent [`Workspace`] — one deep copy
    /// of the snapshot's state that is *rewound* before every test instead of
    /// re-cloned per test.
    pub fn workspace(&self) -> Workspace {
        let (kernel, guests) = self.instantiate();
        Workspace { kernel, guests }
    }
}

/// A worker's persistent execution arena over a [`BootSnapshot`].
///
/// The snapshot's memory is held flat (see
/// [`leon3_sim::addrspace::AddressSpace`]), so [`Workspace::restore`] is
/// one bounded copy: the 256-byte blocks the last test wrote stream back
/// from the snapshot's image (about 1.8 KiB per EagleEye test on the
/// prefix arena), kernel bookkeeping rewinds through capacity-preserving
/// `clone_from`s, the immutable configuration `Arc`s stay as they are,
/// and guests reset by assignment. No refcount traffic, no allocation
/// once the first test has warmed the buffers — this replaces the
/// clone-per-test scheme whose copy-on-write page chasing dominated the
/// campaign hot path.
pub struct Workspace {
    kernel: XmKernel,
    guests: GuestSet,
}

impl Workspace {
    /// Rewinds kernel and guests to `snapshot`'s state. `skip_guest`
    /// names a partition whose guest the caller will replace immediately
    /// (the executor's test partition, which receives a fresh mutant each
    /// test). `snapshot` must be the one this workspace was materialised
    /// from.
    pub fn restore(&mut self, snapshot: &BootSnapshot, skip_guest: Option<u32>) {
        self.kernel.restore_from(&snapshot.kernel);
        let ok = self.guests.restore_from(&snapshot.guests, skip_guest);
        debug_assert!(ok, "snapshot guests verified cloneable at capture");
    }

    /// The working `(kernel, guests)` pair.
    pub fn parts(&mut self) -> (&mut XmKernel, &mut GuestSet) {
        (&mut self.kernel, &mut self.guests)
    }
}

/// An IMA testbed that can host robustness tests.
pub trait Testbed: Sync {
    /// Boots a fresh kernel + nominal guest set for one test execution.
    fn boot(&self, build: KernelBuild) -> (XmKernel, GuestSet);

    /// Boots once and captures a reusable [`BootSnapshot`], or `None`
    /// when this testbed's guests cannot be cloned (the executor then
    /// falls back to one fresh [`Testbed::boot`] per test).
    fn snapshot(&self, build: KernelBuild) -> Option<BootSnapshot> {
        let (kernel, guests) = self.boot(build);
        BootSnapshot::capture(kernel, guests)
    }

    /// The partition that hosts the fault placeholders (EagleEye: FDIR,
    /// the only system partition).
    fn test_partition(&self) -> u32;

    /// Number of major frames each test runs ("the TSP system is run ...
    /// for a selected number of cyclic schedules").
    fn frames_per_test(&self) -> u32 {
        4
    }

    /// Initialisation the test partition performs on every (re)boot
    /// before the first fault placeholder executes: writing scratch
    /// patterns, creating its configured ports, raising its boot HM
    /// event. This fixes the system state the oracle reasons about.
    fn prologue(&self) -> fn(&mut PartitionApi<'_>);

    /// Everything the reference oracle needs to predict outcomes on this
    /// testbed.
    fn oracle_context(&self, build: KernelBuild) -> OracleContext;
}

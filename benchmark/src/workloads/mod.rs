//! The four campaign-mode workloads, one per campaign driver: the
//! single-call `sweep` (`skrt::exec`), stateful `sequences`
//! (`skrt::sequence`), greybox `fuzz` (`skrt::fuzz`) and the small-scope
//! `check` (`skrt::check`). All run the legacy build, the one the paper
//! tested, on one worker thread.
//!
//! Each workload has two drivers. The untraced pass calls the crate's
//! public campaign entry point and is what the end-to-end metrics time.
//! The traced pass drives the same work units through the public layer
//! calls, with a span around each call, and must reach the same verdicts:
//! its digest is compared with the untraced one on every pass. Each
//! workload also names its host reference: the same set-up and pass on the
//! frozen copy of the program (`crate::reference`).

use crate::reference::Reference;
use crate::trace::Tracer;
use skrt::testbed::{BootSnapshot, Testbed, Workspace};
use std::fmt::{Display, Write as _};
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

pub mod check;
pub mod fuzz;
pub mod sequences;
pub mod sweep;

/// The kernel build every workload runs.
pub const BUILD: KernelBuild = KernelBuild::Legacy;

/// One campaign-mode workload.
pub trait Workload {
    /// What one work unit is (`tests`, `steps`, `execs`, `cases`).
    const UNIT: &'static str;
    /// Inputs a pass consumes, built from the seed by [`Workload::setup`].
    type Input;
    /// What one untraced pass returns.
    type Output;

    /// Builds the pass inputs from `seed` and boots the testbed snapshot
    /// and workspace a campaign worker starts from.
    fn setup(seed: u64) -> Self::Input;

    /// One untraced pass through the crate's public campaign entry point.
    fn pass(input: &Self::Input) -> Self::Output;

    /// Work units one pass completes.
    fn units(input: &Self::Input) -> u64;

    /// Digest over every verdict of a pass.
    fn digest(out: &Self::Output) -> u64;

    /// Checks the pinned outputs (for seed 1 where the workload depends on
    /// the seed).
    fn check_pins(seed: u64, out: &Self::Output) -> Result<(), String>;

    /// One traced pass. Returns a digest that must equal
    /// [`Workload::traced_expected`] of the untraced pass's output.
    fn traced(input: &Self::Input, untraced: &Self::Output, tr: &mut Tracer) -> u64;

    /// The digest a faithful traced pass reproduces.
    fn traced_expected(out: &Self::Output) -> u64 {
        Self::digest(out)
    }

    /// Work units one traced pass completes.
    fn traced_units(input: &Self::Input, _untraced: &Self::Output) -> u64 {
        Self::units(input)
    }

    /// The same campaign on the same inputs, on the frozen copy of the
    /// program: timed next to every pass to cancel the host's speed changes.
    fn host_reference(seed: u64) -> Reference;

    /// Records layer facts read from an untraced pass's output (cache hit
    /// ratios, corpus size, findings) and, where the program runs with the
    /// flight recorder off, one recorder-on counting pass.
    fn facts(input: &Self::Input, out: &Self::Output, tr: &mut Tracer);
}

/// FNV-1a over a sequence of displayed fields. Stable across Rust
/// releases, unlike `DefaultHasher`, so digests can be pinned.
pub struct Digest {
    hash: u64,
    buf: String,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest { hash: 0xcbf2_9ce4_8422_2325, buf: String::new() }
    }

    /// Adds one field; fields are separated, so `("ab", "c")` and
    /// `("a", "bc")` differ.
    pub fn add(&mut self, field: impl Display) -> &mut Self {
        self.buf.clear();
        write!(self.buf, "{field}").expect("writing to a String cannot fail");
        for &b in self.buf.as_bytes().iter().chain(&[0xff]) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Steps as one displayable field.
pub fn steps_text(steps: &[xtratum::hypercall::RawHypercall]) -> String {
    steps.iter().map(|s| s.to_string()).collect::<Vec<_>>().join("; ")
}

/// Boots `tb` and materialises a worker's arena from it, as each
/// campaign driver does once per worker (and `check` once per
/// configuration): `testbed.boot` then `testbed.snapshot`.
pub fn boot_arena<T: Testbed + ?Sized>(tr: &mut Tracer, tb: &T) -> (BootSnapshot, Workspace) {
    let (kernel, guests) = tr.span("testbed.boot", || tb.boot(BUILD));
    tr.span("testbed.snapshot", || {
        let snap = BootSnapshot::capture(kernel, guests).expect("testbed guests are cloneable");
        let ws = snap.workspace();
        (snap, ws)
    })
}

/// Rewinds the arena to the boot snapshot, counting the pages the rewind
/// copies back.
pub fn rewind(tr: &mut Tracer, ws: &mut Workspace, snap: &BootSnapshot, skip_guest: u32) {
    let dirty = ws.parts().0.machine.mem.dirty_pages();
    tr.count("testbed.dirty_pages", dirty as f64);
    tr.span("testbed.rewind", || ws.restore(snap, Some(skip_guest)));
}

/// Counts the kernel time advances made since `before` (an earlier
/// `advance_stats()` of the same kernel), split into the quiescent fast
/// path and the expiry-processing path.
pub fn count_advances(tr: &mut Tracer, kernel: &XmKernel, before: (u64, u64)) {
    let (q, p) = kernel.advance_stats();
    tr.count("leon3.advances_quiescent", (q - before.0) as f64);
    tr.count("leon3.advances_processed", (p - before.1) as f64);
}

/// Counts the events and hypercalls in one unit's drained flight.
pub fn count_flight(tr: &mut Tracer, events: &[flightrec::Event]) {
    let hypercalls =
        events.iter().filter(|e| e.kind == flightrec::EventKind::HypercallEnter).count();
    tr.count("flightrec.units", 1.0);
    tr.count("flightrec.events", events.len() as f64);
    tr.count("xtratum.hypercalls", hypercalls as f64);
}

/// Times `XmKernel::hypercall` on one cheap representative service per
/// Table III category (the `kernel_microbench` set), called from the test
/// partition of a freshly booted legacy EagleEye kernel. Each category adds
/// one `dispatch.<category>` sample (CPU ns per call) per batch.
pub fn dispatch_probe(tr: &mut Tracer) {
    use eagleeye::map::SCRATCH;
    use xtratum::hypercall::{HypercallId as H, RawHypercall};
    const BATCHES: usize = 15;
    const CALLS: u64 = 400;
    let s = SCRATCH as u64;
    let reps: [(&'static str, H, &[u64]); 11] = [
        ("dispatch.system", H::GetSystemStatus, &[s]),
        ("dispatch.partition", H::GetPartitionStatus, &[1, s]),
        ("dispatch.time", H::GetTime, &[0, s]),
        ("dispatch.plan", H::GetPlanStatus, &[s]),
        ("dispatch.ipc", H::FlushAllPorts, &[]),
        ("dispatch.memory", H::UpdatePage32, &[s, 7]),
        ("dispatch.hm", H::HmStatus, &[s]),
        ("dispatch.trace", H::TraceStatus, &[0, s]),
        ("dispatch.interrupt", H::SetIrqMask, &[0, 0]),
        ("dispatch.misc", H::FlushCache, &[3]),
        ("dispatch.sparc", H::SparcGetPsr, &[]),
    ];
    let tb = eagleeye::EagleEye;
    for (counter, id, args) in reps {
        let (mut kernel, _guests) = tb.boot(BUILD);
        let hc = RawHypercall::new_unchecked(id, args);
        let caller = tb.test_partition();
        for _ in 0..CALLS {
            std::hint::black_box(kernel.hypercall(caller, &hc));
        }
        for _ in 0..BATCHES {
            let t = crate::measure::cpu_ns();
            for _ in 0..CALLS {
                std::hint::black_box(kernel.hypercall(caller, &hc));
            }
            tr.count(counter, (crate::measure::cpu_ns() - t) as f64 / CALLS as f64);
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of the first-hit execution indices, with signatures never hit
/// counted at the full budget.
pub fn censored_median(hits: &[Option<u64>], budget: u64) -> f64 {
    let xs: Vec<f64> = hits.iter().map(|h| h.unwrap_or(budget) as f64).collect();
    if xs.is_empty() {
        return 0.0;
    }
    crate::measure::median(&xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields_and_is_stable() {
        let ab_c = Digest::new().add("ab").add("c").finish();
        let a_bc = Digest::new().add("a").add("bc").finish();
        assert_ne!(ab_c, a_bc);
        assert_eq!(ab_c, Digest::new().add("ab").add("c").finish());
        // FNV-1a of "" followed by the 0xff separator.
        assert_eq!(
            Digest::new().add("").finish(),
            (0xcbf2_9ce4_8422_2325u64 ^ 0xff).wrapping_mul(0x0100_0000_01b3)
        );
    }

    #[test]
    fn censored_median_counts_misses_at_the_budget() {
        assert_eq!(censored_median(&[Some(10), Some(30), None], 6000), 30.0);
        assert_eq!(censored_median(&[Some(10), None, None], 6000), 6000.0);
    }
}

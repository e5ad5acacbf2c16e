//! Prefix arenas against their slow reference: a kernel run up to a
//! partition's first slot (`XmKernel::step_until_slot_of`) and then
//! stepped `n` major frames must be indistinguishable from the same
//! kernel stepped `n` frames from boot — same run summary, same per-frame
//! `StateDigest`s, same advance statistics. The campaign executor
//! captures every worker's arena at the test partition's first slot, so
//! this is what keeps its verdicts equal to fresh-boot runs. Checked on
//! every EagleEye partition and on every configuration the small-scope
//! checker enumerates.
//!
//! A rewound arena against the same reference: after any run, a
//! workspace restored to its prefix snapshot must equal a fresh boot
//! stepped to the same slot, in every memory byte and in everything the
//! oracle and harness read. This is what lets a finding found on an arena
//! be re-verdicted on a fresh boot and get the same answer.

use eagleeye::{EagleEye, BATCH_END, BATCH_START, FDIR, SCRATCH};
use leon3_sim::addrspace::AccessCtx;
use skrt::check::{enumerate_configs, part_base, probes_for, CheckScope, CheckTestbed, CALLER};
use skrt::mutant::MutantGuest;
use skrt::sequence::run_one_sequence_bounded;
use skrt::testbed::{BootSnapshot, Testbed};
use xtratum::guest::GuestSet;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::kernel::{StateDigest, XmKernel};
use xtratum::vuln::KernelBuild;

const BUILD: KernelBuild = KernelBuild::Legacy;

/// What the harness observes of a kernel: the summary, the advance stats,
/// the clock and the health monitor's partition-reset flags (which no
/// digest or summary reads).
fn observed(k: &XmKernel) -> String {
    let flags = k.hm_reset_flags();
    format!("{:?}|{:?}|{}|{flags:?}", k.summary(), k.advance_stats(), k.machine.now())
}

/// Steps `n` frames one at a time, returning each frame's digest as
/// `caller` sees it.
fn frame_digests(k: &mut XmKernel, g: &mut GuestSet, caller: u32, n: u32) -> Vec<StateDigest> {
    (0..n)
        .map(|_| {
            k.step_major_frames(g, 1);
            k.state_digest(caller)
        })
        .collect()
}

/// For every `pid` of the testbed and `n` in 1..=4: resuming after
/// `pid`'s prefix equals stepping from boot, frame by frame and in one
/// call. `boot` yields the booted pair with every guest installed.
fn assert_prefix_transparent(
    label: &str,
    partitions: u32,
    caller: u32,
    boot: impl Fn() -> (XmKernel, GuestSet),
) {
    for pid in 0..=partitions {
        for n in 1..=4 {
            let (mut k, mut g) = boot();
            let want_digests = frame_digests(&mut k, &mut g, caller, n);
            let want = observed(&k);

            let (mut k, mut g) = boot();
            k.step_until_slot_of(&mut g, pid);
            assert_eq!(k.summary().frames_completed, 0, "{label}: pid {pid}'s prefix ran a frame");
            assert_eq!(
                frame_digests(&mut k, &mut g, caller, n),
                want_digests,
                "{label}: pid {pid}, frame digests over {n} frames"
            );
            assert_eq!(observed(&k), want, "{label}: pid {pid}, {n} single frames");

            let (mut k, mut g) = boot();
            k.step_until_slot_of(&mut g, pid);
            k.step_major_frames(&mut g, n);
            assert_eq!(observed(&k), want, "{label}: pid {pid}, {n} frames in one call");
        }
    }
}

/// Every EagleEye partition (plus one that owns no slot), with the
/// nominal mission and with a campaign mutant in FDIR.
#[test]
fn eagleeye_prefix_resume_equals_boot() {
    let n = EagleEye::config().partitions.len() as u32;
    assert_prefix_transparent("EagleEye nominal", n, FDIR, || EagleEye::boot_nominal(BUILD));
    let get_time = RawHypercall::new_unchecked(HypercallId::GetTime, [0, SCRATCH as u64]);
    assert_prefix_transparent("EagleEye mutant", n, FDIR, || {
        let (k, mut g) = EagleEye.boot(BUILD);
        g.set(FDIR, Box::new(MutantGuest::new(get_time, EagleEye.prologue())));
        (k, g)
    });
}

/// Every enumerated small-scope configuration: each partition's prefix
/// with a mutant in the caller, then every probe run the way the checker
/// runs it — the caller's guest installed only after the prefix, exactly
/// as an executor arena does.
#[test]
fn check_configs_prefix_resume_equals_boot() {
    let scope = CheckScope::default();
    for cfg in enumerate_configs(&scope) {
        let tb = CheckTestbed::new(cfg.clone());
        let label = cfg.describe();
        let get_time =
            RawHypercall::new_unchecked(HypercallId::GetTime, [0, part_base(CALLER) as u64]);
        assert_prefix_transparent(&label, cfg.n_partitions, CALLER, || {
            let (k, mut g) = tb.boot(BUILD);
            g.set(CALLER, Box::new(MutantGuest::new(get_time, tb.prologue())));
            (k, g)
        });

        let ctx = tb.oracle_context(BUILD);
        let horizon = scope.horizon as usize;
        for probe in probes_for(&cfg) {
            let run = |prefix: bool| {
                let (mut k, mut g) = tb.boot(BUILD);
                if prefix {
                    k.step_until_slot_of(&mut g, CALLER);
                }
                let eval =
                    run_one_sequence_bounded(&tb, &ctx, &mut k, &mut g, &probe.steps, 1, horizon);
                format!(
                    "{:?}|{}|{:?}|{:?}|{}",
                    eval.verdict,
                    eval.steps_executed,
                    eval.outcomes,
                    eval.frame_digests,
                    observed(&k)
                )
            };
            assert_eq!(run(true), run(false), "{label}: probe {}", probe.name);
        }
    }
}

/// Every region's bytes, then `caller`'s digest and in-place hash, then
/// [`observed`]: what a rewound workspace must share with a fresh boot.
type KernelView = (Vec<Vec<u8>>, StateDigest, u64, String);

fn kernel_view(k: &XmKernel, caller: u32) -> KernelView {
    let mem = &k.machine.mem;
    let regions = mem.regions();
    let bytes = regions
        .iter()
        .map(|r| mem.read_bytes(AccessCtx::Kernel, r.base, r.size).unwrap())
        .collect();
    (bytes, k.state_digest(caller), k.state_hash(caller), observed(k))
}

fn assert_views_equal(got: &KernelView, want: &KernelView, label: &str) {
    // Compared field by field, so a memory mismatch names the region
    // instead of printing 64 KiB images.
    for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
        assert!(g == w, "{label}: region {i}'s bytes differ from a fresh boot's");
    }
    assert_eq!(got.0.len(), want.0.len(), "{label}: region count");
    assert_eq!(got.1, want.1, "{label}: state digest");
    assert_eq!(got.2, want.2, "{label}: state hash");
    assert_eq!(got.3, want.3, "{label}: summary, advance stats, clock and HM reset flags");
}

/// The prefix arena a campaign worker keeps for `tb`: its snapshot run
/// up to the test partition's first slot, and a fresh boot stepped to the
/// same slot viewed as the reference.
fn prefix_arena(tb: &impl Testbed) -> (BootSnapshot, KernelView) {
    let part = tb.test_partition();
    let mut snapshot = tb.snapshot(BUILD).expect("testbed guests are cloneable");
    snapshot.step_until_slot_of(part);
    let (mut k, mut g) = tb.boot(BUILD);
    k.step_until_slot_of(&mut g, part);
    (snapshot, kernel_view(&k, part))
}

/// Every default-scope `check` configuration: after each of its probes,
/// run the way the checker runs it on an arena, the rewound workspace
/// equals a fresh boot stepped to the caller's first slot. Some runs
/// (the legacy multicall overrun, reset by the health monitor) end with
/// a partition-reset flag still set, so the rewind must clear it.
#[test]
fn check_rewinds_equal_fresh_boots() {
    let scope = CheckScope::default();
    let mut flagged = 0;
    for cfg in enumerate_configs(&scope) {
        let tb = CheckTestbed::new(cfg.clone());
        let ctx = tb.oracle_context(BUILD);
        let (snapshot, want) = prefix_arena(&tb);
        let mut ws = snapshot.workspace();
        for probe in probes_for(&cfg) {
            let (k, g) = ws.parts();
            run_one_sequence_bounded(&tb, &ctx, k, g, &probe.steps, 1, scope.horizon as usize);
            flagged += usize::from(k.hm_reset_flags().contains(&true));
            ws.restore(&snapshot, Some(CALLER));
            let label = format!("{}: after probe {}", cfg.describe(), probe.name);
            assert_views_equal(&kernel_view(ws.parts().0, CALLER), &want, &label);
        }
    }
    assert!(flagged > 0, "no probe ends with an HM reset flag set");
}

/// EagleEye after mutants that write FDIR memory — a timestamp, a copy
/// straddling several blocks, a multicall batch, a periodic timer — each
/// run for a campaign test's frames on one arena: the rewound workspace
/// equals a fresh boot stepped to FDIR's first slot.
#[test]
fn eagleeye_rewinds_equal_fresh_boots() {
    let call = |id, args: &[u64]| RawHypercall::new_unchecked(id, args);
    let mutants = [
        call(HypercallId::GetTime, &[0, SCRATCH as u64]),
        call(HypercallId::MemoryCopy, &[SCRATCH as u64 + 0x1F0, BATCH_START as u64, 0x600]),
        call(HypercallId::Multicall, &[BATCH_START as u64, BATCH_END as u64]),
        call(HypercallId::SetTimer, &[0, 500, 500]),
    ];
    let (snapshot, want) = prefix_arena(&EagleEye);
    let mut ws = snapshot.workspace();
    for mutant in mutants {
        let (k, g) = ws.parts();
        g.set(FDIR, Box::new(MutantGuest::new(mutant, EagleEye.prologue())));
        k.step_major_frames(g, EagleEye.frames_per_test());
        assert!(k.machine.mem.dirty_bytes() > 0, "{mutant:?} wrote no memory");
        ws.restore(&snapshot, Some(FDIR));
        assert_views_equal(&kernel_view(ws.parts().0, FDIR), &want, &format!("{mutant:?}"));
    }
}

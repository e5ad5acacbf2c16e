//! Prefix arenas against their slow reference: a kernel run up to a
//! partition's first slot (`XmKernel::step_until_slot_of`) and then
//! stepped `n` major frames must be indistinguishable from the same
//! kernel stepped `n` frames from boot — same run summary, same per-frame
//! `StateDigest`s, same advance statistics. So must a kernel that then
//! also opened the test partition's slot and ran its prologue there
//! (`XmKernel::enter_slot_of`), the point every campaign worker captures
//! its arena at: the guest a test installs resumes after the prologue and
//! never runs it a second time. Checked on every EagleEye partition and on
//! every configuration the small-scope checker enumerates, on both builds.
//!
//! A rewound arena against the same reference: after any run, a
//! workspace restored to its post-prologue snapshot must equal a fresh
//! boot brought to the same point, in every memory byte and in everything
//! the oracle and harness read. This is what lets a finding found on an
//! arena be re-verdicted on a fresh boot and get the same answer.

use eagleeye::{EagleEye, BATCH_END, BATCH_START, FDIR, FDIR_BOOT_EVENT, SCRATCH};
use leon3_sim::addrspace::AccessCtx;
use skrt::check::{enumerate_configs, part_base, probes_for, CheckScope, CheckTestbed, CALLER};
use skrt::mutant::MutantGuest;
use skrt::sequence::run_one_sequence_bounded;
use skrt::testbed::{BootSnapshot, Testbed};
use xtratum::guest::{GuestSet, PartitionApi};
use xtratum::hm::HmEventKind;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::kernel::{StateDigest, XmKernel};
use xtratum::vuln::KernelBuild;

const BUILD: KernelBuild = KernelBuild::Legacy;
const BUILDS: [KernelBuild; 2] = [KernelBuild::Legacy, KernelBuild::Patched];

/// What the harness observes of a kernel: the summary (HM log and
/// console included), the advance stats, the clock and the health
/// monitor's partition-reset flags (which no digest or summary reads).
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

/// Where a kernel resumes from: boot, `pid`'s first slot, or inside
/// `pid`'s first slot after `prologue` ran there.
#[derive(Clone, Copy)]
enum Resume {
    Slot(u32),
    Prologue(u32, fn(&mut PartitionApi<'_>)),
}

/// Brings a booted pair to `resume`; returns whether `enter_slot_of`
/// opened the slot (always `false` for `Resume::Slot`).
fn bring_to(k: &mut XmKernel, g: &mut GuestSet, resume: Resume) -> bool {
    match resume {
        Resume::Slot(pid) => {
            k.step_until_slot_of(g, pid);
            false
        }
        Resume::Prologue(pid, prologue) => {
            k.step_until_slot_of(g, pid);
            k.enter_slot_of(pid, prologue)
        }
    }
}

/// For `n` in 1..=4: resuming from `resume` equals stepping from boot,
/// frame by frame and in one call. `boot` yields the booted pair with
/// every guest installed. Returns whether the prologue's slot opened.
fn assert_resume_transparent(
    label: &str,
    caller: u32,
    resume: Resume,
    boot: &impl Fn() -> (XmKernel, GuestSet),
) -> bool {
    let mut entered = false;
    for n in 1..=4 {
        let (mut k, mut g) = boot();
        let want_digests = frame_digests(&mut k, &mut g, caller, n);
        let want = observed(&k);

        let (mut k, mut g) = boot();
        entered = bring_to(&mut k, &mut g, resume);
        assert_eq!(k.summary().frames_completed, 0, "{label}: the prefix ran a frame");
        assert_eq!(
            frame_digests(&mut k, &mut g, caller, n),
            want_digests,
            "{label}: frame digests over {n} frames"
        );
        assert_eq!(observed(&k), want, "{label}: {n} single frames");

        let (mut k, mut g) = boot();
        bring_to(&mut k, &mut g, resume);
        k.step_major_frames(&mut g, n);
        assert_eq!(observed(&k), want, "{label}: {n} frames in one call");
    }
    entered
}

/// Every partition's prefix of the testbed (plus one that owns no slot),
/// and the test partition's post-prologue resume point. Returns whether
/// the latter opened the slot.
fn assert_prefix_transparent(
    label: &str,
    partitions: u32,
    caller: u32,
    prologue: fn(&mut PartitionApi<'_>),
    boot: impl Fn() -> (XmKernel, GuestSet),
) -> bool {
    for pid in 0..=partitions {
        assert_resume_transparent(&format!("{label}: pid {pid}"), caller, Resume::Slot(pid), &boot);
    }
    let resume = Resume::Prologue(caller, prologue);
    assert_resume_transparent(&format!("{label}: after the prologue"), caller, resume, &boot)
}

/// Every EagleEye partition, with the nominal mission and with a campaign
/// mutant in FDIR, on both builds; FDIR's slot always opens.
#[test]
fn eagleeye_prefix_resume_equals_boot() {
    let n = EagleEye::config().partitions.len() as u32;
    let get_time = RawHypercall::new_unchecked(HypercallId::GetTime, [0, SCRATCH as u64]);
    for build in BUILDS {
        let prologue = EagleEye.prologue();
        let nominal = || EagleEye::boot_nominal(build);
        assert!(assert_prefix_transparent("EagleEye nominal", n, FDIR, prologue, nominal));
        let mutant = || {
            let (k, mut g) = EagleEye.boot(build);
            g.set(FDIR, Box::new(MutantGuest::new(get_time, EagleEye.prologue())));
            (k, g)
        };
        assert!(assert_prefix_transparent("EagleEye mutant", n, FDIR, prologue, mutant));
    }
}

/// Every enumerated small-scope configuration on both builds: each
/// partition's prefix and the caller's post-prologue resume point with a
/// mutant in the caller, then every probe run the way the checker runs
/// it — the caller's guest installed only after the prefix, exactly as an
/// executor arena does.
#[test]
fn check_configs_prefix_resume_equals_boot() {
    let scope = CheckScope::default();
    let mut entered = 0;
    for build in BUILDS {
        for cfg in enumerate_configs(&scope) {
            let tb = CheckTestbed::new(cfg.clone());
            let label = format!("{} {}", cfg.describe(), build.label());
            let get_time =
                RawHypercall::new_unchecked(HypercallId::GetTime, [0, part_base(CALLER) as u64]);
            let boot = || {
                let (k, mut g) = tb.boot(build);
                g.set(CALLER, Box::new(MutantGuest::new(get_time, tb.prologue())));
                (k, g)
            };
            let opened =
                assert_prefix_transparent(&label, cfg.n_partitions, CALLER, tb.prologue(), boot);
            assert_eq!(opened, cfg.caller_scheduled(), "{label}: the caller's slot opens");
            entered += usize::from(opened);

            let ctx = tb.oracle_context(build);
            let horizon = scope.horizon as usize;
            for probe in probes_for(&cfg) {
                let run = |resume: Option<Resume>| {
                    let (mut k, mut g) = tb.boot(build);
                    if let Some(resume) = resume {
                        bring_to(&mut k, &mut g, resume);
                    }
                    let eval = run_one_sequence_bounded(
                        &tb,
                        &ctx,
                        &mut k,
                        &mut g,
                        &probe.steps,
                        1,
                        horizon,
                    );
                    format!(
                        "{:?}|{}|{:?}|{:?}|{}",
                        eval.verdict,
                        eval.steps_executed,
                        eval.outcomes,
                        eval.frame_digests,
                        observed(&k)
                    )
                };
                let want = run(None);
                let label = format!("{label}: probe {}", probe.name);
                assert_eq!(run(Some(Resume::Slot(CALLER))), want, "{label}, from the slot");
                let resume = Resume::Prologue(CALLER, tb.prologue());
                assert_eq!(run(Some(resume)), want, "{label}, after the prologue");
            }
        }
    }
    assert!(entered > 0, "no configuration opened the caller's slot");
}

/// A guest resumed after its prologue never runs it again for that
/// boot: over a campaign test's frames, and over a sequence's, the HM
/// log holds exactly one FDIR boot event, as a run from boot does.
#[test]
fn resumed_guests_never_rerun_their_prologue() {
    let boot_events = |k: &XmKernel| {
        let boot = HmEventKind::PartitionRaised { code: FDIR_BOOT_EVENT };
        k.hm_log().iter().filter(|e| e.kind == boot && e.partition == Some(FDIR)).count()
    };
    let get_time = RawHypercall::new_unchecked(HypercallId::GetTime, [0, SCRATCH as u64]);
    for build in BUILDS {
        let ctx = EagleEye.oracle_context(build);
        let mut snapshot = EagleEye.snapshot(build).expect("EagleEye guests are cloneable");
        snapshot.step_until_slot_of(FDIR);
        assert!(snapshot.enter_slot_of(FDIR, EagleEye.prologue()), "FDIR's slot opens");
        assert_eq!(boot_events(snapshot.kernel()), 1, "the arena ran the prologue once");
        let mut ws = snapshot.workspace();
        for _ in 0..2 {
            ws.restore(&snapshot, Some(FDIR));
            let (k, g) = ws.parts();
            g.set(FDIR, Box::new(MutantGuest::new(get_time, EagleEye.prologue())));
            k.step_major_frames(g, EagleEye.frames_per_test());
            assert_eq!(boot_events(k), 1, "{build:?}: a resumed mutant re-ran the prologue");

            ws.restore(&snapshot, Some(FDIR));
            let (k, g) = ws.parts();
            let eval = run_one_sequence_bounded(&EagleEye, &ctx, k, g, &[get_time; 3], 1, 0);
            assert_eq!(eval.steps_executed, 3);
            assert_eq!(boot_events(k), 1, "{build:?}: a resumed sequence re-ran the prologue");
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
/// up to the test partition's first slot and through its prologue there,
/// and a fresh boot brought to the same point viewed as the reference.
fn prefix_arena(tb: &impl Testbed) -> (BootSnapshot, KernelView) {
    let part = tb.test_partition();
    let mut snapshot = tb.snapshot(BUILD).expect("testbed guests are cloneable");
    snapshot.step_until_slot_of(part);
    let entered = snapshot.enter_slot_of(part, tb.prologue());
    let (mut k, mut g) = tb.boot(BUILD);
    assert_eq!(bring_to(&mut k, &mut g, Resume::Prologue(part, tb.prologue())), entered);
    (snapshot, kernel_view(&k, part))
}

/// Every default-scope `check` configuration: after each of its probes,
/// run the way the checker runs it on an arena, the rewound workspace
/// equals a fresh boot brought through the caller's prologue. Some runs
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
/// equals a fresh boot brought through FDIR's prologue.
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

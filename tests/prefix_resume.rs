//! Prefix arenas against their slow reference: a kernel run up to a
//! partition's first slot (`XmKernel::step_until_slot_of`) and then
//! stepped `n` major frames must be indistinguishable from the same
//! kernel stepped `n` frames from boot — same run summary, same per-frame
//! `StateDigest`s, same advance statistics. The campaign executor
//! captures every worker's arena at the test partition's first slot, so
//! this is what keeps its verdicts equal to fresh-boot runs. Checked on
//! every EagleEye partition and on every configuration the small-scope
//! checker enumerates.

use eagleeye::{EagleEye, FDIR, SCRATCH};
use skrt::check::{enumerate_configs, part_base, probes_for, CheckScope, CheckTestbed, CALLER};
use skrt::mutant::MutantGuest;
use skrt::sequence::run_one_sequence_bounded;
use skrt::testbed::Testbed;
use xtratum::guest::GuestSet;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::kernel::{StateDigest, XmKernel};
use xtratum::vuln::KernelBuild;

const BUILD: KernelBuild = KernelBuild::Legacy;

/// What the harness observes of a kernel: the summary, the advance stats
/// and the clock.
fn observed(k: &XmKernel) -> String {
    format!("{:?}|{:?}|{}", k.summary(), k.advance_stats(), k.machine.now())
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

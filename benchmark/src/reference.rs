//! The host-speed reference: each workload's own campaign mode, run on a
//! frozen copy of the program next to every timed pass.
//!
//! The benchmark host is shared. Neighbours slow its CPU by up to ~1.8x in
//! phases of a second or so, and the level drifts over minutes; the process
//! CPU clock slows with it (none of it is accounted as steal), so a pass's
//! CPU time varies by 10–50% between runs of the same code. A loop of our
//! own does not track those slowdowns, because they hit large, branchy code
//! much harder than a tight loop, and even a different mix of the same
//! program tracks them only roughly. The same campaign on the same inputs
//! tracks them closely. `reference/` therefore holds a copy of the
//! program's crates as they were when this benchmark was defined, never
//! edited, and each workload times its pass against that copy running the
//! same campaign on the same inputs right next to it, in the same phase of
//! the host. At the defining commit the ratio is about 1 whatever the seed;
//! later commits change the program but not the copy, so the ratio moves
//! with the program and not with the host or the seed.

use crate::measure::cpu_ns;
use ref_skrt::testbed::Testbed;
use ref_xtratum::vuln::KernelBuild;
use std::any::Any;

type Job = Box<dyn Fn() -> Box<dyn Any>>;

/// A workload's set-up and pass on the frozen copy, built once and run
/// next to every timed set-up and pass.
pub struct Reference {
    setup: Job,
    pass: Job,
    /// CPU seconds of the frozen set-up on the reference host (the median
    /// over five runs). It turns the set-up ratio back into seconds, so
    /// `setup_s` reads as set-up time at that host's speed.
    setup_s: f64,
}

const BUILD: KernelBuild = KernelBuild::Legacy;

/// Boots the frozen testbed and materialises a worker's arena from it,
/// as the live set-ups do.
fn boot_arena<T: Testbed>(tb: &T) {
    let snap = tb.snapshot(BUILD).expect("frozen testbed guests are cloneable");
    std::hint::black_box(snap.workspace());
}

impl Reference {
    /// The full automatic sweep (4976 tests), as the `sweep` workload runs it.
    pub fn sweep() -> Self {
        use ref_skrt::exec::{run_campaign, CampaignOptions};
        let spec = || {
            let api = ref_skrt::apispec::api_header_doc();
            ref_xm_campaign::automatic_campaign(&api, &ref_xm_campaign::paper_dictionary())
                .expect("the frozen spec tables build the automatic campaign")
        };
        let pass_spec = spec();
        let opts = CampaignOptions { build: BUILD, threads: 1, ..Default::default() };
        Reference {
            setup: Box::new(move || {
                let spec = spec();
                let cases = spec.all_cases();
                boot_arena(&ref_eagleeye::EagleEye);
                Box::new((spec, cases))
            }),
            pass: Box::new(move || {
                Box::new(run_campaign(&ref_eagleeye::EagleEye, &pass_spec, &opts))
            }),
            setup_s: 0.000416,
        }
    }

    /// The sequence campaign the `sequences` workload runs, generated by
    /// the frozen generator from the same seed.
    pub fn sequences(seed: u64, count: usize, steps: usize) -> Self {
        use ref_skrt::sequence::{run_sequence_campaign, SequenceOptions};
        let specs = ref_xm_campaign::eagleeye_sequence_specs(seed, count, steps);
        let opts = SequenceOptions { build: BUILD, threads: 1, ..Default::default() };
        Reference {
            setup: Box::new(move || {
                let specs = ref_xm_campaign::eagleeye_sequence_specs(seed, count, steps);
                boot_arena(&ref_eagleeye::EagleEye);
                Box::new(specs)
            }),
            pass: Box::new(move || {
                Box::new(run_sequence_campaign(&ref_eagleeye::EagleEye, &specs, &opts))
            }),
            setup_s: 0.000598,
        }
    }

    /// The fuzzing campaign the `fuzz` workload runs: same alphabet, master
    /// seed and budget.
    pub fn fuzz(seed: u64, max_execs: u64) -> Self {
        use ref_skrt::fuzz::{run_fuzz, FuzzOptions, Mutator};
        let alphabet = ref_xm_campaign::fuzz_benchmark_alphabet();
        let opts = FuzzOptions { build: BUILD, threads: 1, seed, max_execs, ..Default::default() };
        let max_steps = opts.max_steps;
        Reference {
            setup: Box::new(move || {
                let alphabet = ref_xm_campaign::fuzz_benchmark_alphabet();
                std::hint::black_box(Mutator::new(&alphabet, max_steps));
                boot_arena(&ref_eagleeye::EagleEye);
                Box::new(alphabet)
            }),
            pass: Box::new(move || Box::new(run_fuzz(&ref_eagleeye::EagleEye, &alphabet, &opts))),
            setup_s: 0.0000816,
        }
    }

    /// The small-scope check at its default scope, as `check` runs it.
    pub fn check() -> Self {
        use ref_skrt::check::{
            enumerate_configs, probes_for, run_check, CheckOptions, CheckTestbed,
        };
        let opts = CheckOptions { build: BUILD, threads: 1, ..Default::default() };
        let scope = opts.scope;
        Reference {
            setup: Box::new(move || {
                let configs = enumerate_configs(&scope);
                let probes: Vec<_> = configs.iter().map(probes_for).collect();
                for cfg in &configs {
                    boot_arena(&CheckTestbed::new(cfg.clone()));
                }
                Box::new((configs, probes))
            }),
            pass: Box::new(move || Box::new(run_check(&opts))),
            setup_s: 0.00120,
        }
    }

    /// Runs the frozen set-up once and returns its CPU ns.
    pub fn run_setup(&self) -> u64 {
        timed(&self.setup)
    }

    /// Runs the frozen pass once and returns its CPU ns.
    pub fn run_pass(&self) -> u64 {
        timed(&self.pass)
    }

    /// Set-up CPU seconds at the reference host's speed, for a measured
    /// live/frozen set-up CPU ratio.
    pub fn setup_seconds(&self, ratio: f64) -> f64 {
        ratio * self.setup_s
    }
}

/// CPU ns of one run of `job`; its result is dropped after the clock stops,
/// as the timed passes' results are.
fn timed(job: &Job) -> u64 {
    let start = cpu_ns();
    let out = job();
    let spent = cpu_ns() - start;
    drop(out);
    spent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_campaign_runs() {
        for r in [
            Reference::sweep(),
            Reference::sequences(1, 20, 8),
            Reference::fuzz(1, 64),
            Reference::check(),
        ] {
            assert!(r.run_setup() > 0 && r.run_pass() > 0);
            assert_eq!(r.setup_seconds(2.0), 2.0 * r.setup_s);
        }
    }
}

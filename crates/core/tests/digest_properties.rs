//! Property tests for `StateDigest::stable_hash` — the 64-bit
//! architectural-state fingerprint the fuzzer folds into its coverage
//! stream and the checker diffs per frame. Three properties:
//! field-permutation sensitivity (every field participates), stability
//! across runs and threads, and injectivity over the digests the
//! enumerated small-scope configuration set actually produces. Over that
//! same set, the kernel's in-place `state_hash`/`state_matches` must
//! agree with the collected digest, field by field.

use skrt::check::{enumerate_configs, probes_for, CheckScope, CheckTestbed, CALLER};
use skrt::{run_one_sequence_bounded, Testbed};
use std::collections::HashMap;
use xtratum::kernel::StateDigest;
use xtratum::partition::PartitionStatus;
use xtratum::vuln::KernelBuild;

fn base_digest() -> StateDigest {
    StateDigest {
        alive: true,
        sim_running: true,
        partition_status: vec![PartitionStatus::Ready; 3],
        reset_counts: vec![0, 0, 0],
        current_plan: 0,
        pending_plan: None,
        hw_timer_armed: vec![false, false, false],
        exec_timer_owner: None,
        cold_resets: 0,
        warm_resets: 0,
        hm_entries: 0,
        hm_cursor: 0,
        caller_ports: 0,
    }
}

type FieldMutation = (&'static str, Box<dyn Fn(&mut StateDigest)>);

/// One mutation per digest field, each guaranteed to change the field's
/// value whatever it was (the digest needs at least one partition).
fn field_mutations() -> Vec<FieldMutation> {
    let flip = |s: PartitionStatus| {
        if s == PartitionStatus::Halted {
            PartitionStatus::Ready
        } else {
            PartitionStatus::Halted
        }
    };
    vec![
        ("alive", Box::new(|d| d.alive = !d.alive)),
        ("sim_running", Box::new(|d| d.sim_running = !d.sim_running)),
        (
            "partition_status",
            Box::new(move |d| d.partition_status[0] = flip(d.partition_status[0])),
        ),
        ("reset_counts", Box::new(|d| *d.reset_counts.last_mut().unwrap() += 1)),
        ("current_plan", Box::new(|d| d.current_plan += 1)),
        ("pending_plan", Box::new(|d| d.pending_plan = Some(d.pending_plan.map_or(1, |p| p + 1)))),
        ("hw_timer_armed", Box::new(|d| d.hw_timer_armed[0] = !d.hw_timer_armed[0])),
        (
            "exec_timer_owner",
            Box::new(|d| d.exec_timer_owner = Some(d.exec_timer_owner.map_or(0, |o| o + 1))),
        ),
        ("cold_resets", Box::new(|d| d.cold_resets += 1)),
        ("warm_resets", Box::new(|d| d.warm_resets += 1)),
        ("hm_entries", Box::new(|d| d.hm_entries += 1)),
        ("hm_cursor", Box::new(|d| d.hm_cursor += 1)),
        ("caller_ports", Box::new(|d| d.caller_ports += 1)),
    ]
}

#[test]
fn every_field_perturbs_the_hash() {
    let base = base_digest().stable_hash();
    let mutations = field_mutations();
    assert_eq!(mutations.len(), 13, "one mutation per digest field");
    for (field, mutate) in mutations {
        let mut d = base_digest();
        mutate(&mut d);
        assert_ne!(d.stable_hash(), base, "mutating `{field}` left the hash unchanged");
    }
}

#[test]
fn order_sensitive_fields_do_not_commute() {
    // Swapping values between vector positions must change the hash:
    // the fold is positional, not a multiset.
    let mut a = base_digest();
    a.reset_counts = vec![1, 0, 0];
    let mut b = base_digest();
    b.reset_counts = vec![0, 0, 1];
    assert_ne!(a.stable_hash(), b.stable_hash());
    // And a value moving *between* fields of the same scalar type must
    // not cancel out (cold vs warm resets).
    let mut c = base_digest();
    c.cold_resets = 1;
    let mut w = base_digest();
    w.warm_resets = 1;
    assert_ne!(c.stable_hash(), w.stable_hash());
}

#[test]
fn hash_is_stable_across_runs_and_threads() {
    let expected = base_digest().stable_hash();
    for _ in 0..8 {
        assert_eq!(base_digest().stable_hash(), expected);
    }
    let hashes: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(|| base_digest().stable_hash())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(hashes.iter().all(|&h| h == expected), "{hashes:?}");
}

#[test]
fn no_collisions_over_the_enumerated_small_scope_set() {
    // Run every enumerated configuration's probe set on both builds and
    // fingerprint the kernel state after the run. Equal hashes must mean
    // equal digests (injectivity over the set the checker actually
    // observes); the legacy build contributes the interesting states
    // (halts, resets, HM entries).
    let scope = CheckScope::default();
    let mut seen: HashMap<u64, StateDigest> = HashMap::new();
    let mut runs = 0usize;
    for build in [KernelBuild::Legacy, KernelBuild::Patched] {
        for cfg in enumerate_configs(&scope) {
            let tb = CheckTestbed::new(cfg.clone());
            let ctx = tb.oracle_context(build);
            for probe in probes_for(&cfg) {
                let (mut kernel, mut guests) = tb.boot(build);
                let _ = run_one_sequence_bounded(
                    &tb,
                    &ctx,
                    &mut kernel,
                    &mut guests,
                    &probe.steps,
                    1,
                    scope.horizon as usize,
                );
                let digest = kernel.state_digest(CALLER);
                runs += 1;
                // The in-place fast paths agree with the collected digest,
                // and the comparison notices a change in any one field.
                assert_eq!(kernel.state_hash(CALLER), digest.stable_hash(), "{}", cfg.describe());
                assert!(kernel.state_matches(CALLER, &digest), "{}", cfg.describe());
                for (field, mutate) in field_mutations() {
                    let mut other = digest.clone();
                    mutate(&mut other);
                    assert!(
                        !kernel.state_matches(CALLER, &other),
                        "{}: state_matches ignored a change to `{field}`",
                        cfg.describe()
                    );
                }
                match seen.get(&digest.stable_hash()) {
                    None => {
                        seen.insert(digest.stable_hash(), digest);
                    }
                    Some(prev) => assert_eq!(
                        *prev,
                        digest,
                        "hash collision between distinct digests (config {})",
                        cfg.describe()
                    ),
                }
            }
        }
    }
    assert!(runs > 700, "expected the full enumerated space twice, saw {runs} runs");
    // The set is genuinely diverse: many distinct fingerprints.
    assert!(seen.len() > 10, "only {} distinct digests observed", seen.len());
}

//! Property tests: the configuration validator accepts exactly the slot
//! layouts an abstract model accepts (non-overlapping, in-order,
//! non-empty, within the major frame), and exactly the channel
//! geometries within the storage bounds. Randomised via `testkit`.

use leon3_sim::addrspace::Perms;
use testkit::Rng;
use xtratum::config::{
    ChannelCfg, MemAreaCfg, PartitionCfg, PlanCfg, PortKind, SlotCfg, XmConfig, MAX_CHANNEL_BYTES,
    MAX_CHANNEL_MSG_SIZE,
};
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

fn base_config(slots: Vec<SlotCfg>, major: u64) -> XmConfig {
    XmConfig {
        partitions: vec![
            PartitionCfg {
                id: 0,
                name: "sys".into(),
                system: true,
                mem: vec![MemAreaCfg { base: 0x4010_0000, size: 0x1000, perms: Perms::RWX }],
            },
            PartitionCfg {
                id: 1,
                name: "app".into(),
                system: false,
                mem: vec![MemAreaCfg { base: 0x4020_0000, size: 0x1000, perms: Perms::RWX }],
            },
        ],
        plans: vec![PlanCfg { id: 0, major_frame_us: major, slots }],
        channels: vec![],
        hm_table: XmConfig::default_hm_table(),
        tuning: Default::default(),
    }
}

fn model_valid(slots: &[SlotCfg], major: u64) -> bool {
    let mut cursor = 0u64;
    for s in slots {
        if s.partition > 1 || s.duration_us == 0 || s.start_us < cursor {
            return false;
        }
        cursor = s.start_us + s.duration_us;
    }
    cursor <= major
}

fn arb_slots(rng: &mut Rng, max_slots: usize) -> (Vec<SlotCfg>, u64) {
    let slots = rng.vec_of(0, max_slots, |r| SlotCfg {
        partition: r.range_u64(0, 3) as u32,
        start_us: r.range_u64(0, 2_000),
        duration_us: r.range_u64(0, 1_200),
    });
    (slots, rng.range_u64(1, 4_000))
}

#[test]
fn validator_matches_slot_model() {
    testkit::check("validator_matches_slot_model", 512, |rng| {
        let (slots, major) = arb_slots(rng, 6);
        let cfg = base_config(slots.clone(), major);
        let errs = cfg.validate();
        assert_eq!(
            errs.is_empty(),
            model_valid(&slots, major),
            "slots {slots:?} major {major} -> {errs:?}"
        );
    });
}

/// A valid configuration always boots, and booting never panics on an
/// invalid one (it reports errors instead).
#[test]
fn boot_is_total_over_slot_layouts() {
    testkit::check("boot_is_total_over_slot_layouts", 256, |rng| {
        let (slots, major) = arb_slots(rng, 5);
        let cfg = base_config(slots.clone(), major);
        let ok = model_valid(&slots, major);
        let boot = XmKernel::boot(cfg, KernelBuild::Patched);
        assert_eq!(boot.is_ok(), ok);
    });
}

/// A valid one-slot configuration with one `kind` channel of the given
/// geometry, from partition 1 to 0.
fn channel_config(kind: PortKind, max_msg_size: u32, max_msgs: u32) -> XmConfig {
    let slots = vec![SlotCfg { partition: 0, start_us: 0, duration_us: 1_000 }];
    XmConfig {
        channels: vec![ChannelCfg {
            name: "big".into(),
            kind,
            max_msg_size,
            max_msgs,
            source: 1,
            destinations: vec![0],
        }],
        ..base_config(slots, 1_000)
    }
}

/// The validator accepts exactly the channel geometries whose storage is
/// within the bounds: messages of 1..=64 KiB, at most 1 MiB per channel
/// (a sampling channel's depth is ignored). Only `validate` runs, so no
/// rejected size is ever allocated.
#[test]
fn validator_bounds_channel_storage() {
    let sizes = [1, 64, MAX_CHANNEL_MSG_SIZE, MAX_CHANNEL_MSG_SIZE + 1, u32::MAX];
    let depths = [1, 8, 16, 17, 1 << 20, u32::MAX];
    testkit::check("validator_bounds_channel_storage", 512, |rng| {
        let size =
            if rng.chance(1, 2) { *rng.pick(&sizes) } else { rng.next_u32() >> rng.range(0, 32) };
        let depth =
            if rng.chance(1, 2) { *rng.pick(&depths) } else { rng.next_u32() >> rng.range(0, 32) };
        let kind = *rng.pick(&[PortKind::Sampling, PortKind::Queuing]);
        let slots = if kind == PortKind::Queuing { depth } else { 1 };
        let want = (1..=MAX_CHANNEL_MSG_SIZE).contains(&size)
            && slots >= 1
            && u64::from(slots) * u64::from(size) <= MAX_CHANNEL_BYTES;
        let errs = channel_config(kind, size, depth).validate();
        assert_eq!(errs.is_empty(), want, "{kind:?} {size} x {depth}: {errs:?}");
    });
}

/// Boot refuses an oversized channel with an error naming it instead of
/// attempting the allocation, and boots the largest one allowed.
#[test]
fn boot_refuses_oversized_channels() {
    for (kind, size, depth) in [
        (PortKind::Queuing, 64, u32::MAX),
        (PortKind::Queuing, u32::MAX, 1),
        (PortKind::Sampling, u32::MAX, 0),
        (PortKind::Queuing, MAX_CHANNEL_MSG_SIZE, 17),
    ] {
        let errs = XmKernel::boot(channel_config(kind, size, depth), KernelBuild::Patched)
            .expect_err("oversized channel booted");
        assert!(errs.iter().any(|e| e.contains("'big'")), "{kind:?} {size} x {depth}: {errs:?}");
    }
    let largest = channel_config(PortKind::Queuing, MAX_CHANNEL_MSG_SIZE, 16);
    assert!(XmKernel::boot(largest, KernelBuild::Patched).is_ok());
}

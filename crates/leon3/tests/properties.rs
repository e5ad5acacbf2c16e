//! Property tests for the machine substrate: the memory-protection model
//! and the timer block behave like their abstract specifications for all
//! inputs, and the region-run load walk equals its per-entry reference.
//! Randomised via the deterministic `testkit` harness.

use leon3_sim::addrspace::{
    AccessCtx, AccessKind, AddressSpace, MemFault, MemFaultKind, Owner, Perms, Region,
};
use leon3_sim::machine::{Machine, MachineConfig};
use leon3_sim::timer::GpTimer;
use testkit::Rng;

fn space() -> AddressSpace {
    let mut a = AddressSpace::new();
    a.add_region(Region {
        name: "kernel".into(),
        base: 0x4000_0000,
        size: 0x1_0000,
        owner: Owner::Kernel,
        perms: Perms::RW,
    })
    .unwrap();
    a.add_region(Region {
        name: "p0".into(),
        base: 0x4010_0000,
        size: 0x1_0000,
        owner: Owner::Partition(0),
        perms: Perms::RWX,
    })
    .unwrap();
    a.add_region(Region {
        name: "p1".into(),
        base: 0x4020_0000,
        size: 0x1_0000,
        owner: Owner::Partition(1),
        perms: Perms::RW,
    })
    .unwrap();
    a
}

/// The abstract protection predicate the implementation must match.
fn model_allows(p: u32, addr: u32, len: u32, align: u32) -> bool {
    if align > 1 && !addr.is_multiple_of(align) {
        return false;
    }
    let (base, size) = match p {
        0 => (0x4010_0000u64, 0x1_0000u64),
        _ => (0x4020_0000u64, 0x1_0000u64),
    };
    (addr as u64) >= base && (addr as u64 + len as u64) <= base + size
}

/// The implementation's partition access check equals the abstract
/// model for every address/length/partition.
#[test]
fn partition_check_matches_model() {
    const ADDRS: [u32; 14] = [
        0,
        1,
        0x3FFF_FFFF,
        0x4000_0000,
        0x4000_8000,
        0x4010_0000,
        0x4010_8000,
        0x4010_FFFF,
        0x4011_0000,
        0x4020_0000,
        0x4020_FFFC,
        0x4021_0000,
        0x8000_0000,
        0xFFFF_FFFC,
    ];
    const LENS: [u32; 5] = [1, 2, 4, 8, 64];
    const ALIGNS: [u32; 4] = [1, 2, 4, 8];
    testkit::check("partition_check_matches_model", 512, |rng| {
        let p = rng.range(0, 2) as u32;
        let addr = rng.pick(&ADDRS).wrapping_add(rng.range(0, 16) as u32);
        let len = *rng.pick(&LENS);
        let align = *rng.pick(&ALIGNS);
        let a = space();
        let got = a.check(AccessCtx::Partition(p), addr, len, align, AccessKind::Read).is_ok();
        let want = model_allows(p, addr, len, align);
        assert_eq!(got, want, "p{p} addr {addr:#x} len {len} align {align}");
    });
}

/// Whatever a partition writes into its own memory reads back
/// identically, and never leaks into the other partition's region.
#[test]
fn write_read_round_trip() {
    testkit::check("write_read_round_trip", 256, |rng| {
        let off = rng.range_u64(0, 0xFF00) as u32;
        let data = rng.bytes(1, 64);
        let mut a = space();
        let addr = 0x4010_0000 + off;
        a.write_bytes(AccessCtx::Partition(0), addr, &data).unwrap();
        let back = a.read_bytes(AccessCtx::Partition(0), addr, data.len() as u32).unwrap();
        assert_eq!(back, data);
        // The other partition's first bytes are untouched zeros.
        let other = a.read_bytes(AccessCtx::Kernel, 0x4020_0000, 16).unwrap();
        assert!(other.iter().all(|&b| b == 0));
    });
}

/// Cross-partition accesses always fault with a protection error.
#[test]
fn cross_partition_always_protection_fault() {
    testkit::check("cross_partition_always_protection_fault", 256, |rng| {
        let off = rng.range_u64(0, 0xFFFC) as u32;
        let a = space();
        let f = a.read_bytes(AccessCtx::Partition(0), 0x4020_0000 + off, 1).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
    });
}

/// Timer expiries are delivered exactly `elapsed / period` times (+1
/// for the initial expiry), regardless of how the advance is chunked.
#[test]
fn periodic_timer_count_is_chunking_independent() {
    testkit::check("periodic_timer_count_is_chunking_independent", 256, |rng| {
        let period = rng.range_u64(1, 500);
        let chunks = rng.vec_of(1, 12, |r| r.range_u64(1, 5_000));
        let mut t1 = GpTimer::new(1, 6);
        t1.arm(0, period, Some(period));
        let total: u64 = chunks.iter().sum();
        // one big advance
        let mut t2 = t1.clone();
        let big = t2.advance_to(total);
        // chunked advances
        let mut fired = 0usize;
        let mut now = 0u64;
        for c in chunks {
            now += c;
            fired += t1.advance_to(now).len();
        }
        assert_eq!(fired, big.len());
        assert_eq!(fired as u64, total / period);
    });
}

/// One machine advance to `t` is indistinguishable from any partition of
/// `[now, t]` into smaller advances: same clock, same health, same
/// pending interrupt register, same per-unit fired counts and re-armed
/// expiries, same total expiry count. This is the invariant the kernel's
/// event-horizon shortcut relies on when it collapses advances, and it
/// must survive closed-form expiry batching. (Workloads stay below the
/// trap-storm threshold — storms are per-advance by design, so chunking
/// is *supposed* to change them; see `storm_threshold_boundary`.)
#[test]
fn machine_advance_is_split_invariant() {
    testkit::check("machine_advance_is_split_invariant", 256, |rng| {
        let mut big = Machine::new(MachineConfig::default());
        let mut chunked = Machine::new(MachineConfig::default());
        // Periods >= 3 keep each advance's total (2 units) under the
        // 4096-expiry storm threshold for the <= 5000 us horizon below.
        for unit in 0..2 {
            if rng.range(0, 2) == 1 {
                let start = rng.range_u64(1, 400);
                let period = if rng.range(0, 2) == 1 { Some(rng.range_u64(3, 500)) } else { None };
                big.timers.arm(unit, start, period);
                chunked.timers.arm(unit, start, period);
            }
        }
        let chunks = rng.vec_of(1, 12, |r| r.range_u64(1, 500));
        let total: u64 = chunks.iter().sum();
        let one_jump = big.advance_to(total).len();
        let mut split_total = 0usize;
        let mut now = 0u64;
        for c in chunks {
            now += c;
            split_total += chunked.advance_to(now).len();
        }
        assert_eq!(big.now(), chunked.now());
        assert_eq!(big.health(), chunked.health());
        assert_eq!(big.irqmp.pending_reg(), chunked.irqmp.pending_reg());
        assert_eq!(one_jump, split_total);
        for unit in 0..2 {
            let (b, c) = (big.timers.unit(unit).unwrap(), chunked.timers.unit(unit).unwrap());
            assert_eq!(b.fired, c.fired, "unit {unit} fired");
            assert_eq!(b.expiry, c.expiry, "unit {unit} expiry");
        }
        assert_eq!(big.timers.next_expiry(), chunked.timers.next_expiry());
    });
}

/// Storm detection under closed-form batching sits exactly on the old
/// boundary: 4095 expiries in one advance survive, 4096 crash.
#[test]
fn storm_threshold_boundary() {
    let mut survivor = Machine::new(MachineConfig::default());
    survivor.timers.arm(0, 1, Some(1));
    assert_eq!(survivor.advance_to(4095).len(), 4095);
    assert!(survivor.is_running(), "4095 expiries is below the threshold");

    let mut crashed = Machine::new(MachineConfig::default());
    crashed.timers.arm(0, 1, Some(1));
    assert_eq!(crashed.advance_to(4096).len(), 4096);
    assert!(!crashed.is_running(), "4096 expiries in one advance is a trap storm");
}

/// `next_expiry` is always the minimum armed expiry.
#[test]
fn next_expiry_is_minimum() {
    testkit::check("next_expiry_is_minimum", 256, |rng| {
        let exp = rng.vec_of(1, 4, |r| r.range_u64(1, 10_000));
        let mut t = GpTimer::new(4, 6);
        for (i, &e) in exp.iter().enumerate() {
            t.arm(i, e, None);
        }
        assert_eq!(t.next_expiry(), exp.iter().copied().min());
    });
}

/// A random layout of small regions, so that runs cross many region
/// boundaries: adjacent regions, gaps and odd sizes. One layout in four
/// ends exactly at the top of the 32-bit space. Returns the space and
/// the `[lo, hi)` span it covers.
fn random_layout(rng: &mut Rng) -> (AddressSpace, u64, u64) {
    let shapes: Vec<(u64, u64)> = rng.vec_of(1, 8, |r| {
        let gap = if r.chance(1, 2) { 0 } else { r.range_u64(1, 24) };
        let size = if r.chance(1, 2) { 8 * r.range_u64(1, 6) } else { r.range_u64(1, 48) };
        (gap, size)
    });
    let span: u64 = shapes.iter().map(|(g, s)| g + s).sum();
    let lo =
        if rng.chance(1, 4) { (1u64 << 32) - span } else { 0x4000_0000 + rng.range_u64(0, 64) };
    let mut a = AddressSpace::new();
    let mut at = lo;
    for (i, (gap, size)) in shapes.into_iter().enumerate() {
        at += gap;
        a.add_region(Region {
            name: format!("r{i}"),
            base: at as u32,
            size: size as u32,
            owner: Owner::Partition(i as u32 % 2),
            perms: Perms::RO,
        })
        .unwrap();
        at += size;
    }
    (a, lo, at)
}

/// The region-run walk returns exactly what one kernel load per entry
/// returns: the same count of successful loads and the same first fault,
/// across adjacent regions, gaps, misaligned starts, entries straddling
/// two regions, empty runs and runs that pass the end of the 32-bit
/// space.
#[test]
fn load_run_matches_per_entry_loads() {
    const WIDTHS: [u32; 4] = [1, 2, 4, 8];
    testkit::check("load_run_matches_per_entry_loads", 2048, |rng| {
        let (a, lo, hi) = random_layout(rng);
        let width = *rng.pick(&WIDTHS);
        let addr = match rng.range(0, 4) {
            0 => 0xFFFF_FFF8 + rng.range_u64(0, 8) as u32,
            1 => (lo + rng.range_u64(0, hi - lo)) as u32,
            _ => ((lo + rng.range_u64(0, hi - lo)) as u32) & !(width - 1),
        };
        let count = if rng.chance(1, 8) { 0 } else { rng.range_u64(1, 40) as u32 };
        let want = a.load_run_per_entry(addr, count, width);
        assert_eq!(a.load_run(addr, count, width), want, "{addr:#x} x{count} w{width}");
        // The reference is one `read_u64` per entry, as `XM_multicall`
        // issued them.
        if width == 8 {
            let read = |at: u64| match u32::try_from(at) {
                Ok(at) => a.read_u64(AccessCtx::Kernel, at).map(|_| ()),
                Err(_) => Err(MemFault {
                    addr: at as u32,
                    kind: AccessKind::Read,
                    fault: MemFaultKind::Unmapped,
                }),
            };
            let first_fault = (0..count)
                .find_map(|i| read(addr as u64 + 8 * i as u64).err().map(|f| (i, Some(f))));
            assert_eq!(want, first_fault.unwrap_or((count, None)));
        }
    });
}

//! Property tests for the machine substrate: the memory-protection model
//! and the timer block behave like their abstract specifications for all
//! inputs, the region-run load walk equals its per-entry reference, and
//! the block-granular dirty tracking behind the arena rewind equals a
//! byte-wise reference.
//! Randomised via the deterministic `testkit` harness.

use leon3_sim::addrspace::{
    AccessCtx, AccessKind, AddressSpace, MemFault, MemFaultKind, Owner, Perms, RangeDiff, Region,
};
use leon3_sim::machine::{Machine, MachineConfig};
use leon3_sim::timer::GpTimer;
use std::collections::BTreeSet;
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
fn random_layout(rng: &mut Rng, scale: u64) -> (AddressSpace, u64, u64) {
    let shapes: Vec<(u64, u64)> = rng.vec_of(1, 8, |r| {
        let gap = if r.chance(1, 2) { 0 } else { r.range_u64(1, 24) };
        let size = if r.chance(1, 2) { 8 * r.range_u64(1, 6) } else { r.range_u64(1, 48) };
        (gap * scale, size * scale)
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
        let (a, lo, hi) = random_layout(rng, 1);
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

/// Picks a store of `len` bytes (a multiple of `align`) that fits in
/// region `r` of `a`, starting near a 256-byte or 4 KiB boundary half of
/// the time so it straddles it: the region-relative offset, or `None`
/// when the region is too small.
fn store_at(rng: &mut Rng, a: &AddressSpace, r: usize, len: u64, align: u64) -> Option<u64> {
    let Region { base, size, .. } = a.regions()[r];
    let (base, size) = (base as u64, size as u64);
    // Aligned offsets `off` (absolute address aligned) with `off + len <= size`.
    let first = (base.next_multiple_of(align) - base) as i64;
    let last = ((base + size).checked_sub(len)? & !(align - 1)) as i64 - base as i64;
    if last < first {
        return None;
    }
    let want = if rng.chance(1, 2) {
        let unit = *rng.pick(&[256u64, 4096]);
        let boundary = unit * rng.range_u64(0, size / unit + 1);
        boundary as i64 - rng.range_u64(0, len + 1) as i64
    } else {
        rng.range_u64(0, size) as i64
    };
    let off = want.clamp(first, last);
    Some(off as u64 - (off as u64 + base) % align)
}

/// The rewind's block-granular dirty tracking is exact. After seeded
/// random stores on a clone — 32/64-bit stores, byte runs of 1..=600,
/// word runs and copies, placed to straddle 256-byte and 4 KiB
/// boundaries — the dirty-range witness equals a naive byte compare on
/// random ranges, the dirty counters equal the distinct 4 KiB pages and
/// 256-byte blocks the stores covered, and a restore brings every region
/// back to the source's bytes with nothing left dirty. Two rounds per
/// case, so a restore's reset of the masks is covered too.
#[test]
fn dirty_blocks_match_a_bytewise_reference() {
    testkit::check("dirty_blocks_match_a_bytewise_reference", 512, |rng| {
        let scale = rng.range_u64(1, 600);
        let (mut src, _, _) = random_layout(rng, scale);
        let n_regions = src.regions().len();
        let region_bytes = |a: &AddressSpace, r: usize| {
            let Region { base, size, .. } = a.regions()[r];
            a.read_bytes(AccessCtx::Kernel, base, size).unwrap()
        };
        // Non-zero source content, so a restore has something to bring back.
        for r in 0..n_regions {
            let Region { base, size, .. } = src.regions()[r];
            let fill: Vec<u8> = (0..size).map(|i| (i * 7 + r as u32) as u8).collect();
            src.write_bytes(AccessCtx::Kernel, base, &fill).unwrap();
        }
        let mut a = src.clone();
        for round in 0..2 {
            // (region, page) and (region, block) pairs the stores covered.
            let mut pages = BTreeSet::new();
            let mut blocks = BTreeSet::new();
            for _ in 0..rng.range(1, 24) {
                let r = rng.range(0, n_regions);
                let base = a.regions()[r].base;
                let (len, align) = match rng.range(0, 4) {
                    0 => (4, 4),
                    1 => (8, 8),
                    2 => (4 * rng.range_u64(1, 150), 4),
                    _ => (rng.range_u64(1, 601), 1),
                };
                let Some(off) = store_at(rng, &a, r, len, align) else { continue };
                let addr = base + off as u32;
                let ctx = AccessCtx::Kernel;
                match (len, align) {
                    (4, 4) => a.write_u32(ctx, addr, rng.next_u32()).unwrap(),
                    (8, 8) => a.write_u64(ctx, addr, rng.next_u64()).unwrap(),
                    (_, 4) => {
                        let words: Vec<u32> = (0..len / 4).map(|_| rng.next_u32()).collect();
                        a.write_u32s(ctx, addr, &words).unwrap();
                    }
                    _ if rng.chance(1, 2) => {
                        let data = rng.bytes(len as usize, len as usize + 1);
                        a.write_bytes(ctx, addr, &data).unwrap();
                    }
                    _ => {
                        let from = rng.range(0, n_regions);
                        let Some(from_off) = store_at(rng, &a, from, len, 1) else { continue };
                        let from_addr = a.regions()[from].base + from_off as u32;
                        a.copy(ctx, addr, from_addr, len as u32).unwrap();
                    }
                }
                pages.extend((off >> 12..=(off + len - 1) >> 12).map(|p| (r, p)));
                blocks.extend((off >> 8..=(off + len - 1) >> 8).map(|b| (r, b)));
            }
            assert_eq!(a.dirty_pages(), pages.len(), "round {round}: distinct pages");
            assert_eq!(a.dirty_bytes(), 256 * blocks.len(), "round {round}: dirty blocks");
            for _ in 0..16 {
                let r = rng.range(0, n_regions);
                let Region { base, size, .. } = a.regions()[r];
                let (lo, hi) = match rng.range(0, 4) {
                    0 => (0, size),
                    _ => {
                        let lo = rng.range_u64(0, size as u64) as u32;
                        (lo, rng.range_u64(lo as u64 + 1, size as u64 + 1) as u32)
                    }
                };
                let mine = a.read_bytes(AccessCtx::Kernel, base + lo, hi - lo).unwrap();
                let theirs = src.read_bytes(AccessCtx::Kernel, base + lo, hi - lo).unwrap();
                let differing: Vec<usize> =
                    (0..mine.len()).filter(|&i| mine[i] != theirs[i]).collect();
                let want = differing
                    .first()
                    .map(|&i| RangeDiff { first: base + lo + i as u32, changed: differing.len() });
                assert_eq!(
                    a.diff_dirty(&src, base + lo, hi - lo),
                    Ok(want),
                    "round {round}: region {r} [{lo:#x}, {hi:#x})"
                );
            }
            a.restore_from(&src);
            for r in 0..n_regions {
                assert!(region_bytes(&a, r) == region_bytes(&src, r), "round {round}: region {r}");
            }
            assert_eq!((a.dirty_pages(), a.dirty_bytes()), (0, 0), "round {round}");
        }
    });
}

/// A seeded store into region `r` of `a`, mirrored into `model` (the
/// region's bytes): a 32/64-bit store, a word run, or a byte run of
/// 1..=600, straddling 256-byte and 4 KiB boundaries half the time and
/// ending at the region's last byte one time in eight. Returns whether
/// the store fit in the region.
fn mirrored_store(rng: &mut Rng, a: &mut AddressSpace, model: &mut [u8], r: usize) -> bool {
    let Region { base, size, .. } = a.regions()[r];
    let (len, align) = match rng.range(0, 4) {
        0 => (4, 4),
        1 => (8, 8),
        2 => (4 * rng.range_u64(1, 150), 4),
        _ => (rng.range_u64(1, 601), 1),
    };
    let at_end = (base as u64 + size as u64).checked_sub(len).filter(|e| e % align == 0);
    let off = match at_end {
        Some(end) if end >= base as u64 && rng.chance(1, 8) => end - base as u64,
        _ => match store_at(rng, a, r, len, align) {
            Some(off) => off,
            None => return false,
        },
    };
    let data = rng.bytes(len as usize, len as usize + 1);
    let (addr, ctx) = (base + off as u32, AccessCtx::Kernel);
    match (len, align) {
        (4, 4) => a.write_u32(ctx, addr, u32::from_be_bytes(data[..4].try_into().unwrap())),
        (8, 8) => a.write_u64(ctx, addr, u64::from_be_bytes(data[..8].try_into().unwrap())),
        (_, 4) => {
            let words: Vec<u32> =
                data.chunks(4).map(|w| u32::from_be_bytes(w.try_into().unwrap())).collect();
            a.write_u32s(ctx, addr, &words)
        }
        _ => a.write_bytes(ctx, addr, &data),
    }
    .unwrap();
    model[off as usize..(off + len) as usize].copy_from_slice(&data);
    true
}

/// Every read path of `a` agrees with `model` (one byte vector per
/// region) on seeded ranges: `read_bytes`, `read_exact`, aligned
/// `read_u8`/`read_u32`/`read_u64`, and `read_run`, whose runs are never
/// empty, never longer than asked or than the region, and concatenate to
/// the range.
fn reads_match(rng: &mut Rng, a: &AddressSpace, model: &[Vec<u8>], what: &str) {
    let ctx = AccessCtx::Kernel;
    for _ in 0..12 {
        let r = rng.range(0, model.len());
        let (Region { base, size, .. }, want) = (a.regions()[r].clone(), &model[r]);
        let lo = rng.range(0, size as usize);
        let hi =
            if rng.chance(1, 4) { size as usize } else { rng.range(lo + 1, size as usize + 1) };
        let at = base + lo as u32;
        assert_eq!(a.read_bytes(ctx, at, (hi - lo) as u32).unwrap(), want[lo..hi], "{what} r{r}");
        let mut out = vec![7; hi - lo];
        a.read_exact(ctx, at, &mut out).unwrap();
        assert_eq!(out, want[lo..hi], "{what} r{r} exact");
        assert_eq!(a.read_u8(ctx, at).unwrap(), want[lo], "{what} r{r} u8");
        let word = |w: usize| (at as usize).next_multiple_of(w) - base as usize;
        if let Some(b) = want.get(word(4)..word(4) + 4) {
            let got = a.read_u32(ctx, base + word(4) as u32).unwrap();
            assert_eq!(got, u32::from_be_bytes(b.try_into().unwrap()), "{what} r{r} u32");
        }
        if let Some(b) = want.get(word(8)..word(8) + 8) {
            let got = a.read_u64(ctx, base + word(8) as u32).unwrap();
            assert_eq!(got, u64::from_be_bytes(b.try_into().unwrap()), "{what} r{r} u64");
        }
        let max = rng.range(1, 3 * 4096);
        let mut runs = Vec::new();
        while runs.len() < max.min(size as usize - lo) {
            let left = (max - runs.len()) as u32;
            let run = a.read_run(ctx, at + runs.len() as u32, left).unwrap();
            assert!(!run.is_empty() && run.len() <= left as usize, "{what} r{r} run");
            runs.extend_from_slice(run);
        }
        assert_eq!(runs, want[lo..lo + runs.len()], "{what} r{r} runs from {lo:#x}");
    }
}

/// Regions allocate their buffer on their first store, so until then
/// they read as zeros, clone for free and restore and diff against
/// zeros. Checked against an eager byte-wise model of every region:
/// seeded stores on a source that leave some regions never written,
/// every read path on both, a clone that writes regions its source never
/// had a buffer for (region-end stores included), the dirty-range witness
/// against such a source, and two restores of the clone. Resident bytes
/// are the page-rounded sizes of the regions written so far, and a
/// restore keeps the clone's buffers.
#[test]
fn lazy_regions_match_an_eager_bytewise_reference() {
    testkit::check("lazy_regions_match_an_eager_bytewise_reference", 512, |rng| {
        let scale = rng.range_u64(1, 600);
        let (mut src, _, _) = random_layout(rng, scale);
        let n = src.regions().len();
        let pages =
            |a: &AddressSpace, r: usize| (a.regions()[r].size as usize).next_multiple_of(4096);
        let resident = |a: &AddressSpace, written: &BTreeSet<usize>| {
            written.iter().map(|&r| pages(a, r)).sum::<usize>()
        };
        let mut src_model: Vec<Vec<u8>> =
            src.regions().iter().map(|r| vec![0; r.size as usize]).collect();
        let mut written = BTreeSet::new();
        reads_match(rng, &src, &src_model, "fresh source");
        assert_eq!(src.resident_bytes(), 0);
        for _ in 0..rng.range(0, 6) {
            let r = rng.range(0, n);
            if r % 2 == 0 && mirrored_store(rng, &mut src, &mut src_model[r], r) {
                written.insert(r);
            }
        }
        reads_match(rng, &src, &src_model, "source");
        assert_eq!(src.resident_bytes(), resident(&src, &written), "source");

        let mut a = src.clone();
        assert_eq!(a.resident_bytes(), src.resident_bytes(), "a clone holds what its source holds");
        reads_match(rng, &a, &src_model, "clone");
        for round in 0..2 {
            let mut model = src_model.clone();
            for _ in 0..rng.range(1, 12) {
                let r = rng.range(0, n);
                if mirrored_store(rng, &mut a, &mut model[r], r) {
                    written.insert(r);
                }
            }
            reads_match(rng, &a, &model, "written clone");
            assert_eq!(a.resident_bytes(), resident(&a, &written), "round {round}");
            for r in 0..n {
                let Region { base, size, .. } = a.regions()[r];
                let differing: Vec<usize> =
                    (0..size as usize).filter(|&i| model[r][i] != src_model[r][i]).collect();
                let want = differing
                    .first()
                    .map(|&i| RangeDiff { first: base + i as u32, changed: differing.len() });
                assert_eq!(a.diff_dirty(&src, base, size), Ok(want), "round {round}: region {r}");
            }
            a.restore_from(&src);
            reads_match(rng, &a, &src_model, "restored clone");
            assert_eq!(a.resident_bytes(), resident(&a, &written), "restore keeps the buffers");
            assert_eq!((a.dirty_pages(), a.dirty_bytes()), (0, 0), "round {round}");
        }
    });
}

//! Physical address space with protection contexts.
//!
//! XtratuM configures the LEON3 MMU so that each partition can only touch
//! the memory areas assigned to it by the system configuration, while the
//! kernel (supervisor mode) sees everything. This module models exactly
//! that: named regions with an owner and permissions, plus access checks
//! that produce the same trap a real LEON3 would raise.

use crate::trap::Trap;
use crate::Addr;
use std::sync::Arc;

/// Read/write/execute permission bits of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub execute: bool,
}

impl Perms {
    /// Read+write+execute.
    pub const RWX: Perms = Perms { read: true, write: true, execute: true };
    /// Read+write, no execute.
    pub const RW: Perms = Perms { read: true, write: true, execute: false };
    /// Read-only.
    pub const RO: Perms = Perms { read: true, write: false, execute: false };
    /// Read + execute (code ROM).
    pub const RX: Perms = Perms { read: true, write: false, execute: true };
}

/// Who a region belongs to, for protection-context checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// Kernel-private memory (hypervisor image, kernel stacks, HM log).
    Kernel,
    /// Memory area assigned to partition `id`.
    Partition(u32),
    /// Memory readable/writable by every partition (e.g. a shared pool).
    Shared,
    /// Memory-mapped device registers; only the kernel may touch them.
    Device,
}

/// The protection context an access executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessCtx {
    /// Supervisor mode — the separation kernel. Sees everything.
    Kernel,
    /// User mode inside partition `id`.
    Partition(u32),
}

/// Load or store, for fault reporting and permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An instruction fetch.
    Execute,
}

/// Why an access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// No region maps the address range.
    Unmapped,
    /// Address not aligned to the access width.
    Misaligned,
    /// Region exists but the context/permissions forbid the access.
    Protection,
}

/// A failed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: Addr,
    /// Access that failed.
    pub kind: AccessKind,
    /// Failure cause.
    pub fault: MemFaultKind,
}

impl MemFault {
    /// The SPARC trap this fault raises.
    pub fn trap(&self) -> Trap {
        match self.fault {
            MemFaultKind::Misaligned => Trap::MemAddressNotAligned,
            _ => match self.kind {
                AccessKind::Execute => Trap::InstructionAccessException,
                _ => Trap::DataAccessException { addr: self.addr },
            },
        }
    }
}

/// How a range differs from the same range of another address space
/// (see [`AddressSpace::diff_dirty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeDiff {
    /// Lowest differing address.
    pub first: Addr,
    /// Number of differing bytes.
    pub changed: usize,
}

/// A contiguous, backed memory region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Human-readable name (shows up in HM logs and reports).
    pub name: String,
    /// First address of the region.
    pub base: Addr,
    /// Length in bytes.
    pub size: u32,
    /// Protection owner.
    pub owner: Owner,
    /// Permission bits (checked for partition contexts; the kernel
    /// bypasses permissions but still faults on unmapped addresses).
    pub perms: Perms,
}

impl Region {
    fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && (addr as u64) < self.base as u64 + self.size as u64
    }

    fn contains_range(&self, addr: Addr, len: u32) -> bool {
        self.contains(addr) && (addr as u64 + len as u64) <= self.base as u64 + self.size as u64
    }
}

const PAGE_BITS: usize = 12;
const PAGE: usize = 1 << PAGE_BITS;

/// Flat backing store of one region with page-granular dirty tracking.
///
/// The region's contents live in one contiguous, page-rounded buffer, so
/// loads and stores are direct slice copies — no refcounting, no page
/// chasing, no copy-on-write bookkeeping on the access path. Every store
/// marks the 4 KiB pages it touches; [`RegionMem::restore_from`] copies
/// back only the marked pages, which is what makes per-test state reset
/// in the campaign executor a bounded memcpy proportional to the bytes a
/// test actually dirtied, not to the configured memory size.
#[derive(Debug)]
struct RegionMem {
    bytes: Box<[u8]>,
    /// Pages written since creation, the last clone, or the last restore.
    dirty: Vec<u32>,
    /// Per-page dirty bits mirroring `dirty` (constant-time dedup).
    dirty_map: Box<[bool]>,
}

impl Clone for RegionMem {
    /// A clone starts with an empty dirty set: it is byte-identical to
    /// its source at clone time, so a later
    /// [`restore_from`](RegionMem::restore_from) against that (since
    /// unmodified) source only needs the pages written *after* the clone.
    fn clone(&self) -> Self {
        RegionMem {
            bytes: self.bytes.clone(),
            dirty: Vec::new(),
            dirty_map: vec![false; self.dirty_map.len()].into_boxed_slice(),
        }
    }
}

impl RegionMem {
    fn zeroed(len: usize) -> Self {
        let n_pages = len.div_ceil(PAGE);
        RegionMem {
            bytes: vec![0u8; n_pages * PAGE].into_boxed_slice(),
            dirty: Vec::new(),
            dirty_map: vec![false; n_pages].into_boxed_slice(),
        }
    }

    fn read(&self, off: usize, len: usize) -> Vec<u8> {
        self.bytes[off..off + len].to_vec()
    }

    fn read_into(&self, off: usize, len: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bytes[off..off + len]);
    }

    fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let (first, last) = (off >> PAGE_BITS, (off + data.len() - 1) >> PAGE_BITS);
        for p in first..=last {
            if !self.dirty_map[p] {
                self.dirty_map[p] = true;
                self.dirty.push(p as u32);
            }
        }
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Compares `[off, off + len)` against the same range of `src`,
    /// visiting only the dirty pages: the lowest differing offset and
    /// the number of differing bytes, or `None` when they are equal.
    /// Exact under [`restore_from`](RegionMem::restore_from)'s contract
    /// (clean pages equal `src`'s).
    fn diff_dirty(&self, src: &RegionMem, off: usize, len: usize) -> Option<(usize, usize)> {
        let mut first = usize::MAX;
        let mut changed = 0usize;
        for &p in &self.dirty {
            let lo = ((p as usize) << PAGE_BITS).max(off);
            let hi = (((p as usize) + 1) << PAGE_BITS).min(off + len);
            if lo >= hi {
                continue;
            }
            let (mine, theirs) = (&self.bytes[lo..hi], &src.bytes[lo..hi]);
            if let Some(i) = mine.iter().zip(theirs).position(|(a, b)| a != b) {
                first = first.min(lo + i);
                changed += mine[i..].iter().zip(&theirs[i..]).filter(|(a, b)| a != b).count();
            }
        }
        (changed > 0).then_some((first, changed))
    }

    /// Copies back every dirty page from `src` and clears the dirty set.
    /// `src` must be the buffer this one was cloned from (or restored to
    /// last), unmodified since — clean pages are already identical.
    fn restore_from(&mut self, src: &RegionMem) {
        debug_assert_eq!(self.bytes.len(), src.bytes.len());
        for &p in &self.dirty {
            let lo = (p as usize) << PAGE_BITS;
            self.bytes[lo..lo + PAGE].copy_from_slice(&src.bytes[lo..lo + PAGE]);
            self.dirty_map[p as usize] = false;
        }
        self.dirty.clear();
    }
}

/// The simulated physical address space.
///
/// ```
/// use leon3_sim::addrspace::*;
///
/// let mut mem = AddressSpace::new();
/// mem.add_region(Region {
///     name: "p0".into(),
///     base: 0x4010_0000,
///     size: 0x1000,
///     owner: Owner::Partition(0),
///     perms: Perms::RW,
/// }).unwrap();
///
/// // Partition 0 can use its own memory...
/// mem.write_u32(AccessCtx::Partition(0), 0x4010_0000, 7).unwrap();
/// assert_eq!(mem.read_u32(AccessCtx::Partition(0), 0x4010_0000).unwrap(), 7);
/// // ... but partition 1 faults on it (spatial isolation).
/// let fault = mem.read_u32(AccessCtx::Partition(1), 0x4010_0000).unwrap_err();
/// assert_eq!(fault.fault, MemFaultKind::Protection);
/// ```
#[derive(Debug, Default, Clone)]
pub struct AddressSpace {
    // Arc-shared so snapshot clones don't reallocate the metadata (the
    // region names are heap strings); add_region is the only mutator.
    regions: Arc<Vec<Region>>,
    backing: Vec<RegionMem>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a zero-initialised region. Overlapping regions are rejected —
    /// the XM configuration tool performs the same validation.
    pub fn add_region(&mut self, region: Region) -> Result<usize, String> {
        if region.size == 0 {
            return Err(format!("region '{}' has zero size", region.name));
        }
        if region.base as u64 + region.size as u64 > u32::MAX as u64 + 1 {
            return Err(format!("region '{}' exceeds the 32-bit address space", region.name));
        }
        for r in self.regions.iter() {
            let a0 = region.base as u64;
            let a1 = a0 + region.size as u64;
            let b0 = r.base as u64;
            let b1 = b0 + r.size as u64;
            if a0 < b1 && b0 < a1 {
                return Err(format!("region '{}' overlaps region '{}'", region.name, r.name));
            }
        }
        self.backing.push(RegionMem::zeroed(region.size as usize));
        Arc::make_mut(&mut self.regions).push(region);
        Ok(self.regions.len() - 1)
    }

    /// All configured regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Restores every region to `src`'s contents by copying back only the
    /// pages written since this space was cloned from `src` (or last
    /// restored to it). `src` is the flat boot image: it must be
    /// unmodified since the clone, which holds for boot snapshots — they
    /// are captured once and never executed. Allocation-free and bounded
    /// by the number of dirty pages, this is the campaign executor's
    /// per-test state reset.
    pub fn restore_from(&mut self, src: &AddressSpace) {
        debug_assert_eq!(self.backing.len(), src.backing.len(), "region layout mismatch");
        self.regions.clone_from(&src.regions);
        for (dst, s) in self.backing.iter_mut().zip(&src.backing) {
            dst.restore_from(s);
        }
    }

    /// Compares `[addr, addr + len)`, which must lie in one region,
    /// with the same range of `src`: the lowest differing address and
    /// the number of differing bytes, or `None` when the ranges are
    /// equal. Only the pages written since this space was cloned from
    /// `src` (or last restored to it) are visited, so the cost follows
    /// the bytes written, not `len`, and nothing is copied or allocated.
    /// Exact under [`restore_from`](Self::restore_from)'s contract: `src`
    /// unmodified since, so every clean page already equals it.
    pub fn diff_dirty(
        &self,
        src: &AddressSpace,
        addr: Addr,
        len: u32,
    ) -> Result<Option<RangeDiff>, MemFault> {
        let idx = self.locate(AccessCtx::Kernel, addr, len, 1, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        Ok(self.backing[idx]
            .diff_dirty(&src.backing[idx], off, len as usize)
            .map(|(first, changed)| RangeDiff { first: addr + (first - off) as Addr, changed }))
    }

    /// Total pages currently marked dirty across all regions (diagnostics
    /// for the restore path; a restore copies exactly this many pages).
    pub fn dirty_pages(&self) -> usize {
        self.backing.iter().map(|b| b.dirty.len()).sum()
    }

    /// Finds the region covering `addr`, if any.
    pub fn region_at(&self, addr: Addr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    fn region_index(&self, addr: Addr, len: u32) -> Option<usize> {
        self.regions.iter().position(|r| r.contains_range(addr, len))
    }

    /// Checks whether `ctx` may perform `kind` on `[addr, addr+len)`.
    ///
    /// Rules (mirroring XM's MMU setup):
    /// * any context faults on unmapped or cross-region ranges;
    /// * accesses must be aligned to their width (callers pass `align`);
    /// * the kernel may access everything mapped;
    /// * partition `i` may access regions owned by `Partition(i)`, and
    ///   `Shared` regions, subject to the region permission bits; every
    ///   other owner (kernel memory, other partitions, devices) is a
    ///   protection fault — that *is* spatial isolation.
    pub fn check(
        &self,
        ctx: AccessCtx,
        addr: Addr,
        len: u32,
        align: u32,
        kind: AccessKind,
    ) -> Result<(), MemFault> {
        self.locate(ctx, addr, len, align, kind).map(|_| ())
    }

    /// [`check`](Self::check) that also returns the index of the (single,
    /// by `contains_range`) region holding the range, so the access paths
    /// below pay for the linear region scan once instead of twice.
    fn locate(
        &self,
        ctx: AccessCtx,
        addr: Addr,
        len: u32,
        align: u32,
        kind: AccessKind,
    ) -> Result<usize, MemFault> {
        if align > 1 && !addr.is_multiple_of(align) {
            return Err(MemFault { addr, kind, fault: MemFaultKind::Misaligned });
        }
        let idx = self.region_index(addr, len).ok_or(MemFault {
            addr,
            kind,
            fault: MemFaultKind::Unmapped,
        })?;
        let region = &self.regions[idx];
        match ctx {
            AccessCtx::Kernel => Ok(idx),
            AccessCtx::Partition(p) => {
                let owner_ok = match region.owner {
                    Owner::Partition(o) => o == p,
                    Owner::Shared => true,
                    Owner::Kernel | Owner::Device => false,
                };
                let perm_ok = match kind {
                    AccessKind::Read => region.perms.read,
                    AccessKind::Write => region.perms.write,
                    AccessKind::Execute => region.perms.execute,
                };
                if owner_ok && perm_ok {
                    Ok(idx)
                } else {
                    Err(MemFault { addr, kind, fault: MemFaultKind::Protection })
                }
            }
        }
    }

    fn offset(&self, idx: usize, addr: Addr) -> usize {
        (addr - self.regions[idx].base) as usize
    }

    /// Reads `len` bytes after a successful [`check`](Self::check).
    pub fn read_bytes(&self, ctx: AccessCtx, addr: Addr, len: u32) -> Result<Vec<u8>, MemFault> {
        let idx = self.locate(ctx, addr, len, 1, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        Ok(self.backing[idx].read(off, len as usize))
    }

    /// Reads `len` bytes, appending to `out` — the allocation-free
    /// counterpart of [`read_bytes`](Self::read_bytes) for callers that
    /// reuse a scratch buffer.
    pub fn read_bytes_into(
        &self,
        ctx: AccessCtx,
        addr: Addr,
        len: u32,
        out: &mut Vec<u8>,
    ) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, len, 1, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        self.backing[idx].read_into(off, len as usize, out);
        Ok(())
    }

    /// Single-byte load (used by NUL-terminated string reads; no `Vec`).
    pub fn read_u8(&self, ctx: AccessCtx, addr: Addr) -> Result<u8, MemFault> {
        let idx = self.locate(ctx, addr, 1, 1, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        Ok(self.backing[idx].slice(off, 1)[0])
    }

    /// Borrows the readable bytes starting at `addr` within its region, up
    /// to `max` of them — the chunked primitive behind NUL-terminated
    /// string reads: permissions are uniform within a region, so one check
    /// covers the whole run, and a fault surfaces exactly where a one-byte
    /// read at `addr` would fault. Returns at least one byte when `max >=
    /// 1` (regions are non-empty and never cross the 4 GiB boundary).
    pub fn read_run(&self, ctx: AccessCtx, addr: Addr, max: u32) -> Result<&[u8], MemFault> {
        let idx = self.locate(ctx, addr, 1, 1, AccessKind::Read)?;
        let region = &self.regions[idx];
        let off = (addr - region.base) as usize;
        let avail = (region.size as u64 - off as u64).min(max as u64) as usize;
        Ok(self.backing[idx].slice(off, avail))
    }

    /// Writes bytes after a successful check.
    pub fn write_bytes(&mut self, ctx: AccessCtx, addr: Addr, data: &[u8]) -> Result<(), MemFault> {
        let len = data.len() as u32;
        let idx = self.locate(ctx, addr, len, 1, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        self.backing[idx].write(off, data);
        Ok(())
    }

    /// Aligned 32-bit load.
    pub fn read_u32(&self, ctx: AccessCtx, addr: Addr) -> Result<u32, MemFault> {
        let idx = self.locate(ctx, addr, 4, 4, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        let b = self.backing[idx].slice(off, 4);
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Aligned 32-bit store.
    pub fn write_u32(&mut self, ctx: AccessCtx, addr: Addr, v: u32) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, 4, 4, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        self.backing[idx].write(off, &v.to_be_bytes());
        Ok(())
    }

    /// Consecutive aligned 32-bit stores with a single whole-range check —
    /// byte-identical (values, byte order, dirty pages) to one
    /// [`write_u32`](Self::write_u32) per word, and since the range check
    /// proves every word lies in one region, the per-word stores are
    /// infallible: partial writes never happen, matching the per-word
    /// path's validate-first contract.
    pub fn write_u32s(
        &mut self,
        ctx: AccessCtx,
        addr: Addr,
        words: &[u32],
    ) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, (words.len() * 4) as u32, 4, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        let mem = &mut self.backing[idx];
        for (i, w) in words.iter().enumerate() {
            mem.write(off + i * 4, &w.to_be_bytes());
        }
        Ok(())
    }

    /// Aligned 64-bit load (big-endian, as on SPARC).
    pub fn read_u64(&self, ctx: AccessCtx, addr: Addr) -> Result<u64, MemFault> {
        let idx = self.locate(ctx, addr, 8, 8, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.backing[idx].slice(off, 8));
        Ok(u64::from_be_bytes(buf))
    }

    /// Validates a run of `count` consecutive aligned `width`-byte
    /// kernel-context loads starting at `addr`, region by region: O(regions
    /// touched), not O(`count`). Returns how many leading loads succeed
    /// and, when one fails, the exact [`MemFault`] the first failing load
    /// returns — a misaligned start, an unmapped gap, a load straddling
    /// two regions, or a load past the end of the 32-bit space (reported
    /// `Unmapped` at its wrapped address). Equal to
    /// [`load_run_per_entry`](Self::load_run_per_entry), its reference.
    /// `width` is the load size and alignment and must be non-zero.
    pub fn load_run(&self, addr: Addr, count: u32, width: u32) -> (u32, Option<MemFault>) {
        debug_assert!(width > 0, "zero-width load run");
        let fault = |addr, fault| Some(MemFault { addr, kind: AccessKind::Read, fault });
        if count == 0 {
            return (0, None);
        }
        if width > 1 && !addr.is_multiple_of(width) {
            return (0, fault(addr, MemFaultKind::Misaligned));
        }
        let (width64, end) = (width as u64, addr as u64 + count as u64 * width as u64);
        let (mut at, mut done) = (addr as u64, 0u32);
        while at < end {
            let load = at as Addr;
            let Some(idx) =
                (at <= Addr::MAX as u64).then(|| self.region_index(load, width)).flatten()
            else {
                return (done, fault(load, MemFaultKind::Unmapped));
            };
            // The kernel may read all mapped memory, so every load that
            // fits in this region succeeds.
            let region = &self.regions[idx];
            let region_end = region.base as u64 + region.size as u64;
            let n = (region_end.min(end) - at) / width64;
            done += n as u32;
            at += n * width64;
        }
        (done, None)
    }

    /// One kernel-context load per entry: the reference
    /// [`load_run`](Self::load_run) must match (debug-build shadow check,
    /// property tests, microbenchmark). Stops at the first failing load,
    /// like `XM_multicall`'s per-entry dereference did.
    pub fn load_run_per_entry(
        &self,
        addr: Addr,
        count: u32,
        width: u32,
    ) -> (u32, Option<MemFault>) {
        for i in 0..count {
            let at = addr as u64 + i as u64 * width as u64;
            let load = at as Addr;
            let result = if at > Addr::MAX as u64 {
                Err(MemFault { addr: load, kind: AccessKind::Read, fault: MemFaultKind::Unmapped })
            } else {
                self.locate(AccessCtx::Kernel, load, width, width, AccessKind::Read)
            };
            if let Err(fault) = result {
                return (i, Some(fault));
            }
        }
        (count, None)
    }

    /// Aligned 64-bit store.
    pub fn write_u64(&mut self, ctx: AccessCtx, addr: Addr, v: u64) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, 8, 8, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        self.backing[idx].write(off, &v.to_be_bytes());
        Ok(())
    }

    /// Copies `len` bytes between two mapped ranges, with both ranges
    /// checked in `ctx`. Used by `XM_memory_copy`.
    pub fn copy(&mut self, ctx: AccessCtx, dst: Addr, src: Addr, len: u32) -> Result<(), MemFault> {
        if len == 0 {
            return Ok(());
        }
        let data = self.read_bytes(ctx, src, len)?;
        self.write_bytes(ctx, dst, &data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        let mut a = AddressSpace::new();
        a.add_region(Region {
            name: "kernel".into(),
            base: 0x4000_0000,
            size: 0x10000,
            owner: Owner::Kernel,
            perms: Perms::RW,
        })
        .unwrap();
        a.add_region(Region {
            name: "p0".into(),
            base: 0x4010_0000,
            size: 0x10000,
            owner: Owner::Partition(0),
            perms: Perms::RWX,
        })
        .unwrap();
        a.add_region(Region {
            name: "p1".into(),
            base: 0x4020_0000,
            size: 0x10000,
            owner: Owner::Partition(1),
            perms: Perms::RWX,
        })
        .unwrap();
        a.add_region(Region {
            name: "shared".into(),
            base: 0x4030_0000,
            size: 0x1000,
            owner: Owner::Shared,
            perms: Perms::RO,
        })
        .unwrap();
        a
    }

    #[test]
    fn rejects_overlaps_and_zero_size() {
        let mut a = space();
        let err = a
            .add_region(Region {
                name: "bad".into(),
                base: 0x4010_8000,
                size: 0x10000,
                owner: Owner::Shared,
                perms: Perms::RW,
            })
            .unwrap_err();
        assert!(err.contains("overlaps"));
        assert!(a
            .add_region(Region {
                name: "zero".into(),
                base: 0x5000_0000,
                size: 0,
                owner: Owner::Shared,
                perms: Perms::RW,
            })
            .is_err());
    }

    #[test]
    fn rejects_regions_past_4g() {
        let mut a = AddressSpace::new();
        assert!(a
            .add_region(Region {
                name: "wrap".into(),
                base: 0xFFFF_F000,
                size: 0x2000,
                owner: Owner::Kernel,
                perms: Perms::RW,
            })
            .is_err());
    }

    #[test]
    fn kernel_sees_everything_mapped() {
        let mut a = space();
        a.write_u32(AccessCtx::Kernel, 0x4000_0000, 0xAABBCCDD).unwrap();
        a.write_u32(AccessCtx::Kernel, 0x4010_0000, 1).unwrap();
        a.write_u32(AccessCtx::Kernel, 0x4030_0000, 2).unwrap(); // RO bypassed in supervisor
        assert_eq!(a.read_u32(AccessCtx::Kernel, 0x4000_0000).unwrap(), 0xAABBCCDD);
    }

    #[test]
    fn kernel_still_faults_on_unmapped() {
        let a = space();
        let f = a.read_u32(AccessCtx::Kernel, 0x9000_0000).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Unmapped);
        assert_eq!(f.trap(), Trap::DataAccessException { addr: 0x9000_0000 });
    }

    #[test]
    fn partition_spatial_isolation() {
        let mut a = space();
        // own memory: ok
        a.write_u32(AccessCtx::Partition(0), 0x4010_0000, 7).unwrap();
        // other partition: protection fault
        let f = a.write_u32(AccessCtx::Partition(0), 0x4020_0000, 7).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
        // kernel memory: protection fault
        let f = a.read_u32(AccessCtx::Partition(0), 0x4000_0000).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
    }

    #[test]
    fn shared_region_respects_perms() {
        let mut a = space();
        assert!(a.read_u32(AccessCtx::Partition(1), 0x4030_0000).is_ok());
        let f = a.write_u32(AccessCtx::Partition(1), 0x4030_0000, 1).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
    }

    #[test]
    fn misaligned_access_traps() {
        let a = space();
        let f = a.read_u32(AccessCtx::Kernel, 0x4000_0002).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Misaligned);
        assert_eq!(f.trap(), Trap::MemAddressNotAligned);
    }

    #[test]
    fn cross_region_range_faults() {
        let a = space();
        // Starts inside 'shared' (0x1000 long) but runs past its end.
        let f = a.read_bytes(AccessCtx::Kernel, 0x4030_0FFC, 16).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Unmapped);
    }

    #[test]
    fn u64_round_trip_big_endian() {
        let mut a = space();
        a.write_u64(AccessCtx::Kernel, 0x4000_0008, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(a.read_u64(AccessCtx::Kernel, 0x4000_0008).unwrap(), 0x1122_3344_5566_7788);
        // check big-endian byte order
        assert_eq!(a.read_u32(AccessCtx::Kernel, 0x4000_0008).unwrap(), 0x1122_3344);
        let f = a.read_u64(AccessCtx::Kernel, 0x4000_0004).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Misaligned);
    }

    #[test]
    fn copy_between_regions_checked() {
        let mut a = space();
        a.write_bytes(AccessCtx::Kernel, 0x4010_0000, b"hello").unwrap();
        a.copy(AccessCtx::Kernel, 0x4000_0100, 0x4010_0000, 5).unwrap();
        assert_eq!(a.read_bytes(AccessCtx::Kernel, 0x4000_0100, 5).unwrap(), b"hello");
        // a partition cannot exfiltrate kernel memory via copy
        let f = a.copy(AccessCtx::Partition(0), 0x4010_0000, 0x4000_0000, 4).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
        // zero-length copy never faults
        a.copy(AccessCtx::Partition(0), 0, 0, 0).unwrap();
    }

    #[test]
    fn region_at_lookup() {
        let a = space();
        assert_eq!(a.region_at(0x4010_1234).unwrap().name, "p0");
        assert!(a.region_at(0x1000).is_none());
    }
}

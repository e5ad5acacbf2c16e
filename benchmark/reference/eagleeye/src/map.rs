//! EagleEye memory map and campaign pointer constants.
//!
//! These addresses parameterise the pointer dictionaries ("kernel-specific
//! test information"): the toolset needs a valid scratch address inside
//! the test partition, a kernel-space address, an unmapped address, and
//! the multicall batch window.

/// Major frame length (µs) — "a cyclic major frame of 250ms".
pub const MAJOR_FRAME_US: u64 = 250_000;

/// FDIR (test partition) id.
pub const FDIR: u32 = 0;
/// AOCS partition id.
pub const AOCS: u32 = 1;
/// Payload partition id.
pub const PAYLOAD: u32 = 2;
/// TM/TC partition id.
pub const TMTC: u32 = 3;
/// Housekeeping partition id.
pub const HK: u32 = 4;

/// Per-partition RAM size.
pub const PART_SIZE: u32 = 0x1_0000;

/// RAM base of partition `p`.
pub const fn part_base(p: u32) -> u32 {
    0x4010_0000 + p * 0x10_0000
}

/// FDIR RAM base.
pub const FDIR_BASE: u32 = part_base(FDIR);

/// Multicall batch window start (inside FDIR RAM).
pub const BATCH_START: u32 = FDIR_BASE + 0x2000;
/// Multicall batch window end — 0x4000 bytes ⇒ 2048 batch entries.
pub const BATCH_END: u32 = FDIR_BASE + 0x6000;

/// Zeroed, 8-aligned scratch inside FDIR RAM (the "VALID" pointer).
pub const SCRATCH: u32 = FDIR_BASE + 0x8000;
/// Second valid scratch pointer (for wider pointer dictionaries).
pub const SCRATCH_HI: u32 = FDIR_BASE + 0x8100;

/// Address of the "GyroData" channel-name string the prologue writes.
pub const PTR_NAME_GYRO: u32 = FDIR_BASE + 0x9000;
/// Address of the "TmQueue" channel-name string the prologue writes.
pub const PTR_NAME_TM: u32 = FDIR_BASE + 0x9020;

/// An address inside the separation kernel's private memory.
pub const KERNEL_PTR: u32 = xtratum::kernel::KERNEL_BASE + 0x1000;
/// A second kernel-space address (wider pointer dictionaries).
pub const KERNEL_PTR_HI: u32 = xtratum::kernel::KERNEL_BASE + 0x2000;
/// An unmapped address near the top of the address space.
pub const UNMAPPED_TOP: u32 = 0xFFFF_FFFC;

/// Application HM event the FDIR prologue raises at boot (fills the HM
/// log with exactly one deterministic entry).
pub const FDIR_BOOT_EVENT: u32 = 0xFD;

/// Telecommand message length queued by TMTC every frame.
pub const TC_MSG_LEN: u32 = 12;
/// Gyro sample length written by AOCS every frame.
pub const GYRO_MSG_LEN: u32 = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_bases_do_not_overlap() {
        for p in 0..5u32 {
            for q in (p + 1)..5 {
                let (a, b) = (part_base(p) as u64, part_base(q) as u64);
                assert!(a + PART_SIZE as u64 <= b || b + PART_SIZE as u64 <= a);
            }
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants are what is under test
    fn campaign_pointers_lie_where_documented() {
        // batch window inside FDIR RAM, 2048 entries
        assert!(BATCH_START >= FDIR_BASE && BATCH_END <= FDIR_BASE + PART_SIZE);
        assert_eq!((BATCH_END - BATCH_START) / 8, 2048);
        // scratch aligned and inside FDIR RAM
        assert_eq!(SCRATCH % 8, 0);
        assert!(SCRATCH >= FDIR_BASE && SCRATCH < FDIR_BASE + PART_SIZE);
        // kernel pointer is inside the kernel region
        assert!(KERNEL_PTR >= xtratum::kernel::KERNEL_BASE);
        assert!(KERNEL_PTR < xtratum::kernel::KERNEL_BASE + xtratum::kernel::KERNEL_SIZE);
        // unmapped-top really is unmapped (beyond every partition)
        assert!(UNMAPPED_TOP > part_base(4) + PART_SIZE);
    }
}

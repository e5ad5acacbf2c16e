//! IRQMP — the LEON3 multiprocessor interrupt controller (single-CPU view).
//!
//! Fifteen interrupt lines (1..=15, level 15 is non-maskable on real
//! hardware but XM masks at the kernel layer anyway). The controller keeps
//! pending/mask/force registers; the kernel reads the highest pending
//! unmasked level and acknowledges it.

/// Interrupt controller state.
#[derive(Debug, Clone)]
pub struct Irqmp {
    pending: u16,
    mask: u16,
    force: u16,
    /// Total interrupts latched since reset (diagnostics).
    pub latched: u64,
}

const LINE_RANGE: std::ops::RangeInclusive<u8> = 1..=15;

impl Default for Irqmp {
    fn default() -> Self {
        Self::new()
    }
}

impl Irqmp {
    /// Creates a controller with all lines masked and nothing pending.
    pub fn new() -> Self {
        Irqmp { pending: 0, mask: 0, force: 0, latched: 0 }
    }

    fn bit(level: u8) -> u16 {
        1u16 << level
    }

    /// Latches interrupt `level` as pending. Out-of-range levels are
    /// ignored (real hardware has no such lines).
    pub fn raise(&mut self, level: u8) {
        if LINE_RANGE.contains(&level) {
            self.pending |= Self::bit(level);
            self.latched += 1;
        }
    }

    /// Software-forced interrupt (the FORCE register).
    pub fn force(&mut self, level: u8) {
        if LINE_RANGE.contains(&level) {
            self.force |= Self::bit(level);
            self.latched += 1;
        }
    }

    /// Unmasks (enables) a line.
    pub fn unmask(&mut self, level: u8) {
        if LINE_RANGE.contains(&level) {
            self.mask |= Self::bit(level);
        }
    }

    /// Masks (disables) a line.
    pub fn mask(&mut self, level: u8) {
        if LINE_RANGE.contains(&level) {
            self.mask &= !Self::bit(level);
        }
    }

    /// Applies a full mask register value (bit per level; bit0 ignored).
    pub fn set_mask_reg(&mut self, value: u16) {
        self.mask = value & 0xFFFE;
    }

    /// Current mask register.
    pub fn mask_reg(&self) -> u16 {
        self.mask
    }

    /// Current pending|force register.
    pub fn pending_reg(&self) -> u16 {
        self.pending | self.force
    }

    /// True if `level` is pending (or forced).
    pub fn is_pending(&self, level: u8) -> bool {
        LINE_RANGE.contains(&level) && (self.pending_reg() & Self::bit(level)) != 0
    }

    /// Highest-priority pending unmasked level, if any (15 = highest).
    pub fn highest_pending(&self) -> Option<u8> {
        let active = self.pending_reg() & self.mask;
        (1..=15u8).rev().find(|&l| active & Self::bit(l) != 0)
    }

    /// Acknowledges (clears) a pending level.
    pub fn ack(&mut self, level: u8) {
        if LINE_RANGE.contains(&level) {
            self.pending &= !Self::bit(level);
            self.force &= !Self::bit(level);
        }
    }

    /// Clears all pending state (warm reset).
    pub fn clear_all(&mut self) {
        self.pending = 0;
        self.force = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_ack() {
        let mut c = Irqmp::new();
        c.unmask(8);
        c.raise(8);
        assert!(c.is_pending(8));
        assert_eq!(c.highest_pending(), Some(8));
        c.ack(8);
        assert!(!c.is_pending(8));
        assert_eq!(c.highest_pending(), None);
    }

    #[test]
    fn masked_lines_do_not_surface() {
        let mut c = Irqmp::new();
        c.raise(5);
        assert!(c.is_pending(5)); // latched...
        assert_eq!(c.highest_pending(), None); // ...but masked
        c.unmask(5);
        assert_eq!(c.highest_pending(), Some(5));
    }

    #[test]
    fn priority_is_highest_level() {
        let mut c = Irqmp::new();
        c.set_mask_reg(0xFFFE);
        c.raise(3);
        c.raise(12);
        c.raise(7);
        assert_eq!(c.highest_pending(), Some(12));
        c.ack(12);
        assert_eq!(c.highest_pending(), Some(7));
    }

    #[test]
    fn force_register_behaves_like_pending() {
        let mut c = Irqmp::new();
        c.unmask(9);
        c.force(9);
        assert!(c.is_pending(9));
        c.ack(9);
        assert!(!c.is_pending(9));
    }

    #[test]
    fn out_of_range_levels_ignored() {
        let mut c = Irqmp::new();
        c.raise(0);
        c.raise(16);
        c.unmask(0);
        assert_eq!(c.pending_reg(), 0);
        assert_eq!(c.mask_reg(), 0);
        assert!(!c.is_pending(0));
    }

    #[test]
    fn mask_reg_bit0_cleared() {
        let mut c = Irqmp::new();
        c.set_mask_reg(0xFFFF);
        assert_eq!(c.mask_reg(), 0xFFFE);
    }

    #[test]
    fn clear_all_resets_pending_not_mask() {
        let mut c = Irqmp::new();
        c.unmask(4);
        c.raise(4);
        c.force(6);
        c.clear_all();
        assert_eq!(c.pending_reg(), 0);
        assert_eq!(c.mask_reg(), Irqmp::bit(4));
    }

    #[test]
    fn latch_counter_counts() {
        let mut c = Irqmp::new();
        for _ in 0..5 {
            c.raise(3);
        }
        assert_eq!(c.latched, 5);
    }
}

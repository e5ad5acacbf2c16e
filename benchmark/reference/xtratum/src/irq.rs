//! Interrupt management state.
//!
//! XM virtualises interrupts: hardware lines (1..=15, LEON3/IRQMP) can be
//! masked, forced pending and routed to guest vectors; 32 *extended*
//! (software) interrupts exist per partition. The mask words accepted by
//! `XM_set_irqmask` / `XM_clear_irqmask` follow the hardware layout — bit
//! N = line N — so bit 0 and bits 16.. of the hardware word are reserved
//! and must be zero.

/// Valid bit positions in a hardware interrupt mask word.
pub const HW_IRQ_VALID_MASK: u32 = 0xFFFE;

/// Number of extended interrupts per partition.
pub const EXT_IRQ_COUNT: u32 = 32;

/// Checks a hardware mask word for reserved bits.
pub fn hw_mask_valid(mask: u32) -> bool {
    mask & !HW_IRQ_VALID_MASK == 0
}

/// Interrupt routing table: guest trap vectors for hardware and extended
/// interrupts.
#[derive(Debug, Clone)]
pub struct IrqRouting {
    hw_vectors: [u8; 16],
    ext_vectors: [u8; EXT_IRQ_COUNT as usize],
}

impl Default for IrqRouting {
    fn default() -> Self {
        // Default identity-ish routing: hw line n → vector 0x10+n,
        // extended irq n → vector 0xE0+n (XM convention for extended
        // interrupts living in the upper vector space).
        let mut hw = [0u8; 16];
        for (n, v) in hw.iter_mut().enumerate() {
            *v = 0x10 + n as u8;
        }
        let mut ext = [0u8; EXT_IRQ_COUNT as usize];
        for (n, v) in ext.iter_mut().enumerate() {
            *v = 0xE0u8.wrapping_add(n as u8);
        }
        IrqRouting { hw_vectors: hw, ext_vectors: ext }
    }
}

impl IrqRouting {
    /// Routes a hardware line (1..=15) to `vector`. Returns false for
    /// invalid lines.
    pub fn route_hw(&mut self, irq: u32, vector: u8) -> bool {
        if (1..=15).contains(&irq) {
            self.hw_vectors[irq as usize] = vector;
            true
        } else {
            false
        }
    }

    /// Routes an extended interrupt (0..32) to `vector`.
    pub fn route_ext(&mut self, irq: u32, vector: u8) -> bool {
        if irq < EXT_IRQ_COUNT {
            self.ext_vectors[irq as usize] = vector;
            true
        } else {
            false
        }
    }

    /// Vector for a hardware line.
    pub fn hw_vector(&self, irq: u32) -> Option<u8> {
        if (1..=15).contains(&irq) {
            Some(self.hw_vectors[irq as usize])
        } else {
            None
        }
    }

    /// Vector for an extended interrupt.
    pub fn ext_vector(&self, irq: u32) -> Option<u8> {
        self.ext_vectors.get(irq as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_mask_validation() {
        assert!(hw_mask_valid(0));
        assert!(hw_mask_valid(0x0002)); // line 1
        assert!(hw_mask_valid(0x8000)); // line 15
        assert!(hw_mask_valid(16)); // line 4
        assert!(!hw_mask_valid(1)); // bit 0 reserved
        assert!(!hw_mask_valid(0x10000)); // bits 16+ reserved
        assert!(!hw_mask_valid(0xFFFF_FFFF));
    }

    #[test]
    fn default_routing_is_sane() {
        let r = IrqRouting::default();
        assert_eq!(r.hw_vector(1), Some(0x11));
        assert_eq!(r.hw_vector(15), Some(0x1F));
        assert_eq!(r.hw_vector(0), None);
        assert_eq!(r.hw_vector(16), None);
        assert_eq!(r.ext_vector(0), Some(0xE0));
        assert_eq!(r.ext_vector(31), Some(0xFF));
        assert_eq!(r.ext_vector(32), None);
    }

    #[test]
    fn routing_updates() {
        let mut r = IrqRouting::default();
        assert!(r.route_hw(8, 0x42));
        assert_eq!(r.hw_vector(8), Some(0x42));
        assert!(!r.route_hw(0, 0x42));
        assert!(!r.route_hw(16, 0x42));
        assert!(r.route_ext(5, 0x99));
        assert_eq!(r.ext_vector(5), Some(0x99));
        assert!(!r.route_ext(32, 0x99));
    }
}

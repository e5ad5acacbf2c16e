//! SPARC V8 trap model.
//!
//! Trap type (`tt`) numbers follow the SPARC V8 manual, which is what the
//! LEON3 implements and what XtratuM's health monitor reports in its event
//! log. Only the traps the robustness campaign can provoke are enumerated;
//! adding more is a one-line change.

use std::fmt;

/// A processor trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Power-on / watchdog reset (tt 0x00).
    Reset,
    /// Instruction fetch from an unmapped/non-executable address (tt 0x01).
    InstructionAccessException,
    /// Undecodable instruction (tt 0x02).
    IllegalInstruction,
    /// Privileged instruction in user mode (tt 0x03).
    PrivilegedInstruction,
    /// Register-window overflow — the SPARC vehicle for stack exhaustion
    /// (tt 0x05). The legacy `XM_set_timer` bug ends here.
    WindowOverflow,
    /// Register-window underflow (tt 0x06).
    WindowUnderflow,
    /// Unaligned load/store (tt 0x07).
    MemAddressNotAligned,
    /// Load/store to an unmapped or protected address (tt 0x09). Carries
    /// the faulting address for HM logging.
    DataAccessException {
        /// The address whose access faulted.
        addr: u32,
    },
    /// Tagged-arithmetic overflow (tt 0x0A).
    TagOverflow,
    /// Integer division by zero (tt 0x2A).
    DivisionByZero,
    /// External interrupt, level 1..=15 (tt 0x11..0x1F).
    Interrupt(u8),
    /// `ta n` software trap — XtratuM hypercalls enter through one of
    /// these (tt 0x80 + n).
    SoftwareTrap(u8),
}

impl Trap {
    /// SPARC V8 trap type number as latched in `TBR.tt`.
    pub fn tt(&self) -> u8 {
        match self {
            Trap::Reset => 0x00,
            Trap::InstructionAccessException => 0x01,
            Trap::IllegalInstruction => 0x02,
            Trap::PrivilegedInstruction => 0x03,
            Trap::WindowOverflow => 0x05,
            Trap::WindowUnderflow => 0x06,
            Trap::MemAddressNotAligned => 0x07,
            Trap::DataAccessException { .. } => 0x09,
            Trap::TagOverflow => 0x0A,
            Trap::DivisionByZero => 0x2A,
            Trap::Interrupt(l) => 0x10 + (l & 0x0F),
            Trap::SoftwareTrap(n) => 0x80u8.wrapping_add(*n),
        }
    }

    /// True for traps that indicate a fault in the running code (as opposed
    /// to interrupts and deliberate software traps).
    pub fn is_fault(&self) -> bool {
        !matches!(self, Trap::Interrupt(_) | Trap::SoftwareTrap(_) | Trap::Reset)
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DataAccessException { addr } => {
                write!(f, "data_access_exception @ {addr:#010x} (tt 0x09)")
            }
            Trap::Interrupt(l) => write!(f, "interrupt_level_{l} (tt {:#04x})", self.tt()),
            Trap::SoftwareTrap(n) => write!(f, "trap_instruction ta {n} (tt {:#04x})", self.tt()),
            other => {
                let name = match other {
                    Trap::Reset => "reset",
                    Trap::InstructionAccessException => "instruction_access_exception",
                    Trap::IllegalInstruction => "illegal_instruction",
                    Trap::PrivilegedInstruction => "privileged_instruction",
                    Trap::WindowOverflow => "window_overflow",
                    Trap::WindowUnderflow => "window_underflow",
                    Trap::MemAddressNotAligned => "mem_address_not_aligned",
                    Trap::TagOverflow => "tag_overflow",
                    Trap::DivisionByZero => "division_by_zero",
                    _ => unreachable!(),
                };
                write!(f, "{name} (tt {:#04x})", self.tt())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tt_numbers_match_sparc_v8() {
        assert_eq!(Trap::Reset.tt(), 0x00);
        assert_eq!(Trap::InstructionAccessException.tt(), 0x01);
        assert_eq!(Trap::IllegalInstruction.tt(), 0x02);
        assert_eq!(Trap::PrivilegedInstruction.tt(), 0x03);
        assert_eq!(Trap::WindowOverflow.tt(), 0x05);
        assert_eq!(Trap::WindowUnderflow.tt(), 0x06);
        assert_eq!(Trap::MemAddressNotAligned.tt(), 0x07);
        assert_eq!(Trap::DataAccessException { addr: 0 }.tt(), 0x09);
        assert_eq!(Trap::TagOverflow.tt(), 0x0A);
        assert_eq!(Trap::DivisionByZero.tt(), 0x2A);
    }

    #[test]
    fn interrupt_levels_map_into_0x11_0x1f() {
        assert_eq!(Trap::Interrupt(1).tt(), 0x11);
        assert_eq!(Trap::Interrupt(15).tt(), 0x1F);
    }

    #[test]
    fn software_traps_start_at_0x80() {
        assert_eq!(Trap::SoftwareTrap(0).tt(), 0x80);
        assert_eq!(Trap::SoftwareTrap(0x10).tt(), 0x90);
    }

    #[test]
    fn fault_classification() {
        assert!(Trap::DataAccessException { addr: 4 }.is_fault());
        assert!(Trap::WindowOverflow.is_fault());
        assert!(!Trap::Interrupt(8).is_fault());
        assert!(!Trap::SoftwareTrap(0).is_fault());
        assert!(!Trap::Reset.is_fault());
    }

    #[test]
    fn display_is_informative() {
        let s = Trap::DataAccessException { addr: 0xdead_beec }.to_string();
        assert!(s.contains("0xdeadbeec"), "{s}");
        assert!(Trap::Interrupt(8).to_string().contains("interrupt_level_8"));
        assert!(Trap::WindowOverflow.to_string().contains("window_overflow"));
    }
}

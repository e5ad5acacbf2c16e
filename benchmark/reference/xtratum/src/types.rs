//! XtratuM data types (paper Table I).
//!
//! The XM interface types are compiler- and cross-development independent.
//! Table I of the paper lists the basic and extended types together with
//! their bit sizes and the ANSI C declarations; this module reproduces
//! that table as Rust aliases plus a queryable description used by the
//! spec-file generator and by the dictionary layer.

/// `xm_u8_t` — unsigned char.
pub type XmU8 = u8;
/// `xm_s8_t` — signed char.
pub type XmS8 = i8;
/// `xm_u16_t` — unsigned short.
pub type XmU16 = u16;
/// `xm_s16_t` — signed short.
pub type XmS16 = i16;
/// `xm_u32_t` — unsigned int.
pub type XmU32 = u32;
/// `xm_s32_t` — signed int.
pub type XmS32 = i32;
/// `xm_u64_t` — unsigned long long.
pub type XmU64 = u64;
/// `xm_s64_t` — signed long long.
pub type XmS64 = i64;
/// `xmWord_t` — extends `xm_u32_t`.
pub type XmWord = u32;
/// `xmAddress_t` — extends `xm_u32_t`; a 32-bit physical address.
pub type XmAddress = u32;
/// `xmIoAddress_t` — extends `xm_u32_t`.
pub type XmIoAddress = u32;
/// `xmSize_t` — extends `xm_u32_t`.
pub type XmSize = u32;
/// `xmSSize_t` — extends `xm_s32_t`.
pub type XmSSize = i32;
/// `xmId_t` — extends `xm_u32_t`; partition / port / plan identifiers.
pub type XmId = u32;
/// `xmTime_t` — extends `xm_s64_t`; microseconds.
pub type XmTime = i64;

/// Description of one XM interface type (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XmTypeInfo {
    /// XM type name, e.g. `xm_u32_t`.
    pub name: &'static str,
    /// The basic XM type this extends (`None` for basic types).
    pub extends: Option<&'static str>,
    /// Width in bits.
    pub bits: u32,
    /// ANSI C declaration.
    pub ansi_c: &'static str,
    /// Whether the type is signed.
    pub signed: bool,
}

/// The complete Table I, in paper order: basic types first, then the
/// extended aliases.
pub const XM_TYPES: &[XmTypeInfo] = &[
    XmTypeInfo { name: "xm_u8_t", extends: None, bits: 8, ansi_c: "unsigned char", signed: false },
    XmTypeInfo { name: "xm_s8_t", extends: None, bits: 8, ansi_c: "signed char", signed: true },
    XmTypeInfo {
        name: "xm_u16_t",
        extends: None,
        bits: 16,
        ansi_c: "unsigned short",
        signed: false,
    },
    XmTypeInfo { name: "xm_s16_t", extends: None, bits: 16, ansi_c: "signed short", signed: true },
    XmTypeInfo { name: "xm_u32_t", extends: None, bits: 32, ansi_c: "unsigned int", signed: false },
    XmTypeInfo { name: "xm_s32_t", extends: None, bits: 32, ansi_c: "signed int", signed: true },
    XmTypeInfo {
        name: "xm_u64_t",
        extends: None,
        bits: 64,
        ansi_c: "unsigned long long",
        signed: false,
    },
    XmTypeInfo {
        name: "xm_s64_t",
        extends: None,
        bits: 64,
        ansi_c: "signed long long",
        signed: true,
    },
    XmTypeInfo {
        name: "xmWord_t",
        extends: Some("xm_u32_t"),
        bits: 32,
        ansi_c: "unsigned int",
        signed: false,
    },
    XmTypeInfo {
        name: "xmAddress_t",
        extends: Some("xm_u32_t"),
        bits: 32,
        ansi_c: "unsigned int",
        signed: false,
    },
    XmTypeInfo {
        name: "xmIoAddress_t",
        extends: Some("xm_u32_t"),
        bits: 32,
        ansi_c: "unsigned int",
        signed: false,
    },
    XmTypeInfo {
        name: "xmSize_t",
        extends: Some("xm_u32_t"),
        bits: 32,
        ansi_c: "unsigned int",
        signed: false,
    },
    XmTypeInfo {
        name: "xmId_t",
        extends: Some("xm_u32_t"),
        bits: 32,
        ansi_c: "unsigned int",
        signed: false,
    },
    XmTypeInfo {
        name: "xmSSize_t",
        extends: Some("xm_s32_t"),
        bits: 32,
        ansi_c: "signed int",
        signed: true,
    },
    XmTypeInfo {
        name: "xmTime_t",
        extends: Some("xm_s64_t"),
        bits: 64,
        ansi_c: "signed long long",
        signed: true,
    },
];

/// Looks up a type row by XM name.
pub fn type_info(name: &str) -> Option<&'static XmTypeInfo> {
    XM_TYPES.iter().find(|t| t.name == name)
}

/// Resolves an extended type to its basic type name.
pub fn basic_of(name: &str) -> Option<&'static str> {
    type_info(name).map(|t| t.extends.unwrap_or(t.name))
}

/// Well-known constant: cold reset mode for `XM_reset_system` /
/// `XM_reset_partition`.
pub const XM_COLD_RESET: u32 = 0;
/// Warm reset mode.
pub const XM_WARM_RESET: u32 = 1;
/// The hardware real-time clock id.
pub const XM_HW_CLOCK: u32 = 0;
/// The partition execution-time clock id.
pub const XM_EXEC_CLOCK: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_fifteen_rows() {
        // 8 basic + 7 extended type names, exactly as in Table I.
        assert_eq!(XM_TYPES.len(), 15);
    }

    #[test]
    fn rust_aliases_match_declared_bits() {
        assert_eq!(std::mem::size_of::<XmU8>() * 8, 8);
        assert_eq!(std::mem::size_of::<XmS16>() * 8, 16);
        assert_eq!(std::mem::size_of::<XmU32>() * 8, 32);
        assert_eq!(std::mem::size_of::<XmTime>() * 8, 64);
        assert_eq!(std::mem::size_of::<XmAddress>() * 8, 32);
    }

    #[test]
    fn table_bits_are_consistent() {
        for t in XM_TYPES {
            assert!(matches!(t.bits, 8 | 16 | 32 | 64), "{}", t.name);
            if let Some(base) = t.extends {
                let b = type_info(base).expect("base type exists");
                assert_eq!(b.bits, t.bits, "{} must match its base width", t.name);
                assert_eq!(b.signed, t.signed, "{} must match its base sign", t.name);
                assert_eq!(b.ansi_c, t.ansi_c, "{} must match its base C type", t.name);
            }
        }
    }

    #[test]
    fn extended_types_from_paper_present() {
        for name in ["xmWord_t", "xmAddress_t", "xmIoAddress_t", "xmSize_t", "xmId_t"] {
            assert_eq!(basic_of(name), Some("xm_u32_t"), "{name}");
        }
        assert_eq!(basic_of("xmSSize_t"), Some("xm_s32_t"));
        assert_eq!(basic_of("xmTime_t"), Some("xm_s64_t"));
    }

    #[test]
    fn basic_types_resolve_to_themselves() {
        assert_eq!(basic_of("xm_u32_t"), Some("xm_u32_t"));
        assert_eq!(basic_of("nope"), None);
    }

    #[test]
    fn ansi_c_mapping_matches_table_i() {
        assert_eq!(type_info("xm_u8_t").unwrap().ansi_c, "unsigned char");
        assert_eq!(type_info("xm_s16_t").unwrap().ansi_c, "signed short");
        assert_eq!(type_info("xm_u64_t").unwrap().ansi_c, "unsigned long long");
        assert_eq!(type_info("xmTime_t").unwrap().ansi_c, "signed long long");
    }

    #[test]
    fn reset_and_clock_constants() {
        assert_eq!(XM_COLD_RESET, 0);
        assert_eq!(XM_WARM_RESET, 1);
        assert_eq!(XM_HW_CLOCK, 0);
        assert_eq!(XM_EXEC_CLOCK, 1);
    }
}

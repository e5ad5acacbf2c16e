//! Hypercall return codes.
//!
//! Mirrors the XtratuM reference manual's `xm_s32_t` return-code
//! convention: `XM_OK` is zero, errors are small negative integers. The
//! robustness log analysis depends on these exact numeric values (the
//! "Hindering" class is *reporting the wrong error code*), so they are
//! part of the public contract and pinned by tests.

use std::fmt;

/// XtratuM hypercall return code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum XmRet {
    /// Operation succeeded.
    Ok = 0,
    /// Valid call, nothing to do.
    NoAction = -1,
    /// The hypercall number itself is unknown (or the service was removed).
    UnknownHypercall = -2,
    /// A parameter failed validation.
    InvalidParam = -3,
    /// Caller lacks the privilege (e.g. normal partition invoking a
    /// system-partition service).
    PermError = -4,
    /// Request inconsistent with the static system configuration.
    InvalidConfig = -5,
    /// Request invalid in the current mode/state.
    InvalidMode = -6,
    /// Resource exists but is not available (e.g. empty queue).
    NotAvailable = -7,
    /// Operation is forbidden in this context.
    OpNotAllowed = -8,
}

impl XmRet {
    /// Numeric value as returned through the hypercall ABI.
    pub fn code(self) -> i32 {
        self as i32
    }

    /// Decodes a raw ABI value.
    pub fn from_code(code: i32) -> Option<XmRet> {
        Some(match code {
            0 => XmRet::Ok,
            -1 => XmRet::NoAction,
            -2 => XmRet::UnknownHypercall,
            -3 => XmRet::InvalidParam,
            -4 => XmRet::PermError,
            -5 => XmRet::InvalidConfig,
            -6 => XmRet::InvalidMode,
            -7 => XmRet::NotAvailable,
            -8 => XmRet::OpNotAllowed,
            _ => return None,
        })
    }

    /// Manual-style symbolic name.
    pub fn name(self) -> &'static str {
        match self {
            XmRet::Ok => "XM_OK",
            XmRet::NoAction => "XM_NO_ACTION",
            XmRet::UnknownHypercall => "XM_UNKNOWN_HYPERCALL",
            XmRet::InvalidParam => "XM_INVALID_PARAM",
            XmRet::PermError => "XM_PERM_ERROR",
            XmRet::InvalidConfig => "XM_INVALID_CONFIG",
            XmRet::InvalidMode => "XM_INVALID_MODE",
            XmRet::NotAvailable => "XM_NOT_AVAILABLE",
            XmRet::OpNotAllowed => "XM_OP_NOT_ALLOWED",
        }
    }

    /// True for any error code (non-`XM_OK`).
    pub fn is_error(self) -> bool {
        self != XmRet::Ok
    }
}

impl fmt::Display for XmRet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [XmRet; 9] = [
        XmRet::Ok,
        XmRet::NoAction,
        XmRet::UnknownHypercall,
        XmRet::InvalidParam,
        XmRet::PermError,
        XmRet::InvalidConfig,
        XmRet::InvalidMode,
        XmRet::NotAvailable,
        XmRet::OpNotAllowed,
    ];

    #[test]
    fn codes_are_pinned() {
        assert_eq!(XmRet::Ok.code(), 0);
        assert_eq!(XmRet::InvalidParam.code(), -3);
        assert_eq!(XmRet::PermError.code(), -4);
        assert_eq!(XmRet::UnknownHypercall.code(), -2);
        assert_eq!(XmRet::OpNotAllowed.code(), -8);
    }

    #[test]
    fn round_trip_all() {
        for r in ALL {
            assert_eq!(XmRet::from_code(r.code()), Some(r));
        }
        assert_eq!(XmRet::from_code(-100), None);
        assert_eq!(XmRet::from_code(1), None);
    }

    #[test]
    fn names_follow_manual_convention() {
        for r in ALL {
            assert!(r.name().starts_with("XM_"), "{}", r.name());
        }
        assert_eq!(XmRet::InvalidParam.name(), "XM_INVALID_PARAM");
    }

    #[test]
    fn only_ok_is_success() {
        assert!(!XmRet::Ok.is_error());
        for r in &ALL[1..] {
            assert!(r.is_error(), "{r}");
        }
    }

    #[test]
    fn display_shows_name_and_code() {
        assert_eq!(XmRet::InvalidParam.to_string(), "XM_INVALID_PARAM (-3)");
    }
}

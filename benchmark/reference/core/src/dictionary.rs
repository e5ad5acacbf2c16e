//! Test-value dictionaries (the data type fault model's "dictionary of
//! interesting values", paper Section III.A and Table II).
//!
//! Each XM data type gets a set of [`TestValue`]s — boundary and "magic"
//! values from the testing literature plus values that uncovered issues in
//! previous campaigns (Ballista, the Critical Software RTEMS campaign).
//! A value carries a [`ValidityClass`] used by the issue-deduplication
//! logic: all invalid pointers are one equivalence class (they exercise
//! the same missing check), while scalar values are each their own class.

use std::collections::BTreeMap;
use std::fmt;

/// Equivalence class of a test value for issue grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValidityClass {
    /// A scalar value; each raw value is its own class.
    Scalar,
    /// A pointer that can never be dereferenced by the caller (NULL,
    /// unaligned, kernel space, unmapped).
    InvalidPointer,
    /// A pointer into memory the caller legitimately owns.
    ValidPointer,
}

/// One dictionary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TestValue {
    /// Raw 64-bit ABI word (32-bit values occupy the low half).
    pub raw: u64,
    /// Symbolic label for reports (e.g. `MIN_S32`), if any.
    pub label: Option<&'static str>,
    /// Equivalence class for issue deduplication.
    pub vclass: ValidityClass,
}

impl TestValue {
    /// A plain scalar value.
    pub fn scalar(raw: u64) -> Self {
        TestValue { raw, label: None, vclass: ValidityClass::Scalar }
    }

    /// A labelled scalar (boundary/"magic" values).
    pub fn labelled(raw: u64, label: &'static str) -> Self {
        TestValue { raw, label: Some(label), vclass: ValidityClass::Scalar }
    }

    /// An invalid pointer value.
    pub fn bad_ptr(raw: u64, label: &'static str) -> Self {
        TestValue { raw, label: Some(label), vclass: ValidityClass::InvalidPointer }
    }

    /// A valid pointer value.
    pub fn good_ptr(raw: u64, label: &'static str) -> Self {
        TestValue { raw, label: Some(label), vclass: ValidityClass::ValidPointer }
    }

    /// Signed 32-bit view.
    pub fn as_s32(&self) -> i32 {
        self.raw as u32 as i32
    }

    /// Signed 64-bit view.
    pub fn as_s64(&self) -> i64 {
        self.raw as i64
    }

    /// Unsigned 32-bit view.
    pub fn as_u32(&self) -> u32 {
        self.raw as u32
    }
}

impl fmt::Display for TestValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.label {
            Some(l) => write!(f, "{l}"),
            None => write!(f, "{}", self.raw as i64),
        }
    }
}

/// Addresses used to instantiate pointer dictionaries for a concrete
/// testbed memory map (the toolset is configured per kernel *and* per
/// testbed — Section III.B's "kernel-specific test information").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerProfile {
    /// A scratch address the test partition owns (8-byte aligned, zeroed,
    /// with room for status structures).
    pub valid_scratch: u32,
    /// An address inside the separation kernel's private memory.
    pub kernel_space: u32,
    /// An unmapped address near the top of the address space.
    pub unmapped_top: u32,
}

impl PointerProfile {
    /// The standard five-value pointer dictionary: NULL, unaligned,
    /// valid, kernel-space, unmapped-top.
    pub fn standard_values(&self) -> Vec<TestValue> {
        vec![
            TestValue::bad_ptr(0, "NULL"),
            TestValue::bad_ptr(1, "UNALIGNED"),
            TestValue::good_ptr(self.valid_scratch as u64, "VALID"),
            TestValue::bad_ptr(self.kernel_space as u64, "KERNEL_SPACE"),
            TestValue::bad_ptr(self.unmapped_top as u64, "UNMAPPED"),
        ]
    }
}

/// Per-data-type test-value dictionary (the Data Type XML, Fig. 3).
///
/// ```
/// use skrt::dictionary::{Dictionary, PointerProfile};
///
/// let dict = Dictionary::paper_defaults(PointerProfile {
///     valid_scratch: 0x4010_8000,
///     kernel_space: 0x4000_1000,
///     unmapped_top: 0xFFFF_FFFC,
/// });
/// // Table II, verbatim:
/// let s32: Vec<i32> = dict.values("xm_s32_t").iter().map(|v| v.as_s32()).collect();
/// assert_eq!(s32, [i32::MIN, -16, -1, 0, 1, 2, 16, i32::MAX]);
/// // pointer parameters draw from the five-pointer set
/// assert_eq!(dict.param_values("xmAddress_t", true).len(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    values: BTreeMap<String, Vec<TestValue>>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value set for a data type.
    pub fn set(&mut self, ty: impl Into<String>, values: Vec<TestValue>) {
        self.values.insert(ty.into(), values);
    }

    /// Values for a data type (empty slice if absent).
    pub fn values(&self, ty: &str) -> &[TestValue] {
        self.values.get(ty).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Data types present, in sorted order.
    pub fn types(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Number of data types covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no types are covered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The paper's default dictionary:
    ///
    /// * `xm_s32_t` — exactly the Table II value set
    ///   {MIN_S32, −16, −1, 0, 1, 2, 16, MAX_S32};
    /// * `xm_u32_t` (and its extended aliases when used as scalars) —
    ///   exactly the Fig. 3 value set {0, 1, 2, 16, 4294967295};
    /// * `xmTime_t` — boundary values around the timer-interval domain,
    ///   including the LLONG_MIN value that exposed the negative-interval
    ///   defect and the 1 µs value that exposed the recursion defect;
    /// * pointer-typed parameters (`xmAddress_t` with `IsPointer="YES"`) —
    ///   the standard five-pointer set from `profile`.
    pub fn paper_defaults(profile: PointerProfile) -> Self {
        let mut d = Dictionary::new();
        d.set(
            "xm_s32_t",
            vec![
                TestValue::labelled(i32::MIN as i64 as u64, "MIN_S32"),
                TestValue::scalar(-16i64 as u64),
                TestValue::scalar(-1i64 as u64),
                TestValue::labelled(0, "ZERO"),
                TestValue::scalar(1),
                TestValue::scalar(2),
                TestValue::scalar(16),
                TestValue::labelled(i32::MAX as u64, "MAX_S32"),
            ],
        );
        d.set(
            "xm_u32_t",
            vec![
                TestValue::labelled(0, "ZERO"),
                TestValue::scalar(1),
                TestValue::scalar(2),
                TestValue::scalar(16),
                TestValue::labelled(u32::MAX as u64, "MAX_U32"),
            ],
        );
        d.set(
            "xmTime_t",
            vec![
                TestValue::labelled(i64::MIN as u64, "LLONG_MIN"),
                TestValue::labelled(0, "ZERO"),
                TestValue::scalar(1),
                TestValue::scalar(49),
                TestValue::scalar(50),
                TestValue::scalar(1_000_000),
                TestValue::labelled(i64::MAX as u64, "LLONG_MAX"),
            ],
        );
        d.set("xmAddress_t*", profile.standard_values());
        // Address-valued scalars (IsPointer = NO, e.g. XM_memory_copy).
        d.set(
            "xmAddress_t",
            vec![
                TestValue::bad_ptr(0, "NULL"),
                TestValue::bad_ptr(1, "UNALIGNED"),
                TestValue::good_ptr(profile.valid_scratch as u64, "VALID"),
                TestValue::bad_ptr(profile.kernel_space as u64, "KERNEL_SPACE"),
                TestValue::bad_ptr(profile.unmapped_top as u64, "UNMAPPED"),
            ],
        );
        d.set(
            "xmSize_t",
            vec![
                TestValue::labelled(0, "ZERO"),
                TestValue::scalar(1),
                TestValue::scalar(16),
                TestValue::scalar(4096),
                TestValue::labelled(u32::MAX as u64, "MAX_U32"),
            ],
        );
        d
    }

    /// Key used to look up values for a parameter: pointer parameters use
    /// the `<type>*` entry when present.
    pub fn param_values(&self, ty: &str, is_pointer: bool) -> &[TestValue] {
        if is_pointer {
            let key = format!("{ty}*");
            if let Some(v) = self.values.get(&key) {
                return v;
            }
        }
        self.values(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> PointerProfile {
        PointerProfile {
            valid_scratch: 0x4010_8000,
            kernel_space: 0x4000_1000,
            unmapped_top: 0xFFFF_FFFC,
        }
    }

    #[test]
    fn table_ii_value_set_is_exact() {
        let d = Dictionary::paper_defaults(profile());
        let vals: Vec<i32> = d.values("xm_s32_t").iter().map(TestValue::as_s32).collect();
        assert_eq!(vals, vec![i32::MIN, -16, -1, 0, 1, 2, 16, i32::MAX]);
        assert_eq!(d.values("xm_s32_t")[0].label, Some("MIN_S32"));
        assert_eq!(d.values("xm_s32_t")[7].label, Some("MAX_S32"));
    }

    #[test]
    fn fig3_u32_value_set_is_exact() {
        let d = Dictionary::paper_defaults(profile());
        let vals: Vec<u32> = d.values("xm_u32_t").iter().map(TestValue::as_u32).collect();
        assert_eq!(vals, vec![0, 1, 2, 16, 4_294_967_295]);
    }

    #[test]
    fn time_values_include_defect_triggers() {
        let d = Dictionary::paper_defaults(profile());
        let vals: Vec<i64> = d.values("xmTime_t").iter().map(TestValue::as_s64).collect();
        assert!(vals.contains(&i64::MIN), "LLONG_MIN (negative-interval defect)");
        assert!(vals.contains(&1), "1 µs (recursion defect)");
        assert!(vals.contains(&49) && vals.contains(&50), "minimum-interval boundary");
    }

    #[test]
    fn pointer_dictionary_classes() {
        let d = Dictionary::paper_defaults(profile());
        let ptrs = d.param_values("xmAddress_t", true);
        assert_eq!(ptrs.len(), 5);
        let invalid = ptrs.iter().filter(|v| v.vclass == ValidityClass::InvalidPointer).count();
        assert_eq!(invalid, 4);
        assert_eq!(ptrs.iter().filter(|v| v.vclass == ValidityClass::ValidPointer).count(), 1);
        // non-pointer use of the same type name hits the scalar entry
        let scalars = d.param_values("xmAddress_t", false);
        assert_eq!(scalars.len(), 5);
    }

    #[test]
    fn param_values_falls_back_without_star_entry() {
        let mut d = Dictionary::new();
        d.set("xm_u32_t", vec![TestValue::scalar(7)]);
        assert_eq!(d.param_values("xm_u32_t", true).len(), 1);
        assert!(d.param_values("missing", false).is_empty());
    }

    #[test]
    fn value_views() {
        let v = TestValue::scalar(-1i32 as u32 as u64);
        assert_eq!(v.as_s32(), -1);
        assert_eq!(v.as_u32(), u32::MAX);
        let t = TestValue::labelled(i64::MIN as u64, "LLONG_MIN");
        assert_eq!(t.as_s64(), i64::MIN);
        assert_eq!(t.to_string(), "LLONG_MIN");
        assert_eq!(TestValue::scalar(2).to_string(), "2");
    }

    #[test]
    fn set_replaces() {
        let mut d = Dictionary::new();
        d.set("t", vec![TestValue::scalar(1)]);
        d.set("t", vec![TestValue::scalar(2), TestValue::scalar(3)]);
        assert_eq!(d.values("t").len(), 2);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }
}

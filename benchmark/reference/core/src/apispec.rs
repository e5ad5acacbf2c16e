//! Bridges between the in-code API model and the toolset's XML documents
//! (paper Figs. 2–3).
//!
//! The authoritative API lives in [`xtratum::hypercall::ALL_HYPERCALLS`];
//! this module renders it as an **API Header XML** document and renders a
//! [`Dictionary`] as a **Data Type XML** document — and parses both back,
//! so a campaign can be driven entirely from on-disk spec files, exactly
//! like the original toolset.

use crate::dictionary::{Dictionary, TestValue, ValidityClass};
use specxml::{ApiHeaderDoc, DataTypeDoc, DataTypeSpec, FunctionSpec, ParamSpec};
use xtratum::hypercall::{HypercallId, ALL_HYPERCALLS};
use xtratum::types::type_info;

/// Renders the full 61-hypercall API as an API Header document.
pub fn api_header_doc() -> ApiHeaderDoc {
    ApiHeaderDoc {
        kernel: "XtratuM".into(),
        version: "3.x (LEON3)".into(),
        functions: ALL_HYPERCALLS
            .iter()
            .map(|d| FunctionSpec {
                name: d.name.into(),
                return_type: "xm_s32_t".into(),
                return_is_pointer: false,
                params: d
                    .params
                    .iter()
                    .map(|p| ParamSpec {
                        name: p.name.into(),
                        ty: p.ty.into(),
                        is_pointer: p.pointer,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Checks that a parsed API header matches the in-code table; returns the
/// list of mismatches (empty = consistent).
pub fn verify_api_header(doc: &ApiHeaderDoc) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.functions.len() != ALL_HYPERCALLS.len() {
        errs.push(format!("function count {} != {}", doc.functions.len(), ALL_HYPERCALLS.len()));
    }
    for d in ALL_HYPERCALLS {
        match doc.function(d.name) {
            None => errs.push(format!("missing function {}", d.name)),
            Some(f) => {
                if f.params.len() != d.params.len() {
                    errs.push(format!(
                        "{}: arity {} != {}",
                        d.name,
                        f.params.len(),
                        d.params.len()
                    ));
                    continue;
                }
                for (fp, dp) in f.params.iter().zip(d.params) {
                    if fp.name != dp.name || fp.ty != dp.ty || fp.is_pointer != dp.pointer {
                        errs.push(format!("{}: parameter '{}' differs", d.name, dp.name));
                    }
                }
            }
        }
    }
    errs
}

/// Renders a dictionary as a Data Type XML document. Pointer dictionaries
/// (keys ending in `*`) are emitted with a `_ptr` suffix since XML names
/// cannot contain `*`.
pub fn data_type_doc(dict: &Dictionary) -> DataTypeDoc {
    DataTypeDoc {
        kernel: "XtratuM".into(),
        types: dict
            .types()
            .map(|ty| {
                let (name, lookup_ptr) = match ty.strip_suffix('*') {
                    Some(base) => (format!("{base}_ptr"), true),
                    None => (ty.to_string(), false),
                };
                let base_ty = ty.trim_end_matches('*');
                let basic = type_info(base_ty).map(|t| t.ansi_c).unwrap_or("unsigned int");
                DataTypeSpec {
                    name,
                    basic_type: if lookup_ptr { format!("{basic} *") } else { basic.to_string() },
                    test_values: dict.values(ty).iter().map(|v| render_value(ty, v)).collect(),
                }
            })
            .collect(),
    }
}

fn render_value(ty: &str, v: &TestValue) -> String {
    let signed = type_info(ty.trim_end_matches('*')).map(|t| t.signed).unwrap_or(false);
    if signed {
        let bits = type_info(ty.trim_end_matches('*')).unwrap().bits;
        if bits == 64 {
            format!("{}", v.raw as i64)
        } else {
            format!("{}", v.raw as u32 as i32)
        }
    } else {
        format!("{}", v.as_u32())
    }
}

/// Parses a Data Type document back into a [`Dictionary`]. Values are
/// parsed against the declared type's signedness; `_ptr` entries become
/// `*` dictionary keys, with validity classes recovered heuristically
/// (a pointer value is valid iff it falls inside one of `valid_ranges`).
pub fn dictionary_from_doc(
    doc: &DataTypeDoc,
    valid_ranges: &[(u32, u32)],
) -> Result<Dictionary, String> {
    let mut dict = Dictionary::new();
    for dt in &doc.types {
        let (key, is_ptr) = match dt.name.strip_suffix("_ptr") {
            Some(base) => (format!("{base}*"), true),
            None => (dt.name.clone(), false),
        };
        let base = key.trim_end_matches('*');
        let info = type_info(base).ok_or_else(|| format!("unknown data type '{}'", dt.name))?;
        let mut values = Vec::new();
        for raw_text in &dt.test_values {
            let raw: u64 = if info.signed {
                let v: i64 =
                    raw_text.parse().map_err(|_| format!("{}: bad value '{raw_text}'", dt.name))?;
                if info.bits == 64 {
                    v as u64
                } else {
                    // 32-bit signed values are stored sign-extended so that
                    // reports render them as negative numbers.
                    v as i32 as i64 as u64
                }
            } else {
                let v: u64 =
                    raw_text.parse().map_err(|_| format!("{}: bad value '{raw_text}'", dt.name))?;
                v
            };
            let vclass = if is_ptr || base == "xmAddress_t" {
                let addr = raw as u32;
                let valid = valid_ranges
                    .iter()
                    .any(|&(b, s)| addr >= b && (addr as u64) < b as u64 + s as u64);
                if valid {
                    ValidityClass::ValidPointer
                } else {
                    ValidityClass::InvalidPointer
                }
            } else {
                ValidityClass::Scalar
            };
            values.push(TestValue { raw, label: None, vclass });
        }
        dict.set(key, values);
    }
    Ok(dict)
}

/// Looks up a hypercall by the name written in an API header document.
pub fn hypercall_by_name(name: &str) -> Option<HypercallId> {
    HypercallId::by_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::PointerProfile;

    fn dict() -> Dictionary {
        Dictionary::paper_defaults(PointerProfile {
            valid_scratch: 0x4010_8000,
            kernel_space: 0x4000_1000,
            unmapped_top: 0xFFFF_FFFC,
        })
    }

    #[test]
    fn api_header_round_trips_through_xml() {
        let doc = api_header_doc();
        assert_eq!(doc.functions.len(), 61);
        let xml = doc.to_xml();
        let back = ApiHeaderDoc::from_xml(&xml).unwrap();
        assert_eq!(doc, back);
        assert!(verify_api_header(&back).is_empty());
    }

    #[test]
    fn api_header_contains_fig2_entry_verbatim() {
        let doc = api_header_doc();
        let f = doc.function("XM_reset_partition").unwrap();
        assert_eq!(f.return_type, "xm_s32_t");
        assert_eq!(f.params[0].name, "partitionId");
        assert_eq!(f.params[0].ty, "xm_s32_t");
        assert_eq!(f.params[1].ty, "xm_u32_t");
    }

    #[test]
    fn verify_detects_divergence() {
        let mut doc = api_header_doc();
        doc.functions[1].params.clear(); // XM_reset_system loses its mode
        let errs = verify_api_header(&doc);
        assert!(errs.iter().any(|e| e.contains("XM_reset_system")), "{errs:?}");
    }

    #[test]
    fn data_type_doc_round_trips_values() {
        let d = dict();
        let doc = data_type_doc(&d);
        let xml = doc.to_xml();
        let back = DataTypeDoc::from_xml(&xml).unwrap();
        assert_eq!(doc, back);
        // Fig. 3 values present for xm_u32_t
        let u32_entry = back.data_type("xm_u32_t").unwrap();
        assert_eq!(u32_entry.test_values, ["0", "1", "2", "16", "4294967295"]);
        // Table II values for xm_s32_t, rendered signed
        let s32 = back.data_type("xm_s32_t").unwrap();
        assert_eq!(s32.test_values[0], "-2147483648");
        assert_eq!(s32.test_values[7], "2147483647");
    }

    #[test]
    fn dictionary_round_trips_from_doc() {
        let d = dict();
        let doc = data_type_doc(&d);
        let ranges = [(0x4010_0000u32, 0x1_0000u32)];
        let back = dictionary_from_doc(&doc, &ranges).unwrap();
        // raw values survive (labels are presentation-only)
        for ty in ["xm_s32_t", "xm_u32_t", "xmTime_t", "xmSize_t"] {
            let a: Vec<u64> = d.values(ty).iter().map(|v| v.raw).collect();
            let b: Vec<u64> = back.values(ty).iter().map(|v| v.raw).collect();
            assert_eq!(a, b, "{ty}");
        }
        // pointer classes recovered from the memory map
        let ptrs = back.param_values("xmAddress_t", true);
        assert_eq!(ptrs.iter().filter(|v| v.vclass == ValidityClass::ValidPointer).count(), 1);
        assert_eq!(ptrs.iter().filter(|v| v.vclass == ValidityClass::InvalidPointer).count(), 4);
    }

    #[test]
    fn bad_values_rejected() {
        let mut doc = data_type_doc(&dict());
        doc.types[0].test_values[0] = "not-a-number".into();
        assert!(dictionary_from_doc(&doc, &[]).is_err());
    }

    #[test]
    fn hypercall_lookup() {
        assert_eq!(hypercall_by_name("XM_set_timer"), Some(HypercallId::SetTimer));
        assert_eq!(hypercall_by_name("nope"), None);
    }
}

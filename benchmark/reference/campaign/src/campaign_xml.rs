//! Campaign-specification XML: the third toolset document.
//!
//! The API-header and data-type files (Figs. 2–3) drive the *automatic*
//! sweep; the Table III campaign additionally uses operator-selected
//! value matrices ("selected by the user as required", Section III.B).
//! This module serialises a full [`CampaignSpec`] — suites, labels and
//! per-parameter value lists — so the exact campaign is reproducible from
//! a file:
//!
//! ```xml
//! <Campaign Name="...">
//!   <Suite Function="XM_set_timer" Label="A">
//!     <ParamValues Index="0"><Value>0</Value><Value>1</Value></ParamValues>
//!     ...
//!   </Suite>
//! </Campaign>
//! ```
//!
//! Values are written signed per the parameter's declared type (matching
//! the data-type file convention); pointer validity classes are recovered
//! from the test partition's memory map on load.

use skrt::dictionary::{TestValue, ValidityClass};
use skrt::suite::{CampaignSpec, TestSuite};
use specxml::{parse_document, to_string_pretty, Element};
use xtratum::hypercall::HypercallId;
use xtratum::types::type_info;

/// Serialises a campaign to the XML document.
pub fn campaign_to_xml(spec: &CampaignSpec) -> String {
    let mut root = Element::new("Campaign").with_attr("Name", &spec.name);
    for suite in &spec.suites {
        let def = suite.hypercall.def();
        let mut se = Element::new("Suite").with_attr("Function", def.name);
        if let Some(label) = &suite.label {
            se = se.with_attr("Label", label);
        }
        for (i, values) in suite.matrix.iter().enumerate() {
            let p = &def.params[i];
            let mut pe = Element::new("ParamValues")
                .with_attr("Index", i.to_string())
                .with_attr("Name", p.name)
                .with_attr("Type", p.ty);
            for v in values {
                pe = pe.with_child(Element::new("Value").with_text(render_value(p.ty, v)));
            }
            se = se.with_child(pe);
        }
        root = root.with_child(se);
    }
    to_string_pretty(&root)
}

fn render_value(ty: &str, v: &TestValue) -> String {
    match type_info(ty) {
        Some(t) if t.signed && t.bits == 64 => format!("{}", v.raw as i64),
        Some(t) if t.signed => format!("{}", v.raw as u32 as i32),
        _ => format!("{}", v.as_u32()),
    }
}

/// Parses a campaign document. `valid_ranges` (base, size) describe the
/// test partition's memory areas for pointer-class recovery.
pub fn campaign_from_xml(xml: &str, valid_ranges: &[(u32, u32)]) -> Result<CampaignSpec, String> {
    let root = parse_document(xml).map_err(|e| e.to_string())?;
    if root.name != "Campaign" {
        return Err(format!("expected <Campaign>, found <{}>", root.name));
    }
    let mut spec = CampaignSpec::new(root.attr("Name").unwrap_or_default());
    for se in root.find_all("Suite") {
        let fname = se.attr("Function").ok_or_else(|| "Suite without Function".to_string())?;
        let id =
            HypercallId::by_name(fname).ok_or_else(|| format!("unknown hypercall '{fname}'"))?;
        let def = id.def();
        let mut matrix: Vec<Vec<TestValue>> = vec![Vec::new(); def.params.len()];
        for pe in se.find_all("ParamValues") {
            let idx: usize = pe
                .attr("Index")
                .ok_or_else(|| format!("{fname}: ParamValues without Index"))?
                .parse()
                .map_err(|_| format!("{fname}: bad Index"))?;
            if idx >= def.params.len() {
                return Err(format!("{fname}: parameter index {idx} out of range"));
            }
            let p = &def.params[idx];
            for ve in pe.find_all("Value") {
                matrix[idx].push(parse_value(p.ty, p.pointer, &ve.text(), valid_ranges)?);
            }
        }
        let mut suite = TestSuite::with_matrix(id, matrix)?;
        if let Some(label) = se.attr("Label") {
            suite = suite.labelled(label);
        }
        spec.push(suite);
    }
    Ok(spec)
}

fn parse_value(
    ty: &str,
    pointer: bool,
    text: &str,
    valid_ranges: &[(u32, u32)],
) -> Result<TestValue, String> {
    let info = type_info(ty).ok_or_else(|| format!("unknown type '{ty}'"))?;
    let raw: u64 = if info.signed {
        let v: i64 = text.parse().map_err(|_| format!("bad value '{text}' for {ty}"))?;
        if info.bits == 64 {
            v as u64
        } else {
            v as i32 as i64 as u64
        }
    } else {
        text.parse().map_err(|_| format!("bad value '{text}' for {ty}"))?
    };
    let vclass = if pointer || ty == "xmAddress_t" {
        let addr = raw as u32;
        let valid =
            valid_ranges.iter().any(|&(b, s)| addr >= b && (addr as u64) < b as u64 + s as u64);
        if valid {
            ValidityClass::ValidPointer
        } else {
            ValidityClass::InvalidPointer
        }
    } else {
        ValidityClass::Scalar
    };
    Ok(TestValue { raw, label: None, vclass })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_campaign;

    fn ranges() -> Vec<(u32, u32)> {
        vec![(eagleeye::FDIR_BASE, eagleeye::PART_SIZE)]
    }

    #[test]
    fn table_iii_campaign_round_trips() {
        let spec = paper_campaign();
        let xml = campaign_to_xml(&spec);
        let back = campaign_from_xml(&xml, &ranges()).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.suites.len(), spec.suites.len());
        assert_eq!(back.total_tests(), 2662);
        for (a, b) in back.suites.iter().zip(&spec.suites) {
            assert_eq!(a.hypercall, b.hypercall);
            assert_eq!(a.label, b.label);
            let raws_a: Vec<Vec<u64>> =
                a.matrix.iter().map(|vs| vs.iter().map(|v| v.raw).collect()).collect();
            let raws_b: Vec<Vec<u64>> =
                b.matrix.iter().map(|vs| vs.iter().map(|v| v.raw).collect()).collect();
            assert_eq!(raws_a, raws_b, "{}", a.hypercall.name());
            // pointer validity classes recovered from the memory map
            let cls_a: Vec<Vec<_>> =
                a.matrix.iter().map(|vs| vs.iter().map(|v| v.vclass).collect()).collect();
            let cls_b: Vec<Vec<_>> =
                b.matrix.iter().map(|vs| vs.iter().map(|v| v.vclass).collect()).collect();
            assert_eq!(cls_a, cls_b, "{}", a.hypercall.name());
        }
        assert_eq!(back.tests_per_category(), spec.tests_per_category());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(campaign_from_xml("<Nope/>", &ranges()).is_err());
        assert!(campaign_from_xml(
            r#"<Campaign Name="x"><Suite Function="XM_bogus"/></Campaign>"#,
            &ranges()
        )
        .is_err());
        assert!(campaign_from_xml(
            r#"<Campaign Name="x"><Suite Function="XM_set_timer">
                 <ParamValues Index="9"><Value>0</Value></ParamValues>
               </Suite></Campaign>"#,
            &ranges()
        )
        .is_err());
        // arity mismatch: set_timer needs 3 populated parameter lists
        assert!(campaign_from_xml(
            r#"<Campaign Name="x"><Suite Function="XM_set_timer">
                 <ParamValues Index="0"><Value>0</Value></ParamValues>
               </Suite></Campaign>"#,
            &ranges()
        )
        .is_err());
    }

    #[test]
    fn signed_values_render_readably() {
        let spec = paper_campaign();
        let xml = campaign_to_xml(&spec);
        assert!(xml.contains("<Value>-2147483648</Value>"), "signed 32-bit rendering");
        assert!(xml.contains("<Value>-9223372036854775808</Value>"), "LLONG_MIN rendering");
        assert!(xml.contains("Function=\"XM_memory_copy\" Label=\"A\""), "{xml:.400}");
    }
}

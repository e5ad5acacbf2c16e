//! File-driven campaigns: build a test campaign directly from the two
//! XML specification documents, exactly as the original toolset did
//! ("fault placeholders are generated through two XML files that define
//! kernel-specific test information").
//!
//! Unlike [`crate::paper::paper_campaign`] (the reconstructed Table III
//! campaign with operator-selected suite overrides), the file-driven
//! campaign is the *fully automatic* sweep: one dictionary-default suite
//! per hypercall listed in the API header — including the parameter-less
//! ones, which contribute a single invocation each.

use skrt::apispec::{dictionary_from_doc, hypercall_by_name};
use skrt::dictionary::Dictionary;
use skrt::suite::{CampaignSpec, TestSuite};
use specxml::{ApiHeaderDoc, DataTypeDoc};

/// Builds the automatic sweep from parsed documents.
pub fn automatic_campaign(api: &ApiHeaderDoc, dict: &Dictionary) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::new(format!(
        "automatic sweep from spec files ({} {})",
        api.kernel, api.version
    ));
    for f in &api.functions {
        let id = hypercall_by_name(&f.name)
            .ok_or_else(|| format!("API header lists unknown hypercall '{}'", f.name))?;
        spec.push(TestSuite::from_dictionary(id, dict)?);
    }
    Ok(spec)
}

/// Parses the two XML documents and builds the automatic sweep.
/// `valid_ranges` are the test partition's memory areas, used to recover
/// pointer validity classes from the data-type file.
pub fn load_campaign_from_files(
    api_xml: &str,
    datatypes_xml: &str,
    valid_ranges: &[(u32, u32)],
) -> Result<CampaignSpec, String> {
    let api = ApiHeaderDoc::from_xml(api_xml).map_err(|e| e.to_string())?;
    let dt = DataTypeDoc::from_xml(datatypes_xml).map_err(|e| e.to_string())?;
    let dict = dictionary_from_doc(&dt, valid_ranges)?;
    automatic_campaign(&api, &dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_dictionary;
    use skrt::apispec::{api_header_doc, data_type_doc};

    fn automatic_from_in_code_tables() -> CampaignSpec {
        let api = api_header_doc();
        let dict = paper_dictionary();
        automatic_campaign(&api, &dict).unwrap()
    }

    #[test]
    fn automatic_sweep_covers_all_61_hypercalls() {
        let spec = automatic_from_in_code_tables();
        assert_eq!(spec.suites.len(), 61);
        assert_eq!(spec.tested_hypercalls().len(), 61);
        // Each suite total equals the Eq. (1) product of its parameter
        // dictionaries; parameter-less hypercalls contribute one test.
        assert!(spec.total_tests() > 2662, "{}", spec.total_tests());
    }

    #[test]
    fn round_trip_through_xml_files_is_lossless() {
        let api_xml = api_header_doc().to_xml();
        let dt_xml = data_type_doc(&paper_dictionary()).to_xml();
        let ranges = [(eagleeye::FDIR_BASE, eagleeye::PART_SIZE)];
        let from_files = load_campaign_from_files(&api_xml, &dt_xml, &ranges).unwrap();
        let from_code = automatic_from_in_code_tables();
        assert_eq!(from_files.total_tests(), from_code.total_tests());
        assert_eq!(from_files.suites.len(), from_code.suites.len());
        for (a, b) in from_files.suites.iter().zip(&from_code.suites) {
            assert_eq!(a.hypercall, b.hypercall);
            let raws_a: Vec<Vec<u64>> =
                a.matrix.iter().map(|vs| vs.iter().map(|v| v.raw).collect()).collect();
            let raws_b: Vec<Vec<u64>> =
                b.matrix.iter().map(|vs| vs.iter().map(|v| v.raw).collect()).collect();
            assert_eq!(raws_a, raws_b, "{}", a.hypercall.name());
        }
    }

    #[test]
    fn unknown_hypercall_in_file_is_rejected() {
        let mut api = api_header_doc();
        api.functions[0].name = "XM_bogus".into();
        assert!(automatic_campaign(&api, &paper_dictionary()).is_err());
    }
}

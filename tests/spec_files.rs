//! The committed spec files (`specs/xm_api.xml`, `specs/xm_datatypes.xml`
//! — the Fig. 2 / Fig. 3 artefacts) must stay consistent with the in-code
//! API table and dictionaries. Regenerate with
//! `cargo run --example spec_xml` after changing either.

use skrt::apispec::{api_header_doc, data_type_doc, dictionary_from_doc, verify_api_header};
use skrt::fuzz::{parse_steps, FuzzOptions};
use specxml::{ApiHeaderDoc, DataTypeDoc};
use testkit::Rng;
use xm_campaign::{campaign_from_xml, load_campaign_from_files, paper_dictionary};

fn repo_file(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/");
    std::fs::read_to_string(format!("{path}{name}")).unwrap_or_else(|e| {
        panic!("missing specs/{name} (run `cargo run --example spec_xml`): {e}")
    })
}

#[test]
fn committed_api_header_matches_in_code_table() {
    let doc = ApiHeaderDoc::from_xml(&repo_file("xm_api.xml")).expect("well-formed");
    assert_eq!(doc.functions.len(), 61);
    let problems = verify_api_header(&doc);
    assert!(problems.is_empty(), "{problems:#?}");
    // Byte-identical with a fresh render.
    assert_eq!(repo_file("xm_api.xml"), api_header_doc().to_xml());
}

#[test]
fn committed_datatype_file_matches_dictionary() {
    let doc = DataTypeDoc::from_xml(&repo_file("xm_datatypes.xml")).expect("well-formed");
    let dict = paper_dictionary();
    assert_eq!(repo_file("xm_datatypes.xml"), data_type_doc(&dict).to_xml());
    // ... and it decodes back to the same raw values.
    let ranges = [(eagleeye::FDIR_BASE, eagleeye::PART_SIZE)];
    let back = dictionary_from_doc(&doc, &ranges).expect("decodable");
    for ty in ["xm_s32_t", "xm_u32_t", "xmTime_t", "xmSize_t"] {
        let a: Vec<u64> = dict.values(ty).iter().map(|v| v.raw).collect();
        let b: Vec<u64> = back.values(ty).iter().map(|v| v.raw).collect();
        assert_eq!(a, b, "{ty}");
    }
}

#[test]
fn committed_campaign_file_reproduces_table_iii_spec() {
    let xml = repo_file("xm_campaign.xml");
    // Byte-identical with a fresh render of the in-code campaign.
    assert_eq!(xml, xm_campaign::campaign_to_xml(&xm_campaign::paper_campaign()));
    // ... and it loads back into the exact 2662-test campaign.
    let ranges = [(eagleeye::FDIR_BASE, eagleeye::PART_SIZE)];
    let spec = xm_campaign::campaign_from_xml(&xml, &ranges).expect("loadable");
    assert_eq!(spec.total_tests(), 2662);
    assert_eq!(spec.tested_hypercalls().len(), 39);
}

#[test]
fn file_driven_table_iii_campaign_finds_the_nine_issues() {
    // The full paper experiment, driven purely from the committed file.
    let ranges = [(eagleeye::FDIR_BASE, eagleeye::PART_SIZE)];
    let spec = xm_campaign::campaign_from_xml(&repo_file("xm_campaign.xml"), &ranges).unwrap();
    let result = skrt::exec::run_campaign(
        &eagleeye::EagleEye,
        &spec,
        &skrt::exec::CampaignOptions {
            build: xtratum::vuln::KernelBuild::Legacy,
            ..Default::default()
        },
    );
    assert_eq!(result.issues().len(), 9);
}

#[test]
fn fig2_and_fig3_content_present_in_files() {
    let api = repo_file("xm_api.xml");
    assert!(api
        .contains(r#"<Function Name="XM_reset_partition" ReturnType="xm_s32_t" IsPointer="NO">"#));
    assert!(api.contains(r#"<Parameter Name="resetMode" Type="xm_u32_t" IsPointer="NO"/>"#));
    let dt = repo_file("xm_datatypes.xml");
    assert!(dt.contains(r#"<DataType Name="xm_u32_t">"#));
    for v in ["<Value>0</Value>", "<Value>16</Value>", "<Value>4294967295</Value>"] {
        assert!(dt.contains(v), "{v}");
    }
}

/// One hostile edit of `bytes`: a byte flip, a truncation, a span
/// deletion or duplication, or a splice with another input.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, inputs: &[String]) {
    // Bytes that move a reader across structure, not only content.
    const SHARP: &[u8] = b"<>/=\"'&;#!?-_0123456789xX \n\t";
    let n = bytes.len().max(1);
    match rng.range(0, 5) {
        0 => {
            for _ in 0..rng.range(1, 9) {
                let at = rng.range(0, n).min(bytes.len().saturating_sub(1));
                if let Some(b) = bytes.get_mut(at) {
                    *b =
                        if rng.chance(1, 2) { *rng.pick(SHARP) } else { *b ^ rng.next_u32() as u8 };
                }
            }
        }
        1 => bytes.truncate(rng.range(0, n)),
        2 => {
            let lo = rng.range(0, n).min(bytes.len());
            let hi = (lo + rng.range(1, 64)).min(bytes.len());
            bytes.drain(lo..hi);
        }
        3 => {
            let lo = rng.range(0, n).min(bytes.len());
            let hi = (lo + rng.range(1, 256)).min(bytes.len());
            let span = bytes[lo..hi].to_vec();
            let at = rng.range(0, bytes.len() + 1);
            bytes.splice(at..at, span);
        }
        _ => {
            let other = rng.pick(inputs).as_bytes();
            let cut = rng.range(0, bytes.len() + 1);
            let from = rng.range(0, other.len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[from..]);
        }
    }
}

/// The typed readers treat every file as hostile input: the committed
/// spec files and a rendered corpus entry, mangled by seeded byte flips,
/// truncations, span deletions and duplications and splices, must come
/// back `Ok` or `Err` from every reader — never a panic.
#[test]
fn typed_readers_are_total_on_mangled_inputs() {
    let fuzz = FuzzOptions { max_execs: 16, batch: 16, threads: 1, ..FuzzOptions::default() };
    let corpus = xm_campaign::run_eagleeye_fuzz(&fuzz).result.corpus;
    let entry = corpus.last().expect("a fuzz run grows a corpus").render();
    let inputs = [
        repo_file("xm_api.xml"),
        repo_file("xm_datatypes.xml"),
        repo_file("xm_campaign.xml"),
        entry,
    ];
    let ranges = [(eagleeye::FDIR_BASE, eagleeye::PART_SIZE)];
    testkit::check("typed readers are total", 512, |rng| {
        let mut bytes = rng.pick(&inputs).clone().into_bytes();
        for _ in 0..rng.range(1, 4) {
            mutate(rng, &mut bytes, &inputs);
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = ApiHeaderDoc::from_xml(&text);
        let _ = DataTypeDoc::from_xml(&text);
        let _ = load_campaign_from_files(&text, &inputs[1], &ranges);
        let _ = load_campaign_from_files(&inputs[0], &text, &ranges);
        let _ = campaign_from_xml(&text, &ranges);
        let _ = parse_steps(&text);
    });
}

//! `xm-campaign` — the XtratuM-for-LEON3 robustness campaign
//! (paper Section IV).
//!
//! [`paper`] defines the exact test campaign of Table III: 39 of the 61
//! hypercalls, 2662 tests, with per-category test counts matching the
//! paper row by row. The paper reports only per-category totals, so the
//! per-hypercall value matrices are our reconstruction — built from the
//! default dictionaries (Table II / Fig. 3) plus documented suite
//! overrides, and pinned by tests so the reproduction cannot drift.
//!
//! [`runner`] executes the campaign against the EagleEye testbed and
//! produces the Table III summary, the Fig. 8 distribution, and the
//! Section IV issue bulletins for either kernel build.

pub mod campaign_xml;
pub mod check;
pub mod files;
pub mod forensics;
pub mod fuzz;
pub mod paper;
pub mod runner;
pub mod sequences;

pub use campaign_xml::{campaign_from_xml, campaign_to_xml};
pub use check::{check_flight_names, render_check_report, write_check_bundle};
pub use files::{automatic_campaign, load_campaign_from_files};
pub use forensics::{write_forensics_bundle, BundleSummary};
pub use fuzz::{
    finding_signature, fuzz_benchmark_alphabet, fuzz_rediscovery, random_rediscovery,
    run_eagleeye_fuzz, stateful_defect_signatures, FuzzReport, RediscoveryProbe,
};
pub use paper::{paper_campaign, paper_dictionary, pointer_profile};
pub use runner::{
    eagleeye_flight_names, run_hypercall_suites, run_paper_campaign, run_paper_campaign_with,
    run_sweep_campaign_with, triage_case, CampaignReport, TriageReport,
};
pub use sequences::{
    eagleeye_sequence_alphabet, eagleeye_sequence_specs, run_eagleeye_sequences, DefectSignature,
    RediscoveryRow, SequenceReport,
};

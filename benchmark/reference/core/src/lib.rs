//! `skrt` — **S**eparation **K**ernel **R**obustness **T**esting.
//!
//! A Rust implementation of the paper's contribution: a robustness-testing
//! toolset for separation kernels built on the **data type fault model**
//! (Ballista-style API-level fault injection), organised around the three
//! phases of Fig. 1:
//!
//! 1. **Preparation** — the hypercall API model ([`apispec`]), the
//!    per-data-type test-value dictionaries ([`dictionary`], Table II) and
//!    the campaign specification ([`suite`]);
//! 2. **Test generation and execution** — Cartesian dataset generation
//!    ([`generator`], Eq. 1), mutant generation ([`mutant`], Figs. 4–5,
//!    including C-source emission) and the testbed executor ([`exec`]);
//! 3. **Log analysis** — observation capture ([`observe`]), the reference
//!    oracle ([`oracle`]), CRASH-scale classification ([`classify`]),
//!    issue deduplication ([`issues`]) and fault-masking analysis
//!    ([`masking`], Fig. 7).
//!
//! The Section-V extensions are implemented too: the return-code oracle
//! "dry run" ([`oracle`]), phantom parameters for parameter-less
//! hypercalls ([`phantom`]) and state-based stress conditions
//! ([`stress`]).
//!
//! The framework is kernel-aware (it drives the [`xtratum`] semantics
//! model) but testbed-agnostic: anything implementing [`testbed::Testbed`]
//! can host a campaign — the EagleEye TSP model in the `eagleeye` crate is
//! the paper's instance.

pub mod apispec;
pub mod check;
pub mod classify;
pub mod dictionary;
pub mod exec;
pub mod flight;
pub mod fuzz;
pub mod generator;
pub mod issues;
pub mod masking;
pub mod metrics;
pub mod mutant;
pub mod observe;
pub mod oracle;
pub mod phantom;
pub mod report;
pub mod sequence;
pub mod shrink;
pub mod stress;
pub mod suite;
pub mod testbed;

pub use check::{
    enumerate_configs, probes_for, run_check, ChannelTopology, CheckCaseRecord, CheckConfig,
    CheckOptions, CheckProbe, CheckResult, CheckScope, CheckTestbed, InvariantKind,
    InvariantViolation,
};
pub use classify::{Cause, Classification, CrashClass};
pub use dictionary::{Dictionary, PointerProfile, TestValue, ValidityClass};
pub use exec::{
    run_campaign, run_single_test, CampaignOptions, CampaignResult, LiveStats, TestRecord,
};
pub use flight::{FlightLog, FlightNames, TestFlight};
pub use fuzz::{
    parse_steps, render_corpus, replay_coverage, run_fuzz, CorpusEntry, FuzzFinding, FuzzOptions,
    FuzzResult, MutationOp, Mutator, Origin, RoundStat,
};
pub use generator::{combinations_total, CartesianIter};
pub use issues::{Issue, IssueKey};
pub use metrics::MetricsReport;
pub use mutant::MutantSpec;
pub use observe::{Invocation, TestObservation};
pub use oracle::{Expectation, OracleCache, OracleContext, PortInfo};
pub use sequence::{
    generate_sequences, run_one_sequence, run_one_sequence_bounded, run_sequence_campaign,
    AlphabetEntry, MinimalRepro, SequenceCampaignResult, SequenceEval, SequenceOptions,
    SequenceRecord, SequenceSpec, SequenceVerdict, StateModel, StepOutcome,
};
pub use shrink::{shrink_sequence, ShrinkOutcome};
pub use suite::{CampaignSpec, TestCase, TestSuite};
pub use testbed::{BootSnapshot, Testbed};

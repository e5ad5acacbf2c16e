//! Test suites and campaign specifications (Preparation phase).
//!
//! A [`TestSuite`] pairs one hypercall with a test-value matrix (one value
//! set per parameter). Several suites may target the same hypercall with
//! different matrices — the paper's toolset supports this ("may be
//! provided automatically as part of a test campaign or selected by the
//! user as required"), and the Memory Management row of Table III (991
//! tests over one hypercall) is only reachable with multiple suites. A
//! [`CampaignSpec`] is an ordered list of suites.

use crate::dictionary::{Dictionary, TestValue};
use crate::generator::{combinations_total, CartesianIter};
use std::collections::{BTreeMap, BTreeSet};
use xtratum::hypercall::{Category, HypercallId};

/// One hypercall + one test-value matrix.
#[derive(Debug, Clone)]
pub struct TestSuite {
    /// The hypercall under test.
    pub hypercall: HypercallId,
    /// One value set per declared parameter.
    pub matrix: Vec<Vec<TestValue>>,
    /// Optional label for reports (e.g. `"A"`, `"B"` for split suites).
    pub label: Option<String>,
}

impl TestSuite {
    /// Builds a suite with the dictionary's default value set for every
    /// parameter (the fully automatic path of Fig. 4).
    pub fn from_dictionary(hypercall: HypercallId, dict: &Dictionary) -> Result<Self, String> {
        let def = hypercall.def();
        let mut matrix = Vec::with_capacity(def.params.len());
        for p in def.params {
            let vals = dict.param_values(p.ty, p.pointer);
            if vals.is_empty() {
                return Err(format!(
                    "dictionary has no values for type '{}' (parameter '{}' of {})",
                    p.ty, p.name, def.name
                ));
            }
            matrix.push(vals.to_vec());
        }
        Ok(TestSuite { hypercall, matrix, label: None })
    }

    /// Builds a suite with an explicit matrix (operator-selected value
    /// sets). Arity must match the API table.
    pub fn with_matrix(
        hypercall: HypercallId,
        matrix: Vec<Vec<TestValue>>,
    ) -> Result<Self, String> {
        let want = hypercall.param_count();
        if matrix.len() != want {
            return Err(format!(
                "{} takes {} parameters, matrix has {}",
                hypercall.name(),
                want,
                matrix.len()
            ));
        }
        if matrix.iter().any(Vec::is_empty) {
            return Err(format!("{}: empty value set in matrix", hypercall.name()));
        }
        Ok(TestSuite { hypercall, matrix, label: None })
    }

    /// Attaches a report label.
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Eq. (1) total for this suite.
    pub fn total(&self) -> u64 {
        combinations_total(&self.matrix)
    }

    /// Lazy dataset enumeration.
    pub fn datasets(&self) -> CartesianIter {
        CartesianIter::new(self.matrix.clone())
    }
}

/// One concrete test: a hypercall plus a fully instantiated dataset.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// The hypercall under test.
    pub hypercall: HypercallId,
    /// One test value per parameter.
    pub dataset: Vec<TestValue>,
    /// Index of the owning suite within the campaign.
    pub suite_index: usize,
    /// Index of this dataset within its suite.
    pub case_index: u64,
}

impl TestCase {
    /// The raw hypercall this test injects. Builds on the stack — this
    /// runs once per test on the campaign hot path.
    pub fn raw(&self) -> xtratum::hypercall::RawHypercall {
        let mut words = [0u64; xtratum::hypercall::MAX_RAW_ARGS];
        let n = self.dataset.len().min(words.len());
        for (w, v) in words.iter_mut().zip(&self.dataset) {
            *w = v.raw;
        }
        xtratum::hypercall::RawHypercall::new_unchecked(self.hypercall, &words[..n])
    }

    /// Human-readable call form, e.g. `XM_set_timer(0, 1, LLONG_MIN)`.
    pub fn display_call(&self) -> String {
        let args: Vec<String> = self.dataset.iter().map(|v| v.to_string()).collect();
        format!("{}({})", self.hypercall.name(), args.join(", "))
    }
}

/// A full campaign: an ordered list of suites.
#[derive(Debug, Clone, Default)]
pub struct CampaignSpec {
    /// Campaign name for reports.
    pub name: String,
    /// Suites in execution order.
    pub suites: Vec<TestSuite>,
}

impl CampaignSpec {
    /// Creates an empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec { name: name.into(), suites: Vec::new() }
    }

    /// Adds a suite.
    pub fn push(&mut self, suite: TestSuite) {
        self.suites.push(suite);
    }

    /// Total number of tests (Eq. 1 summed over suites).
    pub fn total_tests(&self) -> u64 {
        self.suites.iter().map(TestSuite::total).sum()
    }

    /// The distinct hypercalls exercised.
    pub fn tested_hypercalls(&self) -> BTreeSet<HypercallId> {
        self.suites.iter().map(|s| s.hypercall).collect()
    }

    /// Tests per Table III category.
    pub fn tests_per_category(&self) -> BTreeMap<Category, u64> {
        let mut map = BTreeMap::new();
        for s in &self.suites {
            *map.entry(s.hypercall.category()).or_insert(0) += s.total();
        }
        map
    }

    /// Hypercalls tested per category.
    pub fn tested_per_category(&self) -> BTreeMap<Category, usize> {
        let mut per: BTreeMap<Category, BTreeSet<HypercallId>> = BTreeMap::new();
        for s in &self.suites {
            per.entry(s.hypercall.category()).or_default().insert(s.hypercall);
        }
        per.into_iter().map(|(c, set)| (c, set.len())).collect()
    }

    /// A sub-campaign containing only the suites of one Table III
    /// category (useful for focused re-runs).
    pub fn filter_category(&self, category: Category) -> CampaignSpec {
        CampaignSpec {
            name: format!("{} — {}", self.name, category.label()),
            suites: self
                .suites
                .iter()
                .filter(|s| s.hypercall.category() == category)
                .cloned()
                .collect(),
        }
    }

    /// A sub-campaign containing only the suites of one hypercall.
    pub fn filter_hypercall(&self, hypercall: HypercallId) -> CampaignSpec {
        CampaignSpec {
            name: format!("{} — {}", self.name, hypercall.name()),
            suites: self.suites.iter().filter(|s| s.hypercall == hypercall).cloned().collect(),
        }
    }

    /// Materialises every test case in campaign order.
    pub fn all_cases(&self) -> Vec<TestCase> {
        let mut out = Vec::with_capacity(self.total_tests() as usize);
        for (si, suite) in self.suites.iter().enumerate() {
            for (ci, dataset) in suite.datasets().enumerate() {
                out.push(TestCase {
                    hypercall: suite.hypercall,
                    dataset,
                    suite_index: si,
                    case_index: ci as u64,
                });
            }
        }
        out
    }
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
    fn default_suite_for_fig2_hypercall() {
        let s = TestSuite::from_dictionary(HypercallId::ResetPartition, &dict()).unwrap();
        // Fig. 2 signature: s32 × u32 × u32 → 8 × 5 × 5 = 200.
        assert_eq!(s.total(), 200);
        assert_eq!(s.matrix.len(), 3);
    }

    #[test]
    fn pointer_params_use_pointer_dictionary() {
        let s = TestSuite::from_dictionary(HypercallId::GetSystemStatus, &dict()).unwrap();
        assert_eq!(s.total(), 5);
        assert!(s.matrix[0].iter().any(|v| v.label == Some("NULL")));
    }

    #[test]
    fn parameterless_suite_has_one_case() {
        let s = TestSuite::from_dictionary(HypercallId::HaltSystem, &dict()).unwrap();
        assert_eq!(s.total(), 1);
        assert_eq!(s.datasets().next(), Some(vec![]));
    }

    #[test]
    fn with_matrix_checks_arity() {
        assert!(TestSuite::with_matrix(HypercallId::SetTimer, vec![]).is_err());
        assert!(TestSuite::with_matrix(
            HypercallId::SetTimer,
            vec![vec![TestValue::scalar(0)], vec![], vec![TestValue::scalar(1)]]
        )
        .is_err());
        let ok = TestSuite::with_matrix(
            HypercallId::SetTimer,
            vec![
                vec![TestValue::scalar(0), TestValue::scalar(1)],
                vec![TestValue::scalar(1)],
                vec![TestValue::scalar(1), TestValue::scalar(50)],
            ],
        )
        .unwrap();
        assert_eq!(ok.total(), 4);
    }

    #[test]
    fn campaign_accounting() {
        let mut c = CampaignSpec::new("demo");
        c.push(TestSuite::from_dictionary(HypercallId::ResetSystem, &dict()).unwrap()); // 5
        c.push(TestSuite::from_dictionary(HypercallId::GetSystemStatus, &dict()).unwrap()); // 5
        c.push(TestSuite::from_dictionary(HypercallId::SetTimer, &dict()).unwrap()); // 5*7*7
        assert_eq!(c.total_tests(), 5 + 5 + 245);
        assert_eq!(c.tested_hypercalls().len(), 3);
        let per = c.tests_per_category();
        assert_eq!(per[&Category::SystemManagement], 10);
        assert_eq!(per[&Category::TimeManagement], 245);
        assert_eq!(c.tested_per_category()[&Category::SystemManagement], 2);
    }

    #[test]
    fn split_suites_accumulate_per_hypercall() {
        let mut c = CampaignSpec::new("split");
        let m1 = vec![vec![TestValue::scalar(0); 3], vec![TestValue::scalar(0); 3]];
        let m2 = vec![vec![TestValue::scalar(0); 2], vec![TestValue::scalar(0); 2]];
        c.push(TestSuite::with_matrix(HypercallId::UpdatePage32, m1).unwrap().labelled("A"));
        c.push(TestSuite::with_matrix(HypercallId::UpdatePage32, m2).unwrap().labelled("B"));
        assert_eq!(c.total_tests(), 13);
        assert_eq!(c.tested_hypercalls().len(), 1);
        assert_eq!(c.tested_per_category()[&Category::MemoryManagement], 1);
    }

    #[test]
    fn category_and_hypercall_filters() {
        let mut c = CampaignSpec::new("demo");
        c.push(TestSuite::from_dictionary(HypercallId::ResetSystem, &dict()).unwrap());
        c.push(TestSuite::from_dictionary(HypercallId::GetSystemStatus, &dict()).unwrap());
        c.push(TestSuite::from_dictionary(HypercallId::SetTimer, &dict()).unwrap());
        let sys = c.filter_category(Category::SystemManagement);
        assert_eq!(sys.suites.len(), 2);
        assert!(sys.name.contains("System Management"));
        let st = c.filter_hypercall(HypercallId::SetTimer);
        assert_eq!(st.suites.len(), 1);
        assert_eq!(st.total_tests(), 245);
        assert_eq!(c.filter_category(Category::TraceManagement).total_tests(), 0);
    }

    #[test]
    fn all_cases_enumeration_and_display() {
        let mut c = CampaignSpec::new("x");
        c.push(TestSuite::from_dictionary(HypercallId::ResetSystem, &dict()).unwrap());
        let cases = c.all_cases();
        assert_eq!(cases.len(), 5);
        assert_eq!(cases[0].display_call(), "XM_reset_system(ZERO)");
        assert_eq!(cases[4].display_call(), "XM_reset_system(MAX_U32)");
        assert_eq!(cases[2].raw().to_string(), "XM_reset_system(2)");
        assert_eq!(cases[3].case_index, 3);
    }
}

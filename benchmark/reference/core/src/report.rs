//! Report generation: the Table III campaign summary, the Fig. 8
//! distribution, and issue bulletins.

use crate::exec::CampaignResult;
use crate::issues::Issue;
use crate::suite::CampaignSpec;
use std::collections::BTreeMap;
use xtratum::hypercall::{Category, ALL_HYPERCALLS};

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryRow {
    /// Hypercall category.
    pub category: Category,
    /// Total hypercalls in the category (from the API table).
    pub total_hypercalls: usize,
    /// Hypercalls exercised by the campaign.
    pub hypercalls_tested: usize,
    /// Number of tests executed.
    pub tests: u64,
    /// Raised (deduplicated) issues.
    pub raised_issues: usize,
}

/// The whole Table III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTable {
    /// Rows in paper order.
    pub rows: Vec<CategoryRow>,
}

impl CampaignTable {
    /// Totals row: (hypercalls, tested, tests, issues).
    pub fn totals(&self) -> (usize, usize, u64, usize) {
        self.rows.iter().fold((0, 0, 0, 0), |acc, r| {
            (
                acc.0 + r.total_hypercalls,
                acc.1 + r.hypercalls_tested,
                acc.2 + r.tests,
                acc.3 + r.raised_issues,
            )
        })
    }
}

/// Builds Table III from a campaign spec and its result.
pub fn campaign_table(spec: &CampaignSpec, result: &CampaignResult) -> CampaignTable {
    let mut total_per: BTreeMap<Category, usize> = BTreeMap::new();
    for d in ALL_HYPERCALLS {
        *total_per.entry(d.category).or_default() += 1;
    }
    let tested_per = spec.tested_per_category();
    let tests_per = spec.tests_per_category();
    let issues = result.issues();
    let mut issues_per: BTreeMap<Category, usize> = BTreeMap::new();
    for i in &issues {
        *issues_per.entry(i.category()).or_default() += 1;
    }
    CampaignTable {
        rows: Category::ALL
            .iter()
            .map(|&c| CategoryRow {
                category: c,
                total_hypercalls: total_per.get(&c).copied().unwrap_or(0),
                hypercalls_tested: tested_per.get(&c).copied().unwrap_or(0),
                tests: tests_per.get(&c).copied().unwrap_or(0),
                raised_issues: issues_per.get(&c).copied().unwrap_or(0),
            })
            .collect(),
    }
}

/// Renders Table III as fixed-width text matching the paper's layout.
pub fn render_table(table: &CampaignTable) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<32} {:>10} {:>10} {:>12} {:>13}\n",
        "Hypercall Category", "Total", "Tested", "No. of Tests", "Raised Issues"
    ));
    out.push_str(&"-".repeat(82));
    out.push('\n');
    for r in &table.rows {
        out.push_str(&format!(
            "{:<32} {:>10} {:>10} {:>12} {:>13}\n",
            r.category.label(),
            r.total_hypercalls,
            r.hypercalls_tested,
            r.tests,
            r.raised_issues
        ));
    }
    out.push_str(&"-".repeat(82));
    out.push('\n');
    let (t, tested, tests, issues) = table.totals();
    out.push_str(&format!(
        "{:<32} {:>10} {:>10} {:>12} {:>13}\n",
        "Total", t, tested, tests, issues
    ));
    out
}

/// The Fig. 8 campaign distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distribution {
    /// Hypercalls exercised by the campaign.
    pub tested: usize,
    /// Untested hypercalls that do take parameters.
    pub untested_with_params: usize,
    /// Untested parameter-less hypercalls.
    pub untested_parameterless: usize,
}

impl Distribution {
    /// Total hypercalls.
    pub fn total(&self) -> usize {
        self.tested + self.untested_with_params + self.untested_parameterless
    }

    /// Percentage tested (integer, as quoted in the paper: "64 per cent").
    pub fn tested_percent(&self) -> usize {
        self.tested * 100 / self.total()
    }

    /// Share of untested hypercalls that are parameter-less ("just below
    /// 50 per cent of untested calls").
    pub fn parameterless_share_of_untested_percent(&self) -> usize {
        let untested = self.untested_with_params + self.untested_parameterless;
        (self.untested_parameterless * 100).checked_div(untested).unwrap_or(0)
    }
}

/// Computes the Fig. 8 distribution for a campaign spec.
pub fn distribution(spec: &CampaignSpec) -> Distribution {
    let tested = spec.tested_hypercalls();
    let mut with_params = 0;
    let mut parameterless = 0;
    for d in ALL_HYPERCALLS {
        if tested.contains(&d.id) {
            continue;
        }
        if d.params.is_empty() {
            parameterless += 1;
        } else {
            with_params += 1;
        }
    }
    Distribution {
        tested: tested.len(),
        untested_with_params: with_params,
        untested_parameterless: parameterless,
    }
}

/// Renders the Fig. 8 distribution as text.
pub fn render_distribution(d: &Distribution) -> String {
    format!(
        "XtratuM test campaign distribution (Fig. 8)\n\
           Hypercalls tested:              {:>3}  ({} %)\n\
           Untested (with parameters):     {:>3}\n\
           Untested (no parameters):       {:>3}  ({} % of untested)\n\
           Total hypercalls:               {:>3}\n",
        d.tested,
        d.tested_percent(),
        d.untested_with_params,
        d.untested_parameterless,
        d.parameterless_share_of_untested_percent(),
        d.total()
    )
}

/// Renders Table III as GitHub-flavoured Markdown.
pub fn render_table_markdown(table: &CampaignTable) -> String {
    let mut out = String::new();
    out.push_str("| Hypercall Category | Total | Tested | No. of Tests | Raised Issues |\n");
    out.push_str("|---|--:|--:|--:|--:|\n");
    for r in &table.rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.category.label(),
            r.total_hypercalls,
            r.hypercalls_tested,
            r.tests,
            r.raised_issues
        ));
    }
    let (t, tested, tests, issues) = table.totals();
    out.push_str(&format!("| **Total** | **{t}** | **{tested}** | **{tests}** | **{issues}** |\n"));
    out
}

/// Renders the issue bulletins as Markdown.
pub fn render_issues_markdown(issues: &[Issue]) -> String {
    if issues.is_empty() {
        return "No robustness issues raised.\n".to_string();
    }
    let mut out = format!("### {} raised issue(s)\n\n", issues.len());
    for (i, issue) in issues.iter().enumerate() {
        out.push_str(&format!(
            "{}. {} *(raised by {} test{})*\n",
            i + 1,
            issue.description,
            issue.tests.len(),
            if issue.tests.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Exports every test record as CSV (one row per test), for external
/// analysis of the campaign logs.
pub fn records_to_csv(result: &CampaignResult) -> String {
    let mut out = String::from(
        "index,hypercall,category,call,expected,observed,class,cause,violated_param\n",
    );
    for (i, r) in result.records.iter().enumerate() {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            i,
            r.case.hypercall.name(),
            csv_escape(r.case.hypercall.category().label()),
            csv_escape(&r.case.display_call()),
            csv_escape(&format!("{:?}", r.expectation.outcome)),
            csv_escape(&format!("{:?}", r.observation.first())),
            r.classification.class.label(),
            csv_escape(&format!("{:?}", r.classification.cause)),
            r.expectation.violated_param.map(|p| p.to_string()).unwrap_or_default(),
        ));
    }
    out
}

/// Response-coverage of one hypercall's suites: how many distinct kernel
/// responses (return codes and no-return outcomes) the value matrix
/// elicited. "Different invalid values often elicit different system
/// responses from a given hypercall" (paper Section V) — a suite that
/// only ever sees one error code is probably under-exploring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageRow {
    /// Hypercall name.
    pub hypercall: &'static str,
    /// Tests executed.
    pub tests: u64,
    /// Distinct first-invocation outcomes observed, rendered.
    pub distinct_responses: Vec<String>,
}

/// Computes response coverage per hypercall, in campaign order.
pub fn response_coverage(result: &CampaignResult) -> Vec<CoverageRow> {
    let mut rows: Vec<CoverageRow> = Vec::new();
    for r in &result.records {
        let name = r.case.hypercall.name();
        let rendered = match r.observation.first() {
            None => "never-ran".to_string(),
            Some(crate::observe::Invocation::Returned(c)) => {
                match xtratum::retcode::XmRet::from_code(c) {
                    Some(code) => code.name().to_string(),
                    None => format!("ret {c}"),
                }
            }
            Some(crate::observe::Invocation::NoReturn(k)) => format!("{k:?}"),
        };
        match rows.iter_mut().find(|row| row.hypercall == name) {
            Some(row) => {
                row.tests += 1;
                if !row.distinct_responses.contains(&rendered) {
                    row.distinct_responses.push(rendered);
                }
            }
            None => rows.push(CoverageRow {
                hypercall: name,
                tests: 1,
                distinct_responses: vec![rendered],
            }),
        }
    }
    rows
}

/// Renders the response-coverage table.
pub fn render_coverage(rows: &[CoverageRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<30} {:>6}  {}\n", "hypercall", "tests", "distinct responses"));
    out.push_str(&"-".repeat(90));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<30} {:>6}  {}\n",
            r.hypercall,
            r.tests,
            r.distinct_responses.join(", ")
        ));
    }
    out
}

/// Difference between two issue sets (fault-removal verification: which
/// findings a fix closed, which remain, which regressed in).
#[derive(Debug, Clone, Default)]
pub struct IssueDiff {
    /// Issues present only in the baseline (closed by the candidate).
    pub closed: Vec<Issue>,
    /// Issues present in both.
    pub remaining: Vec<Issue>,
    /// Issues present only in the candidate (regressions).
    pub introduced: Vec<Issue>,
}

/// Compares a baseline issue set against a candidate's (keyed by
/// [`crate::issues::IssueKey`]).
pub fn diff_issues(baseline: &[Issue], candidate: &[Issue]) -> IssueDiff {
    let mut diff = IssueDiff::default();
    for i in baseline {
        if candidate.iter().any(|c| c.key == i.key) {
            diff.remaining.push(i.clone());
        } else {
            diff.closed.push(i.clone());
        }
    }
    for c in candidate {
        if !baseline.iter().any(|i| i.key == c.key) {
            diff.introduced.push(c.clone());
        }
    }
    diff
}

/// Renders an issue diff.
pub fn render_diff(diff: &IssueDiff) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fault-removal verification: {} closed, {} remaining, {} introduced\n",
        diff.closed.len(),
        diff.remaining.len(),
        diff.introduced.len()
    ));
    for (tag, list) in
        [("closed", &diff.closed), ("remaining", &diff.remaining), ("introduced", &diff.introduced)]
    {
        for i in list {
            out.push_str(&format!("  [{tag}] {}\n", i.description));
        }
    }
    out
}

/// Renders the issue bulletins (the Section IV findings list).
pub fn render_issues(issues: &[Issue]) -> String {
    if issues.is_empty() {
        return "No robustness issues raised.\n".to_string();
    }
    let mut out = String::new();
    out.push_str(&format!("{} raised issue(s):\n", issues.len()));
    for (i, issue) in issues.iter().enumerate() {
        out.push_str(&format!(
            "  {}. {} — raised by {} test(s)\n",
            i + 1,
            issue.description,
            issue.tests.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{Dictionary, PointerProfile};
    use crate::suite::TestSuite;
    use xtratum::hypercall::HypercallId;
    use xtratum::vuln::KernelBuild;

    fn spec() -> CampaignSpec {
        let dict = Dictionary::paper_defaults(PointerProfile {
            valid_scratch: 0x4010_8000,
            kernel_space: 0x4000_1000,
            unmapped_top: 0xFFFF_FFFC,
        });
        let mut s = CampaignSpec::new("mini");
        s.push(TestSuite::from_dictionary(HypercallId::ResetSystem, &dict).unwrap());
        s.push(TestSuite::from_dictionary(HypercallId::SetTimer, &dict).unwrap());
        s
    }

    #[test]
    fn distribution_counts() {
        let d = distribution(&spec());
        assert_eq!(d.tested, 2);
        assert_eq!(d.total(), 61);
        assert_eq!(d.untested_parameterless, 10);
        assert_eq!(d.untested_with_params, 49);
        let text = render_distribution(&d);
        assert!(text.contains("Total hypercalls:                61"), "{text}");
    }

    #[test]
    fn table_from_empty_result() {
        let result = CampaignResult {
            build: KernelBuild::Legacy,
            records: vec![],
            metrics: Default::default(),
            trace_error: None,
            flight: None,
            live_stats_error: None,
        };
        let t = campaign_table(&spec(), &result);
        assert_eq!(t.rows.len(), 11);
        let (total, tested, tests, issues) = t.totals();
        assert_eq!(total, 61);
        assert_eq!(tested, 2);
        assert_eq!(tests, 5 + 245);
        assert_eq!(issues, 0);
        let text = render_table(&t);
        assert!(text.contains("System Management"), "{text}");
        assert!(text.contains("Total"), "{text}");
    }

    #[test]
    fn render_issues_empty() {
        assert!(render_issues(&[]).contains("No robustness issues"));
        assert!(render_issues_markdown(&[]).contains("No robustness issues"));
    }

    #[test]
    fn markdown_table_has_all_rows_and_totals() {
        let result = CampaignResult {
            build: KernelBuild::Legacy,
            records: vec![],
            metrics: Default::default(),
            trace_error: None,
            flight: None,
            live_stats_error: None,
        };
        let md = render_table_markdown(&campaign_table(&spec(), &result));
        assert_eq!(md.lines().count(), 2 + 11 + 1); // header + sep + rows + totals
        assert!(md.contains("| System Management | 3 | 1 | 5 | 0 |"), "{md}");
        assert!(md.contains("| **Total** | **61** |"), "{md}");
    }

    #[test]
    fn csv_export_shape() {
        let result = CampaignResult {
            build: KernelBuild::Legacy,
            records: vec![],
            metrics: Default::default(),
            trace_error: None,
            flight: None,
            live_stats_error: None,
        };
        let csv = records_to_csv(&result);
        assert!(csv.starts_with("index,hypercall,category,call,"));
        assert_eq!(csv.lines().count(), 1);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(super::csv_escape("plain"), "plain");
        assert_eq!(super::csv_escape("a,b"), "\"a,b\"");
        assert_eq!(super::csv_escape("q\"q"), "\"q\"\"q\"");
    }
}

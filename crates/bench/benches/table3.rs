//! Regenerates **Table III** (the 2662-test campaign against the legacy
//! kernel) and times the full campaign end-to-end.

use skrt_bench::Bench;
use std::hint::black_box;
use xm_campaign::run_paper_campaign;
use xtratum::vuln::KernelBuild;

fn main() {
    let report = run_paper_campaign(KernelBuild::Legacy, 0);
    println!("\n===== TABLE III (regenerated) =====\n{}", report.render());
    println!("{}", report.metrics().render());

    let mut b = Bench::new("table3");
    b.measure("full_legacy_campaign", || {
        black_box(run_paper_campaign(KernelBuild::Legacy, 0).issues.len())
    });
    b.finish();
}

//! Golden pins of `campaign check`'s outputs on the legacy build: the
//! console report above its `## Run metrics` heading and every file of
//! the `finding-NNN/` directories an `--out` bundle writes. The
//! determinism suites only compare thread counts with each other, so
//! these pins are what hold a change every thread count shares.

use skrt::check::{run_check, CheckOptions, CheckScope};
use testkit::fnv1a;
use xm_campaign::{render_check_report, write_check_bundle};
use xtratum::vuln::KernelBuild;

/// `(report pin, findings, finding-file pin)` of one recorded 2-thread
/// legacy run over `scope`.
fn pins(scope: CheckScope, tag: &str) -> (u64, usize, u64) {
    let opts = CheckOptions {
        build: KernelBuild::Legacy,
        scope,
        threads: 2,
        record: true,
        ..Default::default()
    };
    let res = run_check(&opts);
    let report = render_check_report(&res);
    let head = report.split("## Run metrics").next().expect("split yields a head");

    let dir = std::env::temp_dir().join(format!("skrt-check-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = write_check_bundle(&dir, "check-legacy", &res).expect("bundle writes");
    let mut surface = Vec::new();
    for n in 0..summary.findings {
        for file in ["report.md", "repro.seq", "trace.json"] {
            let path = dir.join(format!("finding-{n:03}/{file}"));
            surface.extend(std::fs::read(&path).unwrap_or_else(|e| panic!("{path:?}: {e}")));
        }
        let entries = std::fs::read_dir(dir.join(format!("finding-{n:03}"))).unwrap().count();
        assert_eq!(entries, 3, "finding-{n:03} holds a file the pin does not cover");
    }
    let _ = std::fs::remove_dir_all(&dir);
    (fnv1a(head.as_bytes()), summary.findings, fnv1a(&surface))
}

#[test]
fn legacy_default_scope_check_is_pinned() {
    let got = pins(CheckScope::default(), "default");
    assert_eq!(got, (0x3d71_8a95_28b9_b660, 160, 0x9a1c_7201_e000_afd4), "{got:#x?}");
}

#[test]
fn legacy_four_partition_check_is_pinned() {
    let got = pins(CheckScope { partitions: 4, ..Default::default() }, "p4");
    assert_eq!(got, (0xe9d0_5b91_7870_51d3, 280, 0x7710_3656_cdb8_2d6f), "{got:#x?}");
}

//! The CLI treats its own flags as hostile input: a numeric flag whose
//! value is missing or does not parse is a usage error (exit 2, message
//! on stderr), never a silent fallback to the default.

use std::process::Command;

fn skrt(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_skrt-repro")).args(args).output().expect("run skrt-repro")
}

#[test]
fn malformed_numeric_flags_exit_2_before_running() {
    for (args, flag) in [
        (&["campaign", "--threads", "abc"][..], "--threads"),
        (&["campaign", "sweep", "--build", "patched", "--threads", "-1"], "--threads"),
        (&["campaign", "sequences", "--seed", "x"], "--seed"),
        (&["campaign", "sequences", "--count", "1e3"], "--count"),
        (&["campaign", "fuzz", "--execs", "y"], "--execs"),
        (&["campaign", "fuzz", "--batch"], "--batch"),
        (&["campaign", "check", "--horizon", "many"], "--horizon"),
        (&["campaign", "report", "--steps", "eight"], "--steps"),
        (&["triage", "XM_set_timer", "2", "--last", "all"], "--last"),
    ] {
        let out = skrt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
    }
}

/// A case count the parallel executor cannot index (more than
/// `u32::MAX`) is rejected while parsing, before any case or spec is
/// built, not by an executor assert (exit 101) after building them all.
#[test]
fn case_counts_beyond_u32_exit_2_before_running() {
    let too_many = (u64::from(u32::MAX) + 1).to_string();
    for (args, flag) in [
        (&["campaign", "sweep", "--tests", too_many.as_str()][..], "--tests"),
        (&["campaign", "sequences", "--count", too_many.as_str()], "--count"),
        (&["campaign", "report", "--count", too_many.as_str()], "--count"),
    ] {
        let out = skrt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
    }
}

#[test]
fn live_stats_is_rejected_where_no_mode_streams_it() {
    let out = skrt(&["campaign", "check", "--live-stats", "live.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--live-stats"));
}

#[test]
fn usage_lists_no_removed_engine_switches() {
    let out = skrt(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("campaign sweep"), "usage text printed");
    for gone in ["memo", "--no-snapshot", "--chunk"] {
        assert!(!usage.contains(gone), "usage still offers {gone}");
    }
    let out = skrt(&["no-such-command"]);
    assert_eq!(out.status.code(), Some(2), "an unknown command is a usage error");
}

/// A replay file is hostile input too: a step with more argument words
/// than the register file holds is a line-numbered error (exit 2), not
/// a panic (exit 101).
#[test]
fn oversized_replay_step_exits_2_not_panic() {
    let path = std::env::temp_dir().join(format!("skrt_cli_replay_{}.seq", std::process::id()));
    std::fs::write(&path, "# replay\nXM_get_time 1 2 3 4 5 6 7 8\n").expect("write replay file");
    let out = skrt(&["campaign", "fuzz", "--replay", path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).expect("remove replay file");
    assert_eq!(out.status.code(), Some(2), "an oversized step must be a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2: at most 6 arguments, got 8"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

/// A duration that parses as a float but does not fit a `Duration`
/// (`inf`, `1e300`) or is no number at all (`nan`) is a usage error, not
/// a panic (exit 101).
#[test]
fn unrepresentable_durations_exit_2_not_panic() {
    let sink = std::env::temp_dir().join(format!("skrt_cli_live_{}.jsonl", std::process::id()));
    let sink = sink.to_str().expect("utf-8 temp path");
    for value in ["inf", "1e300", "nan"] {
        for (args, flag) in [
            (vec!["campaign", "--live-stats", sink, "--live-interval", value], "--live-interval"),
            (
                vec!["campaign", "fuzz", "--live-stats", sink, "--live-interval", value],
                "--live-interval",
            ),
            (vec!["campaign", "fuzz", "--time", value], "--time"),
        ] {
            let out = skrt(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
        }
    }
    assert!(!std::path::Path::new(sink).exists(), "no run may start");
}

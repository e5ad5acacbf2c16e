//! The CLI treats its own flags as hostile input: a numeric flag whose
//! value is missing or does not parse, or a flag the command does not
//! read, is a usage error (exit 2, message on stderr), never a silent
//! fallback to the default.

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

/// Sizing flags past their stated bound are rejected while parsing:
/// `campaign fuzz --steps` above the mutator's 16-step cap (which would
/// clamp it silently), and `--steps` (sequences, report) and `--horizon`
/// (check) above the bounds that keep their exact-size allocations
/// small. Only values just past each bound are tried; each run must
/// fail before building anything.
#[test]
fn sizing_flags_past_their_bound_exit_2_before_running() {
    for (args, flag) in [
        (&["campaign", "fuzz", "--steps", "17", "--execs", "1"][..], "--steps"),
        (&["campaign", "fuzz", "--steps", "40", "--execs", "64", "--batch", "64"], "--steps"),
        (&["campaign", "sequences", "--steps", "4097", "--count", "1"], "--steps"),
        (&["campaign", "report", "--steps", "4097", "--count", "1"], "--steps"),
        (&["campaign", "check", "--horizon", "1025"], "--horizon"),
    ] {
        let out = skrt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
    }
    // The bounds themselves still run.
    let fuzz = skrt(&["campaign", "fuzz", "--steps", "16", "--execs", "4", "--threads", "1"]);
    assert!(matches!(fuzz.status.code(), Some(0 | 1)), "fuzz --steps 16 runs");
    let check = skrt(&[
        "campaign",
        "check",
        "--build",
        "patched",
        "--partitions",
        "1",
        "--slots",
        "1",
        "--horizon",
        "1024",
        "--threads",
        "1",
    ]);
    assert_eq!(check.status.code(), Some(0), "check --horizon 1024 runs");
}

/// `--metrics` prints each run counter line once: `campaign check`'s
/// report already carries them in its `## Run metrics` block, so the
/// flag adds no second copy there.
#[test]
fn metrics_print_each_counter_line_once() {
    for args in [
        &["campaign", "check", "--metrics"][..],
        &["campaign", "check", "--build", "patched", "--metrics"],
        &["campaign", "sequences", "--count", "20", "--metrics"],
    ] {
        let out = skrt(args);
        assert!(matches!(out.status.code(), Some(0 | 1)), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // A run with nothing to shrink prints no `shrink:` line.
        for (counter, at_least) in [
            ("campaign metrics:", 1),
            ("  arena:", 1),
            ("  test prologue:", 1),
            ("  shrink:", 0),
            ("  classes:", 1),
        ] {
            let n = stdout.lines().filter(|l| l.starts_with(counter)).count();
            assert!((at_least..=1).contains(&n), "{args:?}: {counter:?} printed {n} times");
        }
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

/// A string flag given without a value — last on the line, or followed
/// by another flag — is a usage error naming the flag, never a silent
/// default or a file named after the next flag.
#[test]
fn string_flags_missing_their_value_exit_2_before_running() {
    let dir = std::env::temp_dir().join(format!("skrt_cli_missing_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (args, flag) in [
        (&["campaign", "fuzz", "--execs", "10", "--replay"][..], "--replay"),
        (&["campaign", "check", "--out"], "--out"),
        (&["campaign", "sequences", "--count", "5", "--record", "--metrics"], "--record"),
        (&["campaign", "--build"], "--build"),
        (&["campaign", "fuzz", "--execs", "10", "--time"], "--time"),
        (&["campaign", "--live-stats", "live.jsonl", "--live-interval"], "--live-interval"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run skrt-repro");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("list scratch dir").collect();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(written.is_empty(), "no file may be written, got {written:?}");
}

/// An empty value is a usage error naming the flag, never the working
/// directory or a file with no name: `--corpus-dir ""` used to write the
/// fuzz corpus into the directory the command ran in.
#[test]
fn empty_flag_values_exit_2_before_running() {
    let dir = std::env::temp_dir().join(format!("skrt_cli_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (args, flag) in [
        (
            &["campaign", "fuzz", "--execs", "8", "--batch", "4", "--corpus-dir", ""][..],
            "--corpus-dir",
        ),
        (&["campaign", "fuzz", "--execs", "8", "--batch", "4", "--stats", ""], "--stats"),
        (&["campaign", "fuzz", "--replay", ""], "--replay"),
        (&["campaign", "check", "--partitions", "1", "--out", ""], "--out"),
        (&["campaign", "report", "--count", "2", "--out", ""], "--out"),
        (&["campaign", "sweep", "--tests", "4", "--trace", ""], "--trace"),
        (&["campaign", "sequences", "--count", "2", "--record", ""], "--record"),
        (&["campaign", "sequences", "--count", "2", "--metrics-out", ""], "--metrics-out"),
        (&["campaign", "--live-stats", ""], "--live-stats"),
        (&["campaign", "--build", ""], "--build"),
        (&["triage", "XM_set_timer", "2", "--record", ""], "--record"),
        (&["specgen", "--out", ""], "--out"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run skrt-repro");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("list scratch dir").collect();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(written.is_empty(), "no file may be written, got {written:?}");
}

/// A flag the command does not read — a typo, or a flag of another
/// mode — is a usage error naming it, never silently ignored (which
/// would run the command with the default the flag meant to override).
/// One case per command; `campaign check --partition 4` used to run the
/// 3-partition scope.
#[test]
fn flags_a_command_does_not_read_exit_2_before_running() {
    let dir = std::env::temp_dir().join(format!("skrt_cli_unread_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (args, flag) in [
        (&["campaign", "--formt", "md"][..], "--formt"),
        (&["campaign", "sweep", "--test", "10"], "--test"),
        (&["campaign", "sequences", "--step", "3"], "--step"),
        (&["campaign", "fuzz", "--partitions", "9"], "--partitions"),
        (&["campaign", "check", "--partition", "4"], "--partition"),
        (&["campaign", "report", "--seeds", "2"], "--seeds"),
        (&["sweep", "--threads", "2"], "--threads"),
        (&["suite", "XM_set_timer", "--bulid", "patched"], "--bulid"),
        (&["mutant", "XM_set_timer", "0", "--build", "legacy"], "--build"),
        (&["triage", "XM_set_timer", "2", "--lats", "5"], "--lats"),
        (&["specgen", "--output", "specs"], "--output"),
        (&["coverage", "--metrics"], "--metrics"),
        (&["tables", "--csv", "t.csv"], "--csv"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run skrt-repro");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("list scratch dir").collect();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(written.is_empty(), "no file may be written, got {written:?}");
}

/// `campaign fuzz --replay` reads only `--build`: a search flag next to
/// it is a usage error naming the first such flag, not a replay that
/// silently writes neither the corpus nor the stats it was asked for.
#[test]
fn replay_rejects_the_search_flags_it_ignores() {
    let dir = std::env::temp_dir().join(format!("skrt_cli_replay_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("r.seq"), "XM_get_time 0 1074790400\n").expect("write replay");
    for (args, flag) in [
        (
            &[
                "campaign",
                "fuzz",
                "--replay",
                "r.seq",
                "--corpus-dir",
                "d",
                "--stats",
                "s.jsonl",
                "--execs",
                "5",
                "--seed",
                "9",
            ][..],
            "--corpus-dir",
        ),
        (&["campaign", "fuzz", "--threads", "2", "--replay", "r.seq"], "--threads"),
        (
            &["campaign", "fuzz", "--replay", "r.seq", "--build", "patched", "--metrics"],
            "--metrics",
        ),
        (&["campaign", "fuzz", "--replay", "r.seq", "--record", "t.json"], "--record"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run skrt-repro");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before replaying");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
        .args(["campaign", "fuzz", "--build", "patched", "--replay", "r.seq"])
        .current_dir(&dir)
        .output()
        .expect("run skrt-repro");
    assert_eq!(out.status.code(), Some(0), "--build is the flag replay reads");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("list scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert_eq!(written, ["r.seq"], "no file may be written");
}

/// Valid command lines for every subcommand, small enough to run in
/// milliseconds: `--threads` at most 2, tiny counts. Positional operands
/// follow the command words; every `--flag` is followed by its value
/// unless it is one of `SWITCHES`.
const VALID_ARGV: &[&[&str]] = &[
    &[
        "campaign",
        "--threads",
        "2",
        "--build",
        "patched",
        "--format",
        "md",
        "--trace",
        "t.jsonl",
        "--csv",
        "r.csv",
        "--metrics",
        "--metrics-out",
        "m.prom",
        "--live-stats",
        "live.jsonl",
        "--live-interval",
        "0.5",
    ],
    &["campaign", "sweep", "--tests", "3", "--threads", "2", "--record", "r.json"],
    &[
        "campaign",
        "sequences",
        "--seed",
        "5",
        "--count",
        "2",
        "--steps",
        "2",
        "--threads",
        "2",
        "--no-shrink",
        "--metrics",
    ],
    &[
        "campaign",
        "fuzz",
        "--seed",
        "3",
        "--execs",
        "8",
        "--batch",
        "4",
        "--steps",
        "2",
        "--threads",
        "2",
        "--time",
        "5",
        "--stats",
        "s.jsonl",
        "--corpus-dir",
        "corpus",
    ],
    &["campaign", "fuzz", "--replay", "repro.seq", "--build", "patched"],
    &[
        "campaign",
        "check",
        "--partitions",
        "1",
        "--slots",
        "1",
        "--horizon",
        "1",
        "--threads",
        "2",
        "--out",
        "bundle",
    ],
    &[
        "campaign",
        "report",
        "--count",
        "2",
        "--steps",
        "2",
        "--seed",
        "1",
        "--threads",
        "1",
        "--out",
        "forensics",
    ],
    &["sweep", "--build", "patched"],
    &["suite", "XM_set_timer", "--build", "legacy"],
    &["mutant", "XM_set_timer", "0"],
    &["triage", "XM_set_timer", "2", "--last", "5", "--build", "legacy"],
    &["specgen", "--out", "specs"],
    &["coverage", "--build", "patched"],
    &["tables"],
];

/// Flags that take no value.
const SWITCHES: &[&str] = &["--metrics", "--no-shrink"];

/// Words that name a command rather than an operand.
const COMMAND_WORDS: &[&str] = &["campaign", "sweep", "sequences", "fuzz", "check", "report"];

/// One seeded hostile edit of `argv`: a flag's or operand's value
/// dropped, emptied, replaced by a non-number, by a number past `u64`,
/// or by a negative one; a flag repeated; or an unknown flag inserted.
/// None of them introduces a number that parses, so whatever still runs
/// keeps the valid line's thread count and tiny counts.
fn mutate(argv: &mut Vec<String>, rng: &mut skrt::sequence::SeqRng) {
    const NON_NUMBERS: &[&str] = &["abc", "1e3", "", "0x10", " 7", "7 ", "+-1", "NaN", "inf", "½"];
    const PAST_U64: &[&str] = &["18446744073709551616", "340282366920938463463374607431768211456"];
    const NEGATIVE: &[&str] = &["-1", "-0", "-18446744073709551616"];
    const UNKNOWN: &[&str] = &["--bogus", "--thread", "--threads=2", "--", "--THREADS", "---x"];
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    // Values: operands after the command words, and every flag's value.
    let values: Vec<usize> = (1..argv.len())
        .filter(|&i| {
            let prev = argv[i - 1].as_str();
            let operand = !argv[..i].iter().any(|a| a.starts_with("--"))
                && !COMMAND_WORDS.contains(&argv[i].as_str());
            !argv[i].starts_with("--")
                && (operand || (prev.starts_with("--") && !SWITCHES.contains(&prev)))
        })
        .collect();
    let flags: Vec<usize> = (0..argv.len()).filter(|&i| argv[i].starts_with("--")).collect();
    match pick(7) {
        0 if !values.is_empty() => {
            argv.remove(values[pick(values.len())]);
        }
        6 if !values.is_empty() => argv[values[pick(values.len())]].clear(),
        1 if !values.is_empty() => argv[values[pick(values.len())]] = NON_NUMBERS[pick(10)].into(),
        2 if !values.is_empty() => argv[values[pick(values.len())]] = PAST_U64[pick(2)].into(),
        3 if !values.is_empty() => argv[values[pick(values.len())]] = NEGATIVE[pick(3)].into(),
        4 if !flags.is_empty() => {
            let at = flags[pick(flags.len())];
            let takes_value = !SWITCHES.contains(&argv[at].as_str());
            let end = (at + usize::from(takes_value)).min(argv.len() - 1);
            let repeated: Vec<String> = argv[at..=end].to_vec();
            argv.extend(repeated);
        }
        _ => {
            let at = pick(argv.len() + 1);
            argv.insert(at, UNKNOWN[pick(UNKNOWN.len())].into());
        }
    }
}

/// Seeded hostile command lines for every subcommand — valid lines with
/// missing or empty values, non-numbers, numbers past `u64`, negative numbers,
/// repeated flags and unknown flags — run one after another: each exits
/// 0, 1 or 2, never 101 (a panic) or on a signal. No edit introduces a
/// number, so a line that still parses runs with at most 2 threads and
/// tiny counts (checked below). The binary is the one this test profile
/// builds: under `cargo test` a dev build, whose overflow checks turn a
/// silent wrap into a panic this test catches.
#[test]
fn hostile_argv_never_panics() {
    let dir = std::env::temp_dir().join(format!("skrt_cli_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("repro.seq"), "XM_get_time 0 1074790400\n").expect("write replay");
    let mut rng = skrt::sequence::SeqRng::new(0xA26F);
    let (mut ran, mut rejected) = (0, 0);
    for valid in VALID_ARGV {
        for case in 0..16 {
            let mut argv: Vec<String> = valid.iter().map(|a| a.to_string()).collect();
            for _ in 0..1 + case % 3 {
                mutate(&mut argv, &mut rng);
            }
            for token in &argv {
                assert!(
                    token.parse::<u64>().is_err() || valid.contains(&token.as_str()),
                    "{argv:?}: the edits introduced the number {token}"
                );
            }
            let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
                .args(&argv)
                .current_dir(&dir)
                .output()
                .expect("run skrt-repro");
            let stderr = String::from_utf8_lossy(&out.stderr);
            match out.status.code() {
                Some(0 | 1) => ran += 1,
                Some(2) => rejected += 1,
                code => panic!("{argv:?} exited {code:?}:\n{stderr}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(ran > 10 && rejected > 100, "{ran} lines ran, {rejected} were rejected");
}

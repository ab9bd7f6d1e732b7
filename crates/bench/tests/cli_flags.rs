//! Flag validation of the sweep binaries: degenerate worker/batch settings
//! must die with a readable usage error, not a panic inside the dispatch
//! loop.

use pm_bench::flags::{take_timeline_params, Args, CliError};
use pm_bench::EvalOptions;
use std::ffi::OsStr;
use std::process::Command;

fn scale_sweep(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scale_sweep"))
        .args(args)
        .output()
        .expect("scale_sweep spawns")
}

#[test]
fn scale_sweep_rejects_zero_jobs_and_batch() {
    for flag in ["--jobs", "--batch"] {
        let out = scale_sweep(&[flag, "0"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} 0 must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8(out.stderr).expect("usage error is UTF-8");
        assert!(
            stderr.contains(flag) && stderr.contains("positive"),
            "{flag} 0 must name the flag in a usage message, got: {stderr}"
        );
    }
}

#[test]
fn scale_sweep_rejects_non_numeric_jobs_and_batch() {
    for flag in ["--jobs", "--batch", "--max-scenarios"] {
        let out = scale_sweep(&[flag, "many"]);
        assert_eq!(out.status.code(), Some(2), "{flag} many must exit 2");
        let stderr = String::from_utf8(out.stderr).expect("usage error is UTF-8");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

/// Spawns bench binary `bin` (any binary of this package) with `args`
/// in `dir`, so artifacts a run writes stay out of the source tree.
fn spawn_in(dir: &std::path::Path, bin: &str, args: &[&OsStr]) -> std::process::Output {
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_scale_sweep")).with_file_name(bin);
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{bin} spawns: {e}"))
}

fn spawn(bin: &str, args: &[&str]) -> std::process::Output {
    let args: Vec<&OsStr> = args.iter().map(OsStr::new).collect();
    spawn_in(&std::env::temp_dir(), bin, &args)
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pm_cli_flags_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The usage message a flag group gives for `args`: the message pmctl
/// returns for the same flags, since pmctl parses them with the same
/// function (pinned on the pmctl side by its own tests).
fn group_message(group: fn(&mut Args) -> Result<(), CliError>, args: &[&str]) -> String {
    let mut args = Args::new(args.iter().map(Into::into).collect());
    group(&mut args).expect_err("bad flags").message
}

fn usage_error(out: &std::process::Output) -> String {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr.clone()).expect("usage error is UTF-8");
    assert!(stderr.is_ascii(), "{stderr}");
    stderr.trim_end().to_string()
}

#[test]
fn loadgen_rejects_unpaceable_rates_and_a_horizon_that_kills_every_controller() {
    for rate in ["1e-30", "-1", "nan", "inf"] {
        let stderr = usage_error(&spawn("loadgen", &["--rate", rate]));
        assert!(stderr.contains("--rate"), "--rate {rate}: {stderr}");
    }
    // The self-hosted ATT store has six controllers: f = 6 fails them all.
    let stderr = usage_error(&spawn("loadgen", &["--horizon", "6"]));
    assert!(stderr.contains("--horizon"), "{stderr}");
    for flag in ["--jobs", "--workers", "--threads", "--horizon"] {
        let stderr = usage_error(&spawn("loadgen", &[flag, "0"]));
        assert!(stderr.contains(flag), "{flag} 0: {stderr}");
    }
}

#[test]
fn timeline_sweep_rejects_bad_timeline_params_like_pmctl() {
    for args in [
        &["--horizon-ms", "nan"][..],
        &["--horizon-ms", "-1"][..],
        &["--mean-gap-ms", "0"][..],
        &["--max-failed", "0"][..],
    ] {
        let stderr = usage_error(&spawn("timeline_sweep", args));
        let expected = group_message(|a| take_timeline_params(a).map(drop), args);
        assert_eq!(stderr, expected, "{args:?}");
    }
}

#[test]
fn scale_sweep_batch_zero_reads_as_pmctl_sweep_does() {
    let stderr = usage_error(&scale_sweep(&["--batch", "0"]));
    let expected = group_message(
        |a| EvalOptions::take_dispatch(a).map(drop),
        &["--batch", "0"],
    );
    assert_eq!(stderr, expected);
}

#[cfg(unix)]
#[test]
fn scale_sweep_takes_non_utf8_paths_and_rejects_non_utf8_numbers() {
    use std::os::unix::ffi::OsStrExt;
    let dir = scratch_dir("non_utf8");
    let metrics = OsStr::from_bytes(b"m\xFF.json");
    let small = [
        "--nodes",
        "40",
        "--controllers",
        "4",
        "--failures",
        "1",
        "--flows",
        "16",
        "--jobs",
        "1",
        "--csv",
        ".",
    ];
    let mut args: Vec<&OsStr> = small.iter().map(OsStr::new).collect();
    args.extend([OsStr::new("--metrics"), metrics]);
    let out = spawn_in(&dir, "scale_sweep", &args);
    assert!(out.status.success(), "{out:?}");
    assert!(
        dir.join(metrics).exists(),
        "metrics file at the non-UTF-8 path"
    );
    let out = spawn_in(
        &dir,
        "scale_sweep",
        &[OsStr::new("--jobs"), OsStr::from_bytes(b"4\xFF")],
    );
    assert!(usage_error(&out).contains("--jobs"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_bin_answers_help_and_rejects_unknown_flags() {
    // Every source file under src/bin is a binary; a new one that
    // hand-writes its own parser fails here.
    let bins =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin")).expect("src/bin lists");
    let mut seen = 0;
    for entry in bins {
        let path = entry.expect("dir entry").path();
        let bin = path.file_stem().and_then(OsStr::to_str).expect("bin name");
        let out = spawn(bin, &["--help"]);
        assert!(out.status.success(), "{bin} --help: {out:?}");
        assert!(!out.stdout.is_empty(), "{bin} --help prints nothing");
        let stderr = usage_error(&spawn(bin, &["--bogus"]));
        assert!(stderr.contains("--bogus"), "{bin}: {stderr}");
        seen += 1;
    }
    // loadgen, flight_fixture, scale_sweep, timeline_sweep; the paper
    // outputs are `pmctl repro` entries (crates/cli/tests/cli_flags.rs).
    assert_eq!(seen, 4, "{seen} binaries found");
}

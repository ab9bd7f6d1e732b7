//! Flag validation of the bench binaries: every binary answers `--help`
//! and rejects an unknown flag, and a bad value dies with a readable
//! usage error, not a panic.

use std::ffi::OsStr;
use std::process::Command;

/// Spawns bench binary `bin` (any binary of this package) with `args`
/// in the temp directory, so artifacts a run writes stay out of the
/// source tree.
fn spawn(bin: &str, args: &[&str]) -> std::process::Output {
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_loadgen")).with_file_name(bin);
    Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .unwrap_or_else(|e| panic!("{bin} spawns: {e}"))
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
    // loadgen and flight_fixture; the paper outputs and the sweeps are
    // pmctl commands (crates/cli/tests/cli_flags.rs).
    assert_eq!(seen, 2, "{seen} binaries found");
}

//! Flag validation of pmctl: every `pmctl repro` paper output takes the
//! evaluation and telemetry groups and nothing else, no command accepts a
//! flag it then ignores, and a bad flag exits 2 with a message naming it.

use std::ffi::{OsStr, OsString};
use std::path::Path;
use std::process::{Command, Output};

/// Every output `pmctl repro` regenerates.
const OUTPUTS: [&str; 8] = [
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "capacity_sweep",
    "reroute_drill",
    "successive_drill",
];

fn pmctl<S: AsRef<OsStr>>(dir: &Path, args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmctl"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("pmctl spawns")
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pmctl_cli_flags_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn every_repro_output_rejects_unknown_flags() {
    let dir = std::env::temp_dir();
    for name in OUTPUTS {
        let out = pmctl(&dir, &["repro", name, "--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("usage error is UTF-8");
        assert!(stderr.contains("--bogus"), "{name}: {stderr}");
    }
}

#[test]
fn repro_rejects_a_sweep_flag_its_output_ignores() {
    let sweep_flags: [&[&str]; 3] = [
        &["--shard", "1/2"],
        &["--opt-secs", "5"],
        &["--skip-optimal"],
    ];
    for name in [
        "table3",
        "capacity_sweep",
        "reroute_drill",
        "successive_drill",
    ] {
        for flag in sweep_flags {
            let mut args = vec!["repro", name, "--jobs", "1"];
            args.extend(flag);
            let argv: Vec<OsString> = args.iter().map(OsString::from).collect();
            let e = pm_cli::run(&argv, &mut Vec::new()).expect_err("usage error");
            assert_eq!(e.code, 2, "{args:?}: {}", e.message);
            assert!(e.message.contains(flag[0]), "{args:?}: {}", e.message);
        }
    }
    // The reported invocation, spawned: exit 2 naming a flag it ignores.
    let out = pmctl(
        &std::env::temp_dir(),
        &["repro", "table3", "--opt-secs", "5", "--shard", "1/2"],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("usage error is UTF-8");
    assert!(stderr.contains("--shard"), "{stderr}");
    // The failure sweeps read all three.
    let argv: Vec<OsString> = [
        "repro",
        "fig4",
        "--skip-optimal",
        "--opt-secs",
        "1",
        "--shard",
        "1/2",
        "--jobs",
        "1",
    ]
    .iter()
    .map(OsString::from)
    .collect();
    let mut out = Vec::new();
    pm_cli::run(&argv, &mut out).expect("fig4 takes every sweep flag");
    assert!(!out.is_empty());
}

#[test]
fn repro_rejects_every_evaluation_flag_its_output_ignores() {
    let flags: [&[&str]; 8] = [
        &["--opt-secs", "5"],
        &["--skip-optimal"],
        &["--csv", "d"],
        &["--jobs", "1"],
        &["--shard", "1/2"],
        &["--max-scenarios", "3"],
        &["--seed", "9"],
        &["--batch", "2"],
    ];
    // What each non-sweep output's body reads; Figs. 4-7 read them all.
    for (name, reads) in [
        ("table3", &["--csv"][..]),
        ("capacity_sweep", &["--jobs"]),
        ("reroute_drill", &[]),
        ("successive_drill", &["--jobs"]),
    ] {
        for flag in flags.iter().filter(|f| !reads.contains(&f[0])) {
            let mut args = vec!["repro", name];
            args.extend(*flag);
            let argv: Vec<OsString> = args.iter().map(OsString::from).collect();
            let e = pm_cli::run(&argv, &mut Vec::new()).expect_err("usage error");
            assert_eq!(e.code, 2, "{args:?}: {}", e.message);
            assert!(e.message.contains(flag[0]), "{args:?}: {}", e.message);
        }
    }
    // The reported invocations, spawned: exit 2 naming every ignored flag.
    let dir = scratch_dir("ignored");
    for (args, named) in [
        (
            &["repro", "capacity_sweep", "--csv", "D"][..],
            &["--csv"][..],
        ),
        (
            &[
                "repro",
                "table3",
                "--max-scenarios",
                "3",
                "--seed",
                "9",
                "--batch",
                "2",
            ],
            &["--max-scenarios", "--seed", "--batch"],
        ),
    ] {
        let out = pmctl(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("usage error is UTF-8");
        for flag in named {
            assert!(stderr.contains(flag), "{args:?}: {stderr}");
        }
    }
    assert!(!dir.join("D").exists(), "a rejected --csv writes nothing");
    // A flag the output reads takes effect.
    let argv: Vec<OsString> = vec![
        "repro".into(),
        "table3".into(),
        "--csv".into(),
        dir.clone().into(),
    ];
    pm_cli::run(&argv, &mut Vec::new()).expect("table3 reads --csv");
    assert!(dir.join("table3.csv").exists());
    // The usage says which output reads which flag.
    let mut usage = Vec::new();
    pm_cli::run(&["repro".into(), "help".into()], &mut usage).expect("help");
    let usage = String::from_utf8(usage).expect("UTF-8 usage");
    for line in [
        "table3             --csv",
        "fig4               all",
        "reroute_drill      none",
    ] {
        assert!(
            usage.lines().any(|l| l.trim_end() == format!("  {line}")),
            "{usage}"
        );
    }
}

#[test]
fn an_unknown_or_missing_output_lists_every_name() {
    for args in [&["repro", "fig8"][..], &["repro"][..]] {
        let argv: Vec<OsString> = args.iter().map(OsString::from).collect();
        let e = pm_cli::run(&argv, &mut Vec::new()).expect_err("usage error");
        assert_eq!(e.code, 2, "{args:?}: {}", e.message);
        for name in OUTPUTS {
            assert!(
                e.message.contains(name),
                "{args:?} lacks {name}: {}",
                e.message
            );
        }
    }
}

#[test]
fn no_command_ignores_a_flag_it_accepts() {
    // Each flag is one the command or its network source does not honour:
    // rejected by name, never accepted and dropped.
    for (args, flag) in [
        (
            &["simulate", "--timelines", "2", "--opt-secs", "3"][..],
            "--opt-secs",
        ),
        (&["topology", "--controllers", "4"][..], "--controllers"),
        (
            &["sweep", "--nodes", "40", "--capacity", "5"][..],
            "--capacity",
        ),
        (&["sweep", "--graphml", "F", "--flows", "8"][..], "--flows"),
    ] {
        let argv: Vec<OsString> = args.iter().map(OsString::from).collect();
        let e = pm_cli::run(&argv, &mut Vec::new()).expect_err("usage error");
        assert_eq!(e.code, 2, "{args:?}: {}", e.message);
        assert!(e.message.contains(flag), "{args:?}: {}", e.message);
    }
}

#[cfg(unix)]
#[test]
fn scale_sweep_takes_non_utf8_paths_and_rejects_non_utf8_numbers() {
    use std::os::unix::ffi::OsStrExt;
    let dir = scratch_dir("non_utf8");
    let telemetry = OsStr::from_bytes(b"t\xFF");
    let small = [
        "sweep",
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
    args.extend([OsStr::new("--telemetry"), telemetry]);
    let out = pmctl(&dir, &args);
    assert!(out.status.success(), "{out:?}");
    assert!(
        dir.join(telemetry).join("metrics.json").exists(),
        "metrics file under the non-UTF-8 directory"
    );
    assert!(dir.join("scale_cases.csv").exists(), "{out:?}");
    let out = pmctl(
        &dir,
        &[
            OsStr::new("sweep"),
            OsStr::new("--jobs"),
            OsStr::from_bytes(b"4\xFF"),
        ],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("usage error is UTF-8");
    assert!(stderr.is_ascii() && stderr.contains("--jobs"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

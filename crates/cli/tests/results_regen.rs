//! Regenerates the committed paper outputs under `results/` through
//! `pmctl repro` and compares them with the files:
//!
//! * `table3`, `capacity_sweep`, `reroute_drill` and `successive_drill`
//!   are fully deterministic — their output must equal
//!   `results/<name>.txt` byte for byte, and at every `--jobs` value
//!   where the output runs a worker pool;
//! * `fig4`–`fig6` depend on the wall clock only through Optimal, so they
//!   run with `--skip-optimal`, and every panel's case, RetroFlow, PM and
//!   PG cells (text and CSV) must equal the committed run's.
//!
//! `fig7` is a timing figure and is not regenerated here.

use std::ffi::OsString;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A fresh scratch directory for one test, for the CSV files a run
/// writes.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pm-results-regen-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `pmctl repro name args` in-process and returns its output.
fn run(name: &str, args: &[&str]) -> String {
    let argv: Vec<OsString> = ["repro", name]
        .iter()
        .chain(args)
        .map(OsString::from)
        .collect();
    let mut out = Vec::new();
    if let Err(e) = pm_cli::run(&argv, &mut out) {
        panic!("repro {name} {args:?} failed: {}", e.message);
    }
    String::from_utf8(out).expect("UTF-8 output")
}

fn committed(name: &str) -> String {
    let path = results_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn deterministic_outputs_match_the_committed_files() {
    // table3 and reroute_drill run no worker pool, so they take no --jobs.
    for (name, jobs) in [
        ("table3", &[][..]),
        ("capacity_sweep", &["1", "2"]),
        ("reroute_drill", &[]),
        ("successive_drill", &["1", "2"]),
    ] {
        let want = committed(&format!("{name}.txt"));
        let got = run(name, &[]);
        assert!(
            got == want,
            "{name} differs from results/{name}.txt:\n{got}"
        );
        for jobs in jobs {
            let got = run(name, &["--jobs", jobs]);
            assert!(
                got == want,
                "{name} --jobs {jobs} differs from results/{name}.txt:\n{got}"
            );
        }
    }
}

/// One panel of a figure report: its title and rows of cells.
type Panel = (String, Vec<Vec<String>>);

/// Splits a figure report into its panels. Table columns are separated
/// by at least two spaces; a cell holds at most single spaces.
fn text_panels(report: &str) -> Vec<Panel> {
    let lines: Vec<&str> = report.lines().collect();
    let mut panels = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.starts_with('(') || !lines.get(i + 1).is_some_and(|l| l.starts_with("case")) {
            continue;
        }
        let rows = lines[i + 3..]
            .iter()
            .take_while(|l| !l.is_empty())
            .map(|l| {
                l.split("  ")
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .map(String::from)
                    .collect()
            })
            .collect();
        panels.push((line.to_string(), rows));
    }
    panels
}

/// The cells of a figure CSV (only the case label is ever quoted).
fn csv_rows(csv: &str) -> Vec<Vec<String>> {
    csv.lines()
        .skip(1)
        .map(|line| {
            let (label, rest) = match line.strip_prefix('"') {
                Some(quoted) => quoted.split_once("\",").expect("closing quote"),
                None => line.split_once(',').expect("a label column"),
            };
            std::iter::once(label)
                .chain(rest.split(','))
                .map(String::from)
                .collect()
        })
        .collect()
}

/// The case, RetroFlow, PM and PG columns.
fn heuristic_cells(rows: &[Vec<String>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r[..4].to_vec()).collect()
}

fn headline(report: &str) -> Option<&str> {
    report.lines().find(|l| l.starts_with("headline:"))
}

#[test]
fn figure_heuristic_cells_match_the_committed_files() {
    let dir = scratch("figures");
    let csv_dir = dir.join("csv");
    let csv_arg = csv_dir.to_str().expect("UTF-8 temp path");
    for (fig, panel_count) in [("fig4", 4), ("fig5", 6), ("fig6", 6)] {
        let want_text = committed(&format!("{fig}.txt"));
        let want = text_panels(&want_text);
        assert_eq!(want.len(), panel_count, "results/{fig}.txt panels");
        for jobs in ["1", "2"] {
            let args = ["--skip-optimal", "--jobs", jobs, "--csv", csv_arg];
            let got_text = run(fig, &args);
            let got = text_panels(&got_text);
            assert_eq!(got.len(), want.len(), "{fig} --jobs {jobs} panel count");
            for (i, ((got_title, got_rows), (want_title, want_rows))) in
                got.iter().zip(&want).enumerate()
            {
                assert_eq!(got_title, want_title, "{fig} --jobs {jobs}");
                assert_eq!(
                    heuristic_cells(got_rows),
                    heuristic_cells(want_rows),
                    "{fig} --jobs {jobs}: {want_title}"
                );
                let csv = format!("{fig}_panel{}.csv", (b'a' + i as u8) as char);
                let got_csv = std::fs::read_to_string(csv_dir.join(&csv)).expect("panel CSV");
                assert_eq!(
                    heuristic_cells(&csv_rows(&got_csv)),
                    heuristic_cells(&csv_rows(&committed(&format!("csv/{csv}")))),
                    "{fig} --jobs {jobs}: {csv}"
                );
            }
            assert_eq!(headline(&got_text), headline(&want_text), "{fig} headline");
            assert!(
                !got_text.contains("wall clock"),
                "{fig} stdout must carry no wall-clock table"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

//! Regenerates the paper's Fig. 5: results of two controller failures
//! (15 cases, panels a–f).
//!
//! Run: `cargo run --release -p pm-bench --bin fig5 -- --help` for the flags.

use pm_bench::flags::run_main;
use std::process::ExitCode;

const HELP: &str =
    "fig5 [options]: the paper's Fig. 5, two controller failures (15 cases, panels a-f)";

fn main() -> ExitCode {
    run_main(&[HELP], |args, opts| {
        args.finish()?;
        pm_bench::figures::run_failure_figure(2, "fig5", true, &opts);
        Ok(())
    })
}

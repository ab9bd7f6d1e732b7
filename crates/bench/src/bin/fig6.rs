//! Regenerates the paper's Fig. 6: results of three controller failures
//! (20 cases, panels a–f). Like the paper, the exact solver may fail to
//! prove optimality within its budget in some cases — those cells are
//! bracketed.
//!
//! Run: `cargo run --release -p pm-bench --bin fig6 -- --help` for the flags.

use pm_bench::flags::run_main;
use std::process::ExitCode;

const HELP: &str =
    "fig6 [options]: the paper's Fig. 6, three controller failures (20 cases, panels a-f)";

fn main() -> ExitCode {
    run_main(&[HELP], |args, opts| {
        args.finish()?;
        pm_bench::figures::run_failure_figure(3, "fig6", true, &opts);
        Ok(())
    })
}

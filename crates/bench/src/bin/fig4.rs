//! Regenerates the paper's Fig. 4: results of one controller failure
//! (6 cases, panels a–d).
//!
//! Run: `cargo run --release -p pm-bench --bin fig4 -- --help` for the flags.

use pm_bench::flags::run_main;
use std::process::ExitCode;

const HELP: &str =
    "fig4 [options]: the paper's Fig. 4, one controller failure (6 cases, panels a-d)";

fn main() -> ExitCode {
    run_main(&[HELP], |args, opts| {
        args.finish()?;
        pm_bench::figures::run_failure_figure(1, "fig4", false, &opts);
        Ok(())
    })
}

//! CI fixture for the flight recorder: runs a handful of real recovery
//! cases with the flight recorder armed, then panics on purpose, so the
//! panic hook's dump artifact can be validated and archived. Exits
//! nonzero by construction — a zero exit means the fixture is broken.
//!
//! Run: `cargo run -p pm-bench --bin flight_fixture -- --help` for the
//! flags.

use pm_bench::flags::{run_plain, CliError};
use pm_bench::{EvalOptions, SweepEngine};
use pm_sdwan::{ControllerId, SdWanBuilder};
use std::process::ExitCode;

const HELP: &str = "flight_fixture — runs a few recovery cases with the flight recorder armed,
then panics on purpose so the dump can be validated

USAGE: flight_fixture --out FILE [--cases N]

  --out FILE           where the panic hook writes the flight recorder dump
  --cases N            recovery cases to run before the panic (default 5)
";

fn main() -> ExitCode {
    run_plain(HELP, |args| {
        let out = args.take_path("--out")?;
        let cases = args
            .take_parsed("--cases", "an integer", |_: &usize| true)?
            .unwrap_or(5);
        args.finish()?;
        let out = out.ok_or_else(|| CliError::usage("flight_fixture: --out FILE is required"))?;
        fixture(out, cases)
    })
}

fn fixture(out: std::path::PathBuf, cases: usize) -> ! {
    pm_obs::flight::arm_panic_hook(out);
    pm_obs::set_thread_label("flight-fixture-main");

    let net = SdWanBuilder::att_paper_setup().build().expect("paper net");
    let engine = SweepEngine::new(
        &net,
        EvalOptions {
            skip_optimal: true,
            ..Default::default()
        },
    );
    let n_controllers = net.controllers().len();
    for i in 0..cases.max(1) {
        let c = ControllerId(i % n_controllers);
        let case = engine.run_case(&[c]);
        eprintln!(
            "flight_fixture: case {} ({}) ran {} algorithms",
            i,
            case.label,
            case.runs.len()
        );
    }
    panic!("flight_fixture: deliberate panic after {cases} cases (this is the fixture working)");
}

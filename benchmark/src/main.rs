//! `pm-benchmark`: runs one workload (or all of them, each in a fresh
//! child process) and prints its metrics.
//!
//! ```text
//! pm-benchmark [run|trace] [--workload NAME|all] [--seed N] [--seconds S]
//!              [--trace 0|1] [--out DIR]
//! ```
//!
//! `run` (the default, `--trace 0`) prints every end-to-end metric as
//! `workload metric value unit`; `trace` (`--trace 1`) prints the
//! per-layer metrics the same way. Both then print `attempted` and
//! `failed`, and finally one JSON object on the last line of standard
//! output. With `--out DIR`, the JSON is also written to
//! `DIR/<workload>.json`, and a traced run writes `trace.json` (Chrome
//! trace) and `layers.json` (per-layer metrics and self times) into
//! `DIR/<workload>/`. The exit code is 0 only when every correctness
//! check passed.

use pm_benchmark::{run, trace, Outcome, Sizes, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "pm-benchmark: {msg}\nusage: pm-benchmark [run|trace] [--workload NAME|all] [--seed N] \
         [--seconds S] [--trace 0|1] [--out DIR]\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 30.0,
        trace: false,
        out: None,
    };
    let mut first = true;
    while let Some(flag) = raw.next() {
        match (first, flag.as_str()) {
            (true, "run") => {}
            (true, "trace") => args.trace = true,
            (_, "--workload" | "--seed" | "--seconds" | "--trace" | "--out") => {
                let value = raw.next().ok_or(format!("{flag} needs a value"))?;
                let bad = || format!("{flag}: bad value {value:?}");
                match flag.as_str() {
                    "--workload" if value == "all" => args.workload = None,
                    "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                    "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        args.seconds = value
                            .parse()
                            .ok()
                            .filter(|s: &f64| s.is_finite() && *s > 0.0)
                            .ok_or_else(bad)?;
                    }
                    "--trace" => {
                        args.trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad()),
                        }
                    }
                    _ => args.out = Some(PathBuf::from(value)),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        first = false;
    }
    Ok(args)
}

fn report(workload: Workload, args: &Args, outcome: &Outcome) -> Result<(), String> {
    let name = workload.name();
    // Every timing depends on the threads the process can run at once (1
    // when pinned).
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!("{name} nproc {nproc}");
    for (key, value) in &outcome.notes {
        eprintln!("{name} {key} {value}");
    }
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} attempted {}", outcome.attempted);
    println!("{name} failed {}", outcome.failed);
    let json = outcome.json();
    println!("{json}");
    if let Some(dir) = &args.out {
        let doc = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {json}}}\n",
            args.seed, args.seconds, args.trace
        );
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{name}.json")), doc))
            .map_err(|e| format!("cannot write {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Runs every workload in a child process of its own, so each starts
/// from a clean heap and reports its own peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate this executable: {e}")),
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(dir) = &args.out {
            cmd.arg("--out").arg(dir);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("pm-benchmark: {} exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("pm-benchmark: cannot start {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pins this process to the first CPU it may run on, with `taskset` (the
/// crate makes no system calls of its own), and returns that CPU; `None`
/// where the CPU list or `taskset` is unavailable, and the run goes on
/// unpinned. Must run before any thread starts: later threads inherit the
/// pin.
///
/// On the two-vCPU machine the benchmark was built on, a `serve-1k`
/// request whose client and server threads sat on different vCPUs took
/// 46–54 µs at the median, the wake-up across vCPUs included, against
/// 28 µs with both on one, and the unpinned figure moved with the host's
/// load.
fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: usize = allowed.trim().split([',', '-']).next()?.parse().ok()?;
    let pinned = Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(cpu)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("pm-benchmark: pinned to CPU {cpu}"),
        None => eprintln!("pm-benchmark: not pinned to a CPU"),
    }
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let sizes = Sizes::full();
    let outcome = if args.trace {
        let artifacts = args.out.as_ref().map(|d| d.join(workload.name()));
        trace(workload, &sizes, args.seed, artifacts.as_deref())
    } else {
        run(workload, &sizes, args.seed, args.seconds)
    };
    if let Err(e) = report(workload, &args, &outcome) {
        eprintln!("pm-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

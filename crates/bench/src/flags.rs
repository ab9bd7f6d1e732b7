//! One flag parser for `pmctl` and the bench binaries.
//!
//! Every flag group two front ends share is parsed by exactly one
//! function here:
//!
//! | Group | Flags | Parser |
//! |---|---|---|
//! | telemetry | `--telemetry --serve --flight` | [`Telemetry::take`] |
//! | dispatch | `--jobs --shard --max-scenarios --seed --batch` | [`EvalOptions::take_dispatch`] |
//! | evaluation | dispatch, `--opt-secs --skip-optimal --csv` | [`EvalOptions::take`] |
//! | generated WAN | `--nodes --controllers --flows --headroom` | [`WanSpec::take`] |
//! | timeline | `--horizon-ms --mean-gap-ms --max-failed --no-drain` | [`take_timeline_params`] |
//! | `pmd` | `--horizon --jobs --workers` | [`PmdConfig::take`] |
//!
//! A front end takes its groups off an [`Args`], then its own flags, then
//! calls [`Args::finish`], so anything left over is a usage error. Every
//! taker answers a missing, repeated, malformed or out-of-range value
//! with a usage error whose ASCII message names the flag. A bench
//! binary's `main` is [`run_plain`], which handles `--help` and maps a
//! [`CliError`] to the exit code: 2 for a usage error, 1 for a runtime
//! error.

use crate::harness::EvalOptions;
use crate::pmd::PmdConfig;
use crate::wan::WanSpec;
use pm_simctl::{SimTime, TimelineParams};
use std::ffi::OsString;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// A command-line failure: exit code plus message.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code to use.
    pub code: i32,
    /// Message for stderr.
    pub message: String,
}

impl CliError {
    /// A usage error (exit code 2): the arguments are wrong.
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// A runtime error (exit code 1): the arguments were fine, the work
    /// failed.
    pub fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            code: 1,
            message: message.into(),
        }
    }
}

/// The usage error for a flag value that does not parse or is out of
/// range; the value is escaped so the message stays ASCII.
fn bad_value(flag: &str, raw: &str, need: &str) -> CliError {
    CliError::usage(format!(
        "{flag}: bad value '{}' (need {need})",
        raw.escape_default()
    ))
}

const POSITIVE: &str = "a positive integer";

/// The arguments a front end has not consumed yet, in order.
///
/// Values are [`OsString`]s so file paths pass through losslessly; flags
/// whose values are names or numbers must be valid UTF-8. A flag may be
/// given at most once.
#[derive(Debug)]
pub struct Args(Vec<OsString>);

impl Args {
    /// Wraps `args` (without the program name).
    pub fn new(args: Vec<OsString>) -> Args {
        Args(args)
    }

    /// Removes and returns the first argument: a subcommand or a
    /// positional operand.
    pub fn take_first(&mut self) -> Option<OsString> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    fn position(&self, flag: &str) -> Option<usize> {
        self.0.iter().position(|a| a == flag)
    }

    /// Whether `flag` is still among the arguments.
    pub fn contains(&self, flag: &str) -> bool {
        self.position(flag).is_some()
    }

    fn reject_repeat(&self, flag: &str) -> Result<(), CliError> {
        match self.position(flag) {
            Some(_) => Err(CliError::usage(format!("{flag} given more than once"))),
            None => Ok(()),
        }
    }

    fn take_flag(&mut self, flag: &str) -> Result<Option<OsString>, CliError> {
        let Some(pos) = self.position(flag) else {
            return Ok(None);
        };
        if pos + 1 >= self.0.len() {
            return Err(CliError::usage(format!("{flag} needs a value")));
        }
        let value = self.0.remove(pos + 1);
        self.0.remove(pos);
        self.reject_repeat(flag)?;
        Ok(Some(value))
    }

    /// Pulls `flag PATH` out, keeping whatever bytes the OS gave. A
    /// missing value or a repeated flag is a usage error.
    pub fn take_path(&mut self, flag: &str) -> Result<Option<PathBuf>, CliError> {
        Ok(self.take_flag(flag)?.map(PathBuf::from))
    }

    /// Pulls `flag VALUE` out for a value that must be text (a number, a
    /// name, a list): non-UTF-8 is a usage error too.
    pub fn take_str_flag(&mut self, flag: &str) -> Result<Option<String>, CliError> {
        match self.take_flag(flag)? {
            None => Ok(None),
            Some(v) => v.into_string().map(Some).map_err(|bad| {
                CliError::usage(format!(
                    "{flag}: value '{}' is not valid UTF-8",
                    bad.to_string_lossy().escape_default()
                ))
            }),
        }
    }

    /// Pulls `flag VALUE` out as a `T` for which `valid` holds; any
    /// other value is a usage error naming the flag and `need`, a
    /// description of an acceptable value.
    pub fn take_parsed<T: FromStr>(
        &mut self,
        flag: &str,
        need: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, CliError> {
        let Some(raw) = self.take_str_flag(flag)? else {
            return Ok(None);
        };
        match raw.parse::<T>() {
            Ok(v) if valid(&v) => Ok(Some(v)),
            _ => Err(bad_value(flag, &raw, need)),
        }
    }

    /// Pulls a boolean `flag` out; a repeated flag is a usage error.
    pub fn take_switch(&mut self, flag: &str) -> Result<bool, CliError> {
        let Some(pos) = self.position(flag) else {
            return Ok(false);
        };
        self.0.remove(pos);
        self.reject_repeat(flag)?;
        Ok(true)
    }

    /// Checks that every argument was consumed: leftovers are a usage
    /// error.
    pub fn finish(&self) -> Result<(), CliError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(CliError::usage(format!(
                "unrecognized arguments: {:?}",
                self.0
            )))
        }
    }
}

/// Help text of the evaluation group ([`EvalOptions::take`]).
pub const EVAL_HELP: &str = "\
evaluation options:
  --opt-secs N         wall-clock budget per Optimal solve (default 20)
  --skip-optimal       skip the exact Optimal baseline
  --csv DIR            write CSV files (and BENCH_*.json) into DIR
  --jobs N             worker threads (default: all cores); results are
                       identical for every N
  --shard i/m          run only the i-th of m contiguous slices of each
                       sweep; shard outputs concatenate to the full run
  --max-scenarios N    cap a sweep, sampling ranks without replacement
  --seed N             seed of the scenario sample (default 42)
  --batch N            scenarios materialized per worker dispatch
                       (default 32)
";

/// Help text of the telemetry group ([`Telemetry::take`]).
pub const TELEMETRY_HELP: &str = "\
observability:
  --telemetry DIR      at exit, write the run's telemetry into DIR (created
                       if needed): trace.json (Chrome trace_event, open in
                       Perfetto), metrics.json (counters, histograms and
                       span totals), metrics.prom (the same metrics in
                       Prometheus text format 0.0.4) and profile.folded
                       (folded stacks weighted by self time in ns, for
                       pmctl obs flame, inferno or speedscope)
  --serve ADDR         serve live telemetry over HTTP while the run is in
                       flight: GET /metrics (Prometheus), /metrics.json,
                       /profile.folded, /healthz; use 127.0.0.1:0 for an
                       ephemeral port (printed to stderr); pmctl obs top
                       --url watches it
  --flight FILE        arm the flight recorder: on panic, dump the last
                       spans and counter deltas per thread to FILE
";

/// Renders one artifact from the recorder's state.
type Render = fn() -> String;

/// The artifacts `--telemetry DIR` writes at exit: kind, file name in
/// `DIR`, and renderer.
const ARTIFACTS: [(&str, &str, Render); 4] = [
    ("trace", "trace.json", pm_obs::chrome_trace_json),
    ("metrics", "metrics.json", pm_obs::metrics_json),
    (
        "prometheus metrics",
        "metrics.prom",
        pm_obs::prometheus_text,
    ),
    ("profile", "profile.folded", pm_obs::prof::folded_text),
];

/// The telemetry group: where to write the exit-time artifacts, whether
/// to serve the recorder live, and where the flight recorder dumps on
/// panic. Parsed by [`Telemetry::take`], run by [`Telemetry::start`]; the
/// [`TelemetryPlane`] it returns owns teardown and export.
#[derive(Debug)]
pub struct Telemetry {
    /// `--telemetry DIR`: the directory the artifacts are written into at
    /// exit.
    dir: Option<PathBuf>,
    /// `--serve ADDR`: live telemetry over HTTP while the run is in
    /// flight.
    serve: Option<String>,
    /// `--flight FILE`: the flight recorder's dump on panic.
    flight: Option<PathBuf>,
}

impl Telemetry {
    /// Takes the telemetry group off `args`.
    pub fn take(args: &mut Args) -> Result<Telemetry, CliError> {
        Ok(Telemetry {
            dir: args.take_path("--telemetry")?,
            serve: args.take_str_flag("--serve")?,
            flight: args.take_path("--flight")?,
        })
    }

    /// Enables the recorder when `--telemetry` or `--serve` is given,
    /// arms the flight recorder's panic hook, and starts the HTTP
    /// listener if asked for. With no flag set this is free and the plane
    /// is inert. Everything the plane runs only reads the recorder, so
    /// results never change.
    ///
    /// # Errors
    ///
    /// A runtime error when the `--serve` address cannot be bound:
    /// continuing without the endpoint the user asked to watch would be
    /// worse than failing fast.
    pub fn start(self) -> Result<TelemetryPlane, CliError> {
        if self.dir.is_some() || self.serve.is_some() {
            pm_obs::enable();
        }
        if let Some(path) = &self.flight {
            pm_obs::flight::arm_panic_hook(path.clone());
        }
        let server = match &self.serve {
            Some(addr) => {
                let server = pm_obs::MetricsServer::serve(addr.as_str()).map_err(|e| {
                    CliError::runtime(format!("cannot serve telemetry on {addr}: {e}"))
                })?;
                eprintln!(
                    "serving telemetry on http://{}/metrics",
                    server.local_addr()
                );
                Some(server)
            }
            None => None,
        };
        Ok(TelemetryPlane {
            server,
            dir: self.dir,
        })
    }
}

/// The running telemetry plane. [`finish`](Self::finish) tears it down
/// and writes the artifacts; dropping it tears down without exporting.
#[derive(Debug)]
pub struct TelemetryPlane {
    server: Option<pm_obs::MetricsServer>,
    dir: Option<PathBuf>,
}

impl TelemetryPlane {
    /// Stops the server, then writes every artifact into the
    /// `--telemetry` directory, creating it if needed, and notes each one
    /// on `out`.
    ///
    /// # Errors
    ///
    /// A runtime error naming the path of the first artifact that could
    /// not be written; the others are still written.
    pub fn finish(self, out: &mut dyn Write) -> Result<(), CliError> {
        drop(self.server);
        let Some(dir) = self.dir else { return Ok(()) };
        // A directory that cannot be made fails each write below, which
        // names the artifact's path.
        let _ = std::fs::create_dir_all(&dir);
        let mut first_error = None;
        for (kind, name, render) in ARTIFACTS {
            let path = dir.join(name);
            match pm_obs::write_artifact(kind, &path, &render()) {
                Ok(()) => {
                    let _ = writeln!(out, "{kind} written to {}", path.display());
                }
                Err(e) => {
                    first_error.get_or_insert(CliError::runtime(e));
                }
            }
        }
        first_error.map_or(Ok(()), Err)
    }
}

/// Parses a `--shard` spec of the form `i/m` (1-based), rejecting
/// `i = 0`, `m = 0` and `i > m`.
fn parse_shard(spec: &str) -> Option<(usize, usize)> {
    let (i, m) = spec.split_once('/')?;
    let i: usize = i.trim().parse().ok()?;
    let m: usize = m.trim().parse().ok()?;
    (i >= 1 && i <= m).then_some((i, m))
}

impl EvalOptions {
    /// Takes the dispatch group (`--jobs --shard --max-scenarios --seed
    /// --batch`) off `args`; every other field keeps its default.
    pub fn take_dispatch(args: &mut Args) -> Result<EvalOptions, CliError> {
        let mut opts = EvalOptions::default();
        if let Some(jobs) = args.take_parsed("--jobs", POSITIVE, |&j: &usize| j > 0)? {
            opts.jobs = jobs;
        }
        if let Some(spec) = args.take_str_flag("--shard")? {
            let shard = parse_shard(&spec)
                .ok_or_else(|| bad_value("--shard", &spec, "i/m with 1 <= i <= m"))?;
            opts.shard = Some(shard);
        }
        opts.max_scenarios = args.take_parsed("--max-scenarios", POSITIVE, |&m: &u64| m > 0)?;
        if let Some(seed) = take_seed(args)? {
            opts.seed = seed;
        }
        if let Some(batch) = args.take_parsed("--batch", POSITIVE, |&b: &usize| b > 0)? {
            opts.batch = batch;
        }
        Ok(opts)
    }

    /// Takes the evaluation group off `args`: the dispatch group and
    /// `--opt-secs --skip-optimal --csv`.
    ///
    /// # Errors
    ///
    /// As [`take_dispatch`](Self::take_dispatch).
    pub fn take(args: &mut Args) -> Result<EvalOptions, CliError> {
        let mut opts = Self::take_dispatch(args)?;
        if let Some(secs) = take_opt_secs(args)? {
            opts.optimal_time_limit = Duration::from_secs(secs);
        }
        opts.skip_optimal = args.take_switch("--skip-optimal")?;
        opts.csv_dir = args.take_path("--csv")?;
        Ok(opts)
    }
}

/// Takes `--seed N`, the seed of a scenario sample, a timeline space or
/// a generated WAN.
pub fn take_seed(args: &mut Args) -> Result<Option<u64>, CliError> {
    args.take_parsed("--seed", "an integer", |_: &u64| true)
}

/// Takes `--opt-secs N`, the wall-clock budget in seconds of each exact
/// solve.
pub fn take_opt_secs(args: &mut Args) -> Result<Option<u64>, CliError> {
    args.take_parsed("--opt-secs", "whole seconds", |_: &u64| true)
}

impl WanSpec {
    /// Takes the generated-WAN group (`--nodes --controllers --flows
    /// --headroom`) off `args`, defaulting to the 1k-switch,
    /// 32-controller, 1024-flow drill WAN with 1.5 headroom. The
    /// controller count must lie in `2..=nodes`, and the headroom must be
    /// finite and at least 1, the rule of
    /// [`pm_sdwan::SdWanBuilder::auto_capacity`].
    pub fn take(args: &mut Args, seed: u64) -> Result<WanSpec, CliError> {
        let spec = WanSpec {
            nodes: args
                .take_parsed("--nodes", "a switch count", |_: &usize| true)?
                .unwrap_or(1000),
            controllers: args
                .take_parsed("--controllers", "a controller count", |_: &usize| true)?
                .unwrap_or(32),
            flows: args
                .take_parsed("--flows", POSITIVE, |&f: &usize| f > 0)?
                .unwrap_or(1024),
            headroom: args
                .take_parsed("--headroom", "a finite number >= 1", |&h: &f64| {
                    h.is_finite() && h >= 1.0
                })?
                .unwrap_or(1.5),
            seed,
        };
        if spec.controllers < 2 || spec.controllers > spec.nodes {
            return Err(CliError::usage(format!(
                "--controllers must be between 2 and --nodes ({} controllers, {} nodes)",
                spec.controllers, spec.nodes
            )));
        }
        Ok(spec)
    }
}

/// Takes `--timelines N`, the number of seeded failure timelines to
/// replay.
pub fn take_timeline_count(args: &mut Args) -> Result<Option<u64>, CliError> {
    args.take_parsed("--timelines", POSITIVE, |&c: &u64| c > 0)
}

/// Takes the timeline group (`--horizon-ms --mean-gap-ms --max-failed
/// --no-drain`) off `args`; every other parameter keeps its default.
/// Durations must be finite and positive.
pub fn take_timeline_params(args: &mut Args) -> Result<TimelineParams, CliError> {
    let mut params = TimelineParams::default();
    let positive_ms = |&ms: &f64| ms.is_finite() && ms > 0.0;
    if let Some(ms) = args.take_parsed("--horizon-ms", "milliseconds > 0", positive_ms)? {
        params.horizon = SimTime::from_ms(ms);
    }
    if let Some(ms) = args.take_parsed("--mean-gap-ms", "milliseconds > 0", positive_ms)? {
        params.mean_gap = SimTime::from_ms(ms);
    }
    if let Some(f) = args.take_parsed("--max-failed", POSITIVE, |&f: &usize| f > 0)? {
        params.max_concurrent = f;
    }
    params.drain = !args.take_switch("--no-drain")?;
    Ok(params)
}

impl PmdConfig {
    /// Takes the `pmd` group (`--horizon --jobs --workers`) off `args`.
    /// When the network's controller count is known up front, the
    /// horizon must leave one controller standing.
    pub fn take(args: &mut Args, controllers: Option<usize>) -> Result<PmdConfig, CliError> {
        let default = PmdConfig::default();
        let cfg = PmdConfig {
            horizon: args
                .take_parsed("--horizon", "a failure count >= 1", |&k: &usize| k >= 1)?
                .unwrap_or(default.horizon),
            jobs: args
                .take_parsed("--jobs", POSITIVE, |&j: &usize| j > 0)?
                .unwrap_or(default.jobs),
            workers: args
                .take_parsed("--workers", POSITIVE, |&w: &usize| w > 0)?
                .unwrap_or(default.workers),
            ..default
        };
        if let Some(n) = controllers.filter(|&n| cfg.horizon >= n) {
            return Err(CliError::usage(format!(
                "--horizon: {} failures leave none of the network's {n} controllers standing",
                cfg.horizon
            )));
        }
        Ok(cfg)
    }
}

/// The `main` of a bench binary: prints `help` for `--help`/`-h` and
/// exits 0, otherwise runs `body` on the arguments and maps its
/// [`CliError`] to the exit code.
pub fn run_plain(help: &str, body: impl FnOnce(&mut Args) -> Result<(), CliError>) -> ExitCode {
    let mut args = Args::new(std::env::args_os().skip(1).collect());
    if args.0.iter().any(|a| a == "--help" || a == "-h") {
        // A closed pipe (`--help | head`) is not an error worth a panic.
        let _ = writeln!(std::io::stdout(), "{help}");
        return ExitCode::SUCCESS;
    }
    match body(&mut args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message);
            ExitCode::from(u8::try_from(e.code).unwrap_or(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(OsString::from).collect())
    }

    #[test]
    fn shard_spec_parsing() {
        assert_eq!(parse_shard("1/1"), Some((1, 1)));
        assert_eq!(parse_shard("2/4"), Some((2, 4)));
        assert_eq!(parse_shard(" 3 / 3 "), Some((3, 3)));
        assert_eq!(parse_shard("0/4"), None, "1-based index");
        assert_eq!(parse_shard("5/4"), None, "index beyond shard count");
        assert_eq!(parse_shard("2"), None);
        assert_eq!(parse_shard("a/b"), None);
        assert_eq!(parse_shard("1/0"), None);
    }

    #[test]
    fn groups_leave_unknown_flags_in_order() {
        let mut a = args(&[
            "--nodes",
            "100",
            "--skip-optimal",
            "--shard",
            "1/2",
            "--controllers",
            "8",
        ]);
        let opts = EvalOptions::take(&mut a).unwrap();
        assert!(opts.skip_optimal);
        assert_eq!(opts.shard, Some((1, 2)));
        assert_eq!(
            a.0,
            vec!["--nodes", "100", "--controllers", "8"]
                .into_iter()
                .map(OsString::from)
                .collect::<Vec<_>>()
        );
        let wan = WanSpec::take(&mut a, 7).unwrap();
        assert_eq!((wan.nodes, wan.controllers, wan.seed), (100, 8, 7));
        a.finish().unwrap();
    }

    #[test]
    fn bad_values_are_ascii_usage_errors_naming_the_flag() {
        type Group = fn(&mut Args) -> Result<(), CliError>;
        let dispatch: Group = |a| EvalOptions::take_dispatch(a).map(drop);
        let eval: Group = |a| EvalOptions::take(a).map(drop);
        let wan: Group = |a| WanSpec::take(a, 42).map(drop);
        let timeline: Group = |a| take_timeline_params(a).map(drop);
        let pmd: Group = |a| PmdConfig::take(a, Some(6)).map(drop);
        for (group, flag, ok) in [
            (dispatch, "--jobs", "2"),
            (dispatch, "--batch", "2"),
            (dispatch, "--max-scenarios", "2"),
            (dispatch, "--shard", "1/2"),
            (eval, "--opt-secs", "2"),
            (wan, "--flows", "2"),
            (wan, "--headroom", "2"),
            (timeline, "--horizon-ms", "2"),
            (timeline, "--mean-gap-ms", "2"),
            (timeline, "--max-failed", "2"),
            (pmd, "--horizon", "2"),
            (pmd, "--jobs", "2"),
            (pmd, "--workers", "2"),
        ] {
            let cases: [&[&str]; 5] = [
                &[flag],
                &[flag, "many"],
                &[flag, "0"],
                &[flag, "-1"],
                &[flag, ok, flag, ok],
            ];
            for argv in cases {
                // --opt-secs 0 is a legal zero budget.
                if flag == "--opt-secs" && argv == [flag, "0"] {
                    continue;
                }
                let e = group(&mut args(argv)).expect_err(&format!("{argv:?} must fail"));
                assert_eq!(e.code, 2, "{argv:?}: {}", e.message);
                assert!(e.message.contains(flag), "{argv:?}: {}", e.message);
                assert!(e.message.is_ascii(), "{argv:?}: {}", e.message);
            }
            group(&mut args(&[flag, ok])).expect("a good value parses");
        }
        let e = EvalOptions::take(&mut args(&["--seed", "forty-\u{e9}"])).unwrap_err();
        assert!(
            e.message.contains("--seed") && e.message.is_ascii(),
            "{}",
            e.message
        );
    }

    #[test]
    fn switches_and_timeline_floats_reject_bad_input() {
        let e = EvalOptions::take(&mut args(&["--skip-optimal", "--skip-optimal"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--skip-optimal"), "{}", e.message);
        for v in ["nan", "inf", "-5"] {
            let e = take_timeline_params(&mut args(&["--horizon-ms", v])).unwrap_err();
            assert!(e.message.contains("--horizon-ms"), "{v}: {}", e.message);
        }
        for v in ["nan", "inf", "-1", "0", "0.5"] {
            let e = WanSpec::take(&mut args(&["--headroom", v]), 1).unwrap_err();
            assert_eq!(e.code, 2, "{v}: {}", e.message);
            assert!(e.message.contains("--headroom"), "{v}: {}", e.message);
        }
    }

    #[test]
    fn wan_and_pmd_checks_see_the_controller_count() {
        let e = WanSpec::take(&mut args(&["--nodes", "10", "--controllers", "11"]), 1).unwrap_err();
        assert!(e.message.contains("--controllers"), "{}", e.message);
        let e = PmdConfig::take(&mut args(&["--horizon", "6"]), Some(6)).unwrap_err();
        assert!(e.message.contains("--horizon"), "{}", e.message);
        let cfg = PmdConfig::take(&mut args(&["--horizon", "6"]), None).unwrap();
        assert_eq!(cfg.horizon, 6, "an unknown network defers the check");
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_pass_as_paths_and_fail_as_numbers() {
        use std::os::unix::ffi::OsStrExt;
        let bad = std::ffi::OsStr::from_bytes(b"m\xFF.json").to_os_string();
        let mut a = Args::new(vec!["--telemetry".into(), bad.clone()]);
        assert_eq!(
            a.take_path("--telemetry").unwrap(),
            Some(PathBuf::from(&bad))
        );
        let mut a = Args::new(vec!["--jobs".into(), bad]);
        let e = EvalOptions::take_dispatch(&mut a).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(
            e.message.contains("--jobs") && e.message.is_ascii(),
            "{}",
            e.message
        );
    }
}

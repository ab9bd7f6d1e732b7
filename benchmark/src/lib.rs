//! `pm-benchmark`: the end-to-end and per-layer performance benchmark of
//! the ProgrammabilityMedic reproduction.
//!
//! Three workloads, each run in its own process (see `README.md` for why
//! each exists and which metric each layer should move):
//!
//! | workload     | what it drives                                              |
//! |--------------|-------------------------------------------------------------|
//! | `sweep-1k`   | `SweepEngine::sweep_selection` over every pair failure       |
//! | `serve-1k`   | in-process `pmd`, closed-loop `POST /plan` on one connection |
//! | `optimal-14` | `Optimal::solve_detailed` on a fixed 14-switch pool          |
//!
//! [`run`] measures the end-to-end metrics with the recorder off;
//! [`trace`] drives a fixed prefix of the same inputs through the layers'
//! public functions, one `pm_obs` span per call, and reports per-layer
//! numbers.
//!
//! Every workload repeats the same unit of work (one sweep, one pass over
//! a request list, one pass over a solver pool) in rounds until the
//! measurement window is spent, and reports the median over rounds of
//! each round's numbers. The machine the benchmark runs on is shared, and
//! its speed moves by about 1.6× for minutes at a time, so every round and
//! every setup is followed by the [`probe`], and its timings are scaled to
//! nominal host speed by the probe's slowdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod layers;
pub mod optimal;
pub mod probe;
pub mod serve;
pub mod stats;
pub mod sweep;

use pm_bench::EvalOptions;
use probe::Probe;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Worker threads of every store build (the serve workload's setup).
pub const JOBS: usize = 2;

/// Seed of the network the sweep and serve workloads run on. The network
/// is fixed because the run's seed would otherwise measure the topology:
/// over ten 15 s sweeps of every pair failure, the median case time
/// spread 0.28 between its quartiles (as a share of the median) with a
/// network per seed, and 0.04 on this one.
pub const NETWORK_SEED: u64 = 42;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every pair controller failure of a 1k-switch WAN.
    Sweep1k,
    /// `pmd` answering closed-loop plan requests.
    Serve1k,
    /// The exact MILP baseline on a fixed pool of small instances.
    Optimal14,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Sweep1k, Workload::Serve1k, Workload::Optimal14];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep1k => "sweep-1k",
            Workload::Serve1k => "serve-1k",
            Workload::Optimal14 => "optimal-14",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Shape of a generated Waxman WAN (see [`pm_bench::build_wan`]).
#[derive(Debug, Clone, Copy)]
pub struct WanShape {
    /// Switches.
    pub nodes: usize,
    /// Controllers.
    pub controllers: usize,
    /// Routed flows.
    pub flows: usize,
}

impl WanShape {
    /// The generator spec of this shape under `seed`.
    pub fn spec(self, seed: u64) -> pm_bench::WanSpec {
        pm_bench::WanSpec {
            nodes: self.nodes,
            controllers: self.controllers,
            flows: self.flows,
            headroom: 1.5,
            seed,
        }
    }
}

/// The network `pmd` serves.
#[derive(Debug, Clone, Copy)]
pub enum ServeNet {
    /// The paper's ATT topology (test size).
    Att,
    /// A generated WAN, built from [`NETWORK_SEED`].
    Wan(WanShape),
}

/// Values the outputs are checked against, besides the checks every run
/// makes on its own.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// FNV-64 of the sweep's case rows.
    pub sweep_digest: Option<u64>,
    /// `(branch-and-bound nodes, objective)` of each optimal-pool instance,
    /// in pool order.
    pub optimal: Vec<(usize, f64)>,
}

/// Input sizes of every workload: [`Sizes::full`] is the benchmark,
/// [`Sizes::toy`] the same code paths small enough for unit tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Setups each run times at least; `setup_s` is their median.
    pub setups: usize,
    /// Seconds the timed setups take together at least.
    pub min_setup_s: f64,
    /// The sweep's WAN, built from [`NETWORK_SEED`].
    pub sweep: WanShape,
    /// Simultaneous failures per sweep case.
    pub sweep_failures: usize,
    /// The network `pmd` serves.
    pub serve: ServeNet,
    /// `pmd`'s precomputed horizon; requests beyond it are solved.
    pub horizon: usize,
    /// Requests in the serve workload's seeded list; every round sends
    /// all of them.
    pub requests: usize,
    /// Instances in the optimal pool.
    pub optimal_instances: usize,
    /// `POST /plan` requests in the traced prefix.
    pub trace_requests: usize,
    /// Reference outputs.
    pub expected: Expected,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        let wan = WanShape {
            nodes: 1000,
            controllers: 32,
            flows: 1024,
        };
        Sizes {
            setups: 3,
            min_setup_s: 1.0,
            sweep: wan,
            sweep_failures: 2,
            serve: ServeNet::Wan(wan),
            horizon: 3,
            requests: 8000,
            optimal_instances: 24,
            trace_requests: 20_000,
            expected: Expected {
                sweep_digest: Some(SWEEP_DIGEST),
                optimal: OPTIMAL_POOL.to_vec(),
            },
        }
    }

    /// Test sizes: a 120-switch WAN, the ATT store at horizon 2 and one
    /// optimal instance.
    pub fn toy() -> Sizes {
        Sizes {
            setups: 2,
            min_setup_s: 0.0,
            sweep: WanShape {
                nodes: 120,
                controllers: 8,
                flows: 60,
            },
            sweep_failures: 2,
            serve: ServeNet::Att,
            horizon: 2,
            requests: 200,
            optimal_instances: 1,
            trace_requests: 200,
            expected: Expected::default(),
        }
    }
}

/// FNV-64 of the sweep-1k case rows.
const SWEEP_DIGEST: u64 = 0xe02e_2c40_c4b7_1e33;
/// `(nodes, objective)` of each optimal-14 pool instance, in pool order.
const OPTIMAL_POOL: &[(usize, f64)] = &[
    (15, 2.9908256880733948),
    (1, 2.9894736842105263),
    (63, 2.994818652849741),
    (59, 2.993006993006993),
    (61, 2.9945945945945946),
    (53, 2.9962264150943394),
    (41, 2.9968354430379747),
    (47, 2.9918699186991873),
    (51, 2.9976247030878858),
    (31, 2.9971509971509973),
    (61, 2.9946236559139785),
    (63, 2.9951923076923075),
    (15, 2.992857142857143),
    (29, 2.995049504950495),
    (57, 2.998533724340176),
    (61, 2.996363636363636),
    (61, 2.9957264957264957),
    (29, 2.9967532467532467),
    (63, 2.9972222222222222),
    (49, 2.9984848484848485),
    (47, 2.9955156950672643),
    (47, 2.9964664310954063),
    (61, 2.9946236559139785),
    (63, 2.9950248756218905),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (cases, requests, instances, output checks).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Extra facts for the human-readable report (not metrics).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// `true` when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// `v` as a JSON number (non-finite values, which JSON cannot carry,
/// become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A workload's measured phase: the end-to-end metrics other than
/// `setup_s` and `rss_mb`, with its operation and failure counts.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Median over rounds of the operations per second.
    pub ops_per_s: f64,
    /// Median over rounds of the median operation latency, microseconds.
    pub p50_us: f64,
    /// Median over rounds of the median PM plan time, microseconds.
    pub solve_p50_us: f64,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations and output checks that failed.
    pub failed: u64,
    /// Extra facts for the human-readable report.
    pub notes: Vec<(String, String)>,
}

/// One round's numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Operations the round completed per second of its wall time.
    pub ops_per_s: f64,
    /// Median latency of the round's operations, microseconds.
    pub p50_us: f64,
    /// Median time of the round's PM plans, microseconds.
    pub solve_p50_us: f64,
}

impl Round {
    /// The round at nominal host speed, given the host's `slowdown`: times
    /// divided by it, rates multiplied.
    pub fn at_nominal_speed(self, slowdown: f64) -> Round {
        Round {
            ops_per_s: self.ops_per_s * slowdown,
            p50_us: self.p50_us / slowdown,
            solve_p50_us: self.solve_p50_us / slowdown,
        }
    }
}

impl Measured {
    /// The median over `rounds` of each round's numbers, with nothing
    /// attempted yet.
    pub fn over(rounds: &[Round]) -> Measured {
        let median =
            |f: fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
        Measured {
            ops_per_s: median(|r| r.ops_per_s),
            p50_us: median(|r| r.p50_us),
            solve_p50_us: median(|r| r.solve_p50_us),
            ..Measured::default()
        }
    }

    /// The outcome with the median setup time `setup_s` and the peak
    /// resident set `rss_mb`.
    fn finish(self, setup_s: f64, rss_mb: f64) -> Outcome {
        let m = |name, value, unit| Metric { name, value, unit };
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                m("setup_s", setup_s, "s"),
                m("rss_mb", rss_mb, "MB"),
                m("ops_per_s", self.ops_per_s, "1/s"),
                m("p50_us", self.p50_us, "us"),
                m("solve_p50_us", self.solve_p50_us, "us"),
            ],
            notes: self.notes,
        }
    }
}

/// Measures `workload`'s end-to-end metrics with the recorder off,
/// spending about `seconds` on the measured phase; every timing is at
/// nominal host speed (see [`probe`]).
///
/// # Panics
///
/// Panics when the probe cannot open its loopback connection.
pub fn run(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64) -> Outcome {
    let mut probe = Probe::start().expect("the host-speed probe needs loopback TCP");
    let mut outcome = match workload {
        Workload::Sweep1k => sweep::run(sizes, seconds, &mut probe),
        Workload::Serve1k => serve::run(sizes, seed, seconds, &mut probe),
        Workload::Optimal14 => optimal::run(sizes, seed, seconds, &mut probe),
    };
    outcome.notes.push((
        "host_slowdown_p50".into(),
        format!("{:.4}", probe.median_slowdown()),
    ));
    outcome
}

/// Drives `workload`'s traced prefix and reports the per-layer metrics;
/// with `out`, also writes `trace.json` and `layers.json` there.
pub fn trace(workload: Workload, sizes: &Sizes, seed: u64, out: Option<&Path>) -> Outcome {
    let traced = match workload {
        Workload::Sweep1k => sweep::trace(sizes),
        Workload::Serve1k => serve::trace(sizes, seed),
        Workload::Optimal14 => optimal::trace(sizes),
    };
    traced.finish(out)
}

/// Engine options of the sweep: heuristics only, one worker (a second
/// worker would share the machine's two cores with everything else the
/// process runs), shortest-path state computed lazily as the scale
/// binaries do.
pub fn engine_options() -> EvalOptions {
    EvalOptions {
        skip_optimal: true,
        jobs: 1,
        eager_warm: false,
        ..Default::default()
    }
}

/// Times `setup` (at nominal host speed), hands its result to `measure`,
/// reads the peak resident set, and only then runs `setup` again for its
/// timing alone (see [`median_setup_s`]); the outcome reports the median
/// setup time.
///
/// The extra setups come last because freed memory stays resident: on
/// `serve-1k`, repeating the store build before measuring left the peak
/// at about 215 MB in seven of ten runs and about 265 MB in the other
/// three.
pub fn measure_after_setup<T>(
    sizes: &Sizes,
    probe: &mut Probe,
    mut setup: impl FnMut() -> T,
    measure: impl FnOnce(&T, &mut Probe) -> Measured,
) -> Outcome {
    let mut timed_setup = |probe: &mut Probe| {
        let t0 = Instant::now();
        let value = setup();
        let s = stats::secs(t0);
        (value, s / probe.slowdown())
    };
    let (value, first_s) = timed_setup(probe);
    let measured = measure(&value, probe);
    let rss_mb = stats::peak_rss_mb();
    drop(value);
    let setup_s = median_setup_s(sizes, first_s, || timed_setup(probe).1);
    measured.finish(setup_s, rss_mb)
}

/// Most setups one run times.
const MAX_SETUPS: usize = 64;

/// The median setup time: `first_s`, the setup the measured phase used,
/// and as many more runs of `again` (which returns the time of one more
/// setup) as it takes to reach `sizes.setups` setups taking
/// `sizes.min_setup_s` together, so that a setup of a few milliseconds is
/// still timed over many.
pub fn median_setup_s(sizes: &Sizes, first_s: f64, mut again: impl FnMut() -> f64) -> f64 {
    let mut times = vec![first_s];
    while times.len() < MAX_SETUPS
        && (times.len() < sizes.setups || times.iter().sum::<f64>() < sizes.min_setup_s)
    {
        times.push(again());
    }
    stats::median(&times)
}

/// Runs `round` (which is handed its 0-based index), each followed by the
/// probe, until the `seconds` window is spent: a round starts only while
/// one as long as the longest so far still fits, and at least one round
/// runs. Returns every round's numbers at nominal host speed.
pub fn rounds(
    seconds: f64,
    probe: &mut Probe,
    mut round: impl FnMut(usize) -> Round,
) -> Vec<Round> {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut out = Vec::new();
    loop {
        let t0 = Instant::now();
        let measured = round(out.len());
        out.push(measured.at_nominal_speed(probe.slowdown()));
        longest = longest.max(stats::secs(t0));
        if stats::secs(start) + longest > seconds {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rounds_run_at_least_once_and_stop_once_the_window_is_spent() {
        let round = |i: usize| Round {
            ops_per_s: i as f64,
            ..Round::default()
        };
        let mut probe = Probe::start().expect("loopback probe");
        assert_eq!(rounds(0.0, &mut probe, round).len(), 1);
        let n = rounds(0.5, &mut probe, |i| {
            std::thread::sleep(Duration::from_millis(100));
            round(i)
        })
        .len();
        assert!(
            (1..=5).contains(&n),
            "{n} rounds of 100 ms in a 500 ms window"
        );
    }

    #[test]
    fn a_slow_host_scales_times_down_and_rates_up() {
        let r = Round {
            ops_per_s: 100.0,
            p50_us: 30.0,
            solve_p50_us: 600.0,
        }
        .at_nominal_speed(1.5);
        assert_eq!(
            (r.ops_per_s, r.p50_us, r.solve_p50_us),
            (150.0, 20.0, 400.0)
        );
    }

    #[test]
    fn each_metric_is_its_median_over_rounds() {
        let r = |ops_per_s, p50_us, solve_p50_us| Round {
            ops_per_s,
            p50_us,
            solve_p50_us,
        };
        let m = Measured::over(&[r(3.0, 10.0, 7.0), r(1.0, 30.0, 9.0), r(2.0, 20.0, 8.0)]);
        assert_eq!((m.ops_per_s, m.p50_us, m.solve_p50_us), (2.0, 20.0, 8.0));
    }
}

//! `sweep-1k`: every pair controller failure of the fixed 1k-switch WAN,
//! C(32,2) = 496 cases, through `SweepEngine::sweep_selection` on one
//! worker — RetroFlow, PM and PG, the first case built cold and every
//! later one reached from its colex predecessor on the delta path. Each
//! round is one whole sweep.
//!
//! The case set is the whole pair space rather than a seeded sample:
//! 128 or 256 triples drawn per seed spread the median case time by 0.11
//! or more between seeds on one network, before any machine noise. The
//! workload therefore reads no seed.

use crate::layers::{self, Algo, CaseRunner, PrefixTiming, Recording, Traced};
use crate::probe::Probe;
use crate::stats::{digest_rows, median, peak_rss_mb, secs};
use crate::{
    engine_options, median_setup_s, rounds, Measured, Outcome, Round, Sizes, NETWORK_SEED,
};
use pm_bench::{CaseResult, SweepEngine};
use pm_sdwan::PlanMetrics;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every 8th case is re-run on the engine's cold path and must match.
const COLD_CHECK_STRIDE: usize = 8;

/// The deterministic per-case row of `scale_sweep`'s `scale_cases.csv`.
fn row(
    label: &str,
    pm: &PlanMetrics,
    pm_delay: f64,
    retro: &PlanMetrics,
    pg: &PlanMetrics,
) -> Vec<String> {
    vec![
        label.to_string(),
        pm.offline_switches.to_string(),
        pm.offline_flows.to_string(),
        retro.total_programmability.to_string(),
        pm.total_programmability.to_string(),
        pg.total_programmability.to_string(),
        retro.recovered_flows.to_string(),
        pm.recovered_flows.to_string(),
        pg.recovered_flows.to_string(),
        format!("{pm_delay:.6}"),
    ]
}

/// The rows of the engine's case results.
pub fn case_rows(cases: &[CaseResult]) -> Vec<Vec<String>> {
    cases
        .iter()
        .map(|c| {
            let run = |name: &str| c.run(name).expect("heuristics always run");
            let pm = run("PM");
            row(
                &c.label,
                &pm.metrics,
                pm.total_delay,
                &run("RetroFlow").metrics,
                &run("PG").metrics,
            )
        })
        .collect()
}

/// Measures the sweep; see the module docs. The order is that of
/// [`crate::measure_after_setup`], spelled out because the engine borrows
/// the network it is built from.
pub fn run(sizes: &Sizes, seconds: f64, probe: &mut Probe) -> Outcome {
    let spec = sizes.sweep.spec(NETWORK_SEED);
    let t0 = Instant::now();
    let wan = pm_bench::build_wan(&spec);
    let engine = SweepEngine::new(&wan.net, engine_options());
    let first_s = secs(t0) / probe.slowdown();
    let measured = measure(&engine, sizes, seconds, probe);
    let rss_mb = peak_rss_mb();
    drop(engine);
    drop(wan);
    let setup_s = median_setup_s(sizes, first_s, || {
        let t0 = Instant::now();
        let wan = pm_bench::build_wan(&spec);
        let engine = SweepEngine::new(&wan.net, engine_options());
        let s = secs(t0);
        drop(engine);
        s / probe.slowdown()
    });
    measured.finish(setup_s, rss_mb)
}

fn measure(engine: &SweepEngine<'_>, sizes: &Sizes, seconds: f64, probe: &mut Probe) -> Measured {
    let sel = engine.selection(sizes.sweep_failures);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<Vec<Vec<String>>> = None;
    let rounds = rounds(seconds, probe, |_| {
        let t0 = Instant::now();
        let cases = engine.sweep_selection(&sel);
        let wall = secs(t0);
        let algos_us: Vec<f64> = cases
            .iter()
            .map(|c| c.runs.iter().map(|r| r.elapsed.as_secs_f64()).sum::<f64>() * 1e6)
            .collect();
        let pm_us: Vec<f64> = cases
            .iter()
            .map(|c| c.run("PM").expect("PM always runs").elapsed.as_secs_f64() * 1e6)
            .collect();
        attempted += cases.len() as u64;
        let rows = case_rows(&cases);
        match &reference {
            None => reference = Some(rows),
            Some(first) => failed += first.iter().zip(&rows).filter(|(a, b)| a != b).count() as u64,
        }
        Round {
            ops_per_s: cases.len() as f64 / wall,
            p50_us: median(&algos_us),
            solve_p50_us: median(&pm_us),
        }
    });
    let rows = reference.expect("at least one round");
    for pos in (0..rows.len()).step_by(COLD_CHECK_STRIDE) {
        attempted += 1;
        let cold = engine.run_case(&sel.scenario_at(pos as u64));
        failed += u64::from(case_rows(&[cold])[0] != rows[pos]);
    }
    let digest = digest_rows(&rows);
    if let Some(want) = sizes.expected.sweep_digest {
        attempted += 1;
        failed += u64::from(digest != want);
    }
    Measured {
        attempted,
        failed,
        notes: vec![
            ("cases".into(), rows.len().to_string()),
            ("rounds".into(), rounds.len().to_string()),
            ("rows_fnv64".into(), format!("{digest:#018x}")),
        ],
        ..Measured::over(&rounds)
    }
}

/// Traces one sweep: the engine's, then the same cases re-driven
/// through the layers.
pub fn trace(sizes: &Sizes) -> Traced {
    let spec = sizes.sweep.spec(NETWORK_SEED);
    let all = [Algo::RetroFlow, Algo::Pm, Algo::Pg];
    // One runner for the whole selection, as the engine's single worker
    // carries one scenario from case to case.
    let redrive = |engine: &SweepEngine<'_>| {
        let sel = engine.selection(sizes.sweep_failures);
        let mut runner = CaseRunner::new(engine.network(), engine.cache());
        let rows: Vec<Vec<String>> = (0..sel.len())
            .map(|pos| {
                let failed = sel.scenario_at(pos);
                let s = runner.solve(&failed, &all);
                row(
                    &pm_bench::harness::case_label(engine.network(), &failed),
                    &s[1].metrics,
                    s[1].total_delay,
                    &s[0].metrics,
                    &s[2].metrics,
                )
            })
            .collect();
        (rows, runner.swaps)
    };

    // The prefix with the recorder off, for the tracing overhead; a first
    // pass fills the lazily computed shortest-path state, as the engine
    // sweep does before the traced re-drive.
    let (untraced_s, untraced_rows) = {
        let net = layers::build_wan(&spec);
        let engine = SweepEngine::new(&net, engine_options());
        redrive(&engine);
        let t0 = Instant::now();
        let (rows, _) = redrive(&engine);
        (secs(t0), rows)
    };

    let rec = Recording::start();
    let net = layers::build_wan(&spec);
    let engine = layers::layer("layer.sdwan.netcache", || {
        SweepEngine::new(&net, engine_options())
    });
    let sel = engine.selection(sizes.sweep_failures);
    let engine_rows = case_rows(&layers::layer("layer.par.sweep", || {
        engine.sweep_selection(&sel)
    }));
    let t0 = Instant::now();
    let (rows, swaps) = redrive(&engine);
    let traced_s = secs(t0);

    let extra = BTreeMap::from([("sdwan.swaps_per_case", swaps as f64 / rows.len() as f64)]);
    let mut traced = rec.finish(
        PrefixTiming {
            untraced_s,
            traced_s,
        },
        extra,
    );
    traced.attempted = 2 * rows.len() as u64;
    traced.failed = rows
        .iter()
        .zip(&untraced_rows)
        .filter(|(a, b)| a != b)
        .count() as u64
        + rows
            .iter()
            .zip(&engine_rows)
            .filter(|(a, b)| a != b)
            .count() as u64
        + u64::from(rows.len() != engine_rows.len() || rows.len() != untraced_rows.len());
    traced
}

//! Beyond the paper's figures: controller-capacity sensitivity.
//!
//! The paper fixes every controller's capacity at 500 (following its \[6\],
//! \[9\]). This sweep varies that single knob across the (13, 20) headline
//! failure and reports how each algorithm's recovery degrades as capacity
//! tightens — the crossover where per-flow granularity starts to matter is
//! the study's point: RetroFlow falls off a cliff as soon as the hub no
//! longer fits anywhere, PM and PG degrade gracefully.
//!
//! Each capacity point is an independent network, so the points run in
//! parallel across the worker pool (`--jobs N`); rows are merged back in
//! capacity order.
//!
//! Run: `cargo run --release -p pm-bench --bin capacity_sweep -- --help` for the flags.

use pm_bench::flags::{run_main, Args, CliError};
use pm_bench::par::{stream_indexed, SWEEP_POOL};
use pm_bench::report::{pct, render_table};
use pm_bench::EvalOptions;
use pm_core::{FmssmInstance, Pg, Pm, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{ControllerId, NetCache, PlanMetrics, SdWanBuilder};
use std::process::ExitCode;

const CAPACITIES: [u32; 8] = [450, 475, 500, 525, 550, 600, 700, 800];

const HELP: &str =
    "capacity_sweep [options]: controller-capacity sensitivity of the (13,20) failure";

fn main() -> ExitCode {
    run_main(&[HELP], capacity_sweep)
}

fn capacity_sweep(args: &mut Args, opts: EvalOptions) -> Result<(), CliError> {
    args.finish()?;
    let points = 0..CAPACITIES.len() as u64;
    let point = |(): &mut (), i: u64| capacity_point(CAPACITIES[i as usize]);
    let results = stream_indexed(points, opts.jobs, 1, SWEEP_POOL, || (), point);

    let paper_point_recoverable = results
        .iter()
        .find(|&&(_, capacity, _)| capacity == 500)
        .map(|&(_, _, recoverable)| recoverable)
        .expect("sweep includes the paper's operating point");
    let rows: Vec<Vec<String>> = results.into_iter().map(|(cells, _, _)| cells).collect();

    println!(
        "capacity sensitivity on the (13,20) failure — recovered % of {paper_point_recoverable} \
         recoverable flows (total programmability)\n"
    );
    print!(
        "{}",
        render_table(&["capacity", "residual", "RetroFlow", "PM", "PG"], &rows)
    );
    println!("\n(paper operating point: capacity 500)");
    Ok(())
}

/// One capacity point: its table cells, the capacity and the recoverable
/// flow count.
fn capacity_point(capacity: u32) -> (Vec<String>, u32, usize) {
    let builder = SdWanBuilder::att_paper_setup_with_capacity(capacity);
    // Below ~490 some domain overloads; study that regime too.
    let net = match builder.clone().build() {
        Ok(n) => n,
        Err(_) => builder
            .allow_overload()
            .build()
            .expect("builds with waiver"),
    };
    let cache = NetCache::build(&net);
    let scenario = net
        .fail_cached(&[ControllerId(3), ControllerId(4)], &cache)
        .expect("valid");
    let prog = cache.programmability();
    let inst = FmssmInstance::with_cache(&scenario, prog, &cache);

    let mut cells = vec![capacity.to_string()];
    let recoverable = inst.recoverable_flow_count();
    let residual: u32 = inst.residuals().iter().sum();
    cells.push(residual.to_string());
    for algo in [
        &RetroFlow::new() as &dyn RecoveryAlgorithm,
        &Pm::new(),
        &Pg::new(),
    ] {
        let plan = algo.recover(&inst).expect("plan");
        plan.validate(&scenario, prog, algo.is_flow_level())
            .expect("valid plan");
        let m = PlanMetrics::compute(&scenario, prog, &plan, 0.0);
        cells.push(format!(
            "{} ({})",
            pct(m.recovered_flows as f64 / recoverable.max(1) as f64),
            m.total_programmability
        ));
    }
    (cells, capacity, recoverable)
}

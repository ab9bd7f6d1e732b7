//! Regenerates the paper's Table III: the default relationship between
//! controllers, switches, and the number of flows in the switches under the
//! ATT topology.
//!
//! Run: `cargo run --release -p pm-bench --bin table3 -- --help` for the flags.

use pm_bench::flags::{run_main, Args, CliError};
use pm_bench::report::{render_table, write_csv};
use pm_bench::{EvalOptions, SweepEngine};
use pm_sdwan::{ControllerId, SdWanBuilder};
use pm_topo::att::PAPER_FLOW_COUNTS;
use std::process::ExitCode;

const HELP: &str =
    "table3 [options]: the paper's Table III, controller domains and per-switch flow counts";

fn main() -> ExitCode {
    run_main(&[HELP], table3)
}

fn table3(args: &mut Args, opts: EvalOptions) -> Result<(), CliError> {
    args.finish()?;
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let engine = SweepEngine::new(&net, opts.clone());
    let cache = engine.cache();

    println!("Table III: controllers, switches, and per-switch flow counts (ATT topology)");
    println!("(\"ours\" = derived from the embedded ATT-like backbone; \"paper\" = Table III)\n");

    let mut rows = Vec::new();
    for c in 0..net.controllers().len() {
        let cid = ControllerId(c);
        let node = net.controllers()[c].node.index();
        for s in net.domain_switches(cid) {
            rows.push(vec![
                format!("C{node}"),
                format!("s{}", s.index()),
                net.gamma(s).to_string(),
                PAPER_FLOW_COUNTS[s.index()].to_string(),
            ]);
        }
    }
    let headers = ["controller", "switch", "flows (ours)", "flows (paper)"];
    print!("{}", render_table(&headers, &rows));

    println!();
    let mut load_rows = Vec::new();
    for c in 0..net.controllers().len() {
        let cid = ControllerId(c);
        let node = net.controllers()[c].node.index();
        load_rows.push(vec![
            format!("C{node}"),
            cache.controller_load(cid).to_string(),
            net.controllers()[c].capacity.to_string(),
            cache.residual_capacity(cid).to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["controller", "load", "capacity", "residual A_j^rest"],
            &load_rows
        )
    );

    let ours: u32 = net.switches().map(|s| net.gamma(s)).sum();
    let paper: u32 = PAPER_FLOW_COUNTS.iter().sum();
    println!("\ntotal flow-at-switch count: ours {ours}, paper {paper}");
    println!(
        "hub switch s13: ours {} flows (max), paper 213 (max)",
        net.gamma(pm_sdwan::SwitchId(13))
    );

    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "table3", &headers, &rows);
    }
    Ok(())
}

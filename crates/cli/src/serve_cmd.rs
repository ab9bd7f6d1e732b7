//! `pmctl serve` — run `pmd`, the resident plan-serving daemon.
//!
//! Builds the selected network (paper ATT setup by default, `--graphml`
//! or `--nodes`), precomputes every `f ≤ --horizon` recovery plan into a
//! [`pm_bench::PlanStore`], and serves plan lookups over HTTP until a
//! `POST /shutdown` arrives. `POST /reload` re-reads the topology source
//! (the GraphML file, for `--graphml` runs) and swaps the serving
//! generation without dropping in-flight requests.
//!
//! With `--port-file PATH` the bound address is written to `PATH` once
//! the listener is up — how scripts and CI discover an ephemeral
//! `--addr 127.0.0.1:0` port.

use crate::{build_network, parse_network, CliError, NetworkSpec};
use pm_bench::flags::Args;
use pm_bench::{Generation, PmdConfig, PmdService};
use std::io::Write;
use std::sync::Arc;

pub(crate) fn cmd_serve(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args
        .take_str_flag("--addr")?
        .unwrap_or_else(|| "127.0.0.1:7700".into());
    let port_file = args.take_path("--port-file")?;
    let spec = parse_network(&mut args, None)?;
    // The paper setup's and a generated WAN's controller counts are known
    // up front; a GraphML network's is checked once it is built, on every
    // reload.
    let controllers = match &spec {
        NetworkSpec::Att => Some(pm_topo::att::DEFAULT_DOMAINS.len()),
        NetworkSpec::GraphMl { .. } => None,
        NetworkSpec::Wan(wan) => Some(wan.controllers),
    };
    let cfg = PmdConfig::take(&mut args, controllers)?;
    args.finish()?;

    let spec = Arc::new(spec);
    // The generation source re-reads the topology on every call — that is
    // what makes POST /reload a hot swap of on-disk GraphML edits.
    let source = {
        let spec: Arc<NetworkSpec> = Arc::clone(&spec);
        Box::new(move |id| {
            let net = build_network(&spec).map_err(|e| e.message)?;
            if cfg.horizon >= net.controllers().len() {
                return Err(format!(
                    "horizon {} needs more controllers than the network's {}",
                    cfg.horizon,
                    net.controllers().len()
                ));
            }
            Ok(Generation::build(id, net, &cfg))
        })
    };
    let service = PmdService::start(addr.as_str(), source, cfg)
        .map_err(|e| CliError::runtime(format!("pmd cannot serve on {addr}: {e}")))?;

    let bound = service.local_addr();
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{bound}\n")).map_err(|e| {
            CliError::runtime(format!("cannot write port file {}: {e}", path.display()))
        })?;
    }
    let generation = service.generation();
    let _ = writeln!(
        out,
        "pmd serving on http://{bound} — {} plans (f <= {}) built in {:.1} ms",
        generation.store().len(),
        generation.store().horizon(),
        generation.store().build_elapsed().as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        out,
        "routes: POST /plan, GET /plans/<rank>, GET /status.json, GET /healthz, \
         GET /metrics, POST /reload, POST /shutdown"
    );
    out.flush().ok();
    drop(generation);

    service.wait_for_shutdown();
    let (store_hits, solved) = service.served();
    let _ = writeln!(
        out,
        "pmd: shutdown requested — served {store_hits} plans from the store, {solved} solved on demand"
    );
    Ok(())
}

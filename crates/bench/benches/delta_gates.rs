//! Timing gates of the incremental solver core: each delta kernel the
//! sweep workers use between colex-adjacent cases must beat its recompute
//! counterpart (ratio < 1.0), so an incremental path that silently
//! degrades to recompute cost fails the run.
//!
//! * `scenario_delta` — a single-swap `apply_delta_cached` against the
//!   cold cached rebuild `fail_cached`;
//! * `pm_warm_select` — PM in a carried workspace (`recover_in`) against
//!   the cold run that allocates its buffers from scratch.
//!
//! Timings only mean something optimized:
//! `cargo bench -p pm-bench --bench delta_gates`.

use pm_bench::{build_wan, WanSpec};
use pm_core::{FmssmInstance, Pm, PmWorkspace, RecoveryAlgorithm};
use pm_sdwan::{ControllerId, NetCache, Programmability, SdWan};
use std::hint::black_box;
use std::time::Instant;

/// Interleaved samples per gate.
const SAMPLES: usize = 201;

/// Interleaved per-op medians of `fresh` vs `delta`, in nanoseconds.
///
/// Each sample times a block of 8 calls so a single scheduler hiccup
/// cannot dominate one measurement; samples alternate between the two
/// closures so slow drift (thermal, noisy neighbours) hits both sides
/// equally, and medians shrug off the remaining spikes.
fn interleaved_medians_ns(
    iters: usize,
    mut fresh: impl FnMut(),
    mut delta: impl FnMut(),
) -> (f64, f64) {
    const BLOCK: u32 = 8;
    let mut fresh_ns = Vec::with_capacity(iters);
    let mut delta_ns = Vec::with_capacity(iters);
    for _ in 0..16 {
        fresh();
        delta();
    }
    for _ in 0..iters {
        let t = Instant::now();
        for _ in 0..BLOCK {
            fresh();
        }
        fresh_ns.push(t.elapsed().as_nanos() as f64 / f64::from(BLOCK));
        let t = Instant::now();
        for _ in 0..BLOCK {
            delta();
        }
        delta_ns.push(t.elapsed().as_nanos() as f64 / f64::from(BLOCK));
    }
    fresh_ns.sort_by(f64::total_cmp);
    delta_ns.sort_by(f64::total_cmp);
    (fresh_ns[iters / 2], delta_ns[iters / 2])
}

/// Asserts the delta-vs-recompute ratio is < 1.0 and reports it.
fn assert_delta_wins(kernel: &str, fresh_ns: f64, delta_ns: f64) {
    let ratio = delta_ns / fresh_ns;
    println!("{kernel}: delta {delta_ns:.0} ns vs recompute {fresh_ns:.0} ns (ratio {ratio:.3})");
    assert!(
        ratio < 1.0,
        "{kernel}: delta path must beat recompute, got ratio {ratio:.3} \
         (delta {delta_ns:.0} ns, recompute {fresh_ns:.0} ns)"
    );
}

/// The Waxman WAN the gates run on — `pmctl sweep --nodes`'s topology
/// family, sized so one kernel call is microseconds, not seconds.
fn delta_wan() -> SdWan {
    build_wan(&WanSpec {
        nodes: 120,
        controllers: 8,
        flows: 96,
        headroom: 1.5,
        seed: 7,
    })
    .net
}

/// The two colex-adjacent failure sets every gate toggles between.
const A: [ControllerId; 2] = [ControllerId(0), ControllerId(1)];
const B: [ControllerId; 2] = [ControllerId(0), ControllerId(2)];

/// The `(revived, failed)` swap that moves the rolling state to the
/// other set, flipping `at_a`.
fn toggle(at_a: &mut bool) -> (ControllerId, ControllerId) {
    let swap = if *at_a {
        (ControllerId(1), ControllerId(2))
    } else {
        (ControllerId(2), ControllerId(1))
    };
    *at_a = !*at_a;
    swap
}

fn scenario_delta(net: &SdWan) {
    let cache = NetCache::build(net);
    let mut rolling = net.fail_cached(&A, &cache).expect("valid case");
    let mut at_a = true;
    let (fresh_ns, delta_ns) = interleaved_medians_ns(
        SAMPLES,
        || {
            black_box(net.fail_cached(black_box(&B), &cache).expect("valid case"));
        },
        || {
            let (remove, add) = toggle(&mut at_a);
            rolling
                .apply_delta_cached(remove, add, &cache)
                .expect("adjacent swap is valid");
        },
    );
    assert_delta_wins("kernel/scenario_delta", fresh_ns, delta_ns);
}

fn pm_warm_select(net: &SdWan) {
    let prog = Programmability::compute(net);
    let scenario = net.fail(&A).expect("valid case");
    let inst = FmssmInstance::new(&scenario, &prog);
    let pm = Pm::new();
    let mut ws = PmWorkspace::default();
    let (cold_ns, warm_ns) = interleaved_medians_ns(
        SAMPLES,
        || {
            black_box(pm.recover(black_box(&inst)).expect("pm recovers"));
        },
        || {
            black_box(
                pm.recover_in(black_box(&inst), &mut ws)
                    .expect("pm recovers"),
            );
        },
    );
    assert_delta_wins("kernel/pm_warm_select", cold_ns, warm_ns);
}

fn main() {
    let net = delta_wan();
    scenario_delta(&net);
    pm_warm_select(&net);
}

//! `FmssmInstance` builds its rows from the programmability table's
//! per-switch rows and reads delays and delay orders from the network.
//! Here it is held to the construction it replaced, kept as the reference:
//! flow rows filtered from the table's flow rows in path order, switch
//! rows scattered from them in flow order, and per-case `N × M` delay and
//! delay-order tables (a stable sort of controller positions by delay).
//! Rows, orders and delays must be equal, every `f64` bit for bit, and each
//! scenario's nearest active controller must be the one a scan of the
//! active set picks (lowest delay, ties to the lower id). Each flow-row
//! entry's switch-major number must map the flow rows one to one onto
//! `0..E`, each onto the switch-row entry with the same switch, flow and
//! `p̄`.
//!
//! Cases: 32 seeded Waxman WANs × every failure set of size 1..4, every
//! ATT case, and a ring whose switches sit at equal delay from two
//! controllers, so the tie-breaks are exercised.

use pm_bench::{build_wan, WanSpec};
use pm_core::FmssmInstance;
use pm_sdwan::{ControllerId, FailureScenario, Programmability, SdWan, SdWanBuilder, SwitchId};
use pm_topo::{builders, NodeId};

/// The instance as the reference builds it, one `Vec` per row.
struct Reference {
    flow_rows: Vec<Vec<(usize, u32)>>,
    switch_rows: Vec<Vec<(usize, u32)>>,
    delay: Vec<Vec<f64>>,
    ctrl_by_delay: Vec<Vec<usize>>,
}

fn reference(sc: &FailureScenario<'_>, prog: &Programmability) -> Reference {
    let net = sc.network();
    let switches = sc.offline_switches();
    let controllers = sc.active_controllers();
    let mut switch_pos = vec![None; net.switch_count()];
    for (ip, &s) in switches.iter().enumerate() {
        switch_pos[s.index()] = Some(ip);
    }
    let mut flow_rows = Vec::new();
    let mut switch_rows = vec![Vec::new(); switches.len()];
    for (lp, &l) in sc.offline_flows().iter().enumerate() {
        let mut row = Vec::new();
        for &(s, p) in prog.flow_entries(l) {
            if let Some(ip) = switch_pos[s.index()] {
                row.push((ip, p));
                switch_rows[ip].push((lp, p));
            }
        }
        flow_rows.push(row);
    }
    let delay: Vec<Vec<f64>> = switches
        .iter()
        .map(|&s| controllers.iter().map(|&c| net.ctrl_delay(s, c)).collect())
        .collect();
    let ctrl_by_delay = delay
        .iter()
        .map(|row| {
            let mut order: Vec<usize> = (0..controllers.len()).collect();
            order.sort_by(|&a, &b| {
                row[a]
                    .partial_cmp(&row[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order
        })
        .collect();
    Reference {
        flow_rows,
        switch_rows,
        delay,
        ctrl_by_delay,
    }
}

/// The nearest active controller of `s` by a scan of the active set: the
/// first minimum, so ties go to the lower id.
fn nearest_by_scan(sc: &FailureScenario<'_>, s: SwitchId) -> ControllerId {
    let net = sc.network();
    sc.active_controllers()
        .iter()
        .copied()
        .min_by(|&a, &b| {
            net.ctrl_delay(s, a)
                .partial_cmp(&net.ctrl_delay(s, b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one active controller")
}

fn assert_case(net: &SdWan, prog: &Programmability, failed: &[ControllerId]) {
    let sc = net.fail(failed).expect("valid failure set");
    let inst = FmssmInstance::new(&sc, prog);
    let want = reference(&sc, prog);
    assert_eq!(inst.flows().len(), want.flow_rows.len(), "{failed:?}");
    for (lp, row) in want.flow_rows.iter().enumerate() {
        assert_eq!(
            inst.flow_entries(lp),
            row.as_slice(),
            "{failed:?} flow {lp}"
        );
    }
    assert_eq!(inst.switches().len(), want.switch_rows.len(), "{failed:?}");
    for (ip, row) in want.switch_rows.iter().enumerate() {
        assert_eq!(
            inst.switch_entries(ip),
            row.as_slice(),
            "{failed:?} switch {ip}"
        );
        let order: Vec<usize> = inst.controllers_by_delay(ip).collect();
        assert_eq!(order, want.ctrl_by_delay[ip], "{failed:?} order of {ip}");
        for (jp, &d) in want.delay[ip].iter().enumerate() {
            assert_eq!(
                inst.delay(ip, jp).to_bits(),
                d.to_bits(),
                "{failed:?} D({ip}, {jp})"
            );
        }
    }
    for &(s, c) in sc.nearest_active() {
        assert_eq!(c, nearest_by_scan(&sc, s), "{failed:?} nearest of {s}");
    }
    assert_entry_numbers(&inst, failed);
}

/// [`FmssmInstance::flow_entry_numbers`] is a bijection from the flow rows'
/// entries onto `0..E` that sends each entry to the switch-row entry of the
/// same switch, flow and `p̄`.
fn assert_entry_numbers(inst: &FmssmInstance<'_, '_>, failed: &[ControllerId]) {
    // `(switch, flow, p̄)` by switch-major number.
    let mut by_number = Vec::with_capacity(inst.entry_count());
    for ip in 0..inst.switches().len() {
        assert_eq!(inst.switch_row_start(ip), by_number.len(), "{failed:?}");
        by_number.extend(inst.switch_entries(ip).iter().map(|&(lp, p)| (ip, lp, p)));
    }
    assert_eq!(by_number.len(), inst.entry_count(), "{failed:?}");
    let mut seen = vec![false; inst.entry_count()];
    for lp in 0..inst.flows().len() {
        let numbers = inst.flow_entry_numbers(lp);
        assert_eq!(numbers.len(), inst.flow_entries(lp).len(), "{failed:?}");
        for (k, (&(ip, p), &e)) in inst.flow_entries(lp).iter().zip(numbers).enumerate() {
            let e = e as usize;
            assert!(
                e < seen.len() && !seen[e],
                "{failed:?} flow {lp} entry {k}: number {e} out of range or repeated"
            );
            seen[e] = true;
            assert_eq!(
                by_number[e],
                (ip, lp, p),
                "{failed:?} flow {lp} entry {k} -> {e}"
            );
        }
    }
    assert!(
        seen.iter().all(|&hit| hit),
        "{failed:?}: a number is missed"
    );
}

/// Every `f`-subset of `0..m`, in colex order.
fn failure_sets(m: usize, f: usize) -> Vec<Vec<ControllerId>> {
    let mut sets = Vec::new();
    for mask in 0u32..1 << m {
        if mask.count_ones() as usize == f {
            sets.push(
                (0..m)
                    .filter(|&c| mask >> c & 1 == 1)
                    .map(ControllerId)
                    .collect(),
            );
        }
    }
    sets
}

#[test]
fn rows_orders_and_delays_match_reference_on_waxman_wans() {
    for seed in 0..32u64 {
        let net = build_wan(&WanSpec {
            nodes: 30 + (seed as usize * 7) % 60,
            controllers: 6,
            flows: 96,
            headroom: 1.5,
            seed,
        })
        .net;
        let prog = Programmability::compute(&net);
        for f in 1..=4 {
            for failed in failure_sets(6, f) {
                assert_case(&net, &prog, &failed);
            }
        }
    }
}

#[test]
fn rows_orders_and_delays_match_reference_on_every_att_case() {
    let net = SdWanBuilder::att_paper_setup().build().expect("ATT builds");
    let prog = Programmability::compute(&net);
    let m = net.controllers().len();
    for f in 1..m {
        for failed in failure_sets(m, f) {
            assert_case(&net, &prog, &failed);
        }
    }
}

#[test]
fn equal_delays_break_toward_the_lower_id() {
    // Every odd switch of the ring is one hop from two controllers.
    let mut b = SdWanBuilder::new(builders::ring(8));
    for node in [0, 2, 4, 6] {
        b = b.controller(NodeId(node), 1_000);
    }
    let net = b.build().expect("ring builds");
    let s1 = SwitchId(1);
    let (d0, d1) = (
        net.ctrl_delay(s1, ControllerId(0)),
        net.ctrl_delay(s1, ControllerId(1)),
    );
    assert_eq!(d0.to_bits(), d1.to_bits(), "the ring has ties");
    let prog = Programmability::compute(&net);
    for f in 1..4 {
        for failed in failure_sets(4, f) {
            assert_case(&net, &prog, &failed);
        }
    }
}

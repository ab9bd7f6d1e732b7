//! Per-flow per-switch programmability quantities: `β_i^l` and `p̄_i^l`.
//!
//! For flow `f^l` and switch `s_i` on its forwarding path, the paper defines
//! `β_i^l = 1` iff `s_i` has at least two paths to the flow's destination,
//! and `p_i^l` as the number of paths from `s_i`'s next hops to the
//! destination. We compute both from the destination-rooted loop-free
//! alternate DAG (see [`pm_topo::paths::PathCounts`]): `p_i^l` is the DAG
//! path count from `s_i`, and `β_i^l = 1` iff that count is at least two.
//! `p̄_i^l = β_i^l · p_i^l` is the quantity the objective sums.
//!
//! The DAG toward a destination comes from the shortest-path tree rooted
//! there. [`SdWanBuilder::build`](crate::SdWanBuilder::build) settles one
//! tree per flow endpoint anyway, to route the flows, so it builds the table
//! from its destinations' trees; this module only lays out the rows.

use crate::network::{Flow, FlowId, SdWan, SwitchId};
use pm_topo::PathCounts;
use std::sync::Arc;

/// Precomputed programmability data for every flow of a network, as two
/// compressed (CSR) views of the same `β = 1` entries: one flat entries
/// array plus an offsets array per view.
#[derive(Debug, Clone)]
pub struct Programmability {
    /// Flow rows: flow `l`'s `(switch, p̄)` entries with `β = 1`, in path
    /// order, are `by_flow[flow_offsets[l]..flow_offsets[l + 1]]`.
    by_flow: Vec<(SwitchId, u32)>,
    /// `flows + 1` row starts into `by_flow`.
    flow_offsets: Vec<usize>,
    /// Switch rows, the transpose of the flow rows: switch `s`'s
    /// `(flow, p̄, index in the flow's row)` entries, ascending by flow,
    /// are `by_switch[switch_offsets[s]..switch_offsets[s + 1]]`.
    by_switch: Vec<(FlowId, u32, u32)>,
    /// `switches + 1` row starts into `by_switch`.
    switch_offsets: Vec<usize>,
}

impl Programmability {
    /// The table of `net`: [`SdWanBuilder::build`] computes it once, from
    /// the shortest-path trees it settles for routing, and every caller
    /// shares it.
    ///
    /// # Example
    ///
    /// ```
    /// use pm_sdwan::{Programmability, SdWanBuilder, FlowId};
    /// let net = SdWanBuilder::att_paper_setup().build()?;
    /// let prog = Programmability::compute(&net);
    /// // Every β = 1 entry means the switch can offer ≥ 2 loop-free paths.
    /// for &(s, pbar) in prog.flow_entries(FlowId(0)) {
    ///     assert!(prog.beta(FlowId(0), s) && pbar >= 2);
    /// }
    /// # Ok::<(), pm_sdwan::SdwanError>(())
    /// ```
    ///
    /// [`SdWanBuilder::build`]: crate::SdWanBuilder::build
    pub fn compute(net: &SdWan) -> Arc<Programmability> {
        Arc::clone(&net.prog)
    }

    /// Computes `β` and `p̄` for `flows` over `switches` switches, with
    /// `toward(d)` giving the loop-free path counts toward destination `d`.
    /// It is called once per distinct destination, in ascending order, and
    /// only one result is alive at a time.
    pub(crate) fn from_path_counts(
        flows: &[Flow],
        switches: usize,
        mut toward: impl FnMut(SwitchId) -> PathCounts,
    ) -> Self {
        let mut by_dst: Vec<usize> = (0..flows.len()).collect();
        by_dst.sort_by_key(|&l| flows[l].dst);
        let mut grouped = Vec::new();
        let mut spans = vec![0..0; flows.len()];
        let mut rest = by_dst.as_slice();
        while let Some(&first) = rest.first() {
            let dst = flows[first].dst;
            let (group, tail) = rest.split_at(rest.partition_point(|&l| flows[l].dst == dst));
            rest = tail;
            let pc = toward(dst);
            for &l in group {
                let start = grouped.len();
                for &s in &flows[l].path {
                    if s == dst {
                        continue; // the destination cannot reroute the flow
                    }
                    let count = pc.count_from(s.node());
                    if count >= 2 {
                        grouped.push((s, count.min(u32::MAX as u64) as u32));
                    }
                }
                spans[l] = start..grouped.len();
            }
        }
        let mut by_flow = Vec::with_capacity(grouped.len());
        let mut flow_offsets = Vec::with_capacity(flows.len() + 1);
        flow_offsets.push(0);
        for span in spans {
            by_flow.extend_from_slice(&grouped[span]);
            flow_offsets.push(by_flow.len());
        }

        // The switch rows: a counting pass sizes them, and a scatter in
        // flow order fills them, so each row ascends by flow.
        let n = switches;
        let mut switch_offsets = vec![0usize; n + 1];
        for &(s, _) in &by_flow {
            switch_offsets[s.0 + 1] += 1;
        }
        for s in 0..n {
            switch_offsets[s + 1] += switch_offsets[s];
        }
        let mut fill = switch_offsets[..n].to_vec();
        let mut by_switch = vec![(FlowId(0), 0, 0); by_flow.len()];
        for (l, row) in flow_offsets.windows(2).enumerate() {
            for (k, &(s, pbar)) in by_flow[row[0]..row[1]].iter().enumerate() {
                by_switch[fill[s.0]] = (FlowId(l), pbar, k as u32);
                fill[s.0] += 1;
            }
        }
        Programmability {
            by_flow,
            flow_offsets,
            by_switch,
            switch_offsets,
        }
    }

    /// `β_i^l`: can switch `s` reroute flow `l`? (`s` must be on the path
    /// and have ≥ 2 loop-free paths to the destination.)
    pub fn beta(&self, l: FlowId, s: SwitchId) -> bool {
        self.pbar(l, s) != 0
    }

    /// `p̄_i^l = β_i^l · p_i^l`: the programmability flow `l` gains when
    /// switch `s` routes it in SDN mode, or 0 when `β_i^l = 0` (and for
    /// ids outside the network). A binary search of `s`'s switch row.
    pub fn pbar(&self, l: FlowId, s: SwitchId) -> u32 {
        if s.0 + 1 >= self.switch_offsets.len() {
            return 0;
        }
        let row = self.switch_entries(s);
        row.binary_search_by_key(&l, |&(f, _, _)| f)
            .map_or(0, |k| row[k].1)
    }

    /// The `(switch, p̄)` pairs with `β = 1` for flow `l`, in path order.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn flow_entries(&self, l: FlowId) -> &[(SwitchId, u32)] {
        &self.by_flow[self.flow_offsets[l.0]..self.flow_offsets[l.0 + 1]]
    }

    /// The `(flow, p̄, k)` entries with `β = 1` at switch `s`, ascending by
    /// flow, where `k` is the entry's index in
    /// [`Programmability::flow_entries`] of that flow.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn switch_entries(&self, s: SwitchId) -> &[(FlowId, u32, u32)] {
        &self.by_switch[self.switch_offsets[s.0]..self.switch_offsets[s.0 + 1]]
    }

    /// Upper bound on flow `l`'s programmability: every `β = 1` switch on
    /// its path in SDN mode.
    pub fn max_programmability(&self, l: FlowId) -> u64 {
        self.flow_entries(l).iter().map(|&(_, p)| p as u64).sum()
    }

    /// Number of flows known to this table.
    pub fn flow_count(&self) -> usize {
        self.flow_offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SdWanBuilder;
    use pm_topo::{builders, NodeId};

    fn ring_net() -> SdWan {
        SdWanBuilder::new(builders::ring(5))
            .controller(NodeId(0), 100)
            .build()
            .unwrap()
    }

    #[test]
    fn ring_has_no_programmability() {
        // On an odd ring every pair has a unique shortest path and the
        // loop-free alternate DAG toward any destination is a pair of
        // disjoint arcs: every node has exactly one loop-free path, so
        // β = 0 everywhere. (Even rings differ: antipodal pairs have two
        // equal-cost paths.)
        let net = ring_net();
        let prog = Programmability::compute(&net);
        for l in 0..net.flows().len() {
            assert!(prog.flow_entries(FlowId(l)).is_empty());
            assert_eq!(prog.max_programmability(FlowId(l)), 0);
        }
    }

    /// The table `SdWanBuilder::build` derives from its endpoint trees
    /// equals one computed from scratch, destination by destination: a
    /// fresh `PathCounts::toward` per destination, each flow's entries in
    /// path order, `pbar` everywhere; and each flow's path is the one a
    /// fresh Dijkstra from its source gives.
    fn assert_table_matches_per_destination_reference(net: &SdWan) {
        use std::collections::BTreeMap;
        let prog = Programmability::compute(net);
        assert_eq!(prog.flow_count(), net.flows().len());
        let mut counts = BTreeMap::new();
        for (l, flow) in net.flows().iter().enumerate() {
            let spt = pm_topo::paths::dijkstra(net.topology(), flow.src.node());
            let path: Vec<SwitchId> = spt
                .path_to(flow.dst.node())
                .unwrap()
                .into_iter()
                .map(|v| SwitchId(v.0))
                .collect();
            assert_eq!(flow.path, path, "flow {l}");
            let pc = counts
                .entry(flow.dst)
                .or_insert_with(|| PathCounts::toward(net.topology(), flow.dst.node()));
            let want: Vec<(SwitchId, u32)> = flow
                .path
                .iter()
                .filter(|&&s| s != flow.dst)
                .map(|&s| (s, pc.count_from(s.node()) as u32))
                .filter(|&(_, count)| count >= 2)
                .collect();
            assert_eq!(prog.flow_entries(FlowId(l)), want.as_slice(), "flow {l}");
            for s in net.switches() {
                let pbar = want.iter().find(|e| e.0 == s).map_or(0, |e| e.1);
                assert_eq!(prog.pbar(FlowId(l), s), pbar, "flow {l} at {s}");
            }
        }
    }

    #[test]
    fn built_table_matches_per_destination_reference_on_att() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        assert_table_matches_per_destination_reference(&net);
    }

    #[test]
    fn grouped_by_destination_matches_per_flow_counts() {
        let net = SdWanBuilder::new(builders::grid(3, 4))
            .controller(NodeId(0), 500)
            .controller(NodeId(11), 500)
            .build()
            .unwrap();
        assert_eq!(net.flows().len(), 12 * 11);
        assert_table_matches_per_destination_reference(&net);
    }

    /// Explicit flows over a Waxman graph where switches 7 and 12 are only
    /// destinations and switch 3 only a source: a destination's tree must
    /// be settled even when no flow starts there.
    #[test]
    fn built_table_matches_per_destination_reference_on_explicit_flows() {
        let g = builders::waxman(&builders::WaxmanParams {
            nodes: 40,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let pairs = [(0, 7), (3, 12), (0, 12), (20, 0), (3, 20), (20, 7)]
            .map(|(a, b)| (SwitchId(a), SwitchId(b)));
        let net = SdWanBuilder::new(g)
            .controller(NodeId(0), 500)
            .controller(NodeId(30), 500)
            .explicit_flows(pairs.to_vec())
            .build()
            .unwrap();
        let srcs: Vec<_> = net.flows().iter().map(|f| f.src).collect();
        assert!(!srcs.contains(&SwitchId(7)) && !srcs.contains(&SwitchId(12)));
        assert!(net.flows().iter().all(|f| f.dst != SwitchId(3)));
        assert_table_matches_per_destination_reference(&net);
        let prog = Programmability::compute(&net);
        assert!((0..pairs.len()).any(|l| !prog.flow_entries(FlowId(l)).is_empty()));
    }

    /// The switch rows are exactly the transpose of the flow rows: every
    /// `(l, s, p̄)` once, each switch row ascending by flow, and each
    /// stored index pointing back at the entry in `flow_entries(l)`.
    #[test]
    fn switch_rows_transpose_flow_rows() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        let mut from_flows = Vec::new();
        for l in (0..net.flows().len()).map(FlowId) {
            from_flows.extend(prog.flow_entries(l).iter().map(|&(s, p)| (l, s, p)));
        }
        let mut from_switches = Vec::new();
        for s in net.switches() {
            let row = prog.switch_entries(s);
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "row of {s} not ascending by flow"
            );
            for &(l, p, k) in row {
                assert_eq!(prog.flow_entries(l)[k as usize], (s, p), "{l} at {s}");
                from_switches.push((l, s, p));
            }
        }
        assert!(!from_flows.is_empty());
        from_flows.sort();
        from_switches.sort();
        assert!(from_flows.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(from_flows, from_switches);
    }

    #[test]
    fn grid_has_programmability() {
        let net = SdWanBuilder::new(builders::grid(3, 3))
            .controller(NodeId(0), 500)
            .build()
            .unwrap();
        let prog = Programmability::compute(&net);
        // The corner-to-corner flow must be reroutable at its source.
        let (l, flow) = net
            .flows()
            .iter()
            .enumerate()
            .find(|(_, f)| f.src == SwitchId(0) && f.dst == SwitchId(8))
            .expect("all-pairs flows include corner to corner");
        let l = FlowId(l);
        assert!(
            prog.beta(l, flow.src),
            "corner switch must have ≥ 2 loop-free paths"
        );
        assert!(prog.pbar(l, flow.src) >= 2);
    }

    #[test]
    fn destination_never_programmable() {
        let net = SdWanBuilder::new(builders::grid(3, 3))
            .controller(NodeId(0), 500)
            .build()
            .unwrap();
        let prog = Programmability::compute(&net);
        for (l, flow) in net.flows().iter().enumerate() {
            assert!(!prog.beta(FlowId(l), flow.dst));
            assert_eq!(prog.pbar(FlowId(l), flow.dst), 0);
        }
    }

    #[test]
    fn entries_follow_path_order_and_match_lookup() {
        let net = SdWanBuilder::new(builders::grid(4, 4))
            .controller(NodeId(0), 5000)
            .build()
            .unwrap();
        let prog = Programmability::compute(&net);
        for (l, flow) in net.flows().iter().enumerate() {
            let l = FlowId(l);
            let mut last_pos = 0;
            for &(s, p) in prog.flow_entries(l) {
                let pos = flow
                    .path
                    .iter()
                    .position(|&x| x == s)
                    .expect("entry on path");
                assert!(pos >= last_pos, "entries out of path order");
                last_pos = pos;
                assert_eq!(prog.pbar(l, s), p);
                assert!(p >= 2, "β = 1 requires at least two paths");
            }
        }
    }

    #[test]
    fn off_path_switch_has_beta_zero() {
        let net = ring_net();
        let prog = Programmability::compute(&net);
        // Flow 0 goes 0 -> 1; switch 3 is not on its path.
        let f0 = &net.flows()[0];
        assert!(!f0.traverses(SwitchId(3)));
        assert!(!prog.beta(FlowId(0), SwitchId(3)));
    }

    #[test]
    fn att_backbone_has_rich_programmability() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        let programmable_flows = (0..net.flows().len())
            .filter(|&l| !prog.flow_entries(FlowId(l)).is_empty())
            .count();
        // The vast majority of the 600 flows must be recoverable somewhere.
        assert!(
            programmable_flows > 400,
            "only {programmable_flows}/600 flows have any β = 1 switch"
        );
    }
}

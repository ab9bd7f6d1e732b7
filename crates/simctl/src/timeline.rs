//! Seeded failure timelines: generation, rank-style indexing, and replay.
//!
//! The paper's evaluation scores recovery under *static* failure sets; a
//! timeline instead unfolds controller failures, recoveries, cascades,
//! control-plane partitions and flow churn as a schedule of timestamped
//! events. A [`TimelineSpace`] treats the space of such schedules exactly
//! like [`pm_bench`'s scenario ranks][rank]: timeline `id`s are the
//! integer range `0..count`, and [`TimelineSpace::generate`] is a pure
//! function of `(seed, id)` — the same id always expands to the same
//! event schedule, on every platform (generation uses integer arithmetic
//! only; no transcendentals touch the timestamps). Sharding and seeded
//! subsampling therefore compose over timeline ids the same way they do
//! over scenario ranks.
//!
//! [`Timeline::replay`] is the `run_until_idle`-style driver: it walks the
//! schedule in timestamp order (FIFO among ties), re-solves the recovery
//! problem with PM and RetroFlow against a shared read-only
//! [`NetCache`] whenever the failed-controller set changes, and flattens
//! per-event recovery metrics into a [`TimelineReport`].
//!
//! [rank]: https://en.wikipedia.org/wiki/Combinatorial_number_system

use crate::time::SimTime;
use crate::SimError;
use pm_core::{FmssmInstance, Pm, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{
    ControllerId, FailureScenario, FlowId, NetCache, PlanMetrics, Programmability, RecoveryPlan,
    SdWan,
};
use pm_topo::rng::DetRng;

/// Shape parameters for timeline generation.
///
/// All probabilities are evaluated against a [`DetRng`] draw; timestamps
/// are built from integer nanosecond arithmetic only, so generation is
/// bit-stable across platforms.
#[derive(Debug, Clone)]
pub struct TimelineParams {
    /// Events are generated while the clock is below this horizon
    /// (cascade follow-ups, partition heals and drain recoveries may land
    /// past it).
    pub horizon: SimTime,
    /// Mean gap between generated events; actual gaps are uniform in
    /// `[0.5, 1.5) × mean`.
    pub mean_gap: SimTime,
    /// Cap on simultaneously failed controllers (further bounded so at
    /// least one controller always survives).
    pub max_concurrent: usize,
    /// Probability the next event recovers a failed controller, when one
    /// is down.
    pub p_recover: f64,
    /// Probability a fresh failure immediately drags a second controller
    /// down (a cascade, 1 ms later).
    pub p_cascade: f64,
    /// Probability a fresh failure is a control-plane partition instead
    /// of a crash; partitions heal on their own after
    /// [`TimelineParams::partition_hold`].
    pub p_partition: f64,
    /// How long a partitioned controller stays unreachable.
    pub partition_hold: SimTime,
    /// Probability the next event is a flow churn (hard expiry of one
    /// flow's entries) rather than a control-plane change.
    pub p_churn: f64,
    /// Append recovery events after the horizon until every crashed
    /// controller is back, so the timeline ends fully recovered.
    pub drain: bool,
}

impl Default for TimelineParams {
    fn default() -> Self {
        TimelineParams {
            horizon: SimTime::from_ms(10_000.0),
            mean_gap: SimTime::from_ms(500.0),
            max_concurrent: 3,
            p_recover: 0.4,
            p_cascade: 0.15,
            p_partition: 0.2,
            partition_hold: SimTime::from_ms(800.0),
            p_churn: 0.15,
            drain: true,
        }
    }
}

/// One entry in a timeline's event schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineEvent {
    /// A controller crashes; `cascade` marks failures triggered by the
    /// immediately preceding one.
    Fail {
        /// The crashing controller.
        controller: ControllerId,
        /// `true` when this failure was dragged in by the previous one.
        cascade: bool,
    },
    /// A crashed controller comes back and reclaims its domain.
    Recover {
        /// The recovering controller.
        controller: ControllerId,
    },
    /// A controller becomes unreachable over the control plane (it still
    /// runs, but its switches are orphaned — operationally a failure).
    PartitionStart {
        /// The partitioned controller.
        controller: ControllerId,
    },
    /// The partition heals and the controller's switches see it again.
    PartitionHeal {
        /// The controller whose partition healed.
        controller: ControllerId,
    },
    /// One flow's entries hard-expire everywhere and must be
    /// re-established under whatever plan is current.
    Churn {
        /// The churning flow.
        flow: FlowId,
    },
}

impl TimelineEvent {
    /// Short stable tag used in event logs and CSV rows.
    pub fn kind(&self) -> &'static str {
        match self {
            TimelineEvent::Fail { cascade: false, .. } => "fail",
            TimelineEvent::Fail { cascade: true, .. } => "cascade",
            TimelineEvent::Recover { .. } => "recover",
            TimelineEvent::PartitionStart { .. } => "partition",
            TimelineEvent::PartitionHeal { .. } => "heal",
            TimelineEvent::Churn { .. } => "churn",
        }
    }
}

/// A fully expanded event schedule: what [`TimelineSpace::generate`]
/// returns for one timeline id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// The id this timeline was generated from.
    pub id: u64,
    /// Events in ascending timestamp order; equal timestamps keep
    /// insertion (FIFO) order.
    pub events: Vec<(SimTime, TimelineEvent)>,
}

/// The space of `count` seeded timelines over a network's controllers
/// and flows, indexed by integer id — the timeline analogue of
/// `pm_bench`'s rank-indexed scenario space.
#[derive(Debug, Clone)]
pub struct TimelineSpace {
    controllers: usize,
    flows: usize,
    seed: u64,
    count: u64,
    params: TimelineParams,
}

impl TimelineSpace {
    /// Builds a space of `count` timelines over `controllers` controllers
    /// and `flows` flows, derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `controllers < 2` — a timeline must always be able to
    /// leave one controller standing.
    pub fn new(
        controllers: usize,
        flows: usize,
        seed: u64,
        count: u64,
        params: TimelineParams,
    ) -> Self {
        assert!(
            controllers >= 2,
            "timelines need at least 2 controllers, got {controllers}"
        );
        TimelineSpace {
            controllers,
            flows,
            seed,
            count,
            params,
        }
    }

    /// The number of timelines in the space.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The seed every timeline id is mixed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shape parameters shared by all timelines of the space.
    pub fn params(&self) -> &TimelineParams {
        &self.params
    }

    /// The controller count timelines draw failures from.
    pub fn controllers(&self) -> usize {
        self.controllers
    }

    /// Expands timeline `id` into its full event schedule — a pure
    /// function of `(seed, id)`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= count()`.
    pub fn generate(&self, id: u64) -> Timeline {
        assert!(
            id < self.count,
            "timeline id {id} out of range (count = {})",
            self.count
        );
        let p = &self.params;
        // Golden-ratio mix so neighbouring ids land on unrelated streams.
        let mut rng = DetRng::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mean = p.mean_gap.as_nanos().max(2);
        let gap = |rng: &mut DetRng| mean / 2 + rng.next_u64() % mean;

        let mut events: Vec<(SimTime, TimelineEvent)> = Vec::new();
        // Currently failed controllers with a partition marker; partitions
        // heal on their own schedule and are never drawn for recovery.
        let mut down: Vec<(usize, bool)> = Vec::new();
        // Scheduled partition heals not yet folded into `down` removal.
        let mut pending_heals: Vec<(u64, usize)> = Vec::new();
        let max_down = p.max_concurrent.min(self.controllers - 1).max(1);

        let mut t_ns = 0u64;
        loop {
            t_ns += gap(&mut rng);
            if t_ns >= p.horizon.as_nanos() {
                break;
            }
            // Fold in any partitions that healed before this instant.
            pending_heals.retain(|&(heal_ns, c)| {
                if heal_ns <= t_ns {
                    events.push((
                        SimTime::from_nanos(heal_ns),
                        TimelineEvent::PartitionHeal {
                            controller: ControllerId(c),
                        },
                    ));
                    down.retain(|&(d, _)| d != c);
                    false
                } else {
                    true
                }
            });

            let crashed: Vec<usize> = down
                .iter()
                .filter(|&&(_, part)| !part)
                .map(|&(c, _)| c)
                .collect();
            if !crashed.is_empty() && rng.gen_bool(p.p_recover) {
                let c = crashed[(rng.next_u64() % crashed.len() as u64) as usize];
                events.push((
                    SimTime::from_nanos(t_ns),
                    TimelineEvent::Recover {
                        controller: ControllerId(c),
                    },
                ));
                down.retain(|&(d, _)| d != c);
                continue;
            }
            if self.flows > 0 && rng.gen_bool(p.p_churn) {
                let f = (rng.next_u64() % self.flows as u64) as usize;
                events.push((
                    SimTime::from_nanos(t_ns),
                    TimelineEvent::Churn { flow: FlowId(f) },
                ));
                continue;
            }
            // A fresh failure, if the concurrency cap leaves room.
            let up: Vec<usize> = (0..self.controllers)
                .filter(|c| !down.iter().any(|&(d, _)| d == *c))
                .collect();
            if up.len() <= 1 || down.len() >= max_down {
                // Saturated: fall back to a recovery (or churn when every
                // outage is a partition that must heal on its own clock).
                if let Some(&c) = crashed.first() {
                    events.push((
                        SimTime::from_nanos(t_ns),
                        TimelineEvent::Recover {
                            controller: ControllerId(c),
                        },
                    ));
                    down.retain(|&(d, _)| d != c);
                } else if self.flows > 0 {
                    let f = (rng.next_u64() % self.flows as u64) as usize;
                    events.push((
                        SimTime::from_nanos(t_ns),
                        TimelineEvent::Churn { flow: FlowId(f) },
                    ));
                }
                continue;
            }
            let target = up[(rng.next_u64() % up.len() as u64) as usize];
            let partition = rng.gen_bool(p.p_partition);
            if partition {
                events.push((
                    SimTime::from_nanos(t_ns),
                    TimelineEvent::PartitionStart {
                        controller: ControllerId(target),
                    },
                ));
                down.push((target, true));
                pending_heals.push((t_ns + p.partition_hold.as_nanos().max(1), target));
            } else {
                events.push((
                    SimTime::from_nanos(t_ns),
                    TimelineEvent::Fail {
                        controller: ControllerId(target),
                        cascade: false,
                    },
                ));
                down.push((target, false));
                // A crash may drag a second controller down 1 ms later.
                if down.len() < max_down && up.len() > 2 && rng.gen_bool(p.p_cascade) {
                    let rest: Vec<usize> = up.into_iter().filter(|&c| c != target).collect();
                    let second = rest[(rng.next_u64() % rest.len() as u64) as usize];
                    events.push((
                        SimTime::from_nanos(t_ns + 1_000_000),
                        TimelineEvent::Fail {
                            controller: ControllerId(second),
                            cascade: true,
                        },
                    ));
                    down.push((second, false));
                }
            }
        }

        // Every scheduled partition heal lands, horizon or not.
        for &(heal_ns, c) in &pending_heals {
            events.push((
                SimTime::from_nanos(heal_ns),
                TimelineEvent::PartitionHeal {
                    controller: ControllerId(c),
                },
            ));
            down.retain(|&(d, _)| d != c);
        }
        // Drain: bring every crashed controller back so the timeline ends
        // fully recovered (heals above already cleared the partitions).
        if p.drain {
            let mut t_end = t_ns.max(p.horizon.as_nanos());
            let mut crashed: Vec<usize> = down.iter().map(|&(c, _)| c).collect();
            crashed.sort_unstable();
            for c in crashed {
                t_end += gap(&mut rng);
                events.push((
                    SimTime::from_nanos(t_end),
                    TimelineEvent::Recover {
                        controller: ControllerId(c),
                    },
                ));
            }
        }

        // Stable sort: equal timestamps keep generation (FIFO) order.
        events.sort_by_key(|&(at, _)| at);
        Timeline { id, events }
    }
}

/// What happened at one timeline event, flattened for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// When the event fired.
    pub at: SimTime,
    /// The event tag ([`TimelineEvent::kind`]).
    pub kind: &'static str,
    /// The controller involved, for control-plane events.
    pub controller: Option<ControllerId>,
    /// The flow involved, for churn events.
    pub flow: Option<FlowId>,
    /// The failed-controller set *after* the event, ascending.
    pub failed: Vec<ControllerId>,
    /// `true` when the event changed the failed set and a solve ran.
    pub solved: bool,
    /// Offline flows under the post-event failed set.
    pub offline_flows: usize,
    /// Flows PM recovered with programmability > 0.
    pub pm_recovered: usize,
    /// Flows RetroFlow recovered with programmability > 0.
    pub retro_recovered: usize,
    /// PM's total restored programmability (`obj₂`).
    pub pm_total: u64,
    /// RetroFlow's total restored programmability.
    pub retro_total: u64,
    /// PM's minimum programmability over recoverable flows.
    pub pm_min: u64,
    /// RetroFlow's minimum programmability over recoverable flows.
    pub retro_min: u64,
    /// For churn events: the churning flow's programmability under the
    /// current table (baseline when online, plan value when recovered,
    /// 0 when orphaned).
    pub churn_programmability: Option<u64>,
}

/// Everything one solve produced, lent to [`Timeline::replay_with`]
/// observers so invariant tests can inspect full plans without bloating
/// the flat report.
#[derive(Debug)]
pub struct EventSolve<'run, 'net> {
    /// The failure scenario the solve ran against.
    pub scenario: &'run FailureScenario<'net>,
    /// PM's recovery plan.
    pub pm_plan: &'run RecoveryPlan,
    /// RetroFlow's recovery plan.
    pub retro_plan: &'run RecoveryPlan,
    /// PM's full metrics.
    pub pm_metrics: &'run PlanMetrics,
    /// RetroFlow's full metrics.
    pub retro_metrics: &'run PlanMetrics,
}

/// The flat outcome of replaying one timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// The replayed timeline's id.
    pub id: u64,
    /// Total events replayed.
    pub events: usize,
    /// Solves run (events that changed the failed set to something
    /// non-empty).
    pub solves: usize,
    /// Primary crash events.
    pub failures: usize,
    /// Cascade crash events.
    pub cascades: usize,
    /// Partition events.
    pub partitions: usize,
    /// Recovery events (crash recoveries; heals count separately).
    pub recoveries: usize,
    /// Partition heal events.
    pub heals: usize,
    /// Flow churn events.
    pub churns: usize,
    /// Peak simultaneously failed controllers.
    pub peak_failed: usize,
    /// Controllers still failed when the timeline ended.
    pub final_failed: usize,
    /// `true` when the timeline ended with every controller back.
    pub fully_recovered: bool,
    /// `true` when the per-flow programmability table at the end equals
    /// the pre-failure baseline exactly.
    pub baseline_restored: bool,
    /// The worst (lowest) fraction of offline flows PM recovered across
    /// all solves, in parts per million (1_000_000 = all offline flows
    /// recovered every time; 1_000_000 also when no solve ran).
    pub pm_worst_recovered_ppm: u64,
    /// Per-event records, in replay order.
    pub records: Vec<EventRecord>,
}

impl TimelineReport {
    /// The deterministic text form of the full event log — what the
    /// golden regression fixture pins.
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "timeline {} events={} solves={} peak_failed={} fully_recovered={} \
             baseline_restored={}\n",
            self.id,
            self.events,
            self.solves,
            self.peak_failed,
            self.fully_recovered,
            self.baseline_restored
        ));
        for r in &self.records {
            let who = match (r.controller, r.flow) {
                (Some(c), _) => format!("C{}", c.index()),
                (_, Some(f)) => format!("F{}", f.index()),
                _ => "-".to_string(),
            };
            let failed: Vec<String> = r.failed.iter().map(|c| format!("C{}", c.index())).collect();
            out.push_str(&format!(
                "{:>12} {:<9} {:<5} failed=[{}] offline={} pm={}/{} retro={}/{} \
                 pm_min={} retro_min={}",
                r.at.as_nanos(),
                r.kind,
                who,
                failed.join(","),
                r.offline_flows,
                r.pm_recovered,
                r.pm_total,
                r.retro_recovered,
                r.retro_total,
                r.pm_min,
                r.retro_min
            ));
            if let Some(p) = r.churn_programmability {
                out.push_str(&format!(" churn_p={p}"));
            }
            out.push('\n');
        }
        out
    }
}

impl Timeline {
    /// Replays the timeline against `net` using the shared read-only
    /// `cache`: every event that changes the failed-controller set
    /// re-solves recovery with PM and RetroFlow and appends an
    /// [`EventRecord`]; churn events are recorded against the current
    /// per-flow programmability table.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Sdwan`] when a failed set cannot form a valid
    /// scenario (generation prevents this for well-formed spaces).
    ///
    /// # Panics
    ///
    /// Panics if an algorithm produces an invalid plan — a solver bug,
    /// not a data error.
    pub fn replay(&self, net: &SdWan, cache: &NetCache) -> Result<TimelineReport, SimError> {
        self.replay_with(net, cache, |_, _| {})
    }

    /// [`Timeline::replay`] with an observer called after every event —
    /// with the solve's scenario, plans and metrics when one ran.
    ///
    /// # Errors
    ///
    /// As for [`Timeline::replay`].
    ///
    /// # Panics
    ///
    /// As for [`Timeline::replay`].
    pub fn replay_with<F>(
        &self,
        net: &SdWan,
        cache: &NetCache,
        mut inspect: F,
    ) -> Result<TimelineReport, SimError>
    where
        F: FnMut(&EventRecord, Option<&EventSolve<'_, '_>>),
    {
        let obs = pm_obs::enabled();
        let _span = obs.then(|| pm_obs::span_labeled("sim.timeline", format!("t{}", self.id)));
        let prog: &Programmability = cache.programmability();
        let baseline: Vec<u64> = (0..net.flows().len())
            .map(|f| prog.max_programmability(FlowId(f)))
            .collect();
        let mut table = baseline.clone();

        let mut failed: Vec<ControllerId> = Vec::new();
        let mut report = TimelineReport {
            id: self.id,
            events: 0,
            solves: 0,
            failures: 0,
            cascades: 0,
            partitions: 0,
            recoveries: 0,
            heals: 0,
            churns: 0,
            peak_failed: 0,
            final_failed: 0,
            fully_recovered: false,
            baseline_restored: false,
            pm_worst_recovered_ppm: 1_000_000,
            records: Vec::with_capacity(self.events.len()),
        };

        for (at, ev) in &self.events {
            report.events += 1;
            let mut record = EventRecord {
                at: *at,
                kind: ev.kind(),
                controller: None,
                flow: None,
                failed: Vec::new(),
                solved: false,
                offline_flows: 0,
                pm_recovered: 0,
                retro_recovered: 0,
                pm_total: 0,
                retro_total: 0,
                pm_min: 0,
                retro_min: 0,
                churn_programmability: None,
            };
            let set_changed = match ev {
                TimelineEvent::Fail {
                    controller,
                    cascade,
                } => {
                    if *cascade {
                        report.cascades += 1;
                    } else {
                        report.failures += 1;
                    }
                    record.controller = Some(*controller);
                    debug_assert!(!failed.contains(controller), "double failure generated");
                    failed.push(*controller);
                    failed.sort_unstable();
                    true
                }
                TimelineEvent::PartitionStart { controller } => {
                    report.partitions += 1;
                    record.controller = Some(*controller);
                    failed.push(*controller);
                    failed.sort_unstable();
                    true
                }
                TimelineEvent::Recover { controller } => {
                    report.recoveries += 1;
                    record.controller = Some(*controller);
                    failed.retain(|c| c != controller);
                    true
                }
                TimelineEvent::PartitionHeal { controller } => {
                    report.heals += 1;
                    record.controller = Some(*controller);
                    failed.retain(|c| c != controller);
                    true
                }
                TimelineEvent::Churn { flow } => {
                    report.churns += 1;
                    record.flow = Some(*flow);
                    record.churn_programmability = table.get(flow.index()).copied();
                    false
                }
            };
            record.failed = failed.clone();
            report.peak_failed = report.peak_failed.max(failed.len());

            if set_changed && failed.is_empty() {
                // Every controller is back: the table reverts to the
                // pre-failure baseline without a solve (`fail` rejects
                // empty sets by design).
                table.copy_from_slice(&baseline);
                inspect(&record, None);
                report.records.push(record);
                continue;
            }
            if !set_changed {
                inspect(&record, None);
                report.records.push(record);
                continue;
            }

            let solve_span = obs.then(|| pm_obs::span("sim.timeline.solve"));
            let scenario = net.fail_cached(&failed, cache).map_err(SimError::Sdwan)?;
            let inst = FmssmInstance::new(&scenario, prog);
            let retro_algo = RetroFlow::new();
            let pm_algo = Pm::new();
            let retro_plan = retro_algo
                .recover(&inst)
                .expect("RetroFlow always produces a plan");
            let pm_plan = pm_algo.recover(&inst).expect("PM always produces a plan");
            let (retro_metrics, _) = inst
                .evaluate(&retro_plan, retro_algo.is_flow_level(), 0.0)
                .expect("RetroFlow plan must be valid");
            let (pm_metrics, _) = inst
                .evaluate(&pm_plan, pm_algo.is_flow_level(), 0.0)
                .expect("PM plan must be valid");
            drop(solve_span);
            report.solves += 1;

            record.solved = true;
            record.offline_flows = pm_metrics.offline_flows;
            record.pm_recovered = pm_metrics.recovered_flows;
            record.retro_recovered = retro_metrics.recovered_flows;
            record.pm_total = pm_metrics.total_programmability;
            record.retro_total = retro_metrics.total_programmability;
            record.pm_min = pm_metrics.min_programmability_recoverable();
            record.retro_min = retro_metrics.min_programmability_recoverable();
            if record.offline_flows > 0 {
                let ppm = record.pm_recovered as u64 * 1_000_000 / record.offline_flows as u64;
                report.pm_worst_recovered_ppm = report.pm_worst_recovered_ppm.min(ppm);
            }

            // Refresh the per-flow programmability table: online flows sit
            // at baseline, offline flows carry PM's plan values.
            table.copy_from_slice(&baseline);
            for (i, &l) in scenario.offline_flows().iter().enumerate() {
                table[l.index()] = pm_metrics.per_flow_programmability[i];
            }

            inspect(
                &record,
                Some(&EventSolve {
                    scenario: &scenario,
                    pm_plan: &pm_plan,
                    retro_plan: &retro_plan,
                    pm_metrics: &pm_metrics,
                    retro_metrics: &retro_metrics,
                }),
            );
            report.records.push(record);
        }

        report.final_failed = failed.len();
        report.fully_recovered = failed.is_empty();
        report.baseline_restored = table == baseline;
        if obs {
            pm_obs::count("sim.timeline.replays", 1);
            pm_obs::count("sim.timeline.events", report.events as u64);
            pm_obs::count("sim.timeline.solves", report.solves as u64);
            pm_obs::count("sim.timeline.cascades", report.cascades as u64);
            pm_obs::count("sim.timeline.partitions", report.partitions as u64);
            pm_obs::count("sim.timeline.churns", report.churns as u64);
            pm_obs::count_max("sim.timeline.peak_failed", report.peak_failed as u64);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;
    use pm_topo::{builders, NodeId};

    fn space(count: u64) -> TimelineSpace {
        TimelineSpace::new(4, 12, t_seed(), count, TimelineParams::default())
    }

    fn t_seed() -> u64 {
        0x7135_11fe
    }

    fn small_net() -> SdWan {
        SdWanBuilder::new(builders::grid(3, 4))
            .controller(NodeId(0), 200)
            .controller(NodeId(3), 200)
            .controller(NodeId(8), 200)
            .controller(NodeId(11), 200)
            .all_pairs_flows()
            .build()
            .expect("grid network builds")
    }

    #[test]
    fn generation_is_deterministic_and_id_sensitive() {
        let sp = space(8);
        for id in 0..8 {
            assert_eq!(sp.generate(id), sp.generate(id), "id {id} regenerates");
        }
        assert_ne!(sp.generate(0).events, sp.generate(1).events);
        let other = TimelineSpace::new(4, 12, t_seed() ^ 1, 8, TimelineParams::default());
        assert_ne!(sp.generate(0).events, other.generate(0).events, "seeded");
    }

    #[test]
    fn generation_respects_structural_invariants() {
        let sp = space(64);
        for id in 0..64 {
            let t = sp.generate(id);
            assert!(
                t.events.windows(2).all(|w| w[0].0 <= w[1].0),
                "id {id}: events sorted"
            );
            let mut down = std::collections::BTreeSet::new();
            let mut peak = 0usize;
            for (_, ev) in &t.events {
                match ev {
                    TimelineEvent::Fail { controller, .. }
                    | TimelineEvent::PartitionStart { controller } => {
                        assert!(down.insert(controller.index()), "id {id}: double failure");
                    }
                    TimelineEvent::Recover { controller }
                    | TimelineEvent::PartitionHeal { controller } => {
                        assert!(
                            down.remove(&controller.index()),
                            "id {id}: spurious recovery"
                        );
                    }
                    TimelineEvent::Churn { flow } => assert!(flow.index() < 12),
                }
                peak = peak.max(down.len());
            }
            assert!(peak < sp.controllers(), "id {id}: all controllers down");
            assert!(
                peak <= sp.params().max_concurrent,
                "id {id}: concurrency cap broken"
            );
            assert!(down.is_empty(), "id {id}: drain left {down:?} failed");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn generate_rejects_out_of_range_ids() {
        space(3).generate(3);
    }

    #[test]
    #[should_panic(expected = "at least 2 controllers")]
    fn space_rejects_single_controller() {
        TimelineSpace::new(1, 4, 0, 1, TimelineParams::default());
    }

    #[test]
    fn replay_restores_baseline_after_full_recovery() {
        let net = small_net();
        let cache = NetCache::build(&net);
        let sp = TimelineSpace::new(
            net.controllers().len(),
            net.flows().len(),
            t_seed(),
            6,
            TimelineParams::default(),
        );
        for id in 0..6 {
            let report = sp.generate(id).replay(&net, &cache).expect("replays");
            assert_eq!(report.events, report.records.len());
            assert!(report.fully_recovered, "id {id}: drain ends recovered");
            assert!(report.baseline_restored, "id {id}: table back to baseline");
            assert_eq!(report.final_failed, 0);
            assert!(report.solves > 0, "id {id}: something failed and solved");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let net = small_net();
        let cache = NetCache::build(&net);
        let sp = TimelineSpace::new(
            net.controllers().len(),
            net.flows().len(),
            t_seed(),
            2,
            TimelineParams::default(),
        );
        let a = sp.generate(1).replay(&net, &cache).unwrap();
        let b = sp.generate(1).replay(&net, &cache).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.event_log(), b.event_log());
    }

    #[test]
    fn event_log_shape() {
        let net = small_net();
        let cache = NetCache::build(&net);
        let sp = TimelineSpace::new(
            net.controllers().len(),
            net.flows().len(),
            t_seed(),
            1,
            TimelineParams::default(),
        );
        let report = sp.generate(0).replay(&net, &cache).unwrap();
        let log = report.event_log();
        assert!(log.starts_with("timeline 0 events="));
        assert_eq!(log.lines().count(), report.events + 1);
    }
}

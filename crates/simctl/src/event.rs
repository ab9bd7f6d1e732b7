//! Events and the deterministic event queue.

use crate::time::SimTime;
use pm_sdwan::{ControllerId, FlowId, SwitchId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A control-plane message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// Controller → switch: become my slave/equal (OpenFlow role request);
    /// completing the handshake re-controls the switch.
    RoleRequest {
        /// The adopting controller.
        from: ControllerId,
        /// The switch being adopted.
        to: SwitchId,
    },
    /// Switch → controller: role reply (completes the handshake).
    RoleReply {
        /// The replying switch.
        from: SwitchId,
        /// The adopting controller.
        to: ControllerId,
    },
    /// Controller → switch: install a flow entry for `flow` (SDN mode).
    FlowMod {
        /// The sending controller.
        from: ControllerId,
        /// The target switch.
        to: SwitchId,
        /// The flow whose entry is installed.
        flow: FlowId,
    },
    /// Switch → controller: a packet of `flow` missed the flow table
    /// (entry expired); please re-install.
    PacketIn {
        /// The switch that missed.
        from: SwitchId,
        /// Its current master.
        to: ControllerId,
        /// The flow that missed.
        flow: FlowId,
    },
    /// Controller → switch: re-install the expired entry (the reply to a
    /// `PacketIn`; kept distinct from recovery `FlowMod`s so statistics
    /// do not mix).
    FlowSetup {
        /// The sending controller.
        from: ControllerId,
        /// The target switch.
        to: SwitchId,
        /// The flow being re-installed.
        flow: FlowId,
    },
}

/// A simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A controller fails; its switches become offline.
    ControllerFailure {
        /// The failing controllers.
        controllers: Vec<ControllerId>,
    },
    /// The (out-of-band) management plane hands a recovery plan to the
    /// active controllers, which start sending messages.
    StartRecovery {
        /// Opaque handle into the simulation's stored plans.
        plan_index: usize,
    },
    /// A message is delivered to its destination.
    Deliver {
        /// The message.
        message: ControlMessage,
    },
    /// A flow's entries hard-expire at every switch on its path; switches
    /// with a live master send `PacketIn`s, masterless (offline) switches
    /// silently fall back to the legacy table.
    FlowExpiry {
        /// The expiring flow.
        flow: FlowId,
    },
    /// The link between two switches fails: flow entries forwarding over it
    /// become black holes until OSPF reconverges and flushes them.
    LinkFailure {
        /// One endpoint.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
    /// OSPF finishes reconverging after a link failure: every switch's
    /// legacy table is recomputed on the surviving topology and entries
    /// over the dead link are flushed.
    OspfReconverged {
        /// One endpoint of the failed link.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
}

/// Heap entry: earliest time first; FIFO among equal times via sequence
/// numbers, so runs are fully deterministic.
#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(
            SimTime::from_ms(3.0),
            Event::StartRecovery { plan_index: 0 },
        );
        q.push(
            SimTime::from_ms(1.0),
            Event::StartRecovery { plan_index: 1 },
        );
        q.push(
            SimTime::from_ms(2.0),
            Event::StartRecovery { plan_index: 2 },
        );
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_ms())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for c in 0..5 {
            q.push(
                SimTime::from_ms(1.0),
                Event::StartRecovery { plan_index: c },
            );
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::StartRecovery { plan_index } => plan_index,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    /// FIFO among ties must survive interleaved pushes and pops: the
    /// sequence counter is monotonic over the queue's lifetime, not per
    /// batch, so entries pushed *after* a pop still sort behind earlier
    /// same-timestamp entries.
    #[test]
    fn fifo_among_ties_survives_interleaved_pops() {
        let t = SimTime::from_ms(5.0);
        let ev = |c: usize| Event::StartRecovery { plan_index: c };
        let mut q = EventQueue::new();
        q.push(t, ev(0));
        q.push(t, ev(1));
        // Pop the head, then push more ties and an earlier event.
        assert!(matches!(
            q.pop(),
            Some((_, Event::StartRecovery { plan_index: 0 }))
        ));
        q.push(t, ev(2));
        q.push(SimTime::from_ms(1.0), ev(9));
        q.push(t, ev(3));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::StartRecovery { plan_index } => plan_index,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![9, 1, 2, 3], "earliest first, then FIFO ties");
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(
            SimTime::ZERO,
            Event::ControllerFailure {
                controllers: vec![],
            },
        );
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
    }
}

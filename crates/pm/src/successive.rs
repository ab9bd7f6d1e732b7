//! Successive-failure recovery.
//!
//! The paper's introduction notes that "several controllers may fail
//! simultaneously or fail **successively**" (and its reference \[7\],
//! Matchmaker, studies exactly that regime). This module keeps recovery
//! *predictable* across a failure sequence: each new failure event extends
//! the existing recovery instead of recomputing it from scratch, so
//!
//! * switches recovered earlier keep their adopted controller (no control
//!   churn: Algorithm 1 line 17 reuses existing mappings),
//! * flows recovered earlier keep their SDN-mode switches, and
//! * only the *delta* plan needs new control messages
//!   ([`pm_sdwan::RecoveryPlan::difference`]).
//!
//! Decisions referencing a controller that subsequently failed are dropped
//! and re-made, of course.

use crate::heuristic::Pm;
use crate::instance::FmssmInstance;
use crate::PmError;
use pm_sdwan::{ControllerId, Programmability, RecoveryPlan, SdWan};

/// Stateful recovery across a sequence of failure events.
///
/// # Example
///
/// ```
/// use pm_core::SuccessiveRecovery;
/// use pm_sdwan::{ControllerId, Programmability, SdWanBuilder};
///
/// let net = SdWanBuilder::att_paper_setup().build()?;
/// let prog = Programmability::compute(&net);
/// let mut rec = SuccessiveRecovery::new();
/// let delta1 = rec.on_failure(&net, &prog, &[ControllerId(3)])?;
/// let delta2 = rec.on_failure(&net, &prog, &[ControllerId(4)])?; // C20 fails later
/// // Only the deltas need new control messages; the cumulative plan is
/// // available too.
/// assert!(delta1.sdn_count() + delta2.sdn_count() >= rec.plan().sdn_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuccessiveRecovery {
    failed: Vec<ControllerId>,
    plan: RecoveryPlan,
}

impl SuccessiveRecovery {
    /// Starts with no failures and an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// All controllers failed so far, in id order.
    pub fn failed(&self) -> &[ControllerId] {
        &self.failed
    }

    /// The cumulative recovery plan.
    pub fn plan(&self) -> &RecoveryPlan {
        &self.plan
    }

    /// Handles additional failures: extends the failure set, drops
    /// now-invalid decisions, and recovers the newly offline switches and
    /// flows while preserving everything still valid. Returns the *delta*
    /// plan (what must newly be pushed to the network); the cumulative plan
    /// is available via [`SuccessiveRecovery::plan`].
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Sdwan`] if the accumulated failure set is invalid
    /// (unknown controller, repeat, or nothing left alive).
    pub fn on_failure(
        &mut self,
        net: &SdWan,
        prog: &Programmability,
        newly_failed: &[ControllerId],
    ) -> Result<RecoveryPlan, PmError> {
        let mut failed = self.failed.clone();
        failed.extend_from_slice(newly_failed);
        let scenario = net.fail(&failed)?;
        let inst = FmssmInstance::new(&scenario, prog);
        let new_plan = Pm::new().recover_with_seed(&inst, &self.plan)?;
        let delta = new_plan.difference(&self.plan);
        self.failed = failed;
        self.failed.sort();
        self.plan = new_plan;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveryAlgorithm;
    use pm_sdwan::{PlanMetrics, SdWanBuilder, SwitchId};

    fn setup() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    #[test]
    fn successive_equals_failure_set_feasibility() {
        let (net, prog) = setup();
        let mut rec = SuccessiveRecovery::new();
        rec.on_failure(&net, &prog, &[ControllerId(3)]).unwrap();
        rec.on_failure(&net, &prog, &[ControllerId(4)]).unwrap();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        rec.plan().validate(&scenario, &prog, false).unwrap();
        assert_eq!(rec.failed(), &[ControllerId(3), ControllerId(4)]);
    }

    #[test]
    fn earlier_mappings_are_stable() {
        // The selling point: recovering C20 after C13 must not churn the
        // switches recovered for C13 — except those whose adopter is the
        // controller that failed next.
        let (net, prog) = setup();
        let mut rec = SuccessiveRecovery::new();
        rec.on_failure(&net, &prog, &[ControllerId(3)]).unwrap();
        let first: Vec<_> = rec.plan().mappings().collect();
        rec.on_failure(&net, &prog, &[ControllerId(4)]).unwrap();
        let mut stable = 0;
        for (s, c) in first {
            if c == ControllerId(4) {
                // Its adopter died; it must have been re-homed.
                assert_ne!(rec.plan().controller_of(s), Some(c));
            } else {
                assert_eq!(
                    rec.plan().controller_of(s),
                    Some(c),
                    "{s} was remapped by the second failure"
                );
                stable += 1;
            }
        }
        assert!(stable > 0, "no mapping survived to check stability");
    }

    #[test]
    fn delta_contains_only_new_decisions() {
        let (net, prog) = setup();
        let mut rec = SuccessiveRecovery::new();
        let d1 = rec.on_failure(&net, &prog, &[ControllerId(3)]).unwrap();
        let d2 = rec.on_failure(&net, &prog, &[ControllerId(4)]).unwrap();
        // A selection reappears in the second delta only if it was
        // re-homed to a different controller (its adopter failed).
        for (s, l, c) in d2.sdn_selections() {
            if d1.is_sdn(s, l) {
                let first_ctrl = d1
                    .sdn_selections()
                    .find(|&(ds, dl, _)| ds == s && dl == l)
                    .map(|(_, _, dc)| dc)
                    .unwrap();
                assert_ne!(first_ctrl, c, "selection ({s},{l}) resent unchanged");
                assert_eq!(
                    first_ctrl,
                    ControllerId(4),
                    "only dead adopters justify resend"
                );
            }
        }
        // Every cumulative decision came from one of the two deltas.
        for (s, l, c) in rec.plan().sdn_selections() {
            let in_d2 = d2
                .sdn_selections()
                .any(|(a, b, cc)| (a, b, cc) == (s, l, c));
            let in_d1 = d1
                .sdn_selections()
                .any(|(a, b, cc)| (a, b, cc) == (s, l, c));
            assert!(in_d1 || in_d2, "({s},{l},{c}) appeared from nowhere");
        }
    }

    #[test]
    fn decisions_on_failed_controllers_are_remade() {
        // Fail C2 first; some switches map to other controllers. Then fail
        // one of those adopters: its adopted switches must be re-homed.
        let (net, prog) = setup();
        let mut rec = SuccessiveRecovery::new();
        rec.on_failure(&net, &prog, &[ControllerId(0)]).unwrap();
        // Find a controller that adopted something.
        let adopter = rec
            .plan()
            .mappings()
            .map(|(_, c)| c)
            .next()
            .expect("something was adopted");
        let adopted: Vec<SwitchId> = rec
            .plan()
            .mappings()
            .filter(|&(_, c)| c == adopter)
            .map(|(s, _)| s)
            .collect();
        rec.on_failure(&net, &prog, &[adopter]).unwrap();
        let scenario = net.fail(rec.failed()).unwrap();
        rec.plan().validate(&scenario, &prog, false).unwrap();
        for s in adopted {
            assert_ne!(
                rec.plan().controller_of(s),
                Some(adopter),
                "{s} still on dead {adopter}"
            );
        }
    }

    #[test]
    fn comparable_to_from_scratch_recovery() {
        let (net, prog) = setup();
        let mut rec = SuccessiveRecovery::new();
        rec.on_failure(&net, &prog, &[ControllerId(3)]).unwrap();
        rec.on_failure(&net, &prog, &[ControllerId(4)]).unwrap();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&scenario, &prog);
        let scratch = Pm::new().recover(&inst).unwrap();
        let m_inc = PlanMetrics::compute(&scenario, &prog, rec.plan(), 0.0);
        let m_scr = PlanMetrics::compute(&scenario, &prog, &scratch, 0.0);
        // Stability costs some optimality; require at least 80 % of the
        // from-scratch total programmability.
        assert!(
            m_inc.total_programmability as f64 >= 0.8 * m_scr.total_programmability as f64,
            "incremental {} vs scratch {}",
            m_inc.total_programmability,
            m_scr.total_programmability
        );
    }

    #[test]
    fn rejects_invalid_accumulation() {
        let (net, prog) = setup();
        let mut rec = SuccessiveRecovery::new();
        rec.on_failure(&net, &prog, &[ControllerId(3)]).unwrap();
        // Repeating the same controller is invalid.
        assert!(rec.on_failure(&net, &prog, &[ControllerId(3)]).is_err());
        // State must be unchanged after the error.
        assert_eq!(rec.failed(), &[ControllerId(3)]);
    }
}

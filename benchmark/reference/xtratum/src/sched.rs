//! Cyclic-plan scheduler (temporal separation).
//!
//! "At a particular point in time a software partition has the sole
//! control over the onboard computer." (paper, Section I) — the scheduler
//! walks the active plan's slot list; plan switches requested with
//! `XM_switch_sched_plan` take effect at the next major-frame boundary,
//! exactly as in XM.

use crate::config::PlanCfg;
use std::sync::Arc;

/// Scheduler runtime state.
#[derive(Debug, Clone)]
pub struct Scheduler {
    // Arc-shared: the plan table is fixed at boot; only the indices
    // beside it change, keeping clones allocation-free.
    plans: Arc<Vec<PlanCfg>>,
    current: usize,
    pending: Option<usize>,
    /// Major frames completed since boot.
    pub frames_completed: u64,
    /// Total slot overruns detected (diagnostics).
    pub overruns: u64,
}

impl Scheduler {
    /// Builds a scheduler over the configured plans; plan 0 is initial.
    pub fn new(plans: Vec<PlanCfg>) -> Self {
        assert!(!plans.is_empty(), "at least one plan required");
        Scheduler {
            plans: Arc::new(plans),
            current: 0,
            pending: None,
            frames_completed: 0,
            overruns: 0,
        }
    }

    /// The active plan.
    pub fn current_plan(&self) -> &PlanCfg {
        &self.plans[self.current]
    }

    /// A shared handle on the active plan, usable while the kernel is
    /// mutated (the frame loop reads slots as it advances time).
    pub fn current_plan_shared(&self) -> (Arc<Vec<PlanCfg>>, usize) {
        (Arc::clone(&self.plans), self.current)
    }

    /// The active plan id.
    pub fn current_plan_id(&self) -> u32 {
        self.plans[self.current].id
    }

    /// Plan switch pending for the next frame boundary, if any.
    pub fn pending_plan_id(&self) -> Option<u32> {
        self.pending.map(|i| self.plans[i].id)
    }

    /// Number of configured plans.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Requests a switch to `plan_id` at the next major-frame boundary.
    /// Returns `false` for unknown plans.
    pub fn request_switch(&mut self, plan_id: i32) -> bool {
        if plan_id < 0 {
            return false;
        }
        match self.plans.iter().position(|p| p.id == plan_id as u32) {
            Some(idx) => {
                // Switching to the current plan is a valid no-op request.
                self.pending = Some(idx);
                true
            }
            None => false,
        }
    }

    /// Called at each major-frame boundary: applies any pending switch and
    /// bumps the frame counter. Returns `true` if the plan changed.
    pub fn frame_boundary(&mut self) -> bool {
        self.frames_completed += 1;
        if let Some(next) = self.pending.take() {
            let changed = next != self.current;
            self.current = next;
            changed
        } else {
            false
        }
    }

    /// [`Scheduler::frame_boundary`] plus the plan-id bookkeeping the
    /// kernel's frame loop needs: returns `(from, to)` plan ids when the
    /// active plan actually changed, so the caller does not have to look
    /// the ids up around the call.
    pub fn finish_frame(&mut self) -> Option<(u32, u32)> {
        let from = self.plans[self.current].id;
        if self.frame_boundary() {
            Some((from, self.plans[self.current].id))
        } else {
            None
        }
    }

    /// Records a detected slot overrun.
    pub fn note_overrun(&mut self) {
        self.overruns += 1;
    }

    /// Cold-reset: back to plan 0, counters cleared.
    pub fn cold_reset(&mut self) {
        self.current = 0;
        self.pending = None;
        self.frames_completed = 0;
        self.overruns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlotCfg;

    fn plans() -> Vec<PlanCfg> {
        vec![
            PlanCfg {
                id: 0,
                major_frame_us: 1000,
                slots: vec![SlotCfg { partition: 0, start_us: 0, duration_us: 1000 }],
            },
            PlanCfg {
                id: 1,
                major_frame_us: 2000,
                slots: vec![SlotCfg { partition: 0, start_us: 0, duration_us: 2000 }],
            },
        ]
    }

    #[test]
    fn boots_on_plan_zero() {
        let s = Scheduler::new(plans());
        assert_eq!(s.current_plan_id(), 0);
        assert_eq!(s.plan_count(), 2);
        assert_eq!(s.pending_plan_id(), None);
    }

    #[test]
    fn switch_takes_effect_at_frame_boundary() {
        let mut s = Scheduler::new(plans());
        assert!(s.request_switch(1));
        assert_eq!(s.current_plan_id(), 0, "not yet");
        assert_eq!(s.pending_plan_id(), Some(1));
        assert!(s.frame_boundary());
        assert_eq!(s.current_plan_id(), 1);
        assert_eq!(s.frames_completed, 1);
    }

    #[test]
    fn switch_to_current_is_noop_but_valid() {
        let mut s = Scheduler::new(plans());
        assert!(s.request_switch(0));
        assert!(!s.frame_boundary());
        assert_eq!(s.current_plan_id(), 0);
    }

    #[test]
    fn invalid_plan_rejected() {
        let mut s = Scheduler::new(plans());
        assert!(!s.request_switch(-1));
        assert!(!s.request_switch(7));
        assert_eq!(s.pending_plan_id(), None);
    }

    #[test]
    fn cold_reset_restores_plan_zero() {
        let mut s = Scheduler::new(plans());
        s.request_switch(1);
        s.frame_boundary();
        s.note_overrun();
        s.cold_reset();
        assert_eq!(s.current_plan_id(), 0);
        assert_eq!(s.frames_completed, 0);
        assert_eq!(s.overruns, 0);
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn empty_plan_table_panics() {
        let _ = Scheduler::new(vec![]);
    }
}

//! Virtual timers (clock / timer management).
//!
//! XM offers each partition one timer per clock: `XM_HW_CLOCK` (wall time)
//! and `XM_EXEC_CLOCK` (partition execution time). Hardware-clock timers
//! are managed in software by the kernel: at every scheduling point the
//! kernel processes expirations, delivers the virtual interrupt, and
//! re-arms periodic timers.
//!
//! ## The legacy `XM_set_timer` defect (paper Section IV)
//!
//! > "When invoking XM_set_timer with small intervals, such as 1 µs, the
//! > next execution time is always expired by the time it is checked and
//! > the timer handler is invoked again. This leads to a recursive loop
//! > resulting in a stack overflow."
//!
//! [`process_hw_timer`] models exactly that: the handler costs
//! `handler_cost_us` of kernel time; if the re-armed expiry is already in
//! the past *when the handler finishes*, the handler re-enters recursively
//! and kernel stack depth grows. Once depth exceeds the kernel stack
//! capacity the function reports a stack overflow, which the kernel turns
//! into a fatal HM event (XM halt). Intervals larger than the handler
//! cost catch up at constant stack depth — which is why the issue only
//! bites for tiny intervals. That catch-up is computed in closed form:
//! its cost does not grow with the number of missed expiries.

/// One partition virtual timer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VTimer {
    /// Whether the timer is armed.
    pub armed: bool,
    /// Absolute expiry on the timer's clock (µs).
    pub next_expiry: i64,
    /// Re-arm period; `<= 0` means one-shot (the legacy build reaches
    /// here with negative intervals — they behave as one-shot).
    pub interval: i64,
    /// Expirations delivered since arming (diagnostics).
    pub delivered: u64,
}

impl VTimer {
    /// Arms the timer.
    pub fn arm(&mut self, abs: i64, interval: i64) {
        self.armed = true;
        self.next_expiry = abs;
        self.interval = interval;
        self.delivered = 0;
    }

    /// Disarms the timer.
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// True when the timer is armed with an expiry at or before `now` —
    /// the "needs processing" predicate the kernel's event horizon
    /// summarises across all timers.
    pub fn due_by(&self, now: i64) -> bool {
        self.armed && self.next_expiry <= now
    }
}

/// Result of processing a hardware-clock virtual timer up to `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// Processing finished; `delivered` expirations were turned into
    /// virtual interrupts.
    Done {
        /// Number of expirations delivered during this processing pass.
        delivered: u32,
    },
    /// The handler recursion exhausted the kernel stack after `depth`
    /// nested frames — the legacy `XM_set_timer(0, 1, 1)` failure. The
    /// kernel must raise a fatal HM event.
    StackOverflow {
        /// Nesting depth reached when the stack gave out.
        depth: u32,
        /// Expirations delivered before the overflow.
        delivered: u32,
    },
}

/// Processes expirations of a software-managed (hardware-clock) virtual
/// timer up to time `now`.
///
/// `handler_cost_us` is the simulated execution time of one handler
/// invocation; `stack_limit` is the kernel stack capacity in frames.
///
/// The result and the timer state equal [`process_hw_timer_reference`]'s,
/// the per-expiry loop that specifies them. When the timer is periodic
/// with `interval > handler_cost_us`, every handler returns before the
/// next expiry, so the stack depth stays 1 and the missed expiries
/// `next_expiry, next_expiry + interval, ... <= now` are skipped in O(1);
/// only the last one runs through the loop, which also handles its
/// re-arm saturating at `i64::MAX`. One-shot timers deliver at most once,
/// and `interval <= handler_cost_us` recurses one frame deeper per expiry,
/// so the loop ends within `stack_limit` iterations in both cases.
pub fn process_hw_timer(
    t: &mut VTimer,
    now: i64,
    handler_cost_us: i64,
    stack_limit: u32,
) -> ProcessOutcome {
    #[cfg(debug_assertions)]
    let shadow = {
        let mut r = *t;
        (process_hw_timer_reference(&mut r, now, handler_cost_us, stack_limit), r)
    };
    let mut skipped = 0u32;
    if t.armed && t.next_expiry <= now && t.interval > handler_cost_us.max(0) {
        // Expiries before the last due one; each lies at or before `now`,
        // so none of their re-arms saturates.
        let missed = (now as i128 - t.next_expiry as i128) / t.interval as i128;
        t.next_expiry = (t.next_expiry as i128 + missed * t.interval as i128) as i64;
        t.delivered = t.delivered.wrapping_add(missed as u64);
        skipped = missed as u32;
    }
    let out = match process_hw_timer_reference(t, now, handler_cost_us, stack_limit) {
        ProcessOutcome::Done { delivered } => {
            ProcessOutcome::Done { delivered: delivered.wrapping_add(skipped) }
        }
        ProcessOutcome::StackOverflow { depth, delivered } => {
            ProcessOutcome::StackOverflow { depth, delivered: delivered.wrapping_add(skipped) }
        }
    };
    #[cfg(debug_assertions)]
    debug_assert_eq!((out, *t), shadow, "closed-form vtimer catch-up diverged from the loop");
    out
}

/// The per-expiry processing loop, the specification [`process_hw_timer`]
/// must match: one iteration per expiry due by `now`. Kept as the
/// reference for the debug-build shadow check, the property tests and
/// the microbenchmark; [`process_hw_timer`] runs it only for the
/// iterations it cannot skip.
pub fn process_hw_timer_reference(
    t: &mut VTimer,
    now: i64,
    handler_cost_us: i64,
    stack_limit: u32,
) -> ProcessOutcome {
    let mut delivered = 0u32;
    let mut depth = 1u32;
    // `cursor` tracks kernel time while handlers execute.
    let mut cursor = now.min(t.next_expiry);
    while t.armed && t.next_expiry <= now {
        delivered += 1;
        t.delivered += 1;
        cursor = cursor.max(t.next_expiry).saturating_add(handler_cost_us);
        if t.interval > 0 {
            t.next_expiry = t.next_expiry.saturating_add(t.interval);
            if t.next_expiry <= cursor {
                // The re-armed expiry is already past when the handler
                // checks it: the handler is re-entered without unwinding.
                depth += 1;
                if depth > stack_limit {
                    return ProcessOutcome::StackOverflow { depth, delivered };
                }
            } else {
                // Handler returned before the next expiry: plain catch-up
                // iteration at the original stack depth.
                depth = 1;
            }
        } else {
            t.disarm();
        }
    }
    ProcessOutcome::Done { delivered }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COST: i64 = 12;
    const LIMIT: u32 = 64;

    #[test]
    fn one_shot_delivers_once() {
        let mut t = VTimer::default();
        t.arm(100, 0);
        assert_eq!(
            process_hw_timer(&mut t, 50, COST, LIMIT),
            ProcessOutcome::Done { delivered: 0 }
        );
        assert_eq!(
            process_hw_timer(&mut t, 100, COST, LIMIT),
            ProcessOutcome::Done { delivered: 1 }
        );
        assert!(!t.armed);
        assert_eq!(
            process_hw_timer(&mut t, 1000, COST, LIMIT),
            ProcessOutcome::Done { delivered: 0 }
        );
    }

    #[test]
    fn negative_interval_behaves_one_shot() {
        // Legacy builds accept negative intervals (the Silent finding);
        // the arming layer lets them through and the timer fires once.
        let mut t = VTimer::default();
        t.arm(1, i64::MIN);
        assert_eq!(
            process_hw_timer(&mut t, 10, COST, LIMIT),
            ProcessOutcome::Done { delivered: 1 }
        );
        assert!(!t.armed);
    }

    #[test]
    fn healthy_interval_catches_up_iteratively() {
        let mut t = VTimer::default();
        t.arm(1, 50); // 50 µs > 12 µs handler cost
        match process_hw_timer(&mut t, 50_000, COST, LIMIT) {
            ProcessOutcome::Done { delivered } => assert_eq!(delivered, 1000),
            o => panic!("unexpected {o:?}"),
        }
        assert!(t.armed);
        assert!(t.next_expiry > 50_000);
    }

    #[test]
    fn tiny_interval_overflows_kernel_stack() {
        // The paper's XM_set_timer(0, 1, 1) reproduction.
        let mut t = VTimer::default();
        t.arm(1, 1);
        match process_hw_timer(&mut t, 50_000, COST, LIMIT) {
            ProcessOutcome::StackOverflow { depth, delivered } => {
                assert_eq!(depth, LIMIT + 1);
                assert_eq!(delivered, LIMIT);
            }
            o => panic!("expected stack overflow, got {o:?}"),
        }
    }

    #[test]
    fn interval_equal_to_handler_cost_still_recurses() {
        // next = exp + 12, cursor = exp + 12 → next <= cursor → recursion.
        let mut t = VTimer::default();
        t.arm(1, COST);
        assert!(matches!(
            process_hw_timer(&mut t, 100_000, COST, LIMIT),
            ProcessOutcome::StackOverflow { .. }
        ));
    }

    #[test]
    fn interval_just_above_handler_cost_is_safe() {
        let mut t = VTimer::default();
        t.arm(1, COST + 1);
        assert!(matches!(
            process_hw_timer(&mut t, 100_000, COST, LIMIT),
            ProcessOutcome::Done { .. }
        ));
    }

    #[test]
    fn huge_interval_never_overflows_arithmetic() {
        let mut t = VTimer::default();
        t.arm(1, i64::MAX);
        assert_eq!(
            process_hw_timer(&mut t, 10, COST, LIMIT),
            ProcessOutcome::Done { delivered: 1 }
        );
        assert!(t.armed);
        assert_eq!(t.next_expiry, i64::MAX); // saturated, no wrap
        assert_eq!(
            process_hw_timer(&mut t, 1_000_000, COST, LIMIT),
            ProcessOutcome::Done { delivered: 0 }
        );
    }

    #[test]
    fn delivered_counter_accumulates() {
        let mut t = VTimer::default();
        t.arm(0, 100);
        process_hw_timer(&mut t, 1_000, COST, LIMIT);
        process_hw_timer(&mut t, 2_000, COST, LIMIT);
        assert_eq!(t.delivered, 21); // 0,100,...,2000 inclusive
    }
}

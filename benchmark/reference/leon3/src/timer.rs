//! GRLIB GPTIMER-style timer unit.
//!
//! The LEON3 GPTIMER provides a prescaler plus several down-counting timer
//! units, each able to raise an interrupt on underflow and optionally
//! auto-reload. XtratuM uses one unit as the scheduler tick source and one
//! for partition virtual timers; we expose two units by default (matching
//! the GR712/EagleEye configuration) but the count is configurable.

use crate::TimeUs;

/// One down-counting timer unit.
#[derive(Debug, Clone, Default)]
pub struct TimerUnit {
    /// Absolute expiry instant (µs). `None` = disarmed.
    pub expiry: Option<TimeUs>,
    /// Auto-reload period (µs). `None` = one-shot.
    pub period: Option<TimeUs>,
    /// IRQ line (IRQMP level) raised on expiry.
    pub irq: u8,
    /// Count of expiries since reset (diagnostics / trap-storm detection).
    pub fired: u64,
}

/// Most expiries a single unit delivers within one advance; catch-up
/// beyond this resumes on the next advance. The machine layer's
/// trap-storm threshold sits far below this, so the valve is
/// unobservable there.
const MAX_FIRES_PER_ADVANCE: u64 = 1_000_000;

/// The timer block: a set of units sharing one time base.
#[derive(Debug, Clone)]
pub struct GpTimer {
    units: Vec<TimerUnit>,
    /// Cached earliest pending expiry across all units (always exact, so
    /// [`GpTimer::next_expiry`] and the no-event early exit in
    /// [`GpTimer::advance_to_with`] are O(1)).
    next: Option<TimeUs>,
}

impl GpTimer {
    /// Creates a timer block with `n` units, assigning IRQ lines starting
    /// at `base_irq` (GPTIMER on LEON3 conventionally uses 6, 7, ...).
    pub fn new(n: usize, base_irq: u8) -> Self {
        let units =
            (0..n).map(|i| TimerUnit { irq: base_irq + i as u8, ..Default::default() }).collect();
        GpTimer { units, next: None }
    }

    fn recompute_next(&mut self) {
        self.next = self.units.iter().filter_map(|u| u.expiry).min();
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the block has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Immutable unit access.
    pub fn unit(&self, idx: usize) -> Option<&TimerUnit> {
        self.units.get(idx)
    }

    /// Restores to `src`'s state in place without reallocating the unit
    /// table (part of the campaign executor's per-test state reset).
    pub fn restore_from(&mut self, src: &GpTimer) {
        self.units.clone_from(&src.units);
        self.next = src.next;
    }

    /// Arms unit `idx` to expire at absolute time `expiry`; `period`
    /// enables auto-reload.
    pub fn arm(&mut self, idx: usize, expiry: TimeUs, period: Option<TimeUs>) -> bool {
        match self.units.get_mut(idx) {
            Some(u) => {
                u.expiry = Some(expiry);
                u.period = period;
                // Re-arming can move a deadline later, so a min-merge is
                // not enough to keep the cache exact.
                self.recompute_next();
                true
            }
            None => false,
        }
    }

    /// Disarms unit `idx`.
    pub fn disarm(&mut self, idx: usize) -> bool {
        match self.units.get_mut(idx) {
            Some(u) => {
                u.expiry = None;
                u.period = None;
                self.recompute_next();
                true
            }
            None => false,
        }
    }

    /// The earliest pending expiry across all units, if any.
    pub fn next_expiry(&self) -> Option<TimeUs> {
        self.next
    }

    /// Advances the time base to `now`, collecting `(unit_index, irq)` for
    /// every expiry in `(prev, now]`. Convenience wrapper over
    /// [`GpTimer::advance_to_with`] that materialises the expiries in a
    /// `Vec`, one entry per fire; the kernel hot path uses the sink
    /// variant directly so no heap allocation happens per advance.
    pub fn advance_to(&mut self, now: TimeUs) -> Vec<(usize, u8)> {
        let mut fired = Vec::new();
        self.advance_to_with(now, &mut |i, irq, count| {
            for _ in 0..count {
                fired.push((i, irq));
            }
        });
        fired
    }

    /// Advances the time base to `now`, invoking `sink(unit_index, irq,
    /// count)` once per expiring unit, in unit order, where `count` is how
    /// many times that unit fires in `(prev, now]`. Periodic units re-arm;
    /// a periodic unit whose period is shorter than the advance window
    /// fires once per elapsed period (this is what floods the IRQ
    /// controller in the `XM_set_timer(1,1,1)` reproduction), but the fire
    /// count is computed in closed form so even a million-expiry storm
    /// costs O(1) per unit. A per-advance valve caps any single unit at
    /// [`MAX_FIRES_PER_ADVANCE`]; the remainder is delivered by later
    /// advances.
    pub fn advance_to_with(&mut self, now: TimeUs, sink: &mut dyn FnMut(usize, u8, u64)) {
        match self.next {
            Some(e) if e <= now => {}
            // No armed unit is due: the advance is a pure clock move with
            // no timer state change. This O(1) exit is what the kernel's
            // event-horizon fast path leans on.
            _ => return,
        }
        for (i, u) in self.units.iter_mut().enumerate() {
            let Some(exp) = u.expiry else { continue };
            if exp > now {
                continue;
            }
            match u.period {
                Some(p) if p > 0 => {
                    // Fires at exp, exp + p, ..., the last one <= now:
                    // (now - exp) / p + 1 of them, capped per advance.
                    let count = ((now - exp) / p + 1).min(MAX_FIRES_PER_ADVANCE);
                    u.fired += count;
                    u.expiry = Some(exp + count * p);
                    sink(i, u.irq, count);
                }
                _ => {
                    u.fired += 1;
                    u.expiry = None;
                    sink(i, u.irq, 1);
                }
            }
        }
        self.recompute_next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fires_once() {
        let mut t = GpTimer::new(2, 6);
        assert!(t.arm(0, 100, None));
        assert!(t.advance_to(99).is_empty());
        let fired = t.advance_to(100);
        assert_eq!(fired, vec![(0, 6)]);
        assert!(t.advance_to(1000).is_empty());
        assert_eq!(t.unit(0).unwrap().fired, 1);
    }

    #[test]
    fn periodic_fires_per_period() {
        let mut t = GpTimer::new(1, 6);
        t.arm(0, 10, Some(10));
        let fired = t.advance_to(35);
        assert_eq!(fired.len(), 3); // at 10, 20, 30
        assert_eq!(t.unit(0).unwrap().expiry, Some(40));
    }

    #[test]
    fn tiny_period_floods() {
        let mut t = GpTimer::new(1, 8);
        t.arm(0, 1, Some(1));
        let fired = t.advance_to(10_000);
        assert_eq!(fired.len(), 10_000);
    }

    #[test]
    fn disarm_stops_firing() {
        let mut t = GpTimer::new(1, 6);
        t.arm(0, 10, Some(10));
        t.advance_to(10);
        assert!(t.disarm(0));
        assert!(t.advance_to(1000).is_empty());
    }

    #[test]
    fn next_expiry_is_min() {
        let mut t = GpTimer::new(3, 6);
        t.arm(0, 50, None);
        t.arm(2, 20, None);
        assert_eq!(t.next_expiry(), Some(20));
        t.advance_to(20);
        assert_eq!(t.next_expiry(), Some(50));
    }

    #[test]
    fn out_of_range_unit_rejected() {
        let mut t = GpTimer::new(2, 6);
        assert!(!t.arm(5, 10, None));
        assert!(!t.disarm(5));
        assert!(t.unit(5).is_none());
    }

    #[test]
    fn irq_lines_assigned_sequentially() {
        let t = GpTimer::new(2, 6);
        assert_eq!(t.unit(0).unwrap().irq, 6);
        assert_eq!(t.unit(1).unwrap().irq, 7);
    }

    #[test]
    fn zero_period_degrades_to_one_shot() {
        let mut t = GpTimer::new(1, 6);
        t.arm(0, 5, Some(0));
        assert_eq!(t.advance_to(100).len(), 1);
        assert_eq!(t.unit(0).unwrap().expiry, None);
    }

    /// Regression: the old safety valve tested the unit's *lifetime* fired
    /// count (`fired % 1_000_000 == 0`), so a unit whose count reached a
    /// 1M multiple mid-advance stopped after that fire and silently
    /// dropped the rest of the window. The valve is per-advance now: a
    /// second advance straddling the boundary must deliver every expiry.
    #[test]
    fn valve_is_per_advance_not_lifetime() {
        let mut t = GpTimer::new(1, 6);
        t.arm(0, 1, Some(1));
        // 999_999 fires bring the lifetime count one short of the old
        // valve's modulus...
        assert_eq!(t.advance_to(999_999).len(), 999_999);
        // ... so this advance crosses it mid-way. The old code fired once
        // (count 1_000_000, % 1M == 0 -> break) and dropped 1000 expiries.
        assert_eq!(t.advance_to(1_001_000).len(), 1001);
        assert_eq!(t.unit(0).unwrap().fired, 1_001_000);
        assert_eq!(t.next_expiry(), Some(1_001_001));
    }

    /// The per-advance valve itself: a single advance spanning more than
    /// `MAX_FIRES_PER_ADVANCE` periods delivers exactly the cap and leaves
    /// the unit re-armed to continue from where the cap stopped it.
    #[test]
    fn valve_caps_single_advance() {
        let mut t = GpTimer::new(1, 6);
        t.arm(0, 1, Some(1));
        let mut total = 0u64;
        t.advance_to_with(2_500_000, &mut |_, _, count| total += count);
        assert_eq!(total, MAX_FIRES_PER_ADVANCE);
        assert_eq!(t.next_expiry(), Some(1 + MAX_FIRES_PER_ADVANCE));
    }

    /// Closed-form batching must agree with first-principles expiry
    /// enumeration on awkward phase/period combinations.
    #[test]
    fn closed_form_matches_enumeration() {
        for (start, period, to) in
            [(10u64, 7u64, 94u64), (5, 1, 5), (5, 1, 4), (3, 1000, 3), (0, 9, 100), (99, 100, 100)]
        {
            let mut t = GpTimer::new(1, 6);
            t.arm(0, start, Some(period));
            let fired = t.advance_to(to);
            let expected = (0..).map(|k| start + k * period).take_while(|&e| e <= to).count();
            assert_eq!(fired.len(), expected, "start {start} period {period} to {to}");
            let next = start + expected as u64 * period;
            assert_eq!(t.next_expiry(), Some(next));
        }
    }
}

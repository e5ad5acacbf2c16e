//! The composed machine with a TSIM-like health model.
//!
//! A real fault-injection campaign distinguishes "the kernel halted" from
//! "the simulator itself died" — the paper's `XM_set_timer(1, 1, 1)` test
//! *crashed TSIM*. [`Machine`] therefore carries a [`SimHealth`] state and
//! detects the condition that killed TSIM: an unbounded flood of timer
//! traps within one scheduling advance.

use crate::addrspace::AddressSpace;
use crate::irqmp::Irqmp;
use crate::timer::GpTimer;
use crate::trap::Trap;
use crate::uart::Uart;
use crate::TimeUs;

/// Simulator health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimHealth {
    /// The simulator is executing normally.
    Running,
    /// The simulator itself has died (distinct from a kernel halt). The
    /// classifier treats this as a Catastrophic outcome.
    Crashed {
        /// Why the simulator died (e.g. "timer trap storm").
        reason: String,
        /// Simulated time of death.
        at: TimeUs,
    },
}

/// Tunables for the machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of GPTIMER units (LEON3 boards typically expose 2).
    pub timer_units: usize,
    /// First IRQ line used by the timer block.
    pub timer_base_irq: u8,
    /// Timer expiries tolerated within a single `advance_to` before the
    /// simulator is considered crashed by trap flood.
    pub trap_storm_threshold: usize,
    /// Maximum retained trap-log entries.
    pub trap_log_limit: usize,
    /// UART capture byte budget.
    pub uart_limit: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            timer_units: 2,
            timer_base_irq: 6,
            trap_storm_threshold: 4096,
            trap_log_limit: 1024,
            uart_limit: 64 * 1024,
        }
    }
}

/// The simulated LEON3 board.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Physical memory and protection contexts.
    pub mem: AddressSpace,
    /// Interrupt controller.
    pub irqmp: Irqmp,
    /// Console.
    pub uart: Uart,
    /// Timer block.
    pub timers: GpTimer,
    now: TimeUs,
    health: SimHealth,
    trap_log: Vec<(TimeUs, Trap)>,
    trap_total: u64,
    cfg: MachineConfig,
    /// Reusable buffer of distinct `(unit, irq)` pairs fired during one
    /// `advance_to_with`; sized once at construction so the hot path never
    /// heap-allocates.
    fired_scratch: Vec<(usize, u8)>,
}

impl Machine {
    /// Builds a machine from a config; memory regions are added by the
    /// kernel's boot code.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            mem: AddressSpace::new(),
            irqmp: Irqmp::new(),
            uart: Uart::new(cfg.uart_limit),
            timers: GpTimer::new(cfg.timer_units, cfg.timer_base_irq),
            now: 0,
            health: SimHealth::Running,
            trap_log: Vec::new(),
            trap_total: 0,
            fired_scratch: Vec::with_capacity(cfg.timer_units),
            cfg,
        }
    }

    /// Current simulated time (µs since power-on).
    pub fn now(&self) -> TimeUs {
        self.now
    }

    /// Simulator health.
    pub fn health(&self) -> &SimHealth {
        &self.health
    }

    /// True while the simulator is alive.
    pub fn is_running(&self) -> bool {
        matches!(self.health, SimHealth::Running)
    }

    /// Kills the simulator (used by trap-storm detection; also callable by
    /// fault-injection hooks that model host-level failures).
    pub fn crash(&mut self, reason: impl Into<String>) {
        if self.is_running() {
            flightrec::record(
                self.now,
                flightrec::EventKind::SimCrashed,
                flightrec::NO_PARTITION,
                0,
                0,
                0,
            );
            self.health = SimHealth::Crashed { reason: reason.into(), at: self.now };
        }
    }

    /// Advances simulated time to `t`, firing timers into the IRQ
    /// controller. Returns the `(unit, irq)` expiry list, empty if the
    /// simulator is dead. A flood of expiries beyond
    /// [`MachineConfig::trap_storm_threshold`] crashes the simulator —
    /// the TSIM behaviour the paper observed for `XM_set_timer(1,1,1)`.
    pub fn advance_to(&mut self, t: TimeUs) -> Vec<(usize, u8)> {
        if !self.is_running() {
            return Vec::new();
        }
        if t <= self.now {
            return Vec::new();
        }
        let fired = self.timers.advance_to(t);
        self.now = t;
        if fired.len() >= self.cfg.trap_storm_threshold {
            self.crash(format!(
                "timer trap storm: {} timer traps in one advance (threshold {})",
                fired.len(),
                self.cfg.trap_storm_threshold
            ));
            return fired;
        }
        if flightrec::active() {
            let mut last = None;
            for &(unit, irq) in &fired {
                if last != Some((unit, irq)) {
                    self.record_expiry(t, unit, irq);
                    last = Some((unit, irq));
                }
            }
        }
        for &(_, irq) in &fired {
            self.irqmp.raise(irq);
        }
        fired
    }

    /// Flight-records one distinct timer expiry and the IRQ it raises.
    fn record_expiry(&self, t: TimeUs, unit: usize, irq: u8) {
        use flightrec::{EventKind, NO_PARTITION};
        flightrec::record(t, EventKind::TimerExpiry, NO_PARTITION, unit as u32, irq as u64, 0);
        flightrec::record(t, EventKind::IrqRaised, NO_PARTITION, irq as u32, unit as u64, 0);
    }

    /// Allocation-free variant of [`Machine::advance_to`]: instead of
    /// materialising every expiry, invokes `sink(unit, irq)` once per
    /// *distinct* `(unit, irq)` pair (in unit order) and returns the total
    /// expiry count. IRQ raising and the kernel-side expiry handling are
    /// both idempotent per pair, and a unit's expiries within one advance
    /// all carry the same IRQ line, so the distinct pairs — at most one
    /// per unit — fully determine the machine state `advance_to` would
    /// have produced, without the per-call `Vec` of (potentially millions
    /// of) individual events. Storm detection still sees the total count.
    pub fn advance_to_with(&mut self, t: TimeUs, sink: &mut dyn FnMut(usize, u8)) -> usize {
        if !self.is_running() || t <= self.now {
            return 0;
        }
        let mut scratch = std::mem::take(&mut self.fired_scratch);
        scratch.clear();
        let mut total = 0usize;
        self.timers.advance_to_with(t, &mut |i, irq, count| {
            total += count as usize;
            // Expiries arrive unit-ordered, so duplicates are adjacent.
            if scratch.last() != Some(&(i, irq)) {
                scratch.push((i, irq));
            }
        });
        self.now = t;
        if total >= self.cfg.trap_storm_threshold {
            self.crash(format!(
                "timer trap storm: {total} timer traps in one advance (threshold {})",
                self.cfg.trap_storm_threshold
            ));
        } else {
            for &(unit, irq) in &scratch {
                self.record_expiry(t, unit, irq);
                self.irqmp.raise(irq);
            }
        }
        // The caller sees fired pairs even on a storm, exactly as the
        // Vec-returning path hands the flood back to the kernel.
        for &(i, irq) in &scratch {
            sink(i, irq);
        }
        self.fired_scratch = scratch;
        total
    }

    /// O(1) fast-path advance for event-free windows: moves the clock to
    /// `t` only when no timer unit is due by then, and reports whether
    /// the advance completed (which includes the trivial `t <= now` and
    /// dead-simulator cases, where a full advance would be a no-op too).
    /// On `false` the machine is untouched and the caller must run the
    /// full [`Machine::advance_to_with`] path. When it succeeds it is
    /// byte-identical to a zero-expiry slow advance: no fires, no
    /// flight-recorder events, no IRQ changes — just the clock.
    pub fn advance_quiescent(&mut self, t: TimeUs) -> bool {
        if !self.is_running() || t <= self.now {
            return true;
        }
        match self.timers.next_expiry() {
            Some(e) if e <= t => false,
            _ => {
                self.now = t;
                true
            }
        }
    }

    /// Advances by a delta.
    pub fn advance(&mut self, dt: TimeUs) -> Vec<(usize, u8)> {
        self.advance_to(self.now + dt)
    }

    /// Records a trap occurrence for later analysis (the HM and the
    /// robustness log analyser read this).
    pub fn record_trap(&mut self, trap: Trap) {
        self.trap_total += 1;
        if self.trap_log.len() < self.cfg.trap_log_limit {
            self.trap_log.push((self.now, trap));
        }
    }

    /// All retained trap records.
    pub fn traps(&self) -> &[(TimeUs, Trap)] {
        &self.trap_log
    }

    /// Total traps recorded (including those beyond the retention limit).
    pub fn trap_total(&self) -> u64 {
        self.trap_total
    }

    /// Restores the whole board to `src`'s state in place. `src` must be
    /// the machine this one was cloned from (or last restored to),
    /// unmodified since — the memory restore copies back only the pages
    /// written after that point (see [`AddressSpace::restore_from`]).
    /// Allocation-free after the first call warms the capacities.
    pub fn restore_from(&mut self, src: &Machine) {
        // Exhaustive destructuring: adding a field without restoring it
        // becomes a compile error, not a silent determinism bug.
        let Machine {
            mem,
            irqmp,
            uart,
            timers,
            now,
            health,
            trap_log,
            trap_total,
            cfg,
            fired_scratch,
        } = self;
        mem.restore_from(&src.mem);
        irqmp.clone_from(&src.irqmp);
        uart.restore_from(&src.uart);
        timers.restore_from(&src.timers);
        *now = src.now;
        health.clone_from(&src.health);
        trap_log.clone_from(&src.trap_log);
        *trap_total = src.trap_total;
        cfg.clone_from(&src.cfg);
        fired_scratch.clone_from(&src.fired_scratch);
    }

    /// Warm reset: clears interrupts, timers, traps, keeps memory and time.
    pub fn warm_reset(&mut self) {
        self.irqmp.clear_all();
        let n = self.timers.len();
        for i in 0..n {
            self.timers.disarm(i);
        }
        self.trap_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrspace::{Owner, Perms, Region};

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        m.mem
            .add_region(Region {
                name: "ram".into(),
                base: 0x4000_0000,
                size: 0x1000,
                owner: Owner::Kernel,
                perms: Perms::RW,
            })
            .unwrap();
        m
    }

    #[test]
    fn time_advances_monotonically() {
        let mut m = machine();
        m.advance(100);
        assert_eq!(m.now(), 100);
        assert!(m.advance_to(50).is_empty()); // going backwards is a no-op
        assert_eq!(m.now(), 100);
    }

    #[test]
    fn timer_expiry_raises_irq() {
        let mut m = machine();
        m.irqmp.unmask(6);
        m.timers.arm(0, 250, None);
        m.advance_to(249);
        assert_eq!(m.irqmp.highest_pending(), None);
        let fired = m.advance_to(250);
        assert_eq!(fired, vec![(0, 6)]);
        assert_eq!(m.irqmp.highest_pending(), Some(6));
    }

    #[test]
    fn trap_storm_crashes_simulator() {
        let mut m = machine();
        // 1 µs periodic timer advanced by a whole 250 ms slot → flood.
        m.timers.arm(1, 1, Some(1));
        m.advance_to(250_000);
        match m.health() {
            SimHealth::Crashed { reason, .. } => {
                assert!(reason.contains("timer trap storm"), "{reason}");
            }
            other => panic!("expected crash, got {other:?}"),
        }
        assert!(!m.is_running());
        // A dead simulator no longer advances.
        assert!(m.advance(1000).is_empty());
    }

    #[test]
    fn sink_advance_matches_vec_advance() {
        // Same arming, one machine advanced through the Vec path and one
        // through the sink path: identical IRQ state, time, and health.
        for (period, horizon) in [(Some(100), 250_000u64), (Some(1), 250_000), (None, 500)] {
            let mut a = machine();
            let mut b = machine();
            for m in [&mut a, &mut b] {
                m.irqmp.unmask(6);
                m.timers.arm(0, 100, period);
                m.timers.arm(1, 250, Some(250));
            }
            let fired = a.advance_to(horizon);
            let mut pairs = Vec::new();
            let total = b.advance_to_with(horizon, &mut |i, irq| pairs.push((i, irq)));
            assert_eq!(total, fired.len());
            let mut distinct = fired;
            distinct.dedup();
            assert_eq!(pairs, distinct);
            assert_eq!(a.now(), b.now());
            assert_eq!(a.health(), b.health());
            assert_eq!(a.irqmp.pending_reg(), b.irqmp.pending_reg());
        }
    }

    #[test]
    fn moderate_timer_rate_survives() {
        let mut m = machine();
        m.timers.arm(0, 100, Some(100)); // 100 µs period over 250 ms = 2500 firings < 4096
        m.advance_to(250_000);
        assert!(m.is_running());
    }

    #[test]
    fn trap_log_bounded() {
        let mut m = Machine::new(MachineConfig { trap_log_limit: 3, ..Default::default() });
        for _ in 0..10 {
            m.record_trap(Trap::WindowOverflow);
        }
        assert_eq!(m.traps().len(), 3);
        assert_eq!(m.trap_total(), 10);
    }

    #[test]
    fn crash_is_sticky_and_timed() {
        let mut m = machine();
        m.advance(42);
        m.crash("first");
        m.crash("second");
        match m.health() {
            SimHealth::Crashed { reason, at } => {
                assert_eq!(reason, "first");
                assert_eq!(*at, 42);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn warm_reset_clears_volatile_state() {
        let mut m = machine();
        m.irqmp.unmask(6);
        m.timers.arm(0, 10, Some(10));
        m.advance_to(10);
        m.record_trap(Trap::WindowOverflow);
        m.warm_reset();
        assert_eq!(m.irqmp.pending_reg(), 0);
        assert!(m.timers.next_expiry().is_none());
        assert!(m.traps().is_empty());
        assert_eq!(m.now(), 10); // time keeps running
    }

    #[test]
    fn uart_reachable() {
        let mut m = machine();
        m.uart.put_str("hello");
        assert_eq!(m.uart.captured(), "hello");
    }
}

//! Flight recorder for the simulated kernel stack.
//!
//! Every execution layer — the LEON3 machine, the XtratuM kernel, the
//! campaign executor — records fixed-size [`Event`]s into a preallocated
//! per-thread ring buffer. Recording is off by default and costs one
//! branch on a thread-local flag; no allocation ever happens on the
//! record path, so the PR 2 allocation budget is unaffected.
//!
//! The drained event stream feeds four consumers: per-hypercall latency
//! histograms ([`histogram`]), a Chrome/Perfetto trace exporter
//! ([`perfetto`]), the `skrt-repro triage` timeline dump, and the
//! greybox fuzzer's coverage hashing ([`coverage`]).

pub mod coverage;
pub mod histogram;
pub mod perfetto;
mod ring;
pub mod telemetry;

pub use coverage::{CoverageMap, EdgeTrace, ExecCoverage, MAP_SIZE};
pub use histogram::{HistogramSet, LatencyHistogram, HIST_BUCKETS};
pub use perfetto::{json_escape, ChromeTraceWriter};
pub use ring::Ring;
pub use telemetry::TelemetryRegistry;

use std::cell::{Cell, RefCell};

/// Partition field value for events not attributable to a partition.
pub const NO_PARTITION: u16 = u16::MAX;

/// What happened. Kept to a closed set of cheap discriminants; the
/// `code`/`a`/`b` payload words carry the per-kind detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// LEON3: a GPT/vtimer unit expired. `code` = timer unit, `a` = IRQ line.
    TimerExpiry,
    /// LEON3: IRQMP raised an interrupt line. `code` = IRQ line.
    IrqRaised,
    /// LEON3: the UART carried a panic banner. Timeless (uses last timestamp).
    UartPanic,
    /// LEON3: the simulator itself crashed (IRQ storm, …).
    SimCrashed,
    /// XtratuM: hypercall dispatch began. `code` = hypercall nr,
    /// `a`/`b` = first two raw argument words.
    HypercallEnter,
    /// XtratuM: hypercall dispatch finished. `code` = hypercall nr,
    /// `a` = encoded result ([`encode_return`]/[`encode_no_return`]),
    /// `b` = modelled cost in µs.
    HypercallExit,
    /// XtratuM scheduler: a plan slot started. `code` = slot index.
    SlotBegin,
    /// XtratuM scheduler: a plan slot ended. `code` = slot index.
    SlotEnd,
    /// XtratuM health monitor consumed an event. `code` = HM action code,
    /// `a` = HM event class code.
    HmEvent,
    /// XtratuM nominal-ops journal entry. `code` = ops event code.
    Ops,
    /// XtratuM: a system reset was performed. `code` = 0 cold / 1 warm.
    SystemReset,
    /// XtratuM: the kernel halted. `code` = 0 halt call / 1 HM fatal.
    KernelHalt,
    /// Executor: a test case started. `code` = campaign case index.
    TestBegin,
    /// Executor: a test case finished. `code` = classification index. Timeless.
    TestEnd,
    /// Executor: the boot snapshot was cloned for this test. Timeless.
    SnapshotClone,
    /// XtratuM: a virtual-timer expiry was delivered (the owning
    /// partition's timer VIRQ was set). `code` = 0 HW-clock vtimer /
    /// 1 exec-clock timer, `a` = expirations delivered. The isolation
    /// checker audits that every delivery is attributed to the partition
    /// that armed the timer.
    VtimerExpiry,
    /// XtratuM: a port was created. `code` = descriptor, `a` = direction
    /// (0 source / 1 destination), `b` = kind (0 sampling / 1 queuing).
    /// Timeless (recorded inside hypercall dispatch). The isolation
    /// checker audits that port visibility never crosses partitions
    /// beyond the configured channels.
    PortCreated,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TimerExpiry => "timer_expiry",
            EventKind::IrqRaised => "irq_raised",
            EventKind::UartPanic => "uart_panic",
            EventKind::SimCrashed => "sim_crashed",
            EventKind::HypercallEnter => "hypercall_enter",
            EventKind::HypercallExit => "hypercall_exit",
            EventKind::SlotBegin => "slot_begin",
            EventKind::SlotEnd => "slot_end",
            EventKind::HmEvent => "hm_event",
            EventKind::Ops => "ops",
            EventKind::SystemReset => "system_reset",
            EventKind::KernelHalt => "kernel_halt",
            EventKind::TestBegin => "test_begin",
            EventKind::TestEnd => "test_end",
            EventKind::SnapshotClone => "snapshot_clone",
            EventKind::VtimerExpiry => "vtimer_expiry",
            EventKind::PortCreated => "port_created",
        }
    }
}

/// One fixed-size flight-recorder record. `Copy`, no heap anywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated time in µs, clamped monotone within one recording window.
    pub t_us: u64,
    pub kind: EventKind,
    /// Partition id, or [`NO_PARTITION`].
    pub partition: u16,
    /// Per-kind discriminant payload (hypercall nr, slot index, …).
    pub code: u32,
    pub a: u64,
    pub b: u64,
}

/// Everything drained from one recording window (typically one test).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainedFlight {
    /// Events in chronological order (oldest first).
    pub events: Vec<Event>,
    /// Events overwritten because the ring wrapped.
    pub dropped: u64,
}

// One thread-local struct, not two variables: every record resolves the
// TLS address once and reaches both the gate and the ring through it.
struct Recorder {
    active: Cell<bool>,
    ring: RefCell<Option<Ring>>,
}

thread_local! {
    static REC: Recorder = const {
        Recorder { active: Cell::new(false), ring: RefCell::new(None) }
    };
}

/// Is the recorder enabled on this thread? This is the one branch the
/// disabled path pays.
#[inline]
pub fn active() -> bool {
    REC.with(|r| r.active.get())
}

/// Enable recording on this thread with a ring of `capacity` events.
/// The ring is allocated here, once; the record path never allocates.
pub fn enable(capacity: usize) {
    REC.with(|r| {
        *r.ring.borrow_mut() = Some(Ring::new(capacity));
        r.active.set(true);
    });
}

/// Disable recording on this thread and free the ring.
pub fn disable() {
    REC.with(|r| {
        r.active.set(false);
        *r.ring.borrow_mut() = None;
    });
}

/// Record one event. No-op (one branch) when the recorder is disabled.
#[inline]
pub fn record(t_us: u64, kind: EventKind, partition: u16, code: u32, a: u64, b: u64) {
    REC.with(|r| {
        if r.active.get() {
            push_event(r, t_us, kind, partition, code, a, b);
        }
    });
}

/// Record an event from a context with no clock access: it inherits the
/// timestamp of the most recent event in the ring.
#[inline]
pub fn record_timeless(kind: EventKind, partition: u16, code: u32, a: u64, b: u64) {
    REC.with(|r| {
        if r.active.get() {
            push_timeless(r, kind, partition, code, a, b);
        }
    });
}

// Outlined so the disabled fast path is just a branch over a call, but
// deliberately not `#[cold]`: when recording is on this runs for every
// event, and cold-section placement would tax the enabled path. The
// fields arrive as scalars and the event is built in its ring slot: an
// `Event` assembled on the caller's stack would be stored in narrow
// pieces and reloaded wide here, a store-forwarding stall per event.
#[inline(never)]
fn push_event(r: &Recorder, t_us: u64, kind: EventKind, partition: u16, code: u32, a: u64, b: u64) {
    if let Some(ring) = r.ring.borrow_mut().as_mut() {
        ring.record(t_us, kind, partition, code, a, b);
    }
}

#[inline(never)]
fn push_timeless(r: &Recorder, kind: EventKind, partition: u16, code: u32, a: u64, b: u64) {
    if let Some(ring) = r.ring.borrow_mut().as_mut() {
        let t = ring.last_timestamp();
        ring.record(t, kind, partition, code, a, b);
    }
}

/// Drain all recorded events on this thread and reset the window (the
/// monotone clamp restarts at 0). Recording stays enabled.
pub fn drain() -> DrainedFlight {
    REC.with(|r| match r.ring.borrow_mut().as_mut() {
        Some(ring) => ring.drain(),
        None => DrainedFlight::default(),
    })
}

/// Discard every recorded event on this thread and reset the window:
/// [`drain`] without building the drained `Vec`. Recording stays enabled.
pub fn clear() {
    REC.with(|r| {
        if let Some(ring) = r.ring.borrow_mut().as_mut() {
            ring.clear();
        }
    });
}

/// Runs `f` on this thread as if on a fresh one: the recorder starts
/// disabled with no ring. The calling thread's own window — its ring,
/// buffered events, dropped count and active flag — is set aside for the
/// call and put back afterwards, even when `f` panics, so whatever `f`
/// enables, records or frees is gone when it returns.
pub fn isolated<R>(f: impl FnOnce() -> R) -> R {
    isolated_in(&mut Window::default(), f)
}

/// A recording window kept off any thread: a ring and whether recording
/// is on. A worker whose runs move between threads keeps its window here
/// and runs each one [`isolated_in`] it, so its ring is allocated once,
/// not once per thread it lands on.
#[derive(Debug, Default)]
pub struct Window {
    ring: Option<Ring>,
    active: bool,
}

impl Window {
    /// A window recording into a ring of `capacity` events, allocated
    /// here.
    pub fn enabled(capacity: usize) -> Self {
        Window { ring: Some(Ring::new(capacity)), active: true }
    }
}

/// [`isolated`], with `window` as the thread's window for the call: `f`
/// starts with `window`'s ring and flag, and whatever `f` leaves on the
/// thread — its ring, buffered events, flag — goes back into `window`
/// (on unwind too), while the caller's own window is put back.
pub fn isolated_in<R>(window: &mut Window, f: impl FnOnce() -> R) -> R {
    /// The caller's window, put back when dropped (on unwind too), and
    /// the lent one, taken back.
    struct Lent<'w> {
        caller: Window,
        lent: &'w mut Window,
    }
    impl Drop for Lent<'_> {
        fn drop(&mut self) {
            let caller = std::mem::take(&mut self.caller);
            REC.with(|r| {
                self.lent.ring = r.ring.replace(caller.ring);
                self.lent.active = r.active.replace(caller.active);
            });
        }
    }
    let caller = REC.with(|r| Window {
        ring: r.ring.replace(window.ring.take()),
        active: r.active.replace(window.active),
    });
    let _lent = Lent { caller, lent: window };
    f()
}

/// Runs `f` in a private recording window and returns what it recorded:
/// [`isolated`], with the recorder on in a ring that grows with what `f`
/// records, so nothing is dropped.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, DrainedFlight) {
    isolated(|| {
        REC.with(|r| {
            *r.ring.borrow_mut() = Some(Ring::unbounded());
            r.active.set(true);
        });
        let out = f();
        (out, drain())
    })
}

/// Pushes `events` into this thread's ring, in order, as if they had
/// just been recorded — the inverse of [`capture`]. Timestamps are clamped
/// against the window exactly as live records are, and the push never
/// allocates. No-op when the recorder is disabled.
pub fn replay(events: &[Event]) {
    REC.with(|r| {
        if r.active.get() {
            if let Some(ring) = r.ring.borrow_mut().as_mut() {
                for &e in events {
                    ring.push(e);
                }
            }
        }
    });
}

/// Bit set in `HypercallExit.a` when the call did not return.
pub const NO_RETURN_FLAG: u64 = 1 << 32;

/// Encode a returned hypercall code into the `HypercallExit.a` payload.
#[inline]
pub fn encode_return(code: i32) -> u64 {
    code as u32 as u64
}

/// Encode a no-return outcome code into the `HypercallExit.a` payload.
#[inline]
pub fn encode_no_return(kind_code: u32) -> u64 {
    NO_RETURN_FLAG | kind_code as u64
}

/// Decoded `HypercallExit.a` payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitResult {
    Returned(i32),
    NoReturn(u32),
}

#[inline]
pub fn decode_result(a: u64) -> ExitResult {
    if a & NO_RETURN_FLAG != 0 {
        ExitResult::NoReturn(a as u32)
    } else {
        ExitResult::Returned(a as u32 as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> Event {
        Event { t_us: t, kind: EventKind::Ops, partition: 3, code: 7, a: 1, b: 2 }
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        disable();
        record(10, EventKind::Ops, 0, 0, 0, 0);
        assert!(!active());
        assert_eq!(drain(), DrainedFlight::default());
    }

    #[test]
    fn enable_record_drain_roundtrip() {
        enable(8);
        record(5, EventKind::TestBegin, NO_PARTITION, 42, 0, 0);
        record(9, EventKind::Ops, 1, 2, 3, 4);
        record_timeless(EventKind::TestEnd, NO_PARTITION, 0, 0, 0);
        let f = drain();
        assert_eq!(f.dropped, 0);
        assert_eq!(f.events.len(), 3);
        assert_eq!(f.events[0].kind, EventKind::TestBegin);
        assert_eq!(f.events[2].t_us, 9, "timeless event inherits last timestamp");
        disable();
    }

    #[test]
    fn clear_resets_the_window_like_drain() {
        enable(2);
        for t in [40, 50, 60] {
            record(t, EventKind::Ops, 0, 0, 0, 0);
        }
        clear();
        assert!(active());
        record(5, EventKind::Ops, 0, 0, 0, 0);
        let f = drain();
        assert_eq!(f.dropped, 0, "the drop count restarts");
        assert_eq!(f.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![5]);
        disable();
        clear(); // no ring: a no-op
        assert_eq!(drain(), DrainedFlight::default());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut ring = Ring::new(4);
        for t in 0..10u64 {
            ring.push(ev(t));
        }
        let f = ring.drain();
        assert_eq!(f.dropped, 6);
        assert_eq!(f.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn timestamps_are_clamped_monotone_and_reset_on_drain() {
        let mut ring = Ring::new(8);
        ring.push(ev(50));
        ring.push(ev(20)); // goes backwards: clamped to 50
        let f = ring.drain();
        assert_eq!(f.events[1].t_us, 50);
        ring.push(ev(5)); // new window: low timestamps fine again
        assert_eq!(ring.drain().events[0].t_us, 5);
    }

    #[test]
    fn capture_leaves_the_callers_window_untouched() {
        // Caller's window: enabled, two buffered events, two drops.
        enable(2);
        for t in [1, 2, 3, 4] {
            record(t, EventKind::Ops, 0, t as u32, 0, 0);
        }
        let ((), inner) = capture(|| {
            assert!(active());
            for t in 0..100u64 {
                record(t, EventKind::SlotBegin, 1, 0, 0, 0);
            }
        });
        assert_eq!(inner.events.len(), 100, "the private window never wraps");
        assert_eq!(inner.dropped, 0);
        assert!(active());
        let outer = drain();
        assert_eq!(outer.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(outer.dropped, 2);
        disable();

        // A disabled caller stays disabled, and keeps no ring.
        let ((), inner) = capture(|| record(7, EventKind::Ops, 0, 0, 0, 0));
        assert_eq!(inner.events.len(), 1);
        assert!(!active());
        assert_eq!(drain(), DrainedFlight::default());
    }

    #[test]
    fn capture_restores_the_callers_window_on_panic() {
        enable(4);
        record(1, EventKind::Ops, 0, 0, 0, 0);
        let panicked = std::panic::catch_unwind(|| capture(|| panic!("inside the window")));
        assert!(panicked.is_err());
        assert!(active());
        assert_eq!(drain().events.len(), 1);
        disable();
    }

    #[test]
    fn isolated_leaves_the_callers_window_untouched() {
        // Caller's window: enabled, two buffered events, two drops.
        enable(2);
        for t in [1, 2, 3, 4] {
            record(t, EventKind::Ops, 0, t as u32, 0, 0);
        }
        isolated(|| {
            assert!(!active(), "the window starts like a fresh thread's");
            assert_eq!(drain(), DrainedFlight::default());
            enable(8);
            for t in 0..100u64 {
                record(t, EventKind::SlotBegin, 1, 0, 0, 0);
            }
        });
        assert!(active());
        let outer = drain();
        assert_eq!(outer.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(outer.dropped, 2);
        disable();

        // A disabled caller stays disabled, and keeps no ring.
        isolated(|| {
            enable(4);
            record(7, EventKind::Ops, 0, 0, 0, 0);
        });
        assert!(!active());
        assert!(REC.with(|r| r.ring.borrow().is_none()), "the inner ring is freed");
    }

    #[test]
    fn isolated_restores_the_callers_window_on_panic() {
        enable(4);
        record(1, EventKind::Ops, 0, 0, 0, 0);
        let panicked = std::panic::catch_unwind(|| {
            isolated(|| {
                enable(4);
                record(2, EventKind::Ops, 0, 0, 0, 0);
                panic!("inside the window")
            })
        });
        assert!(panicked.is_err());
        assert!(active());
        let f = drain();
        assert_eq!(f.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![1]);
        disable();
    }

    /// A lent window keeps its ring — the same allocation — and what is
    /// buffered in it from one call to the next, on any thread, while
    /// each caller's own window is left as it was.
    #[test]
    fn isolated_in_lends_a_window_and_takes_it_back() {
        let ring_ptr = |w: &Window| w.ring.as_ref().map(|r| r.buf.as_ptr());
        let mut window = Window::enabled(4);
        let ptr = ring_ptr(&window);
        enable(2);
        record(1, EventKind::Ops, 0, 0, 0, 0);
        isolated_in(&mut window, || {
            assert!(active());
            record(5, EventKind::SlotBegin, 1, 0, 0, 0);
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                isolated_in(&mut window, || {
                    record(6, EventKind::SlotEnd, 1, 0, 0, 0);
                    assert_eq!(drain().events.iter().map(|e| e.t_us).collect::<Vec<_>>(), [5, 6]);
                });
                assert!(!active(), "a fresh thread's window is put back");
            });
        });
        assert_eq!(ring_ptr(&window), ptr, "the ring was reused, not reallocated");
        assert_eq!(drain().events.iter().map(|e| e.t_us).collect::<Vec<_>>(), [1]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            isolated_in(&mut window, || {
                record(9, EventKind::Ops, 0, 0, 0, 0);
                panic!("inside the window")
            })
        }));
        assert!(panicked.is_err() && active());
        assert_eq!(ring_ptr(&window), ptr, "a panic hands the ring back too");
        disable();
    }

    #[test]
    fn replay_pushes_like_live_records() {
        let ((), prefix) = capture(|| {
            record(10, EventKind::SlotBegin, 1, 0, 0, 0);
            record(5, EventKind::SlotEnd, 1, 0, 0, 0); // clamped to 10
        });
        // Disabled: a no-op.
        replay(&prefix.events);
        assert_eq!(drain(), DrainedFlight::default());
        // Enabled: the events land after what the window already holds,
        // clamped against it exactly like live records.
        enable(8);
        record(20, EventKind::TestBegin, NO_PARTITION, 0, 0, 0);
        replay(&prefix.events);
        let f = drain();
        assert_eq!(f.events.len(), 3);
        assert_eq!(f.events[1].kind, EventKind::SlotBegin);
        assert_eq!(f.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![20, 20, 20]);
        disable();
    }

    #[test]
    fn result_encoding_roundtrips() {
        assert_eq!(decode_result(encode_return(-22)), ExitResult::Returned(-22));
        assert_eq!(decode_result(encode_return(0)), ExitResult::Returned(0));
        assert_eq!(decode_result(encode_no_return(9)), ExitResult::NoReturn(9));
    }
}

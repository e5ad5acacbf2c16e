//! Substrate microbenches: hypercall dispatch latency per Table III
//! category, single-test execution cost (fresh boot vs snapshot clone),
//! nominal EagleEye mission throughput (major frames per second of host
//! time), and paired before/after cases for the hot-path APIs that went
//! allocation-free (timer advancement, trace-event emission) or whose
//! cost stopped following an argument's magnitude (vtimer catch-up,
//! `XM_multicall` validation).

use eagleeye::map::*;
use eagleeye::EagleEye;
use leon3_sim::machine::{Machine, MachineConfig};
use leon3_sim::timer::GpTimer;
use leon3_sim::uart::Uart;
use skrt::check::{part_base, ChannelTopology, CheckConfig, CheckTestbed, CALLER};
use skrt::dictionary::TestValue;
use skrt::exec::run_single_test;
use skrt::suite::TestCase;
use skrt::testbed::Testbed;
use skrt_bench::Bench;
use std::hint::black_box;
use xtratum::config::KernelTuning;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::vtimer::{process_hw_timer, process_hw_timer_reference, VTimer};
use xtratum::vuln::KernelBuild;

fn bench_hypercalls(b: &mut Bench) {
    // One cheap representative service per category.
    let reps: Vec<(&str, HypercallId, Vec<u64>)> = vec![
        ("system", HypercallId::GetSystemStatus, vec![SCRATCH as u64]),
        ("partition", HypercallId::GetPartitionStatus, vec![1, SCRATCH as u64]),
        ("time", HypercallId::GetTime, vec![0, SCRATCH as u64]),
        ("plan", HypercallId::GetPlanStatus, vec![SCRATCH as u64]),
        ("ipc", HypercallId::FlushAllPorts, vec![]),
        ("memory", HypercallId::UpdatePage32, vec![SCRATCH as u64, 7]),
        ("hm", HypercallId::HmStatus, vec![SCRATCH as u64]),
        ("trace", HypercallId::TraceStatus, vec![0, SCRATCH as u64]),
        ("interrupt", HypercallId::SetIrqMask, vec![0, 0]),
        ("misc", HypercallId::FlushCache, vec![3]),
        ("sparc", HypercallId::SparcGetPsr, vec![]),
    ];
    for (label, id, args) in reps {
        let (mut kernel, _guests) = EagleEye.boot(KernelBuild::Patched);
        let hc = RawHypercall::new_unchecked(id, args);
        b.measure(&format!("hypercall_dispatch/{label}"), || {
            black_box(kernel.hypercall(FDIR, &hc).result)
        });
    }
}

fn bench_single_test(b: &mut Bench) {
    let tb = EagleEye;
    let ctx = tb.oracle_context(KernelBuild::Legacy);
    let case = TestCase {
        hypercall: HypercallId::GetTime,
        dataset: vec![TestValue::scalar(0), TestValue::scalar(SCRATCH as u64)],
        suite_index: 0,
        case_index: 0,
    };
    b.measure("single_test_boot_to_verdict", || {
        black_box(run_single_test(&tb, &ctx, KernelBuild::Legacy, &case).classification.class)
    });

    // The snapshot engine's per-test cost: clone the booted state instead
    // of re-booting it.
    let snapshot = tb.snapshot(KernelBuild::Legacy).expect("EagleEye guests are cloneable");
    b.measure("boot_snapshot_clone", || {
        let (kernel, guests) = snapshot.instantiate();
        black_box((kernel, guests.len()))
    });
    b.measure("fresh_boot", || {
        let (kernel, guests) = tb.boot(KernelBuild::Legacy);
        black_box((kernel, guests.len()))
    });
}

fn bench_mission(b: &mut Bench) {
    let frames = 40u32;
    b.throughput("eagleeye_mission/nominal_frames", frames as u64, || {
        let (mut kernel, mut guests) = EagleEye::boot_nominal(KernelBuild::Patched);
        let s = kernel.run_major_frames(&mut guests, frames);
        assert!(s.healthy());
        black_box(s.frames_completed)
    });
}

/// Partition-runtime overhead: the same mission with XAL and RTOS-style
/// guests hosted in their partitions.
fn bench_partition_runtimes(b: &mut Bench) {
    use rtems_lite::{Poll, RtemsGuest};
    use xal::{XalApp, XalCtx, XalGuest};

    struct NopApp;
    impl XalApp for NopApp {
        fn init(&mut self, _ctx: &mut XalCtx<'_, '_>) {}
        fn step(&mut self, ctx: &mut XalCtx<'_, '_>) {
            ctx.consume(1_000);
        }
    }

    let frames = 20u32;
    b.throughput("partition_runtimes/xal_hosted_hk", frames as u64, || {
        let (mut kernel, mut guests) = EagleEye.boot(KernelBuild::Patched);
        guests.set(HK, Box::new(XalGuest::new(NopApp, part_base(HK) + PART_SIZE / 2)));
        black_box(kernel.run_major_frames(&mut guests, frames).frames_completed)
    });
    b.throughput("partition_runtimes/rtems_hosted_payload", frames as u64, || {
        let (mut kernel, mut guests) = EagleEye.boot(KernelBuild::Patched);
        let guest = RtemsGuest::new(1_000, |rt| {
            rt.spawn("a", 1, |_| Poll::Sleep(1));
            rt.spawn("b", 2, |_| Poll::Yield);
        });
        guests.set(PAYLOAD, Box::new(guest));
        black_box(kernel.run_major_frames(&mut guests, frames).frames_completed)
    });
}

/// Before/after pair for timer advancement: the old `advance_to` returns
/// a freshly collected `Vec<(unit, irq)>` per call; the sink-based
/// `advance_to_with` delivers expiries through a closure and never
/// allocates. Both sides advance the same periodic workload (two units,
/// ~14 expiries per step) so the ratio isolates the allocation cost.
fn bench_advance_paths(b: &mut Bench) {
    let armed = || {
        let mut t = GpTimer::new(2, 6);
        assert!(t.arm(0, 100, Some(100)));
        assert!(t.arm(1, 250, Some(250)));
        t
    };

    let mut timer = armed();
    let mut now = 0u64;
    b.measure("timer_advance/vec_collect_api", || {
        now += 1_000;
        black_box(timer.advance_to(now).len())
    });

    let mut timer = armed();
    let mut now = 0u64;
    b.measure("timer_advance/sink_api", || {
        now += 1_000;
        let mut fired = 0usize;
        timer.advance_to_with(now, &mut |_, _, count| fired += count as usize);
        black_box(fired)
    });
}

/// Before/after pair for periodic expiry catch-up. The old
/// `advance_to_with` walked each periodic unit forward one period at a
/// time, so a unit whose period is far shorter than the advance window
/// cost one loop iteration per expiry; the shipped code computes the fire
/// count in closed form, O(1) per unit. The reference side is a faithful
/// bench-local replica of the removed loop (the real code no longer has
/// it), both sides re-arm a period-1 unit and sweep a 4000 us window —
/// the storm-threshold scale the campaigns actually hit.
fn bench_expiry_batching(b: &mut Bench) {
    struct LoopUnit {
        expiry: Option<u64>,
        period: Option<u64>,
        fired: u64,
        irq: u8,
    }
    // One dyn sink call per fire, like the removed implementation — the
    // indirect call is also what keeps the compiler from collapsing the
    // reference loop into the very closed form we are comparing against.
    fn loop_advance(units: &mut [LoopUnit], now: u64, sink: &mut dyn FnMut(usize, u8)) {
        for (i, u) in units.iter_mut().enumerate() {
            while let Some(exp) = u.expiry {
                if exp > now {
                    break;
                }
                u.fired += 1;
                sink(i, u.irq);
                u.expiry = match u.period {
                    Some(p) if p > 0 => Some(exp + p),
                    _ => None,
                };
            }
        }
    }

    b.measure("expiry_batching/loop_reference", || {
        let mut units = vec![LoopUnit { expiry: Some(1), period: Some(1), fired: 0, irq: 8 }];
        let mut fired = 0u64;
        let mut sink = |_: usize, _: u8| fired += 1;
        // Opaque vtable: without this the optimiser devirtualises the
        // sink, recognises the affine induction, and computes the whole
        // "loop" in closed form — the very transformation under test.
        loop_advance(&mut units, 4_000, black_box(&mut sink));
        black_box(fired)
    });
    b.measure("expiry_batching/closed_form", || {
        let mut t = GpTimer::new(1, 8);
        t.arm(0, 1, Some(1));
        let mut fired = 0u64;
        t.advance_to_with(4_000, &mut |_, _, count| fired += count);
        black_box(fired)
    });
}

/// Before/after pair for the software vtimer catch-up: the per-expiry
/// loop (kept as `process_hw_timer_reference`) vs the closed form. A
/// period just above the handler cost, caught up over 4000 us — the
/// small-interval `XM_set_timer` traffic the fuzzer and the sequence
/// campaign generate (~300 expiries per pass).
fn bench_vtimer_catchup(b: &mut Bench) {
    let tuning = KernelTuning::default();
    let cost = tuning.vtimer_handler_cost_us as i64;
    let limit = tuning.kernel_stack_frames;
    let armed = || {
        let mut t = VTimer::default();
        t.arm(1, cost + 1);
        t
    };
    b.measure("vtimer_catchup/loop_reference", || {
        let mut t = armed();
        black_box(process_hw_timer_reference(&mut t, black_box(4_000), cost, limit))
    });
    b.measure("vtimer_catchup/closed_form", || {
        let mut t = armed();
        black_box(process_hw_timer(&mut t, black_box(4_000), cost, limit))
    });
}

/// Before/after pair for `XM_multicall` batch validation: one kernel
/// `read_u64` per entry (each a linear region scan) vs the region-run
/// walk, over the check campaign's 2048-entry probe batch in the
/// caller's memory of a three-partition check configuration.
fn bench_multicall_validate(b: &mut Bench) {
    let tb = CheckTestbed::new(CheckConfig {
        index: 0,
        n_partitions: 3,
        slot_owners: vec![0, 1],
        channels: ChannelTopology::Isolated,
    });
    let (kernel, _guests) = tb.boot(KernelBuild::Legacy);
    let mem = &kernel.machine.mem;
    let start = part_base(CALLER) + 0x2000;
    b.measure("multicall_validate/per_entry_reference", || {
        black_box(mem.load_run_per_entry(black_box(start), 2048, 8))
    });
    b.measure("multicall_validate/region_runs", || {
        black_box(mem.load_run(black_box(start), 2048, 8))
    });
}

/// Before/after pair for the quiescent time advance. The old kernel
/// walked the per-partition virtual-timer table and asked the timer
/// block to scan its units on *every* advance, due or not; the shipped
/// code keeps an event horizon and collapses a no-event advance to a
/// single clock store (`Machine::advance_quiescent`). The reference side
/// replicates the removed per-advance scan over an EagleEye-sized
/// vtimer table (6 partitions) plus the 2-unit timer block.
fn bench_quiescent_advance(b: &mut Bench) {
    #[derive(Clone, Copy)]
    struct ScanTimer {
        armed: bool,
        next_expiry: i64,
    }
    let table = vec![ScanTimer { armed: false, next_expiry: 0 }; 6];
    let mut timers = GpTimer::new(2, 6);
    let mut now = 0u64;
    b.measure("quiescent_advance/scan_reference", || {
        now += 250;
        let mut due = 0usize;
        for t in &table {
            if t.armed && t.next_expiry <= now as i64 {
                due += 1;
            }
        }
        black_box((timers.advance_to(now).len(), due))
    });

    let mut m = Machine::new(MachineConfig::default());
    let mut now = 0u64;
    b.measure("quiescent_advance/horizon", || {
        now += 250;
        black_box(m.advance_quiescent(now))
    });
}

/// Before/after pair for trace-event emission on the console: eagerly
/// materialising the message with `format!` then transmitting it, vs
/// rendering `format_args!` straight into the capture buffer. The
/// capture is cleared well before its byte budget so both sides write
/// into pre-grown storage at steady state.
fn bench_trace_emission(b: &mut Bench) {
    const LIMIT: usize = 64 * 1024;
    let mut uart = Uart::new(LIMIT);
    let mut seq = 0u64;
    b.measure("trace_emission/format_then_put_str", || {
        seq = seq.wrapping_add(1);
        if uart.captured().len() > LIMIT - 128 {
            uart.clear();
        }
        uart.put_str(&format!("[HM] partition 4 event {seq} at {}us\n", seq * 250));
        black_box(uart.captured().len())
    });

    let mut uart = Uart::new(LIMIT);
    let mut seq = 0u64;
    b.measure("trace_emission/put_fmt_args", || {
        seq = seq.wrapping_add(1);
        if uart.captured().len() > LIMIT - 128 {
            uart.clear();
        }
        uart.put_fmt(format_args!("[HM] partition 4 event {seq} at {}us\n", seq * 250));
        black_box(uart.captured().len())
    });
}

/// Flight-recorder overhead on the real per-test path: the same
/// snapshot-clone test executed with the recorder disabled (its cost is
/// one thread-local branch per instrumentation site) and enabled (events
/// are copied into the preallocated ring, drained once per test). The
/// pair backs the overhead numbers in EXPERIMENTS.md.
fn bench_flight_recorder(b: &mut Bench) {
    use skrt::flight::DEFAULT_RING_CAPACITY;
    use skrt::mutant::{take_invocations, MutantGuest};

    let tb = EagleEye;
    let case = TestCase {
        hypercall: HypercallId::SetTimer,
        dataset: vec![TestValue::scalar(1), TestValue::scalar(1), TestValue::scalar(0)],
        suite_index: 0,
        case_index: 0,
    };
    let snapshot = tb.snapshot(KernelBuild::Patched).expect("EagleEye guests are cloneable");
    let run_once = || {
        let (mut kernel, mut guests) = snapshot.instantiate();
        guests.set(tb.test_partition(), Box::new(MutantGuest::new(case.raw(), tb.prologue())));
        kernel.step_major_frames(&mut guests, tb.frames_per_test());
        take_invocations(&mut guests, tb.test_partition()).len()
    };

    assert!(!flightrec::active());
    b.measure("flight_recorder/disabled", || black_box(run_once()));

    flightrec::enable(DEFAULT_RING_CAPACITY);
    b.measure("flight_recorder/enabled_with_drain", || {
        let n = run_once();
        black_box((n, flightrec::drain().events.len()))
    });
    flightrec::disable();

    // The raw record-path cost, isolated from the test workload: one
    // `record()` call with the recorder off (the branch every
    // instrumentation site pays in a normal run) and on (thread-local
    // resolve + ring push, no allocation).
    let mut t = 0u64;
    b.measure("flight_recorder/record_call_disabled", || {
        t += 1;
        flightrec::record(t, flightrec::EventKind::Ops, 3, 7, t, t);
        black_box(t)
    });
    flightrec::enable(DEFAULT_RING_CAPACITY);
    let mut t = 0u64;
    b.measure("flight_recorder/record_call_enabled", || {
        t += 1;
        flightrec::record(t, flightrec::EventKind::Ops, 3, 7, t, t);
        black_box(t)
    });
    flightrec::disable();
}

fn main() {
    let mut b = Bench::new("kernel_microbench");
    bench_hypercalls(&mut b);
    bench_single_test(&mut b);
    bench_mission(&mut b);
    bench_partition_runtimes(&mut b);
    bench_advance_paths(&mut b);
    bench_expiry_batching(&mut b);
    bench_vtimer_catchup(&mut b);
    bench_multicall_validate(&mut b);
    bench_quiescent_advance(&mut b);
    bench_trace_emission(&mut b);
    bench_flight_recorder(&mut b);
    b.finish();
}

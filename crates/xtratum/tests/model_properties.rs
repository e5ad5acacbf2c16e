//! Model-based property tests for kernel subsystems: the queuing channel
//! behaves like a bounded FIFO, the sampling channel like a register,
//! the HM/trace cursors like checked indices, and the closed-form vtimer
//! catch-up like its per-expiry loop — for arbitrary operation sequences
//! drawn from the deterministic `testkit` harness.

use std::collections::VecDeque;
use testkit::Rng;
use xtratum::config::{ChannelCfg, PortDirection, PortKind};
use xtratum::hm::{HealthMonitor, HmAction, HmEventKind, HmLogEntry};
use xtratum::ipc::{IpcError, PortTable};
use xtratum::trace::{TraceBuffer, TraceRecord};
use xtratum::vtimer::{process_hw_timer, process_hw_timer_reference, VTimer};

fn channels() -> Vec<ChannelCfg> {
    vec![
        ChannelCfg {
            name: "q".into(),
            kind: PortKind::Queuing,
            max_msg_size: 8,
            max_msgs: 3,
            source: 0,
            destinations: vec![1],
        },
        ChannelCfg {
            name: "s".into(),
            kind: PortKind::Sampling,
            max_msg_size: 8,
            max_msgs: 0,
            source: 0,
            destinations: vec![1],
        },
    ]
}

#[derive(Debug, Clone)]
enum QOp {
    Send(Vec<u8>),
    Recv(u32),
}

fn arb_qops(rng: &mut Rng) -> Vec<QOp> {
    rng.vec_of(0, 40, |r| {
        if r.chance(1, 2) {
            QOp::Send(r.bytes(0, 10))
        } else {
            QOp::Recv(r.range_u64(0, 12) as u32)
        }
    })
}

/// The queuing channel equals a bounded FIFO reference model.
#[test]
fn queuing_port_is_a_bounded_fifo() {
    testkit::check("queuing_port_is_a_bounded_fifo", 256, |rng| {
        let ops = arb_qops(rng);
        let mut t = PortTable::new(&channels());
        let s =
            t.create_port(0, "q", PortKind::Queuing, 8, Some(3), PortDirection::Source).unwrap();
        let d = t
            .create_port(1, "q", PortKind::Queuing, 8, Some(3), PortDirection::Destination)
            .unwrap();
        let mut model: VecDeque<Vec<u8>> = VecDeque::new();
        for op in ops {
            match op {
                QOp::Send(msg) => {
                    let got = t.send_queuing(0, s, msg.clone());
                    let want = if msg.is_empty() || msg.len() > 8 {
                        Err(IpcError::BadSize)
                    } else if model.len() >= 3 {
                        Err(IpcError::QueueFull)
                    } else {
                        model.push_back(msg);
                        Ok(())
                    };
                    assert_eq!(got, want);
                }
                QOp::Recv(buf) => {
                    let got = t.receive_queuing(1, d, buf);
                    let want = match model.front() {
                        None => Err(IpcError::Empty),
                        Some(m) if (buf as usize) < m.len() => Err(IpcError::BadSize),
                        Some(_) => Ok(model.pop_front().unwrap()),
                    };
                    assert_eq!(got, want);
                }
            }
        }
        // Final fill level agrees.
        let (_, level, _) = t.port_status(0, s).unwrap();
        assert_eq!(level as usize, model.len());
    });
}

/// The sampling channel is last-writer-wins with a monotone sequence
/// counter.
#[test]
fn sampling_port_is_a_register() {
    testkit::check("sampling_port_is_a_register", 256, |rng| {
        let writes = rng.vec_of(1, 20, |r| r.bytes(1, 8));
        let mut t = PortTable::new(&channels());
        let s = t.create_port(0, "s", PortKind::Sampling, 8, None, PortDirection::Source).unwrap();
        let d =
            t.create_port(1, "s", PortKind::Sampling, 8, None, PortDirection::Destination).unwrap();
        for (i, w) in writes.iter().enumerate() {
            t.write_sampling(0, s, w.clone()).unwrap();
            let (msg, seq) = t.read_sampling(1, d, 8).unwrap();
            assert_eq!(&msg, w);
            assert_eq!(seq, i as u64 + 1);
        }
    });
}

/// The HM cursor behaves like a checked index into the log for every
/// seek/read interleaving.
#[test]
fn hm_cursor_is_a_checked_index() {
    testkit::check("hm_cursor_is_a_checked_index", 256, |rng| {
        let n_events = rng.range(0, 10);
        let ops = rng
            .vec_of(0, 25, |r| (r.range_i64(-128, 128), r.range_u64(0, 4) as u32, r.range(1, 4)));
        let mut hm = HealthMonitor::new(64);
        for i in 0..n_events {
            hm.record(HmLogEntry {
                time: i as u64,
                kind: HmEventKind::PartitionRaised { code: i as u32 },
                partition: Some(0),
                action: HmAction::Log,
            });
        }
        let mut cursor = 0i64;
        let len = n_events as i64;
        for (off, whence, count) in ops {
            if whence <= 2 {
                let base = match whence {
                    0 => 0,
                    1 => cursor,
                    _ => len,
                };
                let target = base + off;
                let got = hm.seek(off, whence);
                if (0..=len).contains(&target) {
                    assert_eq!(got, Some(target as usize));
                    cursor = target;
                } else {
                    assert_eq!(got, None);
                }
            } else {
                assert_eq!(hm.seek(off, whence), None);
            }
            let read = hm.read(count);
            let expect = (len - cursor).min(count as i64).max(0);
            assert_eq!(read.len() as i64, expect);
            // reads return the events at the cursor, in order
            for (j, e) in read.iter().enumerate() {
                assert_eq!(e.time, (cursor + j as i64) as u64);
            }
            cursor += expect;
        }
    });
}

/// The trace buffer keeps the oldest `capacity` records and counts
/// the rest as dropped.
#[test]
fn trace_buffer_retention() {
    testkit::check("trace_buffer_retention", 256, |rng| {
        let cap = rng.range(1, 8);
        let n = rng.range(0, 20);
        let mut b = TraceBuffer::new(cap);
        for i in 0..n {
            b.emit(TraceRecord { time: i as u64, partition: 0, bitmask: 1, payload: i as u32 });
        }
        assert_eq!(b.len(), n.min(cap));
        assert_eq!(b.dropped as usize, n.saturating_sub(cap));
        let mut seen = 0;
        while let Some(r) = b.read() {
            assert_eq!(r.payload as usize, seen);
            seen += 1;
        }
        assert_eq!(seen, n.min(cap));
    });
}

/// The closed-form `process_hw_timer` leaves the same outcome and timer
/// state as the per-expiry loop, over chains of processing passes with
/// random `(next_expiry, interval, now, cost, stack_limit)`: intervals
/// equal to the handler cost and one above it, recursing intervals,
/// one-shot and negative intervals, expiries still in the future, and
/// clocks near `i64::MAX` where re-arming saturates.
#[test]
fn closed_form_vtimer_catch_up_matches_the_loop() {
    testkit::check("closed_form_vtimer_catch_up_matches_the_loop", 1024, |rng| {
        // Handler costs are non-negative (`vtimer_handler_cost_us` is a
        // `u64`); with a negative one the loop itself never ends once the
        // re-arm saturates at `i64::MAX`.
        let cost = rng.range_i64(0, 40);
        let interval = match rng.range(0, 8) {
            0 => cost,
            1 => cost + 1,
            2 => rng.range_i64(1, cost.max(1) + 1),
            3 => 0,
            4 => rng.range_i64(i64::MIN, 0),
            5 => i64::MAX - rng.range_i64(0, 4),
            _ => rng.range_i64(cost + 1, 5_000),
        };
        // At most ~2k due expiries per pass, to keep the reference fast.
        let reach = interval.clamp(1, 5_000) * 2_000;
        let near_max = rng.chance(1, 4);
        let mut now =
            if near_max { i64::MAX - rng.range_i64(0, reach) } else { rng.range_i64(0, reach) };
        let mut t = VTimer::default();
        t.arm(now.saturating_sub(rng.range_i64(-100, reach)), interval);
        if rng.chance(1, 16) {
            t.disarm();
        }
        let stack_limit = rng.range_u64(0, 80) as u32;
        let mut reference = t;
        for pass in 0..rng.range(1, 5) {
            let want = process_hw_timer_reference(&mut reference, now, cost, stack_limit);
            let got = process_hw_timer(&mut t, now, cost, stack_limit);
            assert_eq!((got, t), (want, reference), "pass {pass}: now {now} cost {cost}");
            now = now.saturating_add(rng.range_i64(0, reach));
        }
    });
}

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
                    let got = t.send_queuing(0, s, &msg);
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
                    let got = t.receive_queuing(1, d, buf).map(<[u8]>::to_vec);
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
            t.write_sampling(0, s, w).unwrap();
            let (msg, seq) = t.read_sampling(1, d, 8).unwrap();
            assert_eq!(msg, w);
            assert_eq!(seq, i as u64 + 1);
        }
    });
}

/// One operation on [`channels`]' table through partition `part`'s port
/// `desc`: partition 0 holds the source ports (0 on the queue, 1 on the
/// sample), partition 1 the destination ports, and descriptor 2 names
/// none.
#[derive(Debug, Clone)]
enum ChanOp {
    Send(u32, i32, Vec<u8>),
    Receive(u32, i32, u32),
    Write(u32, i32, Vec<u8>),
    Read(u32, i32, u32),
    Status(u32, i32),
    Flush(u32, i32),
    FlushAll(u32),
    Reset,
    Create,
    Clone,
    Snapshot,
    Restore,
}

/// Random operations after the four ports' creation.
fn arb_chan_ops(rng: &mut Rng) -> Vec<ChanOp> {
    let ops = rng.vec_of(0, 80, |r| {
        // Mostly well-addressed traffic, so the queue fills, drains and
        // wraps around its ring.
        let (part, desc) = if r.chance(3, 4) {
            (0, 0)
        } else {
            (r.range_u64(0, 2) as u32, r.range_i64(0, 3) as i32)
        };
        match r.range(0, 22) {
            0..=5 => ChanOp::Send(part, desc, r.bytes(0, 10)),
            6..=10 => ChanOp::Receive(part ^ 1, desc, r.range_u64(0, 12) as u32),
            11..=13 => ChanOp::Write(part, desc ^ 1, r.bytes(0, 10)),
            14..=15 => ChanOp::Read(part ^ 1, desc ^ 1, r.range_u64(0, 12) as u32),
            16 => ChanOp::Status(part, desc),
            17 => ChanOp::Flush(part, desc),
            18 => r.pick(&[ChanOp::FlushAll(0), ChanOp::FlushAll(1), ChanOp::Reset]).clone(),
            19 => ChanOp::Create,
            20 => r.pick(&[ChanOp::Clone, ChanOp::Snapshot]).clone(),
            _ => ChanOp::Restore,
        }
    });
    std::iter::once(ChanOp::Create).chain(ops).collect()
}

/// The logical state of [`channels`]' table: the queue, the sample and
/// its write count, and whether the four ports exist.
#[derive(Debug, Clone, Default, PartialEq)]
struct ChanModel {
    queue: VecDeque<Vec<u8>>,
    sample: Option<Vec<u8>>,
    writes: u64,
    ports: bool,
}

impl ChanModel {
    /// The channel (0 queue, 1 sample) and whether the port is a source,
    /// after the descriptor check.
    fn port(&self, part: u32, desc: i32) -> Result<(i32, bool), IpcError> {
        if self.ports && part < 2 && (0..2).contains(&desc) {
            Ok((desc, part == 0))
        } else {
            Err(IpcError::BadDescriptor)
        }
    }

    /// A write or send: descriptor and kind, size, direction, room.
    fn put(&mut self, part: u32, desc: i32, channel: i32, msg: &[u8]) -> Result<(), IpcError> {
        let (ch, source) = self.port(part, desc)?;
        if ch != channel {
            return Err(IpcError::BadDescriptor);
        }
        if msg.is_empty() || msg.len() > 8 {
            return Err(IpcError::BadSize);
        }
        if !source {
            return Err(IpcError::WrongDirection);
        }
        if channel == 0 {
            if self.queue.len() == 3 {
                return Err(IpcError::QueueFull);
            }
            self.queue.push_back(msg.to_vec());
        } else {
            self.sample = Some(msg.to_vec());
            self.writes += 1;
        }
        Ok(())
    }

    fn flush(&mut self, channel: i32) -> u32 {
        if channel == 0 {
            std::mem::take(&mut self.queue).len() as u32
        } else {
            u32::from(self.sample.take().is_some())
        }
    }

    /// The model read back from the table.
    fn of(t: &PortTable) -> ChanModel {
        let (q, s) = (t.channel(0).unwrap(), t.channel(1).unwrap());
        assert_eq!(q.sample(), None, "a queuing channel has no sample");
        assert_eq!(s.queue().len(), 0, "a sampling channel has no queue");
        ChanModel {
            queue: q.queue().map(<[u8]>::to_vec).collect(),
            sample: s.sample().map(<[u8]>::to_vec),
            writes: s.sample_seq,
            ports: t.total_ports() == 4,
        }
    }
}

/// Fixed-capacity channel storage equals a `VecDeque<Vec<u8>>` queue and
/// a register with a write count — error precedence included — over
/// random sends and receives across the ring's wraparound, reads into
/// short buffers, wrong-direction and wrong-kind descriptors, flushes,
/// resets, clones and restores, checked after every operation.
#[test]
fn channel_storage_matches_the_queue_and_register_models() {
    testkit::check("channel_storage_matches_the_queue_and_register_models", 512, |rng| {
        let ops = arb_chan_ops(rng);
        let mut t = PortTable::new(&channels());
        let mut model = ChanModel::default();
        let mut snapshot = (t.clone(), model.clone());
        for (i, op) in ops.iter().enumerate() {
            match op {
                ChanOp::Send(part, desc, msg) => {
                    assert_eq!(t.send_queuing(*part, *desc, msg), model.put(*part, *desc, 0, msg));
                }
                ChanOp::Write(part, desc, msg) => {
                    assert_eq!(
                        t.write_sampling(*part, *desc, msg),
                        model.put(*part, *desc, 1, msg)
                    );
                }
                ChanOp::Receive(part, desc, buf) => {
                    let want = match model.port(*part, *desc) {
                        Err(e) => Err(e),
                        Ok((1, _)) => Err(IpcError::BadDescriptor),
                        Ok((_, true)) => Err(IpcError::WrongDirection),
                        Ok(_) => match model.queue.front() {
                            None => Err(IpcError::Empty),
                            Some(m) if m.len() > *buf as usize => Err(IpcError::BadSize),
                            Some(_) => Ok(model.queue.pop_front().unwrap()),
                        },
                    };
                    let got = t.receive_queuing(*part, *desc, *buf).map(<[u8]>::to_vec);
                    assert_eq!(got, want, "op {i}");
                }
                ChanOp::Read(part, desc, buf) => {
                    let want = match model.port(*part, *desc) {
                        Err(e) => Err(e),
                        Ok((0, _)) => Err(IpcError::BadDescriptor),
                        _ if *buf == 0 => Err(IpcError::BadSize),
                        Ok((_, true)) => Err(IpcError::WrongDirection),
                        Ok(_) => match &model.sample {
                            None => Err(IpcError::Empty),
                            Some(m) => Ok((m[..m.len().min(*buf as usize)].to_vec(), model.writes)),
                        },
                    };
                    let got = t.read_sampling(*part, *desc, *buf).map(|(m, seq)| (m.to_vec(), seq));
                    assert_eq!(got, want, "op {i}");
                }
                ChanOp::Status(part, desc) => {
                    let want = model.port(*part, *desc).map(|(ch, _)| match ch {
                        0 => (PortKind::Queuing, model.queue.len() as u32, 8),
                        _ => (PortKind::Sampling, u32::from(model.sample.is_some()), 8),
                    });
                    assert_eq!(t.port_status(*part, *desc), want, "op {i}");
                }
                ChanOp::Flush(part, desc) => {
                    let want = model.port(*part, *desc).map(|(ch, _)| model.flush(ch));
                    assert_eq!(t.flush_port(*part, *desc), want, "op {i}");
                }
                ChanOp::FlushAll(part) => {
                    let want = if model.ports { model.flush(0) + model.flush(1) } else { 0 };
                    assert_eq!(t.flush_all(*part), want, "op {i}");
                }
                ChanOp::Reset => {
                    t.reset();
                    model = ChanModel::default();
                }
                ChanOp::Create => {
                    if !model.ports {
                        for (part, dir) in
                            [(0, PortDirection::Source), (1, PortDirection::Destination)]
                        {
                            assert_eq!(
                                t.create_port(part, "q", PortKind::Queuing, 8, Some(3), dir),
                                Ok(0)
                            );
                            assert_eq!(
                                t.create_port(part, "s", PortKind::Sampling, 8, None, dir),
                                Ok(1)
                            );
                        }
                        model.ports = true;
                    }
                }
                ChanOp::Clone => t = t.clone(),
                ChanOp::Snapshot => snapshot = (t.clone(), model.clone()),
                ChanOp::Restore => {
                    t.restore_from(&snapshot.0);
                    model = snapshot.1.clone();
                }
            }
            assert_eq!(ChanModel::of(&t), model, "after op {i}: {op:?}");
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

//! Inter-Partition Communication: sampling and queuing channels.
//!
//! "Transfer of data between applications is often necessary. This is done
//! through IPC channels strictly defined by the separation kernel so as to
//! limit propagation of faults between partitions." (paper, Section II)
//!
//! Channels are declared in the static configuration; partitions *attach*
//! to them at runtime by creating a named port, receiving a small integer
//! port descriptor. Sampling channels hold the last message written (with
//! a validity flag); queuing channels are bounded FIFOs.

use crate::config::{ChannelCfg, PortDirection, PortKind};
use std::sync::Arc;

/// Runtime state of one channel.
#[derive(Debug, Clone)]
pub struct ChannelState {
    /// Static declaration. Arc-shared: channel configs never change
    /// after boot, so snapshot clones skip re-copying the name strings.
    pub cfg: Arc<ChannelCfg>,
    /// Sampling: the last message (None until first write).
    pub sample: Option<Vec<u8>>,
    /// Sampling: message counter (validity/freshness indicator).
    pub sample_seq: u64,
    /// Queuing: FIFO of messages.
    pub queue: std::collections::VecDeque<Vec<u8>>,
}

/// One channel's staged sampling write: the kernel's step loop coalesces
/// the sampling-port writes a slot performs into a last-value buffer and
/// commits it once ([`PortTable::commit_staged_sample`]) at slot end — or
/// earlier, at the first operation that could observe sampling state.
#[derive(Debug, Clone, Default)]
pub struct SampleStage {
    /// How many writes this stage coalesces (each bumped `sample_seq`).
    pub writes: u64,
    /// The last value written (what the channel's sample becomes).
    pub buf: Vec<u8>,
}

/// A port created by a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// Owning partition.
    pub partition: u32,
    /// Channel index this port attaches to.
    pub channel: usize,
    /// Owner-side direction.
    pub direction: PortDirection,
}

/// Port and channel tables.
#[derive(Debug, Clone, Default)]
pub struct PortTable {
    channels: Vec<ChannelState>,
    /// Per-partition descriptor spaces: `ports[p][desc]` is partition
    /// `p`'s port `desc` — descriptors are small per-partition integers,
    /// as in XM.
    ports: Vec<Vec<Port>>,
    /// Retired queue-message buffers, reused by `send_queuing_from` so
    /// steady-state queuing traffic allocates nothing.
    recycled: Vec<Vec<u8>>,
}

/// Retired-buffer pool bound: enough for every in-flight EagleEye queue
/// slot without hoarding memory after a flood.
const RECYCLE_LIMIT: usize = 8;

/// Errors surfaced to the hypercall layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcError {
    /// No channel with that name / name unreadable.
    NoSuchChannel,
    /// The caller is neither source nor destination of the channel.
    NotParticipant,
    /// Direction does not match the caller's role on the channel.
    WrongDirection,
    /// Requested geometry (size/depth) disagrees with the configuration.
    GeometryMismatch,
    /// The named port was already created by this partition.
    AlreadyCreated,
    /// Bad port descriptor.
    BadDescriptor,
    /// Descriptor belongs to another partition.
    NotOwner,
    /// Message larger than the configured maximum (or zero).
    BadSize,
    /// Queue full (send) — message not accepted.
    QueueFull,
    /// Nothing to receive / no valid sample.
    Empty,
}

impl PortTable {
    /// Initialises runtime state from the configured channels.
    pub fn new(channels: &[ChannelCfg]) -> Self {
        PortTable {
            channels: channels
                .iter()
                .map(|c| ChannelState {
                    cfg: Arc::new(c.clone()),
                    sample: None,
                    sample_seq: 0,
                    queue: std::collections::VecDeque::new(),
                })
                .collect(),
            ports: Vec::new(),
            recycled: Vec::new(),
        }
    }

    /// Restores to `src`'s state in place (part of the campaign
    /// executor's per-test state reset). Message buffers queued since the
    /// snapshot are retired into the recycle pool instead of freed, so
    /// steady-state restore traffic — like steady-state queuing traffic —
    /// allocates nothing.
    pub fn restore_from(&mut self, src: &PortTable) {
        debug_assert_eq!(self.channels.len(), src.channels.len(), "channel layout mismatch");
        for i in 0..self.channels.len() {
            let (sample, queue_len) = {
                let ch = &mut self.channels[i];
                (ch.sample.take(), ch.queue.len())
            };
            if let Some(buf) = sample {
                self.retire(buf);
            }
            for _ in 0..queue_len {
                let buf = self.channels[i].queue.pop_front().unwrap();
                self.retire(buf);
            }
            let s = &src.channels[i];
            let ch = &mut self.channels[i];
            ch.cfg.clone_from(&s.cfg);
            ch.sample_seq = s.sample_seq;
            debug_assert!(s.sample.is_none() && s.queue.is_empty(), "snapshot has traffic");
            if let Some(sb) = &s.sample {
                ch.sample = Some(sb.clone());
            }
            ch.queue.extend(s.queue.iter().cloned());
        }
        // Port descriptor spaces: Vec<Vec<Port>> clone_from is element-
        // wise and keeps every inner capacity, so the per-test prologue's
        // port creation reuses the previous test's slots.
        self.ports.clone_from(&src.ports);
    }

    /// Retires a message buffer into the bounded recycle pool.
    fn retire(&mut self, mut buf: Vec<u8>) {
        if self.recycled.len() < RECYCLE_LIMIT {
            buf.clear();
            self.recycled.push(buf);
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Channel state (for status services).
    pub fn channel(&self, idx: usize) -> Option<&ChannelState> {
        self.channels.get(idx)
    }

    /// Ports created by `partition`, in descriptor order.
    pub fn ports_of(&self, partition: u32) -> &[Port] {
        self.ports.get(partition as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total ports created across all partitions.
    pub fn total_ports(&self) -> usize {
        self.ports.iter().map(Vec::len).sum()
    }

    /// Creates a port: attaches `partition` to channel `name` in
    /// `direction`, verifying kind/geometry against the configuration.
    /// Returns the new port descriptor.
    pub fn create_port(
        &mut self,
        partition: u32,
        name: &str,
        kind: PortKind,
        max_msg_size: u32,
        max_msgs: Option<u32>,
        direction: PortDirection,
    ) -> Result<i32, IpcError> {
        let (ci, ch) = self
            .channels
            .iter()
            .enumerate()
            .find(|(_, c)| c.cfg.name == name)
            .ok_or(IpcError::NoSuchChannel)?;
        if ch.cfg.kind != kind {
            return Err(IpcError::NoSuchChannel);
        }
        let is_source = ch.cfg.source == partition;
        let is_dest = ch.cfg.destinations.contains(&partition);
        if !is_source && !is_dest {
            return Err(IpcError::NotParticipant);
        }
        match direction {
            PortDirection::Source if !is_source => return Err(IpcError::WrongDirection),
            PortDirection::Destination if !is_dest => return Err(IpcError::WrongDirection),
            _ => {}
        }
        if max_msg_size != ch.cfg.max_msg_size {
            return Err(IpcError::GeometryMismatch);
        }
        if let Some(n) = max_msgs {
            if n != ch.cfg.max_msgs {
                return Err(IpcError::GeometryMismatch);
            }
        }
        while self.ports.len() <= partition as usize {
            self.ports.push(Vec::new());
        }
        let own = &mut self.ports[partition as usize];
        if own.iter().any(|p| p.channel == ci && p.direction == direction) {
            return Err(IpcError::AlreadyCreated);
        }
        own.push(Port { partition, channel: ci, direction });
        Ok((own.len() - 1) as i32)
    }

    fn port_for(
        &self,
        partition: u32,
        desc: i32,
        want: Option<PortDirection>,
    ) -> Result<Port, IpcError> {
        if desc < 0 {
            return Err(IpcError::BadDescriptor);
        }
        let p = *self
            .ports
            .get(partition as usize)
            .and_then(|own| own.get(desc as usize))
            .ok_or(IpcError::BadDescriptor)?;
        if let Some(d) = want {
            if p.direction != d {
                return Err(IpcError::WrongDirection);
            }
        }
        Ok(p)
    }

    /// Writes a sampling message.
    pub fn write_sampling(
        &mut self,
        partition: u32,
        desc: i32,
        msg: Vec<u8>,
    ) -> Result<(), IpcError> {
        self.write_sampling_from(partition, desc, &msg)
    }

    /// Writes a sampling message from a borrowed buffer, reusing the
    /// channel's previous sample allocation when one exists.
    pub fn write_sampling_from(
        &mut self,
        partition: u32,
        desc: i32,
        msg: &[u8],
    ) -> Result<(), IpcError> {
        let p = self.port_for(partition, desc, Some(PortDirection::Source))?;
        let ch = &mut self.channels[p.channel];
        if ch.cfg.kind != PortKind::Sampling {
            return Err(IpcError::BadDescriptor);
        }
        if msg.is_empty() || msg.len() as u32 > ch.cfg.max_msg_size {
            return Err(IpcError::BadSize);
        }
        match &mut ch.sample {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(msg);
            }
            None => ch.sample = Some(msg.to_vec()),
        }
        ch.sample_seq += 1;
        Ok(())
    }

    /// Validation half of a staged sampling write: runs exactly the checks
    /// [`PortTable::write_sampling_from`] would (same errors, same order)
    /// for a `msg_len`-byte message and returns the target channel index
    /// without touching channel state.
    pub(crate) fn sampling_write_target(
        &self,
        partition: u32,
        desc: i32,
        msg_len: usize,
    ) -> Result<usize, IpcError> {
        let p = self.port_for(partition, desc, Some(PortDirection::Source))?;
        let ch = &self.channels[p.channel];
        if ch.cfg.kind != PortKind::Sampling {
            return Err(IpcError::BadDescriptor);
        }
        if msg_len == 0 || msg_len as u32 > ch.cfg.max_msg_size {
            return Err(IpcError::BadSize);
        }
        Ok(p.channel)
    }

    /// Commit half of a staged sampling write: makes `msg` the channel's
    /// sample (reusing the previous allocation) and advances `sample_seq`
    /// by `writes` — byte-identical to `writes` consecutive
    /// [`PortTable::write_sampling_from`] calls ending in `msg`, which is
    /// what the stage coalesced.
    pub(crate) fn commit_staged_sample(&mut self, channel: usize, msg: &[u8], writes: u64) {
        let ch = &mut self.channels[channel];
        match &mut ch.sample {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(msg);
            }
            None => ch.sample = Some(msg.to_vec()),
        }
        ch.sample_seq += writes;
    }

    /// Reads the current sampling message (up to `buf_size` bytes).
    /// Returns the message and its freshness sequence number.
    pub fn read_sampling(
        &self,
        partition: u32,
        desc: i32,
        buf_size: u32,
    ) -> Result<(Vec<u8>, u64), IpcError> {
        let p = self.port_for(partition, desc, Some(PortDirection::Destination))?;
        let ch = &self.channels[p.channel];
        if ch.cfg.kind != PortKind::Sampling {
            return Err(IpcError::BadDescriptor);
        }
        if buf_size == 0 {
            return Err(IpcError::BadSize);
        }
        let msg = ch.sample.as_ref().ok_or(IpcError::Empty)?;
        let n = (buf_size as usize).min(msg.len());
        Ok((msg[..n].to_vec(), ch.sample_seq))
    }

    /// Reads the current sampling message, appending up to `buf_size`
    /// bytes to `out` (caller-reused scratch). Returns the freshness
    /// sequence number.
    pub fn read_sampling_into(
        &self,
        partition: u32,
        desc: i32,
        buf_size: u32,
        out: &mut Vec<u8>,
    ) -> Result<u64, IpcError> {
        let p = self.port_for(partition, desc, Some(PortDirection::Destination))?;
        let ch = &self.channels[p.channel];
        if ch.cfg.kind != PortKind::Sampling {
            return Err(IpcError::BadDescriptor);
        }
        if buf_size == 0 {
            return Err(IpcError::BadSize);
        }
        let msg = ch.sample.as_ref().ok_or(IpcError::Empty)?;
        let n = (buf_size as usize).min(msg.len());
        out.extend_from_slice(&msg[..n]);
        Ok(ch.sample_seq)
    }

    /// Sends on a queuing port.
    pub fn send_queuing(
        &mut self,
        partition: u32,
        desc: i32,
        msg: Vec<u8>,
    ) -> Result<(), IpcError> {
        let p = self.port_for(partition, desc, Some(PortDirection::Source))?;
        let ch = &mut self.channels[p.channel];
        if ch.cfg.kind != PortKind::Queuing {
            return Err(IpcError::BadDescriptor);
        }
        if msg.is_empty() || msg.len() as u32 > ch.cfg.max_msg_size {
            return Err(IpcError::BadSize);
        }
        if ch.queue.len() as u32 >= ch.cfg.max_msgs {
            return Err(IpcError::QueueFull);
        }
        ch.queue.push_back(msg);
        Ok(())
    }

    /// Sends on a queuing port from a borrowed buffer, backing the queued
    /// copy with a retired buffer when one is available.
    pub fn send_queuing_from(
        &mut self,
        partition: u32,
        desc: i32,
        msg: &[u8],
    ) -> Result<(), IpcError> {
        let p = self.port_for(partition, desc, Some(PortDirection::Source))?;
        {
            let ch = &self.channels[p.channel];
            if ch.cfg.kind != PortKind::Queuing {
                return Err(IpcError::BadDescriptor);
            }
            if msg.is_empty() || msg.len() as u32 > ch.cfg.max_msg_size {
                return Err(IpcError::BadSize);
            }
            if ch.queue.len() as u32 >= ch.cfg.max_msgs {
                return Err(IpcError::QueueFull);
            }
        }
        let mut buf = self.recycled.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(msg);
        self.channels[p.channel].queue.push_back(buf);
        Ok(())
    }

    /// Receives from a queuing port (message must fit in `buf_size`).
    pub fn receive_queuing(
        &mut self,
        partition: u32,
        desc: i32,
        buf_size: u32,
    ) -> Result<Vec<u8>, IpcError> {
        let p = self.port_for(partition, desc, Some(PortDirection::Destination))?;
        let ch = &mut self.channels[p.channel];
        if ch.cfg.kind != PortKind::Queuing {
            return Err(IpcError::BadDescriptor);
        }
        let front_len = ch.queue.front().map(|m| m.len()).ok_or(IpcError::Empty)?;
        if (buf_size as usize) < front_len {
            return Err(IpcError::BadSize);
        }
        Ok(ch.queue.pop_front().unwrap())
    }

    /// Receives from a queuing port, appending the message to `out`
    /// (caller-reused scratch) and retiring the dequeued buffer for reuse.
    /// Returns the message length.
    pub fn receive_queuing_into(
        &mut self,
        partition: u32,
        desc: i32,
        buf_size: u32,
        out: &mut Vec<u8>,
    ) -> Result<usize, IpcError> {
        let msg = self.receive_queuing(partition, desc, buf_size)?;
        out.extend_from_slice(&msg);
        let n = msg.len();
        if self.recycled.len() < RECYCLE_LIMIT {
            let mut retired = msg;
            retired.clear();
            self.recycled.push(retired);
        }
        Ok(n)
    }

    /// Port status for the status services: (kind, queued or validity,
    /// max_msg_size). Any direction may query.
    pub fn port_status(&self, partition: u32, desc: i32) -> Result<(PortKind, u32, u32), IpcError> {
        let p = self.port_for(partition, desc, None)?;
        let ch = &self.channels[p.channel];
        let level = match ch.cfg.kind {
            PortKind::Sampling => u32::from(ch.sample.is_some()),
            PortKind::Queuing => ch.queue.len() as u32,
        };
        Ok((ch.cfg.kind, level, ch.cfg.max_msg_size))
    }

    /// Flushes one port's channel (drops queued/sampled data). Returns the
    /// number of discarded messages.
    pub fn flush_port(&mut self, partition: u32, desc: i32) -> Result<u32, IpcError> {
        let p = self.port_for(partition, desc, None)?;
        let ch = &mut self.channels[p.channel];
        Ok(match ch.cfg.kind {
            PortKind::Sampling => u32::from(ch.sample.take().is_some()),
            PortKind::Queuing => {
                let n = ch.queue.len() as u32;
                ch.queue.clear();
                n
            }
        })
    }

    /// Flushes every port owned by `partition`. Returns discarded count.
    pub fn flush_all(&mut self, partition: u32) -> u32 {
        let n = self.ports_of(partition).len();
        (0..n as i32).map(|d| self.flush_port(partition, d).unwrap_or(0)).sum()
    }

    /// Drops all runtime state (system reset); configuration survives.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.sample = None;
            ch.sample_seq = 0;
            ch.queue.clear();
        }
        self.ports.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PortTable {
        PortTable::new(&[
            ChannelCfg {
                name: "gyro".into(),
                kind: PortKind::Sampling,
                max_msg_size: 16,
                max_msgs: 0,
                source: 1,
                destinations: vec![0, 2],
            },
            ChannelCfg {
                name: "tm".into(),
                kind: PortKind::Queuing,
                max_msg_size: 32,
                max_msgs: 2,
                source: 2,
                destinations: vec![3],
            },
        ])
    }

    #[test]
    fn create_port_happy_path() {
        let mut t = table();
        let src =
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        let dst = t
            .create_port(0, "gyro", PortKind::Sampling, 16, None, PortDirection::Destination)
            .unwrap();
        // Descriptors are per-partition: each partition's first port is 0.
        assert_eq!(src, 0);
        assert_eq!(dst, 0);
        assert_eq!(t.total_ports(), 2);
        assert_eq!(t.ports_of(1).len(), 1);
        assert_eq!(t.ports_of(0).len(), 1);
    }

    #[test]
    fn create_port_validation() {
        let mut t = table();
        assert_eq!(
            t.create_port(1, "nope", PortKind::Sampling, 16, None, PortDirection::Source),
            Err(IpcError::NoSuchChannel)
        );
        // wrong kind for the name
        assert_eq!(
            t.create_port(1, "gyro", PortKind::Queuing, 16, None, PortDirection::Source),
            Err(IpcError::NoSuchChannel)
        );
        // partition 3 is not on channel 'gyro'
        assert_eq!(
            t.create_port(3, "gyro", PortKind::Sampling, 16, None, PortDirection::Source),
            Err(IpcError::NotParticipant)
        );
        // partition 0 is a destination, not a source
        assert_eq!(
            t.create_port(0, "gyro", PortKind::Sampling, 16, None, PortDirection::Source),
            Err(IpcError::WrongDirection)
        );
        // geometry mismatch
        assert_eq!(
            t.create_port(1, "gyro", PortKind::Sampling, 8, None, PortDirection::Source),
            Err(IpcError::GeometryMismatch)
        );
        assert_eq!(
            t.create_port(2, "tm", PortKind::Queuing, 32, Some(4), PortDirection::Source),
            Err(IpcError::GeometryMismatch)
        );
        // duplicate
        t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        assert_eq!(
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source),
            Err(IpcError::AlreadyCreated)
        );
    }

    #[test]
    fn sampling_last_message_wins() {
        let mut t = table();
        let s =
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        let d = t
            .create_port(0, "gyro", PortKind::Sampling, 16, None, PortDirection::Destination)
            .unwrap();
        assert_eq!(t.read_sampling(0, d, 16), Err(IpcError::Empty));
        t.write_sampling(1, s, vec![1, 2, 3]).unwrap();
        t.write_sampling(1, s, vec![9, 9]).unwrap();
        let (msg, seq) = t.read_sampling(0, d, 16).unwrap();
        assert_eq!(msg, vec![9, 9]);
        assert_eq!(seq, 2);
        // short read truncates
        let (msg, _) = t.read_sampling(0, d, 1).unwrap();
        assert_eq!(msg, vec![9]);
    }

    #[test]
    fn sampling_size_checks() {
        let mut t = table();
        let s =
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        assert_eq!(t.write_sampling(1, s, vec![]), Err(IpcError::BadSize));
        assert_eq!(t.write_sampling(1, s, vec![0; 17]), Err(IpcError::BadSize));
        let d = t
            .create_port(0, "gyro", PortKind::Sampling, 16, None, PortDirection::Destination)
            .unwrap();
        t.write_sampling(1, s, vec![1]).unwrap();
        assert_eq!(t.read_sampling(0, d, 0), Err(IpcError::BadSize));
    }

    #[test]
    fn queuing_fifo_and_backpressure() {
        let mut t = table();
        let s =
            t.create_port(2, "tm", PortKind::Queuing, 32, Some(2), PortDirection::Source).unwrap();
        let d = t
            .create_port(3, "tm", PortKind::Queuing, 32, Some(2), PortDirection::Destination)
            .unwrap();
        t.send_queuing(2, s, vec![1]).unwrap();
        t.send_queuing(2, s, vec![2]).unwrap();
        assert_eq!(t.send_queuing(2, s, vec![3]), Err(IpcError::QueueFull));
        assert_eq!(t.receive_queuing(3, d, 32).unwrap(), vec![1]);
        assert_eq!(t.receive_queuing(3, d, 32).unwrap(), vec![2]);
        assert_eq!(t.receive_queuing(3, d, 32), Err(IpcError::Empty));
    }

    #[test]
    fn receive_buffer_must_fit() {
        let mut t = table();
        let s =
            t.create_port(2, "tm", PortKind::Queuing, 32, Some(2), PortDirection::Source).unwrap();
        let d = t
            .create_port(3, "tm", PortKind::Queuing, 32, Some(2), PortDirection::Destination)
            .unwrap();
        t.send_queuing(2, s, vec![0; 10]).unwrap();
        assert_eq!(t.receive_queuing(3, d, 5), Err(IpcError::BadSize));
        assert_eq!(t.receive_queuing(3, d, 10).unwrap().len(), 10);
    }

    #[test]
    fn descriptor_isolation() {
        let mut t = table();
        let s =
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        // Descriptor spaces are per-partition: partition 2 has no port 0.
        assert_eq!(t.write_sampling(2, s, vec![1]), Err(IpcError::BadDescriptor));
        assert_eq!(t.write_sampling(1, -1, vec![1]), Err(IpcError::BadDescriptor));
        assert_eq!(t.write_sampling(1, 99, vec![1]), Err(IpcError::BadDescriptor));
    }

    #[test]
    fn status_and_flush() {
        let mut t = table();
        let s =
            t.create_port(2, "tm", PortKind::Queuing, 32, Some(2), PortDirection::Source).unwrap();
        t.send_queuing(2, s, vec![1]).unwrap();
        let (kind, level, max) = t.port_status(2, s).unwrap();
        assert_eq!((kind, level, max), (PortKind::Queuing, 1, 32));
        assert_eq!(t.flush_port(2, s).unwrap(), 1);
        let (_, level, _) = t.port_status(2, s).unwrap();
        assert_eq!(level, 0);
    }

    #[test]
    fn flush_all_only_touches_callers_ports() {
        let mut t = table();
        let gs =
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        let qs =
            t.create_port(2, "tm", PortKind::Queuing, 32, Some(2), PortDirection::Source).unwrap();
        t.write_sampling(1, gs, vec![1]).unwrap();
        t.send_queuing(2, qs, vec![2]).unwrap();
        assert_eq!(t.flush_all(1), 1);
        // partition 2's queue is untouched
        let (_, level, _) = t.port_status(2, qs).unwrap();
        assert_eq!(level, 1);
    }

    #[test]
    fn reset_clears_runtime_state() {
        let mut t = table();
        let s =
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        t.write_sampling(1, s, vec![1]).unwrap();
        t.reset();
        assert_eq!(t.total_ports(), 0);
        assert!(t.channel(0).unwrap().sample.is_none());
    }
}

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
//!
//! Each channel's storage is allocated once, at boot, from its configured
//! geometry: one `max_msg_size` slot for a sampling channel, a ring of
//! `max_msgs` such slots for a queuing channel, and a length per slot. A
//! message is copied once, between partition memory and its slot, and no
//! operation allocates.

use crate::config::{ChannelCfg, PortDirection, PortKind};
use std::sync::Arc;

/// Runtime state of one channel.
#[derive(Clone)]
pub struct ChannelState {
    /// Static declaration. Arc-shared: channel configs never change
    /// after boot, so snapshot clones skip re-copying the name strings.
    pub cfg: Arc<ChannelCfg>,
    /// Sampling: message counter (validity/freshness indicator).
    pub sample_seq: u64,
    /// The slots, `max_msg_size` bytes each: slot `i` starts at byte
    /// `i * max_msg_size`.
    bytes: Box<[u8]>,
    /// The length of the message each slot holds.
    lens: Box<[u32]>,
    /// The slot of the oldest message (always 0 on a sampling channel).
    head: u32,
    /// Messages held: the queue's depth, or 1 while a sample is valid.
    count: u32,
}

impl ChannelState {
    fn new(cfg: &ChannelCfg) -> Self {
        let slots = cfg.slots() as usize;
        ChannelState {
            cfg: Arc::new(cfg.clone()),
            sample_seq: 0,
            bytes: vec![0; slots * cfg.max_msg_size as usize].into_boxed_slice(),
            lens: vec![0; slots].into_boxed_slice(),
            head: 0,
            count: 0,
        }
    }

    /// The message slot `slot` holds.
    fn msg(&self, slot: usize) -> &[u8] {
        let at = slot * self.cfg.max_msg_size as usize;
        &self.bytes[at..at + self.lens[slot] as usize]
    }

    /// The slot the next message lands in: the one after the newest queued
    /// message, or the sample's own slot.
    fn tail(&self) -> usize {
        (self.head + self.count) as usize % self.lens.len()
    }

    /// Sampling: the last message written (`None` until the first write
    /// and after a flush).
    pub fn sample(&self) -> Option<&[u8]> {
        (self.cfg.kind == PortKind::Sampling && self.count > 0).then(|| self.msg(0))
    }

    /// Queuing: the queued messages, oldest first.
    pub fn queue(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        let n = if self.cfg.kind == PortKind::Queuing { self.count } else { 0 };
        (0..n).map(move |i| self.msg((self.head + i) as usize % self.lens.len()))
    }
}

impl std::fmt::Debug for ChannelState {
    /// The logical state only: bytes past a message's end, and slots no
    /// message holds, are not part of it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelState")
            .field("name", &self.cfg.name)
            .field("sample_seq", &self.sample_seq)
            .field("sample", &self.sample())
            .field("queue", &self.queue().collect::<Vec<_>>())
            .finish()
    }
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
}

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
    /// Message larger than the configured maximum (or zero).
    BadSize,
    /// Queue full (send) — message not accepted.
    QueueFull,
    /// Nothing to receive / no valid sample.
    Empty,
}

impl PortTable {
    /// Initialises runtime state from the configured channels, allocating
    /// each channel's storage. Boot bounds the geometry first
    /// ([`XmConfig::validate`](crate::config::XmConfig::validate)).
    pub fn new(channels: &[ChannelCfg]) -> Self {
        PortTable { channels: channels.iter().map(ChannelState::new).collect(), ports: Vec::new() }
    }

    /// Restores to `src`'s state in place (part of the campaign
    /// executor's per-test state reset): scalar copies and one bounded
    /// copy of each channel's storage, so it allocates nothing.
    pub fn restore_from(&mut self, src: &PortTable) {
        debug_assert_eq!(self.channels.len(), src.channels.len(), "channel layout mismatch");
        for (ch, s) in self.channels.iter_mut().zip(&src.channels) {
            debug_assert!(Arc::ptr_eq(&ch.cfg, &s.cfg), "channel config mismatch");
            ch.sample_seq = s.sample_seq;
            ch.head = s.head;
            ch.count = s.count;
            ch.lens.copy_from_slice(&s.lens);
            ch.bytes.copy_from_slice(&s.bytes);
        }
        // Port descriptor spaces: Vec<Vec<Port>> clone_from is element-
        // wise and keeps every inner capacity, so the per-test prologue's
        // port creation reuses the previous test's slots.
        self.ports.clone_from(&src.ports);
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

    /// `partition`'s port `desc`: the check every port operation makes
    /// first.
    fn port_for(&self, partition: u32, desc: i32) -> Result<Port, IpcError> {
        usize::try_from(desc)
            .ok()
            .and_then(|desc| self.ports.get(partition as usize)?.get(desc))
            .copied()
            .ok_or(IpcError::BadDescriptor)
    }

    /// [`port_for`](Self::port_for) on a `kind` channel: a descriptor of
    /// the other kind is as bad as one that names no port.
    fn typed_port(&self, partition: u32, desc: i32, kind: PortKind) -> Result<Port, IpcError> {
        let p = self.port_for(partition, desc)?;
        if self.channels[p.channel].cfg.kind != kind {
            return Err(IpcError::BadDescriptor);
        }
        Ok(p)
    }

    /// Where a `len`-byte write or send through `partition`'s port `desc`
    /// lands: the channel index and the slot's first `len` bytes. Checks,
    /// in order, the descriptor and the channel's `kind`, the size, the
    /// port's direction and (queuing) a free slot. Nothing changes until
    /// [`land`](Self::land) commits the message, so a caller that fails
    /// to fill the slot leaves the channel as it was.
    pub(crate) fn message_slot(
        &mut self,
        partition: u32,
        desc: i32,
        kind: PortKind,
        len: usize,
    ) -> Result<(usize, &mut [u8]), IpcError> {
        let p = self.typed_port(partition, desc, kind)?;
        let ch = &mut self.channels[p.channel];
        if len == 0 || len > ch.cfg.max_msg_size as usize {
            return Err(IpcError::BadSize);
        }
        if p.direction != PortDirection::Source {
            return Err(IpcError::WrongDirection);
        }
        if kind == PortKind::Queuing && ch.count as usize == ch.lens.len() {
            return Err(IpcError::QueueFull);
        }
        let at = ch.tail() * ch.cfg.max_msg_size as usize;
        Ok((p.channel, &mut ch.bytes[at..at + len]))
    }

    /// Commits the `len`-byte message written into the slot
    /// [`message_slot`](Self::message_slot) handed out for `channel`: it
    /// becomes the sample (counted by `sample_seq`) or the newest queued
    /// message.
    pub(crate) fn land(&mut self, channel: usize, len: usize) {
        let ch = &mut self.channels[channel];
        let tail = ch.tail();
        ch.lens[tail] = len as u32;
        match ch.cfg.kind {
            PortKind::Sampling => {
                ch.count = 1;
                ch.sample_seq += 1;
            }
            PortKind::Queuing => ch.count += 1,
        }
    }

    /// Writes a sampling message. Checks, in order, the descriptor and the
    /// channel's kind, the size and the port's direction.
    pub fn write_sampling(
        &mut self,
        partition: u32,
        desc: i32,
        msg: &[u8],
    ) -> Result<(), IpcError> {
        self.put(partition, desc, PortKind::Sampling, msg)
    }

    /// Sends on a queuing port. Checks, in order, the descriptor and the
    /// channel's kind, the size, the port's direction and a free slot.
    pub fn send_queuing(&mut self, partition: u32, desc: i32, msg: &[u8]) -> Result<(), IpcError> {
        self.put(partition, desc, PortKind::Queuing, msg)
    }

    fn put(
        &mut self,
        partition: u32,
        desc: i32,
        kind: PortKind,
        msg: &[u8],
    ) -> Result<(), IpcError> {
        let (channel, slot) = self.message_slot(partition, desc, kind, msg.len())?;
        slot.copy_from_slice(msg);
        self.land(channel, msg.len());
        Ok(())
    }

    /// Reads the current sampling message, truncated to `buf_size` bytes,
    /// and its freshness sequence number. Checks, in order, the descriptor
    /// and the channel's kind, a non-zero `buf_size`, the port's direction
    /// and a valid sample.
    pub fn read_sampling(
        &self,
        partition: u32,
        desc: i32,
        buf_size: u32,
    ) -> Result<(&[u8], u64), IpcError> {
        let p = self.typed_port(partition, desc, PortKind::Sampling)?;
        if buf_size == 0 {
            return Err(IpcError::BadSize);
        }
        if p.direction != PortDirection::Destination {
            return Err(IpcError::WrongDirection);
        }
        let ch = &self.channels[p.channel];
        let msg = ch.sample().ok_or(IpcError::Empty)?;
        Ok((&msg[..msg.len().min(buf_size as usize)], ch.sample_seq))
    }

    /// Dequeues the oldest message, which must fit in `buf_size` bytes, and
    /// returns it from its slot (which the next send may reuse). Checks,
    /// in order, the descriptor and the channel's kind, the port's
    /// direction, a queued message and its fit.
    pub fn receive_queuing(
        &mut self,
        partition: u32,
        desc: i32,
        buf_size: u32,
    ) -> Result<&[u8], IpcError> {
        let p = self.typed_port(partition, desc, PortKind::Queuing)?;
        if p.direction != PortDirection::Destination {
            return Err(IpcError::WrongDirection);
        }
        let ch = &mut self.channels[p.channel];
        if ch.count == 0 {
            return Err(IpcError::Empty);
        }
        let head = ch.head as usize;
        if ch.lens[head] > buf_size {
            return Err(IpcError::BadSize);
        }
        ch.head = ((head + 1) % ch.lens.len()) as u32;
        ch.count -= 1;
        Ok(ch.msg(head))
    }

    /// Port status for the status services: (kind, queued or validity,
    /// max_msg_size). Any direction may query.
    pub fn port_status(&self, partition: u32, desc: i32) -> Result<(PortKind, u32, u32), IpcError> {
        let ch = &self.channels[self.port_for(partition, desc)?.channel];
        Ok((ch.cfg.kind, ch.count, ch.cfg.max_msg_size))
    }

    /// Flushes one port's channel (drops queued/sampled data). Returns the
    /// number of discarded messages.
    pub fn flush_port(&mut self, partition: u32, desc: i32) -> Result<u32, IpcError> {
        let p = self.port_for(partition, desc)?;
        Ok(std::mem::take(&mut self.channels[p.channel].count))
    }

    /// Flushes every port owned by `partition`. Returns discarded count.
    pub fn flush_all(&mut self, partition: u32) -> u32 {
        let n = self.ports_of(partition).len();
        (0..n as i32).map(|d| self.flush_port(partition, d).unwrap_or(0)).sum()
    }

    /// Drops all runtime state (system reset); configuration survives.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.sample_seq = 0;
            ch.head = 0;
            ch.count = 0;
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
        t.write_sampling(1, s, &[1, 2, 3]).unwrap();
        t.write_sampling(1, s, &[9, 9]).unwrap();
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
        assert_eq!(t.write_sampling(1, s, &[]), Err(IpcError::BadSize));
        assert_eq!(t.write_sampling(1, s, &[0; 17]), Err(IpcError::BadSize));
        let d = t
            .create_port(0, "gyro", PortKind::Sampling, 16, None, PortDirection::Destination)
            .unwrap();
        t.write_sampling(1, s, &[1]).unwrap();
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
        t.send_queuing(2, s, &[1]).unwrap();
        t.send_queuing(2, s, &[2]).unwrap();
        assert_eq!(t.send_queuing(2, s, &[3]), Err(IpcError::QueueFull));
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
        t.send_queuing(2, s, &[0; 10]).unwrap();
        assert_eq!(t.receive_queuing(3, d, 5), Err(IpcError::BadSize));
        assert_eq!(t.receive_queuing(3, d, 10).unwrap().len(), 10);
    }

    #[test]
    fn descriptor_isolation() {
        let mut t = table();
        let s =
            t.create_port(1, "gyro", PortKind::Sampling, 16, None, PortDirection::Source).unwrap();
        // Descriptor spaces are per-partition: partition 2 has no port 0.
        assert_eq!(t.write_sampling(2, s, &[1]), Err(IpcError::BadDescriptor));
        assert_eq!(t.write_sampling(1, -1, &[1]), Err(IpcError::BadDescriptor));
        assert_eq!(t.write_sampling(1, 99, &[1]), Err(IpcError::BadDescriptor));
    }

    #[test]
    fn status_and_flush() {
        let mut t = table();
        let s =
            t.create_port(2, "tm", PortKind::Queuing, 32, Some(2), PortDirection::Source).unwrap();
        t.send_queuing(2, s, &[1]).unwrap();
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
        t.write_sampling(1, gs, &[1]).unwrap();
        t.send_queuing(2, qs, &[2]).unwrap();
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
        t.write_sampling(1, s, &[1]).unwrap();
        t.reset();
        assert_eq!(t.total_ports(), 0);
        assert!(t.channel(0).unwrap().sample().is_none());
    }
}

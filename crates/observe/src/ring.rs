//! Fixed-capacity event ring with overwrite-oldest semantics.

use crate::{DrainedFlight, Event, EventKind};

/// Preallocated circular event buffer. `push` never allocates: once the
/// buffer is full the oldest event is overwritten and counted as dropped.
/// Timestamps are clamped monotone within one recording window so that
/// consumers (span exporters, the triage timeline) can rely on ordering.
#[derive(Debug)]
pub struct Ring {
    pub(crate) buf: Vec<Event>,
    cap: usize,
    /// Index of the oldest event once the buffer has wrapped.
    start: usize,
    dropped: u64,
    last_t: u64,
}

impl Ring {
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Ring { buf: Vec::with_capacity(cap), cap, start: 0, dropped: 0, last_t: 0 }
    }

    /// A ring that never wraps: its buffer grows with what is pushed, so
    /// it holds a bounded one-off window (see [`crate::capture`]) at
    /// exactly its size.
    pub(crate) fn unbounded() -> Self {
        Ring { buf: Vec::new(), cap: usize::MAX, start: 0, dropped: 0, last_t: 0 }
    }

    /// Timestamp of the most recently pushed event in this window.
    #[inline]
    pub fn last_timestamp(&self) -> u64 {
        self.last_t
    }

    #[inline]
    pub fn push(&mut self, e: Event) {
        self.record(e.t_us, e.kind, e.partition, e.code, e.a, e.b);
    }

    /// [`push`](Self::push) from the event's fields: the event is built in
    /// its slot, never assembled elsewhere and copied in.
    #[inline]
    pub fn record(
        &mut self,
        t_us: u64,
        kind: EventKind,
        partition: u16,
        code: u32,
        a: u64,
        b: u64,
    ) {
        let t_us = t_us.max(self.last_t);
        self.last_t = t_us;
        let e = Event { t_us, kind, partition, code, a, b };
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.start] = e;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Take every event (oldest first) and reset the window. The backing
    /// buffer's capacity is retained.
    pub fn drain(&mut self) -> DrainedFlight {
        let mut events = Vec::with_capacity(self.buf.len());
        events.extend_from_slice(&self.buf[self.start..]);
        events.extend_from_slice(&self.buf[..self.start]);
        let dropped = self.dropped;
        self.clear();
        DrainedFlight { events, dropped }
    }

    /// Discard every event and reset the window (the monotone clamp
    /// restarts at 0). The backing buffer's capacity is retained.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.dropped = 0;
        self.last_t = 0;
    }
}

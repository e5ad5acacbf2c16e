//! Tracing facilities.
//!
//! XM keeps a bounded trace stream per partition (plus one for the
//! hypervisor itself). Partitions emit events with `XM_trace_event`;
//! system partitions may open any stream and read it back with
//! `XM_trace_read` / `XM_trace_seek` / `XM_trace_status`.

use leon3_sim::TimeUs;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission time (µs).
    pub time: TimeUs,
    /// Emitting partition (or `u32::MAX` for the hypervisor stream).
    pub partition: u32,
    /// Application bitmask filter word supplied at emission.
    pub bitmask: u32,
    /// Opaque event payload word.
    pub payload: u32,
}

/// A bounded trace stream with a read cursor.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    capacity: usize,
    /// Read cursor for `XM_trace_read`.
    pub cursor: usize,
    /// Records dropped once full.
    pub dropped: u64,
}

impl TraceBuffer {
    /// Creates a stream holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer { records: Vec::new(), capacity, cursor: 0, dropped: 0 }
    }

    /// Restores to `src`'s state in place, keeping the record buffer's
    /// allocation (part of the campaign executor's per-test state reset).
    pub fn restore_from(&mut self, src: &TraceBuffer) {
        self.records.clone_from(&src.records);
        self.capacity = src.capacity;
        self.cursor = src.cursor;
        self.dropped = src.dropped;
    }

    /// Appends a record (oldest-retained policy, like XM's flight
    /// recorder in "stop on full" mode).
    pub fn emit(&mut self, rec: TraceRecord) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(rec);
    }

    /// Reads the record at the cursor, advancing it.
    pub fn read(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(r)
    }

    /// Repositions the cursor. `whence`: 0 = set, 1 = current, 2 = end.
    pub fn seek(&mut self, offset: i64, whence: u32) -> Option<usize> {
        let base = match whence {
            0 => 0i64,
            1 => self.cursor as i64,
            2 => self.records.len() as i64,
            _ => return None,
        };
        let target = base.checked_add(offset)?;
        if target < 0 || target > self.records.len() as i64 {
            return None;
        }
        self.cursor = target as usize;
        Some(self.cursor)
    }

    /// (retained, capacity, cursor) for the status service.
    pub fn status(&self) -> (u32, u32, u32) {
        (self.records.len() as u32, self.capacity as u32, self.cursor as u32)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Clears (cold reset).
    pub fn clear(&mut self) {
        self.records.clear();
        self.cursor = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: TimeUs, payload: u32) -> TraceRecord {
        TraceRecord { time: t, partition: 0, bitmask: 1, payload }
    }

    #[test]
    fn emit_and_read_in_order() {
        let mut b = TraceBuffer::new(8);
        b.emit(rec(1, 10));
        b.emit(rec(2, 20));
        assert_eq!(b.read().unwrap().payload, 10);
        assert_eq!(b.read().unwrap().payload, 20);
        assert!(b.read().is_none());
    }

    #[test]
    fn bounded_with_drop_count() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5 {
            b.emit(rec(i, i as u32));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped, 3);
    }

    #[test]
    fn seek_whence_semantics() {
        let mut b = TraceBuffer::new(8);
        for i in 0..4 {
            b.emit(rec(i, i as u32));
        }
        assert_eq!(b.seek(2, 0), Some(2));
        assert_eq!(b.read().unwrap().payload, 2);
        assert_eq!(b.seek(-3, 1), Some(0));
        assert_eq!(b.seek(0, 2), Some(4));
        assert!(b.read().is_none());
        assert_eq!(b.seek(0, 16), None);
        assert_eq!(b.seek(-5, 0), None);
        assert_eq!(b.seek(i64::MAX, 1), None);
    }

    #[test]
    fn status_reports_geometry() {
        let mut b = TraceBuffer::new(4);
        b.emit(rec(0, 0));
        b.read();
        assert_eq!(b.status(), (1, 4, 1));
    }

    #[test]
    fn clear_resets() {
        let mut b = TraceBuffer::new(1);
        b.emit(rec(0, 0));
        b.emit(rec(1, 1));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dropped, 0);
        assert_eq!(b.cursor, 0);
    }
}

//! Health Monitor (HM) — fault detection, logging and containment.
//!
//! "This mechanism is responsible of detecting and handling irregular
//! events occurring within partitions or the kernel itself. The main
//! objective is to discover the errors as early as possible so that
//! offending processes or partitions are dealt with and the faults
//! contained." (paper, Section II)
//!
//! The HM is also the primary *observation channel* of the robustness
//! campaign: the log analysis phase classifies tests by the HM events and
//! containment actions they provoke.

use leon3_sim::TimeUs;

/// Broad classes of HM events, used to index the action table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HmEventClass {
    /// A processor trap attributed to partition code.
    PartitionTrap,
    /// A processor trap in kernel context (catastrophic by default).
    KernelTrap,
    /// A partition overran its scheduling slot (temporal isolation
    /// violation).
    SchedOverrun,
    /// A partition raised an application-level event via
    /// `XM_hm_raise_event`.
    PartitionRaised,
}

impl HmEventClass {
    /// All classes, for table iteration.
    pub const ALL: [HmEventClass; 4] = [
        HmEventClass::PartitionTrap,
        HmEventClass::KernelTrap,
        HmEventClass::SchedOverrun,
        HmEventClass::PartitionRaised,
    ];
}

/// A concrete HM event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HmEventKind {
    /// Trap `tt` raised while partition code was executing.
    PartitionTrap {
        /// SPARC trap type number.
        tt: u8,
        /// Faulting address for memory traps.
        addr: Option<u32>,
    },
    /// Trap `tt` raised in kernel/supervisor context (e.g. the legacy
    /// `XM_set_timer` stack overflow, or an unhandled data access while
    /// servicing `XM_multicall`).
    KernelTrap {
        /// SPARC trap type number.
        tt: u8,
        /// Faulting address for memory traps.
        addr: Option<u32>,
        /// Short description of the kernel activity that trapped.
        context: &'static str,
    },
    /// Temporal isolation violation: the partition consumed `overrun_us`
    /// beyond its slot.
    SchedOverrun {
        /// Microseconds past the slot boundary.
        overrun_us: u64,
    },
    /// Application-raised event.
    PartitionRaised {
        /// Application event code.
        code: u32,
    },
}

impl HmEventKind {
    /// The class used to select a containment action.
    pub fn class(&self) -> HmEventClass {
        match self {
            HmEventKind::PartitionTrap { .. } => HmEventClass::PartitionTrap,
            HmEventKind::KernelTrap { .. } => HmEventClass::KernelTrap,
            HmEventKind::SchedOverrun { .. } => HmEventClass::SchedOverrun,
            HmEventKind::PartitionRaised { .. } => HmEventClass::PartitionRaised,
        }
    }
}

/// Containment action the HM takes for an event class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HmAction {
    /// Record only.
    Log,
    /// Silently drop.
    Ignore,
    /// Halt the offending partition (fault containment).
    HaltPartition,
    /// Warm-reset the offending partition.
    ResetPartitionWarm,
    /// Cold-reset the offending partition.
    ResetPartitionCold,
    /// Halt the whole system (kernel-level faults).
    HaltSystem,
    /// Warm-reset the whole system.
    ResetSystemWarm,
}

impl HmAction {
    /// Stable numeric code used in flight-recorder event payloads.
    pub fn flight_code(self) -> u32 {
        match self {
            HmAction::Log => 0,
            HmAction::Ignore => 1,
            HmAction::HaltPartition => 2,
            HmAction::ResetPartitionWarm => 3,
            HmAction::ResetPartitionCold => 4,
            HmAction::HaltSystem => 5,
            HmAction::ResetSystemWarm => 6,
        }
    }

    /// Human-readable name for a [`HmAction::flight_code`] value.
    pub fn flight_name(code: u32) -> &'static str {
        match code {
            0 => "Log",
            1 => "Ignore",
            2 => "HaltPartition",
            3 => "ResetPartitionWarm",
            4 => "ResetPartitionCold",
            5 => "HaltSystem",
            6 => "ResetSystemWarm",
            _ => "?",
        }
    }
}

/// The configured event-class → action table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmTable {
    entries: Vec<(HmEventClass, HmAction)>,
}

impl Default for HmTable {
    fn default() -> Self {
        // Conservative defaults mirroring the XM reference configuration.
        HmTable {
            entries: vec![
                (HmEventClass::PartitionTrap, HmAction::HaltPartition),
                (HmEventClass::KernelTrap, HmAction::HaltSystem),
                (HmEventClass::SchedOverrun, HmAction::Log),
                (HmEventClass::PartitionRaised, HmAction::Log),
            ],
        }
    }
}

impl HmTable {
    /// Sets the action for a class.
    pub fn set(&mut self, class: HmEventClass, action: HmAction) {
        if let Some(e) = self.entries.iter_mut().find(|(c, _)| *c == class) {
            e.1 = action;
        } else {
            self.entries.push((class, action));
        }
    }

    /// Action configured for a class.
    pub fn action(&self, class: HmEventClass) -> HmAction {
        self.entries.iter().find(|(c, _)| *c == class).map(|(_, a)| *a).unwrap_or(HmAction::Log)
    }
}

/// One HM log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmLogEntry {
    /// Time of detection (µs).
    pub time: TimeUs,
    /// What happened.
    pub kind: HmEventKind,
    /// Offending partition, if attributable.
    pub partition: Option<u32>,
    /// Containment action taken.
    pub action: HmAction,
}

/// The HM log: a bounded ring plus a read cursor for `XM_hm_read` /
/// `XM_hm_seek`.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    log: Vec<HmLogEntry>,
    capacity: usize,
    /// Events dropped after the ring filled.
    pub dropped: u64,
    /// Read cursor (entry index) for the HM-read service.
    pub cursor: usize,
    /// Whether a system partition has opened the HM device.
    pub opened: bool,
}

impl HealthMonitor {
    /// Creates an HM with the given log capacity.
    pub fn new(capacity: usize) -> Self {
        HealthMonitor { log: Vec::new(), capacity, dropped: 0, cursor: 0, opened: false }
    }

    /// Records an event (the kernel computes and applies the action; the
    /// HM just journals it).
    pub fn record(&mut self, entry: HmLogEntry) {
        if self.log.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.log.push(entry);
    }

    /// The whole retained log.
    pub fn log(&self) -> &[HmLogEntry] {
        &self.log
    }

    /// Restores to `src`'s state in place, keeping the log's allocation
    /// (part of the campaign executor's per-test state reset).
    pub fn restore_from(&mut self, src: &HealthMonitor) {
        self.log.clone_from(&src.log);
        self.capacity = src.capacity;
        self.dropped = src.dropped;
        self.cursor = src.cursor;
        self.opened = src.opened;
    }

    /// Consumes the monitor, handing the retained log to the caller
    /// without copying it.
    pub fn into_log(self) -> Vec<HmLogEntry> {
        self.log
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Reads up to `count` entries from the cursor, advancing it.
    pub fn read(&mut self, count: usize) -> Vec<HmLogEntry> {
        let end = (self.cursor + count).min(self.log.len());
        let out = self.log[self.cursor..end].to_vec();
        self.cursor = end;
        out
    }

    /// Repositions the cursor. `whence`: 0 = set, 1 = current, 2 = end.
    /// Returns the new cursor or `None` for invalid whence/positions.
    pub fn seek(&mut self, offset: i64, whence: u32) -> Option<usize> {
        let base = match whence {
            0 => 0i64,
            1 => self.cursor as i64,
            2 => self.log.len() as i64,
            _ => return None,
        };
        let target = base.checked_add(offset)?;
        if target < 0 || target > self.log.len() as i64 {
            return None;
        }
        self.cursor = target as usize;
        Some(self.cursor)
    }

    /// Clears the log (system cold reset).
    pub fn clear(&mut self) {
        self.log.clear();
        self.cursor = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: TimeUs) -> HmLogEntry {
        HmLogEntry {
            time: t,
            kind: HmEventKind::PartitionTrap { tt: 0x09, addr: Some(0) },
            partition: Some(1),
            action: HmAction::HaltPartition,
        }
    }

    #[test]
    fn table_defaults() {
        let t = HmTable::default();
        assert_eq!(t.action(HmEventClass::PartitionTrap), HmAction::HaltPartition);
        assert_eq!(t.action(HmEventClass::KernelTrap), HmAction::HaltSystem);
    }

    #[test]
    fn table_set_overrides() {
        let mut t = HmTable::default();
        t.set(HmEventClass::SchedOverrun, HmAction::ResetPartitionWarm);
        assert_eq!(t.action(HmEventClass::SchedOverrun), HmAction::ResetPartitionWarm);
    }

    #[test]
    fn event_classes_map() {
        assert_eq!(
            HmEventKind::KernelTrap { tt: 5, addr: None, context: "t" }.class(),
            HmEventClass::KernelTrap
        );
        assert_eq!(HmEventKind::SchedOverrun { overrun_us: 1 }.class(), HmEventClass::SchedOverrun);
        assert_eq!(HmEventKind::PartitionRaised { code: 7 }.class(), HmEventClass::PartitionRaised);
    }

    #[test]
    fn log_is_bounded() {
        let mut hm = HealthMonitor::new(2);
        for i in 0..5 {
            hm.record(ev(i));
        }
        assert_eq!(hm.len(), 2);
        assert_eq!(hm.dropped, 3);
    }

    #[test]
    fn read_advances_cursor() {
        let mut hm = HealthMonitor::new(10);
        for i in 0..4 {
            hm.record(ev(i));
        }
        assert_eq!(hm.read(2).len(), 2);
        assert_eq!(hm.cursor, 2);
        assert_eq!(hm.read(10).len(), 2);
        assert_eq!(hm.read(1).len(), 0);
    }

    #[test]
    fn seek_semantics() {
        let mut hm = HealthMonitor::new(10);
        for i in 0..4 {
            hm.record(ev(i));
        }
        assert_eq!(hm.seek(1, 0), Some(1)); // SET
        assert_eq!(hm.seek(2, 1), Some(3)); // CUR
        assert_eq!(hm.seek(-1, 2), Some(3)); // END-1
        assert_eq!(hm.seek(0, 3), None); // bad whence
        assert_eq!(hm.seek(-10, 0), None); // out of range
        assert_eq!(hm.seek(99, 1), None);
        assert_eq!(hm.cursor, 3); // failed seeks leave the cursor alone
    }

    #[test]
    fn seek_extreme_offsets_do_not_overflow() {
        let mut hm = HealthMonitor::new(4);
        hm.record(ev(0));
        assert_eq!(hm.seek(i64::MIN, 1), None);
        assert_eq!(hm.seek(i64::MAX, 2), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut hm = HealthMonitor::new(1);
        hm.record(ev(0));
        hm.record(ev(1));
        hm.read(1);
        hm.clear();
        assert!(hm.is_empty());
        assert_eq!(hm.cursor, 0);
        assert_eq!(hm.dropped, 0);
    }
}

//! Representative OBSW guest programs for the non-test partitions.
//!
//! Each guest re-runs its initialisation when it observes a partition
//! (re)boot, tolerates IPC errors (a robust application survives a test
//! campaign raging in the FDIR partition), and consumes a realistic share
//! of its slot. Their IPC behaviour is deterministic per frame, which is
//! what lets the oracle predict first-invocation channel state.

use crate::map::*;
use xtratum::guest::{GuestProgram, PartitionApi};
use xtratum::hypercall::{HypercallId, RawHypercall};

/// Writes `name` (NUL-terminated) into the guest's own RAM at `addr`.
fn write_name(api: &mut PartitionApi<'_>, addr: u32, name: &str) {
    if api.write_bytes(addr, name.as_bytes()).is_ok() {
        let _ = api.write_bytes(addr + name.len() as u32, &[0]);
    }
}

fn create_port(
    api: &mut PartitionApi<'_>,
    name_addr: u32,
    name: &str,
    kind_queuing: bool,
    max_msgs: u32,
    max_msg_size: u32,
    direction: u32,
) -> i32 {
    write_name(api, name_addr, name);
    let hc = if kind_queuing {
        RawHypercall::new_unchecked(
            HypercallId::CreateQueuingPort,
            [name_addr as u64, max_msgs as u64, max_msg_size as u64, direction as u64],
        )
    } else {
        RawHypercall::new_unchecked(
            HypercallId::CreateSamplingPort,
            [name_addr as u64, max_msg_size as u64, direction as u64],
        )
    };
    api.hypercall(&hc).unwrap_or(-1)
}

/// Implements the snapshot-restore hooks for a plain-data guest type:
/// the campaign executor rewinds these guests per test by assignment
/// (their state is a handful of scalars), so the per-test reset never
/// re-boxes them.
macro_rules! restorable_guest {
    ($ty:ty) => {
        impl $ty {
            fn as_any_impl(&self) -> Option<&dyn std::any::Any> {
                Some(self)
            }

            fn restore_from_impl(&mut self, src: &dyn GuestProgram) -> bool {
                match src.as_any().and_then(|a| a.downcast_ref::<$ty>()) {
                    Some(s) => {
                        *self = s.clone();
                        true
                    }
                    None => false,
                }
            }
        }
    };
}

restorable_guest!(AocsGuest);
restorable_guest!(PayloadGuest);
restorable_guest!(HkGuest);
restorable_guest!(TmtcGuest);
restorable_guest!(FdirNominalGuest);

/// AOCS: samples the gyro and publishes `GyroData` every frame.
#[derive(Default, Clone)]
pub struct AocsGuest {
    last_boot: Option<u32>,
    gyro_port: i32,
    frame: u32,
}

impl GuestProgram for AocsGuest {
    fn clone_boxed(&self) -> Option<Box<dyn GuestProgram>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.as_any_impl()
    }

    fn restore_from(&mut self, src: &dyn GuestProgram) -> bool {
        self.restore_from_impl(src)
    }

    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        let base = part_base(AOCS);
        if api.needs_prologue(&mut self.last_boot) {
            self.gyro_port = create_port(api, base + 0xF000, "GyroData", false, 0, GYRO_MSG_LEN, 0);
        }
        // Sensor acquisition + control-law computation.
        api.consume(4_000);
        self.frame = self.frame.wrapping_add(1);
        let sample_addr = base + 0x100;
        let mut sample = [0u8; GYRO_MSG_LEN as usize];
        sample[..4].copy_from_slice(&self.frame.to_be_bytes());
        sample[4..12].copy_from_slice(&api.now_us().to_be_bytes());
        if api.write_bytes(sample_addr, &sample).is_err() {
            return;
        }
        let _ = api.hypercall(&RawHypercall::new_unchecked(
            HypercallId::WriteSamplingMessage,
            [self.gyro_port as u64, sample_addr as u64, GYRO_MSG_LEN as u64],
        ));
        api.consume(2_000);
    }
}

/// Payload: produces imaging data frames into `PayloadData`.
#[derive(Default, Clone)]
pub struct PayloadGuest {
    last_boot: Option<u32>,
    data_port: i32,
    seq: u32,
}

impl GuestProgram for PayloadGuest {
    fn clone_boxed(&self) -> Option<Box<dyn GuestProgram>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.as_any_impl()
    }

    fn restore_from(&mut self, src: &dyn GuestProgram) -> bool {
        self.restore_from_impl(src)
    }

    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        let base = part_base(PAYLOAD);
        if api.needs_prologue(&mut self.last_boot) {
            self.data_port = create_port(api, base + 0xF000, "PayloadData", true, 8, 64, 0);
        }
        api.consume(10_000); // image processing
        self.seq = self.seq.wrapping_add(1);
        let addr = base + 0x200;
        if api.write_u32(addr, self.seq).is_err() {
            return;
        }
        let _ = api.hypercall(&RawHypercall::new_unchecked(
            HypercallId::SendQueuingMessage,
            [self.data_port as u64, addr as u64, 32],
        ));
    }
}

/// Housekeeping: publishes an `HkReport` sample every frame.
#[derive(Default, Clone)]
pub struct HkGuest {
    last_boot: Option<u32>,
    report_port: i32,
    temp: u32,
}

impl GuestProgram for HkGuest {
    fn clone_boxed(&self) -> Option<Box<dyn GuestProgram>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.as_any_impl()
    }

    fn restore_from(&mut self, src: &dyn GuestProgram) -> bool {
        self.restore_from_impl(src)
    }

    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        let base = part_base(HK);
        if api.needs_prologue(&mut self.last_boot) {
            self.report_port = create_port(api, base + 0xF000, "HkReport", false, 0, 32, 0);
        }
        api.consume(2_000);
        self.temp = self.temp.wrapping_add(3) % 100;
        let addr = base + 0x300;
        if api.write_u32(addr, self.temp).is_err() {
            return;
        }
        let _ = api.hypercall(&RawHypercall::new_unchecked(
            HypercallId::WriteSamplingMessage,
            [self.report_port as u64, addr as u64, 32],
        ));
    }
}

/// TM/TC: drains telemetry queues, reads status samples, and issues one
/// telecommand to FDIR per frame (which fixes the `TcQueue` state the
/// oracle expects).
#[derive(Default, Clone)]
pub struct TmtcGuest {
    last_boot: Option<u32>,
    fdir_status_port: i32,
    tm_port: i32,
    tc_port: i32,
    payload_port: i32,
    hk_port: i32,
    tc_counter: u32,
}

impl GuestProgram for TmtcGuest {
    fn clone_boxed(&self) -> Option<Box<dyn GuestProgram>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.as_any_impl()
    }

    fn restore_from(&mut self, src: &dyn GuestProgram) -> bool {
        self.restore_from_impl(src)
    }

    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        let base = part_base(TMTC);
        if api.needs_prologue(&mut self.last_boot) {
            self.fdir_status_port = create_port(api, base + 0xF000, "FdirStatus", false, 0, 8, 1);
            self.tm_port = create_port(api, base + 0xF020, "TmQueue", true, 4, 32, 1);
            self.tc_port = create_port(api, base + 0xF040, "TcQueue", true, 4, TC_MSG_LEN, 0);
            self.payload_port = create_port(api, base + 0xF060, "PayloadData", true, 8, 64, 1);
            self.hk_port = create_port(api, base + 0xF080, "HkReport", false, 0, 32, 1);
        }
        api.consume(3_000);
        // Issue one telecommand to FDIR.
        self.tc_counter = self.tc_counter.wrapping_add(1);
        let tc_addr = base + 0x400;
        let mut tc = [0u8; TC_MSG_LEN as usize];
        tc[..4].copy_from_slice(&self.tc_counter.to_be_bytes());
        if api.write_bytes(tc_addr, &tc).is_err() {
            return;
        }
        let _ = api.hypercall(&RawHypercall::new_unchecked(
            HypercallId::SendQueuingMessage,
            [self.tc_port as u64, tc_addr as u64, TC_MSG_LEN as u64],
        ));
        // Drain telemetry queues (bounded loops; errors tolerated).
        let buf = base + 0x800;
        let recv = base + 0x700;
        for port in [self.tm_port, self.payload_port] {
            for _ in 0..8 {
                let r = api.hypercall(&RawHypercall::new_unchecked(
                    HypercallId::ReceiveQueuingMessage,
                    [port as u64, buf as u64, 64, recv as u64],
                ));
                if r != Ok(0) {
                    break;
                }
            }
        }
        // Read the status samples.
        for port in [self.fdir_status_port, self.hk_port] {
            let _ = api.hypercall(&RawHypercall::new_unchecked(
                HypercallId::ReadSamplingMessage,
                [port as u64, buf as u64, 32, recv as u64],
            ));
        }
        api.consume(2_000);
    }
}

/// FDIR's *nominal* application (used when no mutant is installed):
/// performs the same boot prologue as the campaign, then monitors the
/// gyro channel and reports status.
#[derive(Default, Clone)]
pub struct FdirNominalGuest {
    last_boot: Option<u32>,
}

impl GuestProgram for FdirNominalGuest {
    fn clone_boxed(&self) -> Option<Box<dyn GuestProgram>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.as_any_impl()
    }

    fn restore_from(&mut self, src: &dyn GuestProgram) -> bool {
        self.restore_from_impl(src)
    }

    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        if api.needs_prologue(&mut self.last_boot) {
            fdir_prologue(api);
        }
        api.consume(2_000);
        // Monitor the gyro channel (port descriptor 0 from the prologue).
        let _ = api.hypercall(&RawHypercall::new_unchecked(
            HypercallId::ReadSamplingMessage,
            [0, SCRATCH as u64 + 0x40, GYRO_MSG_LEN as u64, SCRATCH as u64 + 0x60],
        ));
        // Publish FDIR status (port descriptor 1).
        let _ = api.write_u32(SCRATCH + 0x80, 0xA0C5);
        let _ = api.hypercall(&RawHypercall::new_unchecked(
            HypercallId::WriteSamplingMessage,
            [1, SCRATCH as u64 + 0x80, 8],
        ));
    }
}

/// The FDIR boot prologue — run by both the nominal FDIR application and
/// every campaign mutant before its first fault placeholder. Creates the
/// FDIR ports in a **fixed descriptor order** and raises one application
/// HM event; this is the state the oracle model is anchored to.
///
/// Descriptors: 0 = GyroData (dest), 1 = FdirStatus (src),
/// 2 = TmQueue (src), 3 = TcQueue (dest).
pub fn fdir_prologue(api: &mut PartitionApi<'_>) {
    write_name(api, PTR_NAME_GYRO, "GyroData");
    write_name(api, PTR_NAME_TM, "TmQueue");
    let _ = api.hypercall(&RawHypercall::new_unchecked(
        HypercallId::CreateSamplingPort,
        [PTR_NAME_GYRO as u64, GYRO_MSG_LEN as u64, 1],
    ));
    let name_status = FDIR_BASE + 0x9040;
    write_name(api, name_status, "FdirStatus");
    let _ = api.hypercall(&RawHypercall::new_unchecked(
        HypercallId::CreateSamplingPort,
        [name_status as u64, 8, 0],
    ));
    let _ = api.hypercall(&RawHypercall::new_unchecked(
        HypercallId::CreateQueuingPort,
        [PTR_NAME_TM as u64, 4, 32, 0],
    ));
    let name_tc = FDIR_BASE + 0x9060;
    write_name(api, name_tc, "TcQueue");
    let _ = api.hypercall(&RawHypercall::new_unchecked(
        HypercallId::CreateQueuingPort,
        [name_tc as u64, 4, TC_MSG_LEN as u64, 1],
    ));
    let _ = api.hypercall(&RawHypercall::new_unchecked(
        HypercallId::HmRaiseEvent,
        [FDIR_BOOT_EVENT as u64],
    ));
}

//! `eagleeye` — the EagleEye TSP reference-mission testbed (paper Fig. 6).
//!
//! "EagleEye TSP is an ESA reference spacecraft mission representative of
//! a typical earth observation satellite. ... This platform consists of a
//! LEON3 central node with a memory management unit, simulated using
//! TSIM. It runs XM as a separation kernel defining the OBSW into five
//! partitions over a cyclic major frame of 250 ms."
//!
//! The five partitions:
//!
//! | id | name    | role                                   | level  |
//! |----|---------|----------------------------------------|--------|
//! | 0  | FDIR    | fault detection/isolation/recovery — the **test partition** | system |
//! | 1  | AOCS    | attitude & orbit control (gyro → actuators) | normal |
//! | 2  | PAYLOAD | imaging payload                        | normal |
//! | 3  | TMTC    | telemetry/telecommand                  | normal |
//! | 4  | HK      | housekeeping                           | normal |
//!
//! The FDIR partition carries system privileges ("the added privileges
//! make it an ideal candidate for a test partition"), runs last in the
//! frame, and is replaced by the fault-placeholder mutant during
//! campaigns. The [`guests`] module provides representative cyclic OBSW
//! for the other four partitions (sampling gyro data, queuing telemetry,
//! issuing telecommands), which fixes the deterministic system state the
//! robustness oracle reasons about.

pub mod guests;
pub mod map;
pub mod testbed;

pub use map::*;
pub use testbed::EagleEye;

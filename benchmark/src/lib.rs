//! The repository benchmark: four campaign-mode workloads timed on the
//! process CPU clock against a frozen reference copy of the program, an
//! outside-in layer trace, and the rules for comparing two sets of runs.
//! See `README.md` in this directory.

pub mod compare;
pub mod json;
pub mod measure;
pub mod reference;
pub mod trace;
pub mod workloads;

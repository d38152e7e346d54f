//! The single-failure report under its own stream label.
//!
//! [`DrtpManager::sweep_single_failures`] is the one single-failure
//! report; [`vulnerability`] is the same report with its contention
//! draws taken from the `"vulnerability"` stream, kept for a caller that
//! still reads it under that label.

use crate::failure::FailureSweep;
use crate::DrtpManager;

/// [`DrtpManager::sweep_single_failures`] with the `k`-th link's
/// contention draws from `indexed_stream(seed, "vulnerability", k)`: the
/// same certified decisions, and [`FailureSweep::vulnerable`] lists each
/// connection with the failures it would not survive.
pub fn vulnerability(mgr: &DrtpManager, seed: u64) -> FailureSweep {
    mgr.failure_sweep(seed, "vulnerability")
}

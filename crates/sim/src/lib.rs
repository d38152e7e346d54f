//! Discrete-event simulation substrate for the DRTP reproduction.
//!
//! The paper runs its evaluation as a connection-level simulation: scenario
//! files (generated in Matlab) record DR-connection request and release
//! events, and the same scenario is replayed under each routing scheme (in
//! `ns`). This crate rebuilds that substrate in Rust:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time;
//! * [`EventQueue`] / [`Simulator`] — a deterministic event loop with
//!   FIFO tie-breaking;
//! * [`rng`] — reproducible, independently-seeded random streams;
//! * [`process`] — Poisson arrivals and uniform holding times
//!   (`λ ∈ {0.2 … 1.0}`, `t_req ~ U[20 min, 60 min]` in Table 1);
//! * [`workload`] — the UT (uniform) and NT (hot-destination) traffic
//!   patterns, and scenario files that can be saved, loaded, and replayed
//!   bit-identically across schemes;
//! * [`stats`] — online statistics (Welford), time-weighted averages, and
//!   streaming quantiles for the measurement phase.
//!
//! # Example
//!
//! ```
//! use drt_sim::{process::PoissonProcess, rng, SimTime};
//!
//! let mut arrivals = PoissonProcess::new(0.5, rng::stream(42, "arrivals"));
//! let mut t = SimTime::ZERO;
//! let mut count = 0;
//! while t < SimTime::from_secs(1000) {
//!     t += arrivals.next_interarrival();
//!     count += 1;
//! }
//! // rate 0.5/s over 1000 s ≈ 500 arrivals
//! assert!((300..700).contains(&count));
//! ```

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod event;
pub mod process;
pub mod rng;
pub mod stats;
mod time;
pub mod workload;

pub use event::{EventQueue, Scheduler, Simulator};
pub use time::{SimDuration, SimTime};

//! Message-level simulation of DRTP's distributed signalling.
//!
//! [`drt_core::DrtpManager`] models the protocol's *effect*: the union of
//! all per-router state, updated atomically. This crate models the
//! *mechanism* the paper actually describes — each router runs its own
//! DR-connection manager and state changes only when control packets
//! arrive:
//!
//! > "To support the DR-connection service, every router is equipped with
//! > a DR-connection manager … when a node sets up or releases a backup
//! > channel, it includes the LSET of the corresponding primary route in a
//! > backup-path register packet and a backup-path release packet. When a
//! > router receives a backup-setup request, it … registers this new
//! > backup in the backup channel table and updates APLV for the link that
//! > the backup channel traverses using LSET. Finally, the router forwards
//! > the request to the next router in the backup path."
//!
//! That one shape is one packet here — [`Walk`], whose [`WalkOp`] says what
//! each hop applies (reserve, register, release, unregister, activate) —
//! handled by one hop-by-hop routine, and every router mutation it makes
//! goes through one write-ahead commit ([`JournalRecord`]).
//!
//! The simulation delivers every packet with a per-hop delay through a
//! deterministic event queue, so races are real: two setups can contend
//! for the last unit of bandwidth, a failure report can cross a release
//! in flight, and channel-switch messages claim activation bandwidth in
//! arrival order.
//!
//! The test suite proves the two models agree: after any establish/release
//! sequence reaches quiescence, every router's per-link `prime`, `spare`
//! and APLV equal the centralized manager's (see `tests/equivalence.rs`).
//!
//! # Fault injection
//!
//! A fault reaches the engine in one of two ways. Every multi-hop
//! delivery's fate — dropped, duplicated, late — is decided by a
//! [`FateSource`]: [`ChaosFates`] draws it from a [`ChaosConfig`]
//! (per-hop packet loss, duplication, reordering jitter), the model
//! checker scripts it with [`ScriptedFates`]. Every other fault is a
//! command on [`ProtocolSim`]: [`ProtocolSim::fail_link`],
//! [`ProtocolSim::crash_router`], [`ProtocolSim::restart_router`] (what
//! the restart recovers is [`ChaosConfig::restart_mode`]) and
//! [`ProtocolSim::spoof_failure_report`].
//!
//! # Reliability
//!
//! Signalling stays live under a faulty control plane because every
//! source-initiated operation is a sequence-numbered transaction with
//! retransmission timers and exponential backoff ([`RetryConfig`]), and
//! every router deduplicates walks on `(connection, sequence)`
//! ([`JournalRecord::GateWalk`]). When a backup registration exhausts its
//! retries the connection degrades to an unprotected-but-live
//! [`ConnOutcome::Degraded`] instead of wedging in
//! [`ConnOutcome::Pending`].
//!
//! # Byzantine adversaries
//!
//! A hostile router needs no extra machinery: a fabricated failure
//! report for a healthy link is [`ProtocolSim::spoof_failure_report`]
//! called when the lie is told, and a router that swallows its own
//! reports or intercepts signalling is a [`FateSource`] that drops those
//! packets. The engine-side countermeasure is report verification, and
//! it is always on: a source acts only on a report whose link the
//! failed-link mask shows dead, scores a strike against the reporter of
//! any other, and quarantines a router at
//! [`drt_core::orchestrator::SUSPICION_THRESHOLD`] strikes (its reports,
//! true or not, and its resync digests are ignored from then on). An
//! honest detector reports only a failed link, so verification never
//! changes an honest run. The undefended engine, which acts on every
//! report, exists only as [`SeededBug::TrustReports`].
//!
//! # Example
//!
//! ```
//! use drt_proto::{ProtocolConfig, ProtocolSim};
//! use drt_core::ConnectionId;
//! use drt_net::{topology, Bandwidth, NodeId, Route};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10))?);
//! let primary = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)])?;
//! let backup = Route::from_nodes(
//!     &net,
//!     &[NodeId::new(0), NodeId::new(3), NodeId::new(2), NodeId::new(1)],
//! )?;
//!
//! let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
//! sim.establish(ConnectionId::new(0), Bandwidth::from_kbps(3_000),
//!               primary, Some(backup));
//! sim.run_to_quiescence();
//! assert!(sim.outcome(ConnectionId::new(0)).unwrap().is_established());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod chaos;
mod engine;
mod fate;
mod message;
mod router;

pub use chaos::{ChaosConfig, JournalFault};
pub use drt_core::failure::RestartMode;
pub use engine::{
    ConnOutcome, JournalStats, ProtocolConfig, ProtocolSim, RecoveryRecord, RetryConfig, SeededBug,
    TrafficCounters,
};
pub use fate::{ChaosFates, Decision, DeliveryFate, Fate, FateLog, FateSource, ScriptedFates};
pub use message::{Packet, ResyncEntry, Walk, WalkOp, RESYNC_CONN};
pub use router::journal::{Journal, JournalRecord};
pub use router::{BackupEntry, PrimaryEntry, Router, WalkGate};

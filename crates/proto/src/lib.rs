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
//! # Chaos and reliability
//!
//! The control plane itself can be made faulty with [`ChaosConfig`]
//! (per-hop packet loss, duplication, reordering jitter, and scheduled
//! router crashes with state loss). Signalling stays live because every
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
//! Beyond the indifferent faults of [`ChaosConfig`], an
//! [`AdversaryConfig`] makes chosen routers actively hostile: fabricated
//! failure reports for healthy links, suppressed reports for real ones,
//! and selective interception of signalling to victim nodes. The
//! engine-side countermeasure is report verification
//! ([`ProtocolConfig::report_verification`]): a source cross-checks each
//! report against link-state evidence, scores reporters by
//! uncorroborated claims, and quarantines routers that cross
//! [`ProtocolConfig::suspicion_threshold`].
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
//!               primary, vec![backup]);
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

mod adversary;
mod chaos;
mod engine;
mod fate;
mod message;
mod router;

pub use adversary::{AdversaryConfig, FalseReport};
pub use chaos::{ChaosConfig, CrashWindow, JournalFault, RestartMode};
pub use engine::{
    ConnOutcome, JournalStats, KindTraffic, ProtocolConfig, ProtocolSim, RecoveryRecord,
    RetryConfig, SeededBug, TrafficCounters,
};
pub use fate::{ChaosFates, Decision, DeliveryFate, Fate, FateLog, FateSource, ScriptedFates};
pub use message::{Packet, ResyncEntry, Walk, WalkOp, RESYNC_CONN};
pub use router::journal::{Journal, JournalRecord};
pub use router::{BackupEntry, PrimaryEntry, Router, WalkGate};

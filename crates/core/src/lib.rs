//! DRTP core: dependable real-time connections with primary/backup
//! channels, backup multiplexing, and the three routing schemes of
//! *"Design and Evaluation of Routing Schemes for Dependable Real-Time
//! Connections"* (Kim, Qiao, Kodase & Shin, DSN 2001).
//!
//! # The protocol in one paragraph
//!
//! Each dependable real-time (DR-) connection is realised as one *primary*
//! channel plus one *backup* channel. The backup reserves no dedicated
//! bandwidth; instead, every link keeps a *spare pool* shared (multiplexed)
//! by all backups crossing it. Two backups *conflict* when they share a
//! link while their primaries also share a link — a single failure then
//! activates both at once, and the shared spare pool may not cover both.
//! Each link's **APLV** (Accumulated Primary-route Link Vector) records, per
//! remote link `L_j`, how many primaries crossing `L_j` have backups through
//! this link, which is exactly the contention a failure of `L_j` would
//! create. Routing backups to minimise APLV-measured conflicts is the
//! paper's contribution, in three flavours:
//!
//! * [`routing::PLsr`] — probabilistic link-state routing over `‖APLV‖₁`;
//! * [`routing::DLsr`] — deterministic avoidance via per-link conflict
//!   vectors;
//! * [`routing::BoundedFlooding`] — on-demand channel-discovery-packet
//!   flooding inside a hop-count bound.
//!
//! # Architecture
//!
//! * [`DrtpManager`] owns all per-link resource state ([`LinkResources`]),
//!   per-link [`Aplv`]s, and the connection table; it admits primaries,
//!   registers/multiplexes backups ([`multiplex`]), and recovers from link
//!   failures ([`failure`]).
//! * [`routing`] hosts the route-selection schemes behind the
//!   [`routing::RoutingScheme`] trait, plus baselines.
//! * [`failure`] provides both a *non-destructive probe* (the estimator
//!   behind the paper's Figure 4) and destructive failure injection with
//!   full recovery (backup promotion and re-establishment).
//!
//! # Example
//!
//! ```
//! use drt_core::routing::{DLsr, RouteRequest, RoutingScheme};
//! use drt_core::{ConnectionId, DrtpManager};
//! use drt_net::{topology, Bandwidth};
//! use drt_net::NodeId;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10))?);
//! let mut mgr = DrtpManager::new(net);
//! let mut scheme = DLsr::new();
//!
//! let report = mgr.request_connection(
//!     &mut scheme,
//!     RouteRequest::new(
//!         ConnectionId::new(0),
//!         NodeId::new(0),
//!         NodeId::new(8),
//!         Bandwidth::from_kbps(3_000),
//!     ),
//! )?;
//! assert!(report.backup().is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod analysis;
mod aplv;
mod connection;
mod error;
pub mod failure;
mod incidence;
pub mod invariants;
mod link_state;
mod manager;
pub mod multiplex;
pub mod orchestrator;
pub mod routing;
mod table;
pub mod telemetry;
mod types;

pub use aplv::{Aplv, ConflictVector};
pub use connection::{ConnectionState, DrConnection};
pub use error::DrtpError;
pub use incidence::IncidenceIndex;
pub use link_state::{CapacityError, LinkResources};
pub use manager::{
    BackupFit, DrtpManager, EstablishReport, HashSink, ManagerView, StateSnapshot, ViewDistortion,
};
pub use telemetry::{Histogram, Telemetry};
pub use types::{ConnectionId, QosRequirement};

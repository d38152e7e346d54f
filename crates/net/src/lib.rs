//! Network substrate for the DRTP (Dependable Real-Time Protocol)
//! reproduction.
//!
//! This crate provides everything the routing layer needs to know about the
//! network *itself*, independent of any real-time connection state:
//!
//! * [`Network`] — a directed, capacitated multigraph whose links are
//!   identified by dense [`LinkId`]s, suitable for the per-link state vectors
//!   (APLV, conflict vectors) the paper's routing schemes maintain.
//! * [`topology`] — generators for the topologies used in the paper's
//!   evaluation (Waxman random graphs with a target average node degree) and
//!   in its worked examples (meshes), plus rings, tori and complete graphs
//!   for testing.
//! * [`algo`] — path algorithms: Dijkstra with arbitrary per-link costs,
//!   Bellman–Ford, all-pairs hop counts, per-node distance tables (as used by
//!   the bounded-flooding scheme), Yen's k-shortest paths, and disjoint path
//!   pairs.
//! * [`Route`] — an immutable, validated sequence of links, the `LSET` of
//!   the paper.
//!
//! # Example
//!
//! ```
//! use drt_net::{topology, algo, Bandwidth, NodeId};
//!
//! # fn main() -> Result<(), drt_net::NetError> {
//! // A 60-node Waxman graph with average node degree ~3, as in the paper.
//! let net = topology::WaxmanConfig::new(60, 3.0)
//!     .capacity(Bandwidth::from_mbps(100))
//!     .seed(7)
//!     .build()?;
//! assert!(net.is_connected());
//!
//! // Min-hop route between two nodes: every link one step.
//! let (hops, route) = algo::shortest_path(&net, NodeId::new(0), NodeId::new(59), |_| Some(1))
//!     .expect("connected graph has a route");
//! assert_eq!(hops, route.len() as u128);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod algo;
mod bandwidth;
mod builder;
mod error;
mod graph;
mod ids;
mod link;
mod route;
mod textio;
pub mod topology;

pub use bandwidth::Bandwidth;
pub use builder::NetworkBuilder;
pub use error::NetError;
pub use graph::{LinkIter, Network, NodeIter};
pub use ids::{LinkId, NodeId, SrlgId};
pub use link::Link;
pub use route::Route;

//! Path algorithms over [`crate::Network`].
//!
//! All search functions take the link cost as a closure
//! `Fn(LinkId) -> Option<f64>`: returning `None` excludes the link entirely
//! (used for bandwidth-infeasible or failed links), mirroring how the
//! paper's routing schemes assign the large constant `Q` — except that an
//! explicit exclusion is available for *hard* constraints while `Q` remains
//! available for *soft* ones, as the schemes require.
//!
//! * [`shortest_path`] / [`shortest_path_tree`] — Dijkstra (non-negative
//!   costs), the workhorse of both link-state schemes;
//! * [`DynamicSpt`] — a materialised Dijkstra tree repaired incrementally
//!   after link fail/restore/reweight deltas instead of recomputed (no
//!   caller in `crates/`; see its module docs);
//! * [`bellman_ford`] — distance-vector style relaxation, mentioned by the
//!   paper as the alternative way to build distance tables. No scheme
//!   calls it: it is kept as the independent oracle Dijkstra is checked
//!   against (`dijkstra_and_bellman_ford_agree`);
//! * [`AllPairsHops`] — every node's `D^j_{i,k}` table of the
//!   bounded-flooding scheme in one matrix, kept as the reference and for
//!   topology reports; a flood reads one column, [`bfs_hops_to`];
//! * [`k_shortest_paths`] — Yen's algorithm. No scheme calls it either:
//!   it is the brute-force enumeration [`suurballe`]'s optimality is
//!   checked against (`suurballe_total_cost_is_minimal_on_mesh`);
//! * [`suurballe`] / [`two_step_disjoint_pair`] — link-disjoint path pairs,
//!   used by the dedicated-backup baseline;
//! * [`is_strongly_connected`], [`bfs_hops`] and friends — reachability
//!   and hop-count utilities.

mod all_pairs_hops;
mod bellman_ford;
mod connectivity;
mod dijkstra;
mod disjoint;
mod dynamic_spt;
mod flow;
mod yen;

pub use all_pairs_hops::AllPairsHops;
pub use bellman_ford::{bellman_ford, BellmanFordOutcome};
pub use connectivity::{
    bfs_hops, bfs_hops_filtered, bfs_hops_to, bridges, is_strongly_connected, reachable_from,
};
pub use dijkstra::{
    shortest_path, shortest_path_hops, shortest_path_in, shortest_path_tree,
    shortest_path_with_floor, ShortestPathTree, SpfWorkspace,
};
pub use disjoint::{suurballe, two_step_disjoint_pair, DisjointPair};
pub use dynamic_spt::DynamicSpt;
pub use flow::{edge_connectivity, max_flow, MaxFlow};
pub use yen::k_shortest_paths;

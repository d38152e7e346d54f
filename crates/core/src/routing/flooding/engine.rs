//! The flooding engine: simulates one CDP flood at message granularity.

use crate::routing::flooding::{Candidate, Cdp, FloodingParams};
use crate::routing::{RouteRequest, RoutingOverhead};
use crate::ManagerView;
use drt_net::{NodeId, Route};
use std::collections::VecDeque;

/// Result of one bounded flood.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    /// The destination's candidate-route table (CRT), in arrival order.
    pub candidates: Vec<Candidate>,
    /// Messages and bytes the flood transmitted.
    pub overhead: RoutingOverhead,
    /// `true` when the defensive message cap cut the flood short.
    pub truncated: bool,
}

/// Simulates the bounded flood of one channel-discovery packet and returns
/// the destination's candidate routes plus the message cost.
///
/// Mechanics follow Section 4 exactly:
///
/// * the source bounds the flood at `hc_limit = ⌈ρ·D(src,dst)⌉ + ρ₀`;
/// * every forward from node `i` to neighbor `k` must pass the
///   **distance test** (`hc_curr + D_{dst,k} + 1 ≤ hc_limit`, reading
///   the distance-table column of `dst`, which [`ManagerView::hops_to`]
///   measures once per flood), the
///   **loop-freedom test** (`k ∉ list`), and the **bandwidth test**
///   (`bw_req ≤ total − prime` on the link taken);
/// * a node that has already seen a copy of this connection's CDP applies
///   the **valid-detour test** `hc_curr ≤ α·min_dist + β` to incoming
///   copies first (its pending-connection-table entry holds `min_dist`);
/// * the destination records every arriving copy in its CRT (capped at
///   [`FloodingParams::max_candidates`]).
///
/// Messages are processed in FIFO order, which makes the flood — and thus
/// the whole scheme — deterministic.
pub fn flood(view: &ManagerView<'_>, req: &RouteRequest, params: FloodingParams) -> FloodOutcome {
    let net = view.net();
    let mut outcome = FloodOutcome {
        candidates: Vec::new(),
        overhead: RoutingOverhead::ZERO,
        truncated: false,
    };
    if req.src == req.dst {
        return outcome;
    }
    let to_dst = view.hops_to(req.dst);
    let Some(min_dist) = to_dst[req.src.index()] else {
        return outcome; // destination unreachable
    };
    let hc_limit = (params.rho * min_dist as f64).ceil() as u32 + params.rho_offset;
    let bw = req.bandwidth();

    // Pending-connection-table state: min_dist per node for this flood.
    let mut pct_min: Vec<Option<u32>> = vec![None; net.num_nodes()];
    let mut queue: VecDeque<(NodeId, Cdp)> = VecDeque::new();

    // Forward all admissible copies out of `holder`.
    let forward =
        |holder: NodeId, m: &Cdp, queue: &mut VecDeque<(NodeId, Cdp)>, out: &mut FloodOutcome| {
            for &lid in net.out_links(holder) {
                let k = net.link(lid).dst();
                // Bandwidth test (includes liveness): the link must offer
                // backup headroom.
                if !view.usable_for_backup(lid, bw) {
                    continue;
                }
                // Loop-freedom test.
                if k == m.src || m.list.contains(&k) {
                    continue;
                }
                // Distance test: can the CDP still reach the destination
                // within the limit after taking this hop?
                let Some(rest) = to_dst[k.index()] else {
                    continue;
                };
                if m.hc_curr + 1 + rest > m.hc_limit {
                    continue;
                }
                let child = m.forwarded(holder, lid, bw <= view.free(lid));
                out.overhead.messages += 1;
                out.overhead.bytes += child.wire_bytes();
                queue.push_back((k, child));
            }
        };

    // Source action (Section 4.2).
    let initial = Cdp::initial(req.id, req.src, req.dst, hc_limit, bw);
    forward(req.src, &initial, &mut queue, &mut outcome);
    pct_min[req.src.index()] = Some(0);

    // Message loop.
    while let Some((node, m)) = queue.pop_front() {
        if node == m.dst {
            // Destination action (Section 4.4): fill the CRT.
            if outcome.candidates.len() < params.max_candidates {
                if let Ok(route) = Route::new(net, m.path.clone()) {
                    outcome.candidates.push(Candidate {
                        route,
                        primary_flag: m.primary_flag,
                        hops: m.hc_curr,
                    });
                }
            }
            continue;
        }
        // Valid-detour test (Section 4.3) against this node's PCT entry.
        if let Some(best) = pct_min[node.index()] {
            if m.hc_curr as f64 > params.alpha * best as f64 + params.beta as f64 {
                continue;
            }
            pct_min[node.index()] = Some(best.min(m.hc_curr));
        } else {
            pct_min[node.index()] = Some(m.hc_curr);
        }
        if outcome.overhead.messages >= params.max_messages {
            outcome.truncated = true;
            break;
        }
        forward(node, &m, &mut queue, &mut outcome);
    }

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectionId, DrtpManager};
    use drt_net::{topology, Bandwidth, NodeId};
    use std::sync::Arc;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn request(src: u32, dst: u32) -> RouteRequest {
        RouteRequest::new(ConnectionId::new(0), NodeId::new(src), NodeId::new(dst), BW)
    }

    fn mesh_manager(rows: usize, cols: usize) -> DrtpManager {
        DrtpManager::new(Arc::new(
            topology::mesh(rows, cols, Bandwidth::from_mbps(10)).unwrap(),
        ))
    }

    #[test]
    fn all_candidates_respect_the_bound() {
        let mgr = mesh_manager(3, 3);
        let out = flood(&mgr.view(), &request(0, 8), FloodingParams::paper());
        assert!(!out.candidates.is_empty());
        assert!(!out.truncated);
        // D(0,8) = 4, limit = 6.
        for c in &out.candidates {
            assert!(c.hops <= 6, "{} exceeds hc_limit", c.route);
            assert_eq!(c.route.source(), NodeId::new(0));
            assert_eq!(c.route.dest(), NodeId::new(8));
            assert!(c.route.is_simple(mgr.net()), "loop-freedom violated");
            assert_eq!(c.hops as usize, c.route.len());
        }
    }

    #[test]
    fn shortest_candidate_is_min_hop() {
        let mgr = mesh_manager(4, 4);
        let out = flood(&mgr.view(), &request(0, 15), FloodingParams::paper());
        let best = out.candidates.iter().map(|c| c.hops).min().unwrap();
        assert_eq!(best, 6);
    }

    #[test]
    fn bandwidth_test_prunes_saturated_links() {
        let mut mgr = mesh_manager(3, 3);
        // Saturate the direct top-row links with primaries so the flood
        // cannot use them at all (prime == capacity).
        let mut scheme = crate::routing::PrimaryOnly::new();
        let mut relaxed = DrtpManager::with_config(
            Arc::new(mgr.net().clone()),
            crate::multiplex::MultiplexConfig::no_backup_baseline(),
        );
        std::mem::swap(&mut mgr, &mut relaxed);
        let per_conn = Bandwidth::from_mbps(10); // fills a link completely
        let r = RouteRequest::new(
            ConnectionId::new(9),
            NodeId::new(0),
            NodeId::new(1),
            per_conn,
        );
        mgr.request_connection(&mut scheme, r).unwrap();

        let out = flood(&mgr.view(), &request(0, 2), FloodingParams::paper());
        let direct = mgr.net().find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        for c in &out.candidates {
            assert!(
                !c.route.contains_link(direct),
                "flood crossed a saturated link"
            );
        }
    }

    #[test]
    fn primary_flag_reflects_free_bandwidth() {
        let mgr = mesh_manager(3, 3);
        let out = flood(&mgr.view(), &request(0, 2), FloodingParams::paper());
        // Empty network: every candidate can be a primary.
        assert!(out.candidates.iter().all(|c| c.primary_flag));
    }

    #[test]
    fn unreachable_destination_yields_nothing() {
        let mut b = drt_net::NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(1))
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), Bandwidth::from_mbps(1))
            .unwrap();
        let mgr = DrtpManager::new(Arc::new(b.build()));
        let out = flood(&mgr.view(), &request(0, 3), FloodingParams::paper());
        assert!(out.candidates.is_empty());
        assert_eq!(out.overhead.messages, 0);
    }

    #[test]
    fn message_cap_truncates() {
        let mgr = mesh_manager(5, 5);
        let out = flood(
            &mgr.view(),
            &request(0, 24),
            FloodingParams {
                max_messages: 10,
                ..FloodingParams::paper()
            },
        );
        assert!(out.truncated);
        assert!(out.overhead.messages <= 11);
    }

    #[test]
    fn wider_detour_slack_floods_more() {
        let mgr = mesh_manager(4, 4);
        let strict = flood(
            &mgr.view(),
            &request(0, 5),
            FloodingParams {
                beta: 0,
                ..FloodingParams::paper()
            },
        );
        let loose = flood(
            &mgr.view(),
            &request(0, 5),
            FloodingParams {
                beta: 2,
                ..FloodingParams::paper()
            },
        );
        assert!(loose.overhead.messages >= strict.overhead.messages);
    }

    #[test]
    fn candidate_cap_respected() {
        let mgr = mesh_manager(4, 4);
        let out = flood(
            &mgr.view(),
            &request(0, 15),
            FloodingParams {
                max_candidates: 3,
                ..FloodingParams::paper()
            },
        );
        assert_eq!(out.candidates.len(), 3);
    }
}

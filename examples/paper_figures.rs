//! Walks through the paper's worked examples (Figures 1–3) on a 3×3 mesh,
//! printing the APLV/Conflict-Vector state at each step.
//!
//! The scanned paper's exact link numbering is not recoverable, so the
//! routes below realise the same *structure* the figures describe:
//! backups that share spare safely (disjoint primaries), backups that
//! conflict (overlapping primaries), and D-LSR's conflict-free detour.
//!
//! Run with: `cargo run --example paper_figures`

use drt_core::routing::{DLsr, RouteRequest, Scripted};
use drt_core::{ConnectionId, DrtpManager};
use drt_net::{topology, Bandwidth, NodeId, Route};
use std::error::Error;
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(3_000);

fn req(id: u64, src: u32, dst: u32) -> RouteRequest {
    RouteRequest::new(
        ConnectionId::new(id),
        NodeId::new(src),
        NodeId::new(dst),
        BW,
    )
}

fn route(net: &drt_net::Network, nodes: &[u32]) -> Route {
    let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
    Route::from_nodes(net, &ids).expect("figure routes are valid on the mesh")
}

fn main() -> Result<(), Box<dyn Error>> {
    // The mesh of Figure 1, nodes numbered row-major:
    //   0 - 1 - 2
    //   |   |   |
    //   3 - 4 - 5
    //   |   |   |
    //   6 - 7 - 8
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10))?);
    println!("Figure 1 mesh: {net}\n");

    // ------------------------------------------------------------------
    // Figure 1, lesson one: B1 and B2 share links, but P1 and P2 are
    // disjoint — multiplexing their spare is safe.
    // ------------------------------------------------------------------
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut script = Scripted::new();
    // D1: top row primary, backup through the middle row.
    script.push(route(&net, &[0, 1, 2]), Some(route(&net, &[0, 3, 4, 5, 2])));
    // D2: bottom row primary, backup through the same middle-row links.
    script.push(route(&net, &[6, 7, 8]), Some(route(&net, &[6, 3, 4, 5, 8])));
    mgr.request_connection(&mut script, req(1, 0, 2))?;
    mgr.request_connection(&mut script, req(2, 6, 8))?;

    let shared = net
        .find_link(NodeId::new(3), NodeId::new(4))
        .expect("mesh link");
    println!("shared backup link {shared}: {}", mgr.aplv(shared));
    println!(
        "  max simultaneous activations after any single failure: {}",
        mgr.aplv(shared).max_count()
    );
    println!(
        "  spare reserved: {} (one connection's worth covers both backups)\n",
        mgr.link_resources(shared).spare()
    );

    // ------------------------------------------------------------------
    // Figure 1, lesson two: D3's primary overlaps P1, and a conflict-blind
    // backup shares B1's links — one failure now needs twice the spare.
    // ------------------------------------------------------------------
    let mut script = Scripted::new();
    // D3: primary shares link 1->2 with P1; backup shares 4->5, 5->2 with B1.
    script.push(route(&net, &[1, 2]), Some(route(&net, &[1, 4, 5, 2])));
    mgr.request_connection(&mut script, req(3, 1, 2))?;

    let contested = net
        .find_link(NodeId::new(4), NodeId::new(5))
        .expect("mesh link");
    let overlap_link = net
        .find_link(NodeId::new(1), NodeId::new(2))
        .expect("mesh link");
    println!("after the conflicting D3 arrives:");
    println!("  {contested}: {}", mgr.aplv(contested));
    println!(
        "  a failure of {overlap_link} activates {} backups here",
        mgr.aplv(contested).count(overlap_link)
    );
    println!(
        "  Section 5 response: spare on {contested} grew to {}",
        mgr.link_resources(contested).spare()
    );

    // Under the paper's policy the grown spare absorbs the conflict:
    let mut rng = drt_sim::rng::stream(1, "figures");
    let probe = mgr.probe_single_failure(overlap_link, &mut rng);
    println!(
        "  probe of {overlap_link}: {}/{} backups activate (spare grew in time)\n",
        probe.activated(),
        probe.affected()
    );

    // ...but if spare cannot grow far enough (the L7 situation of Figure
    // 1: two primaries already hold 6 of the contested link's 10 Mb/s),
    // the backups stay multiplexed and the conflict costs a connection:
    let mut constrained = DrtpManager::new(Arc::clone(&net));
    let mut script = Scripted::new();
    for id in [10, 11] {
        script.push(route(&net, &[4, 5]), None);
        constrained.request_connection(&mut script, req(id, 4, 5))?;
    }
    script.push(route(&net, &[0, 1, 2]), Some(route(&net, &[0, 3, 4, 5, 2])));
    script.push(route(&net, &[1, 2]), Some(route(&net, &[1, 4, 5, 2])));
    constrained.request_connection(&mut script, req(1, 0, 2))?;
    constrained.request_connection(&mut script, req(3, 1, 2))?;
    let probe = constrained.probe_single_failure(overlap_link, &mut rng);
    println!(
        "figure 1's L7 lesson (spare {} short of {}): only {}/{} backups activate\n",
        constrained.link_resources(contested).spare(),
        constrained.aplv(contested).required_spare(),
        probe.activated(),
        probe.affected()
    );

    // ------------------------------------------------------------------
    // Figure 2: the Conflict Vector is the bit-pattern of the APLV.
    // ------------------------------------------------------------------
    let cv = mgr.aplv(contested).conflict_vector(net.num_links());
    println!(
        "Figure 2: CV of {contested} has {} set bits ({} bytes on the wire):",
        cv.ones(),
        cv.wire_bytes()
    );
    let bits: String = net
        .links()
        .map(|l| if cv.get(l.id()) { '1' } else { '0' })
        .collect();
    println!("  ({bits})\n");

    // ------------------------------------------------------------------
    // Figure 3: D-LSR reads the conflict vectors and detours D3's backup
    // around B1 instead of colliding with it.
    // ------------------------------------------------------------------
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut script = Scripted::new();
    script.push(route(&net, &[0, 1, 2]), Some(route(&net, &[0, 3, 4, 5, 2])));
    mgr.request_connection(&mut script, req(1, 0, 2))?;
    let b1 = route(&net, &[0, 3, 4, 5, 2]);

    let mut dlsr = DLsr::new();
    let rep = mgr.request_connection(&mut dlsr, req(3, 1, 2))?;
    let b3 = rep
        .backup()
        .cloned()
        .expect("d-lsr always proposes a backup here");
    println!("Figure 3: D-LSR routes B3' as {b3}");
    println!(
        "  overlap with B1: {} links (the longer, conflict-free detour wins)",
        b3.overlap(&b1)
    );
    let probe = mgr.probe_single_failure(overlap_link, &mut rng);
    println!(
        "  probe of the shared primary link: {}/{} backups activate",
        probe.activated(),
        probe.affected()
    );
    Ok(())
}

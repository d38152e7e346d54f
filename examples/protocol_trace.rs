//! The distributed protocol, end to end: establish a protected connection
//! with real signalling packets, fail a link, and watch DRTP's
//! detection → report → switch pipeline recover it — then cross-check the
//! *measured* switchover time against the analytic
//! [`drt_core::failure::RecoveryLatencyModel`].
//!
//! Run with: `cargo run --example protocol_trace`

use drt_core::failure::RecoveryLatencyModel;
use drt_core::ConnectionId;
use drt_net::{topology, Bandwidth, NodeId, Route};
use drt_proto::{ConnOutcome, ProtocolConfig, ProtocolSim};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10))?);
    let route = |nodes: &[u32]| -> Route {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(&net, &ids).expect("mesh routes")
    };
    let primary = route(&[0, 1, 2]);
    let backup = route(&[0, 3, 4, 5, 2]);
    let conn = ConnectionId::new(0);

    let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
    println!("establishing {conn}: primary {primary}, backup {backup}");
    sim.establish(
        conn,
        Bandwidth::from_kbps(3_000),
        primary.clone(),
        vec![backup.clone()],
    );
    sim.run_to_quiescence();
    println!(
        "  outcome after {}: {:?}",
        sim.now(),
        sim.outcome(conn).expect("submitted")
    );
    println!("  signalling so far: {}", sim.counters());
    for (kind, msgs, bytes) in sim.counters().iter() {
        println!("    {kind:<18} {msgs:>3} msgs {bytes:>5} B");
    }

    // Fail the second link of the primary.
    let failed = primary.links()[1];
    let before = sim.now();
    println!("\nfailing {failed} at {before} ...");
    sim.fail_link(failed);
    sim.run_to_quiescence();
    let elapsed = sim.now().saturating_since(before);
    assert_eq!(sim.outcome(conn), Some(ConnOutcome::Switched));
    println!("  switched onto the backup; pipeline quiesced after {elapsed}");

    // The analytic model predicts: detection + (report hops = 1) +
    // (activation hops = backup length, counting delivery of the first
    // data packet across the final link). In the message simulation the
    // last router activates after `backup.len() - 1` transit delays, data
    // crosses the final link one hop later, and the switch confirmation
    // spends another `backup.len()` hops returning to the source. The
    // recovery log records that confirmation as `resolved_at`; quiescence
    // itself lands later still, because the source then releases the
    // failed primary with a reliable walk of its own.
    let model = RecoveryLatencyModel::default();
    let predicted = model.latency(1, backup.len());
    println!(
        "  analytic service-resumption latency: {predicted} \
         (confirmation adds {})",
        model.per_hop.times(backup.len() as u64)
    );
    let rec = *sim.recovery_log().last().expect("one recovery episode");
    assert!(rec.recovered, "the switch must have succeeded");
    // resolved = detection + report + (len-1) activation transits
    //            + len confirmation transits
    // service  = detection + report + (len-1) activation transits
    //            + 1 data hop across the final link
    let resolved = rec.resolved_at.saturating_since(before);
    let measured_service = resolved - model.per_hop.times(backup.len() as u64) + model.per_hop;
    assert_eq!(
        measured_service, predicted,
        "message-level simulation must agree with the analytic model"
    );
    println!("  measured service resumption: {measured_service} — exact match");

    println!("\nfinal spare on the backup path (consumed by activation):");
    for &l in backup.links() {
        println!("    {l}: {}", sim.link_resources(l));
    }
    Ok(())
}

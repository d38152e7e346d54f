//! The headline robustness claim: a realistic workload over a lossy
//! control plane must reach quiescence with every connection in a
//! terminal state — retransmission with bounded backoff either lands a
//! transaction or degrades the connection, it never wedges.

use drt_core::ConnectionId;
use drt_experiments::config::ExperimentConfig;
use drt_net::Bandwidth;
use drt_proto::{ChaosConfig, ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
use drt_sim::SimDuration;
use std::sync::Arc;

#[test]
fn hundred_connections_at_ten_percent_drop_never_wedge() {
    // The paper's evaluation topology: 60-node Waxman graph.
    let cfg = ExperimentConfig::paper(3.0);
    let net = Arc::new(cfg.build_network().expect("paper topology"));
    let chaos = ChaosConfig {
        dup_prob: 0.02,
        max_jitter: SimDuration::from_micros(200),
        ..ChaosConfig::lossy(0.10, 2001)
    };
    let mut sim = ProtocolSim::with_chaos(
        Arc::clone(&net),
        ProtocolConfig::default(),
        RetryConfig::default(),
        chaos,
    );

    // Burst 100 setups at t=0 — maximal contention on top of the loss.
    let bw = Bandwidth::from_kbps(3_000);
    let mut rng = drt_sim::rng::stream(2001, "acceptance-pairs");
    let pattern = drt_sim::workload::TrafficPattern::ut();
    let mut submitted = Vec::new();
    let mut id = 0u64;
    while submitted.len() < 100 {
        let (src, dst) = pattern.sample_pair(net.num_nodes(), &mut rng);
        let Some((_, primary)) = drt_net::algo::shortest_path(&net, src, dst, |_| Some(1)) else {
            continue;
        };
        let backup = drt_net::algo::shortest_path(&net, src, dst, |l| {
            if primary.contains_link(l) {
                None
            } else {
                Some(1)
            }
        })
        .map(|(_, r)| r);
        let conn = ConnectionId::new(id);
        id += 1;
        sim.establish(conn, bw, primary, backup);
        submitted.push(conn);
    }
    sim.run_to_quiescence();

    // Zero Pending: every connection ended terminal. Exhausted retries
    // surface as Degraded (established, unprotected) or Rejected (the
    // setup itself gave up) — never as a silent wedge.
    let mut tally = std::collections::BTreeMap::new();
    for &conn in &submitted {
        let outcome = sim.outcome(conn).expect("submitted");
        assert_ne!(outcome, ConnOutcome::Pending, "{conn} wedged");
        *tally.entry(format!("{outcome:?}")).or_insert(0u32) += 1;
    }
    let established = *tally.get("Established").unwrap_or(&0);
    assert!(
        established > 50,
        "most setups must land despite 10% loss: {tally:?}"
    );

    // 10% per-hop loss over multi-hop walks forces real retransmission.
    let (retx_msgs, _) = sim.counters().retransmitted();
    assert!(retx_msgs > 0, "a lossy plane must cost retries");

    // Any transaction that ran out of attempts must be visible in the
    // exhaustion ledger AND accounted for by a degraded/rejected
    // connection — exhaustion is never swallowed.
    let exhausted: u64 = sim.exhausted().map(|(_, n)| n).sum();
    let degraded = *tally.get("Degraded").unwrap_or(&0);
    let rejected = *tally.get("Rejected").unwrap_or(&0);
    if exhausted > 0 {
        assert!(
            degraded + rejected > 0,
            "{exhausted} exhaustions with no degraded/rejected connection: {tally:?}"
        );
    }
}

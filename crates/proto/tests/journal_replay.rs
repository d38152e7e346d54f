//! Journal-replay determinism: at *any* point of *any* run — mid-walk,
//! under loss, duplication, and jitter, before and after compaction —
//! replaying a router's journal from its checkpoint prefix yields a
//! router bit-for-bit equal to the live one. Same shape as `drt-core`'s
//! `failure_engine_matches_paper_oracle`: a randomized trace generator
//! plus an exact-equality reference.

use drt_core::ConnectionId;
use drt_net::{topology, Bandwidth, Network, NodeId, Route};
use drt_proto::{ChaosConfig, Journal, ProtocolConfig, ProtocolSim, RetryConfig};
use drt_sim::SimDuration;
use proptest::prelude::*;
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(1_000);

fn route(net: &Network, nodes: &[u32]) -> Route {
    let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
    Route::from_nodes(net, &ids).unwrap()
}

/// Asserts every router's journal replays to its live state.
fn assert_replay_equals_live(sim: &ProtocolSim, net: &Network) {
    for node in net.nodes() {
        let replayed = sim.journal(node).replay(net, node);
        assert_eq!(
            format!("{replayed:?}"),
            format!("{:?}", sim.router(node)),
            "journal of router {node} diverged from the live engine"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replay_matches_live_engine_at_every_checkpoint(
        seed in 0u64..10_000,
        drop_pct in 0u32..25,
        dup_pct in 0u32..25,
        check_every in 3usize..37,
        conns in 1usize..6,
    ) {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let chaos = ChaosConfig {
            drop_prob: f64::from(drop_pct) / 100.0,
            dup_prob: f64::from(dup_pct) / 100.0,
            max_jitter: SimDuration::from_millis(2),
            seed,
            ..ChaosConfig::default()
        };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig { max_attempts: 5, ..RetryConfig::default() },
            chaos,
        );
        let primary = route(&net, &[3, 4, 5]);
        let b1 = route(&net, &[3, 0, 1, 2, 5]);
        let b2 = route(&net, &[3, 6, 7, 8, 5]);
        for i in 0..conns {
            sim.establish(
                ConnectionId::new(i as u64),
                BW,
                primary.clone(),
                vec![b1.clone(), b2.clone()],
            );
        }
        // Interleave stepping with replay checks so the property is
        // pinned at arbitrary mid-walk points, not just quiescence.
        let mut steps = 0usize;
        while sim.step() {
            steps += 1;
            if steps.is_multiple_of(check_every) {
                assert_replay_equals_live(&sim, &net);
            }
            prop_assert!(steps < 200_000, "run never quiesced");
        }
        assert_replay_equals_live(&sim, &net);

        // A failure mid-life exercises switch/release/poison records;
        // releasing half the connections exercises teardown records.
        sim.fail_link(primary.links()[0]);
        for i in 0..conns / 2 {
            sim.release(ConnectionId::new(i as u64));
        }
        while sim.step() {
            steps += 1;
            if steps.is_multiple_of(check_every) {
                assert_replay_equals_live(&sim, &net);
            }
            prop_assert!(steps < 400_000, "recovery never quiesced");
        }
        assert_replay_equals_live(&sim, &net);
    }

    #[test]
    fn replay_crosses_compaction_boundaries(seed in 0u64..10_000) {
        // Enough churn on one source router to trip COMPACT_EVERY
        // several times over: the checkpoint-prefix claim, not just the
        // short-tail one.
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(100)).unwrap());
        let chaos = ChaosConfig {
            dup_prob: 0.3,
            max_jitter: SimDuration::from_millis(1),
            seed,
            ..ChaosConfig::default()
        };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            chaos,
        );
        let primary = route(&net, &[0, 1, 2]);
        let backup = route(&net, &[0, 3, 2]);
        for i in 0..40u64 {
            sim.establish(ConnectionId::new(i), BW, primary.clone(), vec![backup.clone()]);
            sim.run_to_quiescence();
            if i % 2 == 0 {
                sim.release(ConnectionId::new(i));
                sim.run_to_quiescence();
            }
            assert_replay_equals_live(&sim, &net);
        }
        // A checkpoint is reached by replaying retired tails one after
        // another, so an error in one compaction carries into every later
        // one: the churn has to stack several, not cross a single one.
        let retired = net
            .nodes()
            .map(|n| sim.journal(n).lsn() - sim.journal(n).tail_len() as u64)
            .max()
            .unwrap_or(0);
        prop_assert!(
            retired >= 4 * Journal::COMPACT_EVERY as u64,
            "churn must stack at least four compactions on one router, retired {retired}"
        );
    }
}

//! Journal-replay determinism: at *any* point of *any* run — mid-walk,
//! under loss, duplication, and jitter, before and after compaction —
//! replaying a router's journal from its checkpoint prefix yields a
//! router bit-for-bit equal to the live one. Same shape as `drt-core`'s
//! `failure_engine_matches_paper_oracle`: a randomized trace generator
//! plus an exact-equality reference.
//!
//! The same traces pin that report verification is invisible to honest
//! traffic: a twin engine that trusts every report
//! ([`SeededBug::TrustReports`]) stays indistinguishable from the
//! verifying one at every checkpoint.

use drt_core::failure::RestartMode;
use drt_core::ConnectionId;
use drt_net::{topology, Bandwidth, Network, NodeId, Route};
use drt_proto::{ChaosConfig, Journal, ProtocolConfig, ProtocolSim, RetryConfig, SeededBug};
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

/// Asserts that the verifying engine and its report-trusting twin agree
/// on everything observable: an honest run never meets a report the
/// verifier would reject.
fn assert_twins_agree(sim: &ProtocolSim, twin: &ProtocolSim, conns: usize) {
    assert_eq!(
        sim.fingerprint(),
        twin.fingerprint(),
        "fingerprints diverged"
    );
    for i in 0..conns {
        let conn = ConnectionId::new(i as u64);
        assert_eq!(sim.outcome(conn), twin.outcome(conn), "outcome of {conn}");
    }
    assert_eq!(sim.counters().total(), twin.counters().total());
    assert_eq!(sim.recovery_log(), twin.recovery_log());
    assert_eq!(sim.journal_stats(), twin.journal_stats());
}

/// Steps `sim` and `twin` in lockstep until both quiesce, checking
/// journal replay and twin agreement every `check_every` steps, and the
/// engine's invariants once quiescent.
fn drain_in_lockstep(
    sim: &mut ProtocolSim,
    twin: &mut ProtocolSim,
    net: &Network,
    conns: usize,
    check_every: usize,
    steps: &mut usize,
    limit: usize,
) {
    loop {
        let stepped = sim.step();
        assert_eq!(stepped, twin.step(), "one twin quiesced before the other");
        if !stepped {
            break;
        }
        *steps += 1;
        if steps.is_multiple_of(check_every) {
            assert_replay_equals_live(sim, net);
            assert_twins_agree(sim, twin, conns);
        }
        assert!(*steps < limit, "run never quiesced");
    }
    assert_replay_equals_live(sim, net);
    assert_twins_agree(sim, twin, conns);
    assert_eq!(sim.check_invariants(), Ok(()));
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
        restarted in 0u32..9,
    ) {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let chaos = ChaosConfig {
            drop_prob: f64::from(drop_pct) / 100.0,
            dup_prob: f64::from(dup_pct) / 100.0,
            max_jitter: SimDuration::from_millis(2),
            seed,
            restart_mode: RestartMode::Journaled,
            ..ChaosConfig::default()
        };
        let engine = || ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig { max_attempts: 5, ..RetryConfig::default() },
            chaos.clone(),
        );
        let (mut sim, mut twin) = (engine(), engine());
        twin.seed_bug(SeededBug::TrustReports);
        // One primary and three backups: disjoint from it, through its
        // router 4 on another link, and through router 4 on its own link
        // 4 -> 5. The last two reach router 4 one hop from the source, the
        // primary three hops, so on the switchover below the activation
        // gets there before the old primary's release walk does.
        let primary = route(&net, &[3, 0, 1, 4, 5]);
        let backups = [
            route(&net, &[3, 6, 7, 8, 5]),
            route(&net, &[3, 4, 7, 8, 5]),
            route(&net, &[3, 4, 5]),
        ];
        for i in 0..conns {
            for engine in [&mut sim, &mut twin] {
                engine.establish(
                    ConnectionId::new(i as u64),
                    BW,
                    primary.clone(),
                    Some(backups[i % backups.len()].clone()),
                );
            }
        }
        // Interleave stepping with replay checks so the property is
        // pinned at arbitrary mid-walk points, not just quiescence.
        let mut steps = 0usize;
        drain_in_lockstep(&mut sim, &mut twin, &net, conns, check_every, &mut steps, 200_000);

        // A failure mid-life exercises switch/release/poison records;
        // releasing half the connections exercises teardown records.
        for engine in [&mut sim, &mut twin] {
            engine.fail_link(primary.links()[1]);
            for i in 0..conns / 2 {
                engine.release(ConnectionId::new(i as u64));
            }
        }
        drain_in_lockstep(&mut sim, &mut twin, &net, conns, check_every, &mut steps, 400_000);

        // A journaled restart of `restarted`, which rejoins by replay.
        // While the router is down its journal and its (wiped) live state
        // differ, so only the twins are compared until both quiesce.
        for engine in [&mut sim, &mut twin] {
            engine.restart_router(NodeId::new(restarted), SimDuration::from_millis(50));
        }
        while sim.step() {
            prop_assert!(twin.step(), "the trusting twin quiesced first");
            steps += 1;
            if steps.is_multiple_of(check_every) {
                assert_twins_agree(&sim, &twin, conns);
            }
            prop_assert!(steps < 600_000, "restart never quiesced");
        }
        prop_assert!(!twin.step(), "the verifying engine quiesced first");
        assert_replay_equals_live(&sim, &net);
        assert_twins_agree(&sim, &twin, conns);
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
            sim.establish(ConnectionId::new(i), BW, primary.clone(), Some(backup.clone()));
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

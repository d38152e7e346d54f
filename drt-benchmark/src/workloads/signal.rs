//! `signal60`: DR-connection management over the chaotic control plane.

use super::{experiment, Metering, Params, Pass, Replayer, Tally, Workload, World};
use crate::meter::{Meter, Site};
use drt_core::ConnectionId;
use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::SchemeKind;
use drt_net::NodeId;
use drt_proto::{ChaosConfig, ConnOutcome, ProtocolConfig, ProtocolSim, RestartMode, RetryConfig};
use drt_sim::workload::{TimelineEvent, TrafficPattern};
use drt_sim::SimDuration;
use rand::Rng;
use std::sync::Arc;

pub const SIGNAL60: Workload = Workload {
    name: "signal60",
    primary_op: "signalling transaction, driver call to quiescence \
                 (establish, switchover, retire, add_backup, restart pooled)",
    why: "chaos-plane signalling at 0-20 % control-packet loss with journaling on: proto \
          (and the sim event queue under it) does the work, the core mirror little",
    pass: signal60,
    nodes: 60,
};

/// Per-hop loss probabilities of a pass's eight cells: each rate twice,
/// under different traffic and chaos. The slowest hundredth of the
/// transactions are the switchovers on busy links and the retry chains
/// at 20 % loss; one cell per rate holds too few of them for a p99 that
/// does not move with the seed.
const LOSS: [f64; 8] = [0.0, 0.05, 0.10, 0.20, 0.0, 0.05, 0.10, 0.20];

/// One signalling transaction: the driver call, then the simulation
/// stepped until nothing is in flight.
fn txn(
    m: &mut Meter,
    t: &mut Tally,
    site: Site,
    sim: &mut ProtocolSim,
    start: impl FnOnce(&mut ProtocolSim),
) {
    t.attempted += 1;
    t.c.txns += 1;
    t.c.steps += m.op("txn", |m| {
        m.call(site, || {
            start(sim);
            let mut steps = 0;
            while sim.step() {
                steps += 1;
            }
            steps
        })
    });
}

fn signal60(p: &Params, m: &mut Meter) -> Pass {
    let mut t = Tally::new();
    for (cell, loss) in LOSS.into_iter().enumerate() {
        run_cell(p, m, &mut t, cell, loss);
    }
    t.finish()
}

/// One cell, after `drt_experiments::campaign`: connections established
/// through the lossy plane along routes a mirrored manager selects, then
/// journaled router restarts, then link failures with switchover,
/// retirement of dead backups and re-protection.
fn run_cell(p: &Params, m: &mut Meter, t: &mut Tally, cell: usize, loss: f64) {
    let cfg = ExperimentConfig {
        seed: drt_sim::rng::substream_seed(p.seed, &format!("signal-cell-{cell}")),
        ..experiment(p, 60)
    };
    let (connections, failures, restarts) = (p.size(400, 40), p.size(20, 3), p.size(4, 1));

    let world = m.setup(|m| World::build(m, cfg.clone(), 0.4, TrafficPattern::ut(), false));
    let (mut r, mut sim) = m.setup(|m| {
        let chaos = ChaosConfig {
            drop_prob: loss,
            dup_prob: 0.02,
            max_jitter: SimDuration::from_micros(200),
            restart_mode: RestartMode::Journaled,
            seed: drt_sim::rng::substream_seed(cfg.seed, "chaos"),
            ..ChaosConfig::default()
        };
        let retry = RetryConfig {
            max_attempts: 12,
            ..RetryConfig::default()
        };
        let sim = ProtocolSim::with_chaos(
            Arc::clone(&world.net),
            ProtocolConfig::default(),
            retry,
            chaos,
        );
        (Replayer::new(m, &world, SchemeKind::DLsr), sim)
    });
    t.c.scenario_events += world.timeline.len() as u64;
    let bw = world.scenario.bw_req();
    let mut pick = drt_sim::rng::stream(cfg.seed, "signal-pick");
    let mut inject = drt_sim::rng::stream(cfg.seed, "signal-inject");

    let mut live: Vec<ConnectionId> = Vec::with_capacity(connections);
    m.timed(|m| {
        // Establish the workload through the lossy plane.
        let mut rejected = 0;
        while live.len() + rejected < connections {
            let Some(&(_, ev)) = world.timeline.get(r.cursor) else {
                break;
            };
            r.cursor += 1;
            let TimelineEvent::Arrive(rid) = ev else {
                continue;
            };
            let Some(rep) = r.arrive(m, Metering::Call, t, rid) else {
                continue; // no feasible route: not a signalling outcome
            };
            let conn = rep.id;
            txn(m, t, Site::Establish, &mut sim, |sim| {
                sim.establish(conn, bw, rep.primary, rep.backups)
            });
            match sim.outcome(conn) {
                Some(ConnOutcome::Established) => live.push(conn),
                Some(ConnOutcome::Degraded) => {
                    // Unprotected but live: mirror the lost protection.
                    if let Err(e) = r.mgr.drop_backups(conn) {
                        t.fail(format_args!("mirror drop_backups {conn}: {e}"));
                    }
                    live.push(conn);
                }
                Some(ConnOutcome::Rejected) => {
                    rejected += 1;
                    if let Err(e) = r.mgr.release(conn) {
                        t.fail(format_args!("mirror release {conn}: {e}"));
                    }
                }
                other => t.fail(format_args!("establishment of {conn} ended in {other:?}")),
            }
        }

        // Journaled restarts: what the rejoin will replay is priced on
        // its own first, then the crash, replay and resync run as one
        // transaction.
        for _ in 0..restarts {
            let node = NodeId::new(pick.gen_range(0..world.net.num_nodes() as u32));
            std::hint::black_box(m.call(Site::JournalReplay, || {
                sim.journal(node).replay(&world.net, node)
            }));
            txn(m, t, Site::Restart, &mut sim, |sim| {
                sim.restart_router(node, SimDuration::from_millis(50))
            });
        }
    });
    // Untimed: establishment under loss, duplication and jitter, and the
    // journaled rejoins, must leave every router ledger consistent with
    // its channel tables and every live primary in place.
    if let Err(v) = sim.check_invariants() {
        t.fail(format_args!(
            "ProtocolSim::check_invariants before the failures: {v}"
        ));
    }

    m.timed(|m| {
        // Link failures, one at a time, each on a link some live primary
        // crosses.
        for _ in 0..failures {
            if live.is_empty() {
                break;
            }
            let victim = live[pick.gen_range(0..live.len())];
            let primary = r
                .mgr
                .connection(victim)
                .expect("live on the mirror")
                .primary();
            let link = primary.links()[pick.gen_range(0..primary.len())];
            if r.mgr.is_failed(link) {
                continue;
            }
            let log_before = sim.recovery_log().len();
            txn(m, t, Site::Switchover, &mut sim, |sim| sim.fail_link(link));

            // The distributed outcome is authoritative; the mirror
            // replays the failure and is reconciled to it.
            let report = match m.call(Site::Inject, || r.mgr.inject_failure(link, &mut inject)) {
                Ok(report) => report,
                Err(e) => {
                    t.fail(format_args!("mirror inject {link}: {e}"));
                    continue;
                }
            };
            for rec in &sim.recovery_log()[log_before..] {
                if rec.recovered {
                    t.c.switched += 1;
                } else {
                    t.c.lost += 1;
                    live.retain(|&c| c != rec.conn);
                }
            }
            for &id in report.switched.iter().chain(&report.lost) {
                let sim_up = sim.outcome(id).is_some_and(ConnOutcome::is_established);
                let mirror_up = r
                    .mgr
                    .connection(id)
                    .is_some_and(|c| c.state().is_carrying_traffic());
                if !sim_up && mirror_up {
                    // Chaos downed what the mirror recovered.
                    if let Err(e) = r.mgr.release(id) {
                        t.fail(format_args!("mirror release {id}: {e}"));
                    }
                }
            }
            // Registered backups crossing the failed link can never
            // activate: retire them on the sources that still hold them.
            txn(m, t, Site::Retire, &mut sim, |sim| {
                for &c in &live {
                    sim.retire_backups_crossing(c, link);
                }
            });

            // Re-protect the unprotected survivors.
            for &c in &live {
                if !sim.outcome(c).is_some_and(ConnOutcome::is_established)
                    || !sim.registered_backups(c).is_empty()
                {
                    continue;
                }
                let bare = r
                    .mgr
                    .connection(c)
                    .is_some_and(|k| k.state().is_carrying_traffic() && k.backups().is_empty());
                if !bare {
                    continue;
                }
                let (mgr, scheme) = (&mut r.mgr, r.scheme.as_mut());
                if m.call(Site::Reprotect, || mgr.reestablish_backup(scheme, c))
                    .is_err()
                {
                    t.c.reprotect_failed += 1;
                    continue;
                }
                let backup = mgr.connection(c).and_then(|k| k.backups().last().cloned());
                let Some(backup) = backup else {
                    t.fail(format_args!("re-protected {c} holds no backup"));
                    continue;
                };
                txn(m, t, Site::AddBackup, &mut sim, |sim| {
                    sim.add_backup(c, backup);
                });
                if sim.outcome(c) != Some(ConnOutcome::Established) {
                    // Registration exhausted its retries under chaos.
                    t.c.unprotected += 1;
                    if let Err(e) = mgr.drop_backups(c) {
                        t.fail(format_args!("mirror drop_backups {c}: {e}"));
                    }
                }
            }
        }
    });

    // After switchovers the engine's own audit is counted, not required:
    // a router keeps one primary entry per connection, so where a backup
    // revisits a router of its primary, activation and the old primary's
    // release walk race for that entry and one reservation or one entry is
    // stranded (`prime-table-divergence`, `rejoin-restores-primaries`).
    // The count is a per-layer metric; a fix of the engine moves it to 0.
    if let Err(v) = sim.check_invariants() {
        t.c.invariant_violations += 1;
        t.mix(v.rule.len() as u64);
    }
    let (msgs, _) = sim.counters().total();
    let (retx, _) = sim.counters().retransmitted();
    t.c.msgs += msgs;
    t.c.retransmissions += retx;
    t.c.exhausted += sim.exhausted().map(|(_, n)| n).sum::<u64>();
    t.c.replayed_records += sim.journal_stats().replayed_records;
    t.mix(sim.fingerprint());
    r.close(t, true);
}

//! `probe60`: the read-only failure analysis of Figure 4.

use super::{experiment, Params, Pass, Replayer, Tally, Workload, World};
use crate::meter::{Meter, Site};
use drt_core::failure::FailureEvent;
use drt_core::DrtpManager;
use drt_experiments::runner::SchemeKind;
use drt_net::{NodeId, SrlgId};
use drt_sim::workload::TrafficPattern;
use drt_sim::{SimDuration, SimTime};
use rand::Rng;

pub const PROBE60: Workload = Workload {
    name: "probe60",
    primary_op: "DrtpManager::sweep_single_failures",
    why: "read-only failure analysis on light, knee and saturated load: the same core state \
          as churn60 used the other way (index and spare-pool reads, no routing, no mutation)",
    pass: probe60,
    nodes: 60,
};

/// Three D-LSR managers snapshotted from the churn timeline at λ 0.3,
/// 0.5 and 0.7; a cycle is one single-failure sweep, one vulnerability
/// report and 16 correlated-event probes per manager.
fn probe60(p: &Params, m: &mut Meter) -> Pass {
    let mut t = Tally::new();
    let cfg = experiment(p, 60);
    let snapshot_at = SimTime::ZERO + SimDuration::from_minutes(p.size(150, 30) as u64);
    let cycles = p.size(200, 3);

    let mut mgrs: Vec<DrtpManager> = Vec::new();
    let mut events: Vec<FailureEvent> = Vec::new();
    for lambda in [0.3, 0.5, 0.7] {
        let world = m.setup(|m| World::build(m, cfg.clone(), lambda, TrafficPattern::ut(), true));
        let mgr = m.setup(|m| {
            let mut r = Replayer::new(m, &world, SchemeKind::DLsr);
            r.warm_up(m, &mut t, snapshot_at);
            r.mgr
        });
        if events.is_empty() {
            // 8 shared-risk groups and 8 router crashes, the same for
            // every manager.
            let mut rng = drt_sim::rng::stream(p.seed, "probe-events");
            let net = &world.net;
            events.extend((0..8).map(|_| {
                FailureEvent::Srlg(SrlgId::new(rng.gen_range(0..net.num_srlgs() as u32)))
            }));
            events.extend((0..8).map(|_| {
                FailureEvent::Node(NodeId::new(rng.gen_range(0..net.num_nodes() as u32)))
            }));
        }
        t.c.scenario_events += world.timeline.len() as u64;
        mgrs.push(mgr);
    }
    let before: Vec<u64> = mgrs.iter().map(DrtpManager::fingerprint).collect();

    let mut rng = drt_sim::rng::stream(p.seed, "probe-contention");
    m.timed(|m| {
        for cycle in 0..cycles as u64 {
            for mgr in &mgrs {
                let seed = p.seed ^ cycle;
                let sweep = m.op("sweep", |m| {
                    m.call(Site::Sweep, || mgr.sweep_single_failures(seed))
                });
                t.c.probe_trials += sweep.aggregate.trials;
                t.c.probe_affected += sweep.aggregate.affected;
                t.c.probe_activated += sweep.aggregate.activated;
                let vuln = m.side_op("vulnerability", |m| {
                    m.call(Site::Vuln, || drt_core::analysis::vulnerability(mgr, seed))
                });
                t.mix(vuln.vulnerable_count() as u64);
                for ev in &events {
                    let out = m.side_op("probe_event", |m| {
                        m.call(Site::ProbeEvent, || mgr.probe_event(ev, &mut rng))
                    });
                    t.mix((out.affected() as u64) << 32 | out.activated() as u64);
                }
                t.attempted += 2 + events.len() as u64;
            }
        }
    });

    for (mgr, was) in mgrs.iter().zip(before) {
        t.audit("DrtpManager::assert_invariants", || mgr.assert_invariants());
        if mgr.fingerprint() != was {
            t.fail("a probe mutated the manager");
        }
        t.mix(was);
    }
    t.finish()
}

//! `churn60` and `scale1k`: admission churn along a scenario timeline.

use super::{experiment, Metering, Params, Pass, Replayer, Tally, Workload, World};
use crate::meter::Meter;
use drt_core::failure::FailureEvent;
use drt_experiments::runner::SchemeKind;
use drt_net::LinkId;
use drt_sim::workload::TrafficPattern;
use drt_sim::{SimDuration, SimTime};
use rand::Rng;

pub const CHURN60: Workload = Workload {
    name: "churn60",
    primary_op: "DrtpManager::request_connection (admitted or blocked), pooled over schemes",
    why: "steady-state admission churn: the write path of core does the work and \
          failure-time structures are only maintained, so their upkeep shows as a loss here",
    pass: churn60,
    nodes: 60,
};

pub const SCALE1K: Workload = Workload {
    name: "scale1k",
    primary_op: "DrtpManager::request_connection on the 1000-node network",
    why: "1000-node churn with link failures: the only workload where the O(N^2) hop \
          table, per-source trees and O(L)-bit masks dominate and set-up and memory are large",
    pass: scale1k,
    nodes: 1000,
};

/// The paper's 4 h request/release timeline, warm-up replayed as set-up
/// and the remainder timed, once per (scenario, scheme): λ=0.4 UT and
/// λ=0.5 NT under D-LSR, P-LSR and BF. No failures, no probes.
fn churn60(p: &Params, m: &mut Meter) -> Pass {
    let mut t = Tally::new();
    let mut cfg = experiment(p, 60);
    if p.smoke {
        cfg.duration = SimDuration::from_minutes(40);
        cfg.warmup = SimDuration::from_minutes(20);
    }
    for (lambda, hot_spots) in [(0.4, false), (0.5, true)] {
        for kind in SchemeKind::paper_schemes() {
            let world = m.setup(|m| {
                let pattern = if hot_spots {
                    cfg.nt_pattern()
                } else {
                    TrafficPattern::ut()
                };
                World::build(m, cfg.clone(), lambda, pattern, false)
            });
            let mut r = m.setup(|m| {
                let mut r = Replayer::new(m, &world, kind);
                r.warm_up(m, &mut t, SimTime::ZERO + cfg.warmup);
                r
            });
            t.c.scenario_events += world.timeline.len() as u64;
            m.timed(|m| while r.step(m, Metering::Op, &mut t) {});
            r.close(&mut t, true);
        }
    }
    t.finish()
}

/// D-LSR churn from an empty 1000-node network at λ=2.0, with single-link
/// failures (re-protection and repair included) interleaved at a fixed
/// cadence.
fn scale1k(p: &Params, m: &mut Meter) -> Pass {
    let mut t = Tally::new();
    let mut cfg = experiment(p, p.size(1000, 100));
    cfg.duration = SimDuration::from_minutes(p.size(30, 10) as u64);
    let lambda = if p.smoke { 0.5 } else { 2.0 };
    let failures = p.size(40, 5);

    let world = m.setup(|m| World::build(m, cfg.clone(), lambda, TrafficPattern::ut(), false));
    let mut r = m.setup(|m| Replayer::new(m, &world, SchemeKind::DLsr));
    t.c.scenario_events += world.timeline.len() as u64;
    let every = world.timeline.len() / (failures + 1);
    let mut pick = drt_sim::rng::stream(p.seed, "scale-events");
    let mut inject = drt_sim::rng::stream(p.seed, "scale-inject");
    m.timed(|m| {
        let mut replayed = 0;
        while r.step(m, Metering::Op, &mut t) {
            replayed += 1;
            if replayed % every == 0 {
                let link = LinkId::new(pick.gen_range(0..world.net.num_links() as u32));
                // Connections it destroys stay on record until they depart.
                r.failure_cycle(m, &mut t, &FailureEvent::Link(link), &mut inject, false);
            }
        }
    });
    // The Debug-rendered fingerprint of a 1000-node manager is hundreds of
    // megabytes; the ledger totals and invariants stand in for it.
    r.close(&mut t, false);
    t.finish()
}

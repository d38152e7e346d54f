//! `failstorm60`: failure events on a loaded network.

use super::{experiment, Params, Pass, Replayer, Tally, Workload, World};
use crate::meter::Meter;
use drt_core::failure::FailureEvent;
use drt_core::routing::RouteRequest;
use drt_core::ConnectionId;
use drt_experiments::runner::SchemeKind;
use drt_net::{LinkId, NodeId, SrlgId};
use drt_sim::workload::TrafficPattern;
use drt_sim::{SimDuration, SimTime};
use rand::Rng;

pub const FAILSTORM60: Workload = Workload {
    name: "failstorm60",
    primary_op: "inject_event start to the last reestablish_backup return",
    why: "event handling at the paper's steady state (~730 live connections): hop repair, \
          route cache, contention pass and promotion do the work and admission little",
    pass: failstorm60,
    nodes: 60,
};

/// A D-LSR manager at the λ=0.5 steady state takes a fixed population of
/// failure events in a seeded order: every link six times, every
/// shared-risk group five times, every router twice (drawn at random, the
/// few router crashes a seed happened to draw set the cost of the pass).
/// After each event the failed links are repaired and every connection
/// that was lost is requested again between the same endpoints, as its
/// clients would: the load is held, so every event meets a network as full
/// as the first one did. Topping up from the scenario's next arrivals
/// instead lets the load decay over the pass — blocked arrivals are not
/// retried and crashed routers lose their traffic for good — and with it
/// the cost of a median event, by 2x between seeds.
fn failstorm60(p: &Params, m: &mut Meter) -> Pass {
    let mut t = Tally::new();
    let cfg = experiment(p, 60);
    let loaded_at = SimTime::ZERO + SimDuration::from_minutes(p.size(150, 30) as u64);

    let world = m.setup(|m| World::build(m, cfg.clone(), 0.5, TrafficPattern::ut(), true));
    let mut r = m.setup(|m| {
        let mut r = Replayer::new(m, &world, SchemeKind::DLsr);
        r.warm_up(m, &mut t, loaded_at);
        r
    });
    t.c.scenario_events += world.timeline.len() as u64;
    let bw = world.scenario.bw_req();
    // 70 / 20 / 10 % of 1 500 events on the 60-node network.
    let net = &world.net;
    let mut events: Vec<FailureEvent> = Vec::new();
    for round in 0..6 {
        events.extend((0..net.num_links() as u32).map(|l| FailureEvent::Link(LinkId::new(l))));
        if round < 5 {
            events.extend((0..net.num_srlgs() as u32).map(|g| FailureEvent::Srlg(SrlgId::new(g))));
        }
        if round < 2 {
            events.extend((0..net.num_nodes() as u32).map(|n| FailureEvent::Node(NodeId::new(n))));
        }
    }
    let mut order = drt_sim::rng::stream(cfg.seed, "failstorm-events");
    for i in (1..events.len()).rev() {
        events.swap(i, order.gen_range(0..=i));
    }
    if p.smoke {
        events.truncate(30);
    }
    let mut inject = drt_sim::rng::stream(p.seed, "failstorm-inject");
    let mut next_id = world.scenario.len() as u64;
    m.timed(|m| {
        for event in &events {
            let lost = r.failure_cycle(m, &mut t, event, &mut inject, true);
            // Every destroyed connection is requested again between the
            // same endpoints once the links are back, as its clients would.
            for id in lost {
                let ends = r
                    .mgr
                    .connection(id)
                    .map(|c| (c.primary().source(), c.primary().dest()));
                let (Some((src, dst)), Ok(())) = (ends, r.mgr.release(id)) else {
                    t.fail(format_args!("lost {id} is not on record"));
                    continue;
                };
                let req = RouteRequest::new(ConnectionId::new(next_id), src, dst, bw)
                    .with_backups(cfg.backups_per_connection);
                next_id += 1;
                let (mgr, scheme) = (&mut r.mgr, r.scheme.as_mut());
                match m.call(r.site, || mgr.request_connection(scheme, req)) {
                    Ok(_) => t.c.admitted += 1,
                    Err(_) => t.c.blocked += 1,
                }
            }
        }
    });
    r.close(&mut t, true);
    t.finish()
}

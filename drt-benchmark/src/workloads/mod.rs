//! The five workloads and what they share: the seeded world (topology,
//! scenario, manager), the timeline replayer, the failure-event cycle,
//! and the per-pass tally of simulated outcomes that is digested and
//! compared between passes.

mod churn;
mod failstorm;
mod probe;
mod signal;

use crate::meter::{Meter, Site};
use drt_core::failure::FailureEvent;
use drt_core::routing::{RouteRequest, RoutingScheme};
use drt_core::{ConnectionId, DrtpError, DrtpManager, EstablishReport};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::SchemeKind;
use drt_net::algo::AllPairsHops;
use drt_net::{LinkId, Network};
use drt_sim::workload::{RequestId, Scenario, TimelineEvent, TrafficPattern};
use drt_sim::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// What the command line fixes for a run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Master seed: scenarios, failure choices and chaos derive from it.
    pub seed: u64,
    /// Seconds-scale sizes for the tests; never used for a reported number.
    pub smoke: bool,
}

impl Params {
    /// `full` normally, `smoke` under `--smoke`.
    fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One workload of the benchmark.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What the primary operation (the one `latency_us_*` times) is.
    pub primary_op: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// Runs one pass: set-up, the timed region, then the untimed checks.
    pub pass: fn(&Params, &mut Meter) -> Pass,
    /// Nodes of the topology the workload runs on (for the unit probes).
    pub nodes: usize,
}

/// Every workload, in the order `--list` prints them.
pub const ALL: [Workload; 5] = [
    churn::CHURN60,
    probe::PROBE60,
    failstorm::FAILSTORM60,
    signal::SIGNAL60,
    churn::SCALE1K,
];

/// Simulated outcomes of one pass. Exact per seed: every field enters
/// the pass digest, and passes replaying one input must agree on it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub scenario_events: u64,
    pub admitted: u64,
    pub blocked: u64,
    pub hop_sum: u64,
    pub switched: u64,
    pub lost: u64,
    pub unprotected: u64,
    pub reprotect_failed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub probe_trials: u64,
    pub probe_affected: u64,
    pub probe_activated: u64,
    pub txns: u64,
    pub steps: u64,
    pub msgs: u64,
    pub retransmissions: u64,
    pub exhausted: u64,
    pub replayed_records: u64,
    pub invariant_violations: u64,
}

/// What a finished pass hands back to the run loop.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// FNV-1a over the simulated statistics and final state fingerprints.
    pub digest: u64,
    pub counts: Counts,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error the model forbids, plus violated
    /// invariants.
    pub failed: u64,
}

/// Running tally of a pass.
pub struct Tally {
    hash: u64,
    pub c: Counts,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            hash: 0xcbf2_9ce4_8422_2325,
            c: Counts::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Folds one value into the digest.
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Records an outcome the model forbids.
    fn fail(&mut self, what: impl std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("drt-benchmark: failed op: {what}");
        }
        self.failed += 1;
    }

    /// Runs an untimed end-of-pass audit that panics on violation.
    fn audit(&mut self, what: &str, check: impl FnOnce()) {
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_err() {
            self.fail(format_args!("{what} violated"));
        }
    }

    fn finish(mut self) -> Pass {
        let c = self.c;
        for b in format!("{c:?}").bytes() {
            self.mix(u64::from(b));
        }
        Pass {
            digest: self.hash,
            counts: c,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// The paper's 60-node configuration (or `nodes` of the same recipe)
/// under the run's master seed. The topology seed stays fixed: runs with
/// different seeds differ in traffic, not in the network.
fn experiment(p: &Params, nodes: usize) -> ExperimentConfig {
    ExperimentConfig {
        nodes,
        seed: p.seed,
        ..ExperimentConfig::paper(3.0)
    }
}

/// Topology, scenario and its timeline, rebuilt from scratch by every
/// pass's set-up.
pub struct World {
    cfg: ExperimentConfig,
    net: Arc<Network>,
    scenario: Scenario,
    timeline: Vec<(SimTime, TimelineEvent)>,
}

impl World {
    /// Builds the topology (partitioned into 3-link shared-risk groups
    /// when `srlgs`) and generates the scenario at arrival rate `lambda`.
    fn build(
        m: &mut Meter,
        cfg: ExperimentConfig,
        lambda: f64,
        pattern: TrafficPattern,
        srlgs: bool,
    ) -> World {
        let net = m.call(Site::TopoBuild, || {
            let net = cfg.build_network().expect("feasible topology");
            if !srlgs {
                return net;
            }
            let mut links: Vec<LinkId> = net.links().map(|l| l.id()).collect();
            let mut rng = drt_sim::rng::stream(cfg.topo_seed, "bench-srlgs");
            for i in (1..links.len()).rev() {
                links.swap(i, rng.gen_range(0..=i));
            }
            let groups: Vec<Vec<LinkId>> = links.chunks(3).map(<[LinkId]>::to_vec).collect();
            net.with_srlgs(&groups)
                .expect("groups of this network's links")
        });
        // The manager computes its own table; this call prices the
        // O(N²) structure on its own.
        std::hint::black_box(m.call(Site::HopsBuild, || AllPairsHops::compute(&net)));
        let (scenario, timeline) = m.call(Site::ScenarioGen, || {
            let s = cfg.scenario_config(lambda, pattern).generate(cfg.nodes);
            let t = s.timeline();
            (s, t)
        });
        World {
            cfg,
            net: Arc::new(net),
            scenario,
            timeline,
        }
    }

    fn manager(&self, m: &mut Meter, kind: SchemeKind) -> DrtpManager {
        m.call(Site::ManagerBuild, || {
            DrtpManager::with_config(Arc::clone(&self.net), kind.manager_config())
        })
    }

    fn request(&self, rid: RequestId) -> RouteRequest {
        let r = self.scenario.request(rid).expect("timeline ids are valid");
        RouteRequest::new(
            ConnectionId::new(rid.index() as u64),
            r.src,
            r.dst,
            self.scenario.bw_req(),
        )
        .with_backups(self.cfg.backups_per_connection)
    }
}

/// How a replayed timeline event is metered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Metering {
    /// Set-up (warm-up, preload): direct calls, nothing recorded.
    Off,
    /// Traced call only: the event is not an operation of the workload.
    Call,
    /// An operation of the workload.
    Op,
}

/// Replays a world's timeline against one manager under one scheme.
struct Replayer<'w> {
    world: &'w World,
    mgr: DrtpManager,
    scheme: Box<dyn RoutingScheme>,
    site: Site,
    /// Indexed by request id: admitted and not yet released.
    live: Vec<bool>,
    /// Next timeline entry.
    cursor: usize,
}

impl<'w> Replayer<'w> {
    fn new(m: &mut Meter, world: &'w World, kind: SchemeKind) -> Self {
        Replayer {
            world,
            mgr: world.manager(m, kind),
            scheme: kind.instantiate(),
            site: match kind {
                SchemeKind::PLsr => Site::RequestPlsr,
                SchemeKind::Bf => Site::RequestBf,
                _ => Site::RequestDlsr,
            },
            live: vec![false; world.scenario.len()],
            cursor: 0,
        }
    }

    /// Admits (or blocks) one arrival. Blocking is a simulated outcome.
    fn arrive(
        &mut self,
        m: &mut Meter,
        how: Metering,
        t: &mut Tally,
        rid: RequestId,
    ) -> Option<EstablishReport> {
        let req = self.world.request(rid);
        let (mgr, scheme, site) = (&mut self.mgr, self.scheme.as_mut(), self.site);
        let res = match how {
            Metering::Off => mgr.request_connection(scheme, req),
            Metering::Call => m.call(site, || mgr.request_connection(scheme, req)),
            Metering::Op => m.op("request", |m| {
                m.call(site, || mgr.request_connection(scheme, req))
            }),
        };
        if how != Metering::Off {
            t.attempted += 1;
        }
        match res {
            Ok(rep) => {
                self.live[rid.index()] = true;
                if how != Metering::Off {
                    t.c.admitted += 1;
                    t.c.hop_sum += (rep.primary.len() + rep.backup().map_or(0, |b| b.len())) as u64;
                }
                Some(rep)
            }
            Err(DrtpError::DuplicateConnection(id)) => {
                t.fail(format_args!("request {id}: duplicate id"));
                None
            }
            Err(_) => {
                if how != Metering::Off {
                    t.c.blocked += 1;
                }
                None
            }
        }
    }

    /// Releases a departing connection if it was admitted. One lost to a
    /// failure since is still on record (as failed) and releases cleanly.
    fn depart(&mut self, m: &mut Meter, how: Metering, t: &mut Tally, rid: RequestId) {
        if !std::mem::take(&mut self.live[rid.index()]) {
            return;
        }
        let id = ConnectionId::new(rid.index() as u64);
        let mgr = &mut self.mgr;
        let res = match how {
            Metering::Off => mgr.release(id),
            _ => {
                t.attempted += 1;
                m.side_op("release", |m| m.call(Site::Release, || mgr.release(id)))
            }
        };
        if let Err(e) = res {
            t.fail(format_args!("release of live {id}: {e}"));
        }
    }

    /// Replays the next timeline entry; `false` at the end.
    fn step(&mut self, m: &mut Meter, how: Metering, t: &mut Tally) -> bool {
        let Some(&(_, ev)) = self.world.timeline.get(self.cursor) else {
            return false;
        };
        self.cursor += 1;
        match ev {
            TimelineEvent::Arrive(rid) => {
                self.arrive(m, how, t, rid);
            }
            TimelineEvent::Depart(rid) => self.depart(m, how, t, rid),
            // The benchmark's scenarios record no failure process.
            TimelineEvent::LinkFail(_) | TimelineEvent::LinkRepair(_) => {}
        }
        true
    }

    /// Replays unmetered up to (excluding) the first entry at or after
    /// `until` — the warm-up that loads the network.
    fn warm_up(&mut self, m: &mut Meter, t: &mut Tally, until: SimTime) {
        while self
            .world
            .timeline
            .get(self.cursor)
            .is_some_and(|&(at, _)| at < until)
        {
            self.step(m, Metering::Off, t);
        }
    }

    /// One failure event through repair: inject, re-protect every bare
    /// survivor (the primary operation ends here), repair every failed
    /// link, then retry the re-protections that found no route while the
    /// links were down. Returns the connections the event destroyed.
    fn failure_cycle(
        &mut self,
        m: &mut Meter,
        t: &mut Tally,
        event: &FailureEvent,
        rng: &mut StdRng,
        primary: bool,
    ) -> Vec<ConnectionId> {
        let (mgr, scheme) = (&mut self.mgr, self.scheme.as_mut());
        t.attempted += 1;
        let mut still_bare: Vec<ConnectionId> = Vec::new();
        let handle = |m: &mut Meter| {
            let report = m.call(Site::Inject, || mgr.inject_event(event, rng));
            let Ok(report) = report else {
                return report;
            };
            for &id in report.switched.iter().chain(&report.unprotected) {
                match m.call(Site::Reprotect, || mgr.reestablish_backup(&mut *scheme, id)) {
                    Ok(_) => {}
                    Err(DrtpError::NoBackupRoute(_) | DrtpError::NoPrimaryRoute(..)) => {
                        still_bare.push(id)
                    }
                    Err(e) => t.fail(format_args!("re-protect {id}: {e}")),
                }
            }
            Ok(report)
        };
        let report = if primary {
            m.op("event", handle)
        } else {
            m.side_op("event", handle)
        };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                t.fail(format_args!("inject {event}: {e}"));
                return Vec::new();
            }
        };
        t.c.switched += report.switched.len() as u64;
        t.c.lost += report.lost.len() as u64;
        t.c.unprotected += report.unprotected.len() as u64;
        for &l in &report.failed_links {
            if let Err(e) = m.call(Site::Repair, || mgr.repair_link(l)) {
                t.fail(format_args!("repair of failed {l}: {e}"));
            }
        }
        for id in still_bare {
            if m.call(Site::Reprotect, || mgr.reestablish_backup(&mut *scheme, id))
                .is_err()
            {
                t.c.reprotect_failed += 1;
            }
        }
        report.lost
    }

    /// Untimed end-of-pass checks and the state's contribution to the
    /// digest.
    fn close(&self, t: &mut Tally, fingerprint: bool) {
        t.audit("DrtpManager::assert_invariants", || {
            self.mgr.assert_invariants()
        });
        let tel = self.mgr.telemetry();
        t.c.cache_hits += tel.counter("cache.hits");
        t.c.cache_misses += tel.counter("cache.misses");
        t.c.cache_invalidations += tel.counter("cache.invalidations");
        t.mix(self.mgr.active_connections() as u64);
        t.mix(self.mgr.total_prime().kbps());
        t.mix(self.mgr.total_spare().kbps());
        if fingerprint {
            t.mix(self.mgr.fingerprint());
        }
    }
}

//! Scenario replay: one routing scheme consumes one recorded scenario.
//!
//! This is the paper's methodology verbatim: "we use scenario files to
//! record the connection request and release events … and compare the
//! performance of the proposed schemes by simulating them using the same
//! scenario file."

use crate::config::ExperimentConfig;
use drt_core::failure::FaultToleranceSample;
use drt_core::multiplex::MultiplexConfig;
use drt_core::routing::{
    BoundedFlooding, DLsr, DedicatedDisjoint, PLsr, PrimaryOnly, RouteRequest, RoutingScheme,
    SpfBackup,
};
use drt_core::{ConnectionId, DrtpManager};
use drt_net::Network;
use drt_sim::stats::TimeWeighted;
use drt_sim::workload::{Scenario, TimelineEvent, TrafficPattern};
use drt_sim::SimTime;
use std::fmt;
use std::sync::Arc;

/// The selectable routing schemes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Deterministic link-state routing (Section 3.2).
    DLsr,
    /// Probabilistic link-state routing (Section 3.1).
    PLsr,
    /// Bounded flooding (Section 4).
    Bf,
    /// Conflict-oblivious shortest-disjoint backup (ablation baseline).
    Spf,
    /// Dedicated disjoint backups, no multiplexing (the ≥50 % strawman).
    Dedicated,
    /// No backups at all (Figure 5's calibration baseline).
    NoBackup,
}

impl SchemeKind {
    /// The three schemes the paper proposes and plots.
    pub fn paper_schemes() -> [SchemeKind; 3] {
        [SchemeKind::DLsr, SchemeKind::PLsr, SchemeKind::Bf]
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::DLsr => "D-LSR",
            SchemeKind::PLsr => "P-LSR",
            SchemeKind::Bf => "BF",
            SchemeKind::Spf => "SPF",
            SchemeKind::Dedicated => "Dedicated",
            SchemeKind::NoBackup => "NoBackup",
        }
    }

    /// Creates the scheme instance.
    pub fn instantiate(self) -> Box<dyn RoutingScheme> {
        match self {
            SchemeKind::DLsr => Box::new(DLsr::new()),
            SchemeKind::PLsr => Box::new(PLsr::new()),
            SchemeKind::Bf => Box::new(BoundedFlooding::new()),
            SchemeKind::Spf => Box::new(SpfBackup::new()),
            SchemeKind::Dedicated => Box::new(DedicatedDisjoint::new()),
            SchemeKind::NoBackup => Box::new(PrimaryOnly::new()),
        }
    }

    /// The manager configuration this scheme runs under: the paper's, the
    /// only one there is. Nothing in this workspace calls it; a manager is
    /// built with [`DrtpManager::new`].
    pub fn manager_config(self) -> MultiplexConfig {
        MultiplexConfig::paper()
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything one replay measures.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Scheme label ("D-LSR", …).
    pub scheme: &'static str,
    /// Arrival rate λ of the scenario.
    pub lambda: f64,
    /// Traffic-pattern label ("UT"/"NT").
    pub pattern: String,
    /// Requests arriving inside the measurement window.
    pub requests: u64,
    /// …of which admitted.
    pub admitted: u64,
    /// Time-weighted average number of active DR-connections over the
    /// measurement window (the "number of DR-connections" of Figure 5).
    pub avg_active: f64,
    /// Aggregated single-link-failure sweep over all snapshots
    /// (Figure 4's estimator).
    pub fault_tolerance: FaultToleranceSample,
    /// Mean control messages per *admitted* connection.
    pub msgs_per_conn: f64,
    /// Mean control bytes per admitted connection.
    pub bytes_per_conn: f64,
    /// Mean primary route length (hops) of admitted connections.
    pub avg_primary_hops: f64,
    /// Mean backup route length (hops) of admitted protected connections.
    pub avg_backup_hops: f64,
    /// Fraction of admitted backups that conflicted at registration.
    pub conflicted_fraction: f64,
    /// Mean (over snapshots) fraction of network capacity held as spare.
    pub spare_fraction: f64,
}

impl RunMetrics {
    /// Admission (acceptance) probability inside the measurement window.
    pub fn acceptance(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.admitted as f64 / self.requests as f64
        }
    }

    /// `P_act-bk`, defaulting to 1.0 when no failure affected any primary
    /// (an unloaded network trivially tolerates every single failure).
    pub fn p_act_bk(&self) -> f64 {
        self.fault_tolerance.p_act_bk().unwrap_or(1.0)
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} λ={:.1} {}: act={:.1}, P_act-bk={:.4}, acc={:.3}, msgs/conn={:.0}",
            self.scheme,
            self.lambda,
            self.pattern,
            self.avg_active,
            self.p_act_bk(),
            self.acceptance(),
            self.msgs_per_conn
        )
    }
}

/// Replays `scenario` under `kind`, probing fault tolerance at the
/// configured snapshots. Fully deterministic for a given configuration.
pub fn replay(
    net: &Arc<Network>,
    scenario: &Scenario,
    kind: SchemeKind,
    cfg: &ExperimentConfig,
) -> RunMetrics {
    let mut scheme = kind.instantiate();
    let mut mgr = DrtpManager::new(Arc::clone(net));
    let bw = scenario.bw_req();

    let warmup_at = SimTime::ZERO + cfg.warmup;
    let end_at = SimTime::ZERO + cfg.duration;
    let snapshots: Vec<SimTime> = (1..=cfg.snapshots)
        .map(|k| {
            let span = cfg.duration - cfg.warmup;
            warmup_at
                + drt_sim::SimDuration::from_micros(
                    span.as_micros() * k as u64 / cfg.snapshots as u64,
                )
        })
        .collect();

    let mut active_tw = TimeWeighted::new(SimTime::ZERO, 0.0);
    let mut active: u64 = 0;
    let mut warmed = false;
    let mut snap_idx = 0;

    let mut requests = 0u64;
    let mut admitted = 0u64;
    let mut ft = FaultToleranceSample::default();
    let mut msgs = 0u64;
    let mut bytes = 0u64;
    let mut primary_hops = 0u64;
    let mut backup_hops = 0u64;
    let mut protected = 0u64;
    let mut conflicted = 0u64;
    let mut spare_fraction_acc = 0.0;
    let total_capacity = net.total_capacity();

    let take_snapshot =
        |mgr: &DrtpManager, snap_no: usize, ft: &mut FaultToleranceSample, spare_acc: &mut f64| {
            let sweep = mgr.sweep_single_failures(
                drt_sim::rng::substream_seed(cfg.seed, "ft-sweep") ^ snap_no as u64,
            );
            ft.merge(sweep.aggregate);
            *spare_acc += mgr.total_spare().fraction_of(total_capacity);
        };

    for (t, ev) in scenario.timeline() {
        // Fire snapshots whose time has come (state is exactly as of that
        // instant because events are processed in order).
        while snap_idx < snapshots.len() && snapshots[snap_idx] <= t {
            take_snapshot(&mgr, snap_idx, &mut ft, &mut spare_fraction_acc);
            snap_idx += 1;
        }
        if !warmed && t >= warmup_at {
            warmed = true;
            active_tw.reset(warmup_at);
            requests = 0;
            admitted = 0;
            msgs = 0;
            bytes = 0;
            primary_hops = 0;
            backup_hops = 0;
            protected = 0;
            conflicted = 0;
        }
        match ev {
            TimelineEvent::Arrive(rid) => {
                let r = scenario.request(rid).expect("timeline ids are valid");
                if t <= end_at {
                    requests += 1;
                }
                let req =
                    RouteRequest::new(ConnectionId::new(rid.index() as u64), r.src, r.dst, bw)
                        .with_backups(cfg.backups_per_connection);
                if let Ok(rep) = mgr.request_connection(scheme.as_mut(), req) {
                    if t <= end_at {
                        admitted += 1;
                        msgs += rep.overhead.messages;
                        bytes += rep.overhead.bytes;
                        primary_hops += rep.primary.len() as u64;
                        if let Some(b) = rep.backup() {
                            protected += 1;
                            backup_hops += b.len() as u64;
                            if rep.conflicted {
                                conflicted += 1;
                            }
                        }
                    }
                    active += 1;
                    active_tw.update(t, active as f64);
                }
            }
            TimelineEvent::Depart(rid) => {
                let id = ConnectionId::new(rid.index() as u64);
                if mgr.release(id).is_ok() {
                    active -= 1;
                    active_tw.update(t, active as f64);
                }
            }
            // The static estimator ignores a recorded failure process;
            // the `availability` regime of `crate::regimes` replays it.
            TimelineEvent::LinkFail(_) | TimelineEvent::LinkRepair(_) => {}
        }
    }
    // Any snapshots after the last event observe the final state.
    while snap_idx < snapshots.len() {
        take_snapshot(&mgr, snap_idx, &mut ft, &mut spare_fraction_acc);
        snap_idx += 1;
    }
    // Every replay ends with a coherent ledger, whatever the scheme did.
    mgr.assert_invariants();

    let div = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    RunMetrics {
        scheme: kind.label(),
        lambda: scenario.arrival_rate(),
        pattern: scenario.pattern_label().to_string(),
        requests,
        admitted,
        avg_active: active_tw.average(end_at),
        fault_tolerance: ft,
        msgs_per_conn: div(msgs, admitted),
        bytes_per_conn: div(bytes, admitted),
        avg_primary_hops: div(primary_hops, admitted),
        avg_backup_hops: div(backup_hops, protected),
        conflicted_fraction: div(conflicted, protected),
        spare_fraction: if cfg.snapshots == 0 {
            0.0
        } else {
            spare_fraction_acc / cfg.snapshots as f64
        },
    }
}

/// Runs the full (λ × pattern × scheme) matrix in parallel on one worker
/// per available CPU, sharing a scenario per (λ, pattern).
pub fn run_matrix(
    cfg: &ExperimentConfig,
    lambdas: &[f64],
    kinds: &[SchemeKind],
    patterns: &[(&str, TrafficPattern)],
) -> Vec<RunMetrics> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_matrix_jobs(cfg, lambdas, kinds, patterns, jobs)
}

/// [`run_matrix`] on at most `jobs` worker threads. Results are identical
/// for every job count: each cell derives its RNG from the master seed and
/// its own identity, and rows are merged in canonical (λ, pattern, scheme)
/// order.
pub fn run_matrix_jobs(
    cfg: &ExperimentConfig,
    lambdas: &[f64],
    kinds: &[SchemeKind],
    patterns: &[(&str, TrafficPattern)],
    jobs: usize,
) -> Vec<RunMetrics> {
    let net = Arc::new(cfg.build_network().expect("feasible paper topology"));

    // Generate each scenario once.
    let mut scenarios: Vec<Scenario> = Vec::new();
    for &lambda in lambdas {
        for (_, pattern) in patterns {
            scenarios.push(
                cfg.scenario_config(lambda, pattern.clone())
                    .generate(cfg.nodes),
            );
        }
    }

    let cells: Vec<(usize, SchemeKind)> = (0..scenarios.len())
        .flat_map(|si| kinds.iter().map(move |&k| (si, k)))
        .collect();
    let scenarios = &scenarios;
    let net = &net;
    let mut out = crate::par::parallel_map(jobs, cells, |(si, kind)| {
        replay(net, &scenarios[si], kind, cfg)
    });
    // Deterministic order: by λ, pattern, scheme label.
    out.sort_by(|a, b| {
        a.lambda
            .partial_cmp(&b.lambda)
            .unwrap()
            .then_with(|| a.pattern.cmp(&b.pattern))
            .then_with(|| a.scheme.cmp(b.scheme))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        cfg.degree = 3.0;
        cfg.duration = drt_sim::SimDuration::from_minutes(50);
        cfg.warmup = drt_sim::SimDuration::from_minutes(25);
        cfg.snapshots = 2;
        cfg
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = tiny_cfg();
        let net = Arc::new(cfg.build_network().unwrap());
        let scenario = cfg
            .scenario_config(0.2, TrafficPattern::ut())
            .generate(cfg.nodes);
        let a = replay(&net, &scenario, SchemeKind::DLsr, &cfg);
        let b = replay(&net, &scenario, SchemeKind::DLsr, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn all_schemes_replay_cleanly() {
        let cfg = tiny_cfg();
        let net = Arc::new(cfg.build_network().unwrap());
        let scenario = cfg
            .scenario_config(0.15, TrafficPattern::ut())
            .generate(cfg.nodes);
        for kind in [
            SchemeKind::DLsr,
            SchemeKind::PLsr,
            SchemeKind::Bf,
            SchemeKind::Spf,
            SchemeKind::Dedicated,
            SchemeKind::NoBackup,
        ] {
            let m = replay(&net, &scenario, kind, &cfg);
            assert!(m.requests > 0, "{kind}: no requests measured");
            assert!(m.admitted > 0, "{kind}: nothing admitted");
            assert!(m.avg_active > 0.0, "{kind}: no active connections");
            assert!((0.0..=1.0).contains(&m.p_act_bk()), "{kind}");
            assert!((0.0..=1.0).contains(&m.acceptance()), "{kind}");
            if kind != SchemeKind::NoBackup {
                assert!(m.avg_backup_hops >= m.avg_primary_hops - 1e-9, "{kind}");
                assert!(m.msgs_per_conn > 0.0, "{kind}");
            }
        }
    }

    #[test]
    fn no_backup_admits_more_than_protected_schemes() {
        let cfg = tiny_cfg();
        let net = Arc::new(cfg.build_network().unwrap());
        // Load high enough to saturate the small test network.
        let scenario = cfg
            .scenario_config(0.6, TrafficPattern::ut())
            .generate(cfg.nodes);
        let nobak = replay(&net, &scenario, SchemeKind::NoBackup, &cfg);
        let dlsr = replay(&net, &scenario, SchemeKind::DLsr, &cfg);
        let dedicated = replay(&net, &scenario, SchemeKind::Dedicated, &cfg);
        assert!(
            nobak.avg_active > dlsr.avg_active,
            "backups must cost capacity: {} vs {}",
            nobak.avg_active,
            dlsr.avg_active
        );
        assert!(
            dlsr.avg_active > dedicated.avg_active,
            "multiplexing must beat dedicated: {} vs {}",
            dlsr.avg_active,
            dedicated.avg_active
        );
    }

    #[test]
    fn labels() {
        assert_eq!(
            SchemeKind::paper_schemes().map(|s| s.label()),
            ["D-LSR", "P-LSR", "BF"]
        );
        assert_eq!(SchemeKind::Dedicated.to_string(), "Dedicated");
    }

    #[test]
    fn run_matrix_covers_all_cells() {
        let mut cfg = tiny_cfg();
        cfg.snapshots = 1;
        let out = run_matrix(
            &cfg,
            &[0.1, 0.2],
            &[SchemeKind::DLsr, SchemeKind::Bf],
            &[("UT", TrafficPattern::ut())],
        );
        assert_eq!(out.len(), 4);
        // Sorted by lambda then scheme.
        assert!(out[0].lambda <= out[3].lambda);
    }

    #[test]
    fn matrix_is_identical_for_every_job_count() {
        let mut cfg = tiny_cfg();
        cfg.snapshots = 1;
        let lambdas = [0.1, 0.2];
        let kinds = [SchemeKind::DLsr, SchemeKind::Bf];
        let patterns = [("UT", TrafficPattern::ut())];
        let serial = run_matrix_jobs(&cfg, &lambdas, &kinds, &patterns, 1);
        for jobs in [2, 8] {
            let par = run_matrix_jobs(&cfg, &lambdas, &kinds, &patterns, jobs);
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "jobs={jobs} diverged from serial"
            );
        }
    }
}

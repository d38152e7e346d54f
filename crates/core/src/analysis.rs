//! Operator-facing analysis of a running DRTP deployment.
//!
//! These helpers answer the questions a network operator (or a paper
//! reviewer) asks after connections are up: *which single failures would
//! actually hurt?* (vulnerability), *where is the spare bandwidth
//! concentrated?* (spare summary), and *which links carry the most
//! conflict mass?* (hotspots — the links P-LSR/D-LSR steer around).

use crate::{ConnectionId, DrtpManager};
use drt_net::{Bandwidth, LinkId};
use std::collections::BTreeMap;
use std::fmt;

/// For each connection, the single-link failures it would not survive.
///
/// Produced by [`vulnerability`]; a connection absent from the map
/// survives *every* single link failure (given the current contention).
#[derive(Debug, Clone, Default)]
pub struct VulnerabilityReport {
    per_conn: BTreeMap<ConnectionId, Vec<LinkId>>,
    trials: u64,
}

impl VulnerabilityReport {
    /// Connections with at least one unsurvivable failure, with the
    /// offending links.
    pub fn vulnerable(&self) -> impl Iterator<Item = (ConnectionId, &[LinkId])> {
        self.per_conn.iter().map(|(&c, l)| (c, l.as_slice()))
    }

    /// Number of vulnerable connections.
    pub fn vulnerable_count(&self) -> usize {
        self.per_conn.len()
    }

    /// The unsurvivable failures of one connection (empty slice = fully
    /// protected).
    pub fn failures_killing(&self, conn: ConnectionId) -> &[LinkId] {
        self.per_conn.get(&conn).map_or(&[], |v| v.as_slice())
    }

    /// Number of failure units probed.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Merges a report covering a *later* contiguous chunk of the failure
    /// units into this one. Because unit enumeration is in link-id order
    /// and each per-connection list records links in probe order, merging
    /// in-order chunks reproduces the single-pass report exactly — the
    /// combinator behind the sharded parallel driver.
    pub fn merge(&mut self, other: VulnerabilityReport) {
        self.trials += other.trials;
        for (conn, links) in other.per_conn {
            self.per_conn.entry(conn).or_default().extend(links);
        }
    }
}

impl fmt::Display for VulnerabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vulnerable connections over {} probed failures",
            self.per_conn.len(),
            self.trials
        )
    }
}

/// Probes every failure unit and records, per connection, the failures it
/// would not survive (no backup, dead backup, or lost contention).
///
/// Deterministic per `seed` (contention tie-breaking uses independent
/// per-trial streams, like [`DrtpManager::sweep_single_failures`]).
pub fn vulnerability(mgr: &DrtpManager, seed: u64) -> VulnerabilityReport {
    vulnerability_over(mgr, seed, &mgr.failure_units(), 0)
}

/// [`vulnerability`] over a contiguous slice of
/// [`DrtpManager::failure_units`] whose first element has global
/// enumeration index `base` — the shardable form. Each unit's RNG stream
/// is keyed by its global index, so probing `[a..b)` and `[b..c)`
/// separately and [`VulnerabilityReport::merge`]-ing the results is
/// bit-identical to one pass over `[a..c)`.
///
/// The probe loop reuses the thread-local probe workspace, so a full
/// report allocates only its own output map.
pub fn vulnerability_over(
    mgr: &DrtpManager,
    seed: u64,
    units: &[LinkId],
    base: u64,
) -> VulnerabilityReport {
    let mut report = VulnerabilityReport::default();
    crate::failure::with_probe_scratch(|ws| {
        for (k, &link) in units.iter().enumerate() {
            if mgr.is_failed(link) {
                continue;
            }
            let mut rng = drt_sim::rng::indexed_stream(seed, "vulnerability", base + k as u64);
            mgr.probe_unit_in(link, &mut rng, ws);
            if ws.decisions.is_empty() {
                continue;
            }
            report.trials += 1;
            for (at, won) in &ws.decisions {
                if won.is_none() {
                    report.per_conn.entry(at.id).or_default().push(link);
                }
            }
        }
    });
    report
}

/// The full-scan reference for [`vulnerability`], probing through
/// [`DrtpManager::naive_baseline`] — used by the equivalence tests and
/// the benchmark harness.
pub fn vulnerability_naive(mgr: &DrtpManager, seed: u64) -> VulnerabilityReport {
    let naive = mgr.naive_baseline();
    let mut report = VulnerabilityReport::default();
    for (idx, link) in mgr.failure_units().into_iter().enumerate() {
        if mgr.is_failed(link) {
            continue;
        }
        let mut rng = drt_sim::rng::indexed_stream(seed, "vulnerability", idx as u64);
        let outcome = naive.probe_single_failure(link, &mut rng);
        if outcome.affected() == 0 {
            continue;
        }
        report.trials += 1;
        for (conn, won) in &outcome.details {
            if won.is_none() {
                report.per_conn.entry(*conn).or_default().push(link);
            }
        }
    }
    report
}

/// Distribution summary of the spare pools across links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpareSummary {
    /// Total spare bandwidth across all links.
    pub total: Bandwidth,
    /// Largest single-link spare pool.
    pub max: Bandwidth,
    /// Links holding any spare at all.
    pub links_with_spare: usize,
    /// Links whose spare is below the APLV requirement (conflicting
    /// backups multiplexed on the same spare — the degraded case of
    /// Section 5).
    pub deficit_links: usize,
    /// Mean spare fraction of capacity over all links.
    pub mean_fraction: f64,
}

/// Summarises the spare pools of `mgr`'s links.
pub fn spare_summary(mgr: &DrtpManager) -> SpareSummary {
    let mut total = Bandwidth::ZERO;
    let mut max = Bandwidth::ZERO;
    let mut links_with_spare = 0;
    let mut fraction_sum = 0.0;
    let mut n = 0usize;
    for link in mgr.net().links() {
        let lr = mgr.link_resources(link.id());
        total += lr.spare();
        max = max.max(lr.spare());
        if !lr.spare().is_zero() {
            links_with_spare += 1;
        }
        fraction_sum += lr.spare().fraction_of(lr.capacity());
        n += 1;
    }
    SpareSummary {
        total,
        max,
        links_with_spare,
        deficit_links: mgr.spare_deficit_links(),
        mean_fraction: if n == 0 { 0.0 } else { fraction_sum / n as f64 },
    }
}

/// The `top_n` links by conflict mass (`‖APLV‖₁`), with their worst-case
/// simultaneous activation count — the hotspots conflict-aware routing
/// steers new backups around.
pub fn conflict_hotspots(mgr: &DrtpManager, top_n: usize) -> Vec<(LinkId, u64, u32)> {
    let mut all: Vec<(LinkId, u64, u32)> = mgr
        .net()
        .links()
        .map(|l| {
            let aplv = mgr.aplv(l.id());
            (l.id(), aplv.l1_norm(), aplv.max_count())
        })
        .filter(|&(_, l1, _)| l1 > 0)
        .collect(); // lint:allow(probe-alloc) — one-shot report, not the probe loop
    all.sort_by_key(|&(id, l1, _)| (std::cmp::Reverse(l1), id));
    all.truncate(top_n);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{DLsr, PrimaryOnly, RouteRequest};
    use drt_net::{topology, NodeId};
    use std::sync::Arc;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn loaded_manager() -> DrtpManager {
        let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        for (i, (s, d)) in [(4u32, 7u32), (4, 7), (8, 11), (1, 13)].iter().enumerate() {
            mgr.request_connection(
                &mut scheme,
                RouteRequest::new(
                    ConnectionId::new(i as u64),
                    NodeId::new(*s),
                    NodeId::new(*d),
                    BW,
                ),
            )
            .unwrap();
        }
        mgr
    }

    #[test]
    fn fully_protected_deployment_has_no_vulnerabilities() {
        let mgr = loaded_manager();
        let report = vulnerability(&mgr, 3);
        assert_eq!(report.vulnerable_count(), 0, "{report}");
        assert!(report.trials() > 0);
        assert!(report.failures_killing(ConnectionId::new(0)).is_empty());
    }

    #[test]
    fn unprotected_connection_is_flagged_per_primary_link() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = PrimaryOnly::new();
        let rep = mgr
            .request_connection(
                &mut scheme,
                RouteRequest::new(ConnectionId::new(0), NodeId::new(0), NodeId::new(8), BW),
            )
            .unwrap();
        let report = vulnerability(&mgr, 1);
        assert_eq!(report.vulnerable_count(), 1);
        let killing = report.failures_killing(ConnectionId::new(0));
        assert_eq!(killing.len(), rep.primary.len());
        for l in killing {
            assert!(rep.primary.contains_link(*l));
        }
        // The vulnerability agrees with the sweep's loss count.
        let sweep = mgr.sweep_single_failures(1);
        let agg = sweep.aggregate;
        assert_eq!(agg.affected - agg.activated, killing.len() as u64);
    }

    #[test]
    fn spare_summary_reflects_reservations() {
        let mgr = loaded_manager();
        let s = spare_summary(&mgr);
        assert_eq!(s.total, mgr.total_spare());
        assert!(s.links_with_spare > 0);
        assert!(s.max >= BW);
        assert_eq!(s.deficit_links, 0, "paper policy covers requirements");
        assert!(s.mean_fraction > 0.0 && s.mean_fraction < 1.0);
    }

    #[test]
    fn hotspots_are_sorted_and_bounded() {
        let mgr = loaded_manager();
        let hot = conflict_hotspots(&mgr, 5);
        assert!(!hot.is_empty());
        assert!(hot.len() <= 5);
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The two identical 4->7 connections force a shared-fate hotspot
        // only if their backups overlap; either way l1 norms are positive.
        assert!(hot[0].1 >= 1);
        assert_eq!(conflict_hotspots(&mgr, 0).len(), 0);
    }
}

//! Signalling overhead of DR-connection *management* (Section 2.2).
//!
//! The discovery-overhead experiment ([`crate::overhead`]) prices finding
//! routes; this one prices operating them: the primary-setup walks,
//! backup-path register/release packets (each carrying the primary's
//! LSET), and teardown traffic that DRTP's management steps 1–4 exchange.
//! It replays a scenario through [`drt_proto::ProtocolSim`], with routes
//! chosen by a scheme against a mirrored centralized manager (the two are
//! state-equivalent; see `drt-proto`'s equivalence suite).

use crate::runner::SchemeKind;
use drt_core::{ConnectionId, DrtpManager};
use drt_proto::{ProtocolConfig, ProtocolSim, TrafficCounters};
use drt_sim::workload::{Scenario, TimelineEvent};
use std::sync::Arc;

/// Outcome of a signalling replay.
#[derive(Debug)]
pub struct SignallingReport {
    /// Scheme used for route selection.
    pub scheme: &'static str,
    /// Connections successfully established through the protocol.
    pub established: u64,
    /// Connection attempts (selection succeeded, signalling ran).
    pub attempted: u64,
    /// Full per-packet-kind traffic counters.
    pub counters: TrafficCounters,
}

impl SignallingReport {
    /// Mean management messages per established connection.
    pub fn msgs_per_conn(&self) -> f64 {
        let (m, _) = self.counters.total();
        if self.established == 0 {
            0.0
        } else {
            m as f64 / self.established as f64
        }
    }

    /// Mean management bytes per established connection.
    pub fn bytes_per_conn(&self) -> f64 {
        let (_, b) = self.counters.total();
        if self.established == 0 {
            0.0
        } else {
            b as f64 / self.established as f64
        }
    }
}

/// Replays `scenario` through the message-level protocol: every admitted
/// request's routes (selected by `kind` on the mirror manager) are
/// established with real signalling; departures send release walks.
pub fn replay_signalling(
    net: &Arc<drt_net::Network>,
    scenario: &Scenario,
    kind: SchemeKind,
) -> SignallingReport {
    let mut mirror = DrtpManager::new(Arc::clone(net));
    let mut scheme = kind.instantiate();
    let mut sim = ProtocolSim::new(Arc::clone(net), ProtocolConfig::default());
    let mut attempted = 0u64;
    let mut established = 0u64;

    for (_, ev) in scenario.timeline() {
        match ev {
            TimelineEvent::Arrive(rid) => {
                let r = scenario.request(rid).expect("valid id");
                let conn = ConnectionId::new(rid.index() as u64);
                let req =
                    drt_core::routing::RouteRequest::new(conn, r.src, r.dst, scenario.bw_req());
                // Mirror selection + admission; feed the same routes into
                // the protocol.
                let Ok(rep) = mirror.request_connection(scheme.as_mut(), req) else {
                    continue;
                };
                attempted += 1;
                sim.establish(conn, scenario.bw_req(), rep.primary, rep.backups);
                sim.run_to_quiescence();
                if sim.outcome(conn).expect("submitted").is_established() {
                    established += 1;
                } else {
                    // Divergence would break the mirror; the equivalence
                    // suite guarantees this cannot happen.
                    unreachable!("protocol rejected what the mirror admitted");
                }
            }
            TimelineEvent::Depart(rid) => {
                let conn = ConnectionId::new(rid.index() as u64);
                if mirror.release(conn).is_ok() {
                    assert!(sim.release(conn), "mirror and protocol disagree");
                    sim.run_to_quiescence();
                }
            }
            TimelineEvent::LinkFail(_) | TimelineEvent::LinkRepair(_) => {}
        }
    }
    SignallingReport {
        scheme: kind.label(),
        established,
        attempted,
        counters: sim.counters().clone(),
    }
}

/// Renders a per-kind traffic table for several reports side by side.
pub fn render(reports: &[SignallingReport]) -> String {
    let mut out =
        String::from("DR-connection management signalling (per established connection)\n");
    out.push_str(&format!("{:<20}", "packet kind"));
    for r in reports {
        out.push_str(&format!("{:>14}", r.scheme));
    }
    out.push('\n');
    // Union of kinds across reports, in stable order.
    let mut kinds: Vec<&'static str> = Vec::new();
    for r in reports {
        for (k, _, _) in r.counters.iter() {
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
    }
    kinds.sort();
    for k in kinds {
        out.push_str(&format!("{k:<20}"));
        for r in reports {
            let (m, _) = r.counters.kind(k);
            out.push_str(&format!("{:>14.2}", m as f64 / r.established.max(1) as f64));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<20}", "total msgs"));
    for r in reports {
        out.push_str(&format!("{:>14.1}", r.msgs_per_conn()));
    }
    out.push('\n');
    out.push_str(&format!("{:<20}", "total bytes"));
    for r in reports {
        out.push_str(&format!("{:>14.0}", r.bytes_per_conn()));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use drt_sim::workload::TrafficPattern;

    #[test]
    fn signalling_replay_runs_and_counts() {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        cfg.duration = drt_sim::SimDuration::from_minutes(30);
        let net = Arc::new(cfg.build_network().unwrap());
        let scenario = cfg
            .scenario_config(0.1, TrafficPattern::ut())
            .generate(cfg.nodes);
        let report = replay_signalling(&net, &scenario, SchemeKind::DLsr);
        assert!(report.established > 0);
        assert_eq!(report.established, report.attempted);
        let (msgs, bytes) = report.counters.total();
        assert!(msgs > 0 && bytes > 0);
        // Register packets carry LSETs: they must dominate setup bytes.
        let (_, reg_bytes) = report.counters.kind("backup-register");
        let (_, setup_bytes) = report.counters.kind("primary-setup");
        assert!(reg_bytes > setup_bytes);
        assert!(report.msgs_per_conn() > 0.0);
        assert!(report.bytes_per_conn() > 0.0);
    }
}

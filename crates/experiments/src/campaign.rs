//! The control-plane loss sweep by loss rate: a thin entry point to the
//! `control-loss` regime of [`crate::regimes`], which runs the sweep.

use crate::config::ExperimentConfig;
use crate::regimes::{run, Regime, Row, SweepConfig};
use crate::runner::SchemeKind;

/// Knobs of the loss sweep.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Per-hop control-packet loss rates to sweep.
    pub loss_rates: Vec<f64>,
    /// Connections to establish before the failures start.
    pub connections: usize,
    /// Link failures to inject, one per round.
    pub failures: usize,
    /// Master seed for chaos, link choice, and probes.
    pub seed: u64,
}

impl Default for CampaignConfig {
    /// The published sweep: 0–20 % loss, 100 connections, 6 failures.
    fn default() -> Self {
        CampaignConfig {
            loss_rates: vec![0.0, 0.05, 0.10, 0.15, 0.20],
            connections: 100,
            failures: 6,
            seed: 7,
        }
    }
}

/// Runs the `control-loss` regime serially, one D-LSR row per loss rate
/// (rounded to whole per mille).
pub fn run_campaign(cfg: &ExperimentConfig, ccfg: &CampaignConfig) -> Vec<Row> {
    let scfg = SweepConfig {
        regimes: vec![Regime::ControlLoss],
        schemes: vec![SchemeKind::DLsr],
        strengths: ccfg
            .loss_rates
            .iter()
            .map(|p| (p * 1000.0).round() as u32)
            .collect(),
        connections: ccfg.connections,
        events: ccfg.failures,
        seed: ccfg.seed,
    };
    run(cfg, &scfg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_control_loss_row_per_loss_rate() {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let ccfg = CampaignConfig {
            loss_rates: vec![0.0, 0.15],
            connections: 10,
            failures: 1,
            seed: 13,
        };
        let strengths: Vec<u32> = run_campaign(&cfg, &ccfg)
            .iter()
            .map(|r| r.cell.strength)
            .collect();
        assert_eq!(strengths, [0, 150]);
    }
}

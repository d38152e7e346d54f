//! Byzantine router behaviors for the signalling plane.
//!
//! [`crate::ChaosConfig`] models an *indifferent* network — packets die,
//! duplicate, and straggle at random. [`AdversaryConfig`] models a
//! *hostile* one: a chosen set of routers that actively lies. Three
//! behaviors are covered, each deterministic per seed:
//!
//! * **false failure reports** — a byzantine router "detects" the
//!   failure of a perfectly healthy link at a scheduled instant and
//!   reports it upstream exactly as an honest detector would, tricking
//!   sources into spurious switchovers
//!   ([`crate::ProtocolSim::spoof_failure_report`] fires one manually);
//! * **suppressed reports** — a byzantine router that *should* report a
//!   real failure stays silent, leaving every affected source on a dead
//!   primary;
//! * **selective interception** — signalling addressed to chosen victim
//!   nodes is dropped or delayed with configured probability, over and
//!   above whatever the chaos plane does. Deliveries are intercepted by
//!   destination (the byzantine-transit approximation: one delivery
//!   models the whole multi-hop traversal, so a byzantine router on the
//!   path is modelled as a filter in front of the victim).
//!
//! The link-state *advertisement* lies of the adversary model (dead
//! links advertised up, deflated conflict costs) live on the routing
//! side as [`drt_core::ViewDistortion`] — the centralized manager owns
//! the link-state database there. The corresponding countermeasures
//! (report vetting, suspicion scores, router quarantine) are split the
//! same way: the engine's `report_verification` gate covers the
//! signalling plane, `RecoveryOrchestrator::vet_report` covers the
//! experiment drivers.
//!
//! All randomness draws from a dedicated substream (`"adversary"`) of
//! [`AdversaryConfig::seed`], so enabling the adversary never perturbs
//! the chaos schedule and a hostile run is exactly reproducible.

use drt_net::{LinkId, NodeId};
use drt_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// One scheduled lie: at `at`, `reporter` claims `link` failed even
/// though it is healthy, and reports it to every affected source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FalseReport {
    /// Virtual time of the fabricated detection.
    pub at: SimTime,
    /// The byzantine router doing the reporting. The lie only lands on
    /// connections whose primaries this router carries across `link`, so
    /// a useful reporter is an endpoint of the link it lies about.
    pub reporter: NodeId,
    /// The healthy link reported as failed.
    pub link: LinkId,
}

/// Deterministic byzantine-behavior configuration, the hostile
/// counterpart of [`crate::ChaosConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryConfig {
    /// Routers under adversary control. Byzantine routers suppress their
    /// real failure reports when [`AdversaryConfig::suppress_reports`]
    /// is set, and are the natural reporters for
    /// [`AdversaryConfig::false_reports`].
    pub byzantine: Vec<NodeId>,
    /// Nodes whose incoming multi-hop signalling is intercepted
    /// (selectively dropped/delayed).
    pub victims: Vec<NodeId>,
    /// Scheduled fabricated failure reports.
    pub false_reports: Vec<FalseReport>,
    /// When set, byzantine routers stay silent about *real* failures
    /// they would otherwise detect and report.
    pub suppress_reports: bool,
    /// Probability an intercepted delivery is dropped (`0.0..=1.0`).
    pub drop_prob: f64,
    /// Intercepted deliveries that survive are delayed by an extra
    /// uniform `[0, max_delay]`.
    pub max_delay: SimDuration,
    /// Master seed for the adversary substream.
    pub seed: u64,
}

impl Default for AdversaryConfig {
    /// No byzantine routers, no victims, no lies: the engine behaves
    /// exactly as without an adversary.
    fn default() -> Self {
        AdversaryConfig {
            byzantine: Vec::new(),
            victims: Vec::new(),
            false_reports: Vec::new(),
            suppress_reports: false,
            drop_prob: 0.0,
            max_delay: SimDuration::ZERO,
            seed: 0,
        }
    }
}

impl AdversaryConfig {
    /// `true` when this configuration perturbs nothing (the engine skips
    /// the adversary path — and its RNG draws — entirely).
    pub fn is_quiet(&self) -> bool {
        // Exact-zero probes on user-supplied probabilities are the intent
        // here: only a literal 0.0 disables the interception path.
        self.false_reports.is_empty()
            && !self.suppress_reports
            && (self.victims.is_empty() || (self.drop_prob == 0.0 && self.max_delay.is_zero()))
    }

    /// `true` when `node` is under adversary control.
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.byzantine.contains(&node)
    }

    /// `true` when deliveries addressed to `node` are intercepted.
    pub fn intercepts(&self, to: NodeId) -> bool {
        self.victims.contains(&to)
    }

    /// The RNG for this configuration's adversary substream.
    pub(crate) fn rng(&self) -> StdRng {
        drt_sim::rng::stream(self.seed, "adversary")
    }

    /// Decides the fate of one intercepted delivery: `None` to drop it,
    /// `Some(extra)` to let it through after `extra` delay. The full
    /// decision chain is drawn unconditionally so the substream stays
    /// aligned whatever the thresholds (independence under change).
    pub(crate) fn intercept(&self, rng: &mut StdRng) -> Option<SimDuration> {
        debug_assert!((0.0..=1.0).contains(&self.drop_prob));
        let dropped = rng.gen_bool(self.drop_prob.clamp(0.0, 1.0));
        let extra = if self.max_delay.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.gen_range(0..=self.max_delay.as_micros()))
        };
        if dropped {
            None
        } else {
            Some(extra)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet() {
        assert!(AdversaryConfig::default().is_quiet());
        // Byzantine membership alone is quiet: without suppression,
        // lies, or interception knobs it changes no behavior.
        let byz = AdversaryConfig {
            byzantine: vec![NodeId::new(1)],
            ..AdversaryConfig::default()
        };
        assert!(byz.is_quiet());
        let suppressor = AdversaryConfig {
            suppress_reports: true,
            ..AdversaryConfig::default()
        };
        assert!(!suppressor.is_quiet());
        let victims_without_knobs = AdversaryConfig {
            victims: vec![NodeId::new(0)],
            ..AdversaryConfig::default()
        };
        assert!(victims_without_knobs.is_quiet());
        let interceptor = AdversaryConfig {
            victims: vec![NodeId::new(0)],
            drop_prob: 0.5,
            ..AdversaryConfig::default()
        };
        assert!(!interceptor.is_quiet());
    }

    #[test]
    fn interception_is_deterministic_per_seed() {
        let cfg = AdversaryConfig {
            victims: vec![NodeId::new(0)],
            drop_prob: 0.4,
            max_delay: SimDuration::from_millis(2),
            seed: 17,
            ..AdversaryConfig::default()
        };
        let run = |cfg: &AdversaryConfig| {
            let mut rng = cfg.rng();
            (0..200)
                .map(|_| cfg.intercept(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&cfg), run(&cfg.clone()));
        let other = AdversaryConfig {
            seed: 18,
            ..cfg.clone()
        };
        assert_ne!(run(&cfg), run(&other));
    }

    #[test]
    fn intercept_bounds_delay_and_drops_at_one() {
        let always_drop = AdversaryConfig {
            victims: vec![NodeId::new(0)],
            drop_prob: 1.0,
            ..AdversaryConfig::default()
        };
        let mut rng = always_drop.rng();
        for _ in 0..50 {
            assert_eq!(always_drop.intercept(&mut rng), None);
        }
        let delayer = AdversaryConfig {
            victims: vec![NodeId::new(0)],
            max_delay: SimDuration::from_millis(3),
            seed: 5,
            ..AdversaryConfig::default()
        };
        let mut rng = delayer.rng();
        for _ in 0..200 {
            let extra = delayer.intercept(&mut rng).expect("never dropped");
            assert!(extra <= delayer.max_delay);
        }
    }
}

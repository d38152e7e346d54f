//! The delivery-fate seam: the one way a fault reaches a delivery.
//!
//! [`crate::ProtocolSim`] never decides a delivery's fate itself — every
//! multi-hop control-packet delivery is submitted to a [`FateSource`],
//! which answers with the set of arriving copies and their extra delays.
//! Every other fault (a link failing, a router crashing or restarting, a
//! spoofed failure report) is a command on [`crate::ProtocolSim`]. Two
//! sources ship with the crate:
//!
//! * [`ChaosFates`] — the randomized fault model of [`ChaosConfig`]
//!   (same RNG substream, same draw order, and no draws at all under a
//!   quiet configuration);
//! * [`ScriptedFates`] — a deterministic fate vector used by the `verify`
//!   model checker: decision *i* of the run takes `script[i]`, every
//!   decision past the script's end defaults to [`Fate::Deliver`], and
//!   each decision is recorded in a shared [`FateLog`] so the checker can
//!   discover the run's choice points.
//!
//! A hostile network is a third source: `decide` sees the packet, so a
//! byzantine router that intercepts one kind of signalling or swallows
//! its own failure reports is a filter on [`Packet`] (the adversary tests
//! build exactly that).
//!
//! Local zero-delay handoffs (a source handing a walk to its own router)
//! are not deliveries and never reach the fate source.

use crate::chaos::ChaosConfig;
use crate::message::Packet;
use drt_sim::SimDuration;
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The outcome of one delivery: the extra delay of each arriving copy.
/// No copies means the delivery was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryFate {
    /// Extra delay, beyond the nominal multi-hop delay, of each copy.
    pub copies: Vec<SimDuration>,
}

impl DeliveryFate {
    /// Exactly one copy, on time.
    pub fn clean() -> Self {
        DeliveryFate {
            copies: vec![SimDuration::ZERO],
        }
    }

    /// No copy arrives.
    pub fn dropped() -> Self {
        DeliveryFate { copies: Vec::new() }
    }

    /// Two copies, both on time (back-to-back duplicates).
    pub fn duplicated() -> Self {
        DeliveryFate {
            copies: vec![SimDuration::ZERO, SimDuration::ZERO],
        }
    }

    /// One copy, late by `by` (reorders it past packets that share the
    /// window).
    pub fn delayed(by: SimDuration) -> Self {
        DeliveryFate { copies: vec![by] }
    }
}

/// Decides the fate of every multi-hop delivery the engine schedules.
///
/// `hops` is the number of hops the delivery spans (walk forwards span
/// one; results and reports span several in a single delivery).
pub trait FateSource: fmt::Debug {
    /// The fate of one delivery of `pkt` spanning `hops` hops.
    fn decide(&mut self, pkt: &Packet, hops: u64) -> DeliveryFate;
}

/// Randomized fates drawn from a [`ChaosConfig`]'s dedicated RNG
/// substream — the production fault model.
#[derive(Debug)]
pub struct ChaosFates {
    cfg: ChaosConfig,
    rng: StdRng,
}

impl ChaosFates {
    /// A fate source reproducing `cfg`'s fault model exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.drop_prob` and `cfg.dup_prob` both lie in
    /// `0.0..=1.0` (NaN included), naming the field that does not.
    pub fn new(cfg: ChaosConfig) -> Self {
        for (field, p) in [("drop_prob", cfg.drop_prob), ("dup_prob", cfg.dup_prob)] {
            assert!(
                (0.0..=1.0).contains(&p),
                "ChaosConfig::{field} must lie in [0, 1], got {p}"
            );
        }
        let rng = cfg.rng();
        ChaosFates { cfg, rng }
    }
}

impl FateSource for ChaosFates {
    fn decide(&mut self, _pkt: &Packet, hops: u64) -> DeliveryFate {
        // A quiet configuration draws nothing, keeping the substream
        // untouched — exactly the engine's historical fast path.
        if self.cfg.is_quiet() {
            return DeliveryFate::clean();
        }
        self.cfg.plan(&mut self.rng, hops)
    }
}

/// One scripted delivery fate — a discrete choice at one decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Fate {
    /// One copy, on time (the default past the script's end).
    #[default]
    Deliver,
    /// The delivery is lost; retransmission machinery must recover.
    Drop,
    /// Two copies arrive; dedup gating must absorb the second.
    Duplicate,
    /// One copy, late by the source's configured lateness (reordering).
    Delay,
}

impl Fate {
    /// `true` for the non-default fates that count as injected faults.
    pub fn is_fault(self) -> bool {
        self != Fate::Deliver
    }
}

/// One recorded fate decision: what kind of packet was being delivered,
/// over how many hops, and which fate it received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// [`Packet::kind`] of the delivered packet.
    pub kind: &'static str,
    /// Hops the delivery spanned.
    pub hops: u64,
    /// The fate applied.
    pub fate: Fate,
}

/// The decisions a [`ScriptedFates`] has taken so far, in order. Shared
/// with the checker through `Rc<RefCell<_>>` so it can be read after (or
/// during) a run.
#[derive(Debug, Clone, Default)]
pub struct FateLog {
    /// Every decision taken, in decision order.
    pub decisions: Vec<Decision>,
}

impl FateLog {
    /// Number of decisions consumed so far.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when no decision has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

/// Deterministic fates from a fixed script, recording every decision.
///
/// Decision `i` of the run receives `script[i]`; decisions beyond the
/// script default to [`Fate::Deliver`]. [`Fate::Delay`] delays by the
/// `late_by` given at construction — callers must keep the engine's
/// [`ChaosConfig::max_jitter`] at least that large so the retransmission
/// timeout bound still covers delayed copies.
#[derive(Debug, Clone)]
pub struct ScriptedFates {
    script: Vec<Fate>,
    late_by: SimDuration,
    log: Rc<RefCell<FateLog>>,
}

impl ScriptedFates {
    /// A fate source executing `script` with the given lateness.
    pub fn new(script: Vec<Fate>, late_by: SimDuration) -> Self {
        ScriptedFates {
            script,
            late_by,
            log: Rc::new(RefCell::new(FateLog::default())),
        }
    }

    /// A handle onto the decision log, valid for the whole run.
    pub fn log(&self) -> Rc<RefCell<FateLog>> {
        Rc::clone(&self.log)
    }
}

impl FateSource for ScriptedFates {
    fn decide(&mut self, pkt: &Packet, hops: u64) -> DeliveryFate {
        let mut log = self.log.borrow_mut();
        let pos = log.decisions.len();
        let fate = self.script.get(pos).copied().unwrap_or_default();
        log.decisions.push(Decision {
            kind: pkt.kind(),
            hops,
            fate,
        });
        match fate {
            Fate::Deliver => DeliveryFate::clean(),
            Fate::Drop => DeliveryFate::dropped(),
            Fate::Duplicate => DeliveryFate::duplicated(),
            Fate::Delay => DeliveryFate::delayed(self.late_by),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_core::ConnectionId;

    fn pkt() -> Packet {
        Packet::ReportAck {
            conn: ConnectionId::new(1),
            seq: 7,
        }
    }

    #[test]
    fn quiet_chaos_is_always_clean() {
        let mut f = ChaosFates::new(ChaosConfig::default());
        for hops in 1..5 {
            assert_eq!(f.decide(&pkt(), hops), DeliveryFate::clean());
        }
    }

    #[test]
    fn chaos_fates_match_direct_plans() {
        let cfg = ChaosConfig {
            dup_prob: 0.3,
            max_jitter: SimDuration::from_millis(2),
            ..ChaosConfig::lossy(0.4, 99)
        };
        let mut direct_rng = cfg.rng();
        let mut f = ChaosFates::new(cfg.clone());
        for hops in 1..50 {
            let direct = cfg.plan(&mut direct_rng, hops);
            assert_eq!(f.decide(&pkt(), hops).copies, direct.copies);
        }
    }

    #[test]
    #[should_panic(expected = "ChaosConfig::drop_prob must lie in [0, 1], got NaN")]
    fn chaos_fates_reject_a_nan_probability() {
        ChaosFates::new(ChaosConfig {
            drop_prob: f64::NAN,
            ..ChaosConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ChaosConfig::dup_prob must lie in [0, 1], got -0.1")]
    fn chaos_fates_reject_a_negative_probability() {
        ChaosFates::new(ChaosConfig {
            dup_prob: -0.1,
            ..ChaosConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ChaosConfig::drop_prob must lie in [0, 1], got 1.5")]
    fn chaos_fates_reject_a_probability_above_one() {
        ChaosFates::new(ChaosConfig {
            drop_prob: 1.5,
            ..ChaosConfig::default()
        });
    }

    #[test]
    fn scripted_fates_follow_script_then_default() {
        let late = SimDuration::from_millis(3);
        let mut f = ScriptedFates::new(vec![Fate::Drop, Fate::Duplicate, Fate::Delay], late);
        let log = f.log();
        assert_eq!(f.decide(&pkt(), 1), DeliveryFate::dropped());
        assert_eq!(f.decide(&pkt(), 2), DeliveryFate::duplicated());
        assert_eq!(f.decide(&pkt(), 1), DeliveryFate::delayed(late));
        assert_eq!(f.decide(&pkt(), 1), DeliveryFate::clean());
        let log = log.borrow();
        assert_eq!(log.len(), 4);
        assert_eq!(log.decisions[0].fate, Fate::Drop);
        assert_eq!(log.decisions[3].fate, Fate::Deliver);
        assert_eq!(log.decisions[1].hops, 2);
        assert_eq!(log.decisions[0].kind, "report-ack");
        assert!(Fate::Drop.is_fault() && !Fate::Deliver.is_fault());
    }
}

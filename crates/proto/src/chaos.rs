//! The production fault model of the signalling plane: per-delivery
//! packet loss, duplication and reordering jitter, drawn by
//! [`crate::ChaosFates`], plus what a router restarted by
//! [`crate::ProtocolSim::restart_router`] recovers.
//!
//! The DSN 2001 paper assumes control packets arrive; this module removes
//! that assumption so the retransmission machinery in [`crate::engine`]
//! can be exercised. All randomness is drawn from a dedicated
//! [`drt_sim::rng`] substream (`"chaos"`) of [`ChaosConfig::seed`], so a
//! chaotic run is exactly reproducible from its seed and perturbing any
//! other stream (arrivals, lifetimes, …) leaves the chaos schedule
//! untouched. Every fault that is not a delivery's fate — link failure,
//! router crash or restart, a spoofed report — is a command on
//! [`crate::ProtocolSim`], not a configuration field.

use crate::fate::DeliveryFate;
use drt_core::failure::RestartMode;
use drt_sim::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// Corruption injected into the durable journal at crash time (only
/// meaningful under [`RestartMode::Journaled`]). A real implementation
/// detects both through record CRCs and sequence gaps; the engine
/// degrades the rejoin to the crashed-router detection path when replay
/// reports corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JournalFault {
    /// The journal survives intact.
    #[default]
    None,
    /// The crash tore off the last `n` unsynced tail records.
    TornTail(u32),
    /// The tail did not survive at all: replay only reaches the (now
    /// stale) checkpoint.
    StaleCheckpoint,
}

/// Fault model for the control plane, applied independently to every
/// delivery scheduled by the protocol engine.
///
/// Walk packets cross one hop per delivery; result/report packets cross
/// several hops in one delivery, so their drop probability is compounded:
/// a delivery spanning `h` hops survives with probability
/// `(1 - drop_prob)^h`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Probability that one hop drops a control packet (`0.0..=1.0`).
    pub drop_prob: f64,
    /// Probability that a surviving delivery is duplicated (`0.0..=1.0`).
    /// The copy takes an independently jittered path.
    pub dup_prob: f64,
    /// Deliveries are delayed by an extra uniform `[0, max_jitter]`,
    /// which reorders packets that share a path.
    pub max_jitter: SimDuration,
    /// What a router restarted through `ProtocolSim::restart_router`
    /// recovers (amnesia vs journal replay).
    pub restart_mode: RestartMode,
    /// Storage corruption injected into the journal at crash time.
    pub journal_fault: JournalFault,
    /// Master seed for the chaos substream.
    pub seed: u64,
}

impl Default for ChaosConfig {
    /// A quiet control plane: no loss, no duplication, no jitter.
    /// [`crate::ProtocolSim`] behaves exactly like the lossless
    /// engine under this default.
    fn default() -> Self {
        ChaosConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            max_jitter: SimDuration::ZERO,
            restart_mode: RestartMode::default(),
            journal_fault: JournalFault::default(),
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// A lossy-but-orderly control plane: per-hop drop probability `p`,
    /// no duplication, no jitter.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn lossy(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        ChaosConfig {
            drop_prob: p,
            seed,
            ..ChaosConfig::default()
        }
    }

    /// `true` when this configuration perturbs nothing (the engine skips
    /// the chaos path — and its RNG draws — entirely).
    pub fn is_quiet(&self) -> bool {
        // Exact-zero probes on user-supplied probabilities are the intent
        // here: only a literal 0.0 disables the fault path.
        self.drop_prob == 0.0 && self.dup_prob == 0.0 && self.max_jitter.is_zero()
    }

    /// The RNG for this configuration's chaos substream.
    pub(crate) fn rng(&self) -> StdRng {
        drt_sim::rng::stream(self.seed, "chaos")
    }

    /// Decides the fate of one delivery spanning `hops` hops: how many
    /// copies arrive (0, 1, or 2) and each copy's extra jitter.
    pub(crate) fn plan(&self, rng: &mut StdRng, hops: u64) -> DeliveryFate {
        let survival = (1.0 - self.drop_prob).powi(hops.max(1) as i32);
        // Draw the full decision chain unconditionally so the stream stays
        // aligned whatever the outcome (independence under change).
        let survives = rng.gen_bool(survival);
        let duplicated = rng.gen_bool(self.dup_prob);
        let j1 = self.jitter(rng);
        let j2 = self.jitter(rng);
        let mut plan = DeliveryFate::dropped();
        if survives {
            plan.copies.push(j1);
            if duplicated {
                plan.copies.push(j2);
            }
        }
        plan
    }

    fn jitter(&self, rng: &mut StdRng) -> SimDuration {
        if self.max_jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.gen_range(0..=self.max_jitter.as_micros()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet() {
        assert!(ChaosConfig::default().is_quiet());
        assert!(!ChaosConfig::lossy(0.1, 1).is_quiet());
        let jittery = ChaosConfig {
            max_jitter: SimDuration::from_millis(1),
            ..ChaosConfig::default()
        };
        assert!(!jittery.is_quiet());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let cfg = ChaosConfig {
            drop_prob: 0.3,
            dup_prob: 0.2,
            max_jitter: SimDuration::from_millis(2),
            ..ChaosConfig::lossy(0.3, 42)
        };
        let run = |cfg: &ChaosConfig| {
            let mut rng = cfg.rng();
            (0..200)
                .map(|h| cfg.plan(&mut rng, h % 5 + 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&cfg), run(&cfg.clone()));
        let other = ChaosConfig {
            seed: 43,
            ..cfg.clone()
        };
        assert_ne!(run(&cfg), run(&other));
    }

    #[test]
    fn drop_rate_compounds_with_hops() {
        let cfg = ChaosConfig::lossy(0.2, 7);
        let mut rng = cfg.rng();
        let survived = |hops: u64, rng: &mut StdRng| {
            (0..4000)
                .filter(|_| !cfg.plan(rng, hops).copies.is_empty())
                .count() as f64
                / 4000.0
        };
        let one = survived(1, &mut rng);
        let four = survived(4, &mut rng);
        assert!((one - 0.8).abs() < 0.05, "1-hop survival {one}");
        assert!(
            (four - 0.8f64.powi(4)).abs() < 0.05,
            "4-hop survival {four}"
        );
    }

    #[test]
    fn duplicates_only_when_surviving() {
        let cfg = ChaosConfig {
            drop_prob: 0.5,
            dup_prob: 1.0,
            ..ChaosConfig::lossy(0.5, 9)
        };
        let mut rng = cfg.rng();
        for _ in 0..200 {
            let n = cfg.plan(&mut rng, 1).copies.len();
            assert!(n == 0 || n == 2);
        }
    }

    #[test]
    fn jitter_bounded_by_max() {
        let cfg = ChaosConfig {
            max_jitter: SimDuration::from_millis(3),
            ..ChaosConfig::default()
        };
        let mut rng = cfg.rng();
        for _ in 0..500 {
            for j in cfg.plan(&mut rng, 2).copies {
                assert!(j <= cfg.max_jitter);
            }
        }
    }
}

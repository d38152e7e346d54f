//! Backup-multiplexing policies (Section 5 of the paper).
//!
//! The DR-connection manager of each link decides how much spare bandwidth
//! to reserve for the backups multiplexed over it, and which resource pools
//! a backup activation may draw from. The paper's policy is:
//!
//! > "The DR-connection manager for a link checks if more spare resources
//! > need to be reserved using the APLV and SC of the link. … If any
//! > element of APLV_i is larger than SC_i, at least two conflicting
//! > backups are multiplexed on the same spare resources. In this case, it
//! > is necessary to reserve more spare resources. … A DR-connection
//! > manager may not be able to increase spare resources due to the
//! > shortage of resources … \[we\] multiplex the new backup on the
//! > previously-reserved spare resources with other backups."
//!
//! That is [`SparePolicy::GrowToRequirement`]. The alternatives are kept as
//! explicit policies so the ablation benches can quantify how much each
//! rule contributes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How the spare pool of each link is sized as backups come and go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SparePolicy {
    /// The paper's rule: keep `spare_i` at `max_j Σ bw` of the backups a
    /// single failure of `L_j` would activate (`SC_i ≥ max_j a_{i,j}` in
    /// the uniform-bandwidth case), growing from the free pool when
    /// possible and tolerating a deficit when not.
    #[default]
    GrowToRequirement,
    /// Never grow the spare pool: every backup multiplexes over whatever
    /// spare already exists (ablation; pure overbooking).
    NeverGrow,
}

impl fmt::Display for SparePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SparePolicy::GrowToRequirement => "grow-to-requirement",
            SparePolicy::NeverGrow => "never-grow",
        })
    }
}

/// Which pools a backup activation may draw bandwidth from when its
/// primary fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ActivationPool {
    /// Spare first, then currently-free bandwidth (the manager reassigns
    /// freed resources to spare lazily: "If a primary channel is released,
    /// its resources will be returned to the pool of free resources, and
    /// the DR-connection managers assign these free resources to spare").
    #[default]
    SpareAndFree,
    /// Strictly the reserved spare pool (ablation; the conservative
    /// reading of backup multiplexing).
    SpareOnly,
}

impl fmt::Display for ActivationPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ActivationPool::SpareAndFree => "spare+free",
            ActivationPool::SpareOnly => "spare-only",
        })
    }
}

/// How a "single link failure" is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FailureModel {
    /// One unidirectional link fails — the paper's formal model (`L₁₃`
    /// fails; conflicts, APLVs and `P_act-bk` are all defined on directed
    /// links).
    #[default]
    DirectedLink,
    /// A physical cut: both directions of a duplex pair fail together
    /// (extension; stresses conflicts the directed model cannot see).
    DuplexPair,
}

impl fmt::Display for FailureModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureModel::DirectedLink => "directed-link",
            FailureModel::DuplexPair => "duplex-pair",
        })
    }
}

/// Complete multiplexing/recovery configuration of a
/// [`crate::DrtpManager`].
///
/// `Default` is the paper's configuration ([`MultiplexConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiplexConfig {
    /// Spare-pool sizing rule.
    pub spare: SparePolicy,
    /// Activation draw rule.
    pub activation: ActivationPool,
    /// Failure interpretation.
    pub failure_model: FailureModel,
    /// When `false` (the default, matching the paper's evaluation), a
    /// request whose scheme finds no backup route is still admitted — it
    /// runs *unprotected* and counts against fault tolerance (its backup
    /// can never activate), not against capacity. When `true`, such
    /// requests are rejected outright (strict DR-only admission).
    ///
    /// The default reproduces the paper's measurements: bounded flooding's
    /// candidate table sometimes holds a single route, and the paper's BF
    /// curves show that case as *lower `P_act-bk`* (Figure 4) rather than
    /// as extra blocking (Figure 5).
    pub require_backup: bool,
}

impl Default for MultiplexConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl MultiplexConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        MultiplexConfig {
            spare: SparePolicy::GrowToRequirement,
            activation: ActivationPool::SpareAndFree,
            failure_model: FailureModel::DirectedLink,
            require_backup: false,
        }
    }

    /// Strict DR-only admission: reject any request for which no backup
    /// route can be registered.
    pub fn strict() -> Self {
        MultiplexConfig {
            require_backup: true,
            ..Self::paper()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let d = MultiplexConfig::default();
        assert_eq!(d, MultiplexConfig::paper());
        assert_eq!(d.spare, SparePolicy::GrowToRequirement);
        assert_eq!(d.activation, ActivationPool::SpareAndFree);
        assert_eq!(d.failure_model, FailureModel::DirectedLink);
        assert!(!d.require_backup);
        assert!(MultiplexConfig::strict().require_backup);
    }

    #[test]
    fn displays() {
        assert_eq!(
            SparePolicy::GrowToRequirement.to_string(),
            "grow-to-requirement"
        );
        assert_eq!(ActivationPool::SpareOnly.to_string(), "spare-only");
        assert_eq!(FailureModel::DuplexPair.to_string(), "duplex-pair");
    }
}

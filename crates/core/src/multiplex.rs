//! Backup multiplexing (Section 5 of the paper).
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
//! It is the only policy [`crate::DrtpManager`] runs. A registered backup
//! grows each link's spare pool toward `max_j APLV_i[j]` from free
//! bandwidth and stays multiplexed when free bandwidth runs out
//! ([`crate::DrtpManager::spare_deficit_links`]). An activation draws on
//! spare plus free bandwidth ("If a primary channel is released, its
//! resources will be returned to the pool of free resources, and the
//! DR-connection managers assign these free resources to spare"). A
//! request whose scheme finds no backup is admitted unprotected: the
//! paper's bounded-flooding curves show that case as lower `P_act-bk`
//! (Figure 4), not as extra blocking (Figure 5). A single failure is one
//! *directed* link, the unit conflicts and `P_act-bk` are defined on; a
//! physical cut is a [`crate::failure::FailureEvent::Batch`] or an SRLG.

/// The paper's multiplexing configuration, with nothing to choose:
/// [`crate::DrtpManager::with_config`] builds the manager
/// [`crate::DrtpManager::new`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MultiplexConfig;

impl MultiplexConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        MultiplexConfig
    }
}

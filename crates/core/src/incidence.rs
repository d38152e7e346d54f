//! The link-incidence index: which connections does a link failure touch?
//!
//! Every failure-analysis question — the Figure-4 probe, destructive
//! injection, the vulnerability report — starts with "which connections
//! have a *primary* across this link, and which have a *backup* across
//! it?". Answering that by scanning the connection table makes each probe
//! O(connections), and the single-failure sweep O(units × connections):
//! exactly the cost profile fast-reroute systems avoid by precomputing
//! per-link protection state.
//!
//! [`IncidenceIndex`] keeps, per link, the sorted list of connection ids
//! whose primary crosses it and (as a multiset — a connection may hold
//! several backups over one link) whose backups cross it. The index is
//! maintained *by delta* inside the manager's attach / detach pair — the
//! same four functions that move a route in and out of the ledgers and
//! the APLVs — so a probe touches only the O(affected) connections
//! incident to the failed unit. It is one of the manager's three derived
//! structures (the APLVs with their conflict bits, this index, and the
//! per-source shortest-path trees behind the hop table); the index only
//! *finds* the affected connections — whether a backup is still usable
//! is read off its route against the failed-link array, with no
//! per-backup state to keep in step.
//!
//! Only *carrying* connections are indexed: a connection torn down by a
//! failure leaves the index in the same mutation that marks it
//! [`crate::ConnectionState::Failed`]. The index ships its own reference
//! reconstruction ([`IncidenceIndex::rebuild`]) and divergence probe
//! ([`IncidenceIndex::first_divergence`]), wired into
//! [`crate::DrtpManager::assert_invariants`] and the property tests.

use crate::{ConnectionId, ConnectionState, DrConnection};
use drt_net::LinkId;

/// Per-link incidence lists over the carrying connections, maintained
/// incrementally by [`crate::DrtpManager`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidenceIndex {
    /// Per link: ids of connections whose primary crosses it, sorted.
    primary: Vec<Vec<ConnectionId>>,
    /// Per link: ids of connections with a backup across it, sorted, one
    /// entry per (backup route, link) crossing — a multiset, since two
    /// backups of one connection may share a link.
    backup: Vec<Vec<ConnectionId>>,
}

impl IncidenceIndex {
    /// An empty index for a network of `num_links` links.
    pub fn new(num_links: usize) -> Self {
        IncidenceIndex {
            primary: vec![Vec::new(); num_links],
            backup: vec![Vec::new(); num_links],
        }
    }

    /// Number of links covered.
    pub fn num_links(&self) -> usize {
        self.primary.len()
    }

    /// Ids of the carrying connections whose primary crosses `l`, in
    /// ascending id order.
    pub fn primaries_on(&self, l: LinkId) -> &[ConnectionId] {
        &self.primary[l.index()]
    }

    /// Ids of the carrying connections with a backup route across `l`, in
    /// ascending id order. A connection appears once per backup crossing,
    /// so consumers that need a set must dedup.
    pub fn backups_on(&self, l: LinkId) -> &[ConnectionId] {
        &self.backup[l.index()]
    }

    fn insert(list: &mut Vec<ConnectionId>, id: ConnectionId) {
        let pos = list.partition_point(|&x| x < id);
        list.insert(pos, id);
    }

    fn remove(list: &mut Vec<ConnectionId>, id: ConnectionId) {
        let pos = list.partition_point(|&x| x < id);
        debug_assert_eq!(list.get(pos), Some(&id), "incidence removal of absent id");
        list.remove(pos);
    }

    /// Records `id`'s primary as crossing every link in `links`.
    pub(crate) fn add_primary(&mut self, links: &[LinkId], id: ConnectionId) {
        for &l in links {
            Self::insert(&mut self.primary[l.index()], id);
        }
    }

    /// Reverses [`IncidenceIndex::add_primary`].
    pub(crate) fn remove_primary(&mut self, links: &[LinkId], id: ConnectionId) {
        for &l in links {
            Self::remove(&mut self.primary[l.index()], id);
        }
    }

    /// Records one backup route of `id` as crossing every link in `links`.
    pub(crate) fn add_backup(&mut self, links: &[LinkId], id: ConnectionId) {
        for &l in links {
            Self::insert(&mut self.backup[l.index()], id);
        }
    }

    /// Reverses [`IncidenceIndex::add_backup`] for one backup route.
    pub(crate) fn remove_backup(&mut self, links: &[LinkId], id: ConnectionId) {
        for &l in links {
            Self::remove(&mut self.backup[l.index()], id);
        }
    }

    /// Rebuilds the index from a connection table — the reference the
    /// incremental path is checked against by
    /// [`crate::DrtpManager::assert_invariants`] and the proptests.
    pub fn rebuild<'a>(
        num_links: usize,
        conns: impl Iterator<Item = &'a DrConnection>,
    ) -> IncidenceIndex {
        let mut idx = IncidenceIndex::new(num_links);
        for conn in conns {
            if conn.state() == ConnectionState::Failed {
                continue;
            }
            idx.add_primary(conn.primary().links(), conn.id());
            for b in conn.backups() {
                idx.add_backup(b.links(), conn.id());
            }
        }
        idx
    }

    /// Returns the first link whose incidence lists disagree with
    /// `reference`, or `None` when the indices match everywhere.
    pub fn first_divergence(&self, reference: &IncidenceIndex) -> Option<LinkId> {
        (0..self.primary.len().max(reference.primary.len()))
            .map(|i| LinkId::new(i as u32))
            .find(|&l| {
                self.primary.get(l.index()) != reference.primary.get(l.index())
                    || self.backup.get(l.index()) != reference.backup.get(l.index())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId::new(i)
    }

    fn c(i: u64) -> ConnectionId {
        ConnectionId::new(i)
    }

    #[test]
    fn lists_stay_sorted() {
        let mut idx = IncidenceIndex::new(4);
        idx.add_primary(&[l(1), l(2)], c(7));
        idx.add_primary(&[l(1)], c(3));
        idx.add_primary(&[l(1)], c(5));
        assert_eq!(idx.primaries_on(l(1)), &[c(3), c(5), c(7)]);
        assert_eq!(idx.primaries_on(l(2)), &[c(7)]);
        assert!(idx.primaries_on(l(0)).is_empty());
        idx.remove_primary(&[l(1)], c(5));
        assert_eq!(idx.primaries_on(l(1)), &[c(3), c(7)]);
    }

    #[test]
    fn backup_lists_are_multisets() {
        // Two backups of the same connection over one link: both crossings
        // are recorded, and each removal drops exactly one.
        let mut idx = IncidenceIndex::new(2);
        idx.add_backup(&[l(0)], c(1));
        idx.add_backup(&[l(0)], c(1));
        assert_eq!(idx.backups_on(l(0)), &[c(1), c(1)]);
        idx.remove_backup(&[l(0)], c(1));
        assert_eq!(idx.backups_on(l(0)), &[c(1)]);
        idx.remove_backup(&[l(0)], c(1));
        assert!(idx.backups_on(l(0)).is_empty());
    }

    #[test]
    fn divergence_is_detected() {
        let mut a = IncidenceIndex::new(3);
        let b = IncidenceIndex::new(3);
        assert_eq!(a.first_divergence(&b), None);
        a.add_backup(&[l(2)], c(9));
        assert_eq!(a.first_divergence(&b), Some(l(2)));
    }
}

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
//! [`IncidenceIndex`] keeps, per link, the sorted list of connections
//! whose primary crosses it and (as a multiset — a connection may hold
//! several backups over one link) whose backups cross it. An entry is the
//! connection's id *and the slot of its record in the connection table*,
//! so a consumer reaches the record with one indexed load instead of a
//! search by id. The index is maintained *by delta* inside the manager's
//! attach / detach pair — the same four functions that move a route in
//! and out of the ledgers and the APLVs — so a probe touches only the
//! O(affected) connections incident to the failed unit. It is one of the
//! manager's two derived structures (the APLVs with their conflict bits,
//! and this index); the index only *finds* the affected connections —
//! whether a backup is still usable is read off its route against the
//! failed-link array, with no per-backup state to keep in step.
//!
//! Only *carrying* connections are indexed: a connection torn down by a
//! failure leaves the index in the same mutation that marks it
//! [`crate::ConnectionState::Failed`]. The index ships its own reference
//! reconstruction ([`IncidenceIndex::rebuild`]) and divergence probe
//! ([`IncidenceIndex::first_divergence`]), wired into
//! [`crate::DrtpManager::assert_invariants`] and the property tests.

use crate::{ConnectionId, ConnectionState, DrConnection};
use drt_net::LinkId;
use std::fmt;

/// One incidence: a connection and where its record lives. Lists are kept
/// — and consumers sort — by `id` alone: a connection has one slot for as
/// long as it is indexed, so entries with equal ids are equal, and the id
/// order is the order the activation shuffle starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    pub(crate) id: ConnectionId,
    /// The record's slot in the manager's connection table — stable from
    /// admission to release.
    pub(crate) slot: u32,
}

impl IndexEntry {
    pub(crate) fn new(id: ConnectionId, slot: u32) -> Self {
        IndexEntry { id, slot }
    }
}

/// Per-link incidence lists over the carrying connections, maintained
/// incrementally by [`crate::DrtpManager`].
///
/// Equality compares ids and slots; `Debug` renders the ids only — which
/// slot a record landed in is history, not state, and must not reach
/// [`crate::DrtpManager::fingerprint`].
#[derive(Clone, PartialEq, Eq)]
pub struct IncidenceIndex {
    /// Per link: connections whose primary crosses it, sorted by id.
    primary: Vec<Vec<IndexEntry>>,
    /// Per link: connections with a backup across it, sorted by id, one
    /// entry per (backup route, link) crossing — a multiset, since two
    /// backups of one connection may share a link.
    backup: Vec<Vec<IndexEntry>>,
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

    /// The carrying connections whose primary crosses `l`, in ascending
    /// id order.
    pub(crate) fn primaries_on(&self, l: LinkId) -> &[IndexEntry] {
        &self.primary[l.index()]
    }

    /// The carrying connections with a backup route across `l`, in
    /// ascending id order. A connection appears once per backup crossing,
    /// so consumers that need a set must dedup.
    pub(crate) fn backups_on(&self, l: LinkId) -> &[IndexEntry] {
        &self.backup[l.index()]
    }

    fn insert(list: &mut Vec<IndexEntry>, at: IndexEntry) {
        let pos = list.partition_point(|x| x.id < at.id);
        list.insert(pos, at);
    }

    fn remove(list: &mut Vec<IndexEntry>, at: IndexEntry) {
        let pos = list.partition_point(|x| x.id < at.id);
        debug_assert_eq!(
            list.get(pos),
            Some(&at),
            "incidence removal of absent entry"
        );
        list.remove(pos);
    }

    /// Records `at`'s primary as crossing every link in `links`.
    pub(crate) fn add_primary(&mut self, links: &[LinkId], at: IndexEntry) {
        for &l in links {
            Self::insert(&mut self.primary[l.index()], at);
        }
    }

    /// Reverses [`IncidenceIndex::add_primary`].
    pub(crate) fn remove_primary(&mut self, links: &[LinkId], at: IndexEntry) {
        for &l in links {
            Self::remove(&mut self.primary[l.index()], at);
        }
    }

    /// Records one backup route of `at` as crossing every link in `links`.
    pub(crate) fn add_backup(&mut self, links: &[LinkId], at: IndexEntry) {
        for &l in links {
            Self::insert(&mut self.backup[l.index()], at);
        }
    }

    /// Reverses [`IncidenceIndex::add_backup`] for one backup route.
    pub(crate) fn remove_backup(&mut self, links: &[LinkId], at: IndexEntry) {
        for &l in links {
            Self::remove(&mut self.backup[l.index()], at);
        }
    }

    /// Rebuilds the index from a connection table, given as `(slot,
    /// record)` pairs — the reference the incremental path is checked
    /// against by [`crate::DrtpManager::assert_invariants`] and the
    /// proptests.
    pub fn rebuild<'a>(
        num_links: usize,
        conns: impl Iterator<Item = (u32, &'a DrConnection)>,
    ) -> IncidenceIndex {
        let mut idx = IncidenceIndex::new(num_links);
        for (slot, conn) in conns {
            if conn.state() == ConnectionState::Failed {
                continue;
            }
            let at = IndexEntry::new(conn.id(), slot);
            idx.add_primary(conn.primary().links(), at);
            for b in conn.backups() {
                idx.add_backup(b.links(), at);
            }
        }
        idx
    }

    /// Returns the first link whose incidence lists disagree with
    /// `reference` — in an id or in a slot — or `None` when the indices
    /// match everywhere.
    pub fn first_divergence(&self, reference: &IncidenceIndex) -> Option<LinkId> {
        (0..self.primary.len().max(reference.primary.len()))
            .map(|i| LinkId::new(i as u32))
            .find(|&l| {
                self.primary.get(l.index()) != reference.primary.get(l.index())
                    || self.backup.get(l.index()) != reference.backup.get(l.index())
            })
    }
}

/// Per-link entry lists, rendered as lists of ids.
struct IdLists<'a>(&'a [Vec<IndexEntry>]);

impl fmt::Debug for IdLists<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.0.iter().map(|list| IdList(list)))
            .finish()
    }
}

struct IdList<'a>(&'a [IndexEntry]);

impl fmt::Debug for IdList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter().map(|e| e.id)).finish()
    }
}

/// Renders what the derived `Debug` rendered when the lists held bare
/// ids: slots must not reach [`crate::DrtpManager::fingerprint`].
impl fmt::Debug for IncidenceIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncidenceIndex")
            .field("primary", &IdLists(&self.primary))
            .field("backup", &IdLists(&self.backup))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId::new(i)
    }

    /// Connection `i`, homed in slot `10 - i`: slots run against ids so a
    /// list sorted by slot would be caught.
    fn c(i: u64) -> IndexEntry {
        IndexEntry::new(ConnectionId::new(i), 10 - i as u32)
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

    #[test]
    fn a_stale_slot_is_a_divergence_debug_cannot_see() {
        let mut a = IncidenceIndex::new(2);
        let mut b = IncidenceIndex::new(2);
        a.add_primary(&[l(1)], c(4));
        b.add_primary(&[l(1)], IndexEntry::new(c(4).id, c(4).slot + 1));
        assert_eq!(a.first_divergence(&b), Some(l(1)));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn debug_renders_ids_only() {
        let mut idx = IncidenceIndex::new(2);
        idx.add_primary(&[l(0)], c(3));
        idx.add_primary(&[l(0)], c(1));
        idx.add_backup(&[l(1)], c(3));
        idx.add_backup(&[l(1)], c(3));
        // What `#[derive(Debug)]` rendered when the lists held bare ids.
        mod bare {
            #[derive(Debug)]
            #[allow(dead_code)] // read through `Debug` only
            pub struct IncidenceIndex {
                pub primary: Vec<Vec<crate::ConnectionId>>,
                pub backup: Vec<Vec<crate::ConnectionId>>,
            }
        }
        let id = ConnectionId::new;
        let bare = bare::IncidenceIndex {
            primary: vec![vec![id(1), id(3)], vec![]],
            backup: vec![vec![], vec![id(3), id(3)]],
        };
        assert_eq!(format!("{idx:?}"), format!("{bare:?}"));
        assert_eq!(format!("{idx:#?}"), format!("{bare:#?}"));
    }
}

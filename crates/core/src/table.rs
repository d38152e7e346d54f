//! The connection table: a slab of records addressed by slot, with an
//! id → slot map beside it.
//!
//! Failure analysis reaches thousands of records per sweep, each named by
//! an entry of the link-incidence index. Looking those up by id in a
//! `BTreeMap` of ≈ 112-byte records costs a descent over fat nodes per
//! record; here the index entry carries the record's *slot* and the read
//! is one indexed load ([`ConnTable::at`]). A record keeps its slot from
//! admission to release — through promotion and through
//! [`crate::ConnectionState::Failed`] — and a released slot is recycled
//! (LIFO), so the slab is sized by the peak number of known connections,
//! never by the largest id.
//!
//! Slots are representation, not state: [`ConnTable`]'s `Debug` renders
//! the `{id: record}` map in id order, exactly as a `BTreeMap` of records
//! would, so [`crate::DrtpManager::fingerprint`] does not depend on the
//! history that assigned the slots.

use crate::invariants::{check_table, Violation};
use crate::{ConnectionId, DrConnection};
use std::collections::BTreeMap;
use std::fmt;

/// The manager's connection records, by slot and by id.
#[derive(Clone, Default)]
pub(crate) struct ConnTable {
    /// Records by slot; `None` is a vacant slot — or, between
    /// [`ConnTable::take`] and [`ConnTable::put`], a borrowed one.
    slab: Vec<Option<DrConnection>>,
    /// Vacant slots; the last one is reused first.
    free: Vec<u32>,
    /// Slot of every known connection: the by-id entry points, and the id
    /// order every whole-table reader iterates in.
    by_id: BTreeMap<ConnectionId, u32>,
}

impl ConnTable {
    /// Number of known connections.
    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Number of slots ever opened (occupied plus vacant).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slab.len()
    }

    /// The slot of connection `id`, if known.
    pub(crate) fn slot_of(&self, id: ConnectionId) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    /// Looks a record up by id.
    pub(crate) fn get(&self, id: ConnectionId) -> Option<&DrConnection> {
        self.slot_of(id).map(|slot| self.at(slot))
    }

    /// The record in `slot` — one indexed load.
    ///
    /// # Panics
    ///
    /// Panics when the slot is vacant (a stale index entry).
    #[inline]
    pub(crate) fn at(&self, slot: u32) -> &DrConnection {
        match self.slab.get(slot as usize) {
            Some(Some(conn)) => conn,
            _ => panic!("connection slot {slot} is vacant"),
        }
    }

    /// The slot the next [`ConnTable::insert`] fills: admission attaches
    /// a connection's routes — index entries included — before its record
    /// exists.
    pub(crate) fn next_slot(&self) -> u32 {
        self.free.last().copied().unwrap_or(self.slab.len() as u32)
    }

    /// Adds the record of a connection not yet known, returning its slot.
    pub(crate) fn insert(&mut self, conn: DrConnection) -> u32 {
        let slot = self.next_slot();
        let known = self.by_id.insert(conn.id(), slot);
        assert!(known.is_none(), "connection {} inserted twice", conn.id());
        match self.free.pop() {
            Some(_) => self.slab[slot as usize] = Some(conn),
            None => self.slab.push(Some(conn)),
        }
        slot
    }

    /// Forgets connection `id`, returning its record and the slot it
    /// vacated (now first in line for reuse).
    pub(crate) fn remove(&mut self, id: ConnectionId) -> Option<(u32, DrConnection)> {
        let slot = self.by_id.remove(&id)?;
        let conn = self.take(slot);
        self.free.push(slot);
        Some((slot, conn))
    }

    /// Borrows the record in `slot` out of the table, so its routes can
    /// be walked by reference while the manager's other state mutates;
    /// the slot stays the connection's until [`ConnTable::put`] returns
    /// the record.
    ///
    /// # Panics
    ///
    /// Panics when the slot is vacant.
    pub(crate) fn take(&mut self, slot: u32) -> DrConnection {
        match self.slab.get_mut(slot as usize).and_then(Option::take) {
            Some(conn) => conn,
            None => panic!("connection slot {slot} is vacant"),
        }
    }

    /// Returns a record borrowed with [`ConnTable::take`] to its slot.
    pub(crate) fn put(&mut self, slot: u32, conn: DrConnection) {
        debug_assert_eq!(
            self.slot_of(conn.id()),
            Some(slot),
            "put into a foreign slot"
        );
        let held = self.slab[slot as usize].replace(conn);
        debug_assert!(held.is_none(), "connection slot {slot} was not taken");
    }

    /// `(slot, record)` of every known connection, in id order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, &DrConnection)> {
        self.by_id.values().map(|&slot| (slot, self.at(slot)))
    }

    /// Every slot in slab order, `None` where vacant: one pass over the
    /// slab, with no descent of the id map.
    pub(crate) fn slab(&self) -> impl Iterator<Item = Option<&DrConnection>> {
        self.slab.iter().map(Option::as_ref)
    }

    /// Every record, in id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &DrConnection> {
        self.entries().map(|(_, conn)| conn)
    }

    /// Checks that the slab, the free list and the id map describe one
    /// table ([`check_table`]).
    pub(crate) fn check(&self) -> Result<(), Violation> {
        let occupants: Vec<Option<ConnectionId>> = self
            .slab
            .iter()
            .map(|s| s.as_ref().map(DrConnection::id))
            .collect();
        let by_id: Vec<(ConnectionId, u32)> = self.by_id.iter().map(|(&id, &s)| (id, s)).collect();
        check_table(&occupants, &by_id, &self.free)
    }
}

/// Renders what a `BTreeMap` from id to record renders: slots and the
/// free list are not state.
impl fmt::Debug for ConnTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.by_id.keys().zip(self.values()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosRequirement;
    use drt_net::{topology, Bandwidth, NodeId, Route};

    fn conn(id: u64) -> DrConnection {
        let net = topology::ring(4, Bandwidth::from_mbps(10)).unwrap();
        let route = |nodes: &[u32]| {
            let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
            Route::from_nodes(&net, &ids).unwrap()
        };
        DrConnection::new(
            ConnectionId::new(id),
            QosRequirement::bandwidth_only(Bandwidth::from_mbps(1 + id % 3)),
            route(&[0, 1]),
            Some(route(&[0, 3, 2, 1])),
            false,
        )
    }

    fn c(id: u64) -> ConnectionId {
        ConnectionId::new(id)
    }

    #[test]
    fn insert_get_remove_by_id() {
        let mut t = ConnTable::default();
        assert_eq!(t.next_slot(), 0);
        assert_eq!(t.insert(conn(7)), 0);
        assert_eq!(t.insert(conn(3)), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.slot_of(c(3)), Some(1));
        assert_eq!(t.get(c(7)).unwrap().id(), c(7));
        assert_eq!(t.at(1).id(), c(3));
        assert!(t.get(c(9)).is_none());
        // Iteration is by id, whatever the slots.
        let ids: Vec<_> = t.values().map(DrConnection::id).collect();
        assert_eq!(ids, [c(3), c(7)]);
        let slots: Vec<_> = t.entries().map(|(s, _)| s).collect();
        assert_eq!(slots, [1, 0]);

        let (slot, gone) = t.remove(c(7)).unwrap();
        assert_eq!((slot, gone.id()), (0, c(7)));
        assert!(t.remove(c(7)).is_none());
        assert_eq!(t.len(), 1);
        t.check().unwrap();
    }

    #[test]
    fn free_slots_are_reused_last_vacated_first() {
        let mut t = ConnTable::default();
        for id in 0..4 {
            t.insert(conn(id));
        }
        t.remove(c(1)).unwrap();
        t.remove(c(3)).unwrap();
        t.check().unwrap();
        assert_eq!(t.next_slot(), 3);
        assert_eq!(t.insert(conn(10)), 3);
        assert_eq!(t.insert(conn(11)), 1);
        // Only a full slab opens a new slot.
        assert_eq!(t.insert(conn(12)), 4);
        assert_eq!(t.slots(), 5);
        t.check().unwrap();
    }

    #[test]
    fn take_keeps_the_slot_until_put() {
        let mut t = ConnTable::default();
        t.insert(conn(0));
        t.insert(conn(1));
        let mut borrowed = t.take(0);
        // The slot is not up for reuse while its record is out.
        assert_eq!(t.next_slot(), 2);
        assert_eq!(t.slot_of(c(0)), Some(0));
        borrowed.take_backup();
        t.put(0, borrowed);
        assert!(t.at(0).backup().is_none());
        t.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "connection slot 1 is vacant")]
    fn take_of_a_vacant_slot_names_it() {
        let mut t = ConnTable::default();
        t.insert(conn(0));
        t.insert(conn(1));
        t.remove(c(1)).unwrap();
        t.take(1);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_is_refused() {
        let mut t = ConnTable::default();
        t.insert(conn(0));
        t.insert(conn(0));
    }

    #[test]
    fn check_catches_a_record_missing_from_its_slot() {
        let mut t = ConnTable::default();
        t.insert(conn(0));
        let _lost = t.take(0);
        assert_eq!(t.check().unwrap_err().rule, "table-slot");
    }

    #[test]
    fn debug_is_the_map_of_records() {
        // Same survivors, different slot histories: both render exactly
        // what the map of records renders, plain and pretty.
        let mut churned = ConnTable::default();
        for id in [5, 9, 2, 8, 4] {
            churned.insert(conn(id));
        }
        churned.remove(c(9)).unwrap();
        churned.remove(c(5)).unwrap();
        churned.insert(conn(1));
        let mut fresh = ConnTable::default();
        let mut map = BTreeMap::new();
        for id in [1, 2, 4, 8] {
            fresh.insert(conn(id));
            map.insert(c(id), conn(id));
        }
        assert_ne!(churned.slot_of(c(2)), fresh.slot_of(c(2)));
        assert_eq!(format!("{churned:?}"), format!("{map:?}"));
        assert_eq!(format!("{fresh:?}"), format!("{map:?}"));
        assert_eq!(format!("{churned:#?}"), format!("{map:#?}"));
        assert_eq!(format!("{:?}", ConnTable::default()), "{}");
    }
}

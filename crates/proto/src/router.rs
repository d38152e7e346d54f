//! Per-router DR-connection manager state.
//!
//! The journaled mutators of [`Router`] are private: only this module and
//! its child `journal` — whose `apply` is the one dispatch live commits,
//! replay and compaction share — can call them, so a mutation that skips
//! the write-ahead journal does not compile.

#[path = "journal.rs"]
pub(crate) mod journal;

use drt_core::ConnectionId;
use drt_core::{Aplv, LinkResources};
use drt_net::{Bandwidth, LinkId, Network, NodeId, Route};
use std::collections::BTreeMap;

/// A channel-table entry: this router holds `bw` on `out_link` for one
/// channel of a connection — reserved for a primary, registered for a
/// backup.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEntry {
    /// The channel's full route: what a failure report is addressed
    /// along, and what a release must match to remove the entry.
    pub route: Route,
    /// This router's outgoing link (one link of `route`).
    pub out_link: LinkId,
    /// For a backup, the primary route's link set its register packet
    /// carried (for APLV maintenance); empty for a primary.
    pub primary_lset: Vec<LinkId>,
    /// Per-link bandwidth.
    pub bw: Bandwidth,
}

/// A channel table, keyed by `(conn, out_link)`. Two channels of one
/// connection can hold the same key — a promoted backup and the old
/// primary whose release walk has not arrived yet — so entries stack (the
/// key's third part is the entry's place in the stack), and only a walk
/// over an entry's own route removes it: whichever walk arrives first, it
/// never takes another channel's entry.
#[derive(Debug, Clone, Default)]
struct ChannelTable(BTreeMap<(ConnectionId, LinkId, u32), ChannelEntry>);

impl ChannelTable {
    fn file(&mut self, conn: ConnectionId, entry: ChannelEntry) {
        let l = entry.out_link;
        let stacked = self.0.range((conn, l, 0)..=(conn, l, u32::MAX)).next_back();
        let place = stacked.map_or(0, |(&(_, _, k), _)| k + 1);
        self.0.insert((conn, l, place), entry);
    }

    /// Removes `conn`'s entry for `route` on `out_link`, if one is held.
    fn take(
        &mut self,
        conn: ConnectionId,
        out_link: LinkId,
        route: &Route,
    ) -> Option<ChannelEntry> {
        let (&key, _) = self
            .0
            .range((conn, out_link, 0)..=(conn, out_link, u32::MAX))
            .find(|(_, e)| e.route == *route)?;
        self.0.remove(&key)
    }

    /// Every entry, in key order.
    fn entries(&self) -> impl Iterator<Item = (ConnectionId, &ChannelEntry)> {
        self.0.iter().map(|(&(conn, _, _), e)| (conn, e))
    }

    /// The entries of `conn`, in link order.
    fn of(&self, conn: ConnectionId) -> impl Iterator<Item = &ChannelEntry> {
        let (first, last) = (LinkId::new(0), LinkId::new(u32::MAX));
        self.0
            .range((conn, first, 0)..=(conn, last, u32::MAX))
            .map(|(_, e)| e)
    }
}

/// How a router should treat an arriving walk packet, as decided by the
/// per-transaction dedup ledger
/// ([`JournalRecord::GateWalk`](crate::JournalRecord::GateWalk)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkGate {
    /// First time this transaction's current attempt is seen here: apply
    /// the state change, then journal
    /// [`JournalRecord::MarkApplied`](crate::JournalRecord::MarkApplied).
    Fresh,
    /// The state change was already applied by an earlier copy or attempt:
    /// forward the walk (so the end-to-end ack can regenerate) but do not
    /// touch resources.
    AlreadyApplied,
    /// A stale attempt (superseded by a nack, teardown, or newer retry):
    /// drop the packet silently.
    Stale,
}

/// Dedup record for one walk transaction at one router.
#[derive(Debug, Clone, Copy)]
struct WalkRecord {
    /// Lowest attempt number still considered live. Copies stamped with a
    /// smaller attempt are stale.
    attempt: u32,
    /// Whether this router has applied the transaction's state change.
    applied: bool,
}

/// One router's DR-connection manager: resource ledgers and APLVs for its
/// *outgoing* links, plus the channel tables the paper describes.
#[derive(Debug, Clone)]
pub struct Router {
    id: NodeId,
    /// Ledger per outgoing link, keyed by link id.
    links: BTreeMap<LinkId, LinkResources>,
    /// APLV per outgoing link.
    aplvs: BTreeMap<LinkId, Aplv>,
    /// Primary channel table (reservations held here).
    primaries: ChannelTable,
    /// Backup channel table (registrations held here).
    backups: ChannelTable,
    /// Walk-transaction dedup ledger, keyed by `(conn, seq)`. Makes every
    /// handler idempotent under the lossy control plane's duplicates and
    /// the source's retransmissions.
    walks: BTreeMap<(ConnectionId, u64), WalkRecord>,
}

impl Router {
    /// Creates the router for `id`, with ledgers for its outgoing links.
    pub fn new(net: &Network, id: NodeId) -> Self {
        let mut links = BTreeMap::new();
        let mut aplvs = BTreeMap::new();
        for &l in net.out_links(id) {
            links.insert(l, LinkResources::new(net.link(l).capacity()));
            aplvs.insert(l, Aplv::new());
        }
        Router {
            id,
            links,
            aplvs,
            primaries: ChannelTable::default(),
            backups: ChannelTable::default(),
            walks: BTreeMap::new(),
        }
    }

    /// Gates an arriving walk packet against the dedup ledger: decides
    /// whether its state change should be applied, skipped, or the packet
    /// dropped. Duplicates of an applied attempt come back
    /// [`WalkGate::AlreadyApplied`]; attempts below the recorded watermark
    /// are [`WalkGate::Stale`].
    fn gate_walk(&mut self, conn: ConnectionId, seq: u64, attempt: u32) -> WalkGate {
        match self.walks.get_mut(&(conn, seq)) {
            Some(rec) if attempt < rec.attempt => WalkGate::Stale,
            Some(rec) if rec.applied => {
                rec.attempt = rec.attempt.max(attempt);
                WalkGate::AlreadyApplied
            }
            Some(rec) => {
                rec.attempt = rec.attempt.max(attempt);
                WalkGate::Fresh
            }
            None => {
                self.walks.insert(
                    (conn, seq),
                    WalkRecord {
                        attempt,
                        applied: false,
                    },
                );
                WalkGate::Fresh
            }
        }
    }

    /// Records that this router applied the state change of walk
    /// transaction `(conn, seq)`.
    fn mark_applied(&mut self, conn: ConnectionId, seq: u64) {
        if let Some(rec) = self.walks.get_mut(&(conn, seq)) {
            rec.applied = true;
        }
    }

    /// Poisons walk `(conn, seq)` after an apply failure (nack): same-
    /// attempt duplicates still in flight become [`WalkGate::Stale`], while
    /// the source's next retry (`attempt + 1`) stays fresh.
    fn poison_walk(&mut self, conn: ConnectionId, seq: u64, attempt: u32) {
        let rec = self.walks.entry((conn, seq)).or_insert(WalkRecord {
            attempt,
            applied: false,
        });
        rec.attempt = rec.attempt.max(attempt + 1);
        rec.applied = false;
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The resource ledger of one of this router's outgoing links.
    ///
    /// # Panics
    ///
    /// Panics when `l` is not an outgoing link of this router.
    pub fn link(&self, l: LinkId) -> &LinkResources {
        &self.links[&l]
    }

    /// The APLV of one of this router's outgoing links.
    ///
    /// # Panics
    ///
    /// Panics when `l` is not an outgoing link of this router.
    pub fn aplv(&self, l: LinkId) -> &Aplv {
        &self.aplvs[&l]
    }

    /// Primary-channel table entries held here, in key order.
    pub fn primaries(&self) -> impl Iterator<Item = (ConnectionId, &ChannelEntry)> {
        self.primaries.entries()
    }

    /// Ledger and APLV of every outgoing link, in link order — the full
    /// per-link resource state an external checker needs.
    pub fn out_link_state(&self) -> impl Iterator<Item = (LinkId, &LinkResources, &Aplv)> {
        self.links.iter().filter_map(|(&l, ledger)| {
            let aplv = self.aplvs.get(&l)?;
            Some((l, ledger, aplv))
        })
    }

    /// Backup-channel table entries held here, in key order.
    pub fn backups(&self) -> impl Iterator<Item = (ConnectionId, &ChannelEntry)> {
        self.backups.entries()
    }

    /// Backup-channel table size (the paper worries about its memory).
    pub fn backup_table_len(&self) -> usize {
        self.backups.entries().count()
    }

    /// Attempts to reserve primary bandwidth on `out_link` for `conn`.
    /// Returns `false` (state unchanged) when the free pool is short.
    fn reserve_primary(
        &mut self,
        conn: ConnectionId,
        route: &Route,
        out_link: LinkId,
        bw: Bandwidth,
    ) -> bool {
        let Some(ledger) = self.links.get_mut(&out_link) else {
            debug_assert!(false, "setup walks only this router's links");
            return false;
        };
        if ledger.admit_primary(bw).is_err() {
            return false;
        }
        self.primaries
            .file(conn, channel(route, out_link, Vec::new(), bw));
        true
    }

    /// Releases `conn`'s reservation for `route` on `out_link`, if held.
    fn release_primary(&mut self, conn: ConnectionId, route: &Route, out_link: LinkId) {
        let Some(e) = self.primaries.take(conn, out_link, route) else {
            return;
        };
        debug_assert!(
            self.links.contains_key(&out_link),
            "entry points at own link"
        );
        if let Some(ledger) = self.links.get_mut(&out_link) {
            ledger.release_primary(e.bw);
        }
    }

    /// Registers a backup on `out_link` (the paper's backup-setup
    /// handling): updates the APLV from the carried LSET, grows the spare
    /// pool toward the new requirement, and files the channel-table entry.
    fn register_backup(
        &mut self,
        conn: ConnectionId,
        route: &Route,
        out_link: LinkId,
        primary_lset: &[LinkId],
        bw: Bandwidth,
    ) {
        let Some(aplv) = self.aplvs.get_mut(&out_link) else {
            debug_assert!(false, "register walks only this router's links");
            return;
        };
        aplv.register(primary_lset, bw);
        let required = aplv.required_spare();
        if let Some(ledger) = self.links.get_mut(&out_link) {
            ledger.grow_spare_toward(required);
        }
        let entry = channel(route, out_link, primary_lset.to_vec(), bw);
        self.backups.file(conn, entry);
    }

    /// Unregisters `conn`'s backup entry for `route` from `out_link`,
    /// shrinking the spare pool to the remaining requirement. No-op when
    /// no such entry is held (a release crossing a teardown in flight).
    fn unregister_backup(&mut self, conn: ConnectionId, route: &Route, out_link: LinkId) {
        let Some(e) = self.backups.take(conn, out_link, route) else {
            return;
        };
        let Some(aplv) = self.aplvs.get_mut(&out_link) else {
            debug_assert!(false, "backup entry points at own link");
            return;
        };
        aplv.unregister(&e.primary_lset, e.bw);
        let required = aplv.required_spare();
        if let Some(ledger) = self.links.get_mut(&out_link) {
            ledger.shrink_spare_to(required);
        }
    }

    /// Activates a backup hop: removes the backup registration and
    /// converts spare/free bandwidth into a primary reservation for the
    /// promoted channel. Returns `false` (registration still removed, as
    /// the channel is being switched away regardless) when the pools
    /// cannot supply `bw`.
    fn activate_backup(
        &mut self,
        conn: ConnectionId,
        route: &Route,
        out_link: LinkId,
        bw: Bandwidth,
    ) -> bool {
        self.unregister_backup(conn, route, out_link);
        let Some(ledger) = self.links.get_mut(&out_link) else {
            debug_assert!(false, "switch walks only this router's links");
            return false;
        };
        if ledger.promote_from_pools(bw).is_err() {
            return false;
        }
        self.primaries
            .file(conn, channel(route, out_link, Vec::new(), bw));
        true
    }

    /// The connections whose primary *route* crosses `link`, regardless of
    /// which hop this router holds, once each with the route of their
    /// first such entry. A crashed router cannot report its own
    /// outgoing links, so the surviving downstream neighbour — which holds
    /// the next hop's entry and the full route — identifies the affected
    /// connections through this view.
    pub fn primaries_crossing(&self, link: LinkId) -> Vec<(ConnectionId, Route)> {
        let mut found: Vec<(ConnectionId, Route)> = Vec::new();
        for (conn, e) in self.primaries.entries() {
            if e.route.contains_link(link) && found.last().is_none_or(|(c, _)| *c != conn) {
                found.push((conn, e.route.clone()));
            }
        }
        found
    }

    /// The primary entries held here for `conn`, in link order.
    pub fn primary_entries(&self, conn: ConnectionId) -> impl Iterator<Item = &ChannelEntry> {
        self.primaries.of(conn)
    }
}

/// The entry `route`'s hop on `out_link` files.
fn channel(
    route: &Route,
    out_link: LinkId,
    primary_lset: Vec<LinkId>,
    bw: Bandwidth,
) -> ChannelEntry {
    ChannelEntry {
        route: route.clone(),
        out_link,
        primary_lset,
        bw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_net::topology;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn setup() -> (Network, Router, Route) {
        let net = topology::ring(4, Bandwidth::from_mbps(10)).unwrap();
        let router = Router::new(&net, NodeId::new(0));
        let route = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        (net, router, route)
    }

    #[test]
    fn reserve_and_release_primary() {
        let (_, mut r, route) = setup();
        let link = route.links()[0];
        let conn = ConnectionId::new(1);
        assert!(r.reserve_primary(conn, &route, link, BW));
        assert_eq!(r.link(link).prime(), BW);
        let entry = r.primary_entries(conn).next().expect("reserved");
        assert_eq!((entry.out_link, entry.bw), (link, BW));
        r.release_primary(conn, &route, link);
        assert_eq!(r.link(link).prime(), Bandwidth::ZERO);
        assert!(r.primary_entries(conn).next().is_none());
        // Releasing again is a no-op.
        r.release_primary(conn, &route, link);
    }

    #[test]
    fn reserve_fails_when_full() {
        let (net, mut r, route) = setup();
        let link = route.links()[0];
        let cap = net.link(link).capacity();
        assert!(r.reserve_primary(ConnectionId::new(1), &route, link, cap));
        assert!(!r.reserve_primary(ConnectionId::new(2), &route, link, BW));
        assert_eq!(r.link(link).prime(), cap, "failed reserve left no residue");
    }

    #[test]
    fn backup_register_grows_spare_and_unregister_shrinks() {
        let (_, mut r, route) = setup();
        let link = route.links()[0];
        let lset = vec![LinkId::new(5), LinkId::new(6)];
        r.register_backup(ConnectionId::new(1), &route, link, &lset, BW);
        assert_eq!(r.link(link).spare(), BW);
        assert_eq!(r.aplv(link).l1_norm(), 2);
        assert_eq!(r.backup_table_len(), 1);

        r.unregister_backup(ConnectionId::new(1), &route, link);
        assert_eq!(r.link(link).spare(), Bandwidth::ZERO);
        assert!(r.aplv(link).is_empty());
        // Unknown unregister is tolerated (messages can cross).
        r.unregister_backup(ConnectionId::new(9), &route, link);
    }

    #[test]
    fn a_release_removes_only_the_channel_it_walks() {
        // Regression for the switchover race: the promoted backup shares
        // this router's outgoing link with the old primary, and its
        // activation lands before the old primary's release walk. The
        // release must take the old primary's entry, not the promoted one.
        let (net, mut r, primary) = setup();
        let link = primary.links()[0];
        let backup = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)])
            .expect("ring route");
        let conn = ConnectionId::new(1);
        assert!(r.reserve_primary(conn, &primary, link, BW));
        r.register_backup(conn, &backup, link, primary.links(), BW);
        assert!(r.activate_backup(conn, &backup, link, BW));
        assert_eq!(r.link(link).prime(), BW + BW);
        r.release_primary(conn, &primary, link);
        let held: Vec<_> = r.primary_entries(conn).map(|e| &e.route).collect();
        assert_eq!(held, [&backup]);
        assert_eq!(r.link(link).prime(), BW);
        // The backup's release walk finds no registration left to remove.
        r.unregister_backup(conn, &backup, link);
        assert_eq!(r.link(link).prime(), BW);
        assert_eq!(r.backup_table_len(), 0);
    }

    #[test]
    fn gate_dedups_applied_walks() {
        let (_, mut r, _) = setup();
        let conn = ConnectionId::new(1);
        assert_eq!(r.gate_walk(conn, 7, 1), WalkGate::Fresh);
        r.mark_applied(conn, 7);
        // A chaos duplicate of the same attempt must not re-apply.
        assert_eq!(r.gate_walk(conn, 7, 1), WalkGate::AlreadyApplied);
        // A retransmission (higher attempt) is also a no-op here.
        assert_eq!(r.gate_walk(conn, 7, 2), WalkGate::AlreadyApplied);
        // ...and afterwards the old attempt's stragglers are stale.
        assert_eq!(r.gate_walk(conn, 7, 1), WalkGate::Stale);
        assert_eq!(r.walks.len(), 1);
    }

    #[test]
    fn poison_stales_same_attempt_but_not_retry() {
        let (_, mut r, _) = setup();
        let conn = ConnectionId::new(1);
        assert_eq!(r.gate_walk(conn, 7, 1), WalkGate::Fresh);
        r.poison_walk(conn, 7, 1);
        assert_eq!(r.gate_walk(conn, 7, 1), WalkGate::Stale);
        assert_eq!(r.gate_walk(conn, 7, 2), WalkGate::Fresh);
    }

    #[test]
    fn activation_converts_spare_to_prime() {
        let (_, mut r, route) = setup();
        let link = route.links()[0];
        let lset = vec![LinkId::new(5)];
        r.register_backup(ConnectionId::new(1), &route, link, &lset, BW);
        assert!(r.activate_backup(ConnectionId::new(1), &route, link, BW));
        assert_eq!(r.link(link).prime(), BW);
        assert_eq!(r.link(link).spare(), Bandwidth::ZERO);
        assert_eq!(r.primary_entries(ConnectionId::new(1)).count(), 1);
    }
}

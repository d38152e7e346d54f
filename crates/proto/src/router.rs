//! Per-router DR-connection manager state.
//!
//! The journaled mutators of [`Router`] are private: only this module and
//! its child `journal` — whose `apply` is the one dispatch live commits,
//! replay and compaction share — can call them, so a mutation that skips
//! the write-ahead journal does not compile.

#[path = "journal.rs"]
pub(crate) mod journal;

use crate::message::ResyncEntry;
use drt_core::ConnectionId;
use drt_core::{Aplv, LinkResources};
use drt_net::{Bandwidth, LinkId, Network, NodeId, Route};
use std::collections::BTreeMap;

/// A primary-channel entry in a router's channel table: this router has
/// reserved `bw` on `out_link` for the connection.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimaryEntry {
    /// The full primary route (needed for failure reporting).
    pub route: Route,
    /// This router's reserved outgoing link (one link of `route`).
    pub out_link: LinkId,
    /// Per-link bandwidth.
    pub bw: Bandwidth,
}

/// A backup-channel entry: this router multiplexes the backup on
/// `out_link` and keeps the primary's LSET for APLV maintenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BackupEntry {
    /// The full backup route.
    pub route: Route,
    /// This router's registered outgoing link.
    pub out_link: LinkId,
    /// The primary route's link set carried by the register packet.
    pub primary_lset: Vec<LinkId>,
    /// Per-link bandwidth.
    pub bw: Bandwidth,
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
    /// Primary channel table (connections with a reservation here).
    primaries: BTreeMap<ConnectionId, PrimaryEntry>,
    /// Backup channel table. A connection can hold several backups — and
    /// two backups of one connection may even share an outgoing link — so
    /// entries are stacked per `(conn, out_link)` key.
    backups: BTreeMap<(ConnectionId, LinkId), Vec<BackupEntry>>,
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
            primaries: BTreeMap::new(),
            backups: BTreeMap::new(),
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

    /// Primary-channel table entries held here.
    pub fn primaries(&self) -> impl Iterator<Item = (&ConnectionId, &PrimaryEntry)> {
        self.primaries.iter()
    }

    /// Ledger and APLV of every outgoing link, in link order — the full
    /// per-link resource state an external checker needs.
    pub fn out_link_state(&self) -> impl Iterator<Item = (LinkId, &LinkResources, &Aplv)> {
        self.links.iter().filter_map(|(&l, ledger)| {
            let aplv = self.aplvs.get(&l)?;
            Some((l, ledger, aplv))
        })
    }

    /// Every backup-channel table entry held here, in key order.
    pub fn backup_entries(&self) -> impl Iterator<Item = &BackupEntry> {
        self.backups.values().flatten()
    }

    /// Backup-entry counts per `(connection, outgoing link)`, in key
    /// order — lets a checker bound the table against what each source
    /// actually submitted.
    pub fn backup_entry_counts(&self) -> impl Iterator<Item = (ConnectionId, LinkId, usize)> + '_ {
        self.backups
            .iter()
            .map(|(&(conn, l), entries)| (conn, l, entries.len()))
    }

    /// Backup-channel table size (the paper worries about its memory).
    pub fn backup_table_len(&self) -> usize {
        self.backups.values().map(Vec::len).sum()
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
        self.primaries.insert(
            conn,
            PrimaryEntry {
                route: route.clone(),
                out_link,
                bw,
            },
        );
        true
    }

    /// Releases `conn`'s primary reservation here, if any.
    fn release_primary(&mut self, conn: ConnectionId) {
        if let Some(e) = self.primaries.remove(&conn) {
            debug_assert!(
                self.links.contains_key(&e.out_link),
                "entry points at own link"
            );
            if let Some(ledger) = self.links.get_mut(&e.out_link) {
                ledger.release_primary(e.bw);
            }
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
        self.backups
            .entry((conn, out_link))
            .or_default()
            .push(BackupEntry {
                route: route.clone(),
                out_link,
                primary_lset: primary_lset.to_vec(),
                bw,
            });
    }

    /// Unregisters one backup entry from `out_link`, shrinking the spare
    /// pool to the remaining requirement. No-op when no entry exists
    /// (release crossing a teardown in flight).
    fn unregister_backup(&mut self, conn: ConnectionId, out_link: LinkId) {
        let Some(entries) = self.backups.get_mut(&(conn, out_link)) else {
            return;
        };
        let Some(e) = entries.pop() else { return };
        if entries.is_empty() {
            self.backups.remove(&(conn, out_link));
        }
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
        self.unregister_backup(conn, out_link);
        let Some(ledger) = self.links.get_mut(&out_link) else {
            debug_assert!(false, "switch walks only this router's links");
            return false;
        };
        if ledger.promote_from_pools(bw).is_err() {
            return false;
        }
        self.primaries.insert(
            conn,
            PrimaryEntry {
                route: route.clone(),
                out_link,
                bw,
            },
        );
        true
    }

    /// The connections whose primary *route* crosses `link`, regardless of
    /// which hop this router holds. A crashed router cannot report its own
    /// outgoing links, so the surviving downstream neighbour — which holds
    /// the next hop's entry and the full route — identifies the affected
    /// connections through this view.
    pub fn primaries_crossing(&self, link: LinkId) -> Vec<ConnectionId> {
        self.primaries
            .iter()
            .filter(|(_, e)| e.route.contains_link(link))
            .map(|(c, _)| *c)
            .collect()
    }

    /// The route of `conn`'s primary entry here, if any.
    pub fn primary_entry(&self, conn: ConnectionId) -> Option<&PrimaryEntry> {
        self.primaries.get(&conn)
    }

    /// The highest walk-transaction sequence number gated here for
    /// `conn`, or `None` when this router never saw the connection.
    /// Sequence numbers are allocated monotonically at the source, so
    /// this versions the router's view of the connection — the ordering
    /// the resync handshake reconciles on.
    pub fn conn_version(&self, conn: ConnectionId) -> Option<u64> {
        self.walks
            .range((conn, 0)..=(conn, u64::MAX))
            .next_back()
            .map(|((_, seq), _)| *seq)
    }

    /// The backup out-links held for `conn` with their stacked entry
    /// counts, in link order (what a resync repair must unregister).
    pub fn backup_links(&self, conn: ConnectionId) -> Vec<(LinkId, usize)> {
        self.backups
            .range((conn, LinkId::new(0))..=(conn, LinkId::new(u32::MAX)))
            .map(|(&(_, l), entries)| (l, entries.len()))
            .collect()
    }

    /// The per-connection digest a neighbour answers a resync request
    /// with: every connection this router ever gated a walk for, its
    /// version, and whether state is still held. Deterministic order
    /// (connection id).
    pub fn resync_entries(&self) -> Vec<ResyncEntry> {
        let mut versions: BTreeMap<ConnectionId, u64> = BTreeMap::new();
        for &(conn, seq) in self.walks.keys() {
            let v = versions.entry(conn).or_insert(0);
            *v = (*v).max(seq);
        }
        versions
            .into_iter()
            .map(|(conn, version)| ResyncEntry {
                conn,
                version,
                has_primary: self.primaries.contains_key(&conn),
                backup_entries: self.backup_links(conn).iter().map(|&(_, n)| n as u32).sum(),
            })
            .collect()
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
        assert!(r.reserve_primary(ConnectionId::new(1), &route, link, BW));
        assert_eq!(r.link(link).prime(), BW);
        let entry = r.primary_entry(ConnectionId::new(1)).expect("reserved");
        assert_eq!((entry.out_link, entry.bw), (link, BW));
        r.release_primary(ConnectionId::new(1));
        assert_eq!(r.link(link).prime(), Bandwidth::ZERO);
        assert!(r.primary_entry(ConnectionId::new(1)).is_none());
        // Releasing again is a no-op.
        r.release_primary(ConnectionId::new(1));
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

        r.unregister_backup(ConnectionId::new(1), link);
        assert_eq!(r.link(link).spare(), Bandwidth::ZERO);
        assert!(r.aplv(link).is_empty());
        // Unknown unregister is tolerated (messages can cross).
        r.unregister_backup(ConnectionId::new(9), link);
    }

    #[test]
    fn two_backups_of_one_connection_may_share_a_link() {
        // Regression: entries must stack, not overwrite, or one APLV
        // registration leaks forever.
        let (_, mut r, route) = setup();
        let link = route.links()[0];
        r.register_backup(ConnectionId::new(1), &route, link, &[LinkId::new(5)], BW);
        r.register_backup(ConnectionId::new(1), &route, link, &[LinkId::new(5)], BW);
        assert_eq!(r.backup_table_len(), 2);
        assert_eq!(r.aplv(link).count(LinkId::new(5)), 2);
        r.unregister_backup(ConnectionId::new(1), link);
        assert_eq!(r.backup_table_len(), 1);
        assert_eq!(r.aplv(link).count(LinkId::new(5)), 1);
        r.unregister_backup(ConnectionId::new(1), link);
        assert!(r.aplv(link).is_empty());
        assert_eq!(r.link(link).spare(), Bandwidth::ZERO);
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
        assert!(r.primary_entry(ConnectionId::new(1)).is_some());
    }
}

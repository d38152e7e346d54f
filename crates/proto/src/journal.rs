//! Deterministic write-ahead journaling for router state — the single
//! choke point through which every state-mutating handler acts.
//!
//! The engine cannot call a [`Router`] mutator directly: they are private
//! to the `router` module, of which this module is the one child. It hands
//! [`Journals::commit`] (or [`Journals::gate`]) a typed [`JournalRecord`],
//! which is appended *before* the one `apply` function — the same one
//! replay and compaction run — performs it on the live router. Live and
//! replayed routers therefore take every mutation through the same
//! dispatch, and because every `Router` mutator is a deterministic function
//! of `(state, arguments)`, replaying the journal against a fresh router
//! reproduces the live router bit for bit — the property the
//! `journal_replay` equivalence suite pins.
//!
//! Replay is bounded by a compacting checkpoint: once the tail reaches
//! [`Journal::COMPACT_EVERY`] records, the journal applies them to its own
//! checkpoint router and drains the tail, so a restart replays at most one
//! checkpoint clone plus a bounded tail. Compaction costs what it retires
//! (64 `apply` calls) and never reads the live router.
//!
//! Crash behaviour is decided by [`crate::RestartMode`]: under `Amnesia`
//! the journal is wiped with the router (the historical model); under
//! `Journaled` it survives the crash and [`Journals::replay`] rebuilds
//! the router at restart. [`crate::JournalFault`] models the ways durable
//! storage itself fails — a torn tail (unsynced records lost) or a stale
//! checkpoint — both detectable in a real implementation through record
//! CRCs and sequence gaps, modelled here as a `corrupted` verdict the
//! engine degrades on.

use super::{Router, WalkGate};
use drt_core::ConnectionId;
use drt_net::{Bandwidth, LinkId, Network, NodeId, Route};
use std::fmt;
use std::sync::Arc;

/// One journaled router mutation. Every variant mirrors a [`Router`]
/// mutator one to one, including the walk-dedup ledger operations —
/// replay must restore the dedup state too, or post-restart
/// retransmissions of pre-crash walks would double-apply.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A walk packet was gated through the dedup ledger.
    GateWalk {
        /// Connection of the walk transaction.
        conn: ConnectionId,
        /// Transaction sequence number.
        seq: u64,
        /// Attempt stamp of the gated packet.
        attempt: u32,
    },
    /// The walk's state change was applied here.
    MarkApplied {
        /// Connection of the walk transaction.
        conn: ConnectionId,
        /// Transaction sequence number.
        seq: u64,
    },
    /// The walk was poisoned after an apply failure (nack).
    PoisonWalk {
        /// Connection of the walk transaction.
        conn: ConnectionId,
        /// Transaction sequence number.
        seq: u64,
        /// Attempt stamp of the nacked packet.
        attempt: u32,
    },
    /// A primary reservation was attempted on `out_link`.
    ReservePrimary {
        /// Connection being reserved for.
        conn: ConnectionId,
        /// The full primary route.
        route: Route,
        /// The reserved outgoing link.
        out_link: LinkId,
        /// Per-link bandwidth.
        bw: Bandwidth,
    },
    /// The primary reservation for `route` on `out_link` was released.
    ReleasePrimary {
        /// Connection being released.
        conn: ConnectionId,
        /// The released channel's route (only its entry is removed).
        route: Route,
        /// The released outgoing link.
        out_link: LinkId,
    },
    /// A backup was registered on `out_link`.
    RegisterBackup {
        /// Connection being protected.
        conn: ConnectionId,
        /// The full backup route.
        route: Route,
        /// The registered outgoing link.
        out_link: LinkId,
        /// The primary's LSET carried by the register packet.
        primary_lset: Vec<LinkId>,
        /// Per-link bandwidth.
        bw: Bandwidth,
    },
    /// The backup entry for `route` was unregistered from `out_link`.
    UnregisterBackup {
        /// Connection being unprotected.
        conn: ConnectionId,
        /// The unregistered backup's route (only its entry is removed).
        route: Route,
        /// The registered outgoing link.
        out_link: LinkId,
    },
    /// A backup hop was activated (registration consumed, bandwidth
    /// promoted into a primary reservation).
    ActivateBackup {
        /// The recovering connection.
        conn: ConnectionId,
        /// The full backup route.
        route: Route,
        /// The activated outgoing link.
        out_link: LinkId,
        /// Per-link bandwidth.
        bw: Bandwidth,
    },
}

/// Performs one record on a router and returns the mutator's verdict: a
/// gate's own three-way [`WalkGate`]; for the other mutators
/// [`WalkGate::Stale`] when a reservation or activation was refused and
/// [`WalkGate::Fresh`] otherwise. The live engine, replay and compaction
/// all mutate through here, so a replayed outcome is the live one: the
/// decision is made from identical state.
fn apply(router: &mut Router, rec: &JournalRecord) -> WalkGate {
    let verdict = |acted: bool| {
        if acted {
            WalkGate::Fresh
        } else {
            WalkGate::Stale
        }
    };
    match rec {
        JournalRecord::GateWalk { conn, seq, attempt } => {
            return router.gate_walk(*conn, *seq, *attempt);
        }
        JournalRecord::MarkApplied { conn, seq } => router.mark_applied(*conn, *seq),
        JournalRecord::PoisonWalk { conn, seq, attempt } => {
            router.poison_walk(*conn, *seq, *attempt);
        }
        JournalRecord::ReservePrimary {
            conn,
            route,
            out_link,
            bw,
        } => return verdict(router.reserve_primary(*conn, route, *out_link, *bw)),
        JournalRecord::ReleasePrimary {
            conn,
            route,
            out_link,
        } => router.release_primary(*conn, route, *out_link),
        JournalRecord::RegisterBackup {
            conn,
            route,
            out_link,
            primary_lset,
            bw,
        } => router.register_backup(*conn, route, *out_link, primary_lset, *bw),
        JournalRecord::UnregisterBackup {
            conn,
            route,
            out_link,
        } => router.unregister_backup(*conn, route, *out_link),
        JournalRecord::ActivateBackup {
            conn,
            route,
            out_link,
            bw,
        } => return verdict(router.activate_backup(*conn, route, *out_link, *bw)),
    }
    WalkGate::Fresh
}

/// One router's durable journal: a compacting checkpoint plus the tail of
/// records appended since.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// The router as of `lsn - tail.len()` records, reached by applying
    /// every retired record in order; `None` until the first compaction
    /// (which, like replay, then starts from a fresh router).
    checkpoint: Option<Router>,
    /// Records appended since the checkpoint.
    tail: Vec<JournalRecord>,
    /// Total records ever appended (log sequence number).
    lsn: u64,
    /// Set when injected storage faults lost records — a real
    /// implementation detects this through record CRCs / sequence gaps.
    corrupted: bool,
}

impl Journal {
    /// Tail length that triggers a compaction: the tail's records are
    /// applied to the checkpoint and the tail drained, bounding replay work.
    pub const COMPACT_EVERY: usize = 64;

    /// Total records ever appended.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Records currently in the tail (replayed on top of the checkpoint).
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// The records of the tail, oldest first.
    pub fn tail(&self) -> &[JournalRecord] {
        &self.tail
    }

    /// Rebuilds the router from the checkpoint (or a fresh router) by
    /// replaying the tail. With an intact journal the result is bit-for-
    /// bit equal to the live router at append time.
    pub fn replay(&self, net: &Network, node: NodeId) -> Router {
        let mut router = match &self.checkpoint {
            Some(cp) => cp.clone(),
            None => Router::new(net, node),
        };
        for rec in &self.tail {
            apply(&mut router, rec);
        }
        router
    }

    /// The write-ahead step: appends `rec`, then performs it on the live
    /// router and returns the verdict. A tail that reaches
    /// [`Self::COMPACT_EVERY`] is retired into the checkpoint by the same
    /// in-order `apply` that [`Self::replay`] uses, so the checkpoint is the
    /// router replay would have built — the live router is not consulted.
    fn append(
        &mut self,
        net: &Network,
        node: NodeId,
        live: &mut Router,
        rec: JournalRecord,
    ) -> WalkGate {
        self.tail.push(rec);
        self.lsn += 1;
        let verdict = apply(live, &self.tail[self.tail.len() - 1]);
        if self.tail.len() >= Self::COMPACT_EVERY {
            let checkpoint = self
                .checkpoint
                .get_or_insert_with(|| Router::new(net, node));
            for rec in self.tail.drain(..) {
                apply(checkpoint, &rec);
            }
        }
        verdict
    }
}

/// The per-node journals and the choke point the engine mutates routers
/// through: [`Journals::commit`] (and [`Journals::gate`], whose verdict is
/// not a `bool`) append the typed record *before* acting (write-ahead).
pub(crate) struct Journals {
    /// What a node's first compaction builds its fresh router from.
    net: Arc<Network>,
    per_node: Vec<Journal>,
}

/// Renders the journals only: the rendering feeds
/// `ProtocolSim::fingerprint`, and the network is not protocol state.
impl fmt::Debug for Journals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journals")
            .field("per_node", &self.per_node)
            .finish()
    }
}

impl Journals {
    pub(crate) fn new(net: Arc<Network>) -> Self {
        Journals {
            per_node: (0..net.num_nodes()).map(|_| Journal::default()).collect(),
            net,
        }
    }

    /// The journal of one node (test and bench observability).
    pub(crate) fn journal(&self, node: NodeId) -> &Journal {
        &self.per_node[node.index()]
    }

    /// Amnesia crash: durable state is lost with the router.
    pub(crate) fn reset(&mut self, node: NodeId) {
        self.per_node[node.index()] = Journal::default();
    }

    /// Injects a storage fault at crash time (journaled mode only).
    pub(crate) fn corrupt(&mut self, node: NodeId, fault: crate::chaos::JournalFault) {
        let j = &mut self.per_node[node.index()];
        match fault {
            crate::chaos::JournalFault::None => {}
            crate::chaos::JournalFault::TornTail(n) => {
                let torn = (n as usize).min(j.tail.len());
                if torn > 0 {
                    j.tail.truncate(j.tail.len() - torn);
                    j.corrupted = true;
                }
            }
            crate::chaos::JournalFault::StaleCheckpoint => {
                // The tail did not survive; replay can only reach the
                // (now stale) checkpoint.
                if !j.tail.is_empty() || j.checkpoint.is_some() {
                    j.tail.clear();
                    j.corrupted = true;
                }
            }
        }
    }

    /// Replays one node's journal into a rebuilt router. Returns the
    /// router, the number of tail records replayed, and whether the
    /// journal was corrupted (caller degrades the rejoin).
    pub(crate) fn replay(&self, node: NodeId) -> (Router, u64, bool) {
        let j = &self.per_node[node.index()];
        (j.replay(&self.net, node), j.tail.len() as u64, j.corrupted)
    }

    /// Journals `rec` at `at`, then performs it on the live router with
    /// the `apply` that replay runs. Returns the mutator's verdict: `false`
    /// when a reservation or activation was refused (or a gate found the
    /// walk stale).
    pub(crate) fn commit(
        &mut self,
        routers: &mut [Router],
        at: NodeId,
        rec: JournalRecord,
    ) -> bool {
        let verdict =
            self.per_node[at.index()].append(&self.net, at, &mut routers[at.index()], rec);
        verdict != WalkGate::Stale
    }

    /// Gates a walk packet through `at`'s dedup ledger — a commit of
    /// [`JournalRecord::GateWalk`] that hands back the three-way verdict.
    pub(crate) fn gate(
        &mut self,
        routers: &mut [Router],
        at: NodeId,
        conn: ConnectionId,
        seq: u64,
        attempt: u32,
    ) -> WalkGate {
        let rec = JournalRecord::GateWalk { conn, seq, attempt };
        self.per_node[at.index()].append(&self.net, at, &mut routers[at.index()], rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_net::topology;
    use proptest::prelude::*;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn setup() -> (Journals, Vec<Router>, Route) {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let routers: Vec<Router> = net.nodes().map(|n| Router::new(&net, n)).collect();
        let route = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        (Journals::new(net), routers, route)
    }

    /// A register record for `conn` on `route`'s first link.
    fn register(conn: u64, route: &Route) -> JournalRecord {
        JournalRecord::RegisterBackup {
            conn: ConnectionId::new(conn),
            route: route.clone(),
            out_link: route.links()[0],
            primary_lset: vec![LinkId::new(5)],
            bw: BW,
        }
    }

    /// The record `kind % 8` selects, on `route`'s first link.
    fn record(
        kind: u8,
        conn: u64,
        seq: u64,
        attempt: u32,
        route: &Route,
        lset: &[LinkId],
    ) -> JournalRecord {
        let conn = ConnectionId::new(conn);
        let (route, out_link, bw) = (route.clone(), route.links()[0], BW);
        match kind % 8 {
            0 => JournalRecord::GateWalk { conn, seq, attempt },
            1 => JournalRecord::MarkApplied { conn, seq },
            2 => JournalRecord::PoisonWalk { conn, seq, attempt },
            3 => JournalRecord::ReservePrimary {
                conn,
                route,
                out_link,
                bw,
            },
            4 => JournalRecord::ReleasePrimary {
                conn,
                route,
                out_link,
            },
            5 => JournalRecord::RegisterBackup {
                conn,
                route,
                out_link,
                primary_lset: lset.to_vec(),
                bw,
            },
            6 => JournalRecord::UnregisterBackup {
                conn,
                route,
                out_link,
            },
            _ => JournalRecord::ActivateBackup {
                conn,
                route,
                out_link,
                bw,
            },
        }
    }

    #[test]
    fn replay_matches_live_router() {
        let (mut js, mut routers, route) = setup();
        let n0 = NodeId::new(0);
        let conn = ConnectionId::new(1);
        assert_eq!(js.gate(&mut routers, n0, conn, 7, 1), WalkGate::Fresh);
        // Every record kind, in an order where each one acts and nothing
        // leaks: gate, reserve, applied, poison, release, register,
        // activate (the backup becomes the primary), release, register,
        // unregister.
        for kind in [0u8, 3, 1, 2, 4, 5, 7, 4, 5, 6] {
            let rec = record(kind, 1, 8, 1, &route, &[LinkId::new(5)]);
            assert!(js.commit(&mut routers, n0, rec), "kind {kind} refused");
        }
        // The verdict is the mutator's: a full link refuses a reservation.
        let cap = Bandwidth::from_mbps(10);
        let link = route.links()[0];
        let hog = JournalRecord::ReservePrimary {
            conn,
            route: route.clone(),
            out_link: link,
            bw: cap,
        };
        assert!(js.commit(&mut routers, n0, hog.clone()));
        assert!(
            !js.commit(&mut routers, n0, hog),
            "refusals are journaled too"
        );
        let (replayed, records, corrupt) = js.replay(n0);
        assert_eq!(records, 13);
        assert!(!corrupt);
        assert_eq!(format!("{replayed:?}"), format!("{:?}", routers[0]));
    }

    #[test]
    fn compaction_bounds_the_tail_and_preserves_replay() {
        let (mut js, mut routers, route) = setup();
        let n0 = NodeId::new(0);
        for i in 0..(Journal::COMPACT_EVERY as u64 * 3 + 5) {
            js.commit(&mut routers, n0, register(i % 7, &route));
            js.commit(&mut routers, n0, record(6, i % 7, 0, 1, &route, &[]));
        }
        let j = js.journal(n0);
        assert!(j.tail_len() < Journal::COMPACT_EVERY, "tail stays bounded");
        assert!(j.lsn() >= Journal::COMPACT_EVERY as u64 * 3);
        let (replayed, _, _) = js.replay(n0);
        assert_eq!(format!("{replayed:?}"), format!("{:?}", routers[0]));
    }

    #[test]
    fn torn_tail_drops_records_and_flags_corruption() {
        let (mut js, mut routers, route) = setup();
        let n0 = NodeId::new(0);
        for i in 0..4u64 {
            js.commit(&mut routers, n0, register(i, &route));
        }
        js.corrupt(n0, crate::chaos::JournalFault::TornTail(2));
        let j = js.journal(n0);
        assert!(j.corrupted);
        assert_eq!(j.tail_len(), 2);
        let (replayed, _, corrupt) = js.replay(n0);
        assert!(corrupt);
        // The replayed router is missing the torn registrations.
        assert_eq!(replayed.backup_table_len(), 2);
        assert_eq!(routers[0].backup_table_len(), 4);
    }

    #[test]
    fn stale_checkpoint_loses_the_tail() {
        let (mut js, mut routers, route) = setup();
        let n0 = NodeId::new(0);
        js.commit(&mut routers, n0, register(1, &route));
        js.corrupt(n0, crate::chaos::JournalFault::StaleCheckpoint);
        let (replayed, records, corrupt) = js.replay(n0);
        assert!(corrupt);
        assert_eq!(records, 0);
        assert_eq!(replayed.backup_table_len(), 0);
    }

    #[test]
    fn amnesia_reset_wipes_everything() {
        let (mut js, mut routers, route) = setup();
        let n0 = NodeId::new(0);
        js.commit(&mut routers, n0, register(1, &route));
        js.reset(n0);
        let j = js.journal(n0);
        assert_eq!(j.lsn(), 0);
        assert!(!j.corrupted);
        let (replayed, _, _) = js.replay(n0);
        assert_eq!(replayed.backup_table_len(), 0);
    }

    /// Commits the record `kind % 8` selects, on an outgoing link of `at`
    /// (the raw mutators debug-assert own links). Small id ranges make
    /// calls collide: refused reservations, stacked entries, releases and
    /// unregisters of nothing.
    fn drive(
        js: &mut Journals,
        routers: &mut [Router],
        at: NodeId,
        (kind, conn, seq, pick): (u8, u64, u64, u32),
    ) {
        let net = Arc::clone(&js.net);
        let out = net.out_links(at);
        let link = out[pick as usize % out.len()];
        let route = Route::new(&net, vec![link]).unwrap();
        let num_links = net.num_links() as u32;
        let first = pick % num_links;
        let lset = [
            LinkId::new(first),
            LinkId::new((first + 1 + pick / 7 % (num_links - 1)) % num_links),
        ];
        js.commit(
            routers,
            at,
            record(kind, conn, seq, 1 + pick % 3, &route, &lset),
        );
    }

    /// The obvious compaction — a clone of the live router every
    /// `COMPACT_EVERY` records — as the model the journal's own
    /// replay-advanced checkpoint is compared against.
    #[derive(Default)]
    struct CloneModel {
        checkpoint: Option<Router>,
        tail_len: usize,
        lsn: u64,
        compactions: usize,
    }

    fn assert_matches_model(js: &Journals, node: NodeId, model: &CloneModel) {
        let j = js.journal(node);
        assert_eq!(j.lsn(), model.lsn);
        assert_eq!(j.tail_len(), model.tail_len);
        assert_eq!(
            format!("{:?}", j.checkpoint),
            format!("{:?}", model.checkpoint),
            "checkpoint of {node} is not the live router as of the compaction"
        );
    }

    /// Runs `trace` on every node of `net` in lockstep — except that a
    /// fault entry strikes one node only, the others taking it as a plain
    /// call — and holds the journals to the clone model throughout.
    fn check_against_clone_model(net: Network, trace: &[(u8, u64, u64, u32)]) {
        use crate::chaos::JournalFault;
        let net = Arc::new(net);
        let mut js = Journals::new(Arc::clone(&net));
        let mut routers: Vec<Router> = net.nodes().map(|n| Router::new(&net, n)).collect();
        let mut models: Vec<CloneModel> = net.nodes().map(|_| CloneModel::default()).collect();
        for &(kind, conn, seq, pick) in trace {
            for at in net.nodes() {
                let i = at.index();
                let model = &mut models[i];
                if kind >= 192 && pick as usize % net.num_nodes() == i {
                    match kind {
                        192..=193 => {
                            // Amnesia crash: journal and router go together.
                            js.reset(at);
                            model.checkpoint = None;
                            model.tail_len = 0;
                            model.lsn = 0;
                        }
                        194..=197 => {
                            let n = 1 + pick % 5;
                            js.corrupt(at, JournalFault::TornTail(n));
                            model.tail_len -= (n as usize).min(model.tail_len);
                        }
                        _ => {
                            js.corrupt(at, JournalFault::StaleCheckpoint);
                            model.tail_len = 0;
                        }
                    }
                    routers[i] = js.replay(at).0;
                    assert_matches_model(&js, at, model);
                    continue;
                }
                // Offset per node, so the nodes' histories differ.
                let pick = pick.wrapping_add(i as u32);
                drive(&mut js, &mut routers, at, (kind, conn, seq, pick));
                model.lsn += 1;
                model.tail_len += 1;
                if model.tail_len >= Journal::COMPACT_EVERY {
                    model.checkpoint = Some(routers[i].clone());
                    model.tail_len = 0;
                    model.compactions += 1;
                    assert_matches_model(&js, at, model);
                }
            }
        }
        for at in net.nodes() {
            let model = &models[at.index()];
            assert_matches_model(&js, at, model);
            assert!(model.compactions >= 4, "trace too short for {at}");
            let (replayed, _, _) = js.replay(at);
            assert_eq!(
                format!("{replayed:?}"),
                format!("{:?}", routers[at.index()])
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn checkpoint_equals_a_clone_of_the_live_router(
            trace in prop::collection::vec((0u8..200, 0u64..6, 0u64..8, any::<u32>()), 448),
        ) {
            let capacity = Bandwidth::from_mbps(10);
            check_against_clone_model(topology::ring(4, capacity).unwrap(), &trace);
            check_against_clone_model(topology::mesh(3, 3, capacity).unwrap(), &trace);
        }
    }

    #[test]
    fn stale_checkpoint_after_several_compactions_restores_the_last_one() {
        let (mut js, mut routers, _route) = setup();
        let n0 = NodeId::new(0);
        // Rounds of all eight record kinds on one (conn, seq); every round
        // gates a new seq, so each leaves a walk record behind for good.
        let mut op = 0u32;
        let mut next = |js: &mut Journals, routers: &mut [Router]| {
            let round = u64::from(op / 8);
            drive(js, routers, n0, (op as u8, round % 5, round, op * 13));
            op += 1;
        };
        for _ in 0..Journal::COMPACT_EVERY * 3 {
            next(&mut js, &mut routers);
        }
        assert_eq!(js.journal(n0).tail_len(), 0, "third compaction just ran");
        let at_third_compaction = format!("{:?}", routers[0]);
        for _ in 0..10 {
            next(&mut js, &mut routers);
        }
        assert_eq!(js.journal(n0).tail_len(), 10);
        js.corrupt(n0, crate::chaos::JournalFault::StaleCheckpoint);
        let (replayed, records, corrupt) = js.replay(n0);
        assert!(corrupt && js.journal(n0).corrupted);
        assert_eq!(records, 0);
        assert_eq!(format!("{replayed:?}"), at_third_compaction);
        assert_ne!(format!("{:?}", routers[0]), at_third_compaction);
    }

    #[test]
    fn compaction_never_reads_the_live_router() {
        let (mut js, mut routers, route) = setup();
        let n0 = NodeId::new(0);
        let link = route.links()[0];
        let lset = [LinkId::new(5)];
        for i in 0..Journal::COMPACT_EVERY as u64 - 1 {
            js.commit(&mut routers, n0, register(i % 7, &route));
        }
        // The journal's own history: the 63 records so far plus the one
        // appended below — and nothing else.
        let mut history = routers[0].clone();
        history.register_backup(ConnectionId::new(0), &route, link, &lset, BW);
        // The live router diverges behind the journal's back, right
        // before the append that compacts.
        routers[0].register_backup(ConnectionId::new(99), &route, link, &lset, BW);
        js.commit(&mut routers, n0, register(0, &route));
        assert_eq!(js.journal(n0).tail_len(), 0, "the 64th record compacts");
        let (replayed, _, _) = js.replay(n0);
        assert_eq!(format!("{replayed:?}"), format!("{history:?}"));
        assert_ne!(format!("{replayed:?}"), format!("{:?}", routers[0]));
    }
}

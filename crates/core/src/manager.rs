//! The DR-connection manager.

use crate::incidence::IndexEntry;
use crate::multiplex::MultiplexConfig;
use crate::routing::{RouteRequest, RoutingOverhead, RoutingScheme};
use crate::table::ConnTable;
use crate::{
    Aplv, CapacityError, ConflictVector, ConnectionId, ConnectionState, DrConnection, DrtpError,
    IncidenceIndex, LinkResources, Telemetry,
};
use drt_net::{Bandwidth, LinkId, Network, Route};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Central manager of all DR-connection state.
///
/// The paper distributes this state across routers ("every router is
/// equipped with a DR-connection manager"); a connection-level simulation
/// needs only the *union* of that state, so one `DrtpManager` owns the
/// per-link ledgers ([`LinkResources`]), per-link [`Aplv`]s, the failed-link
/// mask, and the connection table. The message exchanges of the distributed
/// protocol (backup-path register/release packets carrying the primary's
/// `LSET`) correspond one-to-one to the APLV updates this manager performs,
/// and their cost is modelled by [`RoutingOverhead`].
///
/// Three structures are derived from the connection table — the APLVs,
/// the conflict columns and the link-incidence index. Every route enters
/// and leaves them through one private attach / detach pair per role
/// (primary, backup), so a route cannot be in the ledger and the APLVs
/// without also being in the index. The conflict columns are D-LSR's bits
/// `c_{i,j}` stored by primary link: `conflicts[j]` has bit `i` set iff
/// `a_{i,j} > 0`, flipped where the APLV registration of `attach_backup` /
/// `detach_backup` reports a count leaving or returning to 0, so a request
/// reads its primary's |LSET| columns instead of |LSET| bits of every
/// priced link's row. The table is a slab: an index entry carries the
/// slot of its connection's record, and failure analysis reaches records
/// by slot, never by searching for an id. Nothing is derived from the
/// topology: a failure or repair flips `failed[l]` and no other state has
/// to hear about it ([`ManagerView::hops_to`] searches when asked).
///
/// See the crate-level docs for a usage example.
#[derive(Clone)]
pub struct DrtpManager {
    pub(crate) net: Arc<Network>,
    pub(crate) links: Vec<LinkResources>,
    pub(crate) aplvs: Vec<Aplv>,
    /// `conflicts[j]`: bit `i` set iff `a_{i,j} > 0` — the APLVs' support
    /// by column, which `Debug` leaves out as derived.
    pub(crate) conflicts: Vec<ConflictVector>,
    pub(crate) incidence: IncidenceIndex,
    pub(crate) failed: Vec<bool>,
    pub(crate) conns: ConnTable,
    pub(crate) distortion: Option<ViewDistortion>,
    pub(crate) telemetry: Telemetry,
}

/// Every field but the conflict columns, which are the APLVs' support
/// read by column and add nothing to them: the rendering (and
/// [`DrtpManager::fingerprint`]) is the one the manager had before the
/// columns existed.
impl fmt::Debug for DrtpManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DrtpManager")
            .field("net", &self.net)
            .field("links", &self.links)
            .field("aplvs", &self.aplvs)
            .field("incidence", &self.incidence)
            .field("failed", &self.failed)
            .field("conns", &self.conns)
            .field("distortion", &self.distortion)
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

/// A [`fmt::Write`] sink feeding a hasher: digests a `Debug` rendering
/// without building the string (the state fingerprints of this crate and
/// `drt_proto` hash megabytes of it per call).
#[derive(Debug, Default)]
pub struct HashSink(pub std::collections::hash_map::DefaultHasher);

impl fmt::Write for HashSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        std::hash::Hasher::write(&mut self.0, s.as_bytes());
        Ok(())
    }
}

/// Link-state lies a set of byzantine routers injects into route
/// selection.
///
/// The paper's schemes route on each router's link-state database; a
/// byzantine router poisons that database for every link it *owns*
/// (links whose source it is) with three lies: a failed link is
/// advertised as up, its conflict load (`‖APLV‖₁` and D-LSR's conflict
/// counts) reads 0, and its full capacity is advertised as admissible
/// headroom whatever the real ledger holds. The distortion is applied to
/// the [`ManagerView`] handed to [`RoutingScheme`]s — the *selection* side —
/// while admission ([`DrtpManager::admit_routes`]) keeps validating
/// against ground truth, so every lie-induced selection surfaces as a
/// setup failure ([`DrtpError::LinkFailed`] /
/// [`DrtpError::InsufficientBandwidth`]) exactly as stale link-state
/// would in the distributed protocol.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewDistortion {
    /// Per-node flag: `true` for routers whose outgoing-link
    /// advertisements are lies.
    pub byzantine: Vec<bool>,
}

impl ViewDistortion {
    /// A distortion marking `nodes` byzantine on a `num_nodes` network.
    pub fn for_nodes(num_nodes: usize, nodes: &[drt_net::NodeId]) -> Self {
        let mut byzantine = vec![false; num_nodes];
        for n in nodes {
            if n.index() < byzantine.len() {
                byzantine[n.index()] = true;
            }
        }
        ViewDistortion { byzantine }
    }

    /// `true` when `l`'s advertisements come from a byzantine router.
    pub fn lies_about(&self, net: &Network, l: LinkId) -> bool {
        let src = net.link(l).src();
        self.byzantine.get(src.index()).copied().unwrap_or(false)
    }
}

/// What happened when a connection was established.
#[derive(Debug, Clone, PartialEq)]
pub struct EstablishReport {
    /// The new connection's id.
    pub id: ConnectionId,
    /// The admitted primary route.
    pub primary: Route,
    /// The registered backup route, if any. Named in the plural only
    /// because `drt-benchmark` still reads the field;
    /// [`EstablishReport::backup`] is the reader.
    pub backups: Option<Route>,
    /// Whether the backup holds a dedicated reservation.
    pub dedicated_backup: bool,
    /// Control-plane cost of route discovery.
    pub overhead: RoutingOverhead,
    /// Spare bandwidth added across the links of the backup route.
    pub spare_grown: Bandwidth,
    /// `true` when the new backup conflicts with at least one existing
    /// backup (they share a link and their primaries share a link).
    pub conflicted: bool,
}

impl EstablishReport {
    /// The registered backup route, if any.
    pub fn backup(&self) -> Option<&Route> {
        self.backups.as_ref()
    }
}

/// An owned copy of the manager's routable state at one instant.
///
/// The paper's link-state schemes route on each router's link-state
/// *database*, which lags reality by the dissemination period. A snapshot
/// taken with [`DrtpManager::snapshot`] and refreshed on whatever schedule
/// the experiment models lets a scheme route on stale state via
/// [`StateSnapshot::view`]; admission against the live manager
/// ([`DrtpManager::admit_routes`]) then fails exactly when staleness made
/// the selection infeasible — the setup-failure cost of out-of-date
/// link-state information.
#[derive(Debug, Clone)]
pub struct StateSnapshot {
    net: Arc<Network>,
    links: Vec<LinkResources>,
    aplvs: Vec<Aplv>,
    conflicts: Vec<ConflictVector>,
    failed: Vec<bool>,
}

impl StateSnapshot {
    /// A read-only view over the snapshot, interchangeable with the live
    /// [`DrtpManager::view`] as far as [`RoutingScheme`]s are concerned.
    pub fn view(&self) -> ManagerView<'_> {
        ManagerView {
            net: &self.net,
            links: &self.links,
            aplvs: &self.aplvs,
            conflicts: &self.conflicts,
            failed: &self.failed,
            hop_mask: &self.failed,
            // A snapshot is the honestly-disseminated database; byzantine
            // distortion applies to the live advertisement path only.
            distortion: None,
        }
    }
}

/// [`ManagerView::backup_fit`]'s answer for one link and one backup size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupFit {
    /// The link is failed (and not advertised as up regardless).
    Dead,
    /// Alive, but short of the backup headroom asked for.
    Short,
    /// Alive with enough backup headroom.
    Fits,
}

/// Read-only view of manager state handed to [`RoutingScheme`]s.
///
/// The view corresponds to the link-state database of the paper's routers:
/// per-link available bandwidths plus the scheme-specific APLV digest
/// (`‖APLV‖₁` for P-LSR, conflict vectors for D-LSR), and the distance
/// table column a bounded flood consults ([`ManagerView::hops_to`]).
#[derive(Debug, Clone, Copy)]
pub struct ManagerView<'a> {
    net: &'a Network,
    links: &'a [LinkResources],
    aplvs: &'a [Aplv],
    /// The owner's conflict columns (`conflicts[j]`: bit `i` iff
    /// `a_{i,j} > 0`).
    conflicts: &'a [ConflictVector],
    failed: &'a [bool],
    /// The failed mask [`ManagerView::hops_to`] measures over: the
    /// owner's own, without the links `failed` may additionally hide.
    hop_mask: &'a [bool],
    distortion: Option<&'a ViewDistortion>,
}

impl<'a> ManagerView<'a> {
    /// `true` when an active distortion lies about `l`: one flag read
    /// per call.
    fn lie(&self, l: LinkId) -> bool {
        self.distortion.is_some_and(|d| d.lies_about(self.net, l))
    }

    /// The network topology.
    pub fn net(&self) -> &'a Network {
        self.net
    }

    /// Hop count of every node's shortest route **to** `dst` over links
    /// that are not failed (`None` = unreachable) — the column `D(·, dst)`
    /// of the paper's distance tables (§4.1), measured on request by one
    /// breadth-first search ([`drt_net::algo::bfs_hops_to`], O(N + L))
    /// instead of read from a maintained table.
    ///
    /// Distances are over the manager's (or snapshot's) own failed mask:
    /// neither a [`ViewDistortion`] nor the extra links
    /// [`DrtpManager::reestablish_backup_avoiding`] hides from
    /// [`ManagerView::alive`] change them.
    pub fn hops_to(&self, dst: drt_net::NodeId) -> Vec<Option<u32>> {
        drt_net::algo::bfs_hops_to(self.net, dst, |l| !self.hop_mask[l.index()])
    }

    /// Returns `true` when the link is not failed — or when its byzantine
    /// owner advertises it as up regardless ([`ViewDistortion`]).
    pub fn alive(&self, l: LinkId) -> bool {
        self.lie(l) || !self.failed[l.index()]
    }

    /// Unreserved bandwidth of `l` (`total − prime − spare`).
    pub fn free(&self, l: LinkId) -> Bandwidth {
        self.links[l.index()].free()
    }

    /// Bandwidth a backup may count on at `l` (`total − prime`).
    pub fn backup_headroom(&self, l: LinkId) -> Bandwidth {
        self.links[l.index()].backup_headroom()
    }

    /// The spare pool currently reserved on `l`.
    pub fn spare(&self, l: LinkId) -> Bandwidth {
        self.links[l.index()].spare()
    }

    /// Total capacity of `l`.
    pub fn capacity(&self, l: LinkId) -> Bandwidth {
        self.links[l.index()].capacity()
    }

    /// The APLV of `l`.
    pub fn aplv(&self, l: LinkId) -> &'a Aplv {
        &self.aplvs[l.index()]
    }

    /// `‖APLV_l‖₁` — P-LSR's advertised scalar. A byzantine owner
    /// advertises 0.
    pub fn l1_norm(&self, l: LinkId) -> u64 {
        if self.lie(l) {
            return 0;
        }
        self.aplvs[l.index()].l1_norm()
    }

    /// `counts[l] = Σ_{j ∈ lset} c_{l,j}` — D-LSR's conflict count of
    /// every link `l` against a primary link set, into `counts` (resized
    /// to the number of links): the primary's |LSET| conflict columns
    /// added up (ids past the network add nothing), then 0 on the links
    /// with a byzantine owner. D-LSR fills this once per request and
    /// prices each link with one read of it.
    pub fn conflict_counts(&self, primary_lset: &[LinkId], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.net.num_links(), 0);
        for j in primary_lset {
            if let Some(column) = self.conflicts.get(j.index()) {
                column.count_into(counts);
            }
        }
        if let Some(d) = self.distortion {
            for link in self.net.links() {
                if d.lies_about(self.net, link.id()) {
                    counts[link.id().index()] = 0;
                }
            }
        }
    }

    /// `true` when `l` is alive and can admit a primary of size `bw` from
    /// its free pool. A byzantine owner claims any `bw` up to the raw
    /// capacity fits, dead or not.
    pub fn usable_for_primary(&self, l: LinkId, bw: Bandwidth) -> bool {
        if self.lie(l) {
            return bw <= self.capacity(l);
        }
        self.alive(l) && self.links[l.index()].can_admit_primary(bw)
    }

    /// What a backup of size `bw` finds at `l` — liveness and headroom as
    /// [`ManagerView::alive`] and [`ManagerView::backup_headroom`] report
    /// them (alive with full capacity under a byzantine owner), with the
    /// link's [`ViewDistortion`] resolved once: the backup cost closures
    /// ask both questions of every link they price.
    pub fn backup_fit(&self, l: LinkId, bw: Bandwidth) -> BackupFit {
        let lie = self.lie(l);
        if self.failed[l.index()] && !lie {
            return BackupFit::Dead;
        }
        let room = if lie {
            self.capacity(l)
        } else {
            self.backup_headroom(l)
        };
        if bw <= room {
            BackupFit::Fits
        } else {
            BackupFit::Short
        }
    }

    /// `true` when `l` is alive and offers at least `bw` of backup
    /// headroom (full capacity under a byzantine owner).
    pub fn usable_for_backup(&self, l: LinkId, bw: Bandwidth) -> bool {
        self.backup_fit(l, bw) == BackupFit::Fits
    }
}

impl DrtpManager {
    /// Creates a manager over `net` running the paper's multiplexing
    /// policy ([`crate::multiplex`]).
    pub fn new(net: Arc<Network>) -> Self {
        let links = net
            .links()
            .map(|l| LinkResources::new(l.capacity()))
            .collect();
        let aplvs = vec![Aplv::new(); net.num_links()];
        let conflicts = vec![ConflictVector::zeros(net.num_links()); net.num_links()];
        let incidence = IncidenceIndex::new(net.num_links());
        let failed = vec![false; net.num_links()];
        DrtpManager {
            net,
            links,
            aplvs,
            conflicts,
            incidence,
            failed,
            conns: ConnTable::default(),
            distortion: None,
            telemetry: Telemetry::default(),
        }
    }

    /// The network this manager operates on.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// [`DrtpManager::new`]: a [`MultiplexConfig`] has nothing to choose.
    pub fn with_config(net: Arc<Network>, _cfg: MultiplexConfig) -> Self {
        Self::new(net)
    }

    /// A read-only view for route selection, carrying any active
    /// [`ViewDistortion`].
    pub fn view(&self) -> ManagerView<'_> {
        self.view_over(&self.failed)
    }

    /// The live view with `failed` standing in for the failed-link mask
    /// (hop distances stay over the manager's own).
    fn view_over<'a>(&'a self, failed: &'a [bool]) -> ManagerView<'a> {
        ManagerView {
            net: &self.net,
            links: &self.links,
            aplvs: &self.aplvs,
            conflicts: &self.conflicts,
            failed,
            hop_mask: &self.failed,
            distortion: self.distortion.as_ref(),
        }
    }

    /// Installs (or clears, with `None`) a byzantine link-state
    /// distortion. Selection through [`DrtpManager::view`] sees the lies;
    /// admission keeps validating against ground truth.
    pub fn set_view_distortion(&mut self, distortion: Option<ViewDistortion>) {
        self.distortion = distortion;
    }

    /// The manager's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry registry, for drivers that record
    /// campaign-level metrics alongside the manager's own.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Copies the current routable state into an owned [`StateSnapshot`]
    /// (the link-state database a router would hold after a full
    /// dissemination round).
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            net: Arc::clone(&self.net),
            links: self.links.clone(),
            aplvs: self.aplvs.clone(),
            conflicts: self.conflicts.clone(),
            failed: self.failed.clone(),
        }
    }

    /// A digest of the *complete* manager state — every link ledger, APLV,
    /// failure mask and connection record. Two managers with
    /// equal fingerprints are observationally identical; purity tests use
    /// this to prove probes mutate nothing (the `Display` rendering is a
    /// lossy summary and would miss e.g. a perturbed spare pool).
    ///
    /// The `Debug` rendering is streamed into the hasher, never built. An
    /// `Aplv` renders its registered elements in link order — not its
    /// table — so equal states hash equal whatever history led to them,
    /// and the text is sized by the live connections: about a megabyte at
    /// 60 nodes, half of it APLVs. Likewise the connection table renders
    /// as the id → record map and the incidence index as lists of ids:
    /// which slot a record occupies is history, not state.
    pub fn fingerprint(&self) -> u64 {
        use std::{fmt::Write, hash::Hasher};
        let mut sink = HashSink::default();
        write!(sink, "{self:?}").expect("the sink never refuses");
        sink.0.finish()
    }

    /// The resource ledger of a link (a zero-capacity ledger for a link
    /// outside the network).
    pub fn link_resources(&self, l: LinkId) -> &LinkResources {
        static NO_LINK: LinkResources = LinkResources::new(Bandwidth::ZERO);
        self.links.get(l.index()).unwrap_or(&NO_LINK)
    }

    /// The APLV of a link (an empty one for a link outside the network).
    pub fn aplv(&self, l: LinkId) -> &Aplv {
        static NO_LINK: Aplv = Aplv::new();
        self.aplvs.get(l.index()).unwrap_or(&NO_LINK)
    }

    /// Returns `true` when `l` is currently failed (never for a link
    /// outside the network).
    pub fn is_failed(&self, l: LinkId) -> bool {
        self.failed.get(l.index()) == Some(&true)
    }

    /// Looks up a connection.
    pub fn connection(&self, id: ConnectionId) -> Option<&DrConnection> {
        self.conns.get(id)
    }

    /// Iterates over all known connections in id order.
    pub fn connections(&self) -> impl Iterator<Item = &DrConnection> {
        self.conns.values()
    }

    /// Number of connections currently carrying traffic.
    pub fn active_connections(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state().is_carrying_traffic())
            .count()
    }

    /// Number of connections in [`ConnectionState::Protected`].
    pub fn protected_connections(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state() == ConnectionState::Protected)
            .count()
    }

    /// Sum of primary reservations over all links.
    pub fn total_prime(&self) -> Bandwidth {
        self.links.iter().map(|l| l.prime()).sum()
    }

    /// Sum of spare pools over all links.
    pub fn total_spare(&self) -> Bandwidth {
        self.links.iter().map(|l| l.spare()).sum()
    }

    /// Sum of free bandwidth over all links.
    fn total_free(&self) -> Bandwidth {
        self.links.iter().map(|l| l.free()).sum()
    }

    /// Number of links whose spare pool is below the APLV requirement —
    /// i.e. links where conflicting backups are multiplexed over the same
    /// spare resources (the degraded case of Section 5).
    pub fn spare_deficit_links(&self) -> usize {
        self.links
            .iter()
            .zip(&self.aplvs)
            .filter(|(lr, aplv)| lr.spare() < aplv.required_spare())
            .count()
    }

    /// Establishes a DR-connection using `scheme` for route selection.
    ///
    /// Performs the four management steps of Section 2.2: primary route
    /// selection and reservation, backup route selection, backup
    /// registration (APLV updates and spare sizing along the backup path),
    /// all atomically — a failed step rolls the earlier ones back.
    ///
    /// # Errors
    ///
    /// * [`DrtpError::DuplicateConnection`] — the id is in use;
    /// * [`DrtpError::NoPrimaryRoute`] — an endpoint is not a node of the
    ///   network (no scheme runs), or route selection found no primary;
    /// * [`DrtpError::NoBackupRoute`] — route selection found no backup;
    /// * [`DrtpError::InsufficientBandwidth`] — admission failed on a link
    ///   (selection raced with resource state; cannot happen with the
    ///   bundled schemes, which check feasibility);
    /// * [`DrtpError::QosViolation`] — a selected route exceeds the hop
    ///   cap;
    /// * [`DrtpError::InvalidSelection`] — the scheme returned a
    ///   structurally invalid pair.
    pub fn request_connection(
        &mut self,
        scheme: &mut dyn RoutingScheme,
        req: RouteRequest,
    ) -> Result<EstablishReport, DrtpError> {
        if self.conns.slot_of(req.id).is_some() {
            // Checked before route selection so a duplicate id costs no
            // scheme work; admit_routes re-checks for its own callers.
            return Err(DrtpError::DuplicateConnection(req.id));
        }
        let n = self.net.num_nodes();
        let res = if req.src.index() >= n || req.dst.index() >= n {
            // Requests are external input (a scenario file names any
            // node); a scheme may index its tables by either endpoint.
            Err(DrtpError::NoPrimaryRoute(req.src, req.dst))
        } else {
            scheme
                .select_routes(&self.view(), &req)
                .and_then(|pair| self.admit_routes(&req, pair))
        };
        match &res {
            Ok(_) => self.telemetry.incr("establish.accepted"),
            Err(_) => self.telemetry.incr("establish.rejected"),
        }
        res
    }

    /// Admits a connection along externally selected routes — the second
    /// half of [`DrtpManager::request_connection`], exposed so callers can
    /// run route selection against a stale [`StateSnapshot`] (or any
    /// out-of-band source) and still go through the full admission,
    /// registration, and rollback machinery.
    ///
    /// # Errors
    ///
    /// As [`DrtpManager::request_connection`], except that no scheme is
    /// consulted. In particular a selection made on stale state can fail
    /// here with [`DrtpError::InsufficientBandwidth`] or
    /// [`DrtpError::LinkFailed`].
    pub fn admit_routes(
        &mut self,
        req: &RouteRequest,
        pair: crate::routing::RoutePair,
    ) -> Result<EstablishReport, DrtpError> {
        if self.conns.slot_of(req.id).is_some() {
            return Err(DrtpError::DuplicateConnection(req.id));
        }
        for route in std::iter::once(&pair.primary).chain(&pair.backup) {
            self.validate_route(req, route)?;
        }

        let bw = req.bandwidth();
        let lset = pair.primary.links();
        // Routes attach before the record exists, so the index entries
        // name the slot the record is about to take.
        let at = IndexEntry::new(req.id, self.conns.next_slot());
        self.attach_primary(at, lset, bw, LinkResources::admit_primary)
            .map_err(DrtpError::InsufficientBandwidth)?;

        let (mut spare_grown, mut conflicted) = (Bandwidth::ZERO, false);
        if let Some(b) = &pair.backup {
            match self.attach_backup(at, b, lset, bw, pair.dedicated_backup) {
                Ok(attached) => (spare_grown, conflicted) = attached,
                Err(l) => {
                    self.detach_primary(at, lset, bw);
                    return Err(DrtpError::InsufficientBandwidth(l));
                }
            }
        }

        let conn = DrConnection::new(
            req.id,
            req.qos,
            pair.primary.clone(),
            pair.backup.clone(),
            pair.dedicated_backup,
        );
        let slot = self.conns.insert(conn);
        assert_eq!(slot, at.slot, "record landed beside its index entries");

        Ok(EstablishReport {
            id: req.id,
            primary: pair.primary,
            backups: pair.backup,
            dedicated_backup: pair.dedicated_backup,
            overhead: pair.overhead,
            spare_grown,
            conflicted,
        })
    }

    /// Finds and registers a backup for an existing (unprotected or
    /// recovered) connection — DRTP's resource-reconfiguration step.
    ///
    /// # Errors
    ///
    /// [`DrtpError::UnknownConnection`] for unknown ids,
    /// [`DrtpError::InvalidSelection`] when the connection already has a
    /// backup or is failed (no scheme runs and nothing changes),
    /// [`DrtpError::NoBackupRoute`] when the scheme finds none.
    pub fn reestablish_backup(
        &mut self,
        scheme: &mut dyn RoutingScheme,
        id: ConnectionId,
    ) -> Result<RoutingOverhead, DrtpError> {
        self.reestablish_backup_avoiding(scheme, id, &[])
    }

    /// [`DrtpManager::reestablish_backup`] with an extra exclusion set:
    /// links in `avoid` are presented to the scheme as failed and any
    /// selection crossing them is rejected. This is the seam the recovery
    /// orchestrator uses to keep flapping (quarantined) links out of new
    /// backup routes while they remain usable for established traffic.
    ///
    /// # Errors
    ///
    /// As [`DrtpManager::reestablish_backup`]; a route crossing `avoid`
    /// yields [`DrtpError::NoBackupRoute`].
    pub fn reestablish_backup_avoiding(
        &mut self,
        scheme: &mut dyn RoutingScheme,
        id: ConnectionId,
        avoid: &[LinkId],
    ) -> Result<RoutingOverhead, DrtpError> {
        let (slot, conn) = self.unprotected(id)?;
        let req = Self::backup_request(conn);
        // The masked copy is only built when there is something to mask.
        let failed = if avoid.is_empty() {
            Cow::Borrowed(&self.failed[..])
        } else {
            let mut masked = self.failed.clone();
            for &l in avoid {
                if l.index() < masked.len() {
                    masked[l.index()] = true;
                }
            }
            Cow::Owned(masked)
        };
        let (backup, overhead) =
            scheme.select_backup(&self.view_over(&failed), &req, conn.primary())?;
        if backup.links().iter().any(|l| avoid.contains(l)) {
            // Defense against schemes that route without consulting
            // `alive()`: a quarantined link must never enter a new backup.
            return Err(DrtpError::NoBackupRoute(id));
        }
        self.install_checked(slot, &req, backup)?;
        Ok(overhead)
    }

    /// Registers a caller-supplied backup route for a carrying connection
    /// that holds none. The counterpart of [`DrtpManager::drop_backups`]
    /// for restoring or installing specific routes, e.g. rolling back a
    /// failed re-optimisation.
    ///
    /// # Errors
    ///
    /// [`DrtpError::UnknownConnection`] for unknown ids;
    /// [`DrtpError::InvalidSelection`] when the connection is failed or
    /// already has a backup (nothing changes), or the route's endpoints
    /// mismatch;
    /// [`DrtpError::LinkFailed`] when the route crosses a failed link;
    /// [`DrtpError::QosViolation`] when the route exceeds the hop cap.
    pub fn install_backup_route(
        &mut self,
        id: ConnectionId,
        backup: Route,
    ) -> Result<(), DrtpError> {
        let (slot, conn) = self.unprotected(id)?;
        let req = Self::backup_request(conn);
        self.install_checked(slot, &req, backup)
    }

    /// Looks up a connection that must still be carrying traffic,
    /// resolving its id to the record's slot once for the caller.
    fn carrying(&self, id: ConnectionId) -> Result<(u32, &DrConnection), DrtpError> {
        let slot = self
            .conns
            .slot_of(id)
            .ok_or(DrtpError::UnknownConnection(id))?;
        let conn = self.conns.at(slot);
        if conn.state() == ConnectionState::Failed {
            return Err(DrtpError::InvalidSelection(format!(
                "connection {id} is failed"
            )));
        }
        Ok((slot, conn))
    }

    /// [`DrtpManager::carrying`], refusing a connection that already holds
    /// its backup.
    fn unprotected(&self, id: ConnectionId) -> Result<(u32, &DrConnection), DrtpError> {
        let (slot, conn) = self.carrying(id)?;
        if conn.backup().is_some() {
            return Err(DrtpError::InvalidSelection(format!(
                "connection {id} already has a backup"
            )));
        }
        Ok((slot, conn))
    }

    /// The request a backup for `conn` has to satisfy.
    fn backup_request(conn: &DrConnection) -> RouteRequest {
        RouteRequest {
            id: conn.id(),
            src: conn.primary().source(),
            dst: conn.primary().dest(),
            qos: conn.qos(),
        }
    }

    /// The shared tail of backup installation: validates `backup` against
    /// the live state and `req`'s hop cap, registers it (multiplexed) and
    /// installs it in connection `req.id`'s record, which lives in `slot`.
    fn install_checked(
        &mut self,
        slot: u32,
        req: &RouteRequest,
        backup: Route,
    ) -> Result<(), DrtpError> {
        self.validate_route(req, &backup)?;
        // The record is taken out of the table for the duration so its
        // primary can be walked by reference while the backup registers.
        let mut conn = self.conns.take(slot);
        self.attach_backup(
            IndexEntry::new(req.id, slot),
            &backup,
            conn.primary().links(),
            req.bandwidth(),
            false,
        )
        .expect("only a dedicated reservation can be refused");
        conn.install_backup(backup, false);
        self.conns.put(slot, conn);
        Ok(())
    }

    /// Drops the backup registration of a carrying connection, leaving it
    /// unprotected. Returns the dropped route, if there was one. (Named in
    /// the plural only because `drt-benchmark` calls it.)
    ///
    /// Combined with [`DrtpManager::reestablish_backup`] this implements
    /// backup *re-optimisation*: a backup chosen under duress (e.g. while
    /// a link was down, forcing overlap with its primary) can be replaced
    /// once conditions improve — an instance of DRTP's resource
    /// reconfiguration step, run after repairs by
    /// [`crate::orchestrator::RecoveryOrchestrator::reoptimize`].
    ///
    /// # Errors
    ///
    /// [`DrtpError::UnknownConnection`] for unknown ids;
    /// [`DrtpError::InvalidSelection`] when the connection is failed.
    pub fn drop_backups(&mut self, id: ConnectionId) -> Result<Option<Route>, DrtpError> {
        let (slot, _) = self.carrying(id)?;
        let mut conn = self.conns.take(slot);
        let dedicated = conn.backup_is_dedicated();
        let backup = conn.take_backup();
        if let Some(b) = &backup {
            self.detach_backup(
                IndexEntry::new(id, slot),
                b,
                conn.primary().links(),
                conn.qos().bandwidth,
                dedicated,
            );
        }
        self.conns.put(slot, conn);
        Ok(backup)
    }

    /// Terminates a connection and releases all its resources (step 4 of
    /// the management cycle).
    ///
    /// # Errors
    ///
    /// [`DrtpError::UnknownConnection`] when `id` is not known.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), DrtpError> {
        let (slot, conn) = self
            .conns
            .remove(id)
            .ok_or(DrtpError::UnknownConnection(id))?;
        if conn.state() == ConnectionState::Failed {
            // A failed connection's resources were already reclaimed when
            // the failure was processed.
            return Ok(());
        }
        self.detach_all(slot, &conn);
        Ok(())
    }

    /// Checks every internal bookkeeping invariant, panicking with a
    /// description on the first violation. Intended for tests and
    /// debugging; cost is `O(connections × route length + links)`.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated (see source for the list).
    pub fn assert_invariants(&self) {
        // 1d. The table's slab, free list and id map describe one table
        //     (first: everything below reads records through them).
        if let Err(v) = self.conns.check() {
            panic!("{v}");
        }
        // 1. APLVs are exactly what the connection table implies
        //    (`Aplv`'s `==`, checked per link below).
        let mut expected: Vec<Aplv> = vec![Aplv::new(); self.net.num_links()];
        let mut expected_prime: Vec<Bandwidth> = vec![Bandwidth::ZERO; self.net.num_links()];
        for conn in self.conns.values() {
            if conn.state() == ConnectionState::Failed {
                continue;
            }
            // 1e. No carrying connection's primary or backup crosses a
            //     failed link: a failure promotes or tears down every
            //     primary across it and drops every backup across it. The
            //     single-failure sweep relies on this instead of checking
            //     each backup against the failed mask.
            let routes = std::iter::once(conn.primary()).chain(conn.backup());
            for route in routes {
                if let Some(l) = route.links().iter().find(|l| self.failed[l.index()]) {
                    panic!("carrying connection {} crosses failed link {l}", conn.id());
                }
            }
            let bw = conn.qos().bandwidth;
            for &l in conn.primary().links() {
                expected_prime[l.index()] += bw;
            }
            if let Some(b) = conn.backup() {
                if conn.backup_is_dedicated() {
                    for &l in b.links() {
                        expected_prime[l.index()] += bw;
                    }
                } else {
                    for &l in b.links() {
                        expected[l.index()].register(conn.primary().links(), bw);
                    }
                }
            }
        }
        // 1c. The link-incidence index is exactly what a rebuild from the
        //     connection table produces, slots included: an entry whose
        //     slot is stale, or holds another id, diverges on its link.
        let rebuilt = IncidenceIndex::rebuild(self.net.num_links(), self.conns.entries());
        if let Some(l) = self.incidence.first_divergence(&rebuilt) {
            panic!("link-incidence index diverged from connection table on {l}");
        }
        // 2–3. Spare pools never exceed the APLV requirement, and the
        //      ledger is self-consistent (prime + spare ≤ capacity) —
        //      both via the pure predicates in [`crate::invariants`].
        for link in self.net.links() {
            let i = link.id().index();
            if let Err(v) = crate::invariants::check_link(
                &self.links[i],
                &self.aplvs[i],
                expected_prime[i],
                &expected[i],
            ) {
                panic!("{} on {}", v, link.id());
            }
        }
        // 1b. The conflict columns are the support of the rebuilt APLVs:
        //     bit `i` of column `j` for every `a_{i,j} > 0`, and no other.
        let mut support = 0u64;
        for (i, aplv) in expected.iter().enumerate() {
            let l = LinkId::new(i as u32);
            for (j, ..) in aplv.iter() {
                assert!(
                    self.conflicts[j.index()].get(l),
                    "conflict bit of {l} clear in column {j}, where a_ij > 0"
                );
                support += 1;
            }
        }
        let bits: u64 = self.conflicts.iter().map(|c| u64::from(c.ones())).sum();
        assert_eq!(
            bits, support,
            "conflict columns hold {bits} bits for {support} APLV entries"
        );
    }

    // ---- internal resource plumbing (shared with `failure`) ----
    //
    // Every route enters and leaves the ledgers, the APLVs, the conflict
    // columns and the incidence index through the four functions below and
    // nowhere else.

    /// Takes `bw` on every link with `take`, undoing the links already
    /// taken on the first refusal (or failed link) and returning it.
    fn admit_route_prime(
        &mut self,
        links: &[LinkId],
        bw: Bandwidth,
        take: fn(&mut LinkResources, Bandwidth) -> Result<(), CapacityError>,
    ) -> Result<(), LinkId> {
        for (i, l) in links.iter().enumerate() {
            let ok = !self.failed[l.index()] && take(&mut self.links[l.index()], bw).is_ok();
            if !ok {
                self.release_route_prime(&links[..i], bw);
                return Err(*l);
            }
        }
        Ok(())
    }

    fn release_route_prime(&mut self, links: &[LinkId], bw: Bandwidth) {
        for l in links {
            self.links[l.index()].release_primary(bw);
        }
    }

    /// Makes `links` the primary of `at`: a hard reservation of `bw` on
    /// every link — taken from the free pool ([`LinkResources::admit_primary`])
    /// at admission, converted from the activation pools
    /// ([`LinkResources::promote_from_pools`]) at promotion — and the
    /// index entry. All or nothing: on `Err` (the refusing link) nothing
    /// is attached.
    pub(crate) fn attach_primary(
        &mut self,
        at: IndexEntry,
        links: &[LinkId],
        bw: Bandwidth,
        take: fn(&mut LinkResources, Bandwidth) -> Result<(), CapacityError>,
    ) -> Result<(), LinkId> {
        self.admit_route_prime(links, bw, take)?;
        self.incidence.add_primary(links, at);
        Ok(())
    }

    /// Reverses [`DrtpManager::attach_primary`].
    pub(crate) fn detach_primary(&mut self, at: IndexEntry, links: &[LinkId], bw: Bandwidth) {
        self.incidence.remove_primary(links, at);
        self.release_route_prime(links, bw);
    }

    /// Makes `route` a backup of `at`, whose primary crosses
    /// `primary_lset`: a hard reservation when `dedicated`, else one APLV
    /// registration per link — setting the link's bit in the column of
    /// every `j` whose count it raised from 0 — and spare sizing; then the
    /// index entry.
    /// Returns `(spare grown, conflicted)`, or the refusing link with
    /// nothing attached — only a dedicated reservation can be refused.
    pub(crate) fn attach_backup(
        &mut self,
        at: IndexEntry,
        route: &Route,
        primary_lset: &[LinkId],
        bw: Bandwidth,
        dedicated: bool,
    ) -> Result<(Bandwidth, bool), LinkId> {
        let mut grown = Bandwidth::ZERO;
        let mut conflicted = false;
        if dedicated {
            self.admit_route_prime(route.links(), bw, LinkResources::admit_primary)?;
        } else {
            // A registration that opens fewer entries than the primary has
            // distinct links met one already open: a conflict at `l`.
            let distinct = (0..primary_lset.len())
                .filter(|&k| !primary_lset[..k].contains(&primary_lset[k]))
                .count();
            for &l in route.links() {
                let i = l.index();
                let (conflicts, mut opened) = (&mut self.conflicts, 0);
                self.aplvs[i].register_with(primary_lset, bw, |j| {
                    conflicts[j.index()].set(l);
                    opened += 1;
                });
                conflicted |= opened < distinct;
                grown += self.links[i].grow_spare_toward(self.aplvs[i].required_spare());
            }
        }
        self.incidence.add_backup(route.links(), at);
        Ok((grown, conflicted))
    }

    /// Reverses [`DrtpManager::attach_backup`], clearing the column bits of
    /// every count returned to 0 and shrinking spare pools to the new
    /// requirement.
    pub(crate) fn detach_backup(
        &mut self,
        at: IndexEntry,
        route: &Route,
        primary_lset: &[LinkId],
        bw: Bandwidth,
        dedicated: bool,
    ) {
        self.incidence.remove_backup(route.links(), at);
        if dedicated {
            self.release_route_prime(route.links(), bw);
        } else {
            for &l in route.links() {
                let i = l.index();
                let conflicts = &mut self.conflicts;
                self.aplvs[i].unregister_with(primary_lset, bw, |j| conflicts[j.index()].clear(l));
                self.links[i].shrink_spare_to(self.aplvs[i].required_spare());
            }
        }
    }

    /// Detaches the primary and the backup of `conn`, the record of
    /// `slot` — taken out of the table, or about to be marked failed.
    pub(crate) fn detach_all(&mut self, slot: u32, conn: &DrConnection) {
        let at = IndexEntry::new(conn.id(), slot);
        let (lset, bw) = (conn.primary().links(), conn.qos().bandwidth);
        self.detach_primary(at, lset, bw);
        if let Some(b) = conn.backup() {
            self.detach_backup(at, b, lset, bw, conn.backup_is_dedicated());
        }
    }

    /// Checks `route` against the live state and `req`: its endpoints,
    /// that every link exists and works, then the hop cap.
    fn validate_route(&self, req: &RouteRequest, route: &Route) -> Result<(), DrtpError> {
        if route.source() != req.src || route.dest() != req.dst {
            return Err(DrtpError::InvalidSelection(format!(
                "route endpoints {} -> {} do not match request {} -> {}",
                route.source(),
                route.dest(),
                req.src,
                req.dst
            )));
        }
        for &l in route.links() {
            if l.index() >= self.net.num_links() {
                return Err(DrtpError::InvalidSelection(format!("unknown link {l}")));
            }
            if self.failed[l.index()] {
                // Distinct from InvalidSelection: a selection made on a
                // stale snapshot can legitimately reference a link that
                // failed since.
                return Err(DrtpError::LinkFailed(l));
            }
        }
        if !req.qos.accepts_hops(route.len()) {
            return Err(DrtpError::QosViolation(req.id));
        }
        Ok(())
    }
}

impl fmt::Display for DrtpManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drtp manager: {} connections ({} protected), prime {}, spare {}, free {}",
            self.conns.len(),
            self.protected_connections(),
            self.total_prime(),
            self.total_spare(),
            self.total_free()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{DLsr, PrimaryOnly};
    use drt_net::{topology, NodeId};

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn mesh_manager() -> DrtpManager {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        DrtpManager::new(net)
    }

    fn req(id: u64, src: u32, dst: u32) -> RouteRequest {
        RouteRequest::new(
            ConnectionId::new(id),
            NodeId::new(src),
            NodeId::new(dst),
            BW,
        )
    }

    #[test]
    fn establish_release_roundtrip() {
        let mut mgr = mesh_manager();
        let mut scheme = DLsr::new();
        let report = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        assert_eq!(report.id, ConnectionId::new(0));
        assert!(report.backup().is_some());
        assert_eq!(mgr.active_connections(), 1);
        assert_eq!(mgr.protected_connections(), 1);
        assert!(mgr.total_prime() > Bandwidth::ZERO);
        mgr.assert_invariants();

        mgr.release(ConnectionId::new(0)).unwrap();
        assert_eq!(mgr.active_connections(), 0);
        assert_eq!(mgr.total_prime(), Bandwidth::ZERO);
        assert_eq!(mgr.total_spare(), Bandwidth::ZERO);
        mgr.assert_invariants();
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut mgr = mesh_manager();
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let err = mgr
            .request_connection(&mut scheme, req(0, 1, 7))
            .unwrap_err();
        assert_eq!(err, DrtpError::DuplicateConnection(ConnectionId::new(0)));
    }

    #[test]
    fn out_of_range_endpoint_is_refused_before_any_scheme_runs() {
        use crate::routing::{BoundedFlooding, DedicatedDisjoint, PLsr, SpfBackup};
        let schemes: [Box<dyn RoutingScheme>; 6] = [
            Box::new(DLsr::new()),
            Box::new(PLsr::new()),
            Box::new(BoundedFlooding::new()),
            Box::new(SpfBackup::new()),
            Box::new(DedicatedDisjoint::new()),
            Box::new(PrimaryOnly::new()),
        ];
        for mut scheme in schemes {
            let mut mgr = mesh_manager();
            mgr.request_connection(scheme.as_mut(), req(0, 0, 8))
                .unwrap();
            for (src, dst) in [(999, 3), (1, 999)] {
                let mut expected = mgr.clone();
                expected.telemetry_mut().incr("establish.rejected");
                let err = mgr
                    .request_connection(scheme.as_mut(), req(1, src, dst))
                    .unwrap_err();
                assert_eq!(
                    err,
                    DrtpError::NoPrimaryRoute(NodeId::new(src), NodeId::new(dst)),
                    "{}",
                    scheme.name()
                );
                assert_eq!(
                    mgr.fingerprint(),
                    expected.fingerprint(),
                    "{}",
                    scheme.name()
                );
            }
            assert_eq!(mgr.telemetry().counter("establish.rejected"), 2);
        }
    }

    #[test]
    fn unknown_release_rejected() {
        let mut mgr = mesh_manager();
        assert_eq!(
            mgr.release(ConnectionId::new(9)).unwrap_err(),
            DrtpError::UnknownConnection(ConnectionId::new(9))
        );
    }

    #[test]
    fn backupless_request_is_admitted_unprotected() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut scheme = PrimaryOnly::new();
        let mut mgr = DrtpManager::new(net);
        let report = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        assert!(report.backup().is_none());
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().state(),
            ConnectionState::Unprotected
        );
        assert_eq!(mgr.total_spare(), Bandwidth::ZERO);
        mgr.assert_invariants();
    }

    #[test]
    fn spare_pool_grows_with_conflicting_backups() {
        // Ring: all connections between the same endpoints share both the
        // primary (one way) and backup (other way) routes, so every
        // additional backup conflicts and must grow the spare pool.
        let net = Arc::new(topology::ring(6, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let r1 = mgr.request_connection(&mut scheme, req(0, 0, 2)).unwrap();
        assert!(!r1.conflicted);
        assert_eq!(r1.spare_grown, BW.times(r1.backup().unwrap().len() as u64));
        let r2 = mgr.request_connection(&mut scheme, req(1, 0, 2)).unwrap();
        // Same endpoints on a ring: primaries overlap, backups overlap.
        assert!(r2.conflicted);
        assert!(
            r2.spare_grown > Bandwidth::ZERO,
            "paper: grow spare on conflict"
        );
        mgr.assert_invariants();

        // Releasing one connection shrinks the spare pool again.
        let spare_before = mgr.total_spare();
        mgr.release(ConnectionId::new(1)).unwrap();
        assert!(mgr.total_spare() < spare_before);
        mgr.assert_invariants();
    }

    #[test]
    fn conflicted_counts_a_primary_link_once_however_often_it_is_walked() {
        // A primary walking 0 -> 1 -> 0 -> 1 registers L(0->1) twice per
        // backup link: the first such connection conflicts with nothing,
        // an identical second one with the first on every backup link.
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(100)).unwrap());
        let route = |nodes: &[u32]| {
            let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId::new).collect();
            Route::from_nodes(&net, &nodes).unwrap()
        };
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut script = crate::routing::Scripted::new();
        for _ in 0..2 {
            script.push(route(&[0, 1, 0, 1]), Some(route(&[0, 3, 2, 1])));
        }
        let first = mgr.request_connection(&mut script, req(0, 0, 1)).unwrap();
        let second = mgr.request_connection(&mut script, req(1, 0, 1)).unwrap();
        assert_eq!((first.conflicted, second.conflicted), (false, true));
        mgr.assert_invariants();
    }

    #[test]
    fn non_conflicting_backups_share_spare() {
        // Figure 1's lesson: backups whose primaries are disjoint share the
        // same spare without growth. Construct it on a 3x3 mesh:
        // D1: 0 -> 2 along the top row; D2: 6 -> 8 along the bottom row.
        // Their backups may share middle-row links; primaries are disjoint.
        let mut mgr = mesh_manager();
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 2)).unwrap();
        mgr.request_connection(&mut scheme, req(1, 6, 8)).unwrap();
        mgr.assert_invariants();
        for link in mgr.net().links() {
            let aplv = mgr.aplv(link.id());
            // No single failure activates two backups anywhere.
            assert!(
                aplv.max_count() <= 1,
                "unexpected conflict on {}",
                link.id()
            );
        }
    }

    #[test]
    fn capacity_exhaustion_rejects() {
        // Tiny capacity: one 3 Mb/s connection with a dedicated route pair
        // fits, further ones must be rejected eventually.
        let net = Arc::new(topology::ring(4, Bandwidth::from_kbps(3_000)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let mut admitted = 0;
        for i in 0..10 {
            if mgr.request_connection(&mut scheme, req(i, 0, 2)).is_ok() {
                admitted += 1;
            }
        }
        assert!(admitted >= 1);
        assert!(admitted < 10, "capacity must bound admissions");
        mgr.assert_invariants();
    }

    #[test]
    fn qos_hop_cap_enforced() {
        let mut mgr = mesh_manager();
        let mut scheme = DLsr::new();
        let mut r = req(0, 0, 8);
        // 0 -> 8 needs 4 hops minimum; backup will be >= 4 too. A cap of 4
        // will reject whichever route exceeds it.
        r.qos = r.qos.with_max_hops(4);
        let out = mgr.request_connection(&mut scheme, r);
        match out {
            Err(DrtpError::QosViolation(_)) => {}
            Ok(rep) => {
                assert!(rep.primary.len() <= 4);
                assert!(rep.backup().unwrap().len() <= 4);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
        mgr.assert_invariants();
    }

    #[test]
    fn drop_backups_unprotects_and_frees_spare() {
        let mut mgr = mesh_manager();
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        assert!(mgr.total_spare() > Bandwidth::ZERO);
        let dropped = mgr.drop_backups(ConnectionId::new(0)).unwrap();
        assert!(dropped.is_some());
        assert_eq!(mgr.total_spare(), Bandwidth::ZERO);
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().state(),
            ConnectionState::Unprotected
        );
        mgr.assert_invariants();
        // Re-establish restores protection (re-optimisation round-trip).
        mgr.reestablish_backup(&mut scheme, ConnectionId::new(0))
            .unwrap();
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().state(),
            ConnectionState::Protected
        );
        mgr.assert_invariants();
        // Unknown / failed connections are rejected.
        assert_eq!(
            mgr.drop_backups(ConnectionId::new(9)).unwrap_err(),
            DrtpError::UnknownConnection(ConnectionId::new(9))
        );
    }

    #[test]
    fn install_backup_route_restores_specific_route() {
        let mut mgr = mesh_manager();
        let mut scheme = DLsr::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let original = rep.backup().cloned().unwrap();
        mgr.drop_backups(ConnectionId::new(0)).unwrap();
        mgr.install_backup_route(ConnectionId::new(0), original.clone())
            .unwrap();
        let conn = mgr.connection(ConnectionId::new(0)).unwrap();
        assert_eq!(conn.backup(), Some(&original));
        assert_eq!(conn.state(), ConnectionState::Protected);
        mgr.assert_invariants();
        // Endpoint mismatch rejected.
        let bogus = drt_net::Route::from_nodes(
            mgr.net(),
            &[drt_net::NodeId::new(0), drt_net::NodeId::new(1)],
        )
        .unwrap();
        assert!(matches!(
            mgr.install_backup_route(ConnectionId::new(0), bogus),
            Err(DrtpError::InvalidSelection(_))
        ));
    }

    #[test]
    fn reprotection_refuses_a_protected_connection() {
        // A connection holds one backup: every re-protection path refuses
        // one that has it, runs no scheme, and leaves the state alone.
        let mut mgr = mesh_manager();
        let id = ConnectionId::new(0);
        let rep = mgr
            .request_connection(&mut DLsr::new(), req(0, 0, 8))
            .unwrap();
        let (primary, backup) = (rep.primary.clone(), rep.backup().cloned().unwrap());
        let mut script = crate::routing::Scripted::new();
        script.push(primary.clone(), Some(primary.clone()));
        let before = mgr.fingerprint();
        let avoid = [primary.links()[0]];
        let refusals = [
            mgr.reestablish_backup(&mut script, id),
            mgr.reestablish_backup_avoiding(&mut script, id, &avoid),
            mgr.reestablish_backup(&mut DLsr::new(), id),
            mgr.install_backup_route(id, backup.clone())
                .map(|()| RoutingOverhead::ZERO),
        ];
        for refused in refusals {
            assert!(
                matches!(&refused, Err(DrtpError::InvalidSelection(why)) if why.contains("already has a backup")),
                "{refused:?}"
            );
        }
        assert_eq!(script.remaining(), 1, "no scheme ran");
        assert_eq!(mgr.fingerprint(), before);
        assert_eq!(mgr.connection(id).unwrap().backup(), Some(&backup));
        mgr.assert_invariants();
    }

    #[test]
    fn fingerprint_ignores_slot_history() {
        let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(30)).unwrap());
        let id = ConnectionId::new;

        // Churn: eight connections come, one loses its only route, the
        // others switch or lose a backup, and all go — released in an
        // order that leaves the free list scrambled.
        let mut churned = DrtpManager::new(Arc::clone(&net));
        let mut rng = drt_sim::rng::stream(11, "slot-history");
        churned
            .request_connection(&mut PrimaryOnly::new(), req(100, 0, 5))
            .unwrap();
        for i in 1..8 {
            churned
                .request_connection(&mut DLsr::new(), req(100 + i, i as u32, 15 - i as u32))
                .unwrap();
        }
        let doomed = churned.connection(id(100)).unwrap().primary().links()[0];
        let first = churned.connection(id(101)).unwrap().primary().links()[0];
        for l in [doomed, first] {
            if !churned.is_failed(l) {
                churned.inject_failure(l, &mut rng).unwrap();
            }
        }
        assert_eq!(
            churned.connection(id(100)).unwrap().state(),
            ConnectionState::Failed
        );
        assert_eq!(
            churned.connection(id(101)).unwrap().state(),
            ConnectionState::Recovered
        );
        churned.assert_invariants();
        for l in [doomed, first] {
            let _ = churned.repair_link(l);
        }
        for i in [3, 0, 5, 1, 7, 4, 2, 6] {
            churned.release(id(100 + i)).unwrap();
        }
        churned.assert_invariants();

        // A manager that never saw any of that (the counters are state).
        let mut fresh = DrtpManager::new(net);
        *fresh.telemetry_mut() = churned.telemetry().clone();
        assert_eq!(fresh.fingerprint(), churned.fingerprint());

        // The same life on both: admissions, a promotion, a release and a
        // re-request under the released id.
        for mgr in [&mut churned, &mut fresh] {
            let mut scheme = DLsr::new();
            let mut rng = drt_sim::rng::stream(12, "slot-history");
            for i in 0..6 {
                mgr.request_connection(&mut scheme, req(i, i as u32, 15 - i as u32))
                    .unwrap();
            }
            let l = mgr.connection(id(2)).unwrap().primary().links()[0];
            mgr.inject_failure(l, &mut rng).unwrap();
            mgr.release(id(4)).unwrap();
            mgr.request_connection(&mut scheme, req(4, 12, 3)).unwrap();
            mgr.assert_invariants();
        }
        assert_eq!(
            churned.connection(id(2)).unwrap().state(),
            ConnectionState::Recovered
        );

        let slots = |m: &DrtpManager| (0..6).map(|i| m.conns.slot_of(id(i))).collect::<Vec<_>>();
        assert_ne!(
            slots(&churned),
            slots(&fresh),
            "the histories homed them apart"
        );
        assert_eq!(churned.fingerprint(), fresh.fingerprint());
        assert_eq!(format!("{churned:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn slab_is_sized_by_live_connections() {
        // Ids only climb; the table must not: a released slot is the next
        // one filled.
        let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(1_000)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let mut live: Vec<ConnectionId> = Vec::new();
        for k in 0..10_000u64 {
            let (src, dst) = ((k % 16) as u32, ((k * 7 + 5) % 16) as u32);
            if src != dst
                && mgr
                    .request_connection(&mut scheme, req(k, src, dst))
                    .is_ok()
            {
                live.push(ConnectionId::new(k));
            }
            if live.len() == 50 {
                let victim = live.swap_remove((k * 31 % 50) as usize);
                mgr.release(victim).unwrap();
            }
        }
        assert!(
            live.len() >= 40,
            "the mesh carries the load: {}",
            live.len()
        );
        assert_eq!(mgr.conns.len(), live.len());
        assert!(mgr.conns.slots() <= 64, "{} slots", mgr.conns.slots());
        mgr.assert_invariants();
    }

    #[test]
    fn display_mentions_counts() {
        let mgr = mesh_manager();
        assert!(mgr.to_string().contains("0 connections"));
    }
}

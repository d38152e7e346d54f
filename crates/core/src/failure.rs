//! Link failures: the fault-tolerance probe behind the paper's Figure 4,
//! and destructive failure injection with full DRTP recovery.
//!
//! The paper's metric:
//!
//! > "`P_act-bk` is the probability of activating a backup channel when the
//! > corresponding primary channel is disabled by a single link failure."
//!
//! [`DrtpManager::probe_single_failure`] evaluates one hypothetical failure
//! *without mutating any state* — every affected connection attempts to
//! claim its backup's bandwidth from per-link activation pools, in random
//! order (conflicting backups contend; some lose, exactly the degradation
//! backup multiplexing trades for capacity).
//! [`DrtpManager::sweep_single_failures`] averages the probe over every
//! loaded link, which is the lowest-variance estimator of `P_act-bk` under
//! the paper's single-failure model.
//!
//! The sweep's [`FailureSweep`] is the one single-failure report: per
//! link the affected and activated primaries, and per connection the
//! failures it does not survive. Because it probes every link, the sweep
//! first checks Section 5's spare sizing against the live pools: where
//! an activation pool covers its APLV column (`spare_i + free_i ≥
//! bandwidth_{i,j}`), no order of the contention a failure of `L_j`
//! starts can leave a backup through `L_i` without room. A connection
//! whose backup meets no pool its column over-subscribes is decided from
//! the incidence lists alone; only the others — the *hot* contenders —
//! run the shuffled pass, with the same decisions, and the same RNG
//! draws, as the probe.
//!
//! A single failure is one *directed* link, as in the paper: conflicts,
//! APLVs and `P_act-bk` are all defined on directed links. A physical cut
//! of both directions is a [`FailureEvent::Batch`] of the two links (or an
//! SRLG), which probes and injections resolve in one contention pass.
//!
//! [`DrtpManager::inject_failure`] performs the real thing: detection,
//! switchover (backup promotion), resource reclamation for unrecoverable
//! connections, and invalidation of backups that crossed the failed link
//! (steps 2–4 of DRTP, with re-establishment available via
//! [`DrtpManager::reestablish_backup`]).

use crate::incidence::IndexEntry;
use crate::{ConnectionId, ConnectionState, DrtpError, DrtpManager, LinkResources};
use drt_net::{Bandwidth, LinkId, NodeId, SrlgId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::BTreeSet;
use std::fmt;

/// A correlated failure to probe or inject.
///
/// The paper's evaluation assumes independent single link failures; real
/// outages are correlated — a router crash takes every incident link at
/// once, a conduit cut fails every member of a shared-risk link group
/// (SRLG), and maintenance accidents compound. A `FailureEvent` names one
/// such correlated set; [`DrtpManager::inject_event`] resolves it to the
/// full set of failed links and runs *one* atomic switchover pass, so the
/// backups of all simultaneously-disabled primaries contend for the same
/// activation pools (injecting the links one at a time would let early
/// winners see pools the later failures should have drained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureEvent {
    /// One directed link fails.
    Link(LinkId),
    /// A router crashes: every link incident to the node fails.
    Node(NodeId),
    /// A shared-risk group is cut: every member link fails.
    Srlg(SrlgId),
    /// Several events strike simultaneously and are resolved in one
    /// activation pass.
    Batch(Vec<FailureEvent>),
}

impl FailureEvent {
    /// The deduplicated, sorted set of links this event disables on
    /// `mgr`'s network. Links that are already failed are excluded
    /// (they cannot fail twice); link, node and SRLG ids outside the
    /// network resolve to nothing.
    pub fn resolve(&self, mgr: &DrtpManager) -> Vec<LinkId> {
        let mut set = BTreeSet::new();
        self.collect(mgr, &mut set);
        set.into_iter().filter(|l| !mgr.failed[l.index()]).collect()
    }

    fn collect(&self, mgr: &DrtpManager, out: &mut BTreeSet<LinkId>) {
        match self {
            FailureEvent::Link(l) => {
                if l.index() < mgr.net.num_links() {
                    out.insert(*l);
                }
            }
            FailureEvent::Node(n) => {
                if n.index() < mgr.net.num_nodes() {
                    out.extend(mgr.net.incident_links(*n));
                }
            }
            FailureEvent::Srlg(g) => out.extend(mgr.net.get_srlg(*g).unwrap_or(&[])),
            FailureEvent::Batch(events) => {
                for e in events {
                    e.collect(mgr, out);
                }
            }
        }
    }
}

impl fmt::Display for FailureEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureEvent::Link(l) => write!(f, "link {l}"),
            FailureEvent::Node(n) => write!(f, "crash {n}"),
            FailureEvent::Srlg(g) => write!(f, "srlg {g}"),
            FailureEvent::Batch(events) => {
                write!(f, "batch[")?;
                for (i, e) in events.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Outcome of one (hypothetical or real) single-failure trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The links that failed in this trial (one for a single-link probe).
    pub failed_links: Vec<LinkId>,
    /// Per affected connection: whether its backup would/did activate.
    pub details: Vec<(ConnectionId, bool)>,
}

impl ProbeOutcome {
    /// Number of connections whose primary the failure disabled.
    pub fn affected(&self) -> usize {
        self.details.len()
    }

    /// Number of affected connections for which a backup activated.
    pub fn activated(&self) -> usize {
        self.details.iter().filter(|&&(_, won)| won).count()
    }
}

/// Aggregated fault-tolerance statistics from a failure sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultToleranceSample {
    /// Total primaries disabled across all trials.
    pub affected: u64,
    /// Total successful backup activations across all trials.
    pub activated: u64,
    /// Affected primaries that held *no* backup at probe time: they can
    /// never activate, whatever the contention. Tracks how much of the
    /// `P_act-bk` shortfall is degradation (lost/never-gained protection)
    /// rather than activation conflicts.
    pub degraded: u64,
    /// Number of links probed (those affecting ≥ 1 primary).
    pub trials: u64,
}

impl FaultToleranceSample {
    /// `P_act-bk`, or `None` when no trial affected any primary.
    pub fn p_act_bk(&self) -> Option<f64> {
        (self.affected > 0).then(|| self.activated as f64 / self.affected as f64)
    }

    /// Merges another sample into this one.
    pub fn merge(&mut self, other: FaultToleranceSample) {
        self.affected += other.affected;
        self.activated += other.activated;
        self.degraded += other.degraded;
        self.trials += other.trials;
    }
}

impl fmt::Display for FaultToleranceSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.p_act_bk() {
            Some(p) => {
                write!(
                    f,
                    "P_act-bk = {:.4} ({}/{} over {} trials)",
                    p, self.activated, self.affected, self.trials
                )?;
                if self.degraded > 0 {
                    write!(f, ", {} unprotected", self.degraded)?;
                }
                Ok(())
            }
            None => write!(f, "P_act-bk undefined (no affected primaries)"),
        }
    }
}

/// Timing model for DRTP's failure detection → reporting → switching
/// pipeline (steps 2–3 of the protocol).
///
/// The paper motivates proactive backups with recovery latency: "the
/// latency and success-probability of service recovery are usually better
/// than those of the reactive schemes … \[reactive\] recovery can take
/// several seconds or longer". With a pre-established backup the
/// switchover is deterministic:
///
/// 1. a node adjacent to the failed link detects the failure
///    ([`RecoveryLatencyModel::detection`], e.g. loss-of-signal or
///    heartbeat timeout);
/// 2. a failure report travels *upstream along the primary* back to the
///    source (one [`RecoveryLatencyModel::per_hop`] per hop);
/// 3. a channel-switch message travels the backup route end-to-end,
///    activating the reserved resources hop by hop.
///
/// # Example
///
/// ```
/// use drt_core::failure::RecoveryLatencyModel;
/// use drt_sim::SimDuration;
///
/// let model = RecoveryLatencyModel::default();
/// // 3 report hops + 5 activation hops at 1 ms + 10 ms detection:
/// let latency = model.latency(3, 5);
/// assert_eq!(latency, SimDuration::from_millis(18));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryLatencyModel {
    /// Time for a link-adjacent node to detect the failure.
    pub detection: drt_sim::SimDuration,
    /// Per-hop propagation + processing delay of control messages.
    pub per_hop: drt_sim::SimDuration,
}

impl Default for RecoveryLatencyModel {
    /// 10 ms detection, 1 ms per hop — representative of the era's SONET
    /// alarm + software-forwarded signalling.
    fn default() -> Self {
        RecoveryLatencyModel {
            detection: drt_sim::SimDuration::from_millis(10),
            per_hop: drt_sim::SimDuration::from_millis(1),
        }
    }
}

impl RecoveryLatencyModel {
    /// Total switchover latency for the given report and activation hop
    /// counts.
    pub fn latency(&self, report_hops: usize, activation_hops: usize) -> drt_sim::SimDuration {
        self.detection + self.per_hop.times((report_hops + activation_hops) as u64)
    }

    /// Switchover latency of `conn` if `failed` (a link on its primary)
    /// fails and its backup activates: the report travels from the failed
    /// link's upstream node back to the source along the primary, then
    /// the switch message traverses the backup.
    ///
    /// Returns `None` when `failed` is not on the primary or the
    /// connection holds no backup.
    pub fn switchover_latency(
        &self,
        conn: &crate::DrConnection,
        failed: LinkId,
    ) -> Option<drt_sim::SimDuration> {
        let report_hops = conn.primary().links().iter().position(|&l| l == failed)?;
        let backup = conn.backup()?;
        Some(self.latency(report_hops, backup.len()))
    }
}

/// Fault-tolerance impact of failing one specific link, kept per link by
/// [`DrtpManager::sweep_single_failures`] so campaign reports can name the
/// most fragile links instead of only quoting the network-wide average.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkImpact {
    /// The probed link.
    pub link: LinkId,
    /// Primaries the link's failure disables.
    pub affected: u32,
    /// How many of those activate a backup.
    pub activated: u32,
}

impl LinkImpact {
    /// Connections that lose service when this link fails.
    pub fn lost(&self) -> u32 {
        self.affected - self.activated
    }
}

/// Result of a full single-failure sweep: the aggregate Figure-4 estimate,
/// the per-link breakdown behind it, and per connection the failures it
/// would not survive.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureSweep {
    /// The aggregate statistics (the paper's estimator).
    pub aggregate: FaultToleranceSample,
    /// One entry per probed link that affected ≥ 1 primary, in link-id
    /// order.
    pub per_link: Vec<LinkImpact>,
    /// One `(connection, link)` pair per connection and probed link whose
    /// failure kills it (no backup, dead backups, or lost contention),
    /// sorted by connection, then link. The pairs are distinct: a primary
    /// that walks a link twice is one trial there, as in
    /// [`DrtpManager::probe_single_failure`]. A connection absent here
    /// survives every single link failure, given the current contention.
    pub per_conn: Vec<(ConnectionId, LinkId)>,
}

impl FailureSweep {
    /// `P_act-bk`, or `None` when no trial affected any primary.
    pub fn p_act_bk(&self) -> Option<f64> {
        self.aggregate.p_act_bk()
    }

    /// Each connection some probed failure kills, in id order, with the
    /// links whose failure kills it, in link order.
    pub fn vulnerable(
        &self,
    ) -> impl Iterator<Item = (ConnectionId, impl ExactSizeIterator<Item = LinkId> + '_)> {
        self.per_conn
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, link)| link)))
    }

    /// Number of connections some probed failure kills.
    pub fn vulnerable_count(&self) -> usize {
        self.vulnerable().count()
    }

    /// The `k` links that lose the most connections, worst first
    /// (ties broken toward the lower link id, so the order is
    /// deterministic).
    pub fn worst_links(&self, k: usize) -> Vec<LinkImpact> {
        let worse =
            |a: &LinkImpact, b: &LinkImpact| b.lost().cmp(&a.lost()).then(a.link.cmp(&b.link));
        // Partition an index permutation instead of cloning and fully
        // sorting `per_link`: O(n + k log k) and only the k winners sort.
        let mut order: Vec<usize> = (0..self.per_link.len()).collect();
        let k = k.min(order.len());
        if k > 0 && k < order.len() {
            order.select_nth_unstable_by(k - 1, |&a, &b| {
                worse(&self.per_link[a], &self.per_link[b])
            });
        }
        order.truncate(k);
        order.sort_unstable_by(|&a, &b| worse(&self.per_link[a], &self.per_link[b]));
        order.iter().map(|&i| self.per_link[i]).collect()
    }
}

impl fmt::Display for FailureSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.aggregate.fmt(f)
    }
}

/// What a destructive failure injection did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The links that failed.
    pub failed_links: Vec<LinkId>,
    /// Connections switched onto their (promoted) backups.
    pub switched: Vec<ConnectionId>,
    /// Connections whose backup could not be activated; their service is
    /// down and their resources were reclaimed.
    pub lost: Vec<ConnectionId>,
    /// Connections whose *backup* (not primary) crossed the failed link;
    /// the backup was dropped and they now run unprotected until
    /// re-established.
    pub unprotected: Vec<ConnectionId>,
    /// Number of activation-contention passes the injection ran. Always 1:
    /// every simultaneously-failed primary's backups contend in a single
    /// pass over the pre-failure pools, which is what makes a multi-link
    /// event atomic rather than a sequence of single-link injections.
    pub contention_passes: usize,
}

impl RecoveryReport {
    /// Affected primaries (switched + lost).
    pub fn affected(&self) -> usize {
        self.switched.len() + self.lost.len()
    }
}

/// What a crashed router recovers when it restarts — the one restart
/// vocabulary of both planes: [`DrtpManager::crash_restart_router`] takes
/// it here, and the message-level engine re-exports it as
/// `drt_proto::RestartMode` for `ChaosConfig::restart_mode`, so campaign
/// drivers can compare both arms with or without the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartMode {
    /// Channel tables are volatile and the journal dies with the crash:
    /// the restarted router remembers nothing and rejoins from scratch.
    /// Where neighbours detect the outage (the centralized model), every
    /// transiting connection is switched, lost, or stripped of its backup
    /// registrations — and the switchovers are *spurious*, since the
    /// router comes straight back; in the message-level engine only the
    /// crashed-router detection path mops up the orphans.
    #[default]
    Amnesia,
    /// The write-ahead journal survives the crash: the router replays it,
    /// then reconciles per-connection state with each neighbour (a
    /// `ResyncRequest` / `ResyncDigest` handshake in the message-level
    /// engine). Every table entry is recovered and no switchover fires.
    Journaled,
}

/// What one [`DrtpManager::crash_restart_router`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartReport {
    /// The router that crashed and restarted.
    pub node: NodeId,
    /// Recovery fidelity of this restart.
    pub mode: RestartMode,
    /// Table entries (primary hops plus backup registrations) the
    /// restarted router recovered via replay and resync. Zero under
    /// amnesia — that is the state the restart destroyed.
    pub recovered_entries: u64,
    /// Spurious switchovers: connections that switched off a router that
    /// came straight back. Empty under journaled recovery.
    pub switched: Vec<ConnectionId>,
    /// Connections destroyed by the state loss (no activatable backup).
    /// Empty under journaled recovery.
    pub lost: Vec<ConnectionId>,
    /// Connections that lost the backup they registered through the
    /// restarted router and now run unprotected.
    pub unprotected: Vec<ConnectionId>,
}

impl DrtpManager {
    /// Evaluates one hypothetical failure without mutating state.
    ///
    /// Affected connections — those carrying traffic whose primary crosses
    /// `link` — contend for activation bandwidth in one order:
    /// their id order, shuffled once by `rng` with
    /// [`SliceRandom::shuffle`] (near-simultaneous activation attempts
    /// have no canonical order). Each in turn activates its backup if that
    /// is alive and fits what earlier winners left of the per-link
    /// activation pools (spare plus free, Section 5); a multiplexed winner
    /// takes its bandwidth from every link of its backup. The same order
    /// and decisions hold for [`DrtpManager::probe_event`] and the
    /// injections.
    ///
    /// A link outside the network fails nothing: the outcome is empty.
    ///
    /// Runs in a thread-local probe workspace, so a warmed probe allocates
    /// only the outcome it returns.
    pub fn probe_single_failure(&self, link: LinkId, rng: &mut StdRng) -> ProbeOutcome {
        let failed_links = self.in_network(&link);
        let details = with_probe_scratch(|ws| {
            self.select_activations_in(failed_links, rng, ws, None);
            ws.details()
        });
        ProbeOutcome {
            failed_links: failed_links.to_vec(),
            details,
        }
    }

    /// `link` alone, or nothing when it lies outside the network.
    fn in_network<'a>(&self, link: &'a LinkId) -> &'a [LinkId] {
        if link.index() < self.net.num_links() {
            std::slice::from_ref(link)
        } else {
            &[]
        }
    }

    /// Probes every loaded link (those crossing ≥ 1 primary) and
    /// aggregates the results — the estimator for Figure 4 — together with
    /// the per-link breakdown ([`FailureSweep::worst_links`] ranks the
    /// most fragile ones) and each connection's fatal failures
    /// ([`FailureSweep::vulnerable`]).
    ///
    /// The `k`-th link of the network gets an independent RNG stream
    /// derived from `seed` and `k`, so the sweep is deterministic and
    /// insensitive to probe order.
    ///
    /// The decisions are those of [`DrtpManager::probe_single_failure`]
    /// under that stream, but only connections with a backup through a
    /// pool the failure over-subscribes run the contention pass: every
    /// other affected connection activates its backup if that is usable,
    /// whatever the order (see `failure_sweep`).
    ///
    /// The probe loop runs allocation-free in the thread-local probe
    /// workspace: per link it touches only the O(affected) connections
    /// incident to it, not the whole connection table. The report's own
    /// vectors are all the sweep allocates.
    pub fn sweep_single_failures(&self, seed: u64) -> FailureSweep {
        self.failure_sweep(seed, "failure-probe")
    }

    /// The single-failure report: the activation decisions of every
    /// working link whose failure disables a primary, in link order, with
    /// the `k`-th link's contention draws from
    /// `indexed_stream(seed, stream, k)`.
    ///
    /// **The certificate, per contender.** A failure of `L_j` activates,
    /// on link `L_k`, only backups registered in `APLV_k` under column
    /// `j`, so together they claim at most `bandwidth_{k,j}` there. Where
    /// the activation pool covers that column (`pool_k ≥
    /// bandwidth_{k,j}`), no earlier winner can leave a later backup
    /// without room. A column's *over-subscribed* links are the `L_i`
    /// with `pool_i < bandwidth_{i,j}`, and a contender is *hot* when its
    /// backup crosses one of them. Every other contender's backup crosses
    /// covered links only, so it activates — in any order — unless it
    /// crosses `L_j` itself, which `backups_on(j)` tells: no backup of a
    /// carrying connection crosses a failed link (invariant 1e). No record
    /// is read.
    ///
    /// The hot contenders run the contention pass of
    /// [`DrtpManager::probe_single_failure`] — the same shuffle of all
    /// contenders, with the others skipped. That is exact: only hot
    /// contenders take from an over-subscribed pool, and on a covered
    /// one every contender fits whoever went first. A link with no hot
    /// contender skips the shuffle; it draws from its own stream, so no
    /// other link's draw moves.
    ///
    /// Per link, each connection is one trial, however often its primary
    /// walks the link.
    pub(crate) fn failure_sweep(&self, seed: u64, stream: &str) -> FailureSweep {
        let mut sweep = FailureSweep::default();
        with_probe_scratch(|ws| {
            self.begin_sweep(ws);
            let mut column = 0;
            for (k, link) in self.net.links().map(|l| l.id()).enumerate() {
                let start = column;
                column += ws.oversubscribed[column..].partition_point(|&(j, _)| j <= link);
                let contenders = self.incidence.primaries_on(link);
                if self.failed[link.index()] || contenders.is_empty() {
                    continue;
                }
                // Stamps are unique within the sweep, so a link's marks
                // need no clearing before the next link's.
                let stamp = k as u32 + 1;
                for at in self.incidence.backups_on(link) {
                    ws.slots[at.slot as usize].crosses = stamp;
                }
                for &(_, i) in &ws.oversubscribed[start..column] {
                    for at in self.incidence.backups_on(i) {
                        ws.slots[at.slot as usize].hot = stamp;
                    }
                }
                let (mut affected, mut activated, mut hot) = (0, 0, false);
                let mut last = None;
                for &at in contenders {
                    if last.replace(at.id) == Some(at.id) {
                        continue;
                    }
                    affected += 1;
                    let marks = ws.slots[at.slot as usize];
                    // Without a backup a connection dies in every order.
                    sweep.aggregate.degraded += u64::from(marks.bare);
                    if marks.hot == stamp {
                        hot = true;
                        continue;
                    }
                    if !marks.bare && marks.crosses != stamp {
                        activated += 1;
                    } else {
                        sweep.per_conn.push((at.id, link));
                    }
                }
                if hot {
                    let mut rng = drt_sim::rng::indexed_stream(seed, stream, k as u64);
                    self.select_activations_in(&[link], &mut rng, ws, Some(stamp));
                    for &(at, won) in &ws.decisions {
                        if won {
                            activated += 1;
                        } else {
                            sweep.per_conn.push((at.id, link));
                        }
                    }
                }
                sweep.aggregate.affected += u64::from(affected);
                sweep.aggregate.activated += u64::from(activated);
                sweep.aggregate.trials += 1;
                sweep.per_link.push(LinkImpact {
                    link,
                    affected,
                    activated,
                });
            }
        });
        // The pairs are distinct, so the unstable sort is deterministic,
        // and it needs no scratch buffer.
        sweep.per_conn.sort_unstable();
        sweep
    }

    /// Readies `ws` for a sweep: one scan of the slab marks the records
    /// that hold no backup and clears every slot's stamps, and
    /// `ws.oversubscribed` receives every `(j, i)` whose failure of `L_j`
    /// would demand more of `L_i`'s activation pool than it holds
    /// (`bandwidth_{i,j} > spare_i + free_i`), sorted by `j`. Only links
    /// whose [`crate::Aplv::required_spare`] exceeds their pool can hold
    /// such a column, so the rest are a field read each.
    fn begin_sweep(&self, ws: &mut ProbeWorkspace) {
        ws.slots.clear();
        ws.slots.extend(self.conns.slab().map(|conn| SlotMarks {
            bare: conn.is_some_and(|c| c.backup().is_none()),
            crosses: 0,
            hot: 0,
        }));
        ws.oversubscribed.clear();
        for (i, aplv) in self.aplvs.iter().enumerate() {
            let pool = self.activation_pool_at(i);
            if aplv.required_spare() > pool {
                let i = LinkId::new(i as u32);
                ws.oversubscribed
                    .extend(aplv.columns_above(pool).map(|j| (j, i)));
            }
        }
        ws.oversubscribed.sort_unstable();
    }

    /// Evaluates a hypothetical correlated failure without mutating state —
    /// the multi-link generalisation of
    /// [`DrtpManager::probe_single_failure`].
    pub fn probe_event(&self, event: &FailureEvent, rng: &mut StdRng) -> ProbeOutcome {
        let failed_links = event.resolve(self);
        let details = with_probe_scratch(|ws| {
            self.select_activations_in(&failed_links, rng, ws, None);
            ws.details()
        });
        ProbeOutcome {
            failed_links,
            details,
        }
    }

    /// Destructively fails a directed link and runs DRTP recovery:
    /// winners of the activation contention switch onto their backups
    /// (promotion), losers are torn down, and intact connections whose
    /// backups crossed the failed link lose their protection.
    ///
    /// A link outside the network fails nothing: the report is empty.
    ///
    /// # Errors
    ///
    /// [`DrtpError::LinkFailed`] when the link is already failed.
    pub fn inject_failure(
        &mut self,
        link: LinkId,
        rng: &mut StdRng,
    ) -> Result<RecoveryReport, DrtpError> {
        if self.is_failed(link) {
            return Err(DrtpError::LinkFailed(link));
        }
        self.inject_event(&FailureEvent::Link(link), rng)
    }

    /// Destructively applies a correlated [`FailureEvent`] and runs DRTP
    /// recovery atomically: the backups of *all* simultaneously-disabled
    /// primaries contend in one activation pass over the pre-failure pools;
    /// a backup that itself crosses a failed link cannot win; winners
    /// promote, losers are torn down, and surviving connections whose
    /// backup crossed a failed link lose that protection.
    ///
    /// Already-failed links are skipped during resolution; an event that
    /// resolves to nothing (e.g. the crash of an already-isolated router)
    /// is a no-op producing an empty report.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` so correlated variants can gain
    /// preconditions without breaking callers.
    pub fn inject_event(
        &mut self,
        event: &FailureEvent,
        rng: &mut StdRng,
    ) -> Result<RecoveryReport, DrtpError> {
        let failed_links = event.resolve(self);
        // Decide winners on pre-failure state (near-simultaneous recovery:
        // losers' resources are not yet reclaimed when winners activate).
        let decisions = with_probe_scratch(|ws| {
            self.select_activations_in(&failed_links, rng, ws, None);
            std::mem::take(&mut ws.decisions)
        });

        for &l in &failed_links {
            self.failed[l.index()] = true;
        }

        let mut report = RecoveryReport {
            failed_links: failed_links.clone(),
            switched: Vec::new(),
            lost: Vec::new(),
            unprotected: Vec::new(),
            contention_passes: 1,
        };

        // Winners first: promote their backups while the decided pools
        // still hold (releasing primaries only adds slack).
        for &(at, won) in &decisions {
            if won {
                self.promote_winner(at.slot);
                report.switched.push(at.id);
            }
        }
        // Losers afterwards: tear down. The `Failed` record keeps its slot
        // until it is released.
        for &(at, won) in &decisions {
            if won {
                continue;
            }
            let mut conn = self.conns.take(at.slot);
            self.detach_all(at.slot, &conn);
            conn.take_backup();
            conn.set_state(ConnectionState::Failed);
            self.conns.put(at.slot, conn);
            report.lost.push(at.id);
        }

        // Intact connections whose backup crossed a failed link lose it
        // (it can never activate now) and become unprotected. The
        // incidence index — already updated for winners and losers above —
        // yields them directly; sort + dedup restores connection-table id
        // order (a backup may cross several failed links).
        let mut candidates: Vec<IndexEntry> = Vec::new();
        for &l in &failed_links {
            candidates.extend_from_slice(self.incidence.backups_on(l));
        }
        candidates.sort_unstable_by_key(|at| at.id);
        candidates.dedup();
        for at in candidates {
            // Taken out of the table so the surviving primary can be
            // borrowed while the dead backup unregisters.
            let mut conn = self.conns.take(at.slot);
            let dead = conn.take_backup().expect("an indexed backup is on record");
            let (lset, bw) = (conn.primary().links(), conn.qos().bandwidth);
            self.detach_backup(at, &dead, lset, bw, conn.backup_is_dedicated());
            report.unprotected.push(at.id);
            self.conns.put(at.slot, conn);
        }

        self.telemetry.incr("inject.events");
        self.telemetry
            .add("inject.links_failed", report.failed_links.len() as u64);
        self.telemetry
            .add("inject.switched", report.switched.len() as u64);
        self.telemetry.add("inject.lost", report.lost.len() as u64);
        self.telemetry
            .add("inject.unprotected", report.unprotected.len() as u64);
        Ok(report)
    }

    /// Switches the contention winner in `slot` onto its backup: the old
    /// primary and the backup are detached, the backup route is attached
    /// as the new primary, and the connection record promotes —
    /// in place: the slot, and so every new index entry, stays. Shared by
    /// [`DrtpManager::inject_event`] (real failures) and
    /// [`DrtpManager::inject_false_report`] (spoofed ones — the switch is
    /// identical, only the link's true state differs).
    fn promote_winner(&mut self, slot: u32) {
        // The record is taken out of the table for the duration so its
        // routes can be walked by reference — no per-winner route clones
        // on the recovery hot path.
        let mut conn = self.conns.take(slot);
        self.detach_all(slot, &conn);
        // The promoted backup route is the connection's new primary: a
        // dedicated one takes back the hard reservation it just released,
        // a multiplexed one converts activation bandwidth from the pools.
        let take = if conn.backup_is_dedicated() {
            LinkResources::admit_primary
        } else {
            LinkResources::promote_from_pools
        };
        let promoted = conn.backup().expect("a winner holds its backup").links();
        let at = IndexEntry::new(conn.id(), slot);
        self.attach_primary(at, promoted, conn.qos().bandwidth, take)
            .expect("activation pools cover decided winners");
        conn.promote_backup();
        self.conns.put(slot, conn);
    }

    /// A byzantine router's *false* failure report for a healthy link,
    /// taken at face value: every connection whose primary crosses `link`
    /// runs the ordinary activation contention and the winners switch
    /// onto their backups — spurious reroutes that burn backup capacity
    /// and leave the switchers unprotected — while the link itself stays
    /// up and keeps carrying the losers' (perfectly healthy) primaries
    /// untouched. No teardown, no backup-drop pass: nothing actually
    /// failed.
    ///
    /// This is the damage a `false LINK_FAIL` does when the manager has
    /// no report verification; the defended path rejects the report
    /// upstream (see `RecoveryOrchestrator::vet_report`) and never calls
    /// this.
    ///
    /// A report for a link outside the network reroutes nothing: the
    /// report is empty.
    ///
    /// # Errors
    ///
    /// [`DrtpError::LinkFailed`] when `link` is actually failed (a true
    /// report must go through [`DrtpManager::inject_event`]).
    pub fn inject_false_report(
        &mut self,
        link: LinkId,
        rng: &mut StdRng,
    ) -> Result<RecoveryReport, DrtpError> {
        if self.is_failed(link) {
            return Err(DrtpError::LinkFailed(link));
        }
        let decisions = with_probe_scratch(|ws| {
            self.select_activations_in(self.in_network(&link), rng, ws, None);
            std::mem::take(&mut ws.decisions)
        });

        let mut report = RecoveryReport {
            // Nothing actually failed: the report's failed set is empty
            // so accounting downstream never counts a phantom outage.
            failed_links: Vec::new(),
            switched: Vec::new(),
            lost: Vec::new(),
            unprotected: Vec::new(),
            contention_passes: 1,
        };
        // A loser of the phantom contention simply stays on its healthy
        // primary — there is nothing to tear down.
        for &(at, won) in &decisions {
            if won {
                self.promote_winner(at.slot);
                report.switched.push(at.id);
            }
        }
        self.telemetry.incr("adversary.false_reports");
        self.telemetry
            .add("adversary.false_reroutes", report.switched.len() as u64);
        Ok(report)
    }

    /// Crashes router `node` and restarts it within the same event, with
    /// recovery fidelity set by `mode`.
    ///
    /// Under [`RestartMode::Journaled`] the restart is invisible to the
    /// connection tables: replay plus neighbour resync recover every
    /// entry the router held, and the report only counts what was
    /// recovered. Under [`RestartMode::Amnesia`] the outage is a real
    /// node failure while it lasts — switchovers, losses, and dropped
    /// backup registrations all land exactly as
    /// [`DrtpManager::inject_event`] would inflict them — but the
    /// incident links come straight back up, which is what makes every
    /// switchover spurious: the network rerouted around a router that
    /// returned a moment later, minus all its state.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` to match the other injection
    /// seams so preconditions can be added without breaking callers.
    pub fn crash_restart_router(
        &mut self,
        node: NodeId,
        mode: RestartMode,
        rng: &mut StdRng,
    ) -> Result<RestartReport, DrtpError> {
        self.telemetry.incr("restart.events");
        match mode {
            RestartMode::Journaled => {
                let mut recovered = 0u64;
                // A node outside the network held no state to recover.
                if node.index() < self.net.num_nodes() {
                    for l in self.net.incident_links(node) {
                        recovered += self.incidence.primaries_on(l).len() as u64;
                        recovered += self.incidence.backups_on(l).len() as u64;
                    }
                }
                self.telemetry.add("restart.recovered_entries", recovered);
                self.telemetry.incr("restart.journaled_rejoins");
                Ok(RestartReport {
                    node,
                    mode,
                    recovered_entries: recovered,
                    switched: Vec::new(),
                    lost: Vec::new(),
                    unprotected: Vec::new(),
                })
            }
            RestartMode::Amnesia => {
                let report = self.inject_event(&FailureEvent::Node(node), rng)?;
                // The router is back before anything is repaired by hand:
                // clear the incident-link failures the injection set.
                for &l in &report.failed_links {
                    self.failed[l.index()] = false;
                }
                self.telemetry
                    .add("restart.spurious_switchovers", report.switched.len() as u64);
                self.telemetry
                    .add("restart.lost_connections", report.lost.len() as u64);
                self.telemetry.add(
                    "restart.registrations_lost",
                    report.unprotected.len() as u64,
                );
                Ok(RestartReport {
                    node,
                    mode,
                    recovered_entries: 0,
                    switched: report.switched,
                    lost: report.lost,
                    unprotected: report.unprotected,
                })
            }
        }
    }

    /// [`DrtpManager::sweep_single_failures`] plus telemetry: records the
    /// sweep aggregate (trials, activations, the `P_act-bk` gauge) into
    /// the manager's [`crate::Telemetry`] before returning it. The sweep
    /// itself is the same non-destructive probe; only the recording needs
    /// `&mut self`.
    pub fn sweep_single_failures_recorded(&mut self, seed: u64) -> FailureSweep {
        let sweep = self.sweep_single_failures(seed);
        self.telemetry.record_sweep(&sweep);
        sweep
    }

    /// Repairs a previously failed link. Existing connections are not
    /// re-routed; new requests may use the link again.
    ///
    /// # Errors
    ///
    /// [`DrtpError::LinkNotFailed`] when the link is not failed, or not a
    /// link of the network.
    pub fn repair_link(&mut self, link: LinkId) -> Result<(), DrtpError> {
        if !self.is_failed(link) {
            return Err(DrtpError::LinkNotFailed(link));
        }
        self.failed[link.index()] = false;
        Ok(())
    }

    /// The activation pool a probe may draw from on link index `i`: spare
    /// first, then free bandwidth (Section 5).
    fn activation_pool_at(&self, i: usize) -> Bandwidth {
        let lr = &self.links[i];
        lr.spare() + lr.free()
    }

    /// Shared winner selection: shuffle affected connections, then let each
    /// try its backup, claiming bandwidth from the per-link activation
    /// pools; a backup that is alive and fits wins. Decisions land in
    /// `ws.decisions`.
    ///
    /// Index-driven and allocation-free: the affected set is the union of
    /// the failed links' primary-incidence lists (sort + dedup restores the
    /// id order the documented shuffle starts from), failed-link membership
    /// is a generation-stamped mark array, and the per-link pools initialize
    /// lazily on first touch — a probe never walks all links or all
    /// connections, nor searches the table: the index hands it the slot.
    ///
    /// With `hot` set (the sweep's stamp for the probed link), the whole
    /// affected set is shuffled as always but only the connections whose
    /// slot carries that hot stamp are decided; the others are skipped and
    /// get no decision. Probes and injections pass `None` and skip nobody.
    fn select_activations_in(
        &self,
        failed_links: &[LinkId],
        rng: &mut StdRng,
        ws: &mut ProbeWorkspace,
        hot: Option<u32>,
    ) {
        ws.begin(self.net.num_links());
        for &l in failed_links {
            ws.mark_stamp[l.index()] = ws.gen;
            ws.affected
                .extend_from_slice(self.incidence.primaries_on(l));
        }
        ws.affected.sort_unstable_by_key(|at| at.id);
        ws.affected.dedup();
        ws.affected.shuffle(rng);

        for k in 0..ws.affected.len() {
            let at = ws.affected[k];
            if hot.is_some_and(|stamp| ws.slots[at.slot as usize].hot != stamp) {
                continue;
            }
            let conn = self.conns.at(at.slot);
            debug_assert_eq!(conn.id(), at.id, "index entry names a foreign slot");
            let bw = conn.qos().bandwidth;
            let won = conn.backup().is_some_and(|b| {
                let usable = b
                    .links()
                    .iter()
                    .all(|l| !self.failed[l.index()] && ws.mark_stamp[l.index()] != ws.gen);
                if !usable || conn.backup_is_dedicated() {
                    // A dedicated backup's bandwidth is already exclusively
                    // reserved.
                    return usable;
                }
                let fits = b.links().iter().all(|&l| {
                    let i = l.index();
                    if ws.pool_stamp[i] != ws.gen {
                        // First touch this probe: pools are sized from the
                        // live ledgers, before any deduction on this link.
                        ws.pool_stamp[i] = ws.gen;
                        ws.pool[i] = self.activation_pool_at(i);
                    }
                    ws.pool[i] >= bw
                });
                if fits {
                    for &l in b.links() {
                        ws.pool[l.index()] -= bw;
                    }
                }
                fits
            });
            ws.decisions.push((at, won));
        }
    }
}

/// Reusable, generation-stamped scratch state for failure probes —
/// the probe-side mirror of `drt_net`'s `SpfWorkspace`.
///
/// A probe needs per-link activation pools, a failed-link membership test,
/// the affected-connection list, and the decision vector. Allocating those
/// per probe makes a full sweep O(probes × links) in allocations alone;
/// instead every array here is *generation-stamped*: starting a probe bumps
/// a generation counter and an entry is meaningful only when its stamp
/// matches, so reset is O(1) and pools initialize lazily on first touch.
///
/// Every probe runs in the calling thread's instance
/// ([`with_probe_scratch`]).
#[derive(Debug, Clone)]
struct ProbeWorkspace {
    gen: u32,
    /// Stamp guarding `pool` (a pool value is valid iff stamp == gen).
    pool_stamp: Vec<u32>,
    /// Remaining activation bandwidth per link, this probe.
    pool: Vec<Bandwidth>,
    /// A link is failed-in-this-probe iff its mark stamp == gen — the O(1)
    /// membership test replacing linear `failed_links.contains` scans.
    mark_stamp: Vec<u32>,
    /// The connections whose primary the probed links disable, each with
    /// the slot of its record.
    affected: Vec<IndexEntry>,
    /// Per affected connection, whether its backup activated.
    decisions: Vec<(IndexEntry, bool)>,
    /// The sweep's over-subscribed `(j, i)` pairs, sorted by `j` — filled
    /// once per report by `DrtpManager::begin_sweep`.
    oversubscribed: Vec<(LinkId, LinkId)>,
    /// Per slot of the connection table, what the sweep knows of the
    /// record there without reading it.
    slots: Vec<SlotMarks>,
}

/// The sweep's per-slot marks. A stamp is the probed link's index plus
/// one, and means something only while that link is probed.
#[derive(Debug, Clone, Copy)]
struct SlotMarks {
    /// The record holds no backup.
    bare: bool,
    /// Stamped when the record's backup crosses the probed link.
    crosses: u32,
    /// Stamped when the record's backup crosses a link whose pool a
    /// failure of the probed link over-subscribes.
    hot: u32,
}

impl ProbeWorkspace {
    /// An empty workspace; arrays grow to the network size on first use.
    fn new() -> Self {
        ProbeWorkspace {
            gen: 0,
            pool_stamp: Vec::new(),
            pool: Vec::new(),
            mark_stamp: Vec::new(),
            affected: Vec::new(),
            decisions: Vec::new(),
            oversubscribed: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Starts a new probe generation sized for `num_links` links.
    fn begin(&mut self, num_links: usize) {
        if self.pool_stamp.len() < num_links {
            self.pool_stamp.resize(num_links, 0);
            self.pool.resize(num_links, Bandwidth::ZERO);
            self.mark_stamp.resize(num_links, 0);
        }
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation counter wrapped: stale stamps could collide
                // with a fresh generation, so clear them once.
                self.pool_stamp.iter_mut().for_each(|s| *s = 0);
                self.mark_stamp.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
        self.affected.clear();
        self.decisions.clear();
    }

    /// The decisions in their public shape, slots dropped.
    fn details(&self) -> Vec<(ConnectionId, bool)> {
        let public = self.decisions.iter().map(|(at, won)| (at.id, *won));
        public.collect()
    }
}

thread_local! {
    /// Per-thread probe scratch: parallel sweep workers each get their own
    /// workspace for free under scoped threads.
    static SCRATCH: std::cell::RefCell<ProbeWorkspace> =
        std::cell::RefCell::new(ProbeWorkspace::new());
}

/// Runs `f` with the thread-local [`ProbeWorkspace`]. Falls back to a
/// fresh workspace under re-entrancy (a probe initiated from inside a
/// probe) instead of panicking on the RefCell.
fn with_probe_scratch<R>(f: impl FnOnce(&mut ProbeWorkspace) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut ProbeWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::vulnerability;
    use crate::routing::{DLsr, DedicatedDisjoint, PrimaryOnly, RouteRequest};
    use drt_net::{topology, Bandwidth, NodeId};
    use std::sync::Arc;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn req(id: u64, src: u32, dst: u32) -> RouteRequest {
        RouteRequest::new(
            ConnectionId::new(id),
            NodeId::new(src),
            NodeId::new(dst),
            BW,
        )
    }

    fn rng() -> StdRng {
        drt_sim::rng::stream(7, "failure-tests")
    }

    #[test]
    fn probe_is_pure() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let before = format!("{mgr}");
        let link = *mgr
            .connection(ConnectionId::new(0))
            .unwrap()
            .primary()
            .links()
            .first()
            .unwrap();
        let out = mgr.probe_single_failure(link, &mut rng());
        assert_eq!(out.affected(), 1);
        assert_eq!(out.activated(), 1, "sole backup must activate");
        assert_eq!(format!("{mgr}"), before, "probe must not mutate");
        mgr.assert_invariants();
    }

    #[test]
    fn sweep_reports_full_tolerance_on_light_load() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        mgr.request_connection(&mut scheme, req(1, 6, 2)).unwrap();
        let sweep = mgr.sweep_single_failures(1);
        assert!(sweep.aggregate.trials > 0);
        assert_eq!(sweep.p_act_bk(), Some(1.0));
        assert_eq!(sweep.per_link.len(), sweep.aggregate.trials as usize);
        assert!(sweep.worst_links(3).iter().all(|li| li.lost() == 0));
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        for i in 0..5 {
            let _ = mgr.request_connection(&mut scheme, req(i, (i % 8) as u32, 8));
        }
        assert_eq!(mgr.sweep_single_failures(3), mgr.sweep_single_failures(3));
    }

    #[test]
    fn conflicting_backups_contend() {
        // Ring(4), 7 Mb/s links, two 3 Mb/s connections 0 -> 1: primaries
        // share the direct link, backups share the long way — the paper's
        // conflict situation. Under the paper's policy the spare pool on
        // the backup links *grows to 6 Mb/s* (Section 5), so both
        // activations succeed.
        let net = Arc::new(topology::ring(4, Bandwidth::from_kbps(7_000)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let r0 = mgr.request_connection(&mut scheme, req(0, 0, 1)).unwrap();
        let r1 = mgr.request_connection(&mut scheme, req(1, 0, 1)).unwrap();
        assert!(r1.conflicted);
        assert!(
            r1.spare_grown > Bandwidth::ZERO,
            "conflict grows the spare pool"
        );
        let backup_link = r0.backup().unwrap().links()[0];
        assert_eq!(
            mgr.link_resources(backup_link).spare(),
            Bandwidth::from_kbps(6_000)
        );

        let shared = mgr.net().find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let out = mgr.probe_single_failure(shared, &mut rng());
        assert_eq!(out.affected(), 2);
        assert_eq!(
            out.activated(),
            2,
            "grown spare covers both conflicting backups"
        );
    }

    #[test]
    fn inject_failure_switches_and_recovers() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let primary_link = rep.primary.links()[0];
        let backup = rep.backup().cloned().unwrap();

        let report = mgr.inject_failure(primary_link, &mut rng()).unwrap();
        assert_eq!(report.switched, vec![ConnectionId::new(0)]);
        assert!(report.lost.is_empty());
        assert!(mgr.is_failed(primary_link));

        let conn = mgr.connection(ConnectionId::new(0)).unwrap();
        assert_eq!(conn.state(), ConnectionState::Recovered);
        assert_eq!(conn.primary().links(), backup.links());
        assert!(conn.backup().is_none());
        mgr.assert_invariants();

        // Reconfiguration restores protection.
        mgr.reestablish_backup(&mut scheme, ConnectionId::new(0))
            .unwrap();
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().state(),
            ConnectionState::Protected
        );
        mgr.assert_invariants();

        // Repair allows the link again.
        mgr.repair_link(primary_link).unwrap();
        assert!(!mgr.is_failed(primary_link));
        assert_eq!(
            mgr.repair_link(primary_link).unwrap_err(),
            DrtpError::LinkNotFailed(primary_link)
        );
    }

    #[test]
    fn double_failure_rejected() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let l = drt_net::LinkId::new(0);
        mgr.inject_failure(l, &mut rng()).unwrap();
        assert_eq!(
            mgr.inject_failure(l, &mut rng()).unwrap_err(),
            DrtpError::LinkFailed(l)
        );
    }

    #[test]
    fn backup_crossing_failed_link_is_invalidated() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let backup_link = rep.backup().unwrap().links()[0];

        let report = mgr.inject_failure(backup_link, &mut rng()).unwrap();
        assert!(report.switched.is_empty());
        assert_eq!(report.unprotected, vec![ConnectionId::new(0)]);
        let conn = mgr.connection(ConnectionId::new(0)).unwrap();
        assert_eq!(conn.state(), ConnectionState::Unprotected);
        assert!(conn.backup().is_none());
        mgr.assert_invariants();
    }

    #[test]
    fn dedicated_backup_always_activates() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let rep = mgr
            .request_connection(&mut DedicatedDisjoint::new(), req(0, 0, 8))
            .unwrap();
        let primary_link = rep.primary.links()[0];
        let report = mgr.inject_failure(primary_link, &mut rng()).unwrap();
        assert_eq!(report.switched, vec![ConnectionId::new(0)]);
        mgr.assert_invariants();
        // After promotion the old backup's reservations carry the traffic.
        let conn = mgr.connection(ConnectionId::new(0)).unwrap();
        assert_eq!(conn.state(), ConnectionState::Recovered);
        mgr.release(ConnectionId::new(0)).unwrap();
        assert_eq!(mgr.total_prime(), Bandwidth::ZERO);
        mgr.assert_invariants();
    }

    #[test]
    fn lost_connection_resources_are_reclaimed() {
        // Path graph: no backup possible -> allow unprotected admission,
        // then fail the only route.
        let mut b = drt_net::NetworkBuilder::with_nodes(3);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(10))
            .unwrap();
        b.add_duplex_link(NodeId::new(1), NodeId::new(2), Bandwidth::from_mbps(10))
            .unwrap();
        let net = Arc::new(b.build());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = crate::routing::PrimaryOnly::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 2)).unwrap();
        let l = rep.primary.links()[0];
        let report = mgr.inject_failure(l, &mut rng()).unwrap();
        assert_eq!(report.lost, vec![ConnectionId::new(0)]);
        assert_eq!(mgr.total_prime(), Bandwidth::ZERO);
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().state(),
            ConnectionState::Failed
        );
        // Releasing a failed connection is a no-op.
        mgr.release(ConnectionId::new(0)).unwrap();
        mgr.assert_invariants();
    }

    fn route(net: &drt_net::Network, nodes: &[u32]) -> drt_net::Route {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        drt_net::Route::from_nodes(net, &ids).unwrap()
    }

    #[test]
    fn node_crash_resolves_to_incident_links_in_one_pass() {
        // 3x3 grid; two scripted primaries transit node 4 over *different*
        // incident links, with backups that avoid node 4 entirely.
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = crate::routing::Scripted::new();
        scheme
            .push(route(&net, &[3, 4, 5]), Some(route(&net, &[3, 0, 1, 2, 5])))
            .push(route(&net, &[1, 4, 7]), Some(route(&net, &[1, 2, 5, 8, 7])));
        mgr.request_connection(&mut scheme, req(0, 3, 5)).unwrap();
        mgr.request_connection(&mut scheme, req(1, 1, 7)).unwrap();

        let event = FailureEvent::Node(NodeId::new(4));
        let resolved = event.resolve(&mgr);
        assert_eq!(resolved.len(), 8, "grid-interior node has 4 duplex pairs");

        let report = mgr.inject_event(&event, &mut rng()).unwrap();
        assert_eq!(
            report.contention_passes, 1,
            "both disabled primaries must contend in a single pass"
        );
        assert_eq!(report.affected(), 2);
        let mut switched = report.switched.clone();
        switched.sort();
        assert_eq!(switched, vec![ConnectionId::new(0), ConnectionId::new(1)]);
        for l in resolved {
            assert!(mgr.is_failed(l));
        }
        mgr.assert_invariants();
    }

    #[test]
    fn node_crash_of_endpoint_loses_the_connection() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        // Crashing the destination kills the primary *and* the backup
        // (both terminate there), so nothing can activate.
        let report = mgr
            .inject_event(&FailureEvent::Node(NodeId::new(8)), &mut rng())
            .unwrap();
        assert_eq!(report.lost, vec![ConnectionId::new(0)]);
        assert!(report.switched.is_empty());
        mgr.assert_invariants();
    }

    #[test]
    fn srlg_event_fails_every_member() {
        let mut b = drt_net::NetworkBuilder::with_nodes(4);
        let (ab, _) = b
            .add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(10))
            .unwrap();
        let (bc, _) = b
            .add_duplex_link(NodeId::new(1), NodeId::new(2), Bandwidth::from_mbps(10))
            .unwrap();
        b.add_duplex_link(NodeId::new(0), NodeId::new(3), Bandwidth::from_mbps(10))
            .unwrap();
        b.add_duplex_link(NodeId::new(3), NodeId::new(2), Bandwidth::from_mbps(10))
            .unwrap();
        // One conduit carries both hops of the short path.
        let g = b.add_srlg(&[ab, bc]).unwrap();
        let net = Arc::new(b.build());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = crate::routing::Scripted::new();
        scheme.push(route(&net, &[0, 1, 2]), Some(route(&net, &[0, 3, 2])));
        mgr.request_connection(&mut scheme, req(0, 0, 2)).unwrap();

        let report = mgr
            .inject_event(&FailureEvent::Srlg(g), &mut rng())
            .unwrap();
        assert_eq!(report.failed_links.len(), 2, "both members fail");
        assert_eq!(report.switched, vec![ConnectionId::new(0)]);
        assert_eq!(report.contention_passes, 1);
        mgr.assert_invariants();
    }

    #[test]
    fn batch_event_unions_and_dedups() {
        let net = Arc::new(topology::ring(5, Bandwidth::from_mbps(10)).unwrap());
        let mgr = DrtpManager::new(Arc::clone(&net));
        let l0 = drt_net::LinkId::new(0);
        let batch = FailureEvent::Batch(vec![
            FailureEvent::Link(l0),
            FailureEvent::Link(l0), // duplicate collapses
            FailureEvent::Node(NodeId::new(3)),
        ]);
        let resolved = batch.resolve(&mgr);
        let mut expect: BTreeSet<LinkId> = mgr.net().incident_links(NodeId::new(3)).collect();
        expect.insert(l0);
        assert_eq!(resolved, expect.into_iter().collect::<Vec<_>>());
        assert_eq!(format!("{batch}"), "batch[link L0, link L0, crash n3]");
    }

    #[test]
    fn journaled_restart_recovers_everything_untouched() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        mgr.request_connection(&mut scheme, req(1, 6, 2)).unwrap();
        let before = format!("{mgr}");
        // An interior hop of connection 0's primary definitely holds
        // table state to recover.
        let victim = mgr
            .connection(ConnectionId::new(0))
            .unwrap()
            .primary()
            .nodes(&net)[1];

        let report = mgr
            .crash_restart_router(victim, RestartMode::Journaled, &mut rng())
            .unwrap();
        assert!(report.recovered_entries > 0, "the router held state");
        assert!(report.switched.is_empty() && report.lost.is_empty());
        assert_eq!(
            format!("{mgr}"),
            before,
            "journaled recovery must be invisible to the connection tables"
        );
        assert_eq!(mgr.telemetry().counter("restart.journaled_rejoins"), 1);
        assert_eq!(mgr.telemetry().counter("restart.spurious_switchovers"), 0);
        mgr.assert_invariants();
    }

    #[test]
    fn amnesia_restart_switches_spuriously_and_links_come_back() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let old_primary = mgr
            .connection(ConnectionId::new(0))
            .unwrap()
            .primary()
            .clone();
        let victim = old_primary.nodes(&net)[1];

        let report = mgr
            .crash_restart_router(victim, RestartMode::Amnesia, &mut rng())
            .unwrap();
        assert_eq!(
            report.switched,
            vec![ConnectionId::new(0)],
            "the transiting connection switches off the restarting router"
        );
        assert_eq!(report.recovered_entries, 0);
        // The restart is over: every link is back up, which is exactly
        // what makes the switchover spurious.
        for l in net.incident_links(victim) {
            assert!(!mgr.is_failed(l), "{l} must be repaired by the rejoin");
        }
        let now_primary = mgr
            .connection(ConnectionId::new(0))
            .unwrap()
            .primary()
            .clone();
        assert_ne!(
            format!("{old_primary:?}"),
            format!("{now_primary:?}"),
            "the connection abandoned a primary that is healthy again"
        );
        assert!(mgr.telemetry().counter("restart.spurious_switchovers") >= 1);
        mgr.assert_invariants();
    }

    #[test]
    fn resolve_skips_already_failed_links() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let l = drt_net::LinkId::new(0);
        mgr.inject_failure(l, &mut rng()).unwrap();
        let again = FailureEvent::Link(l).resolve(&mgr);
        assert!(again.is_empty(), "an already-failed link cannot re-fail");
        // Injecting the resolved-to-nothing event is a harmless no-op.
        let report = mgr
            .inject_event(&FailureEvent::Link(l), &mut rng())
            .unwrap();
        assert_eq!(report.affected(), 0);
        mgr.assert_invariants();
    }

    /// The whole report of `failure_sweep(seed, stream)`, rebuilt from
    /// `probe_single_failure` under the `k`-th link's stream for each
    /// working link.
    fn probed_sweep(mgr: &DrtpManager, seed: u64, stream: &str) -> FailureSweep {
        let mut sweep = FailureSweep::default();
        for (k, link) in mgr.net().links().map(|l| l.id()).enumerate() {
            if mgr.is_failed(link) {
                continue;
            }
            let mut rng = drt_sim::rng::indexed_stream(seed, stream, k as u64);
            let out = mgr.probe_single_failure(link, &mut rng);
            if out.affected() == 0 {
                continue;
            }
            for &(c, won) in &out.details {
                if !won {
                    sweep.per_conn.push((c, link));
                    let bare = mgr.connection(c).unwrap().backup().is_none();
                    sweep.aggregate.degraded += u64::from(bare);
                }
            }
            sweep.aggregate.affected += out.affected() as u64;
            sweep.aggregate.activated += out.activated() as u64;
            sweep.aggregate.trials += 1;
            sweep.per_link.push(LinkImpact {
                link,
                affected: out.affected() as u32,
                activated: out.activated() as u32,
            });
        }
        sweep.per_conn.sort();
        sweep
    }

    /// The links whose failure over-subscribes some activation pool, as
    /// `begin_sweep` lists them: the only ones that can have a hot
    /// contender.
    fn contended(mgr: &DrtpManager) -> Vec<LinkId> {
        with_probe_scratch(|ws| {
            mgr.begin_sweep(ws);
            let mut columns: Vec<LinkId> = ws.oversubscribed.iter().map(|&(j, _)| j).collect();
            columns.dedup();
            columns
        })
    }

    /// The hot contenders of a failure of `link`, from the definition and
    /// the manager's public reads: the carrying connections whose primary
    /// crosses `link` and whose backup crosses a link `L_i` with
    /// `spare_i + free_i < bandwidth_{i,link}`.
    fn hot(mgr: &DrtpManager, link: LinkId) -> Vec<ConnectionId> {
        let oversubscribed = |i: LinkId| {
            let lr = mgr.link_resources(i);
            lr.spare() + lr.free() < mgr.aplv(i).bandwidth(link)
        };
        mgr.connections()
            .filter(|c| c.state().is_carrying_traffic() && c.primary().contains_link(link))
            .filter(|c| {
                c.backup()
                    .is_some_and(|b| b.links().iter().any(|&i| oversubscribed(i)))
            })
            .map(|c| c.id())
            .collect()
    }

    /// Ring(4) of 7 Mb/s links and two 3 Mb/s connections `0 → 1` whose
    /// backups both take the long way `0 → 3 → 2 → 1`: their column of
    /// `APLV` there asks for 6 Mb/s. On its own the spare grows to that;
    /// with `exhaust`, a 3 Mb/s primary-only connection over the long way
    /// comes first and leaves 4 Mb/s to grow into, so `free` is exhausted
    /// and the pool falls short of the column.
    fn conflicting_ring(exhaust: bool) -> DrtpManager {
        let net = Arc::new(topology::ring(4, Bandwidth::from_kbps(7_000)).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = crate::routing::Scripted::new();
        let (direct, long) = (route(&net, &[0, 1]), route(&net, &[0, 3, 2, 1]));
        if exhaust {
            scheme.push(long.clone(), None);
        }
        scheme
            .push(direct.clone(), Some(long.clone()))
            .push(direct, Some(long));
        for id in 0..2 + u64::from(exhaust) {
            mgr.request_connection(&mut scheme, req(id, 0, 1)).unwrap();
        }
        mgr
    }

    /// A 4×4 mesh of 10 Mb/s links under four D-LSR connections, two of
    /// them between the same pair: every backup fits its pool.
    fn protected_mesh() -> DrtpManager {
        let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        for (id, (s, d)) in [(4, 7), (4, 7), (8, 11), (1, 13)].into_iter().enumerate() {
            mgr.request_connection(&mut scheme, req(id as u64, s, d))
                .unwrap();
        }
        mgr
    }

    /// A 3×3 mesh with one primary-only connection `0 → 8`, which dies
    /// with any link of its primary.
    fn bare_mesh() -> DrtpManager {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        mgr.request_connection(&mut PrimaryOnly::new(), req(0, 0, 8))
            .unwrap();
        mgr
    }

    #[test]
    fn covered_columns_skip_the_contention_pass_with_the_same_report() {
        let ring = conflicting_ring(false);
        let direct = ring
            .net()
            .find_link(NodeId::new(0), NodeId::new(1))
            .unwrap();
        let long = ring
            .net()
            .find_link(NodeId::new(0), NodeId::new(3))
            .unwrap();
        assert_eq!(ring.aplv(long).count(direct), 2, "the backups conflict");
        let bare = bare_mesh();
        let mut fatal = bare
            .connection(ConnectionId::new(0))
            .unwrap()
            .primary()
            .links()
            .to_vec();
        fatal.sort();

        for (mgr, fatal) in [(ring, vec![]), (protected_mesh(), vec![]), (bare, fatal)] {
            let covered = mgr.net().links().all(|l| {
                let lr = mgr.link_resources(l.id());
                mgr.aplv(l.id()).required_spare() <= lr.spare() + lr.free()
            });
            assert!(covered, "every pool covers every column");
            assert!(contended(&mgr).is_empty());
            assert!(mgr.net().links().all(|l| hot(&mgr, l.id()).is_empty()));
            for seed in 0..8 {
                let sweep = mgr.sweep_single_failures(seed);
                assert_eq!(sweep, probed_sweep(&mgr, seed, "failure-probe"));
                let report = vulnerability(&mgr, seed);
                assert_eq!(report, probed_sweep(&mgr, seed, "vulnerability"));
                assert!(sweep.aggregate.trials > 0);
                // Only the bare connection dies, with each link of its
                // primary, and for want of a backup.
                let kills: Vec<_> = fatal.iter().map(|&l| (ConnectionId::new(0), l)).collect();
                assert_eq!(sweep.per_conn, kills);
                assert_eq!(sweep.vulnerable_count(), usize::from(!fatal.is_empty()));
                let lost = sweep.aggregate.affected - sweep.aggregate.activated;
                assert_eq!(lost, fatal.len() as u64);
                assert_eq!(sweep.aggregate.degraded, fatal.len() as u64);
            }
        }
    }

    #[test]
    fn uncovered_column_runs_the_contention_pass() {
        let mgr = conflicting_ring(true);
        let net = mgr.net();
        let direct = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let long = net.find_link(NodeId::new(0), NodeId::new(3)).unwrap();
        let lr = mgr.link_resources(long);
        assert!(
            lr.free().is_zero(),
            "the long way has no free bandwidth left"
        );
        assert!(lr.spare() < mgr.aplv(long).bandwidth(direct));
        assert_eq!(contended(&mgr), vec![direct]);
        // The two conflicting connections are hot; the bare one is not.
        let c = ConnectionId::new;
        assert_eq!(hot(&mgr, direct), [c(1), c(2)]);

        let mut losers = [BTreeSet::new(), BTreeSet::new()];
        for seed in 0..16 {
            let reports = [mgr.sweep_single_failures(seed), vulnerability(&mgr, seed)];
            for ((report, stream), losers) in reports
                .iter()
                .zip(["failure-probe", "vulnerability"])
                .zip(&mut losers)
            {
                assert_eq!(*report, probed_sweep(&mgr, seed, stream));
                let hit = report.per_link.iter().find(|li| li.link == direct).unwrap();
                assert_eq!((hit.affected, hit.activated), (2, 1), "one backup fits");
                // The bare connection dies with any link of its primary; of
                // the two conflicting backups one fits, and which one is
                // the shuffle's draw.
                let killed: Vec<(ConnectionId, Vec<LinkId>)> = report
                    .vulnerable()
                    .map(|(c, links)| (c, links.collect()))
                    .collect();
                assert_eq!(killed.len(), 2, "{stream}: {killed:?}");
                assert_eq!(killed[0].0, ConnectionId::new(0));
                assert_eq!(killed[0].1.len(), 3);
                assert_eq!(killed[1].1, [direct]);
                losers.insert(killed[1].0);
            }
        }
        for losers in losers {
            assert_eq!(losers.len(), 2, "either connection can lose the draw");
        }
    }

    #[test]
    fn a_primary_that_walks_the_probed_link_twice_is_one_trial() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = crate::routing::Scripted::new();
        scheme.push(route(&net, &[0, 1, 0, 1]), Some(route(&net, &[0, 3, 2, 1])));
        mgr.request_connection(&mut scheme, req(0, 0, 1)).unwrap();
        let forth = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let primary = mgr.connection(ConnectionId::new(0)).unwrap().primary();
        assert_eq!(primary.links().iter().filter(|&&l| l == forth).count(), 2);

        for seed in 0..4 {
            let sweep = mgr.sweep_single_failures(seed);
            assert_eq!(sweep, probed_sweep(&mgr, seed, "failure-probe"));
            let hit = sweep.per_link.iter().find(|li| li.link == forth).unwrap();
            assert_eq!((hit.affected, hit.activated), (1, 1));
            let mut rng = drt_sim::rng::stream(seed, "double-walk");
            assert_eq!(mgr.probe_single_failure(forth, &mut rng).affected(), 1);
        }
        // The reverse link is on the primary too, and its failure leaves
        // the backup usable; only a link of the backup can kill the
        // connection, and none of those is on the primary.
        let sweep = mgr.sweep_single_failures(0);
        assert!(sweep.per_conn.is_empty());
        assert_eq!(sweep.aggregate.affected, 2, "{:?}", sweep.per_link);

        // A bare primary that walks the link twice dies there once.
        let mut bare = DrtpManager::new(Arc::clone(&net));
        let mut scheme = crate::routing::Scripted::new();
        scheme.push(route(&net, &[0, 1, 0, 1]), None);
        bare.request_connection(&mut scheme, req(0, 0, 1)).unwrap();
        let sweep = bare.sweep_single_failures(0);
        assert_eq!(sweep, probed_sweep(&bare, 0, "failure-probe"));
        assert!(sweep.per_conn.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(sweep.per_conn.len(), 2, "{:?}", sweep.per_conn);
        assert_eq!(sweep.aggregate.degraded, 2);
    }

    /// Random states on a small network of 6 Mb/s links: D-LSR
    /// connections, each followed by a twin on the same two routes — a
    /// second connection whose backup conflicts with the first on every
    /// link and draws on the same pools — primary-only ones that eat the
    /// free bandwidth, one dedicated connection and a few failed links.
    /// Their pools fall short of their columns, so failures have hot
    /// contenders, and the sweep must still be the probe's, link for link.
    #[test]
    fn hot_contenders_are_decided_as_the_probe_decides_them() {
        use proptest::test_runner::ProptestConfig;
        use rand::Rng;
        let (mut hot_lost, mut hot_won) = (0u64, 0u64);
        proptest::run_cases(
            "hot_contenders_are_decided_as_the_probe_decides_them",
            &ProptestConfig::with_cases(24),
            |rng| {
                let topo = rng.gen::<u64>();
                let net = topology::random_connected(10, 14, Bandwidth::from_mbps(6), topo);
                let net = Arc::new(net.unwrap());
                let nodes = net.num_nodes() as u32;
                let mut mgr = DrtpManager::new(Arc::clone(&net));
                let mut dlsr = DLsr::new();
                let pick = |rng: &mut StdRng| {
                    let src = rng.gen_range(0..nodes);
                    (src, (src + rng.gen_range(1..nodes)) % nodes)
                };
                let (src, dst) = pick(rng);
                let _ = mgr.request_connection(&mut DedicatedDisjoint::new(), req(0, src, dst));
                for id in 1..40 {
                    let (src, dst) = pick(rng);
                    let bw = Bandwidth::from_mbps(rng.gen_range(1..=3));
                    let request = RouteRequest::new(
                        ConnectionId::new(id),
                        NodeId::new(src),
                        NodeId::new(dst),
                        bw,
                    );
                    if rng.gen_range(0..4) == 0 {
                        let _ = mgr.request_connection(&mut PrimaryOnly::new(), request);
                    } else if let Ok(rep) = mgr.request_connection(&mut dlsr, request) {
                        let mut twin = crate::routing::Scripted::new();
                        twin.push(rep.primary, rep.backups);
                        let twin_req = RouteRequest {
                            id: ConnectionId::new(100 + id),
                            ..request
                        };
                        let _ = mgr.request_connection(&mut twin, twin_req);
                    }
                    if rng.gen_range(0..10) == 0 {
                        let link = LinkId::new(rng.gen_range(0..net.num_links() as u32));
                        let _ = mgr.inject_failure(link, rng);
                    }
                }
                mgr.assert_invariants();
                let hot_sets: Vec<(usize, LinkId, Vec<ConnectionId>)> = net
                    .links()
                    .map(|l| l.id())
                    .enumerate()
                    .filter(|&(_, link)| !mgr.is_failed(link))
                    .map(|(k, link)| (k, link, hot(&mgr, link)))
                    .filter(|(.., hot)| !hot.is_empty())
                    .collect();
                for seed in 0..16 {
                    for stream in ["failure-probe", "vulnerability"] {
                        let sweep = mgr.failure_sweep(seed, stream);
                        proptest::prop_assert_eq!(&sweep, &probed_sweep(&mgr, seed, stream));
                        for (k, link, hot) in &hot_sets {
                            let mut rng = drt_sim::rng::indexed_stream(seed, stream, *k as u64);
                            let out = mgr.probe_single_failure(*link, &mut rng);
                            for (c, won) in out.details {
                                match won {
                                    _ if !hot.contains(&c) => {}
                                    true => hot_won += 1,
                                    false => hot_lost += 1,
                                }
                            }
                        }
                    }
                }
                Ok(())
            },
        );
        assert!(hot_lost > 0, "no hot contender lost ({hot_won} won)");
        assert!(hot_won > 0, "no hot contender won ({hot_lost} lost)");
    }

    #[test]
    fn ids_outside_the_network_fail_nothing() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        mgr.request_connection(&mut DLsr::new(), req(0, 0, 8))
            .unwrap();
        let bogus = LinkId::new(net.num_links() as u32);
        let nowhere = NodeId::new(net.num_nodes() as u32);
        assert!(!mgr.is_failed(bogus));
        assert!(FailureEvent::Link(bogus).resolve(&mgr).is_empty());
        assert!(FailureEvent::Node(nowhere).resolve(&mgr).is_empty());

        let probe = mgr.probe_single_failure(bogus, &mut rng());
        assert!(probe.failed_links.is_empty() && probe.affected() == 0);
        let report = mgr.inject_false_report(bogus, &mut rng()).unwrap();
        assert!(report.failed_links.is_empty() && report.switched.is_empty());
        let report = mgr.inject_failure(bogus, &mut rng()).unwrap();
        assert!(report.failed_links.is_empty() && report.affected() == 0);
        let event =
            FailureEvent::Batch(vec![FailureEvent::Link(bogus), FailureEvent::Node(nowhere)]);
        let report = mgr.inject_event(&event, &mut rng()).unwrap();
        assert!(report.failed_links.is_empty() && report.unprotected.is_empty());
        assert_eq!(
            mgr.repair_link(bogus).unwrap_err(),
            DrtpError::LinkNotFailed(bogus)
        );
        for mode in [RestartMode::Journaled, RestartMode::Amnesia] {
            let report = mgr.crash_restart_router(nowhere, mode, &mut rng()).unwrap();
            assert_eq!(report.recovered_entries, 0, "{mode:?}");
            assert!(report.switched.is_empty() && report.lost.is_empty());
            assert!(report.unprotected.is_empty());
        }
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().state(),
            ConnectionState::Protected
        );
        mgr.assert_invariants();
    }

    #[test]
    fn probe_event_is_pure() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let before = mgr.fingerprint();
        let out = mgr.probe_event(&FailureEvent::Node(NodeId::new(4)), &mut rng());
        assert!(out.failed_links.len() >= 2);
        assert_eq!(mgr.fingerprint(), before, "probe must not mutate");
    }
}

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
//! loaded failure unit, which is the lowest-variance estimator of
//! `P_act-bk` under the paper's single-failure model.
//!
//! [`DrtpManager::inject_failure`] performs the real thing: detection,
//! switchover (backup promotion), resource reclamation for unrecoverable
//! connections, and invalidation of backups that crossed the failed link
//! (steps 2–4 of DRTP, with re-establishment available via
//! [`DrtpManager::reestablish_backup`]).

use crate::incidence::IndexEntry;
use crate::multiplex::{ActivationPool, FailureModel};
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
    /// One link fails (expanded to its duplex twin under
    /// [`FailureModel::DuplexPair`]).
    Link(LinkId),
    /// A router crashes: every link incident to the node fails.
    Node(NodeId),
    /// A shared-risk group is cut: every member link fails (each expanded
    /// per the configured [`FailureModel`]).
    Srlg(SrlgId),
    /// Several events strike simultaneously and are resolved in one
    /// activation pass.
    Batch(Vec<FailureEvent>),
}

impl FailureEvent {
    /// The deduplicated, sorted set of links this event disables under
    /// `mgr`'s failure model. Links that are already failed are excluded
    /// (they cannot fail twice); unknown SRLG ids resolve to nothing.
    pub fn resolve(&self, mgr: &DrtpManager) -> Vec<LinkId> {
        let mut set = BTreeSet::new();
        self.collect(mgr, &mut set);
        // lint:allow(probe-alloc) — event resolution is O(event), not the per-probe loop
        set.into_iter().filter(|l| !mgr.failed[l.index()]).collect()
    }

    fn collect(&self, mgr: &DrtpManager, out: &mut BTreeSet<LinkId>) {
        match self {
            FailureEvent::Link(l) => out.extend(mgr.failure_unit(*l)),
            FailureEvent::Node(n) => {
                for l in mgr.net.incident_links(*n) {
                    out.insert(l);
                }
            }
            FailureEvent::Srlg(g) => {
                for &l in mgr.net.get_srlg(*g).unwrap_or(&[]) {
                    out.extend(mgr.failure_unit(l));
                }
            }
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
    /// The links that failed in this trial (one, or two under
    /// [`FailureModel::DuplexPair`]).
    pub failed_links: Vec<LinkId>,
    /// Per affected connection: the priority index of the backup that
    /// would/did activate, or `None` when none could.
    pub details: Vec<(ConnectionId, Option<usize>)>,
}

impl ProbeOutcome {
    /// Number of connections whose primary the failure disabled.
    pub fn affected(&self) -> usize {
        self.details.len()
    }

    /// Number of affected connections for which a backup activated.
    pub fn activated(&self) -> usize {
        self.details.iter().filter(|(_, won)| won.is_some()).count()
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
    /// Number of failure units probed (those affecting ≥ 1 primary).
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
    /// fails and `backup_index` activates: the report travels from the
    /// failed link's upstream node back to the source along the primary,
    /// then the switch message traverses the backup.
    ///
    /// Returns `None` when `failed` is not on the primary or the backup
    /// index is out of range.
    pub fn switchover_latency(
        &self,
        conn: &crate::DrConnection,
        failed: LinkId,
        backup_index: usize,
    ) -> Option<drt_sim::SimDuration> {
        let report_hops = conn.primary().links().iter().position(|&l| l == failed)?;
        let backup = conn.backups().get(backup_index)?;
        Some(self.latency(report_hops, backup.len()))
    }
}

/// Fault-tolerance impact of failing one specific unit, kept per link by
/// [`DrtpManager::sweep_single_failures`] so campaign reports can name the
/// most fragile links instead of only quoting the network-wide average.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkImpact {
    /// The representative link of the probed failure unit.
    pub link: LinkId,
    /// Primaries the unit's failure disables.
    pub affected: u32,
    /// How many of those activate a backup.
    pub activated: u32,
}

impl LinkImpact {
    /// Connections that lose service when this unit fails.
    pub fn lost(&self) -> u32 {
        self.affected - self.activated
    }
}

/// Result of a full single-failure sweep: the aggregate Figure-4 estimate
/// plus the per-unit breakdown behind it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureSweep {
    /// The aggregate statistics (the paper's estimator).
    pub aggregate: FaultToleranceSample,
    /// One entry per probed failure unit that affected ≥ 1 primary, in
    /// link-id order.
    pub per_link: Vec<LinkImpact>,
}

impl FailureSweep {
    /// `P_act-bk`, or `None` when no trial affected any primary.
    pub fn p_act_bk(&self) -> Option<f64> {
        self.aggregate.p_act_bk()
    }

    /// The `k` failure units that lose the most connections, worst first
    /// (ties broken toward the lower link id, so the order is
    /// deterministic).
    pub fn worst_links(&self, k: usize) -> Vec<LinkImpact> {
        let worse =
            |a: &LinkImpact, b: &LinkImpact| b.lost().cmp(&a.lost()).then(a.link.cmp(&b.link));
        // Partition an index permutation instead of cloning and fully
        // sorting `per_link`: O(n + k log k) and only the k winners sort.
        let mut order: Vec<usize> = (0..self.per_link.len()).collect(); // lint:allow(probe-alloc) — O(per-link) report ranking, not a probe
        let k = k.min(order.len());
        if k > 0 && k < order.len() {
            order.select_nth_unstable_by(k - 1, |&a, &b| {
                worse(&self.per_link[a], &self.per_link[b])
            });
        }
        order.truncate(k);
        order.sort_unstable_by(|&a, &b| worse(&self.per_link[a], &self.per_link[b]));
        order.iter().map(|&i| self.per_link[i]).collect() // lint:allow(probe-alloc) — O(k) result materialization
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

/// How a crashed router recovers its channel tables on restart — the
/// centralized mirror of `drt_proto`'s crash-recovery modes, so campaign
/// drivers can compare both arms without the message-level simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartMode {
    /// Channel tables are volatile: the restarted router remembers
    /// nothing. Neighbours detect the outage, every transiting
    /// connection is switched, lost, or stripped of its backup
    /// registrations — and the switchovers are *spurious*, since the
    /// router comes straight back.
    #[default]
    Amnesia,
    /// The router replays its write-ahead journal and resyncs with its
    /// neighbours: every table entry is recovered and no switchover
    /// fires.
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
    /// Connections that lost every backup registered through the
    /// restarted router and now run unprotected.
    pub unprotected: Vec<ConnectionId>,
}

impl DrtpManager {
    /// The set of links that fail together with `link` under the
    /// configured [`FailureModel`].
    pub fn failure_unit(&self, link: LinkId) -> Vec<LinkId> {
        match self.cfg.failure_model {
            FailureModel::DirectedLink => vec![link],
            FailureModel::DuplexPair => match self.net.reverse_link(link) {
                Some(rev) => vec![link, rev],
                None => vec![link],
            },
        }
    }

    /// Enumerates one representative link per failure unit (every directed
    /// link, or the lower-id half of every duplex pair).
    pub fn failure_units(&self) -> Vec<LinkId> {
        match self.cfg.failure_model {
            FailureModel::DirectedLink => self.net.links().map(|l| l.id()).collect(), // lint:allow(probe-alloc) — unit enumeration runs once per sweep
            FailureModel::DuplexPair => self
                .net
                .links()
                .filter(|l| match l.reverse() {
                    Some(rev) => l.id() < rev,
                    None => true,
                })
                .map(|l| l.id())
                .collect(), // lint:allow(probe-alloc) — unit enumeration runs once per sweep
        }
    }

    /// Writes the failure unit of `link` into `buf`, returning the filled
    /// prefix — the allocation-free form of [`DrtpManager::failure_unit`]
    /// for the probe hot paths (a unit is at most two links).
    fn failure_unit_buf<'b>(&self, link: LinkId, buf: &'b mut [LinkId; 2]) -> &'b [LinkId] {
        buf[0] = link;
        match self.cfg.failure_model {
            FailureModel::DirectedLink => &buf[..1],
            FailureModel::DuplexPair => match self.net.reverse_link(link) {
                Some(rev) => {
                    buf[1] = rev;
                    &buf[..2]
                }
                None => &buf[..1],
            },
        }
    }

    /// Evaluates one hypothetical failure without mutating state.
    ///
    /// Affected connections contend for activation bandwidth in an order
    /// shuffled by `rng` (near-simultaneous activation attempts have no
    /// canonical order); each draws from per-link pools sized by the
    /// configured [`ActivationPool`]. Uses the thread-local
    /// [`ProbeWorkspace`]; [`DrtpManager::probe_single_failure_in`] is the
    /// caller-managed form.
    pub fn probe_single_failure(&self, link: LinkId, rng: &mut StdRng) -> ProbeOutcome {
        with_probe_scratch(|ws| self.probe_single_failure_in(link, rng, ws))
    }

    /// [`DrtpManager::probe_single_failure`] into a caller-managed
    /// [`ProbeWorkspace`] — the form to use when probing in a loop on a
    /// thread you control.
    pub fn probe_single_failure_in(
        &self,
        link: LinkId,
        rng: &mut StdRng,
        ws: &mut ProbeWorkspace,
    ) -> ProbeOutcome {
        let mut buf = [link; 2];
        let unit = self.failure_unit_buf(link, &mut buf);
        self.select_activations_in(unit, rng, ws);
        ProbeOutcome {
            failed_links: unit.to_vec(),
            details: ws.details(),
        }
    }

    /// Probes every loaded failure unit (those crossing ≥ 1 primary) and
    /// aggregates the results — the estimator for Figure 4 — together with
    /// the per-unit breakdown ([`FailureSweep::worst_links`] ranks the
    /// most fragile ones).
    ///
    /// Each unit gets an independent RNG stream derived from `seed`, so the
    /// sweep is deterministic and insensitive to unit order.
    pub fn sweep_single_failures(&self, seed: u64) -> FailureSweep {
        self.sweep_failure_units(seed, &self.failure_units(), 0)
    }

    /// Probes a contiguous slice of [`DrtpManager::failure_units`] whose
    /// first element has global enumeration index `base` — the shardable
    /// form of [`DrtpManager::sweep_single_failures`]. Each unit's RNG
    /// stream is derived from its *global* index, so sweeping `[a..b)` and
    /// `[b..c)` separately and concatenating the results is bit-identical
    /// to sweeping `[a..c)` in one call; parallel drivers split the unit
    /// list into in-order chunks and merge.
    ///
    /// The probe loop runs allocation-free in the thread-local
    /// [`ProbeWorkspace`]: per unit it touches only the O(affected)
    /// connections incident to the unit, not the whole connection table.
    pub fn sweep_failure_units(&self, seed: u64, units: &[LinkId], base: u64) -> FailureSweep {
        let mut sweep = FailureSweep::default();
        with_probe_scratch(|ws| {
            for (k, &link) in units.iter().enumerate() {
                if self.failed[link.index()] {
                    continue;
                }
                let mut rng = drt_sim::rng::indexed_stream(seed, "failure-probe", base + k as u64);
                let mut buf = [link; 2];
                let unit = self.failure_unit_buf(link, &mut buf);
                self.select_activations_in(unit, &mut rng, ws);
                if ws.decisions.is_empty() {
                    continue;
                }
                let affected = ws.decisions.len();
                let activated = ws.decisions.iter().filter(|(_, won)| won.is_some()).count();
                let sample = &mut sweep.aggregate;
                sample.affected += affected as u64;
                sample.activated += activated as u64;
                sample.degraded += ws
                    .decisions
                    .iter()
                    .filter(|(at, won)| {
                        won.is_none() && self.conns.at(at.slot).backups().is_empty()
                    })
                    .count() as u64;
                sample.trials += 1;
                sweep.per_link.push(LinkImpact {
                    link,
                    affected: affected as u32,
                    activated: activated as u32,
                });
            }
        });
        sweep
    }

    /// Probes `link`'s failure unit into `ws` without materializing a
    /// [`ProbeOutcome`]; callers read `ws.decisions`. The allocation-free
    /// inner step shared by the sweep and the vulnerability report.
    pub(crate) fn probe_unit_in(&self, link: LinkId, rng: &mut StdRng, ws: &mut ProbeWorkspace) {
        let mut buf = [link; 2];
        let unit = self.failure_unit_buf(link, &mut buf);
        self.select_activations_in(unit, rng, ws);
    }

    /// Evaluates a hypothetical correlated failure without mutating state —
    /// the multi-link generalisation of
    /// [`DrtpManager::probe_single_failure`].
    pub fn probe_event(&self, event: &FailureEvent, rng: &mut StdRng) -> ProbeOutcome {
        let failed_links = event.resolve(self);
        let details = with_probe_scratch(|ws| {
            self.select_activations_in(&failed_links, rng, ws);
            ws.details()
        });
        ProbeOutcome {
            failed_links,
            details,
        }
    }

    /// Destructively fails a link (or duplex pair) and runs DRTP recovery:
    /// winners of the activation contention switch onto their backups
    /// (promotion), losers are torn down, and intact connections whose
    /// backups crossed the failed link lose their protection.
    ///
    /// # Errors
    ///
    /// [`DrtpError::LinkFailed`] when the link is already failed.
    pub fn inject_failure(
        &mut self,
        link: LinkId,
        rng: &mut StdRng,
    ) -> Result<RecoveryReport, DrtpError> {
        if self.failed[link.index()] {
            return Err(DrtpError::LinkFailed(link));
        }
        self.inject_event(&FailureEvent::Link(link), rng)
    }

    /// Destructively applies a correlated [`FailureEvent`] and runs DRTP
    /// recovery atomically: the backups of *all* simultaneously-disabled
    /// primaries contend in one activation pass over the pre-failure pools;
    /// backups that themselves cross a failed link are invalidated before
    /// contention (they can never win); winners promote, losers are torn
    /// down, and surviving connections whose backups crossed a failed link
    /// lose that protection.
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
            self.select_activations_in(&failed_links, rng, ws);
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
        for (at, won) in &decisions {
            let Some(win_idx) = won else { continue };
            self.promote_winner(at.slot, *win_idx);
            report.switched.push(at.id);
        }
        // Losers afterwards: tear down. The `Failed` record keeps its slot
        // until it is released.
        for (at, won) in &decisions {
            if won.is_some() {
                continue;
            }
            let mut conn = self.conns.take(at.slot);
            self.detach_all(at.slot, &conn);
            conn.clear_backups();
            conn.set_state(ConnectionState::Failed);
            self.conns.put(at.slot, conn);
            report.lost.push(at.id);
        }

        // Intact connections whose backups crossed the failed link lose
        // those backups (they can never activate now); connections left
        // with none become unprotected. The incidence index — already
        // updated for winners and losers above — yields the survivors
        // directly; sort + dedup restores connection-table id order.
        let mut candidates: Vec<IndexEntry> = Vec::new();
        for &l in &failed_links {
            candidates.extend_from_slice(self.incidence.backups_on(l));
        }
        candidates.sort_unstable_by_key(|at| at.id);
        candidates.dedup();
        for at in candidates {
            // Taken out of the table so the surviving primary can be
            // borrowed while the dead backups unregister — no route
            // clones or lookups in the invalidation loop.
            let mut conn = self.conns.take(at.slot);
            let bw = conn.qos().bandwidth;
            let dedicated = conn.backup_is_dedicated();
            // Walk from the highest index down so removals keep the
            // remaining indices valid.
            for idx in (0..conn.backups().len()).rev() {
                let crosses = failed_links
                    .iter()
                    .any(|&l| conn.backups()[idx].contains_link(l));
                if !crosses {
                    continue;
                }
                let removed = conn.remove_backup(idx);
                self.detach_backup(at, &removed, conn.primary().links(), bw, dedicated);
            }
            if conn.backups().is_empty() {
                report.unprotected.push(at.id);
            }
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

    /// Switches the contention winner in `slot` onto backup `win_idx`: the
    /// old primary and every backup are detached, the winning route is
    /// attached as the new primary, and the connection record promotes —
    /// in place: the slot, and so every new index entry, stays. Shared by
    /// [`DrtpManager::inject_event`] (real failures) and
    /// [`DrtpManager::inject_false_report`] (spoofed ones — the switch is
    /// identical, only the link's true state differs).
    fn promote_winner(&mut self, slot: u32, win_idx: usize) {
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
        let promoted = conn.backups()[win_idx].links();
        let at = IndexEntry::new(conn.id(), slot);
        self.attach_primary(at, promoted, conn.qos().bandwidth, take)
            .expect("activation pools cover decided winners");
        conn.promote_backup(win_idx);
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
    /// # Errors
    ///
    /// [`DrtpError::LinkNotFailed`] is never returned;
    /// [`DrtpError::LinkFailed`] when `link` is actually failed (a true
    /// report must go through [`DrtpManager::inject_event`]).
    pub fn inject_false_report(
        &mut self,
        link: LinkId,
        rng: &mut StdRng,
    ) -> Result<RecoveryReport, DrtpError> {
        if self.failed[link.index()] {
            return Err(DrtpError::LinkFailed(link));
        }
        let unit = self.failure_unit(link);
        let decisions = with_probe_scratch(|ws| {
            self.select_activations_in(&unit, rng, ws);
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
        for (at, won) in &decisions {
            let Some(win_idx) = won else {
                // A loser of the phantom contention simply stays on its
                // healthy primary — there is nothing to tear down.
                continue;
            };
            self.promote_winner(at.slot, *win_idx);
            report.switched.push(at.id);
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
                for l in self.net.incident_links(node) {
                    recovered += self.incidence.primaries_on(l).len() as u64;
                    recovered += self.incidence.backups_on(l).len() as u64;
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

    /// Repairs a previously failed link (and its twin under
    /// [`FailureModel::DuplexPair`]). Existing connections are not
    /// re-routed; new requests may use the link again.
    ///
    /// # Errors
    ///
    /// [`DrtpError::LinkNotFailed`] when the link is not failed.
    pub fn repair_link(&mut self, link: LinkId) -> Result<(), DrtpError> {
        if !self.failed[link.index()] {
            return Err(DrtpError::LinkNotFailed(link));
        }
        let unit = self.failure_unit(link);
        for &l in &unit {
            self.failed[l.index()] = false;
        }
        Ok(())
    }

    /// The activation pool a probe may draw from on link index `i`.
    fn activation_pool_at(&self, i: usize) -> Bandwidth {
        let lr = &self.links[i];
        match self.cfg.activation {
            ActivationPool::SpareAndFree => lr.spare() + lr.free(),
            ActivationPool::SpareOnly => lr.spare(),
        }
    }

    /// Shared winner selection: shuffle affected connections, then let each
    /// try its backups in priority order, claiming bandwidth from the
    /// per-link activation pools; the first backup that is alive and fits
    /// wins. Decisions land in `ws.decisions`.
    ///
    /// Index-driven and allocation-free: the affected set is the union of
    /// the failed links' primary-incidence lists (sort + dedup restores the
    /// connection table's id order, so the shuffle consumes `rng`
    /// identically to the full-scan baseline), failed-link membership is a
    /// generation-stamped mark array, and the per-link pools initialize
    /// lazily on first touch — a probe never walks all links or all
    /// connections, nor searches the table: the index hands it the slot.
    pub(crate) fn select_activations_in(
        &self,
        failed_links: &[LinkId],
        rng: &mut StdRng,
        ws: &mut ProbeWorkspace,
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
            let conn = self.conns.at(at.slot);
            debug_assert_eq!(conn.id(), at.id, "index entry names a foreign slot");
            let bw = conn.qos().bandwidth;
            let mut won = None;
            for (idx, b) in conn.backups().iter().enumerate() {
                let usable = b
                    .links()
                    .iter()
                    .all(|l| !self.failed[l.index()] && ws.mark_stamp[l.index()] != ws.gen);
                if !usable {
                    continue;
                }
                if conn.backup_is_dedicated() {
                    // Bandwidth is already exclusively reserved.
                    won = Some(idx);
                    break;
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
                    won = Some(idx);
                    break;
                }
            }
            ws.decisions.push((at, won));
        }
    }

    /// The full-scan reference implementation of the failure-analysis
    /// paths, for equivalence tests and benchmarks.
    pub fn naive_baseline(&self) -> NaiveFailureAnalysis<'_> {
        NaiveFailureAnalysis { mgr: self }
    }
}

/// Reusable, generation-stamped scratch state for failure probes —
/// the probe-side mirror of `drt_net`'s `SpfWorkspace`.
///
/// A probe needs per-link activation pools, a failed-link membership test,
/// the affected-connection list, and the decision vector. Allocating those
/// per probe makes a full sweep O(units × links) in allocations alone;
/// instead every array here is *generation-stamped*: starting a probe bumps
/// a generation counter and an entry is meaningful only when its stamp
/// matches, so reset is O(1) and pools initialize lazily on first touch.
///
/// Probe entry points default to a thread-local instance; the `_in`
/// variants accept an explicit workspace for callers managing their own
/// (e.g. per-worker workspaces in parallel sweeps).
#[derive(Debug, Clone)]
pub struct ProbeWorkspace {
    gen: u32,
    /// Stamp guarding `pool` (a pool value is valid iff stamp == gen).
    pool_stamp: Vec<u32>,
    /// Remaining activation bandwidth per link, this probe.
    pool: Vec<Bandwidth>,
    /// A link is failed-in-this-probe iff its mark stamp == gen — the O(1)
    /// membership test replacing linear `failed_links.contains` scans.
    mark_stamp: Vec<u32>,
    /// The connections whose primary the probed unit disables, each with
    /// the slot of its record.
    affected: Vec<IndexEntry>,
    /// Per affected connection, the backup index that activated (if any).
    pub(crate) decisions: Vec<(IndexEntry, Option<usize>)>,
}

impl Default for ProbeWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeWorkspace {
    /// An empty workspace; arrays grow to the network size on first use.
    pub fn new() -> Self {
        ProbeWorkspace {
            gen: 0,
            pool_stamp: Vec::new(),
            pool: Vec::new(),
            mark_stamp: Vec::new(),
            affected: Vec::new(),
            decisions: Vec::new(),
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
    fn details(&self) -> Vec<(ConnectionId, Option<usize>)> {
        let public = self.decisions.iter().map(|(at, won)| (at.id, *won));
        public.collect() // lint:allow(probe-alloc) — O(affected) result materialization, once per reported probe
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
pub(crate) fn with_probe_scratch<R>(f: impl FnOnce(&mut ProbeWorkspace) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut ProbeWorkspace::new()),
    })
}

/// The pre-index full-scan implementation of the probe paths, kept as the
/// reference the incidence-indexed engine is proved against (property
/// tests assert probe ≡ baseline bit-for-bit) and benchmarked against.
///
/// Obtained from [`DrtpManager::naive_baseline`]; every method matches the
/// indexed counterpart's name and contract.
#[derive(Debug, Clone, Copy)]
pub struct NaiveFailureAnalysis<'a> {
    mgr: &'a DrtpManager,
}

impl NaiveFailureAnalysis<'_> {
    /// Full-scan winner selection: scans the whole connection table for
    /// affected primaries and materializes all per-link activation pools
    /// up front — the exact pre-index algorithm.
    fn select_activations(
        &self,
        failed_links: &[LinkId],
        rng: &mut StdRng,
    ) -> Vec<(ConnectionId, Option<usize>)> {
        let mgr = self.mgr;
        let mut affected: Vec<ConnectionId> = mgr
            .conns
            .values()
            .filter(|c| {
                c.state().is_carrying_traffic()
                    && failed_links.iter().any(|l| c.primary().contains_link(*l))
            })
            .map(|c| c.id())
            .collect(); // lint:allow(probe-alloc) — the full-scan baseline is the allocation profile being measured
        affected.shuffle(rng);

        // Per-link activation pools, materialized for every link.
        let mut pool: Vec<Bandwidth> = (0..mgr.links.len())
            .map(|i| mgr.activation_pool_at(i))
            .collect(); // lint:allow(probe-alloc) — the full-scan baseline is the allocation profile being measured

        // lint:allow(probe-alloc) — the full-scan baseline is the allocation profile being measured
        let mut decisions = Vec::with_capacity(affected.len());
        for id in affected {
            let conn = mgr.conns.get(id).expect("scanned above");
            let bw = conn.qos().bandwidth;
            let mut won = None;
            for (idx, b) in conn.backups().iter().enumerate() {
                let usable = b
                    .links()
                    .iter()
                    .all(|l| !mgr.failed[l.index()] && !failed_links.contains(l));
                if !usable {
                    continue;
                }
                if conn.backup_is_dedicated() {
                    won = Some(idx);
                    break;
                }
                let fits = b.links().iter().all(|l| pool[l.index()] >= bw);
                if fits {
                    for l in b.links() {
                        pool[l.index()] -= bw;
                    }
                    won = Some(idx);
                    break;
                }
            }
            decisions.push((id, won));
        }
        decisions
    }

    /// Full-scan [`DrtpManager::probe_single_failure`].
    pub fn probe_single_failure(&self, link: LinkId, rng: &mut StdRng) -> ProbeOutcome {
        let failed_links = self.mgr.failure_unit(link);
        let details = self.select_activations(&failed_links, rng);
        ProbeOutcome {
            failed_links,
            details,
        }
    }

    /// Full-scan [`DrtpManager::probe_event`].
    pub fn probe_event(&self, event: &FailureEvent, rng: &mut StdRng) -> ProbeOutcome {
        let failed_links = event.resolve(self.mgr);
        let details = self.select_activations(&failed_links, rng);
        ProbeOutcome {
            failed_links,
            details,
        }
    }

    /// Full-scan [`DrtpManager::sweep_single_failures`]: O(units × conns),
    /// one pool vector allocated per probed unit.
    pub fn sweep_single_failures(&self, seed: u64) -> FailureSweep {
        let mgr = self.mgr;
        let mut sweep = FailureSweep::default();
        for (idx, link) in mgr.failure_units().into_iter().enumerate() {
            if mgr.failed[link.index()] {
                continue;
            }
            let mut rng = drt_sim::rng::indexed_stream(seed, "failure-probe", idx as u64);
            let outcome = self.probe_single_failure(link, &mut rng);
            if outcome.affected() == 0 {
                continue;
            }
            let sample = &mut sweep.aggregate;
            sample.affected += outcome.affected() as u64;
            sample.activated += outcome.activated() as u64;
            sample.degraded += outcome
                .details
                .iter()
                .filter(|(id, won)| {
                    let conn = mgr.conns.get(*id).expect("probed above");
                    won.is_none() && conn.backups().is_empty()
                })
                .count() as u64;
            sample.trials += 1;
            sweep.per_link.push(LinkImpact {
                link,
                affected: outcome.affected() as u32,
                activated: outcome.activated() as u32,
            });
        }
        sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplex::MultiplexConfig;
    use crate::routing::{DLsr, DedicatedDisjoint, RouteRequest};
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
        let mut mgr = DrtpManager::new(Arc::clone(&net));
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

        // Ablation: with SparePolicy::NeverGrow and spare-only activation
        // pools, the same workload loses both activations — quantifying
        // what Section 5's sizing rule buys.
        let mut cfg = MultiplexConfig::paper();
        cfg.spare = crate::multiplex::SparePolicy::NeverGrow;
        cfg.activation = crate::multiplex::ActivationPool::SpareOnly;
        let mut strict = DrtpManager::with_config(net, cfg);
        let mut scheme = DLsr::new();
        strict
            .request_connection(&mut scheme, req(0, 0, 1))
            .unwrap();
        strict
            .request_connection(&mut scheme, req(1, 0, 1))
            .unwrap();
        let out = strict.probe_single_failure(shared, &mut rng());
        assert_eq!(out.affected(), 2);
        assert_eq!(out.activated(), 0, "no spare, no activation");
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
        let mut mgr = DrtpManager::with_config(net, MultiplexConfig::no_backup_baseline());
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
        // Crashing the destination kills the primary *and* every backup
        // (all terminate there), so nothing can activate.
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

    #[test]
    fn duplex_failure_model_fails_both_directions() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut cfg = MultiplexConfig::paper();
        cfg.failure_model = FailureModel::DuplexPair;
        let mut mgr = DrtpManager::with_config(net, cfg);
        let l = drt_net::LinkId::new(0);
        let unit = mgr.failure_unit(l);
        assert_eq!(unit.len(), 2);
        assert_eq!(mgr.failure_units().len(), mgr.net().num_links() / 2);
        mgr.inject_failure(l, &mut rng()).unwrap();
        assert!(mgr.is_failed(unit[0]));
        assert!(mgr.is_failed(unit[1]));
        mgr.repair_link(l).unwrap();
        assert!(!mgr.is_failed(unit[1]));
    }
}

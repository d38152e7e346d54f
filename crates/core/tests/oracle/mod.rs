//! A deliberately naive reference for the failure engine, written from the
//! paper's definitions (PAPER.md §1) and nothing else:
//!
//! - a DR-connection is one primary channel plus one backup channel (or
//!   none, when none was found or it was lost);
//! - two backups *conflict* when they share a link and their primaries
//!   share a link;
//! - `a_{i,j}` counts the multiplexed backups through `L_i` whose primary
//!   crosses `L_j`, and `L_i` needs as spare the largest bandwidth behind
//!   any one `a_{i,j}` (`max_j APLV_i[j]`);
//! - a single failure is one directed link; a failure disables every
//!   primary that crosses a failed link. The
//!   disabled connections contend in a given order: each activates its
//!   backup if that is alive and fits, on every one of its links, in what
//!   the earlier winners left of the link's pool (spare plus free);
//! - `P_act-bk` is activations over affected primaries.
//!
//! It reads the manager only through public accessors (`connections`,
//! `link_resources`, `is_failed`, `net`), recomputes everything
//! from the connection table on every call, and keeps its state in plain
//! `Vec`s and `BTreeMap`s. It calls no `drt_core::failure` or `invariants`
//! code and no `Aplv` method; from `drt_core::failure` it names only the
//! data types it is compared through.

use drt_core::failure::{FailureEvent, FailureSweep, LinkImpact, ProbeOutcome};
use drt_core::{ConnectionId, DrConnection, DrtpManager};
use drt_net::{Bandwidth, LinkId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::{BTreeMap, BTreeSet};

/// One multiplexed backup: the links it holds spare on, the links of the
/// primary it protects, and its bandwidth.
#[derive(Debug, Clone)]
pub struct Registration {
    backup: BTreeSet<LinkId>,
    primary: BTreeSet<LinkId>,
    bw: Bandwidth,
}

/// The multiplexed backup of every connection carrying traffic. A
/// dedicated backup holds a reservation of its own and shares nothing.
pub fn registrations(mgr: &DrtpManager) -> Vec<Registration> {
    mgr.connections()
        .filter(|c| c.state().is_carrying_traffic() && !c.backup_is_dedicated())
        .filter_map(|c| {
            Some(Registration {
                backup: c.backup()?.links().iter().copied().collect(),
                primary: c.primary().links().iter().copied().collect(),
                bw: c.qos().bandwidth,
            })
        })
        .collect()
}

/// Whether a backup over `backup` protecting a primary over `primary`
/// conflicts with one of `regs`.
pub fn conflicts(regs: &[Registration], primary: &[LinkId], backup: &[LinkId]) -> bool {
    regs.iter().any(|r| {
        backup.iter().any(|l| r.backup.contains(l)) && primary.iter().any(|j| r.primary.contains(j))
    })
}

/// `table[i][j] = (a_{i,j}, bandwidth behind it)` for every link `i` of a
/// `num_links`-link network, zero entries left out.
pub fn aplv_table(
    regs: &[Registration],
    num_links: usize,
) -> Vec<BTreeMap<LinkId, (u32, Bandwidth)>> {
    let mut table = vec![BTreeMap::new(); num_links];
    for r in regs {
        for i in &r.backup {
            for &j in &r.primary {
                let e = table[i.index()].entry(j).or_insert((0, Bandwidth::ZERO));
                e.0 += 1;
                e.1 += r.bw;
            }
        }
    }
    table
}

/// The spare one row of [`aplv_table`] needs: `max_j` of its bandwidths.
pub fn spare_need(row: &BTreeMap<LinkId, (u32, Bandwidth)>) -> Bandwidth {
    row.values()
        .map(|&(_, bw)| bw)
        .max()
        .unwrap_or(Bandwidth::ZERO)
}

/// The links `event` fails: the link itself, every link incident to a
/// crashed node, every member of a cut SRLG (an unknown one cuts
/// nothing), the union of a batch. Sorted, each once, and without the
/// links that are failed already.
pub fn failed_links(mgr: &DrtpManager, event: &FailureEvent) -> Vec<LinkId> {
    fn collect(mgr: &DrtpManager, event: &FailureEvent, out: &mut BTreeSet<LinkId>) {
        match event {
            FailureEvent::Link(l) => {
                out.insert(*l);
            }
            FailureEvent::Node(n) => out.extend(mgr.net().incident_links(*n)),
            FailureEvent::Srlg(g) => out.extend(mgr.net().get_srlg(*g).unwrap_or(&[])),
            FailureEvent::Batch(events) => {
                for e in events {
                    collect(mgr, e, out);
                }
            }
        }
    }
    let mut set = BTreeSet::new();
    collect(mgr, event, &mut set);
    set.into_iter().filter(|&l| !mgr.is_failed(l)).collect()
}

/// The connections carrying traffic whose primary crosses a link of
/// `failed`, in id order.
pub fn affected(mgr: &DrtpManager, failed: &[LinkId]) -> Vec<ConnectionId> {
    mgr.connections()
        .filter(|c| c.state().is_carrying_traffic())
        .filter(|c| c.primary().links().iter().any(|l| failed.contains(l)))
        .map(|c| c.id())
        .collect()
}

fn record(mgr: &DrtpManager, id: ConnectionId) -> &DrConnection {
    mgr.connections()
        .find(|c| c.id() == id)
        .expect("a contender is a known connection")
}

/// Whether each connection of `order` activates its backup when `failed`
/// fails, the connections contending in that order. A connection without
/// a backup loses. A backup is alive when none of its links is failed or
/// in `failed`. A dedicated backup activates on its own reservation. A
/// multiplexed one activates when every link of its route still holds its
/// bandwidth in the link's pool — spare plus free — and takes it from
/// each.
pub fn winners(
    mgr: &DrtpManager,
    failed: &[LinkId],
    order: &[ConnectionId],
) -> Vec<(ConnectionId, bool)> {
    let mut pool: Vec<Bandwidth> = mgr
        .net()
        .links()
        .map(|l| {
            let lr = mgr.link_resources(l.id());
            lr.spare() + lr.free()
        })
        .collect();
    let mut decisions = Vec::new();
    for &id in order {
        let c = record(mgr, id);
        let bw = c.qos().bandwidth;
        let dead = |links: &[LinkId]| {
            links
                .iter()
                .any(|l| mgr.is_failed(*l) || failed.contains(l))
        };
        let won = match c.backup().map(|b| b.links()) {
            None => false,
            Some(links) if dead(links) => false,
            Some(_) if c.backup_is_dedicated() => true,
            Some(links) => {
                let fits = links.iter().all(|l| pool[l.index()] >= bw);
                if fits {
                    for l in links {
                        pool[l.index()] -= bw;
                    }
                }
                fits
            }
        };
        decisions.push((id, won));
    }
    decisions
}

/// A probe of `failed`: the affected connections in id order, shuffled
/// once by `rng` — the contention order `probe_single_failure` documents —
/// and the winners in that order.
pub fn probe_links(mgr: &DrtpManager, failed_links: Vec<LinkId>, rng: &mut StdRng) -> ProbeOutcome {
    let mut order = affected(mgr, &failed_links);
    order.shuffle(rng);
    let details = winners(mgr, &failed_links, &order);
    ProbeOutcome {
        failed_links,
        details,
    }
}

/// [`probe_links`] over the links `event` fails.
pub fn probe_event(mgr: &DrtpManager, event: &FailureEvent, rng: &mut StdRng) -> ProbeOutcome {
    probe_links(mgr, failed_links(mgr, event), rng)
}

/// The single-failure report: every link that is up, probed with its own
/// stream (`indexed_stream(seed, stream, k)` for the `k`-th link). Per
/// link whose failure disables a primary, the affected and activated
/// primaries; the affected ones that held no backup (`degraded`); and per
/// connection the links it does not survive, sorted by connection, then
/// link.
pub fn sweep(mgr: &DrtpManager, seed: u64, stream: &str) -> FailureSweep {
    let mut sweep = FailureSweep::default();
    let mut per_conn: BTreeMap<ConnectionId, Vec<LinkId>> = BTreeMap::new();
    for (k, link) in mgr.net().links().map(|l| l.id()).enumerate() {
        if mgr.is_failed(link) {
            continue;
        }
        let mut rng = drt_sim::rng::indexed_stream(seed, stream, k as u64);
        let out = probe_links(mgr, vec![link], &mut rng);
        if out.details.is_empty() {
            continue;
        }
        let affected = out.details.len() as u32;
        let mut activated = 0;
        for &(id, won) in &out.details {
            if won {
                activated += 1;
                continue;
            }
            per_conn.entry(id).or_default().push(link);
            if record(mgr, id).backup().is_none() {
                sweep.aggregate.degraded += 1;
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
    for (id, links) in per_conn {
        sweep.per_conn.extend(links.into_iter().map(|l| (id, l)));
    }
    sweep
}

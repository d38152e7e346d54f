//! Pure, side-effect-free invariant predicates over DRTP resource state.
//!
//! These are the ledger/spare-pool properties that
//! [`DrtpManager::assert_invariants`](crate::DrtpManager::assert_invariants)
//! enforces, factored out so external checkers (notably the `verify`
//! model checker) can evaluate them against *any* snapshot of per-link
//! state — including mid-protocol states the manager itself never
//! exposes — without panicking and without touching the state.
//!
//! Every function here is a pure predicate: no `&mut`, no interior
//! mutability, no I/O. A composed [`check_link`] bundles the per-link
//! checks and reports the first failed rule as a [`Violation`] suitable
//! for counterexample traces; [`check_table`] does the same for the
//! connection table's slot addressing.

use crate::{Aplv, ConnectionId, LinkResources};
use drt_net::{Bandwidth, LinkId};
use std::fmt;

/// A failed invariant: which rule broke and a human-readable detail
/// string for counterexample reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (e.g. `"capacity"`, `"spare-overshoot"`).
    pub rule: &'static str,
    /// What was observed vs. what was expected.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Conservation: `prime + spare ≤ capacity`. The ledger's pools never
/// over-commit the link (Section 2.1's partition of `total_bw`).
pub fn ledger_within_capacity(link: &LinkResources) -> bool {
    link.prime() + link.spare() <= link.capacity()
}

/// The spare pool never exceeds what the APLV requires: growing is
/// bounded by `required_spare()` and shrinking tracks it, so
/// `spare ≤ max_j bandwidth_j`. (Equality need not hold — growth is
/// also bounded by the free pool.)
pub fn spare_within_requirement(link: &LinkResources, aplv: &Aplv) -> bool {
    link.spare() <= aplv.required_spare()
}

/// The hard-reservation pool equals the bandwidth sum implied by the
/// connection table (`expected` = Σ bandwidth of primaries — and
/// dedicated backups — crossing this link).
pub fn prime_matches(link: &LinkResources, expected: Bandwidth) -> bool {
    link.prime() == expected
}

/// The link's APLV is exactly what the registration set implies.
pub fn aplv_matches(actual: &Aplv, expected: &Aplv) -> bool {
    actual == expected
}

/// Folds a set of backup registrations — `(primary link-set, bandwidth)`
/// pairs — into the APLV they imply. Pure builder for the `expected`
/// side of [`aplv_matches`].
pub fn expected_aplv<'a, I>(registrations: I) -> Aplv
where
    I: IntoIterator<Item = (&'a [LinkId], Bandwidth)>,
{
    let mut aplv = Aplv::new();
    for (primary_lset, bw) in registrations {
        aplv.register(primary_lset, bw);
    }
    aplv
}

/// Runs every per-link invariant against one link's state, returning
/// the first violated rule. `expected_prime` and `expected_aplv` are
/// what the caller's connection table implies for this link (see
/// [`expected_aplv`]).
pub fn check_link(
    link: &LinkResources,
    aplv: &Aplv,
    expected_prime: Bandwidth,
    expected: &Aplv,
) -> Result<(), Violation> {
    if !aplv_matches(aplv, expected) {
        return Err(Violation {
            rule: "aplv-mismatch",
            detail: format!("aplv {aplv:?} != expected {expected:?}"),
        });
    }
    if !prime_matches(link, expected_prime) {
        return Err(Violation {
            rule: "prime-mismatch",
            detail: format!("prime {} != expected {}", link.prime(), expected_prime),
        });
    }
    if !spare_within_requirement(link, aplv) {
        return Err(Violation {
            rule: "spare-overshoot",
            detail: format!(
                "spare {} > required {}",
                link.spare(),
                aplv.required_spare()
            ),
        });
    }
    if !ledger_within_capacity(link) {
        return Err(Violation {
            rule: "capacity",
            detail: format!(
                "prime {} + spare {} > capacity {}",
                link.prime(),
                link.spare(),
                link.capacity()
            ),
        });
    }
    Ok(())
}

/// The connection table's three parts describe one table. `occupants`
/// gives, per slot of the slab, the id of the record it holds (`None` =
/// vacant); `by_id` is the id → slot map; `free` the vacant-slot list.
///
/// * `table-slot` — every `by_id` entry points at an occupied slot
///   holding a record with that id;
/// * `table-count` — occupied slots = `by_id` entries (no record is
///   unreachable by id);
/// * `table-free` — the free list holds each vacant slot exactly once.
pub fn check_table(
    occupants: &[Option<ConnectionId>],
    by_id: &[(ConnectionId, u32)],
    free: &[u32],
) -> Result<(), Violation> {
    for &(id, slot) in by_id {
        let held = occupants.get(slot as usize).copied().flatten();
        if held != Some(id) {
            return Err(Violation {
                rule: "table-slot",
                detail: format!("{id} maps to slot {slot}, which holds {held:?}"),
            });
        }
    }
    let occupied = occupants.iter().flatten().count();
    if occupied != by_id.len() {
        return Err(Violation {
            rule: "table-count",
            detail: format!("{occupied} occupied slots for {} ids", by_id.len()),
        });
    }
    let mut listed = vec![false; occupants.len()];
    for &slot in free {
        let vacant = occupants.get(slot as usize).is_some_and(Option::is_none);
        if !vacant || std::mem::replace(&mut listed[slot as usize], true) {
            return Err(Violation {
                rule: "table-free",
                detail: format!("free list names slot {slot}, occupied or already listed"),
            });
        }
    }
    if free.len() != occupants.len() - occupied {
        return Err(Violation {
            rule: "table-free",
            detail: format!(
                "{} vacant slots, {} on the free list",
                occupants.len() - occupied,
                free.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_net::Bandwidth;

    fn mb(v: u64) -> Bandwidth {
        Bandwidth::from_mbps(v)
    }

    fn lid(i: u32) -> LinkId {
        LinkId::new(i)
    }

    #[test]
    fn fresh_link_passes_all_checks() {
        let link = LinkResources::new(mb(10));
        let aplv = Aplv::new();
        assert!(ledger_within_capacity(&link));
        assert!(spare_within_requirement(&link, &aplv));
        assert!(check_link(&link, &aplv, Bandwidth::ZERO, &Aplv::new()).is_ok());
    }

    #[test]
    fn spare_overshoot_is_flagged() {
        let mut link = LinkResources::new(mb(10));
        // Spare grown with no APLV entries backing it.
        link.grow_spare_toward(mb(3));
        let aplv = Aplv::new();
        assert!(!spare_within_requirement(&link, &aplv));
        let err = check_link(&link, &aplv, Bandwidth::ZERO, &Aplv::new()).unwrap_err();
        assert_eq!(err.rule, "spare-overshoot");
        assert!(err.to_string().contains("spare-overshoot"));
    }

    #[test]
    fn prime_mismatch_is_flagged() {
        let mut link = LinkResources::new(mb(10));
        link.admit_primary(mb(4)).unwrap();
        let err = check_link(&link, &Aplv::new(), mb(5), &Aplv::new()).unwrap_err();
        assert_eq!(err.rule, "prime-mismatch");
    }

    #[test]
    fn table_rules_name_what_broke() {
        let c = ConnectionId::new;
        // Slots 0 and 2 occupied, slot 1 vacant and listed once.
        let occupants = [Some(c(7)), None, Some(c(3))];
        let by_id = [(c(3), 2), (c(7), 0)];
        assert!(check_table(&occupants, &by_id, &[1]).is_ok());
        assert!(check_table(&[], &[], &[]).is_ok());

        let rule = |o: &[Option<ConnectionId>], m: &[(ConnectionId, u32)], f: &[u32]| {
            check_table(o, m, f).unwrap_err().rule
        };
        // An id mapped to a vacant slot, to another id's slot, or past the slab.
        assert_eq!(
            rule(&occupants, &[(c(3), 1), (c(7), 0)], &[1]),
            "table-slot"
        );
        assert_eq!(
            rule(&occupants, &[(c(3), 0), (c(7), 0)], &[1]),
            "table-slot"
        );
        assert_eq!(
            rule(&occupants, &[(c(3), 9), (c(7), 0)], &[1]),
            "table-slot"
        );
        // A record no id reaches.
        assert_eq!(rule(&occupants, &[(c(7), 0)], &[1]), "table-count");
        // The free list names an occupied slot, names one twice, or misses one.
        assert_eq!(rule(&occupants, &by_id, &[2]), "table-free");
        assert_eq!(rule(&occupants, &by_id, &[1, 1]), "table-free");
        assert_eq!(rule(&occupants, &by_id, &[]), "table-free");
    }

    #[test]
    fn expected_aplv_folds_registrations() {
        let p1 = [lid(0), lid(1)];
        let p2 = [lid(1)];
        let expected = expected_aplv([(&p1[..], mb(2)), (&p2[..], mb(3))]);
        assert_eq!(expected.count(lid(1)), 2);
        assert_eq!(expected.bandwidth(lid(1)), mb(5));
        assert_eq!(expected.required_spare(), mb(5));
        let mut actual = Aplv::new();
        actual.register(&p1, mb(2));
        actual.register(&p2, mb(3));
        assert!(aplv_matches(&actual, &expected));
        actual.unregister(&p2, mb(3));
        assert!(!aplv_matches(&actual, &expected));
    }
}

//! The incremental conflict-state engine.
//!
//! D-LSR's per-link cost term `Σ_{L_j ∈ LSET_P} c_{i,j}` and P-LSR's
//! `‖APLV_i‖₁` are both functions of the per-link [`Aplv`]s, which change
//! only when a backup is registered or released. Recomputing them from the
//! per-link APLVs on every routing call (per relaxed link, per Dijkstra
//! relaxation) dominates route-selection time once thousands of backups are
//! in play.
//!
//! [`ConflictState`] keeps two dense digests in lockstep with the APLVs:
//!
//! * one [`ConflictVector`] bitset per link (`CV_i`, `N` bits each), kept
//!   current through the 0→1 / 1→0 transition callbacks of
//!   [`Aplv::register_with`] / [`Aplv::unregister_with`] — a register or
//!   release touches only the affected `(i, j)` bits;
//! * the cached `‖APLV_i‖₁` scalar per link.
//!
//! D-LSR's cost is then [`ConflictVector::overlap`] — one bit test of
//! `CV_i` per link of the primary, `O(|LSET_P|)` reads of an `N/8`-byte
//! bitset rather than of the `16·N`-byte dense APLV — and P-LSR's cost an
//! array read.

use crate::{Aplv, ConflictVector};
use drt_net::LinkId;

/// Dense per-link conflict digests, maintained incrementally alongside the
/// per-link APLVs by [`crate::DrtpManager`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictState {
    cvs: Vec<ConflictVector>,
    l1: Vec<u64>,
    num_links: usize,
}

impl ConflictState {
    /// All-zero state for a network of `num_links` links.
    pub fn new(num_links: usize) -> Self {
        ConflictState {
            cvs: vec![ConflictVector::zeros(num_links); num_links],
            l1: vec![0; num_links],
            num_links,
        }
    }

    /// Number of links covered.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// The dense `CV_i` of link `l`.
    pub fn cv(&self, l: LinkId) -> &ConflictVector {
        &self.cvs[l.index()]
    }

    /// The cached `‖APLV_l‖₁`.
    pub fn l1_norm(&self, l: LinkId) -> u64 {
        self.l1[l.index()]
    }

    /// Applies one backup-registration delta on link `l`: bits that flipped
    /// 0→1 are in `became_set` (from [`Aplv::register_with`]), and `‖APLV‖₁`
    /// grew by `lset_len`.
    pub fn apply_register(&mut self, l: LinkId, became_set: &[LinkId], lset_len: usize) {
        let cv = &mut self.cvs[l.index()];
        for &j in became_set {
            cv.set(j);
        }
        self.l1[l.index()] += lset_len as u64;
    }

    /// Applies one backup-release delta on link `l`: bits that flipped 1→0
    /// are in `became_clear`, and `‖APLV‖₁` shrank by `lset_len`.
    pub fn apply_unregister(&mut self, l: LinkId, became_clear: &[LinkId], lset_len: usize) {
        let cv = &mut self.cvs[l.index()];
        for &j in became_clear {
            cv.clear(j);
        }
        self.l1[l.index()] -= lset_len as u64;
    }

    /// Rebuilds the dense state from scratch — the reference the
    /// incremental path is checked against by
    /// [`crate::DrtpManager::assert_invariants`] and the proptests.
    pub fn rebuild(aplvs: &[Aplv], num_links: usize) -> Self {
        ConflictState {
            cvs: aplvs.iter().map(|a| a.conflict_vector(num_links)).collect(),
            l1: aplvs.iter().map(Aplv::l1_norm).collect(),
            num_links,
        }
    }

    /// Returns the first link whose incremental digest disagrees with the
    /// APLV it shadows, or `None` when everything is in lockstep.
    pub fn first_divergence(&self, aplvs: &[Aplv]) -> Option<LinkId> {
        (0..self.num_links)
            .map(|i| LinkId::new(i as u32))
            .find(|&l| {
                let a = &aplvs[l.index()];
                self.l1[l.index()] != a.l1_norm()
                    || self.cvs[l.index()] != a.conflict_vector(self.num_links)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_net::Bandwidth;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn l(i: u32) -> LinkId {
        LinkId::new(i)
    }

    /// Drives an (aplv, conflict-state) pair through the same delta the
    /// manager performs for one backup link.
    fn register(aplvs: &mut [Aplv], cs: &mut ConflictState, i: LinkId, lset: &[LinkId]) {
        let mut set = Vec::new();
        aplvs[i.index()].register_with(lset, BW, |j| set.push(j));
        cs.apply_register(i, &set, lset.len());
    }

    fn unregister(aplvs: &mut [Aplv], cs: &mut ConflictState, i: LinkId, lset: &[LinkId]) {
        let mut clear = Vec::new();
        aplvs[i.index()].unregister_with(lset, BW, |j| clear.push(j));
        cs.apply_unregister(i, &clear, lset.len());
    }

    #[test]
    fn incremental_matches_rebuild() {
        const N: usize = 16;
        let mut aplvs = vec![Aplv::new(); N];
        let mut cs = ConflictState::new(N);
        register(&mut aplvs, &mut cs, l(7), &[l(8), l(12), l(13)]);
        register(&mut aplvs, &mut cs, l(7), &[l(11), l(13)]);
        register(&mut aplvs, &mut cs, l(3), &[l(8)]);
        assert_eq!(cs.first_divergence(&aplvs), None);
        assert_eq!(cs, ConflictState::rebuild(&aplvs, N));
        assert_eq!(cs.l1_norm(l(7)), 5);
        assert!(cs.cv(l(7)).get(l(13)));

        unregister(&mut aplvs, &mut cs, l(7), &[l(8), l(12), l(13)]);
        assert_eq!(cs.first_divergence(&aplvs), None);
        // a_{7,13} went 2→1: the bit must survive the partial release.
        assert!(cs.cv(l(7)).get(l(13)));
        assert!(!cs.cv(l(7)).get(l(12)));

        unregister(&mut aplvs, &mut cs, l(7), &[l(11), l(13)]);
        unregister(&mut aplvs, &mut cs, l(3), &[l(8)]);
        assert_eq!(cs, ConflictState::new(N));
    }

    #[test]
    fn divergence_is_detected() {
        let aplvs = vec![Aplv::new(); 4];
        let mut cs = ConflictState::new(4);
        cs.apply_register(l(2), &[l(0)], 1);
        assert_eq!(cs.first_divergence(&aplvs), Some(l(2)));
    }
}

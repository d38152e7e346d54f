//! The Accumulated Primary-route Link Vector (APLV) and Conflict Vector
//! (CV).
//!
//! For a link `L_i`, the paper defines (Section 2.1):
//!
//! > `APLV_i`: … whose `j`-th element, denoted by `a_{i,j}`, represents the
//! > total number of primary channels that traverse link `L_j` and whose
//! > backup channels go through link `L_i`.
//!
//! `a_{i,j}` is exactly the number of backups on `L_i` that a failure of
//! `L_j` would activate *simultaneously* — the contention the spare pool of
//! `L_i` must absorb. Three derived quantities drive the protocol:
//!
//! * `‖APLV_i‖₁` — P-LSR's advertised scalar (total conflict mass);
//! * `CV_i` — D-LSR's bit-vector (`c_{i,j} = 1 ⇔ a_{i,j} > 0`);
//! * `max_j a_{i,j}` — the spare-sizing requirement of Section 5 (enough
//!   spare for the worst single link failure).
//!
//! All three live in the [`Aplv`] itself and move with the counts:
//! `register` / `unregister` already see every 0→1 / 1→0 transition, so
//! they flip the bit of `CV_i` there and then. D-LSR's cost term reads
//! the `⌈N/8⌉`-byte bitset, never the `16·N`-byte count array — which is
//! the whole of what the bitset buys (DESIGN.md §11).
//!
//! This implementation additionally accumulates, per `j`, the *bandwidth*
//! of the contending backups, so spare sizing stays correct even when
//! connections have heterogeneous bandwidths (the paper assumes uniform
//! bandwidth, under which `bandwidth_j = a_{i,j} · bw_req`).

use drt_net::{Bandwidth, LinkId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-`j` accumulation inside an [`Aplv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
struct AplvEntry {
    count: u32,
    bandwidth: Bandwidth,
}

/// Which bandwidths an APLV's registrations have carried so far.
///
/// Sticky: once two different values are seen the vector stays `Mixed`
/// even if the odd registration is later released — conservative, and it
/// keeps the mode a pure function of the registration *history* (so it
/// needs no bookkeeping of its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
enum BwMode {
    /// No registration seen yet.
    #[default]
    Empty,
    /// Every registration so far carried exactly this bandwidth.
    Uniform(Bandwidth),
    /// Heterogeneous bandwidths; `required_spare` scans.
    Mixed,
}

/// The APLV of one link: per primary-route link `L_j`, the number (and
/// total bandwidth) of backups on this link whose primaries traverse `L_j`.
///
/// Stored as a dense vector indexed by `j` (grown on demand), because the
/// manager touches one element per `(backup link, primary link)` pair on
/// every registration and release — the inner loop of connection teardown
/// and failure recovery — and a map lookup per element dominated
/// failure-event handling.
///
/// The worst-case spare requirement (`max_j bandwidth_j`) is kept O(1) to
/// read *and* maintain by exploiting the paper's uniform-bandwidth
/// assumption: while every registration on this link carries the same
/// bandwidth, `bandwidth_j = a_{i,j} · bw` and the maximum bandwidth is
/// the maximum count — which moves by at most one per element update, so
/// a count histogram tracks it with no rescans (the classic decremental
/// trick for ±1 counters). The first registration with a *different*
/// bandwidth flips the vector into mixed mode, where
/// [`Aplv::required_spare`] degrades to the pre-optimization linear scan;
/// correctness is mode-independent and cross-checked by the manager's
/// invariant audit.
///
/// The conflict vector `CV_i` is kept next to the counts: bit `j` is set
/// exactly while `a_{i,j} > 0`, flipped at the count transitions, so
/// [`Aplv::conflicts_with`] is one bit test per link of the primary.
///
/// # Example
///
/// The worked example of the paper's Figure 1: backups `B₁` and `B₃` run
/// through `L₇`; `LSET_{P₁} = {L₈, L₁₂, L₁₃}` and `LSET_{P₃} = {L₁₁, L₁₃}`:
///
/// ```
/// use drt_core::Aplv;
/// use drt_net::{Bandwidth, LinkId};
///
/// let bw = Bandwidth::from_kbps(3_000);
/// let l = |i| LinkId::new(i);
/// let mut aplv7 = Aplv::new();
/// aplv7.register(&[l(8), l(12), l(13)], bw); // B1's primary LSET
/// aplv7.register(&[l(11), l(13)], bw);       // B3's primary LSET
///
/// // APLV_7 = (…, a_{7,8}=1, …, a_{7,11}=1, a_{7,12}=1, a_{7,13}=2)
/// assert_eq!(aplv7.count(l(8)), 1);
/// assert_eq!(aplv7.count(l(11)), 1);
/// assert_eq!(aplv7.count(l(12)), 1);
/// assert_eq!(aplv7.count(l(13)), 2);
/// assert_eq!(aplv7.l1_norm(), 5);
/// assert_eq!(aplv7.max_count(), 2);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Aplv {
    entries: Vec<AplvEntry>,
    /// `CV_i`: bit `j` set iff `entries[j].count > 0`. Grown on demand
    /// like `entries`, or pre-sized by [`Aplv::with_num_links`].
    cv: ConflictVector,
    l1: u64,
    /// `hist[c]` = number of entries with `count == c`, for `c ≥ 1`
    /// (index 0 is unused). Supports the O(1) running maximum.
    hist: Vec<u32>,
    /// `max_j a_{i,j}`, maintained through every element update.
    max_count: u32,
    /// Uniformity of the registered bandwidths (see [`BwMode`]).
    bw_mode: BwMode,
}

/// Two APLVs are equal when they agree element-wise — trailing
/// never-registered elements are zero and do not distinguish them, so an
/// APLV rebuilt from scratch compares equal to one grown and shrunk
/// incrementally (the comparison `assert_invariants` relies on). The
/// derived maxima are compared through their *values* ([`Aplv::max_count`],
/// [`Aplv::required_spare`]) rather than the histogram/mode internals: a
/// rebuilt vector may lawfully be `Uniform` where the live one went
/// `Mixed` over a since-released registration, but both must agree on
/// every derived quantity — which is exactly what the invariant audit
/// needs cross-checked.
///
/// The conflict bits are derived state too, and `a_{i,j} > 0` is their
/// specification: equality additionally requires bit `j` to say exactly
/// that on *both* sides, for every `j` either vector covers. A drifted
/// bit therefore makes an `Aplv` unequal to its own rebuild — the audit
/// that used to be the manager's invariant 1b.
impl PartialEq for Aplv {
    fn eq(&self, other: &Self) -> bool {
        let n = self.entries.len().max(other.entries.len());
        let bits = self.cv.len().max(other.cv.len());
        let elem = |a: &Aplv, i: usize| a.entries.get(i).copied().unwrap_or_default();
        self.l1 == other.l1
            && self.max_count == other.max_count
            && self.required_spare() == other.required_spare()
            && (0..n.max(bits)).all(|i| {
                let e = elem(self, i);
                let j = LinkId::new(i as u32);
                e == elem(other, i)
                    && self.cv.get(j) == (e.count > 0)
                    && other.cv.get(j) == (e.count > 0)
            })
    }
}

impl Eq for Aplv {}

impl Aplv {
    /// Creates an empty APLV (no backups registered).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty APLV whose conflict bits already cover `num_links` links,
    /// so registrations never regrow them.
    pub fn with_num_links(num_links: usize) -> Self {
        Aplv {
            cv: ConflictVector::zeros(num_links),
            ..Self::default()
        }
    }

    /// The element for `j`, growing the dense vector as needed.
    fn entry_mut(&mut self, j: LinkId) -> &mut AplvEntry {
        let i = j.index();
        if i >= self.entries.len() {
            self.entries.resize(i + 1, AplvEntry::default());
        }
        &mut self.entries[i]
    }

    /// Folds one registration's bandwidth into the uniformity mode.
    fn note_bw(&mut self, bw: Bandwidth) {
        self.bw_mode = match self.bw_mode {
            BwMode::Empty => BwMode::Uniform(bw),
            BwMode::Uniform(b) if b == bw => BwMode::Uniform(b),
            _ => BwMode::Mixed,
        };
    }

    /// Moves one entry's count `c → c + 1` in the histogram. O(1).
    fn hist_up(&mut self, c: u32) {
        if c > 0 {
            self.hist[c as usize] -= 1;
        }
        let nc = (c + 1) as usize;
        if nc >= self.hist.len() {
            self.hist.resize(nc + 1, 0);
        }
        self.hist[nc] += 1;
        self.max_count = self.max_count.max(c + 1);
    }

    /// Moves one entry's count `c → c - 1` in the histogram. O(1): when
    /// the last entry at the maximum drops, the new maximum is exactly
    /// `c - 1` (the entry just moved there, or nothing is left).
    fn hist_down(&mut self, c: u32) {
        self.hist[c as usize] -= 1;
        if c > 1 {
            self.hist[(c - 1) as usize] += 1;
        }
        if c == self.max_count && self.hist[c as usize] == 0 {
            self.max_count = c - 1;
        }
    }

    /// Registers a backup whose primary has link set `primary_lset` and
    /// bandwidth `bw`: increments `a_{i,j}` for every `j ∈ primary_lset`,
    /// setting `c_{i,j}` where the count leaves 0.
    pub fn register(&mut self, primary_lset: &[LinkId], bw: Bandwidth) {
        if !primary_lset.is_empty() {
            self.note_bw(bw);
        }
        for &j in primary_lset {
            let e = self.entry_mut(j);
            let c = e.count;
            e.count += 1;
            e.bandwidth += bw;
            self.l1 += 1;
            self.hist_up(c);
            if c == 0 {
                if j.index() >= self.cv.len() {
                    self.cv.resize(j.index() + 1);
                }
                self.cv.set(j);
            }
        }
    }

    /// Removes a previously registered backup (same `primary_lset` and
    /// `bw` as at registration), clearing `c_{i,j}` where the count
    /// returns to 0.
    ///
    /// # Panics
    ///
    /// Panics if the registration is not present — that indicates corrupted
    /// bookkeeping, which must never be silently ignored.
    pub fn unregister(&mut self, primary_lset: &[LinkId], bw: Bandwidth) {
        for &j in primary_lset {
            let e = self
                .entries
                .get_mut(j.index())
                .filter(|e| e.count > 0)
                .expect("unregister of unknown aplv entry");
            let c = e.count;
            e.count -= 1;
            e.bandwidth -= bw;
            let (cleared, new_bw) = (e.count == 0, e.bandwidth);
            self.l1 -= 1;
            self.hist_down(c);
            if cleared {
                assert!(new_bw.is_zero(), "aplv bandwidth residue at {j}");
                self.cv.clear(j);
            }
        }
    }

    /// `a_{i,j}` — the number of backups through this link whose primaries
    /// traverse `j`.
    pub fn count(&self, j: LinkId) -> u32 {
        self.entries.get(j.index()).map_or(0, |e| e.count)
    }

    /// Total bandwidth of the backups counted by [`Aplv::count`] at `j` —
    /// the spare bandwidth a failure of `j` would demand from this link.
    pub fn bandwidth(&self, j: LinkId) -> Bandwidth {
        self.entries
            .get(j.index())
            .map_or(Bandwidth::ZERO, |e| e.bandwidth)
    }

    /// `‖APLV‖₁ = Σ_j a_{i,j}` — P-LSR's advertised link cost.
    pub fn l1_norm(&self) -> u64 {
        self.l1
    }

    /// `max_j a_{i,j}` — the number of backups a worst-case single link
    /// failure would activate here (Section 5's spare-sizing count).
    /// O(1) via the count histogram.
    pub fn max_count(&self) -> u32 {
        self.max_count
    }

    /// `max_j bandwidth_j` — the spare bandwidth required to survive the
    /// worst-case single link failure without any activation loss.
    ///
    /// O(1) while every registration carried the same bandwidth (the
    /// paper's operating regime): the maximum bandwidth is then the
    /// maximum count times that bandwidth. The manager consults this per
    /// backup link on every registration and release, where any
    /// per-element structure or scan dominated failure-event handling.
    /// Heterogeneous-bandwidth vectors take the linear scan instead.
    pub fn required_spare(&self) -> Bandwidth {
        match self.bw_mode {
            BwMode::Empty => Bandwidth::ZERO,
            BwMode::Uniform(bw) => bw * u64::from(self.max_count),
            BwMode::Mixed => self
                .entries
                .iter()
                .map(|e| e.bandwidth)
                .max()
                .unwrap_or(Bandwidth::ZERO),
        }
    }

    /// Number of links `j` for which `c_{i,j} = 1` (i.e. `a_{i,j} > 0`)
    /// **and** `j` is in the given primary link set — D-LSR's per-link cost
    /// term `Σ_{L_j ∈ LSET_{P_x}} c_{i,j}`: one bit test of `CV_i` per
    /// link of the primary (links beyond anything registered read 0).
    pub fn conflicts_with(&self, primary_lset: &[LinkId]) -> u32 {
        self.cv.overlap(primary_lset)
    }

    /// Returns `true` when no backups are registered.
    pub fn is_empty(&self) -> bool {
        self.l1 == 0
    }

    /// Iterates over the nonzero elements as `(j, count, bandwidth)`, in
    /// link order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, u32, Bandwidth)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.count > 0)
            .map(|(j, e)| (LinkId::new(j as u32), e.count, e.bandwidth))
    }

    /// The Conflict Vector (`CV_i`) of D-LSR as advertised in a network
    /// with `num_links` links: a copy of the maintained bits, cut or
    /// zero-extended to that length.
    pub fn conflict_vector(&self, num_links: usize) -> ConflictVector {
        let mut cv = self.cv.clone();
        cv.resize(num_links);
        cv
    }
}

impl fmt::Display for Aplv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "APLV{{")?;
        for (i, (j, count, _)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{j}:{count}")?;
        }
        write!(f, "}} (l1={})", self.l1)
    }
}

/// D-LSR's Conflict Vector: an `N`-bit vector with bit `j` set iff at least
/// one primary through `L_j` has its backup on the owning link.
///
/// The paper's Figure 2 example (`CV₆` built from `PSET₆ = {P₁, P₂}`) is
/// reproduced in this module's tests; a minimal usage:
///
/// ```
/// use drt_core::Aplv;
/// use drt_net::{Bandwidth, LinkId};
///
/// let mut aplv = Aplv::new();
/// aplv.register(&[LinkId::new(0), LinkId::new(2)], Bandwidth::from_kbps(1));
/// let cv = aplv.conflict_vector(4);
/// assert!(cv.get(LinkId::new(0)));
/// assert!(!cv.get(LinkId::new(1)));
/// assert!(cv.get(LinkId::new(2)));
/// assert_eq!(cv.ones(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConflictVector {
    bits: Vec<u64>,
    len: usize,
}

impl ConflictVector {
    /// An all-zero vector for a network of `num_links` links.
    pub fn zeros(num_links: usize) -> Self {
        ConflictVector {
            bits: vec![0; num_links.div_ceil(64)],
            len: num_links,
        }
    }

    /// Number of links the vector covers (`N`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Changes the number of links covered: new bits read 0, bits at or
    /// beyond `num_links` are dropped.
    pub fn resize(&mut self, num_links: usize) {
        self.bits.resize(num_links.div_ceil(64), 0);
        if let (Some(last), used @ 1..) = (self.bits.last_mut(), num_links % 64) {
            // Keep the unused high bits of the last word zero, so a later
            // growth cannot resurrect a dropped bit and `ones` stays exact.
            *last &= (1 << used) - 1;
        }
        self.len = num_links;
    }

    /// Returns `true` when the vector covers zero links.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn set(&mut self, j: LinkId) {
        assert!(j.index() < self.len, "conflict vector index out of range");
        self.bits[j.index() / 64] |= 1 << (j.index() % 64);
    }

    /// Clears bit `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn clear(&mut self, j: LinkId) {
        assert!(j.index() < self.len, "conflict vector index out of range");
        self.bits[j.index() / 64] &= !(1 << (j.index() % 64));
    }

    /// Reads bit `j` (`c_{i,j}`); out-of-range indices read as 0.
    pub fn get(&self, j: LinkId) -> bool {
        if j.index() >= self.len {
            return false;
        }
        self.bits[j.index() / 64] >> (j.index() % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn ones(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of set bits among the given links — D-LSR's cost term
    /// `Σ_{L_j ∈ LSET_P} c_{i,j}`, one bit test per link of the primary.
    pub fn overlap(&self, lset: &[LinkId]) -> u32 {
        lset.iter().filter(|j| self.get(**j)).count() as u32
    }

    /// The size of this vector on the wire, in bytes (`⌈N/8⌉`) — used by
    /// the route-discovery overhead experiment to model D-LSR's larger
    /// link-state advertisements.
    pub fn wire_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn l(i: u32) -> LinkId {
        LinkId::new(i)
    }

    /// Figure 1 of the paper: APLV₇ with `PSET₇ = {P₁, P₃}`,
    /// `LSET_{P₁} = {L₈, L₁₂, L₁₃}`, `LSET_{P₃} = {L₁₁, L₁₃}` yields
    /// `APLV₇ = (0,0,0,0,0,0,0,1,0,0,1,1,2)` (1-indexed positions 8, 11,
    /// 12, 13).
    #[test]
    fn paper_figure_1_aplv7() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(8), l(12), l(13)], BW);
        aplv.register(&[l(11), l(13)], BW);
        let expected = [
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 0),
            (5, 0),
            (6, 0),
            (7, 0),
            (8, 1),
            (9, 0),
            (10, 0),
            (11, 1),
            (12, 1),
            (13, 2),
        ];
        for (j, c) in expected {
            assert_eq!(aplv.count(l(j)), c, "a_7_{j}");
        }
        assert_eq!(aplv.l1_norm(), 5);
        assert_eq!(aplv.max_count(), 2);
        assert_eq!(aplv.required_spare(), BW * 2);
        // "if L7 is selected as a link of the backup route for a
        // DR-connection whose primary channel goes through L12, it will
        // generate conflicts" — conflicts_with counts the overlap links.
        assert_eq!(aplv.conflicts_with(&[l(12)]), 1);
        assert_eq!(aplv.conflicts_with(&[l(1), l(2)]), 0);
        assert_eq!(aplv.conflicts_with(&[l(11), l(13)]), 2);
    }

    /// Figure 2 of the paper: `PSET₆ = {P₁, P₂}` and
    /// `CV₆ = (1,0,1,0,0,0,0,1,0,0,0,1,1)` — bits at 1-indexed positions
    /// 1, 3, 8, 12, 13, i.e. `LSET_{P₁} ∪ LSET_{P₂} = {L₁,L₃,L₈,L₁₂,L₁₃}`.
    #[test]
    fn paper_figure_2_cv6() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(8), l(12), l(13)], BW); // P1
        aplv.register(&[l(1), l(3)], BW); // P2
        let cv = aplv.conflict_vector(14);
        let expected_ones = [1u32, 3, 8, 12, 13];
        for j in 1..14u32 {
            assert_eq!(cv.get(l(j)), expected_ones.contains(&j), "c_6_{j}");
        }
        assert_eq!(cv.ones(), 5);
        assert_eq!(cv.overlap(&[l(1), l(2), l(3)]), 2);
    }

    #[test]
    fn register_unregister_roundtrip() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(1), l(2)], BW);
        aplv.register(&[l(2), l(3)], BW);
        aplv.unregister(&[l(1), l(2)], BW);
        assert_eq!(aplv.count(l(1)), 0);
        assert_eq!(aplv.count(l(2)), 1);
        assert_eq!(aplv.count(l(3)), 1);
        assert_eq!(aplv.l1_norm(), 2);
        aplv.unregister(&[l(2), l(3)], BW);
        assert!(aplv.is_empty());
        assert_eq!(aplv.required_spare(), Bandwidth::ZERO);
        assert_eq!(aplv.max_count(), 0);
    }

    #[test]
    #[should_panic(expected = "unregister of unknown aplv entry")]
    fn unregister_unknown_panics() {
        let mut aplv = Aplv::new();
        aplv.unregister(&[l(1)], BW);
    }

    #[test]
    fn heterogeneous_bandwidth_spare_requirement() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(5)], Bandwidth::from_kbps(1_000));
        aplv.register(&[l(5)], Bandwidth::from_kbps(4_000));
        aplv.register(&[l(6)], Bandwidth::from_kbps(3_000));
        // Worst single failure is L5: 5 Mb/s of simultaneous activations.
        assert_eq!(aplv.required_spare(), Bandwidth::from_kbps(5_000));
        assert_eq!(aplv.max_count(), 2);
        assert_eq!(aplv.bandwidth(l(6)), Bandwidth::from_kbps(3_000));
    }

    #[test]
    fn iter_lists_nonzero_entries() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(3), l(1)], BW);
        let got: Vec<_> = aplv.iter().collect();
        assert_eq!(got, vec![(l(1), 1, BW), (l(3), 1, BW)]);
    }

    #[test]
    fn display_is_nonempty() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(1)], BW);
        assert!(aplv.to_string().contains("L1:1"));
        assert!(!format!("{:?}", Aplv::new()).is_empty());
    }

    #[test]
    fn conflict_vector_bounds() {
        let mut cv = ConflictVector::zeros(70);
        cv.set(l(0));
        cv.set(l(69));
        assert!(cv.get(l(0)));
        assert!(cv.get(l(69)));
        assert!(!cv.get(l(70))); // out of range reads as 0
        assert_eq!(cv.ones(), 2);
        assert_eq!(cv.len(), 70);
        assert_eq!(cv.wire_bytes(), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn conflict_vector_set_out_of_range_panics() {
        let mut cv = ConflictVector::zeros(4);
        cv.set(l(4));
    }

    #[test]
    fn overlap_matches_conflicts_with() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(8), l(12), l(13)], BW);
        aplv.register(&[l(11), l(13), l(64), l(139)], BW);
        let cv = aplv.conflict_vector(140);
        for lset in [
            vec![],
            vec![l(12)],
            vec![l(1), l(2)],
            vec![l(11), l(13)],
            vec![l(8), l(64), l(127), l(139)],
            vec![l(139), l(140), l(9_999)], // beyond the vector reads as 0
        ] {
            assert_eq!(cv.overlap(&lset), aplv.conflicts_with(&lset), "{lset:?}");
        }
    }

    #[test]
    fn clear_undoes_set() {
        let mut cv = ConflictVector::zeros(70);
        cv.set(l(69));
        cv.clear(l(69));
        assert!(!cv.get(l(69)));
        assert_eq!(cv.ones(), 0);
    }

    #[test]
    fn resize_drops_and_zero_extends() {
        let mut cv = ConflictVector::zeros(140);
        cv.set(l(3));
        cv.set(l(69));
        cv.set(l(139));
        cv.resize(69);
        assert_eq!((cv.len(), cv.ones()), (69, 1));
        // Growing again must not resurrect the dropped bits.
        cv.resize(200);
        assert!(cv.get(l(3)) && !cv.get(l(69)) && !cv.get(l(139)));
        assert_eq!(cv.ones(), 1);
        cv.resize(0);
        assert!(cv.is_empty() && cv.ones() == 0);
    }

    /// The audit still bites: `count(j) > 0` is the specification of bit
    /// `j`, so an `Aplv` whose bit and count disagree — either way — is
    /// unequal to the one rebuilt from its registrations, which is what
    /// `assert_invariants` compares it with.
    #[test]
    fn drifted_conflict_bit_breaks_equality_with_rebuild() {
        let rebuilt = {
            let mut a = Aplv::new();
            a.register(&[l(3), l(70)], BW);
            a
        };
        let mut live = Aplv::with_num_links(140);
        live.register(&[l(3), l(70)], BW);
        assert_eq!(live, rebuilt);
        assert_eq!(rebuilt, live);

        live.cv.clear(l(70)); // count 1, bit 0
        assert_ne!(live, rebuilt);
        assert_ne!(rebuilt, live);
        live.cv.set(l(70));
        assert_eq!(live, rebuilt);

        live.cv.set(l(139)); // count 0 (beyond every entry), bit 1
        assert_ne!(live, rebuilt);
        assert_ne!(rebuilt, live);
    }
}

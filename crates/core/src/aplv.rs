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
//!   spare for the worst single link failure), kept in bandwidth units
//!   as `max_j bandwidth_j` (below).
//!
//! The norm and the running maximum live in the [`Aplv`] and move with the
//! counts. The conflict bits do not: D-LSR prices a backup link `L_i`
//! against the new primary's links `j`, so it reads the matrix `c_{i,j}`
//! by *column* — one column per link of the primary, every `i` at once —
//! and the [`crate::DrtpManager`] keeps it that way, one [`ConflictVector`]
//! per primary link `j`. What the `Aplv` contributes is the moment a bit
//! flips: [`Aplv::register_with`] / [`Aplv::unregister_with`] already see
//! every element update, and report each `a_{i,j}` 0→1 / 1→0 transition
//! to their caller (DESIGN.md §11). `CV_i` itself, the row the paper's
//! routers advertise, is [`Aplv::conflict_vector`]: the support of the
//! count table, built when asked.
//!
//! This implementation additionally accumulates, per `j`, the *bandwidth*
//! of the contending backups, so spare sizing stays correct even when
//! connections have heterogeneous bandwidths (the paper assumes uniform
//! bandwidth, under which `bandwidth_j = a_{i,j} · bw_req`).

use drt_net::{Bandwidth, LinkId};
use std::fmt;

/// One slot of an [`Aplv`]'s count table: the accumulation for `L_j`, or
/// vacant (all zero) while `count == 0`.
#[derive(Clone, Copy, Default)]
struct Slot {
    j: u32,
    count: u32,
    bandwidth: Bandwidth,
}

/// Slots of a table's first allocation; it doubles from there.
const FIRST_SLOTS: usize = 8;

/// The slot a probe for `j` starts at in a table of `len` slots (a power
/// of two): the top `log₂ len` bits of `j · 2⁶⁴/φ`. Fibonacci hashing —
/// consecutive ids, which is what a route's links often are, land far
/// apart.
fn home(j: u32, len: usize) -> usize {
    (u64::from(j).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

/// The APLV of one link: per primary-route link `L_j`, the number (and
/// total bandwidth) of backups on this link whose primaries traverse `L_j`.
///
/// `a_{i,j}` is non-zero only for the links of primaries whose backups
/// cross this link — about 90 of 3 000 at 1 000 nodes, about half of 180
/// at 60 — so the counts are stored by what is registered, not by `N`:
/// one open-addressed table keyed by `j` (a power-of-two `Vec` of 16-byte
/// slots, linear probing from a multiplicative hash, doubled when half
/// full, never shrunk). `count == 0` marks a vacant slot and the 1 → 0
/// transition closes the gap by backward-shift deletion, so there are no
/// tombstones and a probe run is never longer than the keys present make
/// it. The manager touches one element per `(backup link, primary link)`
/// pair on every registration and release — the inner loop of connection
/// teardown and failure recovery — and the table keeps that one O(1)
/// update, which the compact orderings do not: a sorted `Vec` with binary
/// search measured `failstorm60` `latency_us_p50` 527 → 642 µs and
/// `churn60` `ops_per_s` −9 % (a 7-step search per update and a ≈ 0.6 KB
/// `memmove` per 0 ↔ 1 transition on half-full vectors; 2 seeds each),
/// a `BTreeMap` pays a pointer chase per element, and a dense array
/// indexed by `j` is 16 · N bytes a link — 144 MB at 1 000 nodes.
///
/// The worst-case spare requirement (`max_j bandwidth_j`) is one running
/// maximum, exact under any mix of bandwidths: `register` raises it at the
/// element update it already performs, and an `unregister` that lowered
/// an entry holding it recomputes it with one pass over the table —
/// nothing else does, and [`Aplv::required_spare`] reads the field. The
/// manager's invariant audit cross-checks it against a vector rebuilt
/// from the connection table, which only ever registers.
///
/// The table holds no conflict bits. `c_{i,j}` is `count(j) > 0`; the
/// manager keeps the bits by primary link `j` for D-LSR, flipping them
/// where [`Aplv::register_with`] and [`Aplv::unregister_with`] report a
/// count leaving or returning to 0.
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
#[derive(Clone, Default)]
pub struct Aplv {
    /// The count table: empty or a power of two long, at most half
    /// occupied, every key reachable from its home slot without crossing
    /// a vacant one.
    slots: Vec<Slot>,
    /// Number of occupied slots, i.e. of `j` with `a_{i,j} > 0` — the
    /// number of bits `CV_i` has set.
    occupied: usize,
    l1: u64,
    /// `max_j bandwidth_j` over the table, maintained by `register` and
    /// `unregister`.
    spare: Bandwidth,
}

/// Two APLVs are equal when they hold the same `(j, count, bandwidth)`
/// set — table capacity and slot order are history and do not
/// distinguish them, so an APLV rebuilt from scratch compares equal to one
/// grown and shrunk incrementally (the comparison `assert_invariants`
/// relies on). The derived quantities are compared too (`‖·‖₁`,
/// [`Aplv::max_count`], [`Aplv::required_spare`] and the occupied-slot
/// count): the rebuilt side only ever registered, so its running maximum
/// never went through a rescan, and the live side's must agree with it —
/// which is exactly what the invariant audit needs cross-checked.
impl PartialEq for Aplv {
    fn eq(&self, other: &Self) -> bool {
        // One pass over each table, no allocation (the audits call this
        // per link): every entry here is there on the other side, and
        // neither side has an entry beyond those.
        let mut n = 0;
        self.l1 == other.l1
            && self.max_count() == other.max_count()
            && self.required_spare() == other.required_spare()
            && self.entries().all(|e| {
                n += 1;
                other
                    .get(e.j)
                    .is_some_and(|o| (o.count, o.bandwidth) == (e.count, e.bandwidth))
            })
            && other.entries().count() == n
            && self.occupied == n
            && other.occupied == n
    }
}

impl Eq for Aplv {}

/// The observable state in link order — never the slots or the capacity
/// — so equal registrations render (and fingerprint) equal whatever
/// history produced them. `conflict_bits` is the number of bits `CV_i`
/// has set, i.e. the occupied slots.
impl fmt::Debug for Aplv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aplv")
            .field("l1", &self.l1)
            .field("max_count", &self.max_count())
            .field("required_spare", &self.required_spare())
            .field("conflict_bits", &self.occupied)
            .field("entries", &AsMap(self))
            .finish()
    }
}

/// [`Aplv::iter`] rendered as a `{j: (count, bandwidth)}` map.
struct AsMap<'a>(&'a Aplv);

impl fmt::Debug for AsMap<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(j, c, bw)| (j, (c, bw))))
            .finish()
    }
}

impl Aplv {
    /// Creates an empty APLV (no backups registered).
    pub const fn new() -> Self {
        Aplv {
            slots: Vec::new(),
            occupied: 0,
            l1: 0,
            spare: Bandwidth::ZERO,
        }
    }

    /// Walks `j`'s probe run: the slot holding `j`, or the vacant slot
    /// that ends the run (where `j` would be inserted). The table must be
    /// allocated; at most half of it is occupied, so the walk ends.
    fn probe(&self, j: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = home(j, self.slots.len());
        while self.slots[at].count > 0 && self.slots[at].j != j {
            at = (at + 1) & mask;
        }
        at
    }

    /// The slot holding `j`, if `a_{i,j} > 0`.
    fn find(&self, j: u32) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let at = self.probe(j);
        (self.slots[at].count > 0).then_some(at)
    }

    /// The entry for `j`, if `a_{i,j} > 0`.
    fn get(&self, j: u32) -> Option<&Slot> {
        self.find(j).map(|at| &self.slots[at])
    }

    /// The occupied slots, in table order.
    fn entries(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().filter(|e| e.count > 0)
    }

    /// The slot for `j`, claiming a vacant one (and doubling the table
    /// first when that would fill it past half) if `j` has none.
    fn slot_mut(&mut self, j: u32) -> &mut Slot {
        if self.slots.is_empty() {
            self.grow();
        }
        let mut at = self.probe(j);
        if self.slots[at].count == 0 {
            if (self.occupied + 1) * 2 > self.slots.len() {
                self.grow();
                at = self.probe(j);
            }
            self.slots[at].j = j;
            self.occupied += 1;
        }
        &mut self.slots[at]
    }

    /// Doubles the table (or allocates its first [`FIRST_SLOTS`]) and
    /// re-inserts every entry.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); len]);
        for e in old.into_iter().filter(|e| e.count > 0) {
            let at = self.probe(e.j);
            self.slots[at] = e;
        }
    }

    /// Vacates slot `at` by backward-shift deletion: every later entry of
    /// the run whose probe path crosses the gap moves into it, so lookups
    /// behind the deleted key still never meet a vacant slot first.
    fn vacate(&mut self, at: usize) {
        let mask = self.slots.len() - 1;
        let (mut gap, mut next) = (at, (at + 1) & mask);
        while self.slots[next].count > 0 {
            let from_home = next.wrapping_sub(home(self.slots[next].j, mask + 1)) & mask;
            if from_home >= (next.wrapping_sub(gap) & mask) {
                self.slots[gap] = self.slots[next];
                gap = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[gap] = Slot::default();
        self.occupied -= 1;
    }

    /// Registers a backup whose primary has link set `primary_lset` and
    /// bandwidth `bw`: increments `a_{i,j}` for every `j ∈ primary_lset`.
    pub fn register(&mut self, primary_lset: &[LinkId], bw: Bandwidth) {
        self.register_with(primary_lset, bw, |_| {});
    }

    /// [`Aplv::register`], calling `opened(j)` for every `j` whose count
    /// leaves 0 — where `c_{i,j}` becomes 1.
    pub fn register_with(
        &mut self,
        primary_lset: &[LinkId],
        bw: Bandwidth,
        mut opened: impl FnMut(LinkId),
    ) {
        for &j in primary_lset {
            let e = self.slot_mut(j.as_u32());
            let c = e.count;
            e.count += 1;
            e.bandwidth += bw;
            let total = e.bandwidth;
            self.spare = self.spare.max(total);
            self.l1 += 1;
            if c == 0 {
                opened(j);
            }
        }
    }

    /// Removes a previously registered backup (same `primary_lset` and
    /// `bw` as at registration). If it lowered an entry that held the
    /// maximum bandwidth, the maximum is recomputed with one pass over the
    /// table after the loop — at most one rescan per call.
    ///
    /// # Panics
    ///
    /// Panics if the registration is not present — that indicates corrupted
    /// bookkeeping, which must never be silently ignored.
    pub fn unregister(&mut self, primary_lset: &[LinkId], bw: Bandwidth) {
        self.unregister_with(primary_lset, bw, |_| {});
    }

    /// [`Aplv::unregister`], calling `closed(j)` for every `j` whose count
    /// returns to 0 — where `c_{i,j}` becomes 0.
    ///
    /// # Panics
    ///
    /// As [`Aplv::unregister`].
    pub fn unregister_with(
        &mut self,
        primary_lset: &[LinkId],
        bw: Bandwidth,
        mut closed: impl FnMut(LinkId),
    ) {
        // Whether an entry that held the maximum (before its decrement)
        // was lowered: only then can the maximum have dropped.
        let mut lowered_max = false;
        for &j in primary_lset {
            let at = self
                .find(j.as_u32())
                .expect("unregister of unknown aplv entry");
            let e = &mut self.slots[at];
            lowered_max |= e.bandwidth == self.spare;
            e.count -= 1;
            e.bandwidth -= bw;
            let (cleared, new_bw) = (e.count == 0, e.bandwidth);
            self.l1 -= 1;
            if cleared {
                assert!(new_bw.is_zero(), "aplv bandwidth residue at {j}");
                self.vacate(at);
                closed(j);
            }
        }
        if lowered_max {
            // Vacant slots hold zero, so the whole table is the domain.
            self.spare = self
                .slots
                .iter()
                .map(|e| e.bandwidth)
                .max()
                .unwrap_or(Bandwidth::ZERO);
        }
    }

    /// `a_{i,j}` — the number of backups through this link whose primaries
    /// traverse `j`.
    pub fn count(&self, j: LinkId) -> u32 {
        self.get(j.as_u32()).map_or(0, |e| e.count)
    }

    /// Total bandwidth of the backups counted by [`Aplv::count`] at `j` —
    /// the spare bandwidth a failure of `j` would demand from this link.
    pub fn bandwidth(&self, j: LinkId) -> Bandwidth {
        self.get(j.as_u32())
            .map_or(Bandwidth::ZERO, |e| e.bandwidth)
    }

    /// `‖APLV‖₁ = Σ_j a_{i,j}` — P-LSR's advertised link cost.
    pub fn l1_norm(&self) -> u64 {
        self.l1
    }

    /// `max_j a_{i,j}` — the number of backups a worst-case single link
    /// failure would activate here (Section 5's spare-sizing count). One
    /// pass over the table: its readers (hotspot analysis, rendering,
    /// equality) are all off the registration path.
    pub fn max_count(&self) -> u32 {
        self.slots.iter().map(|e| e.count).max().unwrap_or(0)
    }

    /// `max_j bandwidth_j` — the spare bandwidth required to survive the
    /// worst-case single link failure without any activation loss, under
    /// any mix of bandwidths.
    ///
    /// A field read: the manager consults this per backup link on every
    /// registration and release, so the maximum is maintained where the
    /// elements change (see [`Aplv::unregister`] for the one rescan).
    pub fn required_spare(&self) -> Bandwidth {
        self.spare
    }

    /// The `j` whose backups here demand more than `pool` if `L_j` fails
    /// (`bandwidth_j > pool`), in table order. Walks the slots in place:
    /// the failure reports call it once per link whose
    /// [`Aplv::required_spare`] exceeds its activation pool.
    pub(crate) fn columns_above(&self, pool: Bandwidth) -> impl Iterator<Item = LinkId> + '_ {
        self.entries()
            .filter(move |e| e.bandwidth > pool)
            .map(|e| LinkId::new(e.j))
    }

    /// Returns `true` when no backups are registered.
    pub fn is_empty(&self) -> bool {
        self.l1 == 0
    }

    /// Iterates over the nonzero elements as `(j, count, bandwidth)`, in
    /// link order: the occupied slots, sorted by `j`. Off every hot path
    /// (rendering, audits and tests).
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, u32, Bandwidth)> {
        let mut entries: Vec<Slot> = self.entries().copied().collect();
        entries.sort_unstable_by_key(|e| e.j);
        entries
            .into_iter()
            .map(|e| (LinkId::new(e.j), e.count, e.bandwidth))
    }

    /// The Conflict Vector (`CV_i`) of D-LSR as advertised in a network
    /// with `num_links` links: bit `j` set iff `a_{i,j} > 0`, built from
    /// the count table (entries at or beyond `num_links` are left out).
    pub fn conflict_vector(&self, num_links: usize) -> ConflictVector {
        let mut cv = ConflictVector::zeros(num_links);
        for e in self.entries().filter(|e| (e.j as usize) < num_links) {
            cv.set(LinkId::new(e.j));
        }
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

/// A bit vector over the links of a network, for D-LSR's conflict matrix
/// `c_{i,j}`: as the paper advertises it, the row `CV_i` (bit `j` set iff
/// at least one primary through `L_j` has its backup on `L_i`); as the
/// [`crate::DrtpManager`] stores it, the column of primary link `L_j` (bit
/// `i` set iff `a_{i,j} > 0`).
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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

    /// Adds 1 to `counts[i]` for every set bit `i` — one column's share
    /// of D-LSR's dense per-request cost terms.
    ///
    /// # Panics
    ///
    /// Panics when `counts` is shorter than a set bit's index.
    pub fn count_into(&self, counts: &mut [u32]) {
        for (w, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                counts[w * 64 + rest.trailing_zeros() as usize] += 1;
                rest &= rest - 1;
            }
        }
    }

    /// Number of set bits among the given links — on a row `CV_i`, D-LSR's
    /// cost term `Σ_{L_j ∈ LSET_P} c_{i,j}`.
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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
        // generate conflicts" — CV₇ counts the overlap links.
        let cv = aplv.conflict_vector(14);
        assert_eq!(cv.overlap(&[l(12)]), 1);
        assert_eq!(cv.overlap(&[l(1), l(2)]), 0);
        assert_eq!(cv.overlap(&[l(11), l(13)]), 2);
    }

    /// The transitions `register_with` / `unregister_with` report are the
    /// counts leaving and returning to 0 — the order of a route's links,
    /// a link shared by two registrations and an unrelated link included.
    #[test]
    fn transitions_are_reported_where_counts_leave_and_return_to_zero() {
        let mut aplv = Aplv::new();
        let mut opened = Vec::new();
        aplv.register_with(&[l(8), l(12), l(13)], BW, |j| opened.push(j));
        aplv.register_with(&[l(11), l(13)], BW, |j| opened.push(j));
        assert_eq!(opened, [l(8), l(12), l(13), l(11)]);
        let mut closed = Vec::new();
        aplv.unregister_with(&[l(8), l(12), l(13)], BW, |j| closed.push(j));
        assert_eq!(closed, [l(8), l(12)]);
        aplv.unregister_with(&[l(11), l(13)], BW, |j| closed.push(j));
        assert_eq!(closed, [l(8), l(12), l(11), l(13)]);
        assert!(aplv.is_empty());
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

        // A tie: L5 and L6 both hold 5 Mb/s. Lowering one holder leaves
        // the maximum with the other; lowering that one drops it to the
        // runner-up; releasing everything returns zero.
        let mbps = Bandwidth::from_mbps;
        aplv.register(&[l(6)], mbps(2));
        assert_eq!(aplv.required_spare(), mbps(5));
        aplv.unregister(&[l(5)], mbps(1));
        assert_eq!(
            (aplv.bandwidth(l(5)), aplv.required_spare()),
            (mbps(4), mbps(5))
        );
        aplv.unregister(&[l(6)], mbps(2));
        assert_eq!(aplv.required_spare(), mbps(4));
        aplv.unregister(&[l(5)], mbps(4));
        assert_eq!((aplv.required_spare(), aplv.max_count()), (mbps(3), 1));
        aplv.unregister(&[l(6)], mbps(3));
        assert_eq!(aplv.required_spare(), Bandwidth::ZERO);
        assert_eq!(aplv.max_count(), 0);
        assert!(aplv.is_empty());

        // One 2 Mb/s backup among 3 Mb/s ones, released again, leaves no
        // trace: the vector equals, and renders like, the one that only
        // ever saw 3 Mb/s.
        let uniform = {
            let mut a = Aplv::new();
            a.register(&[l(1), l(2)], BW);
            a.register(&[l(2), l(3)], BW);
            a
        };
        let mut live = Aplv::new();
        live.register(&[l(1), l(2)], BW);
        live.register(&[l(2), l(4)], mbps(2));
        live.register(&[l(2), l(3)], BW);
        assert_eq!(live.required_spare(), mbps(8));
        live.unregister(&[l(2), l(4)], mbps(2));
        assert_eq!(live.required_spare(), BW * 2);
        assert_eq!(live, uniform);
        assert_eq!(format!("{live:?}"), format!("{uniform:?}"));
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
    fn conflict_vector_is_the_support_of_the_counts() {
        let mut aplv = Aplv::new();
        aplv.register(&[l(8), l(12), l(13)], BW);
        aplv.register(&[l(11), l(13), l(64), l(139), l(9_999)], BW);
        let cv = aplv.conflict_vector(140);
        assert_eq!(cv.ones(), 6); // L9999 lies beyond the network
        for lset in [
            vec![],
            vec![l(12)],
            vec![l(1), l(2)],
            vec![l(11), l(13)],
            vec![l(8), l(64), l(127), l(139)],
            vec![l(139), l(140), l(9_999)], // beyond the vector reads as 0
        ] {
            let by_count = lset
                .iter()
                .filter(|j| j.index() < 140 && aplv.count(**j) > 0)
                .count() as u32;
            assert_eq!(cv.overlap(&lset), by_count, "{lset:?}");
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
    fn count_into_adds_one_per_set_bit() {
        let mut cv = ConflictVector::zeros(140);
        for i in [0, 63, 64, 139] {
            cv.set(l(i));
        }
        let mut counts = vec![1u32; 140];
        cv.count_into(&mut counts);
        cv.count_into(&mut counts);
        for (i, &c) in counts.iter().enumerate() {
            let set = [0, 63, 64, 139].contains(&i);
            assert_eq!(c, if set { 3 } else { 1 }, "counts[{i}]");
        }
    }

    /// A table holds what is registered, whatever the ids are: one key —
    /// however large — fits the first allocation.
    #[test]
    fn table_is_sized_by_registrations_not_ids() {
        for j in [2_999, 4_000_000] {
            let mut aplv = Aplv::new();
            aplv.register(&[l(j)], BW);
            assert!(aplv.slots.len() <= 8, "{} slots for L{j}", aplv.slots.len());
            assert_eq!((aplv.count(l(j)), aplv.count(l(j - 1))), (1, 0));
        }
    }

    /// Ids below 100 000 whose probe starts at slot `home_of_1024` of a
    /// 1 024-slot table — and so, the hash being the top bits, at one and
    /// the same slot of every smaller table too.
    fn colliding(home_of_1024: usize) -> Vec<u32> {
        (0..100_000)
            .filter(|&j| home(j, 1024) == home_of_1024)
            .collect()
    }

    /// Four keys whose home is the last slot of an 8-slot table fill slots
    /// 7, 0, 1, 2; deleting from the middle of that run closes the gap
    /// across the wrap, and growth re-homes the rest.
    #[test]
    fn colliding_run_wraps_and_closes_its_gaps() {
        let keys = colliding(1023);
        let mut aplv = Aplv::new();
        for &j in &keys[..4] {
            aplv.register(&[l(j)], BW);
        }
        let at = |aplv: &Aplv, j: u32| aplv.find(j).unwrap();
        assert_eq!(aplv.slots.len(), 8);
        assert_eq!(
            keys[..4].iter().map(|&j| at(&aplv, j)).collect::<Vec<_>>(),
            [7, 0, 1, 2]
        );
        aplv.unregister(&[l(keys[1])], BW);
        assert_eq!(aplv.count(l(keys[1])), 0);
        assert_eq!(
            [at(&aplv, keys[0]), at(&aplv, keys[2]), at(&aplv, keys[3])],
            [7, 0, 1]
        );
        assert_eq!(aplv.slots[2].count, 0);
        aplv.unregister(&[l(keys[0])], BW);
        assert_eq!([at(&aplv, keys[2]), at(&aplv, keys[3])], [7, 0]);
        for &j in &keys[4..8] {
            aplv.register(&[l(j)], BW);
        }
        assert_eq!(aplv.slots.len(), 16);
        let live = [&keys[2..4], &keys[4..8]].concat();
        let mut run: Vec<_> = live.iter().map(|&j| at(&aplv, j)).collect();
        run.sort_unstable();
        assert_eq!(run, [0, 1, 2, 3, 4, 15]);
        let mut sorted = live.clone();
        sorted.sort_unstable();
        assert_eq!(
            aplv.iter().map(|(j, ..)| j.as_u32()).collect::<Vec<_>>(),
            sorted
        );
    }

    /// An id for the model test: uniform below 100 000, a dense block like
    /// a small network's, or a member of a family sharing one home slot —
    /// the last one, whose runs wrap, or one in the middle.
    fn arb_id() -> impl Strategy<Value = u32> {
        let (wrapping, middle) = (colliding(1023), colliding(341));
        prop_oneof![
            3 => 0u32..100_000,
            2 => 0u32..140,
            3 => (0..wrapping.len()).prop_map(move |k| wrapping[k]),
            2 => (0..middle.len()).prop_map(move |k| middle[k]),
        ]
    }

    proptest! {
        /// The table against a `BTreeMap` over random register /
        /// unregister traces: every observation after every step, the
        /// set the reported 0 ↔ 1 transitions build, `==` with the
        /// rebuild of the surviving registrations, and one `Debug`
        /// rendering whatever history led there.
        #[test]
        fn table_matches_a_map_model(
            ops in prop::collection::vec(
                (0u32..3, prop::collection::vec(arb_id(), 1..6), 1u64..=3, 0usize..64),
                1..120,
            ),
        ) {
            let mut aplv = Aplv::new();
            let mut live: Vec<(Vec<LinkId>, Bandwidth)> = Vec::new();
            let mut model: BTreeMap<LinkId, (u32, Bandwidth)> = BTreeMap::new();
            let mut touched: BTreeSet<LinkId> = BTreeSet::new();
            // `j` is in `support` between the report of its count leaving
            // 0 and the report of its return.
            let mut support: BTreeSet<LinkId> = BTreeSet::new();
            for (kind, ids, mbps, victim) in ops {
                // Two registrations to one release: the table grows.
                if kind == 0 && !live.is_empty() {
                    let (lset, bw) = live.remove(victim % live.len());
                    aplv.unregister_with(&lset, bw, |j| assert!(support.remove(&j), "{j}"));
                    for j in lset {
                        let e = model.get_mut(&j).unwrap();
                        *e = (e.0 - 1, e.1 - bw);
                        if e.0 == 0 {
                            model.remove(&j);
                        }
                    }
                } else {
                    let mut lset: Vec<LinkId> = ids.into_iter().map(LinkId::new).collect();
                    lset.sort_unstable();
                    lset.dedup();
                    let bw = Bandwidth::from_mbps(mbps);
                    aplv.register_with(&lset, bw, |j| assert!(support.insert(j), "{j}"));
                    for &j in &lset {
                        let e = model.entry(j).or_default();
                        *e = (e.0 + 1, e.1 + bw);
                    }
                    touched.extend(&lset);
                    live.push((lset, bw));
                }

                for &j in &touched {
                    let (count, bw) = model.get(&j).copied().unwrap_or_default();
                    prop_assert_eq!((aplv.count(j), aplv.bandwidth(j)), (count, bw), "{}", j);
                }
                let listed: Vec<_> = aplv.iter().collect();
                let expected: Vec<_> = model.iter().map(|(&j, &(c, bw))| (j, c, bw)).collect();
                prop_assert_eq!(listed, expected);
                prop_assert!(support.iter().eq(model.keys()));
                prop_assert_eq!(aplv.l1_norm(), model.values().map(|e| u64::from(e.0)).sum::<u64>());
                prop_assert_eq!(aplv.max_count(), model.values().map(|e| e.0).max().unwrap_or(0));
                prop_assert_eq!(
                    aplv.required_spare(),
                    model.values().map(|e| e.1).max().unwrap_or_default()
                );
                prop_assert!(aplv.occupied * 2 <= aplv.slots.len());
                let mut rebuilt = Aplv::new();
                for (lset, bw) in &live {
                    rebuilt.register(lset, *bw);
                }
                prop_assert_eq!(&aplv, &rebuilt);
                prop_assert_eq!(format!("{aplv:?}"), format!("{rebuilt:?}"));
            }
        }
    }

    /// The running maximum is audited the same way: a `spare` that is not
    /// `max_j bandwidth_j` — too high or too low — makes an `Aplv`
    /// unequal to its rebuild, whose maximum only ever rose.
    #[test]
    fn drifted_spare_breaks_equality_with_rebuild() {
        let rebuilt = {
            let mut a = Aplv::new();
            a.register(&[l(3), l(70)], BW);
            a.register(&[l(70)], BW);
            a
        };
        let mut live = rebuilt.clone();
        assert_eq!(live, rebuilt);
        for drifted in [BW * 3, BW, Bandwidth::ZERO] {
            live.spare = drifted;
            assert_ne!(live, rebuilt);
            assert_ne!(rebuilt, live);
        }
        live.spare = BW * 2;
        assert_eq!(live, rebuilt);
    }
}

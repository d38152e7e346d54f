//! Per-link resource accounting.

use drt_net::Bandwidth;
use std::error::Error;
use std::fmt;

/// Error returned when a link's pools cannot supply the requested
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError;

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("insufficient link capacity")
    }
}

impl Error for CapacityError {}

/// Resource ledger of one unidirectional link.
///
/// Capacity is partitioned into three exact, non-overlapping pools
/// (the notation of Section 2.1):
///
/// * `prime_bw` — hard reservations held by primary channels (and by
///   *dedicated*, non-multiplexed backups of the baseline scheme);
/// * `spare_bw` — the shared pool reserved for multiplexed backups;
/// * `free` — everything else (`total_bw − prime_bw − spare_bw`), usable by
///   best-effort traffic until claimed.
///
/// The invariant `prime + spare ≤ capacity` holds after every operation;
/// all arithmetic is integer-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkResources {
    capacity: Bandwidth,
    prime: Bandwidth,
    spare: Bandwidth,
}

impl LinkResources {
    /// A fresh ledger for a link of the given capacity.
    pub const fn new(capacity: Bandwidth) -> Self {
        LinkResources {
            capacity,
            prime: Bandwidth::ZERO,
            spare: Bandwidth::ZERO,
        }
    }

    /// Total capacity (`total_bw`).
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Bandwidth held by primary channels (`prime_bw`).
    pub fn prime(&self) -> Bandwidth {
        self.prime
    }

    /// Bandwidth reserved in the shared backup pool (`spare_bw`).
    pub fn spare(&self) -> Bandwidth {
        self.spare
    }

    /// Unreserved bandwidth (`total − prime − spare`).
    pub fn free(&self) -> Bandwidth {
        self.capacity - self.prime - self.spare
    }

    /// Bandwidth a *backup* route may count on at activation time:
    /// everything not held by primaries (`total − prime`). This is the
    /// "available bandwidth (the sum of the un-allocated bandwidth and the
    /// spare bandwidth shared by the backup channels)" of Section 3.1, and
    /// the bound used by the flooding scheme's forwarding bandwidth test.
    pub fn backup_headroom(&self) -> Bandwidth {
        self.capacity - self.prime
    }

    /// Returns `true` when a primary of size `bw` can be admitted from the
    /// free pool.
    pub fn can_admit_primary(&self, bw: Bandwidth) -> bool {
        bw <= self.free()
    }

    /// Reserves `bw` for a primary channel from the free pool.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] (leaving the ledger untouched) when the
    /// free pool is too small.
    pub fn admit_primary(&mut self, bw: Bandwidth) -> Result<(), CapacityError> {
        if self.can_admit_primary(bw) {
            self.prime += bw;
            Ok(())
        } else {
            Err(CapacityError)
        }
    }

    /// Releases `bw` of primary reservation.
    ///
    /// # Panics
    ///
    /// Panics when more is released than is held — corrupted bookkeeping.
    pub fn release_primary(&mut self, bw: Bandwidth) {
        assert!(bw <= self.prime, "primary release underflow");
        self.prime -= bw;
    }

    /// Grows the spare pool toward `target`, limited by the free pool.
    /// Returns the bandwidth actually added (possibly zero). Never shrinks.
    pub fn grow_spare_toward(&mut self, target: Bandwidth) -> Bandwidth {
        if target <= self.spare {
            return Bandwidth::ZERO;
        }
        let want = target - self.spare;
        let add = want.min(self.free());
        self.spare += add;
        add
    }

    /// Shrinks the spare pool to at most `target`, returning the released
    /// amount to the free pool.
    pub fn shrink_spare_to(&mut self, target: Bandwidth) -> Bandwidth {
        if self.spare <= target {
            return Bandwidth::ZERO;
        }
        let give_back = self.spare - target;
        self.spare -= give_back;
        give_back
    }

    /// Converts activation demand into a primary reservation: takes `bw`
    /// from the spare pool first, then from the free pool, and adds it to
    /// `prime`. Used when a backup is promoted to primary after a failure.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] (ledger untouched) when
    /// `spare + free < bw`.
    pub fn promote_from_pools(&mut self, bw: Bandwidth) -> Result<(), CapacityError> {
        if bw > self.spare + self.free() {
            return Err(CapacityError);
        }
        let from_spare = bw.min(self.spare);
        self.spare -= from_spare;
        self.prime += bw;
        Ok(())
    }
}

impl fmt::Display for LinkResources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prime {} + spare {} + free {} = {}",
            self.prime,
            self.spare,
            self.free(),
            self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(v: u64) -> Bandwidth {
        Bandwidth::from_mbps(v)
    }

    #[test]
    fn fresh_ledger() {
        let r = LinkResources::new(mb(100));
        assert_eq!(r.capacity(), mb(100));
        assert_eq!(r.free(), mb(100));
        assert_eq!(r.backup_headroom(), mb(100));
    }

    #[test]
    fn primary_admission_and_release() {
        let mut r = LinkResources::new(mb(10));
        assert!(r.admit_primary(mb(6)).is_ok());
        assert_eq!(r.prime(), mb(6));
        assert_eq!(r.free(), mb(4));
        assert!(r.admit_primary(mb(5)).is_err());
        assert_eq!(r.prime(), mb(6), "failed admission leaves state intact");
        r.release_primary(mb(6));
        assert_eq!(r.free(), mb(10));
    }

    #[test]
    #[should_panic(expected = "primary release underflow")]
    fn over_release_panics() {
        let mut r = LinkResources::new(mb(10));
        r.release_primary(mb(1));
    }

    #[test]
    fn spare_growth_is_bounded_by_free() {
        let mut r = LinkResources::new(mb(10));
        r.admit_primary(mb(7)).unwrap();
        // want 5, only 3 free
        assert_eq!(r.grow_spare_toward(mb(5)), mb(3));
        assert_eq!(r.spare(), mb(3));
        assert_eq!(r.free(), Bandwidth::ZERO);
        // target below current: no change
        assert_eq!(r.grow_spare_toward(mb(1)), Bandwidth::ZERO);
        assert_eq!(r.spare(), mb(3));
    }

    #[test]
    fn spare_shrink_returns_to_free() {
        let mut r = LinkResources::new(mb(10));
        assert_eq!(r.grow_spare_toward(mb(6)), mb(6));
        assert_eq!(r.shrink_spare_to(mb(2)), mb(4));
        assert_eq!(r.spare(), mb(2));
        assert_eq!(r.free(), mb(8));
        assert_eq!(r.shrink_spare_to(mb(5)), Bandwidth::ZERO);
    }

    #[test]
    fn backup_headroom_ignores_spare() {
        let mut r = LinkResources::new(mb(10));
        r.admit_primary(mb(4)).unwrap();
        r.grow_spare_toward(mb(3));
        // Backups can multiplex into the spare pool, so headroom counts it.
        assert_eq!(r.backup_headroom(), mb(6));
        assert_eq!(r.free(), mb(3));
    }

    #[test]
    fn promotion_consumes_spare_then_free() {
        let mut r = LinkResources::new(mb(10));
        r.grow_spare_toward(mb(3));
        assert!(r.promote_from_pools(mb(5)).is_ok());
        assert_eq!(r.prime(), mb(5));
        assert_eq!(r.spare(), Bandwidth::ZERO);
        assert_eq!(r.free(), mb(5));
        // Too much:
        assert!(r.promote_from_pools(mb(6)).is_err());
        assert_eq!(r.prime(), mb(5), "failed promotion leaves state intact");
    }

    #[test]
    fn conservation_invariant_random_walk() {
        let mut r = LinkResources::new(mb(100));
        let ops: [fn(&mut LinkResources); 5] = [
            |r| {
                let _ = r.admit_primary(mb(7));
            },
            |r| {
                if r.prime() >= mb(7) {
                    r.release_primary(mb(7));
                }
            },
            |r| {
                let _ = r.grow_spare_toward(mb(30));
            },
            |r| {
                let _ = r.shrink_spare_to(mb(5));
            },
            |r| {
                let _ = r.promote_from_pools(mb(3));
            },
        ];
        for i in 0..1000 {
            ops[i % ops.len()](&mut r);
            assert!(r.prime() + r.spare() <= r.capacity());
            assert_eq!(r.free() + r.prime() + r.spare(), r.capacity());
        }
    }

    #[test]
    fn display_shows_all_pools() {
        let mut r = LinkResources::new(mb(10));
        r.admit_primary(mb(2)).unwrap();
        r.grow_spare_toward(mb(3));
        assert_eq!(
            r.to_string(),
            "prime 2 Mb/s + spare 3 Mb/s + free 5 Mb/s = 10 Mb/s"
        );
    }
}

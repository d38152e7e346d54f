//! Integer bandwidth quantities.
//!
//! All resource accounting in the reproduction is done in kilobits per
//! second stored as `u64`. Using an integer type keeps the
//! `prime + spare + free == total` conservation invariant exact — the
//! floating-point drift that would otherwise accumulate over hundreds of
//! thousands of admit/release events is a classic source of phantom
//! admission failures in connection-level simulators.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative bandwidth amount, stored in kilobits per second.
///
/// `Bandwidth` is a plain quantity: it supports saturating-free checked
/// arithmetic through the standard operators (which panic on overflow or
/// underflow in debug fashion, see *Panics* on each operator) plus explicit
/// [`Bandwidth::checked_sub`] and [`Bandwidth::saturating_sub`] helpers for
/// admission-control code paths.
///
/// # Example
///
/// ```
/// use drt_net::Bandwidth;
/// let capacity = Bandwidth::from_mbps(100);
/// let request = Bandwidth::from_kbps(3_000);
/// assert!(request <= capacity);
/// assert_eq!(capacity.connections_of(request), 33);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth from kilobits per second.
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps)
    }

    /// Creates a bandwidth from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000)
    }

    /// Creates a bandwidth from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000)
    }

    /// Returns the amount in kilobits per second.
    pub const fn kbps(self) -> u64 {
        self.0
    }

    /// Returns the amount in (possibly fractional) megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns `true` if this is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` when `rhs > self`.
    pub const fn checked_sub(self, rhs: Bandwidth) -> Option<Bandwidth> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Bandwidth(v)),
            None => None,
        }
    }

    /// Saturating subtraction; clamps at [`Bandwidth::ZERO`].
    pub const fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }

    /// How many connections of size `unit` fit inside this amount
    /// (integer division; zero when `unit` is zero).
    ///
    /// This is the paper's `SC_i` computation: "SC_i can be calculated by
    /// dividing the total spare bandwidth reserved on L_i by the bandwidth of
    /// a DR-connection".
    pub const fn connections_of(self, unit: Bandwidth) -> u64 {
        match self.0.checked_div(unit.0) {
            Some(v) => v,
            None => 0,
        }
    }

    /// Multiplies by an integer count (e.g. `bw_req * number_of_backups`).
    pub const fn times(self, count: u64) -> Bandwidth {
        Bandwidth(self.0 * count)
    }

    /// Returns `self/total` as a fraction in `[0, 1]`; 0 when `total` is zero.
    pub fn fraction_of(self, total: Bandwidth) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }

    /// Returns the smaller of two bandwidths.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Returns the larger of two bandwidths.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{} Gb/s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{} Mb/s", self.0 / 1_000)
        } else {
            write!(f, "{} kb/s", self.0)
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    /// # Panics
    /// Panics on `u64` overflow.
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_add(rhs.0).expect("bandwidth overflow"))
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        *self = *self + rhs;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    /// # Panics
    /// Panics when `rhs > self`; use [`Bandwidth::checked_sub`] or
    /// [`Bandwidth::saturating_sub`] in admission-control paths.
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_sub(rhs.0).expect("bandwidth underflow"))
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Bandwidth {
    type Output = Bandwidth;
    /// # Panics
    /// Panics on `u64` overflow.
    fn mul(self, rhs: u64) -> Bandwidth {
        Bandwidth(self.0.checked_mul(rhs).expect("bandwidth overflow"))
    }
}

impl Div<u64> for Bandwidth {
    type Output = Bandwidth;
    /// # Panics
    /// Panics when `rhs == 0`.
    fn div(self, rhs: u64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Bandwidth::from_mbps(100).kbps(), 100_000);
        assert_eq!(Bandwidth::from_gbps(1).kbps(), 1_000_000);
        assert!((Bandwidth::from_kbps(1_500).mbps() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Bandwidth::from_kbps(10);
        let b = Bandwidth::from_kbps(4);
        assert_eq!(a + b, Bandwidth::from_kbps(14));
        assert_eq!(a - b, Bandwidth::from_kbps(6));
        assert_eq!(a * 3, Bandwidth::from_kbps(30));
        assert_eq!(a / 2, Bandwidth::from_kbps(5));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(b.saturating_sub(a), Bandwidth::ZERO);
        let total: Bandwidth = [a, b, b].into_iter().sum();
        assert_eq!(total, Bandwidth::from_kbps(18));
    }

    #[test]
    #[should_panic(expected = "bandwidth underflow")]
    fn subtraction_underflow_panics() {
        let _ = Bandwidth::from_kbps(1) - Bandwidth::from_kbps(2);
    }

    #[test]
    fn connections_of_matches_paper_sc_definition() {
        let spare = Bandwidth::from_mbps(10);
        let unit = Bandwidth::from_kbps(3_000);
        assert_eq!(spare.connections_of(unit), 3);
        assert_eq!(spare.connections_of(Bandwidth::ZERO), 0);
    }

    #[test]
    fn fraction_and_minmax() {
        let half = Bandwidth::from_mbps(50);
        let full = Bandwidth::from_mbps(100);
        assert!((half.fraction_of(full) - 0.5).abs() < 1e-12);
        assert_eq!(Bandwidth::ZERO.fraction_of(Bandwidth::ZERO), 0.0);
        assert_eq!(half.min(full), half);
        assert_eq!(half.max(full), full);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Bandwidth::from_kbps(512).to_string(), "512 kb/s");
        assert_eq!(Bandwidth::from_mbps(100).to_string(), "100 Mb/s");
        assert_eq!(Bandwidth::from_gbps(2).to_string(), "2 Gb/s");
    }
}

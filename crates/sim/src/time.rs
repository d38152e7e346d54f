//! Virtual time: microsecond-resolution instants and durations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant of virtual simulation time, in microseconds since the start
/// of the simulation.
///
/// Integer microseconds keep event ordering exact across the multi-hour
/// simulated horizons of the paper's evaluation (a 12-hour run is ~2³⁶ µs,
/// far inside `u64`).
///
/// # Example
///
/// ```
/// use drt_sim::{SimTime, SimDuration};
/// let t = SimTime::from_secs(10) + SimDuration::from_minutes(1);
/// assert_eq!(t.as_secs_f64(), 70.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant that orders after every reachable simulation time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant from whole minutes.
    pub const fn from_minutes(mins: u64) -> Self {
        SimTime(mins * 60 * 1_000_000)
    }

    /// Creates an instant from (non-negative, finite) fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large for `u64`
    /// microseconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0 && secs <= u64::MAX as f64 / 1e6,
            "invalid simulation time: {secs}"
        );
        SimTime((secs * 1e6).round() as u64)
    }

    /// The instant in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics on `u64` overflow.
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    /// Panics when `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_minutes(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600 * 1_000_000)
    }

    /// Creates a duration from (non-negative, finite) fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large for `u64`
    /// microseconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0 && secs <= u64::MAX as f64 / 1e6,
            "invalid duration: {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer factor.
    pub const fn times(self, count: u64) -> SimDuration {
        SimDuration(self.0 * count)
    }

    /// Returns `true` if this is the empty duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics on `u64` overflow.
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics when `rhs > self`.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_micros(1_000_000));
        assert_eq!(SimTime::from_minutes(2), SimTime::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_minutes(60));
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(30);
        assert_eq!((t + d).as_secs_f64(), 130.0);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
    }

    #[test]
    fn fractional_seconds_roundtrip() {
        let t = SimTime::from_secs_f64(12.345678);
        assert!((t.as_secs_f64() - 12.345678).abs() < 1e-9);
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!(d.as_micros(), 250_000);
    }

    #[test]
    #[should_panic(expected = "invalid simulation time")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn ordering_and_sum() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimTime::from_secs(1) < SimTime::MAX);
        let total: SimDuration = (1..=3).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(6));
        assert!(SimDuration::ZERO.is_zero());
        assert_eq!(
            SimDuration::from_secs(2).times(3),
            SimDuration::from_secs(6)
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000000s");
        assert_eq!(SimDuration::from_millis(500).to_string(), "0.500000s");
    }
}

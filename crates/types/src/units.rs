//! Dimensional newtypes: [`Bits`], [`BitRate`], [`Seconds`], [`Instant`].
//!
//! The arithmetic mirrors physical dimensions:
//!
//! ```
//! use vod_types::units::{BitRate, Bits, Instant, Seconds};
//!
//! let buffer = Bits::from_megabits(12.0);
//! let rate = BitRate::from_mbps(1.5);
//! let drain_time: Seconds = buffer / rate;          // bits / (bits/s) = s
//! assert!((drain_time.as_secs_f64() - 8.0).abs() < 1e-12);
//!
//! let refill: Bits = rate * Seconds::from_secs(4.0); // (bits/s) * s = bits
//! assert_eq!(refill, Bits::from_megabits(6.0));
//!
//! let t0 = Instant::ZERO;
//! let t1 = t0 + Seconds::from_secs(2.5);
//! assert_eq!(t1 - t0, Seconds::from_secs(2.5));
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! forward_partial_ord_total {
    ($ty:ident) => {
        impl Eq for $ty {}

        #[allow(clippy::derive_ord_xor_partial_ord)]
        impl Ord for $ty {
            fn cmp(&self, other: &Self) -> Ordering {
                // All constructors go through finite `f64`s; NaN would be a
                // logic error upstream, so treat it as equal-last rather
                // than panicking in comparison-heavy simulator code.
                self.partial_cmp(other).unwrap_or(Ordering::Equal)
            }
        }
    };
}

/// An amount of data, in bits.
///
/// The paper expresses every size (`BS`, memory requirements) in bits
/// because the disk transfer rate `TR` and the stream consumption rate `CR`
/// are given in bits/second. Use the `from_*`/`as_*` helpers to convert to
/// human units.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Bits(f64);

forward_partial_ord_total!(Bits);

impl Bits {
    /// Zero bits.
    pub const ZERO: Bits = Bits(0.0);

    /// Constructs from a raw bit count.
    #[must_use]
    pub const fn new(bits: f64) -> Self {
        Bits(bits)
    }

    /// Constructs from megabits (10⁶ bits).
    #[must_use]
    pub fn from_megabits(mb: f64) -> Self {
        Bits(mb * 1.0e6)
    }

    /// Constructs from bytes.
    #[must_use]
    pub fn from_bytes(bytes: f64) -> Self {
        Bits(bytes * 8.0)
    }

    /// Constructs from mebibytes (2²⁰ bytes).
    #[must_use]
    pub fn from_mebibytes(mib: f64) -> Self {
        Bits::from_bytes(mib * 1024.0 * 1024.0)
    }

    /// Constructs from decimal gigabytes (10⁹ bytes) — the unit disk
    /// vendors (and the paper's Table 3) quote capacities in.
    #[must_use]
    pub fn from_gigabytes(gb: f64) -> Self {
        Bits::from_bytes(gb * 1.0e9)
    }

    /// Raw bit count.
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Value in megabits (10⁶ bits).
    #[must_use]
    pub fn as_megabits(self) -> f64 {
        self.0 / 1.0e6
    }

    /// Value in bytes.
    #[must_use]
    pub fn as_bytes(self) -> f64 {
        self.0 / 8.0
    }

    /// Value in mebibytes (2²⁰ bytes).
    #[must_use]
    pub fn as_mebibytes(self) -> f64 {
        self.as_bytes() / (1024.0 * 1024.0)
    }

    /// Value in gibibytes (2³⁰ bytes).
    #[must_use]
    pub fn as_gibibytes(self) -> f64 {
        self.as_bytes() / (1024.0 * 1024.0 * 1024.0)
    }

    /// Value in decimal gigabytes (10⁹ bytes).
    #[must_use]
    pub fn as_gigabytes(self) -> f64 {
        self.as_bytes() / 1.0e9
    }

    /// True when the amount is (exactly) zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// True for finite, non-negative amounts — every legal data size.
    #[must_use]
    pub fn is_valid_size(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Clamps tiny negative values (float noise from accounting) to zero.
    #[must_use]
    pub fn clamp_non_negative(self) -> Self {
        Bits(self.0.max(0.0))
    }

    /// The smaller of two amounts.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Bits(self.0.min(other.0))
    }

    /// The larger of two amounts.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Bits(self.0.max(other.0))
    }
}

impl Add for Bits {
    type Output = Bits;
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl AddAssign for Bits {
    fn add_assign(&mut self, rhs: Bits) {
        self.0 += rhs.0;
    }
}

impl Sub for Bits {
    type Output = Bits;
    fn sub(self, rhs: Bits) -> Bits {
        Bits(self.0 - rhs.0)
    }
}

impl SubAssign for Bits {
    fn sub_assign(&mut self, rhs: Bits) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Bits {
    type Output = Bits;
    fn mul(self, rhs: f64) -> Bits {
        Bits(self.0 * rhs)
    }
}

impl Mul<Bits> for f64 {
    type Output = Bits;
    fn mul(self, rhs: Bits) -> Bits {
        Bits(self * rhs.0)
    }
}

impl Div<f64> for Bits {
    type Output = Bits;
    fn div(self, rhs: f64) -> Bits {
        Bits(self.0 / rhs)
    }
}

impl Div<Bits> for Bits {
    type Output = f64;
    fn div(self, rhs: Bits) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<BitRate> for Bits {
    type Output = Seconds;
    fn div(self, rhs: BitRate) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        iter.fold(Bits::ZERO, Add::add)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b.abs() >= 8.0 * 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", self.as_gibibytes())
        } else if b.abs() >= 8.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", self.as_mebibytes())
        } else if b.abs() >= 8.0 * 1024.0 {
            write!(f, "{:.2} KiB", self.as_bytes() / 1024.0)
        } else {
            write!(f, "{b:.0} b")
        }
    }
}

/// A data rate, in bits per second.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct BitRate(f64);

forward_partial_ord_total!(BitRate);

impl BitRate {
    /// Zero rate.
    pub const ZERO: BitRate = BitRate(0.0);

    /// Constructs from bits per second.
    #[must_use]
    pub const fn new(bits_per_sec: f64) -> Self {
        BitRate(bits_per_sec)
    }

    /// Constructs from megabits per second (10⁶ bits/s) — the unit the paper
    /// uses for `TR` (120 Mbps) and `CR` (1.5 Mbps).
    #[must_use]
    pub fn from_mbps(mbps: f64) -> Self {
        BitRate(mbps * 1.0e6)
    }

    /// Raw bits per second.
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Value in megabits per second.
    #[must_use]
    pub fn as_mbps(self) -> f64 {
        self.0 / 1.0e6
    }

    /// True for finite, strictly positive rates.
    #[must_use]
    pub fn is_valid_rate(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}

impl Sub for BitRate {
    type Output = BitRate;
    fn sub(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 - rhs.0)
    }
}

impl Mul<f64> for BitRate {
    type Output = BitRate;
    fn mul(self, rhs: f64) -> BitRate {
        BitRate(self.0 * rhs)
    }
}

impl Mul<BitRate> for f64 {
    type Output = BitRate;
    fn mul(self, rhs: BitRate) -> BitRate {
        BitRate(self * rhs.0)
    }
}

impl Mul<Seconds> for BitRate {
    type Output = Bits;
    fn mul(self, rhs: Seconds) -> Bits {
        Bits(self.0 * rhs.0)
    }
}

impl Div<BitRate> for BitRate {
    type Output = f64;
    fn div(self, rhs: BitRate) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Mbps", self.as_mbps())
    }
}

/// A duration, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Seconds(f64);

forward_partial_ord_total!(Seconds);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Constructs from seconds.
    #[must_use]
    pub const fn from_secs(secs: f64) -> Self {
        Seconds(secs)
    }

    /// Constructs from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms / 1.0e3)
    }

    /// Constructs from minutes.
    #[must_use]
    pub fn from_minutes(minutes: f64) -> Self {
        Seconds(minutes * 60.0)
    }

    /// Constructs from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Seconds(hours * 3600.0)
    }

    /// Value in seconds.
    #[must_use]
    pub const fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// Value in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1.0e3
    }

    /// Value in minutes.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// Value in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// True for finite, non-negative durations.
    #[must_use]
    pub fn is_valid_duration(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// The smaller of two durations.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Seconds(self.0.min(other.0))
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Seconds(self.0.max(other.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    fn sub_assign(&mut self, rhs: Seconds) {
        self.0 -= rhs.0;
    }
}

impl Neg for Seconds {
    type Output = Seconds;
    fn neg(self) -> Seconds {
        Seconds(-self.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Mul<Seconds> for f64 {
    type Output = Seconds;
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self * rhs.0)
    }
}

impl Mul<BitRate> for Seconds {
    type Output = Bits;
    fn mul(self, rhs: BitRate) -> Bits {
        Bits(self.0 * rhs.0)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.abs() >= 3600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else if s.abs() >= 60.0 {
            write!(f, "{:.2} min", self.as_minutes())
        } else if s.abs() >= 1.0 {
            write!(f, "{s:.3} s")
        } else {
            write!(f, "{:.3} ms", self.as_millis())
        }
    }
}

/// An absolute point on the simulation clock, measured in seconds from the
/// start of the run.
///
/// Distinct from [`Seconds`] so that nonsensical operations
/// (`Instant + Instant`) do not type-check.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Instant(f64);

forward_partial_ord_total!(Instant);

impl Instant {
    /// The start of the simulation.
    pub const ZERO: Instant = Instant(0.0);

    /// Constructs from seconds since simulation start.
    #[must_use]
    pub const fn from_secs(secs: f64) -> Self {
        Instant(secs)
    }

    /// Seconds since simulation start.
    #[must_use]
    pub const fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// Duration since simulation start.
    #[must_use]
    pub const fn elapsed_from_start(self) -> Seconds {
        Seconds(self.0)
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Instant(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Instant(self.0.min(other.0))
    }
}

impl Add<Seconds> for Instant {
    type Output = Instant;
    fn add(self, rhs: Seconds) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Seconds> for Instant {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub<Seconds> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Seconds) -> Instant {
        Instant(self.0 - rhs.0)
    }
}

impl Sub for Instant {
    type Output = Seconds;
    fn sub(self, rhs: Instant) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_conversions_round_trip() {
        let b = Bits::from_megabits(12.5);
        assert!((b.as_megabits() - 12.5).abs() < 1e-12);
        let b = Bits::from_mebibytes(3.0);
        assert!((b.as_mebibytes() - 3.0).abs() < 1e-12);
        let b = Bits::from_mebibytes(2048.0);
        assert!((b.as_gibibytes() - 2.0).abs() < 1e-12);
        assert!((Bits::from_bytes(10.0).as_f64() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn bits_arithmetic() {
        let a = Bits::new(100.0);
        let b = Bits::new(40.0);
        assert_eq!(a + b, Bits::new(140.0));
        assert_eq!(a - b, Bits::new(60.0));
        assert_eq!(a * 2.0, Bits::new(200.0));
        assert_eq!(2.0 * a, Bits::new(200.0));
        assert_eq!(a / 4.0, Bits::new(25.0));
        assert!((a / b - 2.5).abs() < 1e-12);
        let mut c = a;
        c += b;
        assert_eq!(c, Bits::new(140.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn bits_over_rate_gives_seconds() {
        let t = Bits::from_megabits(120.0) / BitRate::from_mbps(120.0);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rate_times_time_gives_bits() {
        let b = BitRate::from_mbps(1.5) * Seconds::from_secs(10.0);
        assert!((b.as_megabits() - 15.0).abs() < 1e-12);
        let b2 = Seconds::from_secs(10.0) * BitRate::from_mbps(1.5);
        assert_eq!(b, b2);
    }

    #[test]
    fn seconds_conversions() {
        assert!((Seconds::from_minutes(2.0).as_secs_f64() - 120.0).abs() < 1e-12);
        assert!((Seconds::from_hours(1.0).as_minutes() - 60.0).abs() < 1e-12);
        assert!((Seconds::from_millis(250.0).as_secs_f64() - 0.25).abs() < 1e-12);
        assert!((Seconds::from_secs(7200.0).as_hours() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::from_secs(10.0);
        let t1 = t0 + Seconds::from_secs(5.0);
        assert_eq!(t1.as_secs_f64(), 15.0);
        assert_eq!(t1 - t0, Seconds::from_secs(5.0));
        assert_eq!(t1 - Seconds::from_secs(15.0), Instant::ZERO);
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t0.min(t1), t0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![Bits::new(3.0), Bits::new(1.0), Bits::new(2.0)];
        v.sort();
        assert_eq!(v, vec![Bits::new(1.0), Bits::new(2.0), Bits::new(3.0)]);

        let mut t = [Instant::from_secs(2.0), Instant::from_secs(1.0)];
        t.sort();
        assert_eq!(t[0], Instant::from_secs(1.0));
    }

    #[test]
    fn validity_predicates() {
        assert!(Bits::new(0.0).is_valid_size());
        assert!(!Bits::new(-1.0).is_valid_size());
        assert!(!Bits::new(f64::NAN).is_valid_size());
        assert!(BitRate::from_mbps(1.0).is_valid_rate());
        assert!(!BitRate::ZERO.is_valid_rate());
        assert!(Seconds::ZERO.is_valid_duration());
        assert!(!Seconds::from_secs(-0.1).is_valid_duration());
    }

    #[test]
    fn clamp_non_negative_erases_float_noise() {
        assert_eq!(Bits::new(-1e-9).clamp_non_negative(), Bits::ZERO);
        assert_eq!(Bits::new(5.0).clamp_non_negative(), Bits::new(5.0));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Bits::from_mebibytes(2048.0)), "2.00 GiB");
        assert_eq!(format!("{}", Seconds::from_secs(0.005)), "5.000 ms");
        assert_eq!(format!("{}", Seconds::from_minutes(3.0)), "3.00 min");
        assert_eq!(format!("{}", BitRate::from_mbps(120.0)), "120.00 Mbps");
    }

    #[test]
    fn sums_accumulate() {
        let total: Bits = (1..=4).map(|i| Bits::new(f64::from(i))).sum();
        assert_eq!(total, Bits::new(10.0));
        let total: Seconds = (1..=3).map(|i| Seconds::from_secs(f64::from(i))).sum();
        assert_eq!(total, Seconds::from_secs(6.0));
    }
}

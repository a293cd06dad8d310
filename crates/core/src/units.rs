//! Strongly-typed physical quantities used throughout the modeling framework.
//!
//! All models in this crate operate on wall-clock time ([`Seconds`]),
//! computation volume ([`FlopCount`]), computation rate ([`FlopsRate`]),
//! message volume ([`Bits`]) and network rate ([`BitsPerSec`]).
//! Keeping these as newtypes (rather than bare `f64`s) prevents the classic
//! "seconds where you meant gigaflops" class of bug in cost formulas, while
//! the arithmetic impls below keep the formulas as readable as the paper's:
//!
//! ```
//! use mlscale_core::units::*;
//! let work = FlopCount::new(6.0 * 12e6 * 60_000.0); // 6·W·S madds for Fig 2
//! let rate = FlopsRate::giga(105.6) * 0.8;          // 80 % of peak
//! let t = work / rate;
//! assert!(t.as_secs() > 0.0);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value in this unit.
            ///
            /// # Panics
            /// Panics if `v` is NaN or negative: all quantities in the
            /// framework are non-negative by construction.
            #[inline]
            pub fn new(v: f64) -> Self {
                assert!(v.is_finite() || v == f64::INFINITY, "{} must not be NaN", $unit);
                assert!(v >= 0.0, "{} must be non-negative, got {v}", $unit);
                Self(v)
            }

            /// Zero quantity.
            #[inline]
            pub const fn zero() -> Self {
                Self(0.0)
            }

            /// Raw value in the base unit.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// True when the quantity is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            /// Saturating at zero: quantities cannot go negative.
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self((self.0 - rhs.0).max(0.0))
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self::new(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name::new(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self::new(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            /// Ratio of two like quantities is dimensionless.
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::zero(), Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// Wall-clock time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// A volume of computation, counted in floating-point operations.
    ///
    /// The paper counts "multiply-add" operations; we follow the same
    /// convention (one multiply-add = one unit here) and note it wherever a
    /// formula depends on it.
    FlopCount,
    "flop"
);
quantity!(
    /// A computation rate in floating-point operations per second.
    FlopsRate,
    "flop/s"
);
quantity!(
    /// A volume of traffic in bits.
    Bits,
    "bit"
);
quantity!(
    /// A network transfer rate in bits per second.
    BitsPerSec,
    "bit/s"
);

impl Seconds {
    /// Raw value in seconds (alias of [`Self::get`] with a clearer name).
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }
}

impl FlopCount {
    /// `x · 10⁶` operations.
    #[inline]
    pub fn mega(x: f64) -> Self {
        Self::new(x * 1e6)
    }

    /// `x · 10⁹` operations.
    #[inline]
    pub fn giga(x: f64) -> Self {
        Self::new(x * 1e9)
    }
}

impl FlopsRate {
    /// `x · 10⁹` flop/s.
    #[inline]
    pub fn giga(x: f64) -> Self {
        Self::new(x * 1e9)
    }

    /// `x · 10¹²` flop/s.
    #[inline]
    pub fn tera(x: f64) -> Self {
        Self::new(x * 1e12)
    }
}

impl Bits {
    /// Volume of `count` parameters of `bits_per_param` bits each
    /// (the paper uses 32- and 64-bit parameters).
    #[inline]
    pub fn params(count: f64, bits_per_param: u32) -> Self {
        Self::new(count * f64::from(bits_per_param))
    }

    /// Value in bytes.
    #[inline]
    pub fn as_bytes(self) -> f64 {
        self.0 / 8.0
    }

    /// `x · 10⁶` bits.
    #[inline]
    pub fn mega(x: f64) -> Self {
        Self::new(x * 1e6)
    }

    /// `x · 10⁹` bits.
    #[inline]
    pub fn giga(x: f64) -> Self {
        Self::new(x * 1e9)
    }
}

impl BitsPerSec {
    /// `x · 10⁶` bit/s.
    #[inline]
    pub fn mega(x: f64) -> Self {
        Self::new(x * 1e6)
    }

    /// `x · 10⁹` bit/s (e.g. gigabit Ethernet = `BitsPerSec::giga(1.0)`).
    #[inline]
    pub fn giga(x: f64) -> Self {
        Self::new(x * 1e9)
    }
}

impl Div<FlopsRate> for FlopCount {
    type Output = Seconds;
    /// Time to execute a volume of work at a given rate.
    #[inline]
    fn div(self, rate: FlopsRate) -> Seconds {
        assert!(rate.0 > 0.0, "division by zero flop rate");
        Seconds::new(self.0 / rate.0)
    }
}

impl Div<BitsPerSec> for Bits {
    type Output = Seconds;
    /// Time to transfer a volume of traffic at a given bandwidth.
    #[inline]
    fn div(self, bw: BitsPerSec) -> Seconds {
        assert!(bw.0 > 0.0, "division by zero bandwidth");
        Seconds::new(self.0 / bw.0)
    }
}

impl Mul<Seconds> for FlopsRate {
    type Output = FlopCount;
    /// Work performed at a rate over a duration.
    #[inline]
    fn mul(self, t: Seconds) -> FlopCount {
        FlopCount::new(self.0 * t.0)
    }
}

impl Mul<Seconds> for BitsPerSec {
    type Output = Bits;
    /// Traffic transferred at a rate over a duration.
    #[inline]
    fn mul(self, t: Seconds) -> Bits {
        Bits::new(self.0 * t.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_over_rate_gives_seconds() {
        let t = FlopCount::giga(2.0) / FlopsRate::giga(1.0);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bits_over_bandwidth_gives_seconds() {
        let t = Bits::giga(8.0) / BitsPerSec::giga(1.0);
        assert!((t.as_secs() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn param_volume_matches_paper_convention() {
        // 12e6 64-bit parameters (Fig 2 configuration).
        let v = Bits::params(12e6, 64);
        assert_eq!(v.get(), 64.0 * 12e6);
        assert_eq!(v.as_bytes(), 8.0 * 12e6);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!((a - b).as_secs(), 0.0);
    }

    #[test]
    fn sum_of_seconds() {
        let total: Seconds = (1..=4).map(|i| Seconds::new(f64::from(i))).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn rate_times_time_roundtrip() {
        let rate = FlopsRate::giga(3.0);
        let t = Seconds::new(0.5);
        let work = rate * t;
        assert!((work / rate).as_secs() - 0.5 < 1e-12);
    }

    #[test]
    fn scalar_multiplication_both_sides() {
        let s = Seconds::new(2.0);
        assert_eq!((s * 3.0).as_secs(), 6.0);
        assert_eq!((3.0 * s).as_secs(), 6.0);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Seconds::new(1.5)), "1.5 s");
        assert_eq!(format!("{}", Bits::new(8.0)), "8 bit");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_quantity_panics() {
        let _ = Seconds::new(-1.0);
    }

    #[test]
    fn min_max() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn from_millis_micros() {
        assert!((Seconds::from_millis(1.0).as_secs() - 1e-3).abs() < 1e-15);
        assert!((Seconds::from_micros(1.0).as_secs() - 1e-6).abs() < 1e-15);
    }
}

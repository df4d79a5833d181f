//! Simulated time: nanoseconds since simulation start.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds.
///
/// `u64` nanoseconds cover ~584 years of simulated time — far beyond any
/// collective schedule — while keeping event ordering exact (no float
/// comparison hazards in the event queue).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Nanoseconds since epoch.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(1_000);
        assert_eq!((t + 500).as_ns(), 1500);
        assert_eq!(t + 500 - t, 500);
        assert_eq!(SimTime(100).since(SimTime(40)), 60);
        assert_eq!(SimTime(40).since(SimTime(100)), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime(5).to_string(), "5ns");
        assert_eq!(SimTime(5_000).to_string(), "5.000us");
        assert_eq!(SimTime(5_000_000).to_string(), "5.000ms");
        assert_eq!(SimTime(5_000_000_000).to_string(), "5.000s");
    }
}

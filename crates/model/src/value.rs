//! Packet values and benefit accounting.
//!
//! The paper allows arbitrary positive packet values; we use `u64` so that
//! all benefit arithmetic is exact (sums are accumulated in `u128`). The
//! irrational policy parameters (β = 1+√2, the cubic-root expression for CPG)
//! only ever appear in *comparisons* of the form `v(g) > β · v(l)`, which are
//! evaluated in `f64` — exactness of the accounting is unaffected.

/// The value (weight) of a packet; 1 throughout the unit-value model
/// (§2.1, §3.1).
pub type Value = u64;

/// Total benefit of an algorithm on a sequence: the sum of the values of all
/// packets it transmits from output queues. Kept in `u128` so that even
/// pathological instances (billions of max-value packets) cannot overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct Benefit(pub u128);

impl Benefit {
    /// Zero benefit.
    pub const ZERO: Benefit = Benefit(0);

    /// Add the value of one transmitted packet.
    #[inline]
    pub fn add(&mut self, v: Value) {
        self.0 += v as u128;
    }

    /// The benefit as `f64` (for ratio reporting only).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// `self / other` as `f64`; returns `f64::INFINITY` when `other` is zero
    /// and `self` is non-zero, and 1.0 when both are zero (an empty instance
    /// is served optimally by any algorithm).
    pub fn ratio_over(self, other: Benefit) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.as_f64() / other.as_f64()
        }
    }
}

impl std::ops::Add for Benefit {
    type Output = Benefit;
    fn add(self, rhs: Benefit) -> Benefit {
        Benefit(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Benefit {
    fn add_assign(&mut self, rhs: Benefit) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Benefit {
    fn sum<I: Iterator<Item = Benefit>>(iter: I) -> Benefit {
        iter.fold(Benefit::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Benefit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Compare `lhs > factor * rhs` without losing exactness for moderate values:
/// used by PG / CPG eligibility and preemption thresholds where `factor` is
/// irrational (β, α·β). For values below 2^52 the `f64` product is within one
/// ulp, which is far below the granularity at which the algorithms' behaviour
/// could change for the integer value distributions used in this workspace.
#[inline]
pub fn exceeds_factor(lhs: Value, factor: f64, rhs: Value) -> bool {
    (lhs as f64) > factor * (rhs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benefit_accumulates() {
        let mut b = Benefit::ZERO;
        b.add(3);
        b.add(4);
        assert_eq!(b, Benefit(7));
        assert_eq!((b + Benefit(1)).0, 8);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(Benefit(0).ratio_over(Benefit(0)), 1.0);
        assert!(Benefit(5).ratio_over(Benefit(0)).is_infinite());
        assert!((Benefit(6).ratio_over(Benefit(2)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn benefit_sums_over_iterators() {
        let total: Benefit = [Benefit(1), Benefit(2), Benefit(3)].into_iter().sum();
        assert_eq!(total, Benefit(6));
    }

    #[test]
    fn exceeds_factor_strict() {
        // beta = 1 + sqrt(2): 3 > beta * 1 (2.414...), 2 is not.
        let beta = 1.0 + std::f64::consts::SQRT_2;
        assert!(exceeds_factor(3, beta, 1));
        assert!(!exceeds_factor(2, beta, 1));
        // Strictness: equal values with factor 1.0 must not pass.
        assert!(!exceeds_factor(5, 1.0, 5));
    }
}

//! Packet values and benefit accounting.
//!
//! The paper allows arbitrary positive packet values; we use `u64` so that
//! all benefit arithmetic is exact (sums are accumulated in `u128`). The
//! policy parameters (β = 1+√2, CPG's β★ and α★, a swept β) only ever
//! appear in *comparisons* of the form `v(g) > β · v(l)`, and
//! [`Threshold::exceeds`] decides every one of them in integers: no `f64`
//! enters an admission, preemption or matching decision.

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

/// A policy's threshold factor β, for the strict comparison `v > β·u` that
/// PG's and CPG's eligibility and preemption rules make. Each variant is
/// decided exactly in integers by [`Threshold::exceeds`]; [`as_f64`] is for
/// ratio formulas and labels only.
///
/// [`as_f64`]: Threshold::as_f64
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Threshold {
    /// PG's β = 1 + √2 (Theorem 2).
    OnePlusSqrt2,
    /// CPG's β★ (Theorem 4): the tribonacci constant, the one real root of
    /// x³ − x² − x − 1.
    Tribonacci,
    /// CPG's α★ = 2/(β★ − 1)², which is exactly β★ + 1: with y = β★ − 1
    /// the cubic reads y²(y + 2) = 2.
    TribonacciPlusOne,
    /// A rational factor, built by [`Threshold::ratio`].
    Ratio(Ratio),
}

/// The rational `num / den` of [`Threshold::Ratio`]. Its fields are
/// private so that [`Threshold::ratio`], which refuses a zero denominator,
/// is the only way to build one: with `den = 0` no `v` would exceed, not
/// even over `u = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u64,
    den: u64,
}

/// Values below this bound have a cube below 2¹²⁶, so the tribonacci test
/// fits `u128`.
const CUBE_SAFE: u64 = 1 << 42;

impl Threshold {
    /// The factor `num / den`. Panics if `den` is zero.
    pub fn ratio(num: u64, den: u64) -> Self {
        assert!(den > 0, "threshold ratio needs a non-zero denominator");
        Threshold::Ratio(Ratio { num, den })
    }

    /// The exact value of a finite `x` in [1, 64): every finite `f64` is
    /// `m / 2ᵏ`, and in that range `m` and `2ᵏ` fit `u64`. A decimal such as
    /// 1.2 converts to its binary value, just below 6/5; write
    /// [`Threshold::ratio`]`(6, 5)` to mean 6/5.
    pub fn from_f64(x: f64) -> Self {
        assert!(
            (1.0..64.0).contains(&x),
            "threshold {x} outside [1, 64) has no exact ratio here"
        );
        let (mut num, mut den) = (x, 1u64);
        // Doubling is exact; 52 doublings clear any fraction at x ≥ 1.
        while num.fract() != 0.0 {
            num *= 2.0;
            den *= 2;
        }
        Threshold::ratio(num as u64, den)
    }

    /// The factor as `f64`, for ratio formulas and labels — never for a
    /// decision. The irrational variants are computed as `cioq_core::params`
    /// always has: 1 + √2, the closed form of β★ through `cbrt`, and
    /// 2/(β★ − 1)².
    pub fn as_f64(self) -> f64 {
        match self {
            Threshold::OnePlusSqrt2 => 1.0 + std::f64::consts::SQRT_2,
            Threshold::Tribonacci => {
                let rho = (19.0 + 3.0 * 33f64.sqrt()).cbrt();
                (rho * rho + rho + 4.0) / (3.0 * rho)
            }
            Threshold::TribonacciPlusOne => {
                let beta = Threshold::Tribonacci.as_f64();
                2.0 / ((beta - 1.0) * (beta - 1.0))
            }
            Threshold::Ratio(Ratio { num, den }) => num as f64 / den as f64,
        }
    }

    /// Whether `v > β·u`, exactly. With `u = 0` that is `v > 0` for every
    /// variant.
    #[inline]
    pub fn exceeds(self, v: Value, u: Value) -> bool {
        match self {
            // v > (1 + √2)u ⟺ v > u ∧ (v − u)² > 2u². Each square fits
            // `u128`; the difference form keeps 2u² from overflowing it.
            Threshold::OnePlusSqrt2 => {
                if v <= u {
                    return false;
                }
                let (d, u) = ((v - u) as u128, u as u128);
                let (dd, uu) = (d * d, u * u);
                dd > uu && dd - uu > uu
            }
            Threshold::Tribonacci => tribonacci_exceeds(v, u),
            // v > (β★ + 1)u ⟺ v > u ∧ v − u > β★·u.
            Threshold::TribonacciPlusOne => v > u && tribonacci_exceeds(v - u, u),
            Threshold::Ratio(Ratio { num, den }) => {
                v as u128 * den as u128 > num as u128 * u as u128
            }
        }
    }
}

/// `v > β★·u` ⟺ v³ − v²u − vu² − u³ > 0 ⟺ v > u ∧ v²(v − u) > u²v + u³
/// (β★ > 1, so v ≤ u never exceeds; u = 0 leaves v > 0). Below 2⁴² every
/// term fits `u128`; above, the products are taken in three 64-bit limbs.
#[inline]
fn tribonacci_exceeds(v: Value, u: Value) -> bool {
    if v <= u {
        return false;
    }
    let (vv, uu) = (v as u128 * v as u128, u as u128 * u as u128);
    if v < CUBE_SAFE {
        return vv * (v - u) as u128 > uu * v as u128 + uu * u as u128;
    }
    // Above 2⁴² the right side can pass 2¹⁹²; the left side cannot, so an
    // overflowing right side does not exceed.
    match wide_mul(uu, v).checked_add(wide_mul(uu, u)) {
        Some(rhs) => wide_mul(vv, v - u) > rhs,
        None => false,
    }
}

/// A 192-bit unsigned integer as three 64-bit limbs, most significant
/// first, so the derived order is numeric order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Wide([u64; 3]);

impl Wide {
    fn checked_add(self, rhs: Wide) -> Option<Wide> {
        let mut out = [0u64; 3];
        let mut carry = false;
        for k in (0..3).rev() {
            let (sum, c1) = self.0[k].overflowing_add(rhs.0[k]);
            let (sum, c2) = sum.overflowing_add(carry as u64);
            out[k] = sum;
            carry = c1 || c2;
        }
        (!carry).then_some(Wide(out))
    }
}

/// `a · b` exactly: a product below 2¹²⁸ · 2⁶⁴ fits three limbs.
fn wide_mul(a: u128, b: u64) -> Wide {
    let low = (a as u64 as u128) * b as u128;
    let high = (a >> 64) * b as u128 + (low >> 64);
    Wide([(high >> 64) as u64, high as u64, low as u64])
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
        // β = 1 + √2: 3 > β·1 (2.414…), 2 is not.
        assert!(Threshold::OnePlusSqrt2.exceeds(3, 1));
        assert!(!Threshold::OnePlusSqrt2.exceeds(2, 1));
        // Strictness: equal values at factor 1 must not pass, nor 6 at 6/5 · 5.
        assert!(!Threshold::ratio(1, 1).exceeds(5, 5));
        assert!(!Threshold::ratio(6, 5).exceeds(6, 5));
        assert!(Threshold::ratio(6, 5).exceeds(7, 5));
        // u = 0 keeps "any positive value exceeds".
        for t in [
            Threshold::OnePlusSqrt2,
            Threshold::Tribonacci,
            Threshold::TribonacciPlusOne,
            Threshold::ratio(3, 2),
        ] {
            assert!(t.exceeds(1, 0) && !t.exceeds(0, 0), "{t:?}");
        }
    }

    #[test]
    fn pell_pair_exceeds_one_plus_sqrt2() {
        // Consecutive Pell numbers P₂₅, P₂₄ (Pₙ₊₁ = 2Pₙ + Pₙ₋₁) with
        // Hₙ = Pₙ₊₁ − Pₙ: Hₙ² − 2Pₙ² = (−1)ⁿ, +1 here, so P₂₅ > (1 + √2)P₂₄
        // by a margin far below what an `f64` product resolves.
        let (mut p, mut q) = (1u64, 0u64);
        for _ in 0..24 {
            (p, q) = (2 * p + q, p);
        }
        assert_eq!((p, q), (1_311_738_121, 543_339_720));
        let h = (p - q) as i128;
        assert_eq!(h * h - 2 * (q as i128).pow(2), 1);
        assert!(Threshold::OnePlusSqrt2.exceeds(p, q));
        // The previous pair sits on the other side: H² − 2P² = −1.
        let (p, q) = (q, p - q - q);
        assert!(!Threshold::OnePlusSqrt2.exceeds(p, q));
    }

    /// The sign of v³ − v²u − vu² − u³, in `i128` (exact below 2⁴²).
    fn cubic(v: u64, u: u64) -> i128 {
        let (v, u) = (v as i128, u as i128);
        v.pow(3) - v * v * u - v * u * u - u.pow(3)
    }

    #[test]
    fn cpg_pairs_are_decided_exactly() {
        // β★: v³ − v²u − vu² − u³ > 0 by a hair for this convergent pair.
        let (v, u) = (1_116_818_131, 607_201_747);
        assert!(cubic(v, u) > 0);
        assert!(Threshold::Tribonacci.exceeds(v, u));
        // α★ = β★ + 1: the same pair, shifted by u.
        assert!(Threshold::TribonacciPlusOne.exceeds(1_724_019_878, u));
        assert!(!Threshold::TribonacciPlusOne.exceeds(1_724_019_877, u));
        // Homogeneous: the pair scaled past 2⁴² takes the limb path and
        // answers the same.
        let c = 1 << 20;
        assert!(Threshold::Tribonacci.exceeds(v * c, u * c));
        assert!(!Threshold::Tribonacci.exceeds((v - 1) * c, u * c));
    }

    #[test]
    fn limb_path_agrees_with_the_u128_path() {
        for u in 1..40u64 {
            for v in 0..80u64 {
                let small = Threshold::Tribonacci.exceeds(v, u);
                assert_eq!(small, cubic(v, u) > 0, "({v}, {u})");
                for c in [1u64 << 30, 1 << 40, (1 << 57) + 3] {
                    assert_eq!(Threshold::Tribonacci.exceeds(v * c, u * c), small);
                }
            }
        }
    }

    #[test]
    fn extremes_do_not_overflow() {
        let max = u64::MAX;
        for t in [
            Threshold::OnePlusSqrt2,
            Threshold::Tribonacci,
            Threshold::TribonacciPlusOne,
            Threshold::ratio(max, 1),
            Threshold::ratio(1, 1),
        ] {
            assert!(!t.exceeds(max, max), "{t:?}");
            assert!(t.exceeds(max, 0), "{t:?}");
            assert!(!t.exceeds(0, max), "{t:?}");
        }
        assert!(Threshold::Tribonacci.exceeds(max, max / 2));
        assert!(!Threshold::OnePlusSqrt2.exceeds(max, max / 2));
        assert!(Threshold::OnePlusSqrt2.exceeds(max, max / 3));
        assert!(!Threshold::TribonacciPlusOne.exceeds(max, max / 2));
        assert!(Threshold::TribonacciPlusOne.exceeds(max, max / 3));
        assert!(Threshold::ratio(max - 1, 1).exceeds(max, 1));
        assert!(!Threshold::ratio(max, 1).exceeds(max, 1));
    }

    #[test]
    fn from_f64_is_the_exact_binary_value() {
        assert_eq!(Threshold::from_f64(1.25), Threshold::ratio(5, 4));
        assert_eq!(Threshold::from_f64(2.0), Threshold::ratio(2, 1));
        // 1.2 is not 6/5 in binary: it sits just below.
        let t = Threshold::from_f64(1.2);
        assert_eq!(t.as_f64(), 1.2);
        assert!(t.exceeds(6, 5) && !Threshold::ratio(6, 5).exceeds(6, 5));
        assert_eq!(Threshold::ratio(6, 5).as_f64(), 1.2);
    }

    #[test]
    #[should_panic(expected = "non-zero denominator")]
    fn a_ratio_with_a_zero_denominator_is_refused() {
        let _ = Threshold::ratio(1, 0);
    }
}

//! The algorithms' tuning parameters and competitive-ratio formulas,
//! straight from the paper's theorems. The `f64` values here feed the
//! ratio formulas and labels; the policies decide with the exact
//! [`Threshold`]s.

use cioq_model::Threshold;

/// PG's optimal threshold parameter: β = 1 + √2 (Theorem 2), decided
/// exactly as [`Threshold::OnePlusSqrt2`].
pub const PG_BETA: f64 = 1.0 + std::f64::consts::SQRT_2;

/// PG's competitive ratio at the optimal β: 3 + 2√2 ≈ 5.8284 (Theorem 2).
pub const PG_RATIO: f64 = 3.0 + 2.0 * std::f64::consts::SQRT_2;

/// PG's competitive ratio as a function of β > 1 (§2.2):
/// `β + 2β/(β−1)`. The first term covers output-queue value displacement,
/// the second the preemption chains — the trade-off the paper's conclusion
/// discusses.
pub fn pg_ratio(beta: f64) -> f64 {
    assert!(beta > 1.0, "pg ratio requires beta > 1");
    beta + 2.0 * beta / (beta - 1.0)
}

/// CPG's competitive ratio as a function of (β, α), both > 1 (§3.2):
/// `αβ + (2αβ + αβ(β−1)) / ((α−1)(β−1))`.
pub fn cpg_ratio(beta: f64, alpha: f64) -> f64 {
    assert!(
        beta > 1.0 && alpha > 1.0,
        "cpg ratio requires alpha, beta > 1"
    );
    let ab = alpha * beta;
    ab + (2.0 * ab + ab * (beta - 1.0)) / ((alpha - 1.0) * (beta - 1.0))
}

/// CPG's optimal β (Theorem 4): `β = (ρ² + ρ + 4) / (3ρ)` with
/// `ρ = (19 + 3√33)^(1/3)` — the tribonacci constant, which CPG decides
/// exactly as [`Threshold::Tribonacci`]. This `f64` is for the ratio
/// formulas and labels only.
pub fn cpg_beta_star() -> f64 {
    Threshold::Tribonacci.as_f64()
}

/// CPG's optimal α (Theorem 4): `α = 2 / (β−1)²` at `β = β★`, which is
/// exactly β★ + 1 ([`Threshold::TribonacciPlusOne`]). For the ratio
/// formulas and labels only.
pub fn cpg_alpha_star() -> f64 {
    Threshold::TribonacciPlusOne.as_f64()
}

/// CPG's competitive ratio at the optimal parameters, ≈ 14.83 (Theorem 4).
pub fn cpg_ratio_star() -> f64 {
    cpg_ratio(cpg_beta_star(), cpg_alpha_star())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pg_constants_match_theorem_2() {
        assert!((PG_BETA - 2.414_213_562).abs() < 1e-8);
        assert!((PG_RATIO - 5.828_427_124).abs() < 1e-8);
        assert!((pg_ratio(PG_BETA) - PG_RATIO).abs() < 1e-12);
    }

    #[test]
    fn pg_beta_star_minimizes_the_ratio() {
        // Sample a dense grid: no β does better than 1 + √2.
        let best = pg_ratio(PG_BETA);
        let mut beta = 1.01;
        while beta < 10.0 {
            assert!(pg_ratio(beta) + 1e-9 >= best, "beta={beta} beats beta*");
            beta += 0.001;
        }
    }

    #[test]
    fn cpg_constants_match_theorem_4() {
        let beta = cpg_beta_star();
        let alpha = cpg_alpha_star();
        // Closed-form check from the paper: alpha = 2/(beta-1)^2.
        assert!((alpha - 2.0 / ((beta - 1.0) * (beta - 1.0))).abs() < 1e-12);
        let ratio = cpg_ratio_star();
        assert!(
            (ratio - 14.83).abs() < 5e-3,
            "paper reports ≈ 14.83, got {ratio}"
        );
    }

    #[test]
    fn cpg_star_is_a_local_minimum() {
        let (b, a) = (cpg_beta_star(), cpg_alpha_star());
        let best = cpg_ratio(b, a);
        for db in [-0.05, 0.05] {
            for da in [-0.05, 0.05] {
                assert!(cpg_ratio(b + db, a + da) >= best - 1e-9);
            }
        }
        // And a grid sweep: nothing does meaningfully better anywhere.
        let mut beta = 1.05;
        while beta < 5.0 {
            let mut alpha = 1.05;
            while alpha < 8.0 {
                assert!(cpg_ratio(beta, alpha) + 1e-9 >= best);
                alpha += 0.05;
            }
            beta += 0.05;
        }
    }

    #[test]
    fn alpha_equals_beta_is_strictly_worse() {
        // The paper notes the prior algorithm of Kesselman et al. [21] is
        // CPG with α = β; its own analysis gave 16.24. Under *this paper's*
        // improved analysis the best single parameter still only reaches
        // ≈ 15.59 — strictly worse than the two-parameter optimum ≈ 14.83,
        // confirming that decoupling α from β is what buys the improvement.
        let single: f64 = (1.05..4.0)
            .step_by_f64(0.001)
            .map(|b| cpg_ratio(b, b))
            .fold(f64::INFINITY, f64::min);
        assert!(single > cpg_ratio_star() + 0.5);
        assert!((single - 15.59).abs() < 0.05, "got {single}");
    }

    trait StepByF64 {
        fn step_by_f64(self, step: f64) -> Box<dyn Iterator<Item = f64>>;
    }

    impl StepByF64 for std::ops::Range<f64> {
        fn step_by_f64(self, step: f64) -> Box<dyn Iterator<Item = f64>> {
            let (start, end) = (self.start, self.end);
            let n = ((end - start) / step) as usize;
            Box::new((0..n).map(move |k| start + k as f64 * step))
        }
    }
}

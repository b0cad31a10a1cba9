//! Packet value distributions.

use cioq_model::Value;
use rand::rngs::SmallRng;
use rand::Rng;

/// Distribution of packet values (classes of service).
#[derive(Debug, Clone, PartialEq)]
pub enum ValueDist {
    /// All packets have value 1 (the unit-value model of §2.1 / §3.1).
    Unit,
    /// Uniform integer values in `1 ..= max`.
    Uniform {
        /// Largest value α.
        max: Value,
    },
    /// Zipf-like power law over `1 ..= max`: value `v` has probability
    /// ∝ `v^-exponent`. Models the few-large-many-small mix of QoS classes.
    Zipf {
        /// Largest value α.
        max: Value,
        /// Power-law exponent (1.0 is classic Zipf).
        exponent: f64,
    },
    /// Two classes: value 1 with probability `1 − p_high`, value `high`
    /// with probability `p_high` — the `{1, α}` model studied in [12, 26].
    Bimodal {
        /// The high value α.
        high: Value,
        /// Probability of the high value.
        p_high: f64,
    },
}

impl ValueDist {
    /// Short name for tables.
    pub fn name(&self) -> String {
        match self {
            ValueDist::Unit => "unit".to_string(),
            ValueDist::Uniform { max } => format!("uniform(1..={max})"),
            ValueDist::Zipf { max, exponent } => format!("zipf(max={max},s={exponent})"),
            ValueDist::Bimodal { high, p_high } => format!("bimodal(1/{high},p={p_high})"),
        }
    }

    /// Build a sampler (precomputes the Zipf CDF once per trace).
    pub fn sampler(&self) -> ValueSampler {
        match self {
            ValueDist::Unit => ValueSampler::Unit,
            ValueDist::Uniform { max } => ValueSampler::Uniform { max: (*max).max(1) },
            ValueDist::Zipf { max, exponent } => {
                let max = (*max).max(1);
                let mut cdf = Vec::with_capacity(max as usize);
                let mut acc = 0.0f64;
                for v in 1..=max {
                    acc += (v as f64).powf(-exponent);
                    cdf.push(acc);
                }
                let total = acc;
                ValueSampler::Zipf { cdf, total }
            }
            ValueDist::Bimodal { high, p_high } => ValueSampler::Bimodal {
                high: (*high).max(1),
                p_high: p_high.clamp(0.0, 1.0),
            },
        }
    }
}

/// A sampling-ready value distribution.
#[derive(Debug, Clone)]
pub enum ValueSampler {
    /// Always 1.
    Unit,
    /// Uniform in `1..=max`.
    Uniform {
        /// Largest value.
        max: Value,
    },
    /// Power law via precomputed CDF.
    Zipf {
        /// Cumulative weights for values `1..=max`.
        cdf: Vec<f64>,
        /// Total weight.
        total: f64,
    },
    /// Two-point distribution.
    Bimodal {
        /// High value.
        high: Value,
        /// Probability of the high value.
        p_high: f64,
    },
}

impl ValueSampler {
    /// Draw one value.
    pub fn sample(&self, rng: &mut SmallRng) -> Value {
        match self {
            ValueSampler::Unit => 1,
            ValueSampler::Uniform { max } => rng.gen_range(1..=*max),
            ValueSampler::Zipf { cdf, total } => {
                let x = rng.gen::<f64>() * total;
                let idx = cdf.partition_point(|&c| c < x);
                (idx as Value + 1).min(cdf.len() as Value)
            }
            ValueSampler::Bimodal { high, p_high } => {
                if rng.gen::<f64>() < *p_high {
                    *high
                } else {
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn draw(dist: &ValueDist, n: usize) -> Vec<Value> {
        let sampler = dist.sampler();
        let mut rng = SmallRng::seed_from_u64(7);
        (0..n).map(|_| sampler.sample(&mut rng)).collect()
    }

    #[test]
    fn unit_is_always_one() {
        assert!(draw(&ValueDist::Unit, 100).iter().all(|&v| v == 1));
    }

    #[test]
    fn uniform_stays_in_range_and_covers_it() {
        let vs = draw(&ValueDist::Uniform { max: 8 }, 2000);
        assert!(vs.iter().all(|&v| (1..=8).contains(&v)));
        for target in 1..=8 {
            assert!(vs.contains(&target), "value {target} never drawn");
        }
    }

    #[test]
    fn zipf_is_heavy_on_small_values() {
        let vs = draw(
            &ValueDist::Zipf {
                max: 64,
                exponent: 1.2,
            },
            4000,
        );
        assert!(vs.iter().all(|&v| (1..=64).contains(&v)));
        let ones = vs.iter().filter(|&&v| v == 1).count();
        let heavies = vs.iter().filter(|&&v| v > 32).count();
        assert!(ones > heavies, "power law must favour small values");
        assert!(vs.iter().any(|&v| v > 8), "tail must still occur");
    }

    #[test]
    fn bimodal_hits_both_modes() {
        let vs = draw(
            &ValueDist::Bimodal {
                high: 50,
                p_high: 0.3,
            },
            1000,
        );
        assert!(vs.iter().all(|&v| v == 1 || v == 50));
        let high = vs.iter().filter(|&&v| v == 50).count();
        assert!(high > 200 && high < 400, "p=0.3 of 1000, got {high}");
    }

    /// Every Zipf CDF the repository draws from, bit for bit: `(max, s)`,
    /// then an FNV-1a hash over each entry's `f64::to_bits` (little-endian
    /// bytes, entries in value order) and the bits of the total. The CDF
    /// is built with `powf`, whose last bit IEEE-754 leaves to the host's
    /// libm; every digest and frozen hash over Zipf traffic (T1, S1–S3,
    /// the benchmark's rows 1–5) rests on these bits, so a host
    /// whose `powf` rounds differently fails here, by name, first.
    #[test]
    fn zipf_cdf_bits_are_pinned() {
        let pinned = [
            (64, 1.1, 0x5f5b_3c77_1d8d_5d15, 0x400f_efb7_1c47_afc8),
            (32, 1.1, 0x4b0e_3b80_6f2b_4bb3, 0x400c_31e6_c050_c933),
            (32, 1.0, 0x9c6a_f26e_8a33_c4b7, 0x4010_3be6_2a1d_7def),
            (16, 1.0, 0x4d4a_af43_517d_dfea, 0x400b_0bbb_a474_75d4),
        ];
        for (max, exponent, hash, total_bits) in pinned {
            let ValueSampler::Zipf { cdf, total } = ValueDist::Zipf { max, exponent }.sampler()
            else {
                unreachable!("a Zipf distribution samples through its CDF");
            };
            let fnv = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            let bytes = cdf.iter().flat_map(|c| c.to_bits().to_le_bytes());
            let got = bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| fnv(h, &b));
            let what = format!("zipf(max={max}, s={exponent}): this host's powf");
            assert_eq!(total.to_bits(), total_bits, "{what} moved the total");
            assert_eq!(got, hash, "{what} moved an entry of the CDF");
        }
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(ValueDist::Unit.name(), "unit");
        assert!(ValueDist::Uniform { max: 4 }.name().contains("4"));
    }
}

//! # cioq-opt
//!
//! Offline-optimum machinery for measuring empirical competitive ratios.
//!
//! Competitive analysis compares an online algorithm's benefit to `OPT(σ)`,
//! the clairvoyant optimum. Computing `OPT` exactly is intractable at scale
//! (per-cycle matching constraints couple all ports over time), so this
//! crate provides three tools with different exactness/scale trade-offs:
//!
//! * [`exact_opt`] — **exact** `OPT` by memoized search, for small
//!   instances (property tests of Theorems 1–4 use this).
//! * [`opt_upper_bound`] — two *certified upper bounds* on `OPT` via
//!   max-profit flow over time-expanded relaxations:
//!   the **per-output** relaxation (drops cross-output input-port coupling)
//!   and the **destination-oblivious** relaxation (keeps both per-port
//!   fabric capacities, forgets packet destinations). Ratios reported
//!   against `min` of the two are upper bounds on the true ratio — sound,
//!   never flattering.
//! * For `N×1` (IQ-model) switches the per-output relaxation is **exact**
//!   ([`opt_upper_bound_is_exact`] tells you when), so adversarial
//!   experiments on IQ configurations report true ratios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod brute;
mod network;
mod shadow;

pub use bounds::{certified_ratio, opt_upper_bound, opt_upper_bound_is_exact, OptBounds};
pub use brute::{exact_opt, BruteForceLimits};
pub use shadow::{gm_lemma1_machinery, Lemma1Report};

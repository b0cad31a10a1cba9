//! Baseline policies the paper measures itself against.
//!
//! * [`MaxMatching`] — the maximum-cardinality-matching policy family of
//!   Kesselman & Rosén \[23\] (unit values, 3-competitive, but O(E·√V) per
//!   cycle instead of GM's O(E)).
//! * [`MaxWeightMatching`] — the maximum-weight-matching policy of
//!   Kesselman & Rosén \[24\] (general values, 6-competitive, O(N³) per cycle
//!   instead of PG's O(E log E)).
//! * [`IslipPolicy`] — iSLIP, the guarantee-free practical scheduler, as the
//!   "current practice" reference point.
//!
//! Ablations of the paper's own algorithms live on the algorithms
//! themselves: [`crate::PreemptiveGreedy::without_preemption`],
//! [`crate::CrossbarPreemptiveGreedy::single_parameter`],
//! [`crate::GreedyMatching::with_edge_policy`].

mod islip_policy;
mod max_matching;
mod max_weight_matching;

pub use islip_policy::IslipPolicy;
pub use max_matching::MaxMatching;
pub use max_weight_matching::MaxWeightMatching;

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

use cioq_model::PortId;
use cioq_sim::Transfer;

/// The transfers of a matching: each matched pair `(i, j)` forwards the
/// head of `Q_ij`. `preempt_if_full` lets a full `Q_j` give up its least
/// packet (the weighted baseline's graph admits such edges); the unit
/// baselines match only outputs with room, so for them a full `Q_j` is a
/// bug the engine reports.
fn head_transfers(pairs: &[(usize, usize)], preempt_if_full: bool, out: &mut Vec<Transfer>) {
    out.extend(pairs.iter().map(|&(i, j)| Transfer {
        input: PortId::from(i),
        output: PortId::from(j),
        preempt_if_full,
    }));
}

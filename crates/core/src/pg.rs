//! PG — Preemptive Greedy (§2.2, Theorem 2): (3+2√2)-competitive for
//! arbitrary values on CIOQ switches, using greedy maximal *weighted*
//! matchings instead of the maximum-weight matchings of prior work.

use crate::incremental::{dirty_rows, BandGraph};
use cioq_matching::{greedy_weighted_rows_into, GreedyScratch, Matching};
use cioq_model::{Cycle, Packet, PortId, Threshold, Value};
use cioq_sim::{Admission, CioqPolicy, OutputSnapshot, QueueRef, SwitchView, Transfer};

/// The Preemptive Greedy algorithm with threshold parameter β ≥ 1.
///
/// * Arrival: accept if `Q_ij` has room or `v(l_ij) < v(p)` (preempting
///   `l_ij`); otherwise reject.
/// * Scheduling cycle: greedy maximal matching in descending weight order on
///   the graph with an edge `(u_i, v_j)` iff
///   `|Q_ij| > 0 ∧ (|Q_j| < B(Q_j) ∨ v(g_ij) > β·v(l_j))`, edge weight
///   `v(g_ij)`; matched heads are transferred, preempting `l_j` when `Q_j`
///   is full.
/// * Transmission: send the greatest-value packet of each non-empty `Q_j`.
///
/// The matching is one global weight order, so PG runs on the sequential
/// engine only; [`ShardedGm`](crate::ShardedGm) is the sharded policy.
#[derive(Debug)]
pub struct PreemptiveGreedy {
    /// β, or `None` for the no-preemption ablation (β = ∞).
    beta: Option<Threshold>,
    /// The VOQ head graph: an edge per non-empty `Q_ij`, weighted
    /// `v(g_ij)`.
    heads: BandGraph,
    scratch: GreedyScratch,
    /// Refilled in place every cycle, so the steady-state slot loop never
    /// allocates a fresh `Matching`.
    matching: Matching,
    name: String,
}

impl PreemptiveGreedy {
    /// PG at the optimal β = 1 + √2 of Theorem 2.
    pub fn new() -> Self {
        Self::with_beta(Threshold::OnePlusSqrt2)
    }

    /// PG with an explicit β ≥ 1 (experiment F4 sweeps this).
    pub fn with_beta(beta: Threshold) -> Self {
        assert!(beta.as_f64() >= 1.0, "beta must be >= 1");
        Self::build(Some(beta), format!("PG(beta={:.3})", beta.as_f64()))
    }

    /// Ablation (experiment T5): disable all preemption. Arrivals to a full
    /// input queue are rejected, and edges to full output queues are never
    /// eligible (equivalent to β = ∞).
    pub fn without_preemption() -> Self {
        Self::build(None, "PG(no-preempt)".to_string())
    }

    fn build(beta: Option<Threshold>, name: String) -> Self {
        PreemptiveGreedy {
            beta,
            heads: BandGraph::default(),
            scratch: GreedyScratch::default(),
            matching: Matching::new(),
            name,
        }
    }

    /// The configured β as `f64`, for labels (∞ without preemption).
    pub fn beta(&self) -> f64 {
        self.beta.map_or(f64::INFINITY, Threshold::as_f64)
    }
}

impl Default for PreemptiveGreedy {
    fn default() -> Self {
        Self::new()
    }
}

/// The paper's output-side edge condition for a head of value `w` bound for
/// output `j`: `|Q_j| < B(Q_j) ∨ w > β·v(l_j)`. The head graph spans
/// *every* non-empty VOQ; this is the matching kernel's edge filter — pure
/// within a cycle, as the kernel asks.
#[inline]
fn eligible(beta: Option<Threshold>, w: Value, j: usize, outputs: &OutputSnapshot) -> bool {
    !outputs.is_full(j) || beta.is_some_and(|b| b.exceeds(w, outputs.tail[j]))
}

/// Bring `heads` up to date: an edge per non-empty `Q_ij`, weighted `v(g_ij)`.
fn sync_heads(heads: &mut BandGraph, view: &SwitchView<'_>) {
    let head = |i, j| {
        view.input_queue(PortId::from(i), PortId::from(j))
            .head_value()
    };
    heads.sync(dirty_rows(view), head, |_, _, _| {});
}

/// The arrival rule of all four policies and the three baselines: accept
/// if `Q_ij` has room; else, for the preempting policies (PG, CPG,
/// KR-MaxWeight), preempt `l_ij` if it is worth strictly less than the
/// arrival; else reject (GM, CGU, KR-MaxMatching, iSLIP: always).
pub(crate) fn admit(queue: QueueRef<'_>, packet: &Packet, preempt: bool) -> Admission {
    if !queue.is_full() {
        Admission::Accept
    } else if preempt && queue.tail_value().expect("full queue has a tail") < packet.value {
        Admission::AcceptPreemptingLeast
    } else {
        Admission::Reject
    }
}

impl CioqPolicy for PreemptiveGreedy {
    fn name(&self) -> &str {
        &self.name
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let queue = view.input_queue(packet.input, packet.output);
        admit(queue, packet, self.beta.is_some())
    }

    // detlint: hot
    fn schedule(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<Transfer>) {
        sync_heads(&mut self.heads, view);
        let (beta, outputs) = (self.beta, view.outputs());
        greedy_weighted_rows_into(
            &self.heads.graph,
            |_, j, w| eligible(beta, w, j, outputs),
            &mut self.scratch,
            &mut self.matching,
        );
        out.extend(self.matching.pairs.iter().map(|&(i, j)| Transfer {
            input: PortId::from(i),
            output: PortId::from(j),
            // Eligibility already enforced the β threshold; a full output
            // queue here means a legal preemption of l_j.
            preempt_if_full: self.beta.is_some(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::SwitchConfig;
    use cioq_sim::{run_cioq, Trace};

    #[test]
    fn pg_accepts_until_full_then_preempts_smaller() {
        // B(Q_ij)=2; values 1,2 fill the queue; 5 preempts the 1.
        let cfg = SwitchConfig::cioq(1, 2, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(0), PortId(0), 2),
            (0, PortId(0), PortId(0), 5),
            (0, PortId(0), PortId(0), 2), // equal to current least -> reject
        ]);
        let report = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
        assert_eq!(report.losses.preempted_input, 1);
        assert_eq!(report.losses.preempted_input_value, 1);
        assert_eq!(report.losses.rejected, 1);
        assert_eq!(report.losses.rejected_value, 2);
        assert_eq!(report.benefit.0, 7, "values 5 and 2 are delivered");
    }

    #[test]
    fn pg_transfers_highest_value_first() {
        // Two inputs compete for one output with speedup 1: the heavier
        // head must win the (greedy, weight-descending) matching.
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 3), (0, PortId(1), PortId(0), 9)]);
        let report = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
        // Both eventually delivered (B=2 output queue, drain mode).
        assert_eq!(report.benefit.0, 12);
        // Per-output counts confirm single output port use.
        assert_eq!(report.per_output_transmitted[0], 2);
    }

    #[test]
    fn pg_output_preemption_fires_beyond_beta() {
        // speedup 2, B(Q_j) = 1. Cycle T[1]: greedy (weight-descending)
        // matches input 1 to output 1 (weight 200) and input 0 to output 0
        // (weight 1) — so the *small* packet fills output 0. Cycle T[2]:
        // input 1 still holds 100 for output 0; the queue is full with
        // l_0 = 1 and 100 > beta*1, so the edge is eligible and the
        // transfer preempts the 1.
        let cfg = SwitchConfig::builder(2, 2)
            .speedup(2)
            .input_capacity(4)
            .output_capacity(1)
            .build()
            .unwrap();
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(1), PortId(0), 100),
            (0, PortId(1), PortId(1), 200),
        ]);
        let report = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
        assert_eq!(report.losses.preempted_output, 1);
        assert_eq!(report.losses.preempted_output_value, 1);
        assert_eq!(report.benefit.0, 300);
        // And both outputs transmitted in slot 0: nothing left to drain.
        assert_eq!(report.slots, 1);
    }

    #[test]
    fn pg_below_beta_does_not_preempt_output() {
        // Same shape, but the contender (value 2) does not exceed
        // beta * l_0 = 2.414, so output 0 keeps the 1 until it is sent.
        let cfg = SwitchConfig::builder(2, 2)
            .speedup(2)
            .input_capacity(4)
            .output_capacity(1)
            .build()
            .unwrap();
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(1), PortId(0), 2),
            (0, PortId(1), PortId(1), 200),
        ]);
        let report = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
        assert_eq!(report.losses.preempted_output, 0);
        assert_eq!(report.benefit.0, 203, "the 2 follows one slot later");
    }

    #[test]
    fn pg_transfer_respects_output_fullness_threshold() {
        // Output queue capacity 1, speedup 2. Cycle T[1] fills the output
        // queue with the head (heaviest) packet; cycle T[2] offers the
        // remaining smaller one, which never exceeds beta * l_j, so no
        // edge is built and nothing is preempted.
        let cfg = SwitchConfig::builder(1, 1)
            .speedup(2)
            .input_capacity(4)
            .output_capacity(1)
            .build()
            .unwrap();
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 10), (0, PortId(0), PortId(0), 30)]);
        // T[1]: head 30 moves to the output queue. T[2]: head 10 vs full
        // queue holding 30 -> ineligible. Transmission sends 30; slot 1
        // moves and sends the 10.
        let report = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
        assert_eq!(report.benefit.0, 40);
        assert_eq!(report.losses.preempted_output, 0);
    }
    #[test]
    fn no_preempt_ablation_never_preempts() {
        let cfg = SwitchConfig::cioq(1, 1, 1);
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 1), (0, PortId(0), PortId(0), 100)]);
        let mut pg = PreemptiveGreedy::without_preemption();
        let report = run_cioq(&cfg, &mut pg, &trace).unwrap();
        assert_eq!(report.losses.preempted_input, 0);
        assert_eq!(report.losses.rejected, 1);
        assert_eq!(
            report.losses.rejected_value, 100,
            "the valuable one is lost"
        );
        assert_eq!(report.benefit.0, 1);
    }

    #[test]
    fn beta_one_always_preempts_on_bigger_value() {
        let mut pg = PreemptiveGreedy::with_beta(Threshold::ratio(1, 1));
        assert_eq!(pg.beta(), 1.0);
        let cfg = SwitchConfig::builder(1, 1)
            .speedup(2)
            .input_capacity(2)
            .output_capacity(1)
            .build()
            .unwrap();
        // T[1] moves value 5; T[2]: head 6 > 1.0*5 -> preempts the 5.
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 5), (0, PortId(0), PortId(0), 6)]);
        // Sorted queue: head 6 moves in T[1]; T[2]: head 5 vs full(6):
        // 5 > 6? no. So again no preemption; benefit 11. (Sortedness makes
        // self-preemption from one queue impossible — a real invariant.)
        let report = run_cioq(&cfg, &mut pg, &trace).unwrap();
        assert_eq!(report.benefit.0, 11);
        assert_eq!(report.losses.preempted_output, 0);
    }
}

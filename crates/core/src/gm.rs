//! GM — Greedy Matching (§2.1, Theorem 1): 3-competitive for unit values on
//! CIOQ switches, at greedy-maximal-matching cost.

use crate::pg::admit;
use cioq_matching::{claim_first_free, greedy_lex_bits, row_word};
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
/// The edge rule reads no values, so GM keeps no graph: it matches over the
/// VOQ occupancy bits the queues keep ([`SwitchView::voq_occupancy`]),
/// from the columns `!full_words` leaves free. One object schedules a
/// whole switch as a [`CioqPolicy`], or one shard's rows as a
/// [`CioqShardWorker`]; either way the lexicographic matching is one
/// kernel, [`claim_first_free`] per row over `row & free` words.
#[derive(Debug)]
pub struct GreedyMatching {
    edge_policy: GmEdgePolicy,
    /// Pooled mask of the columns still free, refilled every cycle.
    free: Vec<u64>,
    /// The rotated ablation's pooled buffers, refilled every cycle: the
    /// eligible cells in visit order, and the rows then columns matched.
    cells: Vec<usize>,
    used: Vec<bool>,
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
            free: Vec::new(),
            cells: Vec::new(),
            used: Vec::new(),
            name,
        }
    }

    /// GM's lexicographic matching over the rows `view` answers for, from
    /// the columns `full_words` leaves free: every pair goes to `matched`
    /// in row order, and `self.free` ends without the matched columns.
    fn greedy_lex(
        &mut self,
        view: &SwitchView<'_>,
        full_words: &[u64],
        matched: impl FnMut(usize, usize),
    ) {
        self.free.clear();
        self.free.extend(full_words.iter().map(|w| !w));
        let (bits, m) = (view.voq_occupancy(), view.n_outputs());
        greedy_lex_bits(bits, view.input_range(), m, &mut self.free, matched);
    }

    /// The rotated ablation ([`cioq_matching::EdgeOrder::Rotated`]'s rule
    /// over the cells): every non-empty `Q_ij` whose output is not full, in
    /// lexicographic order, rotated left by `offset % count`, then matched
    /// greedily.
    fn greedy_rotated(&mut self, view: &SwitchView<'_>, offset: usize, out: &mut Vec<Transfer>) {
        let (n, m, bits) = (view.n_inputs(), view.n_outputs(), view.voq_occupancy());
        let edge = |c: usize| bits[c / 64] >> (c % 64) & 1 == 1 && !view.outputs().is_full(c % m);
        self.cells.clear();
        self.cells.extend((0..n * m).filter(|&c| edge(c)));
        let k = offset.checked_rem(self.cells.len()).unwrap_or(0);
        self.cells.rotate_left(k);
        self.used.clear();
        self.used.resize(n + m, false);
        for &c in &self.cells {
            let (i, j) = (c / m, c % m);
            if !self.used[i] && !self.used[n + j] {
                (self.used[i], self.used[n + j]) = (true, true);
                out.push(transfer(i, j));
            }
        }
    }
}

impl Default for GreedyMatching {
    fn default() -> Self {
        Self::new()
    }
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

impl CioqPolicy for GreedyMatching {
    fn name(&self) -> &str {
        &self.name
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view.input_queue(packet.input, packet.output), packet, false)
    }

    // detlint: hot
    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        match self.edge_policy {
            GmEdgePolicy::Lexicographic => {
                let full = &view.outputs().full_words;
                self.greedy_lex(view, full, |i, j| out.push(transfer(i, j)));
            }
            GmEdgePolicy::RotateByCycle => {
                let offset = cycle.sequence(view.config().speedup) as usize;
                self.greedy_rotated(view, offset, out);
            }
        }
    }
}

/// [`GreedyMatching`] as a partitioned policy (lexicographic edge
/// order only): the object is the factory and the merger, and every
/// shard's worker is a fresh copy of it.
///
/// Proposal: shard 0's rows come first in lexicographic order, so nothing
/// can take a column before them: its worker runs the whole-switch
/// policy's matching over its own rows, from `!full_words`, and publishes
/// the outcome — its taken-or-full mask, then its pairs `(i << 32) | j` in
/// row order (see [`CandidateSet`]). Every other worker publishes its
/// rows' occupancy words ([`row_word`], one word-aligned bitmap per row).
/// Merge: `free` starts as the complement of shard 0's mask, shard 0's
/// pairs are emitted, and the lexicographic greedy continues with its row
/// step, [`claim_first_free`], per published row in ascending order over
/// `row & free`. One kernel in both roles, in O(N·M/64) word operations
/// per cycle; at K = 1 the merge only copies shard 0's pairs out.
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
        let (rows, m) = (shard.input_range(), shard.n_outputs());
        let words = m.div_ceil(64);
        if shard.shard() == 0 {
            // The mask, then at most one pair per row: reserved on the first
            // cycle, so no later cycle grows the buffer.
            out.aux.reserve(words + rows.len());
            out.aux.resize(words, 0);
            let pairs = &mut out.aux;
            self.greedy_lex(shard, &outputs.full_words, |i, j| {
                pairs.push(((i as u64) << 32) | j as u64)
            });
            for (taken, free) in out.aux.iter_mut().zip(&self.free) {
                *taken = !free;
            }
            return;
        }
        let bits = shard.voq_occupancy();
        out.aux.resize(rows.len() * words, 0);
        for (i, row) in rows.zip(out.aux.chunks_exact_mut(words)) {
            for (k, word) in row.iter_mut().enumerate() {
                *word = row_word(bits, m, i, k);
            }
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

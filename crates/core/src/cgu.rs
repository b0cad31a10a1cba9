//! CGU — Crossbar Greedy Unit (§3.1, Theorem 3): the greedy unit-value
//! policy of Kesselman, Kogan & Segal for buffered crossbars, shown
//! 3-competitive (previously 4) by the paper's improved analysis.

use crate::incremental::{CguCache, ColView, MaskHalf, RowView, ShardCols};
use crate::pg::admit;
use cioq_model::{Cycle, Packet, PortId, SwitchConfig};
use cioq_sim::{
    Admission, CrossbarPolicy, CrossbarShardPolicy, CrossbarShardWorker, FabricView, InputTransfer,
    OutputSnapshot, OutputTransfer, PacketPick, Partition, ShardView, SwitchView,
};

/// How CGU resolves the paper's "choose an arbitrary queue" steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionOrder {
    /// Always the smallest eligible index (deterministic first-fit).
    FirstFit,
    /// Rotate the starting index by one after each choice per port
    /// (round-robin; spreads service, still "arbitrary" per the paper).
    RoundRobin,
}

/// The Crossbar Greedy Unit algorithm.
///
/// * Arrival: accept iff `Q_ij` is not full.
/// * Input subphase: every input port `i` picks an arbitrary `j` with
///   `|Q_ij| > 0 ∧ |C_ij| < B(C_ij)` and forwards the head packet.
/// * Output subphase: every output port `j` picks an arbitrary `i` with
///   `|Q_j| < B(Q_j) ∧ |C_ij| > 0` and forwards the head packet.
/// * Transmission: send from every non-empty output queue.
///
/// CGU never preempts; every packet it moves into the fabric is eventually
/// delivered (the fact its analysis hinges on).
///
/// Both subphases decide per port from strictly row-local (input) /
/// column-local (output) state, so one object schedules a whole switch as
/// a [`CrossbarPolicy`], or one shard's band as a [`CrossbarShardWorker`],
/// with no merge step: concatenating the bands' decisions in port order
/// *is* the whole-switch decision. The per-port eligibility masks (and the
/// round-robin pointers, which stay with the port's owner) are maintained
/// incrementally from the engine's change log.
#[derive(Debug)]
pub struct CrossbarGreedyUnit {
    selection: SelectionOrder,
    cache: CguCache,
    name: String,
}

impl CrossbarGreedyUnit {
    /// CGU with deterministic first-fit selection.
    pub fn new() -> Self {
        Self::with_selection(SelectionOrder::FirstFit)
    }

    /// CGU with an explicit selection order.
    pub fn with_selection(selection: SelectionOrder) -> Self {
        let name = match selection {
            SelectionOrder::FirstFit => "CGU".to_string(),
            SelectionOrder::RoundRobin => "CGU(rr)".to_string(),
        };
        CrossbarGreedyUnit {
            selection,
            cache: CguCache::default(),
            name,
        }
    }

    /// Repair the row masks: `(i, j)` is eligible iff
    /// `|Q_ij| > 0 ∧ |C_ij| < B(C_ij)`.
    fn sync_rows(&mut self, view: &impl RowView) {
        let lo = view.rows().start;
        self.cache.rows.sync(view.dirty_rows(), |line, j| {
            !view.voq(lo + line, j).is_empty() && !view.xbar(lo + line, j).is_full()
        });
    }

    /// Repair the column masks: `(i, j)` is eligible iff `|C_ij| > 0`.
    fn sync_cols(&mut self, view: &impl ColView) {
        let lo = view.cols().start;
        let ok = |line, i| !view.xbar(i, lo + line).is_empty();
        self.cache.cols.sync(view.dirty_cols(), ok);
    }

    /// Input subphase over a band of rows: ≤ 1 transfer per input port.
    // detlint: hot
    fn input_subphase(&mut self, view: &impl RowView, out: &mut Vec<InputTransfer>) {
        self.sync_rows(view);
        for (line, i) in view.rows().enumerate() {
            if let Some(j) = pick(self.selection, &mut self.cache.rows, line) {
                out.push(InputTransfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    pick: PacketPick::Greatest,
                    preempt_if_full: false,
                });
            }
        }
    }

    /// Output subphase over a band of columns: ≤ 1 transfer per output
    /// port whose (virtual) queue `outputs` reports as having room.
    // detlint: hot
    fn output_subphase(
        &mut self,
        view: &impl ColView,
        outputs: &OutputSnapshot,
        out: &mut Vec<OutputTransfer>,
    ) {
        self.sync_cols(view);
        for (line, j) in view.cols().enumerate() {
            if outputs.full[j] {
                continue;
            }
            if let Some(i) = pick(self.selection, &mut self.cache.cols, line) {
                out.push(OutputTransfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    pick: PacketPick::Greatest,
                    preempt_if_full: false,
                });
            }
        }
    }
}

/// The "arbitrary eligible queue" of one port: the first set bit of its
/// mask line — from index 0 (first fit), or cyclically from just past the
/// port's previous choice (round robin).
fn pick(selection: SelectionOrder, half: &mut MaskHalf, line: usize) -> Option<usize> {
    match selection {
        SelectionOrder::FirstFit => half.ok.first_set_cyclic(line, 0),
        SelectionOrder::RoundRobin => {
            let chosen = half.ok.first_set_cyclic(line, half.ptr[line])?;
            half.ptr[line] = (chosen + 1) % half.ok.cols();
            Some(chosen)
        }
    }
}

impl Default for CrossbarGreedyUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl CrossbarPolicy for CrossbarGreedyUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view.input_queue(packet.input, packet.output), packet, false)
    }

    // The sequential engine flushes its one change log after each subphase,
    // so each subphase also syncs the half it does not read.

    // detlint: hot
    fn schedule_input(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<InputTransfer>) {
        self.sync_cols(view);
        self.input_subphase(view, out);
    }

    // detlint: hot
    fn schedule_output(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<OutputTransfer>) {
        self.sync_rows(view);
        self.output_subphase(view, view.outputs(), out);
    }
}

/// [`CrossbarGreedyUnit`] as the sharded engine's policy: the object is
/// the factory, and every shard's worker is a fresh copy of it.
pub type ShardedCgu = CrossbarGreedyUnit;

impl CrossbarShardPolicy for CrossbarGreedyUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn new_worker(
        &self,
        _: usize,
        _: &Partition,
        _: &SwitchConfig,
    ) -> Box<dyn CrossbarShardWorker> {
        Box::new(CrossbarGreedyUnit::with_selection(self.selection))
    }
}

impl CrossbarShardWorker for CrossbarGreedyUnit {
    fn admit(&mut self, shard: &ShardView<'_>, packet: &Packet) -> Admission {
        let queue = shard.input_queue(packet.input, packet.output);
        admit(queue, packet, false)
    }

    // detlint: hot
    fn propose_input(&mut self, shard: &ShardView<'_>, _: Cycle, out: &mut Vec<InputTransfer>) {
        self.input_subphase(shard, out);
    }

    // detlint: hot
    fn propose_output(
        &mut self,
        fabric: &FabricView<'_>,
        shard: usize,
        inbound: &[u32],
        outputs: &OutputSnapshot,
        _: Cycle,
        out: &mut Vec<OutputTransfer>,
    ) {
        let cols = ShardCols {
            fabric,
            shard,
            inbound,
        };
        self.output_subphase(&cols, outputs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::SwitchConfig;
    use cioq_sim::{run_crossbar, Trace};

    #[test]
    fn cgu_moves_packets_through_both_subphases() {
        let cfg = SwitchConfig::crossbar(2, 4, 1, 1);
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(1), 1), (0, PortId(1), PortId(0), 1)]);
        let report = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
        assert_eq!(report.transmitted, 2);
        assert_eq!(report.transferred_to_crossbar, 2);
        assert_eq!(report.transferred, 2);
        assert_eq!(report.losses.total_count(), 0);
    }

    #[test]
    fn cut_through_within_one_cycle() {
        // A packet can traverse input subphase then output subphase of the
        // same cycle (subphases are sequential).
        let cfg = SwitchConfig::crossbar(1, 2, 1, 1);
        let trace = Trace::from_tuples([(0, PortId(0), PortId(0), 1)]);
        let report = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
        assert_eq!(report.transmitted, 1);
        // One slot of arrivals; drain needs no extra slot:
        assert_eq!(report.slots, 1);
    }

    #[test]
    fn crossbar_buffer_of_one_still_pipelines() {
        // 4 inputs feed output 0 through B(C)=1 crosspoints; per cycle each
        // input forwards one packet but output 0 accepts only one — the
        // crossbar queues hold the rest without loss (B_in large).
        let cfg = SwitchConfig::crossbar(4, 8, 1, 1);
        let trace = Trace::from_tuples((0..4).map(|i| (0u64, PortId(i), PortId(0), 1u64)));
        let report = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
        assert_eq!(report.transmitted, 4);
        assert_eq!(report.losses.total_count(), 0);
    }

    #[test]
    fn first_fit_vs_round_robin_both_deliver() {
        let cfg = SwitchConfig::crossbar(3, 4, 2, 1);
        let trace = Trace::from_tuples((0..3u64).flat_map(|t| {
            (0..3).map(move |i| {
                (
                    t,
                    PortId(i),
                    PortId((i as usize + t as usize) as u16 % 3),
                    1,
                )
            })
        }));
        let a = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
        let b = run_crossbar(
            &cfg,
            &mut CrossbarGreedyUnit::with_selection(SelectionOrder::RoundRobin),
            &trace,
        )
        .unwrap();
        assert_eq!(a.transmitted, 9);
        assert_eq!(b.transmitted, 9);
    }

    #[test]
    fn cgu_never_preempts() {
        let cfg = SwitchConfig::crossbar(2, 1, 1, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(0), PortId(0), 1), // same queue, B=1 -> rejected
            (0, PortId(1), PortId(0), 1),
        ]);
        let report = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
        assert_eq!(report.losses.rejected, 1);
        assert_eq!(report.losses.preempted_input, 0);
        assert_eq!(report.losses.preempted_crossbar, 0);
        assert_eq!(report.losses.preempted_output, 0);
        assert_eq!(report.transmitted, 2);
    }
}

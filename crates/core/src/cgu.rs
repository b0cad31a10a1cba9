//! CGU — Crossbar Greedy Unit (§3.1, Theorem 3): the greedy unit-value
//! policy of Kesselman, Kogan & Segal for buffered crossbars, shown
//! 3-competitive (previously 4) by the paper's improved analysis.

use crate::incremental::{dirty_cols, dirty_rows, BandGraph, Dirty};
use crate::pg::admit;
use cioq_model::{Cycle, Packet, PortId};
use cioq_sim::{Admission, CrossbarPolicy, SwitchView, Transfer};

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
/// column-local (output) state, with no matching. The paper's "arbitrary"
/// choice is the first eligible index (first fit); the per-port eligible
/// sets are maintained incrementally from the engine's change log.
#[derive(Debug, Default)]
pub struct CrossbarGreedyUnit {
    /// Input `i`'s eligible `j`: an edge `(i, j)` iff
    /// `|Q_ij| > 0 ∧ |C_ij| < B(C_ij)`.
    rows: Eligible,
    /// Output `j`'s eligible `i`, transposed so a per-output scan is one
    /// contiguous line: an edge `(j, i)` iff `|C_ij| > 0`.
    cols: Eligible,
}

/// One subphase's eligible sets as a band graph over the ports that
/// choose (rows or columns).
#[derive(Debug, Default)]
struct Eligible {
    sets: BandGraph,
}

impl Eligible {
    /// Re-read `ok(line, k)` for the dirty cells, or every cell on a
    /// rebuild.
    // detlint: hot
    fn sync(
        &mut self,
        dirty: Dirty<impl Iterator<Item = (usize, usize)>>,
        ok: impl Fn(usize, usize) -> bool,
    ) {
        let edge = |line, k| ok(line, k).then_some(1);
        self.sets.sync(dirty, edge, |_, _, _| {});
    }

    /// The "arbitrary eligible queue" of line `line`: its first eligible
    /// index.
    fn pick(&self, line: usize) -> Option<usize> {
        self.sets.graph.first_edge_from(line, 0)
    }
}

impl CrossbarGreedyUnit {
    /// CGU with deterministic first-fit selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Repair the row masks: `(i, j)` is eligible iff
    /// `|Q_ij| > 0 ∧ |C_ij| < B(C_ij)`.
    fn sync_rows(&mut self, view: &SwitchView<'_>) {
        self.rows.sync(dirty_rows(view), |i, j| {
            let (i, j) = (PortId::from(i), PortId::from(j));
            !view.input_queue(i, j).is_empty() && !view.crossbar_queue(i, j).is_full()
        });
    }

    /// Repair the column masks: `(i, j)` is eligible iff `|C_ij| > 0`.
    fn sync_cols(&mut self, view: &SwitchView<'_>) {
        let ok = |j, i| {
            let (i, j) = (PortId::from(i), PortId::from(j));
            !view.crossbar_queue(i, j).is_empty()
        };
        self.cols.sync(dirty_cols(view), ok);
    }

    /// Input subphase: ≤ 1 transfer per input port.
    // detlint: hot
    fn input_subphase(&mut self, view: &SwitchView<'_>, out: &mut Vec<Transfer>) {
        self.sync_rows(view);
        for i in 0..view.n_inputs() {
            if let Some(j) = self.rows.pick(i) {
                out.push(Transfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    preempt_if_full: false,
                });
            }
        }
    }

    /// Output subphase: ≤ 1 transfer per output port whose (virtual) queue
    /// [`SwitchView::outputs`] reports as having room.
    // detlint: hot
    fn output_subphase(&mut self, view: &SwitchView<'_>, out: &mut Vec<Transfer>) {
        self.sync_cols(view);
        let outputs = view.outputs();
        for j in 0..view.n_outputs() {
            if outputs.is_full(j) {
                continue;
            }
            if let Some(i) = self.cols.pick(j) {
                out.push(Transfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    preempt_if_full: false,
                });
            }
        }
    }
}

impl CrossbarPolicy for CrossbarGreedyUnit {
    fn name(&self) -> &str {
        "CGU"
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view.input_queue(packet.input, packet.output), packet, false)
    }

    // The sequential engine flushes its one change log after each subphase,
    // so each subphase also syncs the half it does not read.

    // detlint: hot
    fn schedule_input(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<Transfer>) {
        self.sync_cols(view);
        self.input_subphase(view, out);
    }

    // detlint: hot
    fn schedule_output(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<Transfer>) {
        self.sync_rows(view);
        self.output_subphase(view, out);
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

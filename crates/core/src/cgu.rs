//! CGU — Crossbar Greedy Unit (§3.1, Theorem 3): the greedy unit-value
//! policy of Kesselman, Kogan & Segal for buffered crossbars, shown
//! 3-competitive (previously 4) by the paper's improved analysis.

use crate::incremental::{dirty_cols, dirty_rows, BandGraph, Dirty};
use crate::pg::admit;
use cioq_model::{Cycle, Packet, PortId};
use cioq_sim::{Admission, CrossbarPolicy, PacketPick, SwitchView, Transfer};

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
/// column-local (output) state, with no matching. The per-port eligible
/// sets (and the round-robin pointers) are maintained incrementally from
/// the engine's change log.
#[derive(Debug)]
pub struct CrossbarGreedyUnit {
    selection: SelectionOrder,
    /// Input `i`'s eligible `j`: an edge `(i, j)` iff
    /// `|Q_ij| > 0 ∧ |C_ij| < B(C_ij)`.
    rows: Eligible,
    /// Output `j`'s eligible `i`, transposed so a per-output scan is one
    /// contiguous line: an edge `(j, i)` iff `|C_ij| > 0`.
    cols: Eligible,
    name: String,
}

/// One subphase's eligible sets as a band graph over the ports that
/// choose (rows or columns), plus each port's round-robin pointer.
#[derive(Debug, Default)]
struct Eligible {
    sets: BandGraph,
    /// Where each line's next cyclic scan starts. Zeroed on every rebuild,
    /// so a policy reused across runs starts like a fresh one.
    ptr: Vec<usize>,
}

impl Eligible {
    /// Re-read `ok(line, k)` for the dirty cells, or every cell on a
    /// rebuild (which restarts the pointers).
    // detlint: hot
    fn sync(
        &mut self,
        dirty: Dirty<impl Iterator<Item = (usize, usize)>>,
        ok: impl Fn(usize, usize) -> bool,
    ) {
        let (lines, edge) = (dirty.band.len(), |line, k| ok(line, k).then_some(1));
        if self.sets.sync(dirty, edge, |_, _, _| {}) {
            self.ptr.clear();
            self.ptr.resize(lines, 0);
        }
    }

    /// The "arbitrary eligible queue" of line `line`: its first eligible
    /// index — from 0 (first fit), or cyclically from just past the port's
    /// previous choice (round robin).
    fn pick(&mut self, selection: SelectionOrder, line: usize) -> Option<usize> {
        let graph = &self.sets.graph;
        match selection {
            SelectionOrder::FirstFit => graph.first_edge_from(line, 0),
            SelectionOrder::RoundRobin => {
                let from = self.ptr[line];
                let chosen = graph
                    .first_edge_from(line, from)
                    .or_else(|| graph.first_edge_from(line, 0))?;
                self.ptr[line] = (chosen + 1) % graph.n_right();
                Some(chosen)
            }
        }
    }
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
            rows: Eligible::default(),
            cols: Eligible::default(),
            name,
        }
    }

    /// Repair the row masks: `(i, j)` is eligible iff
    /// `|Q_ij| > 0 ∧ |C_ij| < B(C_ij)`.
    fn sync_rows(&mut self, view: &SwitchView<'_>) {
        let lo = view.input_range().start;
        self.rows.sync(dirty_rows(view), |line, j| {
            let (i, j) = (PortId::from(lo + line), PortId::from(j));
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

    /// Input subphase over the view's rows: ≤ 1 transfer per input port.
    // detlint: hot
    fn input_subphase(&mut self, view: &SwitchView<'_>, out: &mut Vec<Transfer>) {
        self.sync_rows(view);
        for (line, i) in view.input_range().enumerate() {
            if let Some(j) = self.rows.pick(self.selection, line) {
                out.push(Transfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    pick: PacketPick::Greatest,
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
            if let Some(i) = self.cols.pick(self.selection, j) {
                out.push(Transfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    pick: PacketPick::Greatest,
                    preempt_if_full: false,
                });
            }
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

    /// Sync `e` over `table` (`table[line][k]`: is the cell eligible?) at
    /// log flush `flush`, with `dirty` cells.
    fn sync(e: &mut Eligible, table: &[Vec<bool>], flush: u64, dirty: &[(usize, usize)]) {
        let news = Dirty {
            band: 0..table.len(),
            width: table[0].len(),
            flush,
            cells: dirty.iter().copied(),
        };
        e.sync(news, |l, k| table[l][k]);
    }

    #[test]
    fn round_robin_pick_wraps() {
        use SelectionOrder::{FirstFit, RoundRobin};
        let mut t = vec![vec![false; 70]; 2];
        (t[0][3], t[0][68]) = (true, true);
        let mut e = Eligible::default();
        sync(&mut e, &t, 0, &[]);
        assert_eq!(e.pick(FirstFit, 0), Some(3));
        e.ptr[0] = 4;
        assert_eq!(e.pick(RoundRobin, 0), Some(68));
        assert_eq!(e.pick(RoundRobin, 0), Some(3), "wraps past the end");
        assert_eq!(e.pick(RoundRobin, 1), None, "lines are independent");
        t[0][68] = false;
        sync(&mut e, &t, 1, &[(0, 68)]);
        e.ptr[0] = 4;
        assert_eq!(e.pick(RoundRobin, 0), Some(3), "wraps to the start");
    }

    #[test]
    fn round_robin_pick_respects_start_within_word() {
        let mut t = vec![vec![false; 8]];
        (t[0][1], t[0][5]) = (true, true);
        let mut e = Eligible::default();
        sync(&mut e, &t, 0, &[]);
        for (from, chosen) in [(2, 5), (6, 1), (1, 1)] {
            e.ptr[0] = from;
            assert_eq!(e.pick(SelectionOrder::RoundRobin, 0), Some(chosen));
        }
    }

    #[test]
    fn a_rebuild_restarts_the_round_robin_pointers() {
        let pick = |e: &mut Eligible| e.pick(SelectionOrder::RoundRobin, 0);
        let mut t = vec![vec![false; 4]];
        (t[0][0], t[0][2]) = (true, true);
        let mut e = Eligible::default();
        sync(&mut e, &t, 0, &[]);
        assert_eq!((pick(&mut e), pick(&mut e)), (Some(0), Some(2)));
        sync(&mut e, &t, 1, &[(0, 0)]);
        assert_eq!(pick(&mut e), Some(0), "in step: the pointer moves on");
        sync(&mut e, &t, 3, &[]);
        assert_eq!(pick(&mut e), Some(0), "a skipped flush rebuilds from 0");
        assert_eq!(e.ptr, [1]);
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

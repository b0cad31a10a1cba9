//! CPG — Crossbar Preemptive Greedy (§3.2, Theorem 4): ≈14.83-competitive
//! for arbitrary values on buffered crossbar switches. With α = β it
//! degenerates to the prior 16.24-competitive algorithm of Kesselman,
//! Kogan & Segal [21]; the paper's improvement is exactly the freedom to
//! pick α ≠ β.

use crate::incremental::{dirty_cols, dirty_rows, BandGraph, Dirty};
use crate::pg::admit;
use cioq_model::{Cycle, Packet, PortId, Threshold, Value};
use cioq_sim::{Admission, CrossbarPolicy, QueueRef, SwitchView, Transfer};

/// The Crossbar Preemptive Greedy algorithm with parameters β, α ≥ 1.
///
/// * Arrival: as PG (accept, preempting `l_ij` when full and smaller).
/// * Input subphase (per input port `i`): among
///   `J = { j : |Q_ij| > 0 ∧ (|C_ij| < B(C_ij) ∨ v(g_ij) > β·v(lc_ij)) }`,
///   pick `j` maximizing `v(g_ij)` and forward `g_ij` into `C_ij`,
///   preempting `lc_ij` when full.
/// * Output subphase (per output port `j`): pick `i` maximizing `v(gc_ij)`
///   among non-empty `C_ij`; forward iff
///   `|Q_j| < B(Q_j) ∨ v(gc_ij) > α·v(l_j)`, preempting `l_j` when full.
/// * Transmission: send the greatest-value packet of each non-empty `Q_j`.
///
/// Both subphases are per-port argmax decisions over row-local (β) /
/// column-local state, with no matching. The sets the argmaxes range over
/// are kept per cell from the engine's change log, so a cycle costs what
/// changed.
#[derive(Debug)]
pub struct CrossbarPreemptiveGreedy {
    beta: Threshold,
    alpha: Threshold,
    /// Input `i`'s set `J` as edges `(i, j)` weighted `v(g_ij)`:
    /// `|Q_ij| > 0 ∧ (|C_ij| < B(C_ij) ∨ v(g_ij) > β·v(lc_ij))` — the β
    /// rule reads `Q_ij` and `C_ij` only, so it is decided per cell.
    rows: Argmax,
    /// Output `j`'s candidates, transposed so a per-output scan is one
    /// contiguous line: edge `(j, i)` weighted `v(gc_ij)` iff `C_ij` is
    /// non-empty. The output-side α threshold is *not* cached: it is
    /// evaluated fresh per output each cycle.
    cols: Argmax,
    name: String,
}

/// One subphase's candidates as a band graph over the ports that choose
/// (rows or columns), and each port's cached argmax over them.
#[derive(Debug, Default)]
struct Argmax {
    candidates: BandGraph,
    /// Per line, its heaviest candidate as `(index along the line, value)`,
    /// ties to the smallest index; current once [`Argmax::refresh`] ran.
    best: Vec<Option<(usize, Value)>>,
    /// Lines with a candidate edge moved since their `best` was taken.
    stale: Vec<bool>,
}

impl Argmax {
    /// Re-read `candidate(line, k)` (`Some(value)` iff the cell is a
    /// candidate) for the dirty cells — or every cell on a rebuild — and
    /// mark stale the lines whose candidates moved; a rebuild restarts
    /// every line's `best` and marks every line stale.
    // detlint: hot
    fn sync(
        &mut self,
        dirty: Dirty<impl Iterator<Item = (usize, usize)>>,
        candidate: impl Fn(usize, usize) -> Option<Value>,
    ) {
        let lines = dirty.band.len();
        self.stale.resize(lines, false);
        let stale = &mut self.stale;
        let mark = |line: usize, _, _| stale[line] = true;
        if self.candidates.sync(dirty, candidate, mark) {
            self.best.clear();
            self.best.resize(lines, None);
            self.stale.fill(true);
        }
    }

    /// Retake the argmax of every stale line — one scan over its set edges
    /// — and clear its staleness; the argmax of a line whose candidates
    /// did not move cannot have changed.
    // detlint: hot
    fn refresh(&mut self) {
        let graph = &self.candidates.graph;
        for (line, stale) in self.stale.iter_mut().enumerate() {
            if std::mem::take(stale) {
                self.best[line] = graph.row_champion(line, None, |_, _| true);
            }
        }
    }
}

impl CrossbarPreemptiveGreedy {
    /// CPG at the optimal (β★, α★) of Theorem 4, decided exactly: β★ is
    /// the tribonacci constant and α★ = β★ + 1.
    pub fn new() -> Self {
        Self::with_params(Threshold::Tribonacci, Threshold::TribonacciPlusOne)
    }

    /// CPG with explicit parameters (experiments sweep these; `α = β`
    /// reproduces the prior algorithm of \[21\]).
    pub fn with_params(beta: Threshold, alpha: Threshold) -> Self {
        let (b, a) = (beta.as_f64(), alpha.as_f64());
        assert!(b >= 1.0 && a >= 1.0, "alpha, beta must be >= 1");
        CrossbarPreemptiveGreedy {
            beta,
            alpha,
            rows: Argmax::default(),
            cols: Argmax::default(),
            name: format!("CPG(beta={b:.3},alpha={a:.3})"),
        }
    }

    /// The prior single-parameter algorithm of Kesselman et al. \[21\]
    /// (α = β at that paper's optimum for `cpg_ratio(β, β)`).
    pub fn single_parameter() -> Self {
        // Minimize cpg_ratio(b, b) numerically once: b* ≈ 2.097.
        let mut best = (f64::INFINITY, 2.0);
        let mut b = 1.05;
        while b < 5.0 {
            let r = crate::params::cpg_ratio(b, b);
            if r < best.0 {
                best = (r, b);
            }
            b += 1e-4;
        }
        let b = Threshold::from_f64(best.1);
        let mut policy = Self::with_params(b, b);
        policy.name = format!("CPG(alpha=beta={:.3})", best.1);
        policy
    }

    /// Configured β as `f64`, for labels.
    pub fn beta(&self) -> f64 {
        self.beta.as_f64()
    }

    /// Configured α as `f64`, for labels.
    pub fn alpha(&self) -> f64 {
        self.alpha.as_f64()
    }

    /// Repair the row candidates: `(i, j)` is an edge weighted `v(g_ij)` iff
    /// `|Q_ij| > 0 ∧ (|C_ij| < B(C_ij) ∨ v(g_ij) > β·v(lc_ij))`.
    // detlint: hot
    fn sync_rows(&mut self, view: &SwitchView<'_>) {
        let beta = self.beta;
        self.rows.sync(dirty_rows(view), |i, j| {
            let (i, j) = (PortId::from(i), PortId::from(j));
            in_j(beta, view.input_queue(i, j), view.crossbar_queue(i, j))
        });
    }

    /// Repair the column candidates: `(j, i)` is an edge weighted
    /// `v(gc_ij)` iff `|C_ij| > 0`.
    // detlint: hot
    fn sync_cols(&mut self, view: &SwitchView<'_>) {
        let head = |j, i| {
            let (i, j) = (PortId::from(i), PortId::from(j));
            view.crossbar_queue(i, j).head_value()
        };
        self.cols.sync(dirty_cols(view), head);
    }

    /// Input subphase: each input port forwards the
    /// heaviest head of its set `J`, ties to the smallest `j`. Only the
    /// cells with a dirtied `Q_ij` or `C_ij` are re-read, and only rows
    /// whose set `J` moved retake their argmax.
    // detlint: hot
    fn input_subphase(&mut self, view: &SwitchView<'_>, out: &mut Vec<Transfer>) {
        self.sync_rows(view);
        self.rows.refresh();
        for (i, best) in self.rows.best.iter().enumerate() {
            if let Some((j, _)) = *best {
                out.push(Transfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    preempt_if_full: true,
                });
            }
        }
    }

    /// Output subphase: each output port takes the heaviest crosspoint
    /// head, ties to the smallest `i` (re-read per dirtied `C_ij`, as the
    /// rows are), if it passes the α threshold against the (virtual) `Q_j`
    /// of [`SwitchView::outputs`] — which changes with every transmission
    /// and every dispatch, so it is read fresh, never cached.
    // detlint: hot
    fn output_subphase(&mut self, view: &SwitchView<'_>, out: &mut Vec<Transfer>) {
        self.sync_cols(view);
        self.cols.refresh();
        let outputs = view.outputs();
        for (j, best) in self.cols.best.iter().enumerate() {
            let Some((i, gc)) = *best else { continue };
            if !outputs.is_full(j) || self.alpha.exceeds(gc, outputs.tail[j]) {
                out.push(Transfer {
                    input: PortId::from(i),
                    output: PortId::from(j),
                    preempt_if_full: true,
                });
            }
        }
    }
}

/// `v(g_ij)` if `j` is in input `i`'s set `J` — `Q_ij` (`q`) is non-empty
/// and `C_ij` (`c`) has room or holds a tail `lc_ij` with
/// `v(g_ij) > β·v(lc_ij)` — and `None` otherwise. It reads the one cell.
fn in_j(beta: Threshold, q: QueueRef<'_>, c: QueueRef<'_>) -> Option<Value> {
    let g_ij = q.head_value()?;
    let lc_ij = c.tail_value().filter(|_| c.is_full());
    lc_ij
        .is_none_or(|lc| beta.exceeds(g_ij, lc))
        .then_some(g_ij)
}

impl Default for CrossbarPreemptiveGreedy {
    fn default() -> Self {
        Self::new()
    }
}

impl CrossbarPolicy for CrossbarPreemptiveGreedy {
    fn name(&self) -> &str {
        &self.name
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view.input_queue(packet.input, packet.output), packet, true)
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
    use cioq_model::{PacketId, SwitchConfig};
    use cioq_sim::{run_crossbar, SortedQueue, Trace};

    #[test]
    fn cpg_moves_heaviest_head_per_input() {
        let cfg = SwitchConfig::builder(1, 2)
            .input_capacity(2)
            .output_capacity(2)
            .crossbar_capacity(2)
            .build()
            .unwrap();
        // Input 0 has packets for outputs 0 (value 3) and 1 (value 9): the
        // input subphase must choose output 1 first.
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 3), (0, PortId(0), PortId(1), 9)]);
        let report = run_crossbar(&cfg, &mut CrossbarPreemptiveGreedy::new(), &trace).unwrap();
        assert_eq!(report.benefit.0, 12, "both delivered across two slots");
        // per-output counts: output 1 got its packet.
        assert_eq!(report.per_output_transmitted, vec![1, 1]);
    }

    #[test]
    fn cpg_output_subphase_picks_heaviest_crosspoint() {
        let cfg = SwitchConfig::crossbar(2, 2, 2, 1);
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 5), (0, PortId(1), PortId(0), 8)]);
        // Cycle: both inputs forward into C_00 and C_10; output subphase
        // picks the 8 first. Transmission sends 8 in slot 0, 5 in slot 1.
        let report = run_crossbar(&cfg, &mut CrossbarPreemptiveGreedy::new(), &trace).unwrap();
        assert_eq!(report.benefit.0, 13);
    }

    #[test]
    fn cpg_crossbar_preemption_respects_beta() {
        // B(C)=1. A value-10 packet sits in C_00. Input queue holds a
        // packet that must exceed beta*10 (~18.4) to displace it.
        let cfg = SwitchConfig::crossbar(1, 4, 1, 1);
        let beta = crate::params::cpg_beta_star();
        let below = (beta * 10.0).floor() as u64; // 18: not > beta*10
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 10),
            (0, PortId(0), PortId(0), below),
        ]);
        // Slot 0 input subphase: head is `below` (18) into C. Output
        // subphase: into Q_0; transmission sends it. Slot 1: 10 follows.
        // No preemption: the queue drains each cycle. Benefit = 28.
        let report = run_crossbar(&cfg, &mut CrossbarPreemptiveGreedy::new(), &trace).unwrap();
        assert_eq!(report.benefit.0, 10 + below as u128);
        assert_eq!(report.losses.preempted_crossbar, 0);
    }

    /// One input row over hand-built queues, reporting exactly the dirty
    /// cells a test names — crosspoint-only changes with the VOQ unmarked
    /// included, which no engine run produces on its own — to CPG's row
    /// candidates, which re-read them by the rule its input subphase syncs
    /// by.
    struct OneRow {
        voqs: Vec<SortedQueue>,
        xbars: Vec<SortedQueue>,
        flush: u64,
    }

    impl OneRow {
        /// The row's choice this cycle, after `dirty` crosspoints changed.
        fn choice(&mut self, cpg: &mut CrossbarPreemptiveGreedy, dirty: &[usize]) -> Option<usize> {
            let news = Dirty {
                band: 0..1,
                width: self.voqs.len(),
                flush: self.flush,
                cells: dirty.iter().map(|&j| (0, j)),
            };
            let (beta, voqs, xbars) = (cpg.beta, &self.voqs, &self.xbars);
            cpg.rows
                .sync(news, |_, j| in_j(beta, voqs[j].view(), xbars[j].view()));
            cpg.rows.refresh();
            self.flush += 1;
            cpg.rows.best[0].map(|(j, _)| j)
        }
    }

    fn queue_of(capacity: usize, values: &[Value]) -> SortedQueue {
        let mut q = SortedQueue::new(capacity);
        for (id, &v) in values.iter().enumerate() {
            q.insert(Packet::new(PacketId(id as u64), v, 0, PortId(0), PortId(0)))
                .unwrap();
        }
        q
    }

    #[test]
    fn crosspoint_only_change_moves_the_row_choice() {
        // β = 2. Q_00 holds a 10, Q_01 a 6, Q_02 a 10; C_00 is full with
        // tail 4 (10 > 2·4, so 0 ∈ J), C_01 has room, C_02 is full with
        // tail 5 (10 ≯ 2·5, so 2 ∉ J).
        let two = Threshold::ratio(2, 1);
        let mut cpg = CrossbarPreemptiveGreedy::with_params(two, two);
        let mut row = OneRow {
            voqs: vec![queue_of(2, &[10]), queue_of(2, &[6]), queue_of(2, &[10])],
            xbars: vec![queue_of(1, &[4]), queue_of(1, &[]), queue_of(1, &[5])],
            flush: 0,
        };
        assert_eq!(row.choice(&mut cpg, &[]), Some(0), "resync: heaviest of J");

        // Only C_00 changes: its tail rises to 5 = v(g_00)/β. The VOQ is
        // untouched and unmarked, yet 0 must leave J.
        row.xbars[0] = queue_of(1, &[5]);
        assert_eq!(row.choice(&mut cpg, &[0]), Some(1), "0 dropped from J");
        assert_eq!(row.choice(&mut cpg, &[]), Some(1), "a quiet cycle keeps it");

        // And the reverse: C_02 drains, so 2 joins J and ties with nobody;
        // then C_00's tail falls back and 0 ties 2 on value — smallest wins.
        row.xbars[2] = queue_of(1, &[]);
        assert_eq!(row.choice(&mut cpg, &[2]), Some(2), "2 joined J");
        row.xbars[0] = queue_of(1, &[4]);
        assert_eq!(row.choice(&mut cpg, &[0]), Some(0), "tie to the smallest j");
    }

    #[test]
    fn a_rebuild_restarts_every_lines_best() {
        // Line 0 holds one candidate, line 1 none. A rebuild from a table
        // where line 0 lost it (a policy reused on a new switch) reports
        // no move for line 0 — its best must go all the same.
        let sync = |a: &mut Argmax, table: &[[Option<Value>; 3]; 2], flush| {
            let news = Dirty {
                band: 0..2,
                width: 3,
                flush,
                cells: std::iter::empty(),
            };
            a.sync(news, |l, k| table[l][k]);
            a.refresh();
        };
        let mut a = Argmax::default();
        sync(&mut a, &[[None, Some(5), None], [None; 3]], 0);
        assert_eq!(a.best, [Some((1, 5)), None]);
        sync(&mut a, &[[None; 3], [Some(2), None, Some(2)]], 7);
        assert_eq!(a.best, [None, Some((0, 2))]);
    }

    #[test]
    fn single_parameter_variant_reports_its_name() {
        let p = CrossbarPreemptiveGreedy::single_parameter();
        assert!(CrossbarPolicy::name(&p).contains("alpha=beta"));
        assert!((p.alpha() - p.beta()).abs() < 1e-9);
        // The single-parameter optimum under the paper's analysis is
        // β ≈ 2.22 (ratio ≈ 15.59).
        assert!((p.beta() - 2.22).abs() < 0.05, "got {}", p.beta());
    }

    #[test]
    fn optimal_parameters_are_distinct() {
        let p = CrossbarPreemptiveGreedy::new();
        assert!(
            p.alpha() > p.beta(),
            "paper: alpha* (~2.84) > beta* (~1.84)"
        );
    }
}

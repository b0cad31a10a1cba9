//! The reference oracle: the paper's four algorithms written straight from
//! their pseudocode, rescanning every queue every cycle.
//!
//! Nothing here is incremental, pooled or shared with the production
//! policies: each call builds its scheduling graph (or scans its row /
//! column) from the view in front of it and allocates what it needs. That
//! makes it O(N²) per cycle — and small enough to audit against §2–§3 of
//! the paper by eye, which is its whole job: the equivalence suites run a
//! production policy and its oracle twin in lockstep on the same view and
//! demand identical admissions, transfer sets (content *and* order) and
//! subphase choices every cycle. Build a fresh oracle per run (the
//! round-robin pointers of [`Cgu`] are run state).
//!
//! The two graph builders also serve the prior-work [`crate::baselines`],
//! which schedule the paper's graphs with different matching algorithms.

use crate::{GmEdgePolicy, SelectionOrder};
use cioq_matching::{greedy_maximal, BipartiteGraph, EdgeOrder};
use cioq_model::{exceeds_factor, Cycle, Packet, PortId, Value};
use cioq_sim::{
    Admission, CioqPolicy, CrossbarPolicy, InputTransfer, OutputTransfer, PacketPick, QueueRef,
    SwitchView, Transfer,
};

/// The input queue `Q_ij`.
fn q<'a>(view: &SwitchView<'a>, i: usize, j: usize) -> QueueRef<'a> {
    view.input_queue(PortId::from(i), PortId::from(j))
}

/// The crossbar queue `C_ij`.
fn c<'a>(view: &SwitchView<'a>, i: usize, j: usize) -> QueueRef<'a> {
    view.crossbar_queue(PortId::from(i), PortId::from(j))
}

/// The shape of every preemption threshold in the paper, for a packet of
/// value `v` bound for a queue `Q`: `|Q| < B(Q) ∨ v > factor · v(l)`, where
/// `least` is `Some(v(l))` iff `Q` is full.
fn fits(v: Value, factor: f64, least: Option<Value>) -> bool {
    least.is_none_or(|l| exceeds_factor(v, factor, l))
}

/// `Some(v(l_j))` iff the output queue `Q_j` is full — read from the
/// *virtual* queue (landed + in flight), so nothing is scheduled into
/// space a delayed fabric has already committed.
fn output_least(view: &SwitchView<'_>, j: usize) -> Option<Value> {
    let full = view.output_full(PortId::from(j));
    full.then(|| view.output_tail_value(PortId::from(j)))
        .flatten()
}

/// GM's scheduling graph (§2.1): edge `(u_i, v_j)` iff `Q_ij` is non-empty
/// and `Q_j` is not full. Weights are 1 (unit model).
pub(crate) fn unit_graph(view: &SwitchView<'_>, graph: &mut BipartiteGraph) {
    graph.reset(view.n_inputs(), view.n_outputs());
    for i in 0..view.n_inputs() {
        for j in 0..view.n_outputs() {
            if !q(view, i, j).is_empty() && output_least(view, j).is_none() {
                graph.add_edge(i, j, 1);
            }
        }
    }
}

/// PG's scheduling graph (§2.2): edge `(u_i, v_j)` iff
/// `|Q_ij| > 0 ∧ (|Q_j| < B(Q_j) ∨ v(g_ij) > β·v(l_j))`, with weight
/// `w(u_i, v_j) = v(g_ij)`.
pub(crate) fn weighted_graph(view: &SwitchView<'_>, beta: f64, graph: &mut BipartiteGraph) {
    graph.reset(view.n_inputs(), view.n_outputs());
    for i in 0..view.n_inputs() {
        for j in 0..view.n_outputs() {
            match q(view, i, j).head_value() {
                Some(g_ij) if fits(g_ij, beta, output_least(view, j)) => {
                    graph.add_edge(i, j, g_ij);
                }
                _ => {}
            }
        }
    }
}

/// Arrival rule of all four algorithms: accept if `Q_ij` has room; else,
/// when the algorithm preempts, accept iff `v(l_ij) < v(p)` (preempting
/// `l_ij`); else reject.
fn admit(view: &SwitchView<'_>, p: &Packet, preempt: bool) -> Admission {
    let queue = view.input_queue(p.input, p.output);
    if !queue.is_full() {
        Admission::Accept
    } else if preempt && queue.tail_value().expect("full queue has a tail") < p.value {
        Admission::AcceptPreemptingLeast
    } else {
        Admission::Reject
    }
}

/// Every matched edge `(i, j)` transfers the head of `Q_ij` to `Q_j`.
fn transfers(graph: &BipartiteGraph, order: EdgeOrder, preempt: bool, out: &mut Vec<Transfer>) {
    for &(i, j) in &greedy_maximal(graph, order).pairs {
        out.push(Transfer {
            input: PortId::from(i),
            output: PortId::from(j),
            pick: PacketPick::Greatest,
            preempt_if_full: preempt,
        });
    }
}

/// The head of `Q_ij` moves into `C_ij`.
fn to_crossbar(i: usize, j: usize, preempt: bool) -> InputTransfer {
    InputTransfer {
        input: PortId::from(i),
        output: PortId::from(j),
        pick: PacketPick::Greatest,
        preempt_if_full: preempt,
    }
}

/// The head of `C_ij` moves into `Q_j`.
fn to_output(i: usize, j: usize, preempt: bool) -> OutputTransfer {
    OutputTransfer {
        input: PortId::from(i),
        output: PortId::from(j),
        pick: PacketPick::Greatest,
        preempt_if_full: preempt,
    }
}

/// GM (§2.1): greedy maximal matching over `unit_graph`, edges visited
/// lexicographically or rotated by the global cycle number.
#[derive(Debug)]
pub struct Gm(pub GmEdgePolicy);

impl CioqPolicy for Gm {
    fn name(&self) -> &str {
        "oracle:GM"
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view, packet, false)
    }

    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        let mut graph = BipartiteGraph::default();
        unit_graph(view, &mut graph);
        let order = match self.0 {
            GmEdgePolicy::Lexicographic => EdgeOrder::Insertion,
            GmEdgePolicy::RotateByCycle => {
                EdgeOrder::Rotated(cycle.sequence(view.config().speedup) as usize)
            }
        };
        transfers(&graph, order, false, out);
    }
}

/// PG (§2.2) with threshold β ≥ 1: greedy maximal matching over
/// `weighted_graph` in descending weight order. `Pg(None)` is the
/// no-preemption ablation: arrivals never preempt and no edge into a full
/// output is eligible (β = ∞).
#[derive(Debug)]
pub struct Pg(pub Option<f64>);

impl CioqPolicy for Pg {
    fn name(&self) -> &str {
        "oracle:PG"
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view, packet, self.0.is_some())
    }

    fn schedule(&mut self, view: &SwitchView<'_>, _cycle: Cycle, out: &mut Vec<Transfer>) {
        let mut graph = BipartiteGraph::default();
        weighted_graph(view, self.0.unwrap_or(f64::INFINITY), &mut graph);
        transfers(&graph, EdgeOrder::WeightDescending, self.0.is_some(), out);
    }
}

/// CGU (§3.1): every port picks an "arbitrary" eligible queue — the first
/// one scanning from index 0 (first fit) or cyclically from just past the
/// port's previous choice (round robin).
#[derive(Debug)]
pub struct Cgu {
    selection: SelectionOrder,
    input_next: Vec<usize>,
    output_next: Vec<usize>,
}

impl Cgu {
    /// A fresh CGU oracle (all round-robin pointers at 0).
    pub fn new(selection: SelectionOrder) -> Self {
        Cgu {
            selection,
            input_next: Vec::new(),
            output_next: Vec::new(),
        }
    }
}

/// First `k` of `0..len` with `ok(k)`, scanning from 0 (first fit) or
/// cyclically from `*next` (round robin), which then moves just past `k`.
fn pick(
    selection: SelectionOrder,
    next: &mut usize,
    len: usize,
    ok: impl Fn(usize) -> bool,
) -> Option<usize> {
    let start = match selection {
        SelectionOrder::FirstFit => 0,
        SelectionOrder::RoundRobin => *next,
    };
    let chosen = (0..len).map(|k| (start + k) % len).find(|&k| ok(k))?;
    *next = (chosen + 1) % len;
    Some(chosen)
}

impl CrossbarPolicy for Cgu {
    fn name(&self) -> &str {
        "oracle:CGU"
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view, packet, false)
    }

    fn schedule_input(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<InputTransfer>) {
        self.input_next.resize(view.n_inputs(), 0);
        for (i, next) in self.input_next.iter_mut().enumerate() {
            // Any j with |Q_ij| > 0 ∧ |C_ij| < B(C_ij).
            let eligible = |j| !q(view, i, j).is_empty() && !c(view, i, j).is_full();
            if let Some(j) = pick(self.selection, next, view.n_outputs(), eligible) {
                out.push(to_crossbar(i, j, false));
            }
        }
    }

    fn schedule_output(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<OutputTransfer>) {
        self.output_next.resize(view.n_outputs(), 0);
        for (j, next) in self.output_next.iter_mut().enumerate() {
            // Any i with |Q_j| < B(Q_j) ∧ |C_ij| > 0.
            let eligible = |i| output_least(view, j).is_none() && !c(view, i, j).is_empty();
            if let Some(i) = pick(self.selection, next, view.n_inputs(), eligible) {
                out.push(to_output(i, j, false));
            }
        }
    }
}

/// CPG (§3.2): every port forwards its heaviest eligible head, with the
/// crossbar threshold β and the output threshold α.
#[derive(Debug)]
pub struct Cpg {
    /// Crossbar preemption threshold β ≥ 1 (input subphase).
    pub beta: f64,
    /// Output preemption threshold α ≥ 1 (output subphase).
    pub alpha: f64,
}

/// The `(index, value)` of the greatest value, ties to the smallest index.
fn heaviest(heads: impl Iterator<Item = (usize, Value)>) -> Option<(usize, Value)> {
    heads.fold(None, |best, (k, v)| match best {
        Some((_, bv)) if bv >= v => best,
        _ => Some((k, v)),
    })
}

impl CrossbarPolicy for Cpg {
    fn name(&self) -> &str {
        "oracle:CPG"
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view, packet, true)
    }

    fn schedule_input(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<InputTransfer>) {
        for i in 0..view.n_inputs() {
            // J = { j : |Q_ij| > 0 ∧ (|C_ij| < B(C_ij) ∨ v(g_ij) > β·v(lc_ij)) }
            let in_j = (0..view.n_outputs()).filter_map(|j| {
                let (g_ij, c_ij) = (q(view, i, j).head_value()?, c(view, i, j));
                let lc_ij = c_ij.tail_value().filter(|_| c_ij.is_full());
                fits(g_ij, self.beta, lc_ij).then_some((j, g_ij))
            });
            if let Some((j, _)) = heaviest(in_j) {
                out.push(to_crossbar(i, j, true));
            }
        }
    }

    fn schedule_output(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<OutputTransfer>) {
        for j in 0..view.n_outputs() {
            let heads = (0..view.n_inputs()).filter_map(|i| Some((i, c(view, i, j).head_value()?)));
            // Forward the heaviest gc_ij iff |Q_j| < B(Q_j) ∨ v(gc_ij) > α·v(l_j).
            match heaviest(heads) {
                Some((i, gc)) if fits(gc, self.alpha, output_least(view, j)) => {
                    out.push(to_output(i, j, true));
                }
                _ => {}
            }
        }
    }
}

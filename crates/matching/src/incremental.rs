//! Incrementally-maintained scheduling graphs.
//!
//! Every policy in this workspace schedules over a bipartite graph whose
//! vertex sets are the switch ports and whose edges are derived from queue
//! state. One slot mutates at most O(N·ŝ) queues, yet a from-scratch
//! rebuild touches all N² VOQ cells and (for the weighted policies)
//! re-sorts every edge. The types here make the per-cycle cost proportional
//! to what actually changed:
//!
//! * [`IncrementalGraph`] — a dense (bitset + weight array) edge store over
//!   the `n_left × n_right` cell grid with O(1) [`IncrementalGraph::set_edge`]
//!   / [`IncrementalGraph::clear_edge`], iterated in lexicographic `(i, j)`
//!   order — exactly the insertion order of the from-scratch builders —
//!   and one row scan, [`IncrementalGraph::row_champion`] (a row's heaviest
//!   admitted edge): the weighted greedy's rescans and CPG's per-port
//!   argmaxes both run it.
//! * [`greedy_maximal_cells`] — greedy maximal matching over an
//!   [`IncrementalGraph`] with a per-edge eligibility filter, reproducing
//!   [`greedy_maximal_with`](crate::greedy_maximal_with) bit-for-bit for
//!   each visit order.
//! * [`greedy_weighted_rows_into`] — the weighted one of those matchings
//!   (PG's) from row champions: one pass over the edge bits and a sort of
//!   ≤ N keys, no order of all E edges kept or repaired.
//! * [`CachedWeightOrder`] — that order of all edges, repaired per batch of
//!   edge updates in O(E + k log k); what PG walked before, now the
//!   kernel's reference and a benchmark probe.
//!
//! Per-cell state is *cell-local* by design: eligibility rules that depend
//! on output-side queues (fullness, preemption thresholds) are evaluated by
//! the caller's `edge_ok` filter at match time, so an output queue changing
//! never invalidates a whole column of cached edges.

use crate::graph::{BipartiteGraph, Matching};
use crate::greedy::GreedyScratch;
use cioq_model::Value;

/// A bipartite scheduling graph over the `n_left × n_right` cell grid with
/// O(1) edge updates and lexicographic edge iteration.
///
/// Cells are flat row-major indices `left * n_right + right` — the same
/// layout the simulator's change log reports dirty VOQs in.
#[derive(Debug, Clone, Default)]
pub struct IncrementalGraph {
    n_left: usize,
    n_right: usize,
    /// One bit per cell: is there an edge?
    present: Vec<u64>,
    /// Weight per cell (meaningful only where `present`).
    weights: Vec<Value>,
    n_edges: usize,
}

impl IncrementalGraph {
    /// An empty graph over the given vertex sets.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        let mut g = IncrementalGraph::default();
        g.reset(n_left, n_right);
        g
    }

    /// Clear all edges and resize to a (possibly different) vertex set.
    pub fn reset(&mut self, n_left: usize, n_right: usize) {
        self.n_left = n_left;
        self.n_right = n_right;
        let cells = n_left * n_right;
        self.present.clear();
        self.present.resize(cells.div_ceil(64), 0);
        self.weights.clear();
        self.weights.resize(cells, 0);
        self.n_edges = 0;
    }

    /// Number of left vertices.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right vertices.
    #[inline]
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of edges currently present.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    #[inline]
    fn cell(&self, left: usize, right: usize) -> usize {
        debug_assert!(left < self.n_left && right < self.n_right);
        left * self.n_right + right
    }

    /// Insert or reweight the edge `(left, right)`. O(1).
    #[inline]
    pub fn set_edge(&mut self, left: usize, right: usize, weight: Value) {
        let cell = self.cell(left, right);
        let (word, bit) = (cell / 64, 1u64 << (cell % 64));
        if self.present[word] & bit == 0 {
            self.present[word] |= bit;
            self.n_edges += 1;
        }
        self.weights[cell] = weight;
    }

    /// Remove the edge `(left, right)` if present. O(1).
    #[inline]
    pub fn clear_edge(&mut self, left: usize, right: usize) {
        let cell = self.cell(left, right);
        let (word, bit) = (cell / 64, 1u64 << (cell % 64));
        if self.present[word] & bit != 0 {
            self.present[word] &= !bit;
            self.n_edges -= 1;
        }
    }

    /// The weight of edge `(left, right)`, or `None` if absent.
    #[inline]
    pub fn weight(&self, left: usize, right: usize) -> Option<Value> {
        self.weight_of_cell(self.cell(left, right))
    }

    /// The weight of a flat cell index, or `None` if absent.
    #[inline]
    pub fn weight_of_cell(&self, cell: usize) -> Option<Value> {
        if self.present[cell / 64] & (1u64 << (cell % 64)) != 0 {
            Some(self.weights[cell])
        } else {
            None
        }
    }

    /// First edge of `left`'s row (in ascending `right` order) whose
    /// `(right, weight)` satisfies `pred`, or `None`.
    ///
    /// Scans the row's bitset words and stops at the first hit, so a row
    /// whose first eligible edge is early costs O(1) — the proposal scan of
    /// the sharded engine leans on this, where the sequential greedy has to
    /// walk every edge of the graph.
    pub fn first_edge_in_row_where(
        &self,
        left: usize,
        mut pred: impl FnMut(usize, Value) -> bool,
    ) -> Option<(usize, Value)> {
        debug_assert!(left < self.n_left);
        let start = left * self.n_right;
        let end = start + self.n_right;
        let mut w = start / 64;
        while w * 64 < end {
            let mut word = self.present[w];
            // Mask off bits before the row start / after the row end.
            if w == start / 64 {
                word &= !0u64 << (start % 64);
            }
            while word != 0 {
                let cell = w * 64 + word.trailing_zeros() as usize;
                if cell >= end {
                    break;
                }
                word &= word - 1;
                let right = cell - start;
                let weight = self.weights[cell];
                if pred(right, weight) {
                    return Some((right, weight));
                }
            }
            w += 1;
        }
        None
    }

    /// Copy row `left`'s edge-presence bits into `out` as a word-aligned
    /// bitmap (`out[k]` bit `b` ⇔ edge `(left, k·64 + b)`), regardless of
    /// the row's alignment inside the flat cell bitset. `out` must hold at
    /// least `n_right.div_ceil(64)` words.
    ///
    /// The sharded GM merge runs the lexicographic greedy as pure word
    /// arithmetic over these bitmaps (`row & !used & !full`), so each shard
    /// publishes its rows per cycle with this.
    pub fn copy_row_bits(&self, left: usize, out: &mut [u64]) {
        let words = self.n_right.div_ceil(64);
        debug_assert!(out.len() >= words);
        for (k, slot) in out.iter_mut().enumerate().take(words) {
            *slot = self.row_word(left, k);
        }
    }

    /// Word `k` of row `left`'s edge-presence bits, column-aligned (bit `b`
    /// ⇔ edge `(left, k·64 + b)`): stitched from the two flat words the row
    /// straddles when it starts mid-word, zero past the row's last column.
    #[inline]
    fn row_word(&self, left: usize, k: usize) -> u64 {
        debug_assert!(left < self.n_left && k * 64 < self.n_right);
        let bit = left * self.n_right + k * 64;
        let (at, shift) = (bit / 64, bit % 64);
        let mut word = self.present[at] >> shift;
        if shift != 0 {
            word |= self.present.get(at + 1).copied().unwrap_or(0) << (64 - shift);
        }
        let rest = self.n_right - k * 64;
        if rest < 64 {
            word &= (1u64 << rest) - 1;
        }
        word
    }

    /// Push every row's *champion* — its heaviest edge that `edge_ok`
    /// admits, ties to the smallest column, as a [`champion_key`] — in row
    /// order: one lexicographic pass over the edge bits, so an empty
    /// stretch of the grid costs a word test per 64 cells. `edge_ok` is
    /// asked only about edges heavier than their row's best so far.
    #[inline]
    fn push_champions(
        &self,
        edge_ok: &mut impl FnMut(usize, usize, Value) -> bool,
        keys: &mut Vec<u128>,
    ) {
        let m = self.n_right;
        // The row the pass is in: its cells are `row_end - m..row_end`.
        let (mut left, mut row_end) = (0, m);
        let mut best: Option<(Value, usize)> = None;
        for (at, &word) in self.present.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let cell = at * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if cell >= row_end {
                    keys.extend(best.take().map(|(w, right)| champion_key(w, left, right)));
                    while cell >= row_end {
                        (left, row_end) = (left + 1, row_end + m);
                    }
                }
                let (right, w) = (cell + m - row_end, self.weights[cell]);
                if best.is_none_or(|(heaviest, _)| w > heaviest) && edge_ok(left, right, w) {
                    best = Some((w, right));
                }
            }
        }
        keys.extend(best.map(|(w, right)| champion_key(w, left, right)));
    }

    /// Row `left`'s *champion* as `(right, weight)`: its heaviest edge that
    /// `edge_ok(right, weight)` admits, ties to the smallest column —
    /// among the columns set in the word-aligned bitmap `free` (bit `b` of
    /// `free[k]` ⇔ column `k·64 + b`, at least `n_right.div_ceil(64)`
    /// words), or among all of them with `None`.
    ///
    /// One bit-scan over the row's set edges and its contiguous weights:
    /// an empty stretch costs a word test per 64 columns, and with `None`
    /// and an always-true `edge_ok` nothing but the edges is looked at.
    /// `edge_ok` is asked only about edges heavier than the best so far.
    // detlint: hot
    #[inline]
    pub fn row_champion(
        &self,
        left: usize,
        free: Option<&[u64]>,
        mut edge_ok: impl FnMut(usize, Value) -> bool,
    ) -> Option<(usize, Value)> {
        let weights = &self.weights[left * self.n_right..(left + 1) * self.n_right];
        let mut best: Option<(usize, Value)> = None;
        for k in 0..self.n_right.div_ceil(64) {
            let mut bits = self.row_word(left, k);
            if let Some(free) = free {
                bits &= free[k];
            }
            while bits != 0 {
                let right = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let w = weights[right];
                if best.is_none_or(|(_, heaviest)| w > heaviest) && edge_ok(right, w) {
                    best = Some((right, w));
                }
            }
        }
        best
    }

    /// Visit every edge in lexicographic `(left, right)` order.
    #[inline]
    pub fn for_each_edge(&self, mut f: impl FnMut(usize, usize, Value)) {
        for (w_idx, &word) in self.present.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let cell = w_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(cell / self.n_right, cell % self.n_right, self.weights[cell]);
            }
        }
    }

    /// Materialise into a [`BipartiteGraph`] (lexicographic insertion order,
    /// matching the from-scratch builders). Used by equivalence tests.
    pub fn to_bipartite(&self, out: &mut BipartiteGraph) {
        out.reset(self.n_left, self.n_right);
        self.for_each_edge(|l, r, w| {
            out.add_edge(l, r, w);
        });
    }
}

/// The descending-weight visit order of the weighted greedy, cached across
/// cycles and repaired incrementally.
///
/// Invariant between repairs: `entries` holds exactly the edges of the
/// companion [`IncrementalGraph`], sorted by `(weight desc, cell asc)` —
/// the same order as sorting from scratch by `(Reverse(weight), left,
/// right)`, since the flat cell index is lexicographic in `(left, right)`.
///
/// No policy keeps one any more (PG runs [`greedy_weighted_rows_into`]):
/// the only caller of `rebuild` / `mark` / `repair` and of
/// [`CellVisit::Ordered`] outside this crate is
/// `cioq_benchmark/src/layers.rs` (`matching.repair_ns_per_mark`,
/// `matching.greedy_ns_per_edge`); here they are the row-champion kernel's
/// reference in the equivalence proptest.
#[derive(Debug, Clone, Default)]
pub struct CachedWeightOrder {
    entries: Vec<(Value, u32)>,
    dirty: Vec<u32>,
    dirty_marked: Vec<bool>,
    /// Scratch for `repair` (kept to avoid per-cycle allocation).
    pending: Vec<(Value, u32)>,
    merged: Vec<(Value, u32)>,
}

/// `(weight desc, cell asc)` — strict total order because cells are unique.
#[inline]
fn order_before(a: (Value, u32), b: (Value, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl CachedWeightOrder {
    /// Rebuild from scratch to match `g` exactly. O(E log E).
    pub fn rebuild(&mut self, g: &IncrementalGraph) {
        // Reserve every buffer to the cell-count bound once: entries are
        // unique cells, pending holds at most one refresh per cell, and a
        // merge result is again unique cells — so no later repair can
        // outgrow this, however deep the backlog gets.
        let cells = g.n_left() * g.n_right();
        self.entries.reserve(cells);
        self.pending.reserve(cells);
        self.merged.reserve(cells);
        self.dirty.reserve(cells);
        self.entries.clear();
        g.for_each_edge(|l, r, w| {
            self.entries.push((w, (l * g.n_right() + r) as u32));
        });
        // Unique cells make (Reverse(weight), cell) a total order.
        self.entries
            .sort_unstable_by_key(|&(w, cell)| (std::cmp::Reverse(w), cell));
        self.dirty.clear();
        self.dirty_marked.clear();
        self.dirty_marked.resize(g.n_left() * g.n_right(), false);
    }

    /// Mark a flat cell whose edge may have been added, removed, or
    /// reweighted since the last repair. O(1), deduplicated.
    #[inline]
    pub fn mark(&mut self, cell: usize) {
        if !self.dirty_marked[cell] {
            self.dirty_marked[cell] = true;
            self.dirty.push(cell as u32);
        }
    }

    /// Re-establish the sorted invariant against `g` after a batch of
    /// [`CachedWeightOrder::mark`]s: one pass dropping stale entries, then a
    /// merge with the re-sorted dirty edges. O(E + k log k) for k dirty.
    pub fn repair(&mut self, g: &IncrementalGraph) {
        if self.dirty.is_empty() {
            return;
        }
        self.pending.clear();
        for &cell in &self.dirty {
            if let Some(w) = g.weight_of_cell(cell as usize) {
                self.pending.push((w, cell));
            }
        }
        self.pending
            .sort_unstable_by_key(|&(w, cell)| (std::cmp::Reverse(w), cell));

        // Merge `entries` (minus every dirty cell — their cached weights
        // are stale) with the refreshed `pending`.
        self.merged.clear();
        let mut pending = self.pending.iter().copied().peekable();
        for &entry in &self.entries {
            if self.dirty_marked[entry.1 as usize] {
                continue;
            }
            while let Some(&p) = pending.peek() {
                if order_before(p, entry) {
                    self.merged.push(p);
                    pending.next();
                } else {
                    break;
                }
            }
            self.merged.push(entry);
        }
        self.merged.extend(pending);
        std::mem::swap(&mut self.entries, &mut self.merged);

        for &cell in &self.dirty {
            self.dirty_marked[cell as usize] = false;
        }
        self.dirty.clear();
    }

    /// The edges as `(weight, flat cell)` in visit order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (Value, usize)> + '_ {
        self.entries.iter().map(|&(w, cell)| (w, cell as usize))
    }
}

/// Which order [`greedy_maximal_cells`] visits edges in — the cell-graph
/// analogue of [`EdgeOrder`](crate::EdgeOrder).
#[derive(Debug, Clone, Copy)]
pub enum CellVisit<'a> {
    /// Lexicographic `(left, right)` —
    /// [`EdgeOrder::Insertion`](crate::EdgeOrder::Insertion) for graphs
    /// built port-by-port.
    Lex,
    /// Lexicographic rotated by `offset % |eligible edges|` —
    /// [`EdgeOrder::Rotated`](crate::EdgeOrder::Rotated).
    Rotated(usize),
    /// Descending weight with `(left, right)` tie-break —
    /// [`EdgeOrder::WeightDescending`](crate::EdgeOrder::WeightDescending).
    /// The caller keeps the order repaired against the same graph.
    Ordered(&'a CachedWeightOrder),
}

/// Greedy maximal matching over the eligible edges of an
/// [`IncrementalGraph`].
///
/// `edge_ok(left, right, weight)` applies the caller's eligibility rule
/// (e.g. "output queue not full") on top of edge presence; it is evaluated
/// in visit order, so the result is identical to building a
/// [`BipartiteGraph`] of exactly the eligible edges and running
/// [`greedy_maximal_with`](crate::greedy_maximal_with) with the matching
/// [`EdgeOrder`](crate::EdgeOrder).
pub fn greedy_maximal_cells(
    g: &IncrementalGraph,
    visit: CellVisit<'_>,
    edge_ok: impl FnMut(usize, usize, Value) -> bool,
    scratch: &mut GreedyScratch,
) -> Matching {
    let mut m = Matching::new();
    greedy_maximal_cells_into(g, visit, edge_ok, scratch, &mut m);
    m
}

/// As [`greedy_maximal_cells`], but writing into `m` (cleared first) so a
/// per-cycle caller reuses one pair buffer instead of allocating a fresh
/// `Matching` every scheduling call — the zero-allocation hot path.
// detlint: hot
pub fn greedy_maximal_cells_into(
    g: &IncrementalGraph,
    visit: CellVisit<'_>,
    mut edge_ok: impl FnMut(usize, usize, Value) -> bool,
    scratch: &mut GreedyScratch,
    m: &mut Matching,
) {
    scratch.prepare_used(g.n_left(), g.n_right());
    m.pairs.clear();
    let cap = g.n_left().min(g.n_right());
    match visit {
        CellVisit::Lex => {
            g.for_each_edge(|l, r, w| {
                if m.pairs.len() < cap
                    && !scratch.left_used[l]
                    && !scratch.right_used[r]
                    && edge_ok(l, r, w)
                {
                    scratch.left_used[l] = true;
                    scratch.right_used[r] = true;
                    m.pairs.push((l, r));
                }
            });
        }
        CellVisit::Rotated(offset) => {
            // The rotation offset is taken modulo the number of *eligible*
            // edges (as the from-scratch path does), so the eligible list
            // must be materialised first.
            scratch.order.clear();
            g.for_each_edge(|l, r, w| {
                if edge_ok(l, r, w) {
                    scratch.order.push(l * g.n_right() + r);
                }
            });
            if !scratch.order.is_empty() {
                let k = offset % scratch.order.len();
                scratch.order.rotate_left(k);
            }
            for &cell in &scratch.order {
                let (l, r) = (cell / g.n_right(), cell % g.n_right());
                if !scratch.left_used[l] && !scratch.right_used[r] {
                    scratch.left_used[l] = true;
                    scratch.right_used[r] = true;
                    m.pairs.push((l, r));
                    if m.pairs.len() == cap {
                        break;
                    }
                }
            }
        }
        CellVisit::Ordered(order) => {
            debug_assert_eq!(order.entries.len(), g.n_edges(), "order out of sync");
            for (w, cell) in order.iter() {
                let (l, r) = (cell / g.n_right(), cell % g.n_right());
                if !scratch.left_used[l] && !scratch.right_used[r] && edge_ok(l, r, w) {
                    scratch.left_used[l] = true;
                    scratch.right_used[r] = true;
                    m.pairs.push((l, r));
                    if m.pairs.len() == cap {
                        break;
                    }
                }
            }
        }
    }
}

/// A champion as one integer that sorts like the weighted greedy visits:
/// a greater key is a heavier edge, then the smaller row, then the smaller
/// column — `(weight desc, cell asc)` read downwards.
#[inline]
fn champion_key(weight: Value, left: usize, right: usize) -> u128 {
    ((weight as u128) << 64) | ((!(left as u32) as u128) << 32) | !(right as u32) as u128
}

/// The weighted greedy ([`CellVisit::Ordered`]'s matching, pair for pair
/// and in the same order) without a sorted edge list: O(E + N log N +
/// rescans), nothing kept between calls.
///
/// One pass over the edge bits finds every row's *champion* — its heaviest
/// eligible edge, ties to the smallest column. The heaviest champion is the
/// first edge the `(weight desc, cell asc)` walk would take, so the ≤ N
/// champions are sorted once and visited in descending order: one whose
/// column is still free is the next pair; one whose column was taken
/// meanwhile is replaced by its row's champion among the free columns — a
/// strictly smaller key, inserted into the unvisited rest. A stale key only
/// overstates its row, so the greatest key, once it proves current, beats
/// every edge with two free endpoints.
///
/// `edge_ok` must be pure: it is asked once per champion scan about an edge
/// that would become the champion, not once per visited edge, and not at
/// all about edges a heavier one in their row shadows.
// detlint: hot
pub fn greedy_weighted_rows_into(
    g: &IncrementalGraph,
    mut edge_ok: impl FnMut(usize, usize, Value) -> bool,
    scratch: &mut GreedyScratch,
    m: &mut Matching,
) {
    debug_assert!(
        g.n_left() <= u32::MAX as usize && g.n_right() <= u32::MAX as usize,
        "packed champion key assumes port counts fit in 32 bits"
    );
    m.pairs.clear();
    let GreedyScratch {
        keyed, free_right, ..
    } = scratch;
    free_right.clear();
    free_right.resize(g.n_right().div_ceil(64), !0);
    keyed.clear();
    g.push_champions(&mut edge_ok, keyed);
    keyed.sort_unstable();
    let cap = g.n_left().min(g.n_right());
    while let Some(key) = keyed.pop() {
        let (left, right) = (!(key >> 32) as u32 as usize, !key as u32 as usize);
        let (word, bit) = (right / 64, 1u64 << (right % 64));
        if free_right[word] & bit != 0 {
            free_right[word] &= !bit;
            m.pairs.push((left, right));
            if m.pairs.len() == cap {
                break;
            }
        } else if let Some((right, w)) =
            g.row_champion(left, Some(free_right), |right, w| edge_ok(left, right, w))
        {
            let next = champion_key(w, left, right);
            debug_assert!(next < key, "a rescan can only lower a row's key");
            let at = keyed.partition_point(|&k| k < next);
            keyed.insert(at, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_maximal_with, EdgeOrder};
    use proptest::prelude::*;

    fn from_scratch(g: &IncrementalGraph) -> BipartiteGraph {
        let mut b = BipartiteGraph::new(g.n_left(), g.n_right());
        g.to_bipartite(&mut b);
        b
    }

    #[test]
    fn set_and_clear_edges_track_count_and_weight() {
        let mut g = IncrementalGraph::new(3, 3);
        assert_eq!(g.n_edges(), 0);
        g.set_edge(0, 1, 5);
        g.set_edge(2, 2, 7);
        g.set_edge(0, 1, 9); // reweight, not a new edge
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.weight(0, 1), Some(9));
        assert_eq!(g.weight(1, 1), None);
        g.clear_edge(0, 1);
        g.clear_edge(0, 1); // double-clear is a no-op
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.weight(0, 1), None);
    }

    #[test]
    fn first_edge_in_row_scans_with_predicate() {
        // A wide row so the scan crosses word boundaries (n_right = 70).
        let mut g = IncrementalGraph::new(3, 70);
        g.set_edge(1, 3, 5);
        g.set_edge(1, 68, 9);
        g.set_edge(2, 0, 1);
        assert_eq!(g.first_edge_in_row_where(0, |_, _| true), None);
        assert_eq!(g.first_edge_in_row_where(1, |_, _| true), Some((3, 5)));
        assert_eq!(
            g.first_edge_in_row_where(1, |j, _| j != 3),
            Some((68, 9)),
            "predicate skips to the next edge across a word boundary"
        );
        assert_eq!(g.first_edge_in_row_where(1, |_, w| w > 10), None);
        // Row 2's edge shares word 0 with rows 0/1 cells; masking must not
        // leak it into row 1 or vice versa.
        assert_eq!(g.first_edge_in_row_where(2, |_, _| true), Some((0, 1)));
    }

    #[test]
    fn copy_row_bits_handles_unaligned_rows() {
        // m = 70: rows start mid-word, so every row after the first needs
        // the shift-and-stitch path.
        let m = 70;
        let mut g = IncrementalGraph::new(3, m);
        let edges = [(0, 0), (0, 69), (1, 3), (1, 64), (2, 69)];
        for &(l, r) in &edges {
            g.set_edge(l, r, 1);
        }
        for row in 0..3 {
            let mut words = vec![0u64; m.div_ceil(64)];
            g.copy_row_bits(row, &mut words);
            let mut got = Vec::new();
            for (k, w) in words.iter().enumerate() {
                for b in 0..64 {
                    if w & (1 << b) != 0 {
                        got.push(k * 64 + b);
                    }
                }
            }
            let want: Vec<usize> = edges
                .iter()
                .filter(|&&(l, _)| l == row)
                .map(|&(_, r)| r)
                .collect();
            assert_eq!(got, want, "row {row}");
        }
    }

    #[test]
    fn row_champion_scans_unaligned_rows() {
        // m = 70: rows 1 and 2 start mid-word and straddle two words.
        let mut g = IncrementalGraph::new(3, 70);
        for (r, w) in [(3, 5), (40, 9), (66, 9), (69, 7)] {
            g.set_edge(1, r, w);
        }
        g.set_edge(2, 0, 4);
        let all = |_: usize, _: Value| true;
        assert_eq!(g.row_champion(0, None, all), None, "empty row");
        assert_eq!(
            g.row_champion(1, None, all),
            Some((40, 9)),
            "tie to the smallest column, across the word boundary"
        );
        assert_eq!(
            g.row_champion(2, None, all),
            Some((0, 4)),
            "rows do not leak"
        );

        // Only columns 3, 66 and 69 free.
        let free = [1u64 << 3, (1 << (66 - 64)) | (1 << (69 - 64))];
        assert_eq!(g.row_champion(1, Some(&free), all), Some((66, 9)));
        assert_eq!(g.row_champion(1, Some(&[0, 0]), all), None);
        assert_eq!(g.row_champion(2, Some(&free), all), None);

        // The filter sees (column, weight), on top of the mask.
        assert_eq!(g.row_champion(1, None, |r, _| r != 40), Some((66, 9)));
        assert_eq!(g.row_champion(1, None, |_, w| w < 9), Some((69, 7)));
        assert_eq!(
            g.row_champion(1, Some(&free), |r, _| r != 66),
            Some((69, 7))
        );
        assert_eq!(g.row_champion(1, None, |_, _| false), None);
    }

    #[test]
    fn lex_iteration_matches_from_scratch_build_order() {
        let mut g = IncrementalGraph::new(2, 3);
        g.set_edge(1, 0, 4);
        g.set_edge(0, 2, 3);
        g.set_edge(0, 0, 1);
        let b = from_scratch(&g);
        let edges: Vec<_> = b
            .edges()
            .iter()
            .map(|e| (e.left, e.right, e.weight))
            .collect();
        assert_eq!(edges, vec![(0, 0, 1), (0, 2, 3), (1, 0, 4)]);
    }

    #[test]
    fn cached_order_repair_equals_full_sort() {
        let mut g = IncrementalGraph::new(3, 3);
        let mut order = CachedWeightOrder::default();
        g.set_edge(0, 0, 5);
        g.set_edge(1, 1, 5);
        g.set_edge(2, 0, 9);
        order.rebuild(&g);
        assert_eq!(
            order.iter().collect::<Vec<_>>(),
            vec![(9, 6), (5, 0), (5, 4)]
        );

        // Reweight, remove, add — then repair.
        g.set_edge(0, 0, 1);
        order.mark(0);
        g.clear_edge(1, 1);
        order.mark(4);
        g.set_edge(1, 2, 7);
        order.mark(5);
        order.repair(&g);

        let mut reference = CachedWeightOrder::default();
        reference.rebuild(&g);
        assert_eq!(
            order.iter().collect::<Vec<_>>(),
            reference.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn greedy_cells_matches_edge_list_greedy() {
        let mut g = IncrementalGraph::new(3, 3);
        for &(l, r, w) in &[(0, 0, 2), (0, 1, 9), (1, 0, 9), (2, 2, 1)] {
            g.set_edge(l, r, w);
        }
        let b = from_scratch(&g);
        let mut scratch = GreedyScratch::default();
        let mut order = CachedWeightOrder::default();
        order.rebuild(&g);

        for (visit, edge_order) in [
            (CellVisit::Lex, EdgeOrder::Insertion),
            (CellVisit::Rotated(5), EdgeOrder::Rotated(5)),
            (CellVisit::Ordered(&order), EdgeOrder::WeightDescending),
        ] {
            let got = greedy_maximal_cells(&g, visit, |_, _, _| true, &mut scratch);
            let want = greedy_maximal_with(&b, edge_order, &mut GreedyScratch::default());
            assert_eq!(got.pairs, want.pairs, "{edge_order:?}");
        }
    }

    /// The row-champion kernel over the whole graph with no filter.
    fn weighted_rows(g: &IncrementalGraph) -> Vec<(usize, usize)> {
        let mut m = Matching::new();
        greedy_weighted_rows_into(g, |_, _, _| true, &mut GreedyScratch::default(), &mut m);
        m.pairs
    }

    #[test]
    fn equal_weights_give_the_lexicographic_matching() {
        // Dense and all-equal: every key ties on weight, so the visit order
        // is the cell order and every row after the first has to rescan.
        let (rows, cols) = (5, 7);
        let mut g = IncrementalGraph::new(rows, cols);
        for cell in 0..rows * cols {
            g.set_edge(cell / cols, cell % cols, 3);
        }
        let lex = greedy_maximal_cells(&g, CellVisit::Lex, |_, _, _| true, &mut Default::default());
        assert_eq!(lex.pairs, (0..rows).map(|i| (i, i)).collect::<Vec<_>>());
        assert_eq!(weighted_rows(&g), lex.pairs);
    }

    #[test]
    fn early_exit_at_cap_leaves_pairs_complete() {
        // 4 rows over 2 columns: the walk stops once min(N, M) = 2 pairs
        // are out, with two rows' keys still unvisited — and those two
        // pairs are the whole matching, heaviest first.
        let mut g = IncrementalGraph::new(4, 2);
        for (l, r, w) in [
            (0, 0, 1),
            (1, 0, 9),
            (1, 1, 8),
            (2, 1, 7),
            (3, 0, 2),
            (3, 1, 2),
        ] {
            g.set_edge(l, r, w);
        }
        let pairs = weighted_rows(&g);
        assert_eq!(pairs, vec![(1, 0), (2, 1)]);
        let b = from_scratch(&g);
        let want = greedy_maximal_with(&b, EdgeOrder::WeightDescending, &mut Default::default());
        assert_eq!(pairs, want.pairs);
    }

    proptest! {
        /// Random edit scripts: after every batch of edits + repair, the
        /// incremental graph and cached order are identical (edges, weights,
        /// visit order) to a from-scratch rebuild, and the greedy matching
        /// over cells equals the edge-list greedy for every visit order —
        /// including under a per-edge eligibility filter that drops one
        /// column and, like PG's β rule, admits an edge into an odd ("full")
        /// column only above a weight threshold. The row-champion kernel
        /// must give the weighted matching too, pair for pair. Shapes are
        /// non-square, every eighth case is 3×70 (rows start mid-word), and
        /// every other case squeezes the weights into 1..4 (heavy ties).
        #[test]
        fn incremental_equals_from_scratch_under_random_edits(
            shape in (1usize..6, 1usize..6, 0usize..8),
            batches in prop::collection::vec(
                prop::collection::vec((0usize..210, 0u64..20), 1..8),
                1..12,
            ),
            ties in 0u64..2,
            offset in 0usize..32,
            blocked_right in 0usize..6,
            threshold in 0u64..6,
        ) {
            let (rows, cols) = if shape.2 == 0 { (3, 70) } else { (shape.0, shape.1) };
            let mut g = IncrementalGraph::new(rows, cols);
            let mut order = CachedWeightOrder::default();
            order.rebuild(&g);
            let mut scratch = GreedyScratch::default();

            for batch in batches {
                for (cell, w) in batch {
                    let cell = cell % (rows * cols);
                    let (l, r) = (cell / cols, cell % cols);
                    // w == 0 removes the edge; otherwise upsert with weight w.
                    if w == 0 {
                        g.clear_edge(l, r);
                    } else {
                        g.set_edge(l, r, if ties == 1 { 1 + w % 3 } else { w });
                    }
                    order.mark(cell);
                }
                order.repair(&g);

                // Graph (edges + weights + lex order) matches from-scratch.
                let b = from_scratch(&g);
                let mut reference = CachedWeightOrder::default();
                reference.rebuild(&g);
                prop_assert_eq!(
                    order.iter().collect::<Vec<_>>(),
                    reference.iter().collect::<Vec<_>>()
                );

                // Matchings match for all visit orders, with and without an
                // eligibility filter.
                let eligible = |_l: usize, r: usize, w: u64| {
                    r != blocked_right && (r.is_multiple_of(2) || w > threshold)
                };
                let mut filtered = BipartiteGraph::new(rows, cols);
                for e in b.edges() {
                    if eligible(e.left, e.right, e.weight) {
                        filtered.add_edge(e.left, e.right, e.weight);
                    }
                }
                for (visit, edge_order) in [
                    (CellVisit::Lex, EdgeOrder::Insertion),
                    (CellVisit::Rotated(offset), EdgeOrder::Rotated(offset)),
                    (CellVisit::Ordered(&order), EdgeOrder::WeightDescending),
                ] {
                    let got = greedy_maximal_cells(&g, visit, eligible, &mut scratch);
                    let want = greedy_maximal_with(
                        &filtered,
                        edge_order,
                        &mut GreedyScratch::default(),
                    );
                    prop_assert_eq!(&got.pairs, &want.pairs, "{:?}", edge_order);
                }
                let mut got = Matching::new();
                greedy_weighted_rows_into(&g, eligible, &mut scratch, &mut got);
                let want = greedy_maximal_with(
                    &filtered,
                    EdgeOrder::WeightDescending,
                    &mut GreedyScratch::default(),
                );
                prop_assert_eq!(&got.pairs, &want.pairs, "row champions, filtered");
                prop_assert_eq!(
                    weighted_rows(&g),
                    greedy_maximal_with(&b, EdgeOrder::WeightDescending, &mut scratch).pairs,
                    "row champions, unfiltered"
                );
            }
        }
    }
}

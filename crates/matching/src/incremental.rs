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
//!   / [`IncrementalGraph::clear_edge`] / [`IncrementalGraph::put`] (either,
//!   reporting whether the edge moved), iterated in lexicographic `(i, j)`
//!   order — exactly the insertion order of the from-scratch builders —
//!   and one row scan, [`IncrementalGraph::row_champion`] (a row's heaviest
//!   admitted edge): the weighted greedy's rescans and CPG's per-port
//!   argmaxes both run it — and [`IncrementalGraph::first_edge_from`] (a
//!   row's first edge from a column on: CGU's pick). An absent cell weighs
//!   0, so a row's heaviest edge can be read off its weights without the
//!   edge bits.
//! * [`IncrementalGraph::greedy_lex_rows`] — GM's lexicographic matching
//!   as word arithmetic: per row in ascending order, [`claim_first_free`]
//!   takes the first column set in both the row's edge words and a
//!   free-column mask. The only lexicographic GM kernel: the sequential
//!   policy runs it over its head graph in place, the sharded merge runs
//!   the same row step over the bitmaps its shards publish.
//! * [`greedy_maximal_cells_into`] — greedy maximal matching over an
//!   [`IncrementalGraph`] with a per-edge eligibility filter, reproducing
//!   [`greedy_maximal_with`](crate::greedy_maximal_with) bit-for-bit for
//!   each visit order: GM's rotated ablation, and the reference the
//!   row-word kernels are tested against.
//! * [`greedy_weighted_rows_into`] — the weighted one of those matchings
//!   (PG's) from row champions: one first pass and a sort of ≤ N keys, no
//!   order of all E edges kept or repaired. The first pass is O(E) over
//!   the edge bits on a graph under half full and O(N·M) straight-line
//!   loads over the weights — one filter question a row — from there up.
//! * [`CachedWeightOrder`] — that order of all edges, repaired per batch of
//!   edge updates in O(E + k log k); what PG walked before, now the
//!   kernel's reference and a benchmark probe.
//!
//! Per-cell state is *cell-local* by design: eligibility rules that depend
//! on output-side queues (fullness, preemption thresholds) are evaluated by
//! the caller's `edge_ok` filter at match time, so an output queue changing
//! never invalidates a whole column of cached edges.

use crate::graph::Matching;
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
    /// Weight per cell. Invariant: an absent cell weighs 0, so a row's
    /// non-zero maximum over this array is a present edge's weight.
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

    /// Remove the edge `(left, right)` if present. O(1). Stores the zero an
    /// absent cell must weigh ([`IncrementalGraph::check_invariants`]).
    #[inline]
    pub fn clear_edge(&mut self, left: usize, right: usize) {
        let cell = self.cell(left, right);
        let (word, bit) = (cell / 64, 1u64 << (cell % 64));
        if self.present[word] & bit != 0 {
            self.present[word] &= !bit;
            self.n_edges -= 1;
        }
        self.weights[cell] = 0;
    }

    /// [`IncrementalGraph::set_edge`] to `Some(weight)` or
    /// [`IncrementalGraph::clear_edge`] for `None`, in one call; `true` iff
    /// the edge's presence or weight changed. O(1).
    #[inline]
    pub fn put(&mut self, left: usize, right: usize, weight: Option<Value>) -> bool {
        if self.weight(left, right) == weight {
            return false;
        }
        match weight {
            Some(w) => self.set_edge(left, right, w),
            None => self.clear_edge(left, right),
        }
        true
    }

    /// Whether `n_edges` counts the set presence bits, none is set past the
    /// last cell, and every absent cell weighs 0. O(N·M): tests, debug
    /// assertions.
    pub fn check_invariants(&self) -> bool {
        let cells = self.n_left * self.n_right;
        let set_bits: usize = self.present.iter().map(|w| w.count_ones() as usize).sum();
        set_bits == self.n_edges
            && (cells.is_multiple_of(64) || self.present[cells / 64] >> (cells % 64) == 0)
            && (0..cells).all(|cell| self.weight_of_cell(cell).is_some() || self.weights[cell] == 0)
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

    /// Copy row `left`'s edge-presence bits into `out` as a word-aligned
    /// bitmap (`out[k]` bit `b` ⇔ edge `(left, k·64 + b)`), regardless of
    /// the row's alignment inside the flat cell bitset. `out` must hold at
    /// least `n_right.div_ceil(64)` words.
    ///
    /// Each GM shard publishes its rows per cycle with this, and the
    /// sharded merge runs [`claim_first_free`] over the bitmaps.
    pub fn copy_row_bits(&self, left: usize, out: &mut [u64]) {
        let words = self.n_right.div_ceil(64);
        debug_assert!(out.len() >= words);
        for (k, slot) in out.iter_mut().enumerate().take(words) {
            *slot = self.row_word(left, k);
        }
    }

    /// The lexicographic greedy maximal matching ([`CellVisit::Lex`]) over
    /// the edges whose column is set in the word-aligned bitmap `free` (bit
    /// `b` of `free[k]` ⇔ column `k·64 + b`, exactly
    /// `n_right.div_ceil(64)` words): rows in ascending order, each taking
    /// [`claim_first_free`] over its edge words read in place. Hands every
    /// pair to `matched` in that order and leaves `free` without the
    /// matched columns.
    ///
    /// O(N·M/64) word operations however many edges there are: each row
    /// is visited once, so rows need no "used" marks, and `free` is the
    /// columns'.
    // detlint: hot
    #[inline]
    pub fn greedy_lex_rows(&self, free: &mut [u64], mut matched: impl FnMut(usize, usize)) {
        let words = self.n_right.div_ceil(64);
        debug_assert_eq!(free.len(), words, "one free word per 64 columns");
        for left in 0..self.n_left {
            let row = (0..words).map(|k| self.row_word(left, k));
            if let Some(right) = claim_first_free(free, row) {
                matched(left, right);
            }
        }
    }

    /// Row `left`'s first edge at column `start` or past it, as its column:
    /// a scan of the row's edge words read in place, a word test per 64
    /// columns. CGU picks with it — first fit from 0, round robin from
    /// past the port's previous choice and then, wrapping, from 0.
    // detlint: hot
    #[inline]
    pub fn first_edge_from(&self, left: usize, start: usize) -> Option<usize> {
        (start / 64..self.n_right.div_ceil(64)).find_map(|k| {
            let below = if k == start / 64 { start % 64 } else { 0 };
            let word = self.row_word(left, k) & (!0u64 << below);
            (word != 0).then(|| k * 64 + word.trailing_zeros() as usize)
        })
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
    /// order.
    ///
    /// A graph at least half full goes row by row: O(N·M) straight-line
    /// loads ([`IncrementalGraph::dense_row_argmax`]) and **one** `edge_ok`
    /// question a row, about its unfiltered argmax — every row alike, the
    /// odd sparse one included (0.1 % of `cioq_pg_churn`'s rows are under
    /// half full, none under 30 %). A refused argmax, or a row that has
    /// none to offer, falls through to [`IncrementalGraph::row_champion`]:
    /// the same champion either way, `edge_ok` being pure. A sparser graph
    /// takes one lexicographic pass over the edge bits, O(E), so an empty
    /// stretch of the grid costs a word test per 64 cells, and `edge_ok` is
    /// asked only about edges heavier than their row's best so far.
    ///
    /// One half never loses: the passes break even near 20 % full (≈ 2.7 ns
    /// a bit-scanned edge at half full, 4 ns at 20 %, against ≈ 100 ns a
    /// 128-wide dense row), and row by row on a 1 %-full graph is 16 384
    /// loads to find 170 edges. The benchmark's one PG row is 74 % full, so
    /// the flat arm's case (sparse PG −17 % without it) is a scratch twin
    /// only — benchmarks/README.md "PR 20", ROADMAP's sparse-PG row.
    // detlint: hot
    #[inline]
    fn push_champions(
        &self,
        edge_ok: &mut impl FnMut(usize, usize, Value) -> bool,
        keys: &mut Vec<u128>,
    ) {
        let m = self.n_right;
        if self.n_edges * 2 >= self.n_left * m {
            debug_assert!(self.check_invariants(), "an absent cell must weigh 0");
            for left in 0..self.n_left {
                let champion = self
                    .dense_row_argmax(left)
                    .filter(|&(right, w)| edge_ok(left, right, w))
                    .or_else(|| self.row_champion(left, None, |right, w| edge_ok(left, right, w)));
                keys.extend(champion.map(|(right, w)| champion_key(w, left, right)));
            }
            return;
        }
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

    /// Row `left`'s heaviest edge as `(right, weight)`, ties to the smallest
    /// column, from the weights alone: an absent cell weighs 0, so the
    /// branch-free maximum over the row (`LANES` running maxima side by
    /// side) is an edge's weight and the first cell holding it that edge.
    /// `None` for a maximum of 0 (a zero-weight edge or an absent cell, who
    /// knows). The edge bits are not read.
    ///
    /// Out of line, and the only piece that is: the lanes inlined into
    /// [`IncrementalGraph::push_champions`] made its flat pass 7 % slower
    /// (49 %-full 128 × 128 graph, 15.6 against 14.6 µs a call), and an
    /// out-of-line arm that took `edge_ok` put PG's filter closure in
    /// memory (sparse PG −1 … −3 %, 0 of 5 three times).
    // detlint: hot
    #[inline(never)]
    fn dense_row_argmax(&self, left: usize) -> Option<(usize, Value)> {
        const LANES: usize = 8;
        let m = self.n_right;
        let weights = &self.weights[left * m..(left + 1) * m];
        let mut lanes = [0; LANES];
        let mut chunks = weights.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (lane, &w) in lanes.iter_mut().zip(chunk) {
                *lane = w.max(*lane);
            }
        }
        let rest = chunks.remainder().iter();
        let heaviest = lanes.iter().chain(rest).fold(0, |a, &w| w.max(a));
        let right = weights.iter().position(|&w| w == heaviest)?;
        (heaviest > 0).then_some((right, heaviest))
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

/// Which order [`greedy_maximal_cells_into`] visits edges in — the cell-graph
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
/// [`BipartiteGraph`](crate::BipartiteGraph) of exactly the eligible edges and running
/// [`greedy_maximal_with`](crate::greedy_maximal_with) with the matching
/// [`EdgeOrder`](crate::EdgeOrder). Writes into `m` (cleared first) so a
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

/// One row of the lexicographic greedy over word-aligned bitmaps: the first
/// column set both in the row's edge words (`row`, word `k` covering
/// columns `k·64..k·64 + 64`) and in `free`, claimed — its bit cleared from
/// `free` — and returned; `None`, with `free` untouched, if there is none.
///
/// Called on every row in ascending order, this is GM's lexicographic
/// matching under "the column is free" pair for pair: the first edge
/// [`CellVisit::Lex`] meets in a row whose column no earlier row took is
/// exactly this column. Both engines run it — the sequential one through
/// [`IncrementalGraph::greedy_lex_rows`], the sharded merge over the rows
/// its workers publish with [`IncrementalGraph::copy_row_bits`].
// detlint: hot
#[inline]
pub fn claim_first_free(free: &mut [u64], row: impl IntoIterator<Item = u64>) -> Option<usize> {
    for ((k, slot), bits) in free.iter_mut().enumerate().zip(row) {
        let hit = bits & *slot;
        if hit != 0 {
            *slot &= !(hit & hit.wrapping_neg());
            return Some(k * 64 + hit.trailing_zeros() as usize);
        }
    }
    None
}

/// A champion as one integer that sorts like the weighted greedy visits:
/// a greater key is a heavier edge, then the smaller row, then the smaller
/// column — `(weight desc, cell asc)` read downwards.
#[inline]
fn champion_key(weight: Value, left: usize, right: usize) -> u128 {
    ((weight as u128) << 64) | ((!(left as u32) as u128) << 32) | !(right as u32) as u128
}

/// The weighted greedy ([`CellVisit::Ordered`]'s matching, pair for pair
/// and in the same order) without a sorted edge list: O(first pass +
/// N log N + rescans), nothing kept between calls.
///
/// The first pass finds every row's *champion* — its heaviest eligible
/// edge, ties to the smallest column: O(E) bit-scanned edges on a graph
/// under half full, O(N·M) straight-line loads and one `edge_ok` question
/// a row from there up. The heaviest champion is the first edge the
/// `(weight desc, cell asc)` walk would take, so the ≤ N champions are
/// sorted once and visited in descending order: one whose column is still
/// free is the next pair; one whose column was taken meanwhile is replaced
/// by its row's champion among the free columns — a strictly smaller key,
/// inserted into the unvisited rest. A stale key only overstates its row,
/// so the greatest key, once it proves current, beats every edge with two
/// free endpoints.
///
/// `edge_ok` must be pure: it is asked once per champion scan about an edge
/// that would become the champion, not once per visited edge, not at all
/// about edges a heavier one in their row shadows, and — on a dense graph —
/// twice about a row's heaviest edge when it refuses it.
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
    use crate::graph::BipartiteGraph;
    use crate::greedy::{greedy_maximal_with, EdgeOrder};
    use proptest::prelude::*;

    /// The same edges in a [`BipartiteGraph`] (lexicographic insertion
    /// order, matching the from-scratch builders).
    fn from_scratch(g: &IncrementalGraph) -> BipartiteGraph {
        let mut b = BipartiteGraph::new(g.n_left(), g.n_right());
        g.for_each_edge(|l, r, w| {
            b.add_edge(l, r, w);
        });
        b
    }

    fn greedy_maximal_cells(
        g: &IncrementalGraph,
        visit: CellVisit<'_>,
        edge_ok: impl FnMut(usize, usize, Value) -> bool,
        scratch: &mut GreedyScratch,
    ) -> Matching {
        let mut m = Matching::new();
        greedy_maximal_cells_into(g, visit, edge_ok, scratch, &mut m);
        m
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

        // `put` is either of them, and says whether the edge moved.
        assert!(g.put(0, 1, Some(4)), "insert");
        assert!(!g.put(0, 1, Some(4)), "same weight");
        assert!(g.put(0, 1, Some(0)), "reweight, to a legal 0");
        assert_eq!((g.n_edges(), g.weight(0, 1)), (2, Some(0)));
        assert!(g.put(0, 1, None), "a zero-weight edge is still removed");
        assert!(!g.put(0, 1, None), "absent already");
        assert!(g.put(1, 1, Some(0)), "a zero-weight edge is still inserted");
        assert_eq!((g.n_edges(), g.weight(0, 1)), (2, None));
        assert!(g.check_invariants());
    }

    #[test]
    fn check_invariants_sees_each_broken_clause() {
        let mut g = IncrementalGraph::new(3, 5);
        g.set_edge(1, 2, 6);
        assert!(g.check_invariants());
        let mut stale = g.clone();
        stale.weights[3] = 1; // an absent cell that weighs something
        assert!(!stale.check_invariants());
        let mut miscounted = g.clone();
        miscounted.n_edges += 1;
        assert!(!miscounted.check_invariants());
        g.present[0] |= 1 << 15; // the grid has cells 0..15
        g.n_edges += 1;
        assert!(!g.check_invariants());
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

    /// One dense row of `cols` weight-1 edges, then `heavy` as `(column,
    /// weight)` on top.
    fn dense_row(cols: usize, heavy: &[(usize, Value)]) -> IncrementalGraph {
        let mut g = IncrementalGraph::new(1, cols);
        for right in 0..cols {
            g.set_edge(0, right, 1);
        }
        for &(right, w) in heavy {
            g.set_edge(0, right, w);
        }
        g
    }

    #[test]
    fn cleared_cell_never_resurfaces() {
        // The heaviest edge is set and then cleared; the row stays dense,
        // so its champion comes from the weights alone.
        let mut g = dense_row(16, &[(4, 5), (9, 100)]);
        assert_eq!(weighted_rows(&g), vec![(0, 9)]);
        g.clear_edge(0, 9);
        assert_eq!(weighted_rows(&g), vec![(0, 4)]);
        g.put(0, 4, None);
        assert_eq!(weighted_rows(&g), vec![(0, 0)]);
    }

    #[test]
    fn refused_dense_argmax_falls_back_to_the_filtered_scan() {
        // The filter refuses the unfiltered argmax (column 5) but admits an
        // equal-weight edge in a larger column and a lighter one in a
        // smaller column: the champion is the former.
        let g = dense_row(16, &[(2, 5), (5, 9), (11, 9)]);
        let mut m = Matching::new();
        greedy_weighted_rows_into(&g, |_, r, _| r != 5, &mut Default::default(), &mut m);
        assert_eq!(m.pairs, vec![(0, 11)]);
        greedy_weighted_rows_into(&g, |_, _, w| w < 5, &mut Default::default(), &mut m);
        assert_eq!(m.pairs, vec![(0, 0)], "every heavy edge refused");
    }

    #[test]
    fn zero_weight_edges_are_still_edges() {
        // Packets weigh ≥ 1, the graph does not care: a dense row whose
        // maximum is 0 has a champion all the same.
        let mut g = IncrementalGraph::new(2, 16);
        for cell in 0..32 {
            g.set_edge(cell / 16, cell % 16, 0);
        }
        assert_eq!(weighted_rows(&g), vec![(0, 0), (1, 1)]);
        g.clear_edge(0, 0);
        g.clear_edge(1, 1);
        assert_eq!(weighted_rows(&g), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn dense_tie_goes_to_the_smallest_column_across_lanes() {
        // Equal maxima in different lanes of different chunks; the smallest
        // column (13) sits in neither the first chunk nor the smallest lane.
        let mut g = dense_row(27, &[(19, 7), (13, 7), (22, 7), (26, 7)]);
        assert_eq!(weighted_rows(&g), vec![(0, 13)]);
        // Columns 24..27 are past the last full chunk and count all the same.
        g.set_edge(0, 26, 8);
        assert_eq!(weighted_rows(&g), vec![(0, 26)]);
    }

    #[test]
    fn dense_first_pass_asks_the_filter_once_per_row() {
        // 128 × 128, every cell live, each row's heaviest edge in a column
        // of its own: no rescans, so every question is a first-pass one.
        let n = 128;
        let heaviest = |left: usize| left * 37 % n;
        let mut g = IncrementalGraph::new(n, n);
        for (left, right) in (0..n * n).map(|cell| (cell / n, cell % n)) {
            let w = 1 + (left * 131 + right * 71) % 1009;
            let boost = if right == heaviest(left) { 5000 } else { 0 };
            g.set_edge(left, right, (w + boost) as Value);
        }
        let asked = |g: &IncrementalGraph| {
            let (mut asked, mut m) = (0, Matching::new());
            let count = |_, _, _| {
                asked += 1;
                true
            };
            greedy_weighted_rows_into(g, count, &mut Default::default(), &mut m);
            assert_eq!(m.pairs.len(), n);
            assert!(m.pairs.iter().all(|&(l, r)| r == heaviest(l)));
            asked
        };
        assert_eq!(asked(&g), n, "dense: one question a row");

        // Thinned below half full, the flat pass asks once per change of a
        // row's running maximum, as it did before the dense arm existed.
        let mut records = 0;
        for (left, right) in (0..n * n).map(|cell| (cell / n, cell % n)) {
            if (left + right) % 3 != 0 && right != heaviest(left) {
                g.clear_edge(left, right);
            }
        }
        assert!(g.n_edges() * 2 < n * n);
        for left in 0..n {
            let mut best = None;
            for right in 0..n {
                if g.weight(left, right) > best {
                    (best, records) = (g.weight(left, right), records + 1);
                }
            }
        }
        assert_eq!((asked(&g), records), (661, 661));
    }

    proptest! {
        /// The row-word greedy is the lexicographic greedy under the filter
        /// "column free", pair for pair and in order — read in place from
        /// the graph ([`IncrementalGraph::greedy_lex_rows`]) and from copied
        /// row bitmaps (the sharded merge's form) alike — and leaves in the
        /// mask exactly the free columns nobody matched. Widths sit on and
        /// across word boundaries, so most rows start mid-word; one mask in
        /// four is all zero and one all ones (bits past the last column
        /// set, which no row may claim).
        #[test]
        fn row_word_greedy_is_the_lexicographic_greedy(
            width in 0usize..6,
            rows in 1usize..12,
            density in 0u64..9,
            mask in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let cols: usize = [1, 63, 64, 65, 70, 130][width];
            let words = cols.div_ceil(64);
            let mut state = seed;
            let mut next = move || {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut g = IncrementalGraph::new(rows, cols);
            for cell in 0..rows * cols {
                if next() % 8 < density {
                    g.set_edge(cell / cols, cell % cols, next() % 5);
                }
            }
            let free: Vec<u64> = (0..words)
                .map(|_| match mask {
                    0 => 0,
                    1 => !0,
                    _ => next() | next(),
                })
                .collect();
            let is_free = |j: usize| free[j / 64] >> (j % 64) & 1 == 1;

            let want = greedy_maximal_cells(
                &g,
                CellVisit::Lex,
                |_, j, _| is_free(j),
                &mut GreedyScratch::default(),
            );
            let mut left = free.clone();
            let mut got = Vec::new();
            g.greedy_lex_rows(&mut left, |l, r| got.push((l, r)));
            prop_assert_eq!(&got, &want.pairs);

            let mut taken = vec![0u64; words];
            for &(_, r) in &got {
                taken[r / 64] |= 1 << (r % 64);
            }
            let expect: Vec<u64> = free.iter().zip(&taken).map(|(f, t)| f & !t).collect();
            prop_assert_eq!(&left, &expect);

            let (mut bitmap_free, mut row, mut merged) = (free.clone(), vec![0; words], Vec::new());
            for l in 0..rows {
                g.copy_row_bits(l, &mut row);
                merged.extend(claim_first_free(&mut bitmap_free, row.iter().copied()).map(|r| (l, r)));
            }
            prop_assert_eq!(&merged, &want.pairs);
            prop_assert_eq!(&bitmap_free, &expect);
        }

        /// `first_edge_from` is the naive scan of the row's cells from
        /// `start` on, for every row and every `start` up to one past the
        /// last column, at widths on and across word boundaries (so most
        /// rows start mid-word) and densities from empty to full.
        #[test]
        fn first_edge_from_is_the_naive_scan(
            width in 0usize..6,
            rows in 1usize..12,
            density in 0u64..9,
            seed in 0u64..u64::MAX,
        ) {
            let cols: usize = [1, 63, 64, 65, 70, 130][width];
            let mut state = seed;
            let mut g = IncrementalGraph::new(rows, cols);
            for cell in 0..rows * cols {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                if (state >> 33) % 8 < density {
                    g.set_edge(cell / cols, cell % cols, state >> 60);
                }
            }
            for l in 0..rows {
                for start in 0..=cols {
                    let naive = (start..cols).find(|&c| g.weight(l, c).is_some());
                    prop_assert_eq!(g.first_edge_from(l, start), naive, "row {} from {}", l, start);
                }
            }
        }

        /// Random edit scripts: after every batch of edits + repair, the
        /// incremental graph and cached order are identical (edges, weights,
        /// visit order) to a from-scratch rebuild, and the greedy matching
        /// over cells equals the edge-list greedy for every visit order —
        /// including under a per-edge eligibility filter that drops one
        /// column and, like PG's β rule, admits an edge into an odd ("full")
        /// column only above a weight threshold. The row-champion kernel
        /// must give the weighted matching too, pair for pair. Shapes are
        /// non-square; three in eight are wide — 3×70 (rows start mid-word,
        /// six cells past the lanes), 2×130 (rows straddle three words) and
        /// 9×16 (two full lane chunks, no remainder). Every fourth case
        /// starts 7/8 full and every fourth with its first half of cells
        /// (±1) set — full rows above empty ones, the graph on the
        /// dense/flat threshold for the edits to cross. Every other case
        /// squeezes the weights into 0..3 (heavy ties); 0 is a legal weight.
        #[test]
        fn incremental_equals_from_scratch_under_random_edits(
            shape in (1usize..6, 1usize..6, 0usize..8, 0usize..4),
            batches in prop::collection::vec(
                prop::collection::vec((0usize..260, 0u64..20), 1..8),
                1..12,
            ),
            ties in 0u64..2,
            offset in 0usize..32,
            blocked_right in 0usize..6,
            threshold in 0u64..6,
        ) {
            let (rows, cols) = match shape.2 {
                0 => (3, 70),
                1 => (2, 130),
                2 => (9, 16),
                _ => (shape.0, shape.1),
            };
            let cells = rows * cols;
            let weigh = |w: u64| if ties == 1 { w % 3 } else { w - 1 };
            let mut g = IncrementalGraph::new(rows, cols);
            for cell in 0..cells {
                let live = match shape.3 {
                    0 => (cell + offset) % 8 != 0,
                    1 => cell + 1 < cells / 2 + offset % 3,
                    _ => false,
                };
                if live {
                    let w = weigh(1 + ((cell * 7 + offset) % 19) as u64);
                    g.set_edge(cell / cols, cell % cols, w);
                }
            }
            let mut order = CachedWeightOrder::default();
            order.rebuild(&g);
            let mut scratch = GreedyScratch::default();

            for batch in batches {
                for (cell, w) in batch {
                    let cell = cell % cells;
                    let (l, r) = (cell / cols, cell % cols);
                    // w == 0 removes the edge; otherwise upsert — through
                    // `put` for every other cell, which must say whether
                    // anything moved.
                    let edge = (w != 0).then(|| weigh(w));
                    if cell % 2 == 0 {
                        let moved = g.weight(l, r) != edge;
                        prop_assert_eq!(g.put(l, r, edge), moved);
                    } else if let Some(w) = edge {
                        g.set_edge(l, r, w);
                    } else {
                        g.clear_edge(l, r);
                    }
                    prop_assert_eq!(g.weight(l, r), edge);
                    order.mark(cell);
                }
                prop_assert!(g.check_invariants());
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

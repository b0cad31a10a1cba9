//! Band-scoped views and the one incremental cache family.
//!
//! All four policies derive their per-cycle decisions from queue state that
//! one slot barely changes: a slot dirties at most O(N·ŝ) of the N² VOQs.
//! The caches here consume the engine's change log
//! ([`cioq_sim::ChangeLog`]) and refresh only the dirtied cells, turning the
//! per-cycle rebuild from O(N²) into O(changes). No cache holds an order:
//! PG's weighted greedy reads the head graph as it stands
//! ([`cioq_matching::greedy_weighted_rows_into`]).
//!
//! ## Bands
//!
//! Every cache covers a *band*: a contiguous range of input rows
//! ([`RowView`]) or of output columns ([`ColView`]). The sequential engine's
//! [`SwitchView`] is the band `0..N` (and `0..M`) of the whole switch; a
//! shard of the sharded engine sees its own rows through a [`ShardView`] and
//! its own columns through [`ShardCols`]. The policies run the same code
//! over either, so a K-shard switch splits the per-cycle O(changes) repair K
//! ways and "sequential" is just K = 1 over the full band.
//!
//! ## The consistency handshake
//!
//! The engine flushes a band's change log after every scheduling call that
//! reads it, so the log a cache sees at call `k` holds exactly the queues
//! dirtied since its call `k − 1` — provided the cache consumed every
//! previous flush. Each cache half records the band it covers and the flush
//! count it expects next ([`Handshake`]); on any mismatch (first call,
//! policy reused across runs, resized switch) it falls back to a full
//! rebuild. Correctness therefore never depends on the handshake — only the
//! cost does. Under the sequential engine, which flushes after *both*
//! crossbar subphases, both halves of a crossbar cache must be synced in
//! both subphases.
//!
//! ## Cell-locality
//!
//! Cached state is strictly *cell-local*: VOQ heads, crossbar fullness,
//! and CPG's β rule, which reads only `Q_ij` and `C_ij` and is therefore
//! cached per cell as a candidate edge. Eligibility rules that involve
//! output queues (fullness, PG's β and CPG's α preemption thresholds) are
//! re-evaluated each cycle in O(N) and applied as filters at match time,
//! so an output queue changing never invalidates a whole column of cached
//! cells.

use cioq_matching::IncrementalGraph;
use cioq_model::{PortId, Value};
use cioq_sim::{ChangeLog, FabricView, ShardView, SortedQueue, SwitchView};
use std::ops::Range;

/// Read access to a band of input rows and the log of what changed in it.
pub(crate) trait RowView {
    /// The global input rows of the band.
    fn rows(&self) -> Range<usize>;
    /// Number of output ports `M` (every row spans all columns).
    fn n_outputs(&self) -> usize;
    /// Input queue `Q_ij`, `i` a global row of the band.
    fn voq(&self, i: usize, j: usize) -> &SortedQueue;
    /// Crossbar queue `C_ij`, `i` a global row of the band.
    fn xbar(&self, i: usize, j: usize) -> &SortedQueue;
    /// The band's change log, over band-local cells `(i − rows.start)·M + j`.
    fn log(&self) -> &ChangeLog;

    /// What a row-side cache half consumes: every cell of the band with a
    /// dirtied `Q_ij` or `C_ij`, as `(band-local row, j)`.
    fn dirty_rows(&self) -> Dirty<impl Iterator<Item = (usize, usize)>> {
        let (m, log) = (self.n_outputs(), self.log());
        let cells = log.dirty_voqs().iter().chain(log.dirty_xbars());
        Dirty {
            band: self.rows(),
            width: m,
            flush: log.flush_count(),
            cells: cells.map(move |&cell| (cell as usize / m, cell as usize % m)),
        }
    }
}

/// Read access to a band of output columns' crosspoints and the marks of
/// which of them changed.
pub(crate) trait ColView {
    /// The global output columns of the band.
    fn cols(&self) -> Range<usize>;
    /// Number of input ports `N` (every column spans all rows).
    fn n_inputs(&self) -> usize;
    /// Number of output ports `M` (marks are global cells `i·M + j`).
    fn n_outputs(&self) -> usize;
    /// Crossbar queue `C_ij`, `j` a global column of the band.
    fn xbar(&self, i: usize, j: usize) -> &SortedQueue;
    /// Flush count of the log the marks come from (the handshake input).
    fn flush_count(&self) -> u64;
    /// Global crossbar cells of the band dirtied since the previous sync.
    fn marks(&self) -> &[u32];

    /// What a column-side cache half consumes: every cell of the band with
    /// a dirtied `C_ij`, as `(band-local column, i)`.
    fn dirty_cols(&self) -> Dirty<impl Iterator<Item = (usize, usize)>> {
        let (lo, m) = (self.cols().start, self.n_outputs());
        Dirty {
            band: self.cols(),
            width: self.n_inputs(),
            flush: self.flush_count(),
            cells: self
                .marks()
                .iter()
                .map(move |&cell| (cell as usize % m - lo, cell as usize / m)),
        }
    }
}

/// One sync's worth of news for a cache half: the band of lines it covers
/// (rows or columns), the width of a line, the flush count of the log
/// behind it, and the `(band-local line, global index along it)` of every
/// cell dirtied since the previous flush.
pub(crate) struct Dirty<I> {
    pub(crate) band: Range<usize>,
    pub(crate) width: usize,
    pub(crate) flush: u64,
    pub(crate) cells: I,
}

impl RowView for SwitchView<'_> {
    fn rows(&self) -> Range<usize> {
        0..self.n_inputs()
    }
    fn n_outputs(&self) -> usize {
        SwitchView::n_outputs(self)
    }
    #[inline]
    fn voq(&self, i: usize, j: usize) -> &SortedQueue {
        self.input_queue(PortId::from(i), PortId::from(j))
    }
    #[inline]
    fn xbar(&self, i: usize, j: usize) -> &SortedQueue {
        self.crossbar_queue(PortId::from(i), PortId::from(j))
    }
    fn log(&self) -> &ChangeLog {
        self.changes()
    }
}

impl ColView for SwitchView<'_> {
    fn cols(&self) -> Range<usize> {
        0..SwitchView::n_outputs(self)
    }
    fn n_inputs(&self) -> usize {
        SwitchView::n_inputs(self)
    }
    fn n_outputs(&self) -> usize {
        SwitchView::n_outputs(self)
    }
    #[inline]
    fn xbar(&self, i: usize, j: usize) -> &SortedQueue {
        self.crossbar_queue(PortId::from(i), PortId::from(j))
    }
    fn flush_count(&self) -> u64 {
        self.changes().flush_count()
    }
    fn marks(&self) -> &[u32] {
        self.changes().dirty_xbars()
    }
}

impl RowView for ShardView<'_> {
    fn rows(&self) -> Range<usize> {
        self.input_range()
    }
    fn n_outputs(&self) -> usize {
        ShardView::n_outputs(self)
    }
    #[inline]
    fn voq(&self, i: usize, j: usize) -> &SortedQueue {
        self.input_queue(PortId::from(i), PortId::from(j))
    }
    #[inline]
    fn xbar(&self, i: usize, j: usize) -> &SortedQueue {
        self.crossbar_queue(PortId::from(i), PortId::from(j))
    }
    fn log(&self) -> &ChangeLog {
        self.changes()
    }
}

/// A shard's column band: the whole-fabric view narrowed to the shard's
/// output columns, with the engine's batch of inbound crossbar marks (every
/// cell dirtied in those columns, by any shard, since the worker's previous
/// output proposal).
pub(crate) struct ShardCols<'a, 'f> {
    pub(crate) fabric: &'a FabricView<'f>,
    pub(crate) shard: usize,
    pub(crate) inbound: &'a [u32],
}

impl ColView for ShardCols<'_, '_> {
    fn cols(&self) -> Range<usize> {
        self.fabric.partition().output_range(self.shard)
    }
    fn n_inputs(&self) -> usize {
        self.fabric.n_inputs()
    }
    fn n_outputs(&self) -> usize {
        self.fabric.n_outputs()
    }
    #[inline]
    fn xbar(&self, i: usize, j: usize) -> &SortedQueue {
        self.fabric.crossbar_queue(i, j)
    }
    fn flush_count(&self) -> u64 {
        // The shard's own log is flushed once per cycle, and the engine
        // hands over one inbound batch per cycle: one flush per batch.
        self.fabric.changes(self.shard).flush_count()
    }
    fn marks(&self) -> &[u32] {
        self.inbound
    }
}

/// What a cache half last synced: the band it covers, the width of its
/// lines, and the flush count it expects to see next. The default (an empty
/// band awaiting flush 0) is in step only with an empty band of a fresh
/// engine — exactly what an empty cache mirrors.
#[derive(Debug, Default)]
struct Handshake {
    band: Range<usize>,
    width: usize,
    next_flush: u64,
}

impl Handshake {
    /// Record a sync of `band` (lines of `width` cells) against a log at
    /// `flush`. Returns whether the cache was in step — same band, and it
    /// consumed every flush up to this one; if not, the caller must rebuild
    /// from scratch.
    fn step(&mut self, band: &Range<usize>, width: usize, flush: u64) -> bool {
        let in_step = self.next_flush == flush && self.band == *band && self.width == width;
        *self = Handshake {
            band: band.clone(),
            width,
            next_flush: flush + 1,
        };
        in_step
    }
}

/// Incrementally-maintained VOQ head graph over a band of rows: an edge per
/// non-empty `Q_ij` weighted by `v(g_ij)`, shared by GM (weights ignored)
/// and PG. Row indices in the graph are band-local; columns are global.
#[derive(Debug, Default)]
pub(crate) struct VoqCache {
    pub(crate) graph: IncrementalGraph,
    shake: Handshake,
}

impl VoqCache {
    /// Bring the head graph up to date with the band, handing every edge
    /// the band's change log moved to `on_edit` as `(band-local cell, new
    /// weight or `None` once removed)`. Returns `true` when the sync was
    /// such an incremental repair — the edits transform the previous graph
    /// into the current one — and `false` on a full rebuild, which reports
    /// no edits.
    // detlint: hot
    pub(crate) fn sync(
        &mut self,
        view: &impl RowView,
        mut on_edit: impl FnMut(u32, Option<Value>),
    ) -> bool {
        let (rows, m, log) = (view.rows(), view.n_outputs(), view.log());
        let (lo, lines) = (rows.start, rows.len());
        let in_step = self.shake.step(&rows, m, log.flush_count());
        if in_step {
            for &cell in log.dirty_voqs() {
                let (line, j) = (cell as usize / m, cell as usize % m);
                if let Some(edit) = self.refresh_cell(view, lo, line, j) {
                    on_edit(cell, edit);
                }
            }
        } else {
            self.graph.reset(lines, m);
            for line in 0..lines {
                for j in 0..m {
                    self.refresh_cell(view, lo, line, j);
                }
            }
        }
        in_step
    }

    /// Re-read `Q_ij` (band-local row `line`) into the graph. `Some(edit)`
    /// iff the *edge* changed — its presence or its weight `v(g_ij)`: an
    /// arrival below the head, or a pop that exposes an equal value, moves
    /// the queue and not the graph.
    #[inline]
    fn refresh_cell(
        &mut self,
        view: &impl RowView,
        lo: usize,
        line: usize,
        j: usize,
    ) -> Option<Option<Value>> {
        let head = view.voq(lo + line, j).head_value();
        self.graph.put(line, j, head).then_some(head)
    }
}

/// A dense bit matrix with per-row cyclic first-set scans — the eligibility
/// masks CGU's "first eligible index from the round-robin pointer" scans
/// run over.
#[derive(Debug, Default)]
pub(crate) struct BitGrid {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitGrid {
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.words_per_row = cols.div_ceil(64);
        self.words.clear();
        self.words.resize(rows * self.words_per_row, 0);
    }

    /// Bits per row.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.rows && col < self.cols);
        let word = row * self.words_per_row + col / 64;
        let bit = 1u64 << (col % 64);
        if value {
            self.words[word] |= bit;
        } else {
            self.words[word] &= !bit;
        }
    }

    /// First set column of `row` scanning cyclically from `start`
    /// (i.e. `start, start+1, …, cols-1, 0, …, start-1`).
    pub(crate) fn first_set_cyclic(&self, row: usize, start: usize) -> Option<usize> {
        debug_assert!(start < self.cols);
        let words = &self.words[row * self.words_per_row..(row + 1) * self.words_per_row];
        // First set column at or after `from` (bits past `cols` are never set).
        let first_from = |from: usize| {
            (from / 64..words.len()).find_map(|w| {
                let below = if w == from / 64 { from % 64 } else { 0 };
                let word = words[w] & (!0u64 << below);
                (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
            })
        };
        match first_from(start) {
            // Wrapping around, the first set column of the whole row is
            // the answer iff it lies before `start`.
            None if start > 0 => first_from(0).filter(|&col| col < start),
            found => found,
        }
    }
}

/// One half of [`CguCache`]: an eligibility mask over the lines of a band
/// (rows for the input subphase, columns for the output subphase) and one
/// round-robin pointer per line.
#[derive(Debug, Default)]
pub(crate) struct MaskHalf {
    pub(crate) ok: BitGrid,
    /// Where each line's next cyclic scan starts. Zeroed on every full
    /// rebuild, so a policy reused across runs starts like a fresh one.
    pub(crate) ptr: Vec<usize>,
    shake: Handshake,
}

impl MaskHalf {
    /// Consume one flush: re-evaluate `ok(line, k)` (band-local line, global
    /// index `k` along it) for the dirty cells — or, on a resync, for every
    /// cell of the band.
    // detlint: hot
    pub(crate) fn sync(
        &mut self,
        dirty: Dirty<impl Iterator<Item = (usize, usize)>>,
        ok: impl Fn(usize, usize) -> bool,
    ) {
        let (lines, width) = (dirty.band.len(), dirty.width);
        if self.shake.step(&dirty.band, dirty.width, dirty.flush) {
            for (line, k) in dirty.cells {
                self.ok.set(line, k, ok(line, k));
            }
        } else {
            self.ok.reset(lines, width);
            self.ptr.clear();
            self.ptr.resize(lines, 0);
            for line in 0..lines {
                for k in 0..width {
                    self.ok.set(line, k, ok(line, k));
                }
            }
        }
    }
}

/// CGU's incremental eligibility masks. `rows.ok[i][j]` holds the
/// input-subphase rule for `(Q_ij, C_ij)` and syncs from [`RowView::dirty_rows`],
/// `cols.ok[j][i]` the output-subphase rule for `C_ij` (stored transposed
/// so a per-output scan is one contiguous line) and syncs from
/// [`ColView::dirty_cols`]; the rules themselves live with the policy.
#[derive(Debug, Default)]
pub(crate) struct CguCache {
    pub(crate) rows: MaskHalf,
    pub(crate) cols: MaskHalf,
}

/// One half of [`CpgCache`]: the *candidates* of every line of a band as a
/// dense graph — edge `(line, k)` weighted by the candidate's value, kept
/// in step per dirty cell — and each line's cached argmax over them.
#[derive(Debug, Default)]
pub(crate) struct ArgmaxHalf {
    candidates: IncrementalGraph,
    /// Per line, its heaviest candidate as `(index along the line, value)`,
    /// ties to the smallest index; current once [`ArgmaxHalf::refresh`] ran.
    pub(crate) best: Vec<Option<(usize, Value)>>,
    /// Lines with a candidate edge changed since their `best` was taken.
    stale: Vec<bool>,
    shake: Handshake,
}

impl ArgmaxHalf {
    /// Consume one flush: re-evaluate `candidate(line, k)` (band-local line,
    /// global index `k` along it; `Some(value)` iff the cell is a
    /// candidate) for the dirty cells — or, on a resync, for every cell of
    /// the band — and mark stale the lines whose candidates moved.
    // detlint: hot
    pub(crate) fn sync(
        &mut self,
        dirty: Dirty<impl Iterator<Item = (usize, usize)>>,
        candidate: impl Fn(usize, usize) -> Option<Value>,
    ) {
        let (lines, width) = (dirty.band.len(), dirty.width);
        if self.shake.step(&dirty.band, dirty.width, dirty.flush) {
            for (line, k) in dirty.cells {
                self.refresh_cell(line, k, candidate(line, k));
            }
        } else {
            self.candidates.reset(lines, width);
            self.best.clear();
            self.best.resize(lines, None);
            self.stale.clear();
            self.stale.resize(lines, false);
            for line in 0..lines {
                for k in 0..width {
                    self.refresh_cell(line, k, candidate(line, k));
                }
            }
        }
    }

    /// Bring edge `(line, k)` to `value`; the line goes stale only if the
    /// edge moved (a dirty queue often leaves its candidate as it was).
    // detlint: hot
    #[inline]
    fn refresh_cell(&mut self, line: usize, k: usize, value: Option<Value>) {
        if self.candidates.put(line, k, value) {
            self.stale[line] = true;
        }
    }

    /// Retake the argmax of every stale line — one scan over its set edges
    /// — and clear its staleness; the argmax of a line whose candidates
    /// did not move cannot have changed.
    // detlint: hot
    pub(crate) fn refresh(&mut self) {
        for (line, stale) in self.stale.iter_mut().enumerate() {
            if std::mem::take(stale) {
                self.best[line] = self.candidates.row_champion(line, None, |_, _| true);
            }
        }
    }
}

/// CPG's per-cell candidate graphs and per-port choices. The row half
/// holds edge `(i, j)` weighted `v(g_ij)` iff `j` is in input `i`'s set `J`
/// (`|Q_ij| > 0 ∧ (|C_ij| < B(C_ij) ∨ v(g_ij) > β·v(lc_ij))` — the β rule
/// reads `Q_ij` and `C_ij` only, so it is decided per cell) and syncs from
/// [`RowView::dirty_rows`]; `rows.best[i]` is the input-subphase choice of
/// input `i`. The column half holds the transposed edge `(j, i)` weighted
/// `v(gc_ij)` iff `C_ij` is non-empty (so a per-output scan is one
/// contiguous line) and syncs from [`ColView::dirty_cols`]; `cols.best[j]`
/// is the output-subphase candidate of output `j`. The rules themselves
/// live with the policy, and the output-side α threshold is *not* cached:
/// the policy evaluates it fresh per output each cycle.
#[derive(Debug, Default)]
pub(crate) struct CpgCache {
    pub(crate) rows: ArgmaxHalf,
    pub(crate) cols: ArgmaxHalf,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitgrid_cyclic_scan_wraps() {
        let mut g = BitGrid::default();
        g.reset(2, 70);
        g.set(0, 3, true);
        g.set(0, 68, true);
        assert_eq!(g.first_set_cyclic(0, 0), Some(3));
        assert_eq!(g.first_set_cyclic(0, 4), Some(68));
        assert_eq!(g.first_set_cyclic(0, 69), Some(3), "wraps past the end");
        assert_eq!(g.first_set_cyclic(1, 0), None, "rows are independent");
        g.set(0, 68, false);
        assert_eq!(g.first_set_cyclic(0, 4), Some(3), "wraps to the start");
    }

    #[test]
    fn bitgrid_scan_respects_start_within_word() {
        let mut g = BitGrid::default();
        g.reset(1, 8);
        g.set(0, 1, true);
        g.set(0, 5, true);
        assert_eq!(g.first_set_cyclic(0, 2), Some(5));
        assert_eq!(g.first_set_cyclic(0, 6), Some(1));
        assert_eq!(g.first_set_cyclic(0, 1), Some(1));
    }
}

//! Band-scoped views and the one incremental cache.
//!
//! All four policies derive their per-cycle decisions from queue state that
//! one slot barely changes: a slot dirties at most O(N·ŝ) of the N² VOQs.
//! Every policy keeps what it derives in one type, [`BandGraph`]: an
//! [`IncrementalGraph`] with an edge per cell the policy's rule admits —
//! GM and PG a VOQ head weighted `v(g_ij)`, CGU an eligible queue, CPG a
//! candidate weighted by its value — brought up to date from the engine's
//! change log ([`cioq_sim::ChangeLog`]) by re-reading only the dirtied
//! cells, which turns the per-cycle rebuild from O(N²) into O(changes).
//! No cache holds an order: PG's weighted greedy reads the head graph as
//! it stands ([`cioq_matching::greedy_weighted_rows_into`]).
//!
//! ## Bands
//!
//! Every band graph covers a *band*: a contiguous range of input rows
//! ([`dirty_rows`]) or, for the crossbar policies' output side, the columns
//! `0..M` ([`dirty_cols`]). Policies read one view type, [`SwitchView`]:
//! the engine's covers every row, and a partitioned scheduler's worker
//! reads it restricted to its shard's rows. GM runs the same code over
//! either, so a K-shard GM splits the per-cycle O(changes) repair K ways
//! and the whole switch is just K = 1. The switch keeps one change log
//! over global cells; [`dirty_rows`] keeps the band's own cells and
//! rebases them to its first row. PG and the crossbar policies always
//! read the whole switch, so PG's head graph covers every row and their
//! column graphs every column.
//!
//! ## The consistency handshake
//!
//! The engine flushes the change log after every scheduling call that
//! reads it — once per call, however many shards' workers read it within
//! the call — so the log a graph sees at call `k` holds exactly the queues
//! dirtied since its call `k − 1`, provided it consumed every previous
//! flush. Each band graph records the band it covers, the width of its
//! lines and the flush count it expects next ([`Handshake`]); on any
//! mismatch (first call, policy reused across runs, resized switch) it
//! rebuilds from scratch and reports every edge. Correctness therefore
//! never depends on the handshake — only the cost does. Under the
//! sequential engine, which flushes after *both* crossbar subphases, both
//! halves of a crossbar policy must be synced in both subphases.
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
use cioq_model::Value;
use cioq_sim::SwitchView;
use std::ops::Range;

/// One sync's worth of news for a band graph: the band of lines it covers
/// (rows or columns), the width of a line, the flush count of the log
/// behind it, and the `(band-local line, global index along it)` of every
/// cell dirtied since the previous flush.
pub(crate) struct Dirty<I> {
    pub(crate) band: Range<usize>,
    pub(crate) width: usize,
    pub(crate) flush: u64,
    pub(crate) cells: I,
}

/// What a row-side band graph consumes: the band of rows `view` answers
/// for (every row, or a shard's own once restricted), and every cell of
/// it with a dirtied `Q_ij` or `C_ij`, as `(band-local row, j)`. The log
/// covers every row, so the cells outside `rows.start·M .. rows.end·M` are
/// skipped: one compare on the rebased cell, before the division.
pub(crate) fn dirty_rows<'v>(
    view: &'v SwitchView<'_>,
) -> Dirty<impl Iterator<Item = (usize, usize)> + 'v> {
    let (m, log, rows) = (view.n_outputs(), view.changes(), view.input_range());
    let (first, len) = (rows.start * m, rows.len() * m);
    let cells = log.dirty_voqs().iter().chain(log.dirty_xbars());
    Dirty {
        band: rows,
        width: m,
        flush: log.flush_count(),
        cells: cells.filter_map(move |&cell| {
            let local = (cell as usize).wrapping_sub(first);
            (local < len).then(|| (local / m, local % m))
        }),
    }
}

/// What a column-side band graph consumes: the band `0..M` of columns
/// (lines of `N` crosspoints), and every cell with a dirtied `C_ij`, as
/// `(j, i)` — the view's one log marks every crosspoint of the switch.
pub(crate) fn dirty_cols<'v>(
    view: &'v SwitchView<'_>,
) -> Dirty<impl Iterator<Item = (usize, usize)> + 'v> {
    let (m, log) = (view.n_outputs(), view.changes());
    Dirty {
        band: 0..m,
        width: view.n_inputs(),
        flush: log.flush_count(),
        cells: log
            .dirty_xbars()
            .iter()
            .map(move |&cell| (cell as usize % m, cell as usize / m)),
    }
}

/// What a band graph last synced: the band it covers, the width of its
/// lines, and the flush count it expects to see next. The default (an empty
/// band awaiting flush 0) is in step only with an empty band of a fresh
/// engine — exactly what an empty graph mirrors.
#[derive(Debug, Default)]
struct Handshake {
    band: Range<usize>,
    width: usize,
    next_flush: u64,
}

impl Handshake {
    /// Record a sync of `band` (lines of `width` cells) against a log at
    /// `flush`. Returns whether the graph was in step — same band, and it
    /// consumed every flush up to this one; if not, the graph must rebuild
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

/// The one incremental cache: an [`IncrementalGraph`] over a band of lines
/// (band-local lines, global indices along them) — an edge per cell the
/// owning policy's rule admits — plus the [`Handshake`] that says whether
/// the graph is in step with the log it syncs from.
#[derive(Debug, Default)]
pub(crate) struct BandGraph {
    pub(crate) graph: IncrementalGraph,
    shake: Handshake,
}

impl BandGraph {
    /// Bring the graph up to date with the band: re-read `cell(line, k)`
    /// (`Some(weight)` iff the cell is an edge) for every dirty cell — or,
    /// out of step, for every cell of the band, into a graph emptied first
    /// — and hand every edge that moved to `moved` as `(line, k, new weight
    /// or None once removed)`. A rebuild therefore reports every edge, in
    /// row-major order. Returns whether the sync was such a rebuild.
    // detlint: hot
    pub(crate) fn sync(
        &mut self,
        dirty: Dirty<impl Iterator<Item = (usize, usize)>>,
        cell: impl Fn(usize, usize) -> Option<Value>,
        mut moved: impl FnMut(usize, usize, Option<Value>),
    ) -> bool {
        let (lines, width) = (dirty.band.len(), dirty.width);
        let in_step = self.shake.step(&dirty.band, width, dirty.flush);
        if !in_step {
            self.graph.reset(lines, width);
        }
        let mut put = |line, k| {
            let edge = cell(line, k);
            if self.graph.put(line, k, edge) {
                moved(line, k, edge);
            }
        };
        if in_step {
            dirty.cells.for_each(|(line, k)| put(line, k));
        } else {
            (0..lines).for_each(|line| (0..width).for_each(|k| put(line, k)));
        }
        !in_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{Packet, PacketId, PortId};
    use cioq_sim::SortedQueue;

    /// `table[line][k]`: the edge cell `(line, k)` should be.
    type Table = Vec<Vec<Option<Value>>>;
    type Moves = Vec<(usize, usize, Option<Value>)>;

    /// A sync of `graph` over a `table` of cells (`table[line][k]`, the edge
    /// each cell should be) covering `band`, at log flush `flush`, with
    /// `dirty` cells: whether it rebuilt, and what it reported moved.
    fn sync(
        graph: &mut BandGraph,
        table: &[Vec<Option<Value>>],
        band: Range<usize>,
        flush: u64,
        dirty: &[(usize, usize)],
    ) -> (bool, Moves) {
        let mut moves = Vec::new();
        let news = Dirty {
            band,
            width: table.first().map_or(0, Vec::len),
            flush,
            cells: dirty.iter().copied(),
        };
        let rebuilt = graph.sync(news, |l, k| table[l][k], |l, k, w| moves.push((l, k, w)));
        (rebuilt, moves)
    }

    /// Every edge of `table`, in row-major order, as a rebuild reports it.
    fn every_edge(table: &[Vec<Option<Value>>]) -> Moves {
        let cells = table.iter().enumerate().flat_map(|(l, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(k, &w)| w.map(|w| (l, k, Some(w))))
        });
        cells.collect()
    }

    /// Two rows of 70: the second row starts mid-word.
    fn table() -> Table {
        let mut t = vec![vec![None; 70]; 2];
        for (l, k, w) in [(0, 3, 5), (0, 64, 1), (1, 0, 0), (1, 69, 9)] {
            t[l][k] = Some(w);
        }
        t
    }

    #[test]
    fn the_first_sync_rebuilds_and_reports_every_edge_in_row_major_order() {
        let (t, mut g) = (table(), BandGraph::default());
        let (rebuilt, moves) = sync(&mut g, &t, 4..6, 0, &[]);
        assert!(rebuilt);
        assert_eq!(moves, every_edge(&t));
        assert_eq!(moves[2], (1, 0, Some(0)), "a zero weight is an edge");
        assert_eq!(g.graph.n_edges(), 4);
    }

    #[test]
    fn an_in_step_sync_reports_exactly_the_moved_cells() {
        let (mut t, mut g) = (table(), BandGraph::default());
        sync(&mut g, &t, 4..6, 0, &[]);
        // Three cells marked dirty: one removed, one reweighted, one as it
        // was (a queue that moved without its edge moving).
        t[0][3] = None;
        t[1][69] = Some(2);
        let (rebuilt, moves) = sync(&mut g, &t, 4..6, 1, &[(1, 69), (0, 64), (0, 3)]);
        assert!(!rebuilt);
        assert_eq!(moves, vec![(1, 69, Some(2)), (0, 3, None)]);
        // A change no dirty cell names stays unseen until one does.
        t[1][5] = Some(4);
        assert_eq!(sync(&mut g, &t, 4..6, 2, &[]), (false, vec![]));
        assert_eq!(g.graph.weight(1, 5), None);
        assert_eq!(
            sync(&mut g, &t, 4..6, 3, &[(1, 5)]).1,
            vec![(1, 5, Some(4))]
        );
    }

    #[test]
    fn an_arrival_below_the_head_reports_nothing() {
        let queue = |values: &[Value]| {
            let mut q = SortedQueue::new(4);
            for (id, &v) in values.iter().enumerate() {
                let p = Packet::new(PacketId(id as u64), v, 0, PortId(0), PortId(0));
                q.insert(p).unwrap();
            }
            q
        };
        let mut row = vec![queue(&[7]), queue(&[])];
        let mut g = BandGraph::default();
        let mut heads = |row: &[SortedQueue], flush, dirty: &[(usize, usize)]| {
            let news = Dirty {
                band: 0..1,
                width: 2,
                flush,
                cells: dirty.iter().copied(),
            };
            let mut moves = Vec::new();
            g.sync(
                news,
                |_, k| row[k].head_value(),
                |l, k, w| moves.push((l, k, w)),
            );
            moves
        };
        assert_eq!(heads(&row, 0, &[]), vec![(0, 0, Some(7))]);
        row[0] = queue(&[7, 3]);
        assert_eq!(heads(&row, 1, &[(0, 0)]), vec![], "3 sits below the head");
        row[0] = queue(&[7, 9]);
        assert_eq!(heads(&row, 2, &[(0, 0)]), vec![(0, 0, Some(9))]);
    }

    #[test]
    fn a_band_width_or_flush_mismatch_rebuilds() {
        let t = table();
        let narrow: Table = t.iter().map(|r| r[..64].to_vec()).collect();
        let cases: [(&Table, Range<usize>, u64, &str); 3] = [
            (&t, 5..7, 1, "another band"),
            (&narrow, 4..6, 1, "another width"),
            (&t, 4..6, 2, "a skipped flush"),
        ];
        for (table, band, flush, why) in cases {
            let mut g = BandGraph::default();
            let mut stale = t.clone();
            stale[0][3] = Some(8);
            stale[1][1] = Some(6);
            sync(&mut g, &stale, 4..6, 0, &[]);
            let (rebuilt, moves) = sync(&mut g, table, band.clone(), flush, &[(0, 3)]);
            assert!(rebuilt, "{why}");
            assert_eq!(
                moves,
                every_edge(table),
                "{why}: every edge, none left over"
            );
            assert_eq!(g.graph.n_edges(), moves.len(), "{why}");
            let (rebuilt, _) = sync(&mut g, table, band, flush + 1, &[]);
            assert!(!rebuilt, "{why}: in step again from there");
        }
    }
}

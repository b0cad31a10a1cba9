//! Switch state: the queues of one switch instance, plus the read-only view
//! handed to policies.
//!
//! The paper's model has one set of queues — `Q_ij`, `C_ij`, `Q_j` — and so
//! does this crate: [`QueueBand`]. What differs per engine lives outside
//! it: the slot loop, the fabric between bands, the fault layer, how a
//! policy error travels. What policies read of the output side is one
//! [`OutputSnapshot`] in both engines.

use crate::changes::ChangeLog;
use crate::mechanics;
use crate::policy::{Admission, InputTransfer, OutputTransfer, PacketPick, PolicyError, Transfer};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::stats::StatsRecorder;
use crate::transport::{DelayCalendar, InFlightPacket, OutputSnapshot};
use cioq_model::{ConfigError, FabricKind, Packet, PortId, SlotId, SwitchConfig, Value};
use cioq_queues::{QueueMut, QueueRef, QueueStore};
use std::ops::Range;

/// Which family of queues a reference points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// An input queue `Q_ij`.
    Input,
    /// A crossbar queue `C_ij` (buffered crossbar only).
    Crossbar,
    /// An output queue `Q_j`.
    Output,
}

impl QueueKind {
    /// The family's name as [`PolicyError`](crate::PolicyError)s spell it.
    pub(crate) fn label(self) -> &'static str {
        match self {
            QueueKind::Input => "input",
            QueueKind::Crossbar => "crossbar",
            QueueKind::Output => "output",
        }
    }
}

/// One band of the switch's queues: `Q_ij` (and `C_ij` on a buffered
/// crossbar) for a contiguous range of input rows × all M columns, `Q_j`
/// for a contiguous range of outputs, and the [`ChangeLog`] over the band's
/// own cells. Ports are **global** everywhere in the API; the cells of the
/// stores and the log are band-local, `(i − lo)·M + j` for `Q_ij` / `C_ij`
/// and `j − out_lo` for `Q_j`, so K bands together hold one switch's worth.
///
/// Each queue class is one [`QueueStore`]: one packet slab reserved at
/// construction and recycled through a free list, so no queue allocates
/// after the band is built and the slab's live part stays as small as the
/// class's occupancy.
///
/// This is where the two engines meet: [`SwitchState`] holds the band
/// `0..N` / `0..M`, each shard of the sharded engine the band its
/// [`Partition`](crate::shard::Partition) cuts, and every rule that puts a
/// packet into or takes one out of a queue — wrapped around the
/// [`mechanics`] call that applies it — is a method here, written once.
#[derive(Debug, Clone)]
pub(crate) struct QueueBand {
    /// `Q_ij` for the band's input rows, row-major. snapshot: serialized
    voq: QueueStore,
    /// `C_ij` for the same rows (buffered crossbar only).
    /// snapshot: serialized
    xbar: Option<QueueStore>,
    /// `Q_j` for the band's outputs, cell `j − out_lo`.
    /// snapshot: serialized
    outputs: QueueStore,
    /// First input row of the band. snapshot: transient — geometry, fixed
    /// at construction from the config (and the partition, when sharded).
    lo: usize,
    /// Number of outputs `M`, the width of a row. snapshot: transient —
    /// geometry, from the config.
    m: usize,
    /// First output of the band. snapshot: transient — geometry, fixed at
    /// construction from the config (and the partition, when sharded).
    out_lo: usize,
    /// Queues dirtied since the last flush. snapshot: transient — a
    /// restored run uses fresh policies, whose caches full-rebuild on the
    /// flush-counter mismatch (the deterministic rebuild seam), so dirty
    /// sets need not survive.
    changes: ChangeLog,
}

impl QueueBand {
    /// The empty band of input rows `rows` and outputs `cols` of a switch
    /// in configuration `cfg`. Panics if its stores cannot be reserved;
    /// see [`QueueBand::try_new`].
    pub(crate) fn new(cfg: &SwitchConfig, rows: Range<usize>, cols: Range<usize>) -> Self {
        Self::try_new(cfg, rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The empty band of input rows `rows` and outputs `cols`, or the
    /// [`ConfigError::QueueReserve`] of the first store the host could not
    /// reserve.
    pub(crate) fn try_new(
        cfg: &SwitchConfig,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Result<Self, ConfigError> {
        let m = cfg.n_outputs;
        let store = |kind, cells: usize, capacity: usize| {
            QueueStore::try_new(cells, capacity).map_err(|_| ConfigError::QueueReserve {
                kind,
                slots: cells.saturating_mul(capacity),
            })
        };
        let cells = rows.len() * m;
        Ok(QueueBand {
            voq: store("input", cells, cfg.input_capacity)?,
            xbar: cfg
                .crossbar_capacity
                .map(|b| store("crossbar", cells, b))
                .transpose()?,
            outputs: store("output", cols.len(), cfg.output_capacity)?,
            lo: rows.start,
            m,
            out_lo: cols.start,
            changes: ChangeLog::new(rows.len(), m, cfg.crossbar_capacity.is_some()),
        })
    }

    /// The global input rows of the band.
    #[inline]
    pub(crate) fn rows(&self) -> Range<usize> {
        self.lo..self.lo + self.voq.cells() / self.m
    }

    /// The global outputs of the band.
    #[inline]
    pub(crate) fn cols(&self) -> Range<usize> {
        self.out_lo..self.out_lo + self.outputs.cells()
    }

    /// Input queue `Q_ij`, `i` a row of the band.
    #[inline]
    pub(crate) fn voq(&self, input: PortId, output: PortId) -> QueueRef<'_> {
        self.voq.get(self.cell(input, output))
    }

    /// Crossbar queue `C_ij`, `i` a row of the band; panics on a plain CIOQ
    /// switch (policies for the wrong fabric are a programming error,
    /// caught loudly).
    #[inline]
    pub(crate) fn xbar(&self, input: PortId, output: PortId) -> QueueRef<'_> {
        self.xbar
            .as_ref()
            .expect("crossbar queue requested on a CIOQ switch")
            .get(self.cell(input, output))
    }

    /// Output queue `Q_j`, `j` an output of the band.
    #[inline]
    pub(crate) fn output(&self, output: PortId) -> QueueRef<'_> {
        self.outputs.get(self.out_cell(output))
    }

    /// The band's change log.
    #[inline]
    pub(crate) fn changes(&self) -> &ChangeLog {
        &self.changes
    }

    /// Clear the change log: the scheduling call that read it has returned.
    #[inline]
    pub(crate) fn flush(&mut self) {
        self.changes.flush();
    }

    /// The band-local cell of `(i, j)`.
    #[inline]
    fn cell(&self, input: PortId, output: PortId) -> usize {
        debug_assert!(self.rows().contains(&input.index()), "row outside band");
        debug_assert!(output.index() < self.m);
        (input.index() - self.lo) * self.m + output.index()
    }

    /// The band-local cell of `Q_j`.
    #[inline]
    fn out_cell(&self, output: PortId) -> usize {
        debug_assert!(self.cols().contains(&output.index()), "output outside band");
        output.index() - self.out_lo
    }

    #[inline]
    fn xbar_mut(&mut self, cell: usize) -> QueueMut<'_> {
        self.xbar
            .as_mut()
            .expect("invariant: crossbar queues exist, asserted at run entry")
            .get_mut(cell)
    }

    /// Every store of the band: `Q_ij`, then `C_ij`, then `Q_j`.
    fn stores(&self) -> impl Iterator<Item = &QueueStore> {
        std::iter::once(&self.voq)
            .chain(&self.xbar)
            .chain([&self.outputs])
    }

    /// Packets buffered in the band's queues — each store's live slots,
    /// O(1), so the drain loop's per-slot "anything left?" never walks a
    /// queue.
    pub(crate) fn residual_count(&self) -> u64 {
        self.stores().map(|s| s.live() as u64).sum()
    }

    /// Value buffered in the band's queues.
    pub(crate) fn residual_value(&self) -> u128 {
        self.stores().map(QueueStore::total_value).sum()
    }

    // The per-packet rules from here to `transmit` are `#[inline(always)]`:
    // each has one call site per engine, and left to the inliner's
    // heuristic they were outlined from the sequential slot loop — row 4 of
    // the benchmark (`xbar_cpg_bursty`) read 36.9 k slots/s against the
    // parent's 39.2 k, and 39.2 k with the attribute.

    /// Arrival phase, one packet of a band row: apply the policy's
    /// `decision` to `Q_ij`.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn admit(
        &mut self,
        stats: &mut StatsRecorder,
        decision: Admission,
        p: &Packet,
    ) -> Result<(), PolicyError> {
        let cell = self.cell(p.input, p.output);
        if !matches!(decision, Admission::Reject) {
            self.changes.voq.mark(cell);
        }
        mechanics::admit(self.voq.get_mut(cell), stats, decision, p)
    }

    /// Pop the packet a transfer designates out of its source queue —
    /// `Q_ij` ([`QueueKind::Input`]) or `C_ij` ([`QueueKind::Crossbar`]) —
    /// as it enters the next hop.
    // detlint: hot
    #[inline(always)]
    fn pop(
        &mut self,
        kind: QueueKind,
        (input, output): (PortId, PortId),
        pick: PacketPick,
        preempt: bool,
    ) -> Result<InFlightPacket, PolicyError> {
        let cell = self.cell(input, output);
        let queue = match kind {
            QueueKind::Crossbar => {
                self.changes.xbar.mark(cell);
                self.xbar_mut(cell)
            }
            _ => {
                self.changes.voq.mark(cell);
                self.voq.get_mut(cell)
            }
        };
        let packet = mechanics::pop(queue, pick, kind, Some(input), output)?;
        Ok(InFlightPacket::new(input, output, preempt, packet))
    }

    /// A CIOQ transfer's first half: its packet out of `Q_ij`, toward the
    /// fabric.
    #[inline(always)]
    pub(crate) fn pop_transfer(&mut self, t: &Transfer) -> Result<InFlightPacket, PolicyError> {
        let pair = (t.input, t.output);
        self.pop(QueueKind::Input, pair, t.pick, t.preempt_if_full)
    }

    /// A crossbar output subphase's first half: its packet out of `C_ij`,
    /// toward the fabric.
    #[inline(always)]
    pub(crate) fn pop_output_transfer(
        &mut self,
        t: &OutputTransfer,
    ) -> Result<InFlightPacket, PolicyError> {
        let pair = (t.input, t.output);
        self.pop(QueueKind::Crossbar, pair, t.pick, t.preempt_if_full)
    }

    /// A crossbar input subphase's move `Q_ij → C_ij`.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn move_to_xbar(
        &mut self,
        stats: &mut StatsRecorder,
        faulted: bool,
        t: &InputTransfer,
    ) -> Result<(), PolicyError> {
        let pair = (t.input, t.output);
        let p = self.pop(QueueKind::Input, pair, t.pick, t.preempt_if_full)?;
        let cell = self.cell(t.input, t.output);
        self.changes.xbar.mark(cell);
        mechanics::land(self.xbar_mut(cell), stats, QueueKind::Crossbar, faulted, p)
    }

    /// Insert a packet that has crossed the fabric into `Q_j` — the single
    /// landing site of the immediate path and the delay line.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn deliver(
        &mut self,
        stats: &mut StatsRecorder,
        faulted: bool,
        p: InFlightPacket,
    ) -> Result<(), PolicyError> {
        let queue = self.outputs.get_mut(p.output as usize - self.out_lo);
        mechanics::land(queue, stats, QueueKind::Output, faulted, p)
    }

    /// Transmission phase, one output of the band: send the packet `pick`
    /// designates out of `Q_j`.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn transmit(
        &mut self,
        stats: &mut StatsRecorder,
        slot: SlotId,
        output: PortId,
        pick: PacketPick,
    ) -> Result<(), PolicyError> {
        let queue = self.outputs.get_mut(output.index() - self.out_lo);
        let packet = mechanics::pop(queue, pick, QueueKind::Output, None, output)?;
        stats.on_transmit(&packet, slot, output.index());
        Ok(())
    }

    /// Append the band's checkpoint cells — each queue's packets head
    /// first, as [`QueueRef::iter`] yields them — to `snap`'s queue lists.
    /// Bands visited in ascending order yield the checkpoint layout:
    /// row-major `Q_ij` / `C_ij` cells, ascending outputs.
    pub(crate) fn cells_out(&self, snap: &mut EngineSnapshot) {
        fn cells(s: &QueueStore) -> impl Iterator<Item = Vec<Packet>> + '_ {
            s.iter().map(|q| q.iter().copied().collect())
        }
        snap.input_queues.extend(cells(&self.voq));
        if let Some(xbar) = &self.xbar {
            let list = snap.crossbar_queues.get_or_insert_with(Vec::new);
            list.extend(cells(xbar));
        }
        snap.output_queues.extend(cells(&self.outputs));
    }

    /// Refill the (fresh) band from the cells of `snap` that lie in it. The
    /// caller has checked that `snap`'s queue layout is the switch's. Slots
    /// and handles are numbered afresh; only content crosses a checkpoint.
    pub(crate) fn refill(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        let (rows, cols) = (
            self.lo * self.m..self.lo * self.m + self.voq.cells(),
            self.cols(),
        );
        let mut filled = fill(&mut self.voq, 0, snap.input_queues[rows.clone()].iter());
        if let (Some(xbar), Some(cells)) = (&mut self.xbar, &snap.crossbar_queues) {
            filled &= fill(xbar, 0, cells[rows].iter());
        }
        filled &= fill(&mut self.outputs, 0, snap.output_queues[cols].iter());
        let msg = "serialized queue exceeds its capacity";
        filled
            .then_some(())
            .ok_or(SnapshotError::Format(msg.into()))
    }

    /// Put the packets of `part`'s cells into this (empty) band's same
    /// cells.
    fn copy_in(&mut self, part: &QueueBand) {
        let at = (part.lo - self.lo) * self.m;
        let mut filled = fill(&mut self.voq, at, part.voq.iter().map(|q| q.iter()));
        if let (Some(whole), Some(xbar)) = (&mut self.xbar, &part.xbar) {
            filled &= fill(whole, at, xbar.iter().map(|q| q.iter()));
        }
        let at = part.out_lo - self.out_lo;
        filled &= fill(&mut self.outputs, at, part.outputs.iter().map(|q| q.iter()));
        assert!(filled, "a band's queues fit the switch's");
    }

    /// Verify every store of the band: each queue within capacity and
    /// correctly sorted (value descending, id ascending — assumption A3),
    /// and each slab conserved. Returns a description of the first
    /// violation.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let named = [("input", Some(&self.voq)), ("crossbar", self.xbar.as_ref())];
        for (kind, store) in named.into_iter().filter_map(|(k, s)| Some((k, s?))) {
            store.check_invariants().map_err(|e| {
                format!(
                    "{kind} queues of rows {:?} (cells row-major): {e}",
                    self.rows()
                )
            })?;
        }
        let cols = self.cols();
        self.outputs
            .check_invariants()
            .map_err(|e| format!("output queues {cols:?}: {e}"))
    }
}

/// Insert each of `cells`' packets into the cell of `store` it lines up
/// with, from cell `at` on, in order; whether every packet fit.
fn fill<'p, C: IntoIterator<Item = &'p Packet>>(
    store: &mut QueueStore,
    at: usize,
    cells: impl Iterator<Item = C>,
) -> bool {
    cells.enumerate().all(|(c, cell)| {
        let mut queue = store.get_mut(at + c);
        cell.into_iter().all(|p| queue.insert(*p).is_ok())
    })
}

/// The complete mutable state of one simulated switch: the band `0..N` /
/// `0..M` of its queues plus what only a whole switch has — the
/// configuration, the slot clock and the output snapshot its policies read.
#[derive(Debug, Clone)]
pub struct SwitchState {
    /// Switch geometry and capacities. snapshot: serialized
    config: SwitchConfig,
    /// Every queue of the switch. snapshot: serialized
    pub(crate) band: QueueBand,
    /// Current slot (advanced by the engine). snapshot: serialized
    pub(crate) slot: SlotId,
    /// The virtual output occupancy policies schedule against, refreshed by
    /// the engine at the top of every scheduling cycle. snapshot: transient
    /// — recomputed every cycle from the queues and the delay line.
    pub(crate) outputs: OutputSnapshot,
}

impl SwitchState {
    /// Fresh, empty switch in the given configuration. Panics if its
    /// queue stores cannot be reserved.
    pub fn new(config: SwitchConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fresh, empty switch in the given configuration, or the
    /// [`ConfigError::QueueReserve`] of a queue store the host could not
    /// reserve.
    pub(crate) fn try_new(config: SwitchConfig) -> Result<Self, ConfigError> {
        let band = QueueBand::try_new(&config, 0..config.n_inputs, 0..config.n_outputs)?;
        let mut outputs = OutputSnapshot::default();
        let empty = DelayCalendar::with_reserve(0, 0);
        outputs.refresh(config.n_outputs, &empty, None, |visit| visit(&band));
        Ok(SwitchState {
            config,
            band,
            slot: 0,
            outputs,
        })
    }

    /// The switch at `slot` whose queues are `bands`' — disjoint bands that
    /// together cover it.
    pub(crate) fn assemble<'a>(
        config: SwitchConfig,
        slot: SlotId,
        bands: impl IntoIterator<Item = &'a QueueBand>,
    ) -> Self {
        let mut state = SwitchState::new(config);
        state.slot = slot;
        for part in bands {
            state.band.copy_in(part);
        }
        state
    }

    /// The switch configuration.
    #[inline]
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The fabric architecture.
    #[inline]
    pub fn fabric(&self) -> FabricKind {
        self.config.fabric()
    }

    /// Current slot.
    #[inline]
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// Read-only view for policies: the band `0..N` / `0..M`.
    #[inline]
    pub fn view(&self) -> SwitchView<'_> {
        SwitchView::new(&self.config, &self.band, &self.outputs, self.slot, 0)
    }
}

/// Read-only window onto one band of a switch's queues, the only thing
/// policies see — in both engines. The sequential engine's view
/// ([`SwitchState::view`]) is the band `0..N` / `0..M` of the whole switch;
/// a shard's view in the sharded engine is the band its
/// [`Partition`](crate::shard::Partition) cuts. Either answers for its own
/// input rows ([`SwitchView::input_range`]) and its own output columns and
/// panics elsewhere — asking another band's queue is a programming error,
/// caught loudly, never another band's answer.
///
/// Everything an online algorithm may legally inspect — current queue
/// contents and capacities — is available; nothing about future arrivals
/// is. [`SwitchView::changes`] additionally exposes which of the band's
/// queues were dirtied since the policy's last scheduling call, so
/// incremental policies can refresh O(changes) state instead of
/// rescanning. Admission reads the landed queues; scheduling reads the
/// output side through [`SwitchView::outputs`].
#[derive(Clone, Copy)]
pub struct SwitchView<'a> {
    config: &'a SwitchConfig,
    band: &'a QueueBand,
    outputs: &'a OutputSnapshot,
    slot: SlotId,
    shard: usize,
}

impl<'a> SwitchView<'a> {
    /// The view of `band` at `slot`, for shard `shard`, scheduling against
    /// `outputs`.
    #[inline]
    pub(crate) fn new(
        config: &'a SwitchConfig,
        band: &'a QueueBand,
        outputs: &'a OutputSnapshot,
        slot: SlotId,
        shard: usize,
    ) -> Self {
        SwitchView {
            config,
            band,
            outputs,
            slot,
            shard,
        }
    }

    /// The switch configuration.
    #[inline]
    pub fn config(&self) -> &'a SwitchConfig {
        self.config
    }

    /// Number of input ports `N`.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.config.n_inputs
    }

    /// Number of output ports `M`.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.config.n_outputs
    }

    /// Current slot.
    #[inline]
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// The shard whose band this is: 0 under the sequential engine.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The global input rows of the band: `0..N` under the sequential
    /// engine, the shard's own rows under the sharded one.
    #[inline]
    pub fn input_range(&self) -> Range<usize> {
        self.band.rows()
    }

    /// Input queue `Q_ij`, `i` a row of the band.
    #[inline]
    pub fn input_queue(&self, input: PortId, output: PortId) -> QueueRef<'a> {
        self.band.voq(input, output)
    }

    /// Crossbar queue `C_ij`, `i` a row of the band; panics if the switch
    /// is a plain CIOQ (policies for the wrong fabric are a programming
    /// error, caught loudly).
    #[inline]
    pub fn crossbar_queue(&self, input: PortId, output: PortId) -> QueueRef<'a> {
        self.band.xbar(input, output)
    }

    /// Whether this switch has crossbar buffers.
    #[inline]
    pub fn has_crossbar(&self) -> bool {
        self.config.crossbar_capacity.is_some()
    }

    /// Output queue `Q_j`, `j` an output of the band — the *landed*
    /// packets only. On a delayed fabric this is what admission and
    /// transmission see; scheduling eligibility must use
    /// [`SwitchView::outputs`] (or [`SwitchView::output_full`] /
    /// [`SwitchView::output_tail_value`]), which also count packets in
    /// flight.
    #[inline]
    pub fn output_queue(&self, output: PortId) -> QueueRef<'a> {
        self.band.output(output)
    }

    /// The output side as a scheduler must see it — the virtual occupancy
    /// of every output, landed packets plus packets in flight toward it.
    /// Exact during scheduling calls: each engine refreshes it at the top
    /// of every scheduling cycle, and nothing in a cycle moves an output
    /// before its policy call returns. Admission and transmission read the
    /// landed queues instead.
    #[inline]
    pub fn outputs(&self) -> &'a OutputSnapshot {
        self.outputs
    }

    /// Whether output `j` is full *as a scheduler must see it*: landed
    /// occupancy plus packets in flight through the fabric toward `j`.
    /// Identical to `output_queue(j).is_full()` on an immediate fabric.
    /// Read off [`SwitchView::outputs`], so exact during scheduling calls
    /// only.
    #[inline]
    pub fn output_full(&self, output: PortId) -> bool {
        self.outputs.full[output.index()]
    }

    /// Least value of the virtual output queue `j` (an output of the band)
    /// — the landed tail `v(l_j)` or the least value in flight toward `j`,
    /// whichever is smaller. `None` when the virtual queue is empty. This
    /// is the tail the preemption thresholds (PG's β, CPG's α) compare
    /// against. Exact during scheduling calls only, like
    /// [`SwitchView::output_full`].
    #[inline]
    pub fn output_tail_value(&self, output: PortId) -> Option<Value> {
        let j = output.index();
        self.outputs.tail_value(j, self.band.output(output))
    }

    /// The band's queues dirtied since the engine's last scheduling call,
    /// over band-local cells `(i − input_range().start)·M + j`, plus the
    /// flush counter incremental policies use as a consistency handshake.
    #[inline]
    pub fn changes(&self) -> &'a ChangeLog {
        self.band.changes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunOptions};
    use crate::fault::{FaultPlan, FaultRuntime};
    use crate::shard::Partition;
    use cioq_model::PacketId;

    fn packet(id: u64, value: Value, input: usize, output: usize) -> Packet {
        let (input, output) = (PortId::from(input), PortId::from(output));
        Packet::new(PacketId(id), value, 0, input, output)
    }

    /// A 5 × 7 buffered crossbar: non-square, so a row/column mix-up shows.
    fn wide_crossbar() -> SwitchConfig {
        SwitchConfig::builder(5, 7)
            .input_capacity(2)
            .output_capacity(2)
            .crossbar_capacity(1)
            .build()
            .expect("valid config")
    }

    /// The checkpoint cells of `bands`, visited in order, in an otherwise
    /// empty snapshot of a `cfg` switch.
    fn cells<'a>(
        cfg: &SwitchConfig,
        bands: impl IntoIterator<Item = &'a QueueBand>,
    ) -> EngineSnapshot {
        let mut snap = Engine::new(cfg.clone(), RunOptions::default()).snapshot();
        snap.input_queues.clear();
        snap.crossbar_queues = None;
        snap.output_queues.clear();
        for band in bands {
            band.cells_out(&mut snap);
        }
        snap
    }

    /// Put packets in all three queue families of the band owning each
    /// port, through the band's own rules.
    fn fill(bands: &mut [QueueBand], stats: &mut StatsRecorder) {
        let owner = |bands: &[QueueBand], i: usize| {
            let owns = |b: &QueueBand| b.rows().contains(&i);
            bands.iter().position(owns).expect("bands cover every row")
        };
        for (id, (i, j)) in [(0, 0), (1, 3), (2, 6), (4, 1), (4, 6), (2, 6)]
            .into_iter()
            .enumerate()
        {
            let p = packet(id as u64, 10 + id as Value, i, j);
            let band = &mut bands[owner(bands, i)];
            band.admit(stats, Admission::Accept, &p).unwrap();
        }
        let t = InputTransfer {
            input: PortId(4),
            output: PortId(6),
            pick: PacketPick::Greatest,
            preempt_if_full: false,
        };
        bands[owner(bands, 4)]
            .move_to_xbar(stats, false, &t)
            .unwrap();
        for (id, j) in [(20, 0), (21, 4), (22, 6), (23, 6)] {
            let landing =
                InFlightPacket::new(PortId(0), PortId::from(j), false, packet(id, 7, 0, j));
            let owns = |b: &&mut QueueBand| b.cols().contains(&j);
            let band = bands
                .iter_mut()
                .find(owns)
                .expect("bands cover every output");
            band.deliver(stats, false, landing).unwrap();
        }
    }

    #[test]
    fn fresh_state_is_empty() {
        let st = SwitchState::new(SwitchConfig::cioq(3, 4, 2));
        assert_eq!(st.band.residual_count(), 0);
        assert_eq!(st.band.residual_value(), 0);
        assert_eq!(st.slot(), 0);
        let v = st.view();
        assert_eq!(v.n_inputs(), 3);
        assert_eq!(v.n_outputs(), 3);
        assert!(!v.has_crossbar());
        assert!(v.input_queue(PortId(2), PortId(1)).is_empty());
        assert!(v.output_queue(PortId(0)).is_empty());
    }

    #[test]
    fn crossbar_state_has_crosspoint_queues() {
        let st = SwitchState::new(SwitchConfig::crossbar(2, 4, 1, 1));
        let v = st.view();
        assert!(v.has_crossbar());
        assert_eq!(v.crossbar_queue(PortId(1), PortId(0)).capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "crossbar queue requested")]
    fn crossbar_access_on_cioq_panics() {
        let st = SwitchState::new(SwitchConfig::cioq(2, 4, 1));
        let _ = st.view().crossbar_queue(PortId(0), PortId(0));
    }

    #[test]
    fn residuals_track_queue_contents() {
        let mut st = SwitchState::new(SwitchConfig::cioq(2, 4, 1));
        let mut stats = StatsRecorder::new(2);
        let arrival = packet(1, 5, 0, 1);
        st.band
            .admit(&mut stats, Admission::Accept, &arrival)
            .unwrap();
        let landing = InFlightPacket::new(PortId(0), PortId(1), false, packet(2, 3, 0, 1));
        st.band.deliver(&mut stats, false, landing).unwrap();
        assert_eq!(st.band.residual_count(), 2);
        assert_eq!(st.band.residual_value(), 8);
    }

    #[test]
    fn band_takes_global_ports_and_marks_local_cells() {
        let cfg = wide_crossbar();
        let mut band = QueueBand::new(&cfg, 3..5, 2..4);
        let mut stats = StatsRecorder::new(cfg.n_outputs);
        assert_eq!((band.rows(), band.cols()), (3..5, 2..4));

        let p = packet(0, 9, 4, 1);
        band.admit(&mut stats, Admission::Accept, &p).unwrap();
        assert_eq!(band.voq(PortId(4), PortId(1)).len(), 1);
        // Row 4 is the band's second row: local cell (4 − 3)·7 + 1.
        assert_eq!(band.changes().dirty_voqs(), &[8]);
        assert!(band.changes().dirty_xbars().is_empty());
        band.flush();

        let t = InputTransfer {
            input: PortId(4),
            output: PortId(1),
            pick: PacketPick::Greatest,
            preempt_if_full: false,
        };
        band.move_to_xbar(&mut stats, false, &t).unwrap();
        assert!(band.voq(PortId(4), PortId(1)).is_empty());
        assert_eq!(band.xbar(PortId(4), PortId(1)).len(), 1);
        assert_eq!(band.changes().dirty_voqs(), &[8]);
        assert_eq!(band.changes().dirty_xbars(), &[8]);

        // Output 3 is the band's second output queue.
        let landing = InFlightPacket::new(PortId(0), PortId(3), false, packet(1, 4, 0, 3));
        band.deliver(&mut stats, false, landing).unwrap();
        assert_eq!(band.output(PortId(3)).len(), 1);
        assert!(band.output(PortId(2)).is_empty());
        assert_eq!((band.residual_count(), band.residual_value()), (2, 13));
        band.transmit(&mut stats, 0, PortId(3), PacketPick::Greatest)
            .unwrap();
        assert_eq!((band.residual_count(), band.residual_value()), (1, 9));
        assert_eq!(stats.per_output_transmitted[3], 1);
        assert_eq!(band.check_invariants(), Ok(()));
    }

    #[test]
    fn cells_round_trip_and_an_overfull_cell_is_the_restore_error() {
        let cfg = wide_crossbar();
        let mut stats = StatsRecorder::new(cfg.n_outputs);
        let mut whole = [QueueBand::new(&cfg, 0..5, 0..7)];
        fill(&mut whole, &mut stats);
        let mut snap = cells(&cfg, &whole);

        // A band refilled from the whole switch's cells holds its share.
        let mut part = QueueBand::new(&cfg, 1..3, 4..7);
        part.refill(&snap).unwrap();
        assert_eq!(part.voq(PortId(1), PortId(3)).len(), 1);
        assert_eq!(part.voq(PortId(2), PortId(6)).len(), 2);
        assert_eq!(part.output(PortId(6)).len(), 2);
        assert_eq!(part.residual_count(), 6);
        assert_eq!(part.residual_value(), 11 + 12 + 15 + 3 * 7);
        let mut again = QueueBand::new(&cfg, 0..5, 0..7);
        again.refill(&snap).unwrap();
        assert_eq!(cells(&cfg, [&again]), snap);

        // One packet too many in `Q_26` (capacity 2).
        snap.input_queues[2 * 7 + 6].push(packet(99, 1, 2, 6));
        let band_err = QueueBand::new(&cfg, 1..3, 4..7).refill(&snap).unwrap_err();
        assert_eq!(
            band_err.to_string(),
            "malformed snapshot: serialized queue exceeds its capacity"
        );
        let engine_err = Engine::restore(&snap, RunOptions::default())
            .err()
            .expect("restore refuses the same cell");
        assert_eq!(engine_err.to_string(), band_err.to_string());
        // The cell lies outside this band, which therefore never reads it.
        assert_eq!(QueueBand::new(&cfg, 3..5, 0..2).refill(&snap), Ok(()));
    }

    #[test]
    fn partition_bands_concatenate_to_the_whole_band() {
        let cfg = wide_crossbar();
        let mut whole = [QueueBand::new(&cfg, 0..5, 0..7)];
        fill(&mut whole, &mut StatsRecorder::new(cfg.n_outputs));
        let expected = cells(&cfg, &whole);
        for k in 1..=3 {
            let partition = Partition::new(k, 5, 7);
            let mut bands: Vec<QueueBand> = (0..k)
                .map(|s| QueueBand::new(&cfg, partition.input_range(s), partition.output_range(s)))
                .collect();
            fill(&mut bands, &mut StatsRecorder::new(cfg.n_outputs));
            // Walked in shard order the bands' cells are the checkpoint
            // layout, and assembled they are the whole switch.
            assert_eq!(cells(&cfg, &bands), expected, "K = {k}");
            let state = SwitchState::assemble(cfg.clone(), 9, &bands);
            assert_eq!(state.slot(), 9);
            assert_eq!(cells(&cfg, [&state.band]), expected, "K = {k}");
            assert_eq!(state.band.residual_count(), whole[0].residual_count());
        }
    }

    /// A 3 × 70 switch with room for two packets per output: the outputs
    /// straddle a 64-bit word of `full_words`.
    fn straddling() -> SwitchConfig {
        SwitchConfig::builder(3, 70)
            .output_capacity(2)
            .build()
            .expect("valid config")
    }

    #[test]
    fn a_fresh_switch_answers_for_every_output() {
        let st = SwitchState::new(straddling());
        let view = st.view();
        for j in (0..70).map(PortId::from) {
            assert!(!view.output_full(j));
            assert_eq!(view.output_tail_value(j), None);
        }
        assert_eq!(view.outputs().full_words, [0, 0]);
    }

    /// The one refresh: landed packets, the calendar and the fault layer's
    /// retransmit FIFOs all count toward an output's virtual queue.
    #[test]
    fn the_refresh_counts_landed_in_flight_and_held_packets() {
        let mut st = SwitchState::new(straddling());
        let mut stats = StatsRecorder::new(70);
        let wire = |id, value, j| {
            let j = PortId::from(j);
            InFlightPacket::new(PortId(0), j, false, packet(id, value, 0, j.index()))
        };
        // Landed: two packets at output 3, one each at 63 and 64.
        for (id, value, j) in [(0, 9, 3), (1, 5, 3), (2, 8, 63), (3, 7, 64)] {
            st.band
                .deliver(&mut stats, false, wire(id, value, j))
                .unwrap();
        }
        // In flight: one each toward 63 and 64 (below 64's landed tail) and
        // toward 69, where nothing has landed.
        let mut cal = DelayCalendar::with_reserve(2, 3);
        for (id, value, j) in [(4, 6, 63), (5, 2, 64), (6, 4, 69)] {
            cal.dispatch(0, 0, 2, wire(id, value, j));
        }
        st.outputs.refresh(70, &cal, None, |visit| visit(&st.band));
        let view = st.view();
        let outputs = view.outputs();
        // Full from landed packets alone, and only with those in flight.
        assert!(outputs.full[3] && view.output_full(PortId(3)));
        assert_eq!(outputs.tail[3], 5);
        assert!(outputs.full[63] && !view.output_queue(PortId(63)).is_full());
        assert_eq!(outputs.tail[63], 6);
        // The in-flight minimum below the landed tail is the tail.
        assert!(outputs.full[64]);
        assert_eq!(outputs.tail[64], 2);
        assert_eq!(view.output_tail_value(PortId(64)), Some(2));
        assert_eq!(outputs.full_words, [1 << 3 | 1 << 63, 1 << 0]);
        // Not full, yet the virtual queue has a tail.
        assert!(!view.output_full(PortId(69)));
        assert_eq!(outputs.tail[69], 0);
        assert_eq!(view.output_tail_value(PortId(69)), Some(4));
        assert_eq!(view.output_tail_value(PortId(68)), None);

        // A packet held by a link-down pair fills output 69.
        let mut faults = FaultRuntime::new(FaultPlan::default(), 3, 70);
        faults.hold(2, 69, false, packet(7, 1, 2, 69));
        st.outputs
            .refresh(70, &cal, Some(&faults), |visit| visit(&st.band));
        let outputs = st.view().outputs();
        assert!(outputs.full[69]);
        assert_eq!((outputs.in_flight[69], outputs.tail[69]), (2, 1));
        assert_eq!(outputs.full_words[1], 1 << 0 | 1 << 5);
    }

    #[test]
    fn a_view_is_its_bands() {
        let cfg = wide_crossbar();
        let (band, outputs) = (QueueBand::new(&cfg, 3..5, 2..4), OutputSnapshot::default());
        let view = SwitchView::new(&cfg, &band, &outputs, 7, 2);
        assert_eq!(
            (view.input_range(), view.shard(), view.slot()),
            (3..5, 2, 7)
        );
        assert!(view.crossbar_queue(PortId(4), PortId(6)).is_empty());
        assert!(view.output_queue(PortId(3)).is_empty());
        let whole = SwitchState::new(cfg);
        assert_eq!(
            (whole.view().input_range(), whole.view().shard()),
            (0..5, 0)
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "outside band"))]
    #[cfg_attr(not(debug_assertions), should_panic)]
    fn a_shard_view_never_answers_for_another_bands_output() {
        let cfg = wide_crossbar();
        let (band, outputs) = (QueueBand::new(&cfg, 3..5, 2..4), OutputSnapshot::default());
        let _ = SwitchView::new(&cfg, &band, &outputs, 0, 1).output_queue(PortId(4));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "outside band"))]
    #[cfg_attr(not(debug_assertions), should_panic)]
    fn a_row_outside_the_band_is_never_another_bands_queue() {
        let band = QueueBand::new(&wide_crossbar(), 3..5, 2..4);
        let _ = band.voq(PortId(1), PortId(0));
    }
}

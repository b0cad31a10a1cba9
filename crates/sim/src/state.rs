//! Switch state: the queues of one switch instance, plus the read-only view
//! handed to policies.
//!
//! The paper's model has one set of queues — `Q_ij`, `C_ij`, `Q_j` — and so
//! does this crate: [`QueueBand`], which holds the whole switch's and whose
//! methods are every per-packet rule. What policies read of the output side
//! is one [`OutputSnapshot`].

use crate::changes::ChangeLog;
use crate::mechanics;
use crate::policy::{Admission, PacketPick, PolicyError, Transfer};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::stats::StatsRecorder;
use crate::transport::{DelayCalendar, InFlightPacket, OutputSnapshot};
use cioq_model::{ConfigError, FabricKind, Packet, PortId, SlotId, SwitchConfig, Value};
use cioq_queues::{QueueMut, QueueRef, QueueStore};
use std::ops::Range;

/// Shard `s` of `k` contiguous shares of `n` ports: `⌊sn/k⌋..⌊(s+1)n/k⌋`.
#[inline]
pub(crate) fn share(s: usize, k: usize, n: usize) -> Range<usize> {
    s * n / k..(s + 1) * n / k
}

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

/// The switch's queues: `Q_ij` (and `C_ij` on a buffered crossbar) for
/// every input row × all M columns, `Q_j` for every output, and the
/// [`ChangeLog`] over them. Ports are global; the cells of the stores and
/// the log are row-major `i·M + j` for `Q_ij` / `C_ij` and `j` for `Q_j`.
///
/// Each queue class is one [`QueueStore`]: one packet slab reserved at
/// construction and recycled through a free list, so no queue allocates
/// after the band is built and the slab's live part stays as small as the
/// class's occupancy.
///
/// Every rule that puts a packet into or takes one out of a queue —
/// wrapped around the [`mechanics`] call that applies it — is a method
/// here, written once.
#[derive(Debug, Clone)]
pub(crate) struct QueueBand {
    /// `Q_ij`, row-major. snapshot: serialized
    voq: QueueStore,
    /// `C_ij` (buffered crossbar only). snapshot: serialized
    xbar: Option<QueueStore>,
    /// `Q_j`, cell `j`. snapshot: serialized
    outputs: QueueStore,
    /// Number of outputs `M`, the width of a row. snapshot: transient —
    /// geometry, from the config.
    m: usize,
    /// Queues dirtied since the last flush. snapshot: transient — a
    /// restored run uses fresh policies, whose caches full-rebuild on the
    /// flush-counter mismatch (the deterministic rebuild seam), so dirty
    /// sets need not survive.
    changes: ChangeLog,
}

impl QueueBand {
    /// The empty queues of a switch in configuration `cfg`, or the
    /// [`ConfigError::QueueReserve`] of the first store the host could not
    /// reserve.
    pub(crate) fn try_new(cfg: &SwitchConfig) -> Result<Self, ConfigError> {
        let (n, m) = (cfg.n_inputs, cfg.n_outputs);
        let store = |kind, cells: usize, capacity: usize| {
            QueueStore::try_new(cells, capacity).map_err(|_| ConfigError::QueueReserve {
                kind,
                slots: cells.saturating_mul(capacity),
            })
        };
        Ok(QueueBand {
            voq: store("input", n * m, cfg.input_capacity)?,
            xbar: cfg
                .crossbar_capacity
                .map(|b| store("crossbar", n * m, b))
                .transpose()?,
            outputs: store("output", m, cfg.output_capacity)?,
            m,
            changes: ChangeLog::new(n, m, cfg.crossbar_capacity.is_some()),
        })
    }

    /// Input queue `Q_ij`.
    #[inline]
    pub(crate) fn voq(&self, input: PortId, output: PortId) -> QueueRef<'_> {
        self.voq.get(self.cell(input, output))
    }

    /// Crossbar queue `C_ij`; panics on a plain CIOQ switch (policies for
    /// the wrong fabric are a programming error, caught loudly).
    #[inline]
    pub(crate) fn xbar(&self, input: PortId, output: PortId) -> QueueRef<'_> {
        self.xbar
            .as_ref()
            .expect("crossbar queue requested on a CIOQ switch")
            .get(self.cell(input, output))
    }

    /// Output queue `Q_j`.
    #[inline]
    pub(crate) fn output(&self, output: PortId) -> QueueRef<'_> {
        self.outputs.get(output.index())
    }

    /// Number of outputs `M`.
    #[inline]
    pub(crate) fn n_outputs(&self) -> usize {
        self.m
    }

    /// The switch's change log.
    #[inline]
    pub(crate) fn changes(&self) -> &ChangeLog {
        &self.changes
    }

    /// Clear the change log: the scheduling call that read it has returned.
    #[inline]
    pub(crate) fn flush(&mut self) {
        self.changes.flush();
    }

    /// The row-major cell of `(i, j)`.
    #[inline]
    fn cell(&self, input: PortId, output: PortId) -> usize {
        debug_assert!(output.index() < self.m);
        input.index() * self.m + output.index()
    }

    #[inline]
    fn xbar_mut(&mut self, cell: usize) -> QueueMut<'_> {
        self.xbar
            .as_mut()
            .expect("invariant: crossbar queues exist, asserted at run entry")
            .get_mut(cell)
    }

    /// Every store: `Q_ij`, then `C_ij`, then `Q_j`.
    fn stores(&self) -> impl Iterator<Item = &QueueStore> {
        std::iter::once(&self.voq)
            .chain(&self.xbar)
            .chain([&self.outputs])
    }

    /// Packets buffered in the queues — each store's live slots,
    /// O(1), so the drain loop's per-slot "anything left?" never walks a
    /// queue.
    pub(crate) fn residual_count(&self) -> u64 {
        self.stores().map(|s| s.live() as u64).sum()
    }

    /// Value buffered in the queues.
    pub(crate) fn residual_value(&self) -> u128 {
        self.stores().map(QueueStore::total_value).sum()
    }

    // The per-packet rules from here to `transmit` are `#[inline(always)]`:
    // each has one call site per engine, and left to the inliner's
    // heuristic they were outlined from the sequential slot loop — row 4 of
    // the benchmark (`xbar_cpg_bursty`) read 36.9 k slots/s against the
    // parent's 39.2 k, and 39.2 k with the attribute.

    /// Arrival phase, one packet: apply the policy's
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

    /// A transfer's first half: pop the packet it designates out of its
    /// source queue — `Q_ij` ([`QueueKind::Input`]) or `C_ij`
    /// ([`QueueKind::Crossbar`]) — as it enters the next hop.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn pop_transfer(
        &mut self,
        kind: QueueKind,
        t: &Transfer,
    ) -> Result<InFlightPacket, PolicyError> {
        let cell = self.cell(t.input, t.output);
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
        let packet = mechanics::pop(queue, t.pick, kind, Some(t.input), t.output)?;
        Ok(InFlightPacket::new(
            t.input,
            t.output,
            t.preempt_if_full,
            packet,
        ))
    }

    /// A crossbar input subphase's move `Q_ij → C_ij`.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn move_to_xbar(
        &mut self,
        stats: &mut StatsRecorder,
        faulted: bool,
        t: &Transfer,
    ) -> Result<(), PolicyError> {
        let p = self.pop_transfer(QueueKind::Input, t)?;
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
        let queue = self.outputs.get_mut(p.output as usize);
        mechanics::land(queue, stats, QueueKind::Output, faulted, p)
    }

    /// Transmission phase, one output: send the packet `pick`
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
        let queue = self.outputs.get_mut(output.index());
        let packet = mechanics::pop(queue, pick, QueueKind::Output, None, output)?;
        stats.on_transmit(&packet, slot, output.index());
        Ok(())
    }

    /// Append the checkpoint cells — each queue's packets head first, as
    /// [`QueueRef::iter`] yields them — to `snap`'s queue lists: row-major
    /// `Q_ij` / `C_ij` cells, ascending outputs.
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

    /// Refill the (fresh) queues from the cells of `snap`. The caller has
    /// checked that `snap`'s queue layout is the switch's. Slots and
    /// handles are numbered afresh; only content crosses a checkpoint.
    pub(crate) fn refill(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        let mut filled = fill(&mut self.voq, &snap.input_queues);
        if let (Some(xbar), Some(cells)) = (&mut self.xbar, &snap.crossbar_queues) {
            filled &= fill(xbar, cells);
        }
        filled &= fill(&mut self.outputs, &snap.output_queues);
        let msg = "serialized queue exceeds its capacity";
        filled
            .then_some(())
            .ok_or(SnapshotError::Format(msg.into()))
    }

    /// Verify every store: each queue within capacity and correctly sorted
    /// (value descending, id ascending — assumption A3), and each slab
    /// conserved. Returns a description of the first violation.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let named = [
            ("input queues (cells row-major)", Some(&self.voq)),
            ("crossbar queues (cells row-major)", self.xbar.as_ref()),
            ("output queues", Some(&self.outputs)),
        ];
        for (kind, store) in named.into_iter().filter_map(|(k, s)| Some((k, s?))) {
            store
                .check_invariants()
                .map_err(|e| format!("{kind}: {e}"))?;
        }
        Ok(())
    }
}

/// Insert each of `cells`' packets into the cell of `store` it lines up
/// with, in order; whether every packet fit.
fn fill(store: &mut QueueStore, cells: &[Vec<Packet>]) -> bool {
    cells.iter().enumerate().all(|(c, cell)| {
        let mut queue = store.get_mut(c);
        cell.iter().all(|p| queue.insert(*p).is_ok())
    })
}

/// The complete mutable state of one simulated switch: its queues plus the
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
        let band = QueueBand::try_new(&config)?;
        let mut outputs = OutputSnapshot::default();
        outputs.refresh(&band, &DelayCalendar::with_reserve(0, 0), None);
        Ok(SwitchState {
            config,
            band,
            slot: 0,
            outputs,
        })
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

    /// Read-only view for policies: the whole switch.
    #[inline]
    pub fn view(&self) -> SwitchView<'_> {
        SwitchView {
            config: &self.config,
            band: &self.band,
            outputs: &self.outputs,
            slot: self.slot,
            shard: 0,
            shards: 1,
        }
    }
}

/// Read-only window onto a switch's queues, the only thing policies see.
/// [`SwitchState::view`] answers for every input row; a view restricted to
/// shard `s` of `K` (what a partitioned scheduler's worker reads) answers
/// for the rows `⌊sN/K⌋..⌊(s+1)N/K⌋` of [`SwitchView::input_range`] only,
/// and asking it for another row's queue is a programming error, caught by
/// a debug assertion. Outputs are the whole switch's in every view.
///
/// Everything an online algorithm may legally inspect — current queue
/// contents and capacities — is available; nothing about future arrivals
/// is. [`SwitchView::changes`] additionally exposes which queues were
/// dirtied since the policy's last scheduling call, so incremental
/// policies can refresh O(changes) state instead of rescanning. Admission
/// reads the landed queues; scheduling reads the output side through
/// [`SwitchView::outputs`].
#[derive(Clone, Copy)]
pub struct SwitchView<'a> {
    config: &'a SwitchConfig,
    band: &'a QueueBand,
    outputs: &'a OutputSnapshot,
    slot: SlotId,
    /// The view answers for shard `shard` of `shards` equal row ranges.
    shard: u32,
    shards: u32,
}

impl<'a> SwitchView<'a> {
    /// The same view restricted to the rows of shard `shard` of `shards`.
    #[inline]
    pub(crate) fn restrict(&self, shard: usize, shards: usize) -> Self {
        debug_assert!(shard < shards && shards <= u32::MAX as usize);
        SwitchView {
            shard: shard as u32,
            shards: shards as u32,
            ..*self
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

    /// The shard whose rows the view answers for: 0 for the whole switch.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// The input rows the view answers for: `0..N` for the whole switch,
    /// the shard's own rows for a restricted view.
    #[inline]
    pub fn input_range(&self) -> Range<usize> {
        share(
            self.shard as usize,
            self.shards as usize,
            self.config.n_inputs,
        )
    }

    /// Input queue `Q_ij`, `i` a row of [`SwitchView::input_range`].
    #[inline]
    pub fn input_queue(&self, input: PortId, output: PortId) -> QueueRef<'a> {
        debug_assert!(
            self.input_range().contains(&input.index()),
            "row outside the view"
        );
        self.band.voq(input, output)
    }

    /// Crossbar queue `C_ij`, `i` a row of the view; panics if the switch
    /// is a plain CIOQ (policies for the wrong fabric are a programming
    /// error, caught loudly).
    #[inline]
    pub fn crossbar_queue(&self, input: PortId, output: PortId) -> QueueRef<'a> {
        debug_assert!(
            self.input_range().contains(&input.index()),
            "row outside the view"
        );
        self.band.xbar(input, output)
    }

    /// Whether this switch has crossbar buffers.
    #[inline]
    pub fn has_crossbar(&self) -> bool {
        self.config.crossbar_capacity.is_some()
    }

    /// Output queue `Q_j` — the *landed*
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
        self.outputs.is_full(output.index())
    }

    /// Least value of the virtual output queue `j` — the landed tail `v(l_j)` or the least value in flight toward `j`,
    /// whichever is smaller. `None` when the virtual queue is empty. This
    /// is the tail the preemption thresholds (PG's β, CPG's α) compare
    /// against. Exact during scheduling calls only, like
    /// [`SwitchView::output_full`].
    #[inline]
    pub fn output_tail_value(&self, output: PortId) -> Option<Value> {
        let j = output.index();
        self.outputs.tail_value(j, self.band.output(output))
    }

    /// The switch's queues dirtied since the engine's last scheduling call,
    /// over global cells `i·M + j` (every row's, whatever the view's
    /// range), plus the flush counter incremental policies use as a
    /// consistency handshake.
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

    /// The checkpoint cells of `band` in an otherwise empty snapshot of a
    /// `cfg` switch.
    fn cells(cfg: &SwitchConfig, band: &QueueBand) -> EngineSnapshot {
        let mut snap = Engine::new(cfg.clone(), RunOptions::default()).snapshot();
        snap.input_queues.clear();
        snap.crossbar_queues = None;
        snap.output_queues.clear();
        band.cells_out(&mut snap);
        snap
    }

    /// The empty queues of a `cfg` switch.
    fn band(cfg: &SwitchConfig) -> QueueBand {
        QueueBand::try_new(cfg).expect("small switch")
    }

    /// Put packets in all three queue families, through the band's own
    /// rules.
    fn fill(band: &mut QueueBand, stats: &mut StatsRecorder) {
        for (id, (i, j)) in [(0, 0), (1, 3), (2, 6), (4, 1), (4, 6), (2, 6)]
            .into_iter()
            .enumerate()
        {
            let p = packet(id as u64, 10 + id as Value, i, j);
            band.admit(stats, Admission::Accept, &p).unwrap();
        }
        let t = Transfer {
            input: PortId(4),
            output: PortId(6),
            pick: PacketPick::Greatest,
            preempt_if_full: false,
        };
        band.move_to_xbar(stats, false, &t).unwrap();
        for (id, j) in [(20, 0), (21, 4), (22, 6), (23, 6)] {
            let landing =
                InFlightPacket::new(PortId(0), PortId::from(j), false, packet(id, 7, 0, j));
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
    fn band_takes_global_ports_and_marks_global_cells() {
        let cfg = wide_crossbar();
        let mut band = band(&cfg);
        let mut stats = StatsRecorder::new(cfg.n_outputs);

        let p = packet(0, 9, 4, 1);
        band.admit(&mut stats, Admission::Accept, &p).unwrap();
        assert_eq!(band.voq(PortId(4), PortId(1)).len(), 1);
        // Row-major over all seven columns: cell 4·7 + 1.
        assert_eq!(band.changes().dirty_voqs(), &[29]);
        assert!(band.changes().dirty_xbars().is_empty());
        band.flush();

        let t = Transfer {
            input: PortId(4),
            output: PortId(1),
            pick: PacketPick::Greatest,
            preempt_if_full: false,
        };
        band.move_to_xbar(&mut stats, false, &t).unwrap();
        assert!(band.voq(PortId(4), PortId(1)).is_empty());
        assert_eq!(band.xbar(PortId(4), PortId(1)).len(), 1);
        assert_eq!(band.changes().dirty_voqs(), &[29]);
        assert_eq!(band.changes().dirty_xbars(), &[29]);

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
        let mut whole = band(&cfg);
        fill(&mut whole, &mut stats);
        let mut snap = cells(&cfg, &whole);

        // Fresh queues refilled from the cells hold what was filled in.
        let mut again = band(&cfg);
        again.refill(&snap).unwrap();
        assert_eq!(again.voq(PortId(1), PortId(3)).len(), 1);
        assert_eq!(again.voq(PortId(2), PortId(6)).len(), 2);
        assert_eq!(again.xbar(PortId(4), PortId(6)).len(), 1);
        assert_eq!(again.output(PortId(6)).len(), 2);
        assert_eq!(again.residual_count(), whole.residual_count());
        assert_eq!(again.residual_value(), whole.residual_value());
        assert_eq!(cells(&cfg, &again), snap);

        // One packet too many in `Q_26` (capacity 2).
        snap.input_queues[2 * 7 + 6].push(packet(99, 1, 2, 6));
        let band_err = band(&cfg).refill(&snap).unwrap_err();
        assert_eq!(
            band_err.to_string(),
            "malformed snapshot: serialized queue exceeds its capacity"
        );
        let engine_err = Engine::restore(&snap, RunOptions::default())
            .err()
            .expect("restore refuses the same cell");
        assert_eq!(engine_err.to_string(), band_err.to_string());
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
        st.outputs.refresh(&st.band, &cal, None);
        let view = st.view();
        let outputs = view.outputs();
        // Full from landed packets alone, and only with those in flight.
        assert!(outputs.is_full(3) && view.output_full(PortId(3)));
        assert_eq!(outputs.tail[3], 5);
        assert!(outputs.is_full(63) && !view.output_queue(PortId(63)).is_full());
        assert_eq!(outputs.tail[63], 6);
        // The in-flight minimum below the landed tail is the tail.
        assert!(outputs.is_full(64));
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
        st.outputs.refresh(&st.band, &cal, Some(&faults));
        let outputs = st.view().outputs();
        assert!(outputs.is_full(69));
        assert_eq!((outputs.in_flight[69], outputs.tail[69]), (2, 1));
        assert_eq!(outputs.full_words[1], 1 << 0 | 1 << 5);
    }

    #[test]
    fn a_view_is_its_bands() {
        let mut whole = SwitchState::new(wide_crossbar());
        whole.slot = 7;
        let view = whole.view();
        assert_eq!(
            (view.input_range(), view.shard(), view.slot()),
            (0..5, 0, 7)
        );
        // Shard 2 of 3 over five rows: ⌊2·5/3⌋..⌊3·5/3⌋.
        let shard = view.restrict(2, 3);
        assert_eq!(
            (shard.input_range(), shard.shard(), shard.slot()),
            (3..5, 2, 7)
        );
        assert!(shard.crossbar_queue(PortId(4), PortId(6)).is_empty());
        // Outputs are the whole switch's in every view.
        assert!(shard.output_queue(PortId(0)).is_empty());
        // Shard and shard count are two `u32`s: three references, the
        // slot, and one word for both.
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<SwitchView<'_>>(), 3 * word + 8 + 8);
    }

    /// A restricted view never answers for another shard's row: in debug
    /// builds the view's range check catches it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "row outside the view")]
    fn a_row_outside_the_band_is_never_another_bands_queue() {
        let st = SwitchState::new(wide_crossbar());
        let _ = st.view().restrict(2, 3).input_queue(PortId(1), PortId(0));
    }
}
